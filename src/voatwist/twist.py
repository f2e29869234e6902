"""Twisted modules built as shift-operator chains over a vacuum module.

A TwistedModule keeps the untwisted module as its underlying space and a
tuple of validated shift operators.  Its vertex operator is the untwisted
one applied to the chain-transformed state:

    Y_new(v, x) w  =  Y(D_1(x) ... D_k(x) v, x) w,

with the most recent operator acting on v first.  Everything stays exact:
a series read to an explicit ceiling comes back as a LogSeries of
PBWVectors holding exactly its terms at or below it.  A mode is read as
one coefficient: for each chain term of the wanted log power, the base
module's mode reader at the mode left over, so no whole series is built
per target.

The chain image of a basis monomial and a mode operator's image of a basis
target are memoized and read through series.linear_series and linear_image:
shared and read-only, as delta_apply serves D(b), so no caller may mutate
what these reads return.  The grading offsets and the modes built from
them are ints where integral.

The attached automorphism is read off the chain itself: the product of the
steps' factors exp(-2 pi i ad u_j), with an optional diagram factor and
conjugator.  Its action on module vectors uses cyclotomic scalars: an
eigencomponent of eigenvalue lam picks up zeta_D^(-D lam), and a unipotent
factor expands in the formal 2*pi*i symbol carried by Cyc.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, floor, lcm

from .delta import current_element, delta_apply_series, make_delta
from .errors import NotFixed, NotIntertwining, Unsupported
from .fock import InducedModule
from .lie import GAutomorphism, LieElt
from .linalg import memo
from .scalars import Cyc, fmt_rational, int_if_integral
from .series import (LogSeries, PBWVector, accumulate, factors, linear_image, linear_series,
                     monomial_weight, series_eq, series_sum)

__all__ = [
    "TwistedModule",
    "ModuleMap",
    "untwisted_as_twisted",
    "make_twisted",
    "transport_tau",
    "functor_on_map",
    "mode_table_entry",
]

F = Fraction


class TwistedModule:
    """A chain of shift operators over an untwisted vacuum module, with an
    optional diagram factor and an optional conjugator tau (both
    GAutomorphisms).  The steps live in the untransported frame: the
    vertex operator feeds tau^(-1) v to the chain."""

    def __init__(self, base: InducedModule, steps, diagram=None, conjugator=None):
        self.base = base
        self.steps = tuple(steps)
        self.diagram = diagram
        self.conjugator = conjugator

    @property
    def algebra(self):
        return self.base.algebra

    @property
    def level(self):
        return self.base.level

    def branch_order(self) -> int:
        """D with all mode classes in (1/D) * integers: the lcm of the
        diagram factor's order and the steps' eigenvalue denominators."""
        d = 1 if self.diagram is None else self.diagram.order()
        for step in self.steps:
            for lam in step.eig.values:
                d = lcm(d, F(lam).denominator)
        return d

    # -- the conjugator's frame -------------------------------------------

    def to_step_frame(self, elt: LieElt) -> LieElt:
        """tau^-1 elt: a Lie element of the transported frame in the
        frame the steps live in (elt itself without a conjugator)."""
        return elt if self.conjugator is None else self.conjugator.inverse()(elt)

    def from_step_frame(self, elt: LieElt) -> LieElt:
        """tau elt, the inverse of to_step_frame."""
        return elt if self.conjugator is None else self.conjugator(elt)

    # -- vertex operators ------------------------------------------------

    def chain_transform(self, v: PBWVector) -> LogSeries:
        """The full shift-chain image of v, an exact finite LogSeries: the
        chain is linear, so it is linear_series over the memoized images of
        v's monomials."""
        return linear_series(v, self._chain_image)

    @memo
    def _chain_image(self, mono) -> LogSeries:
        """The conjugator, then every step from the most recent one."""
        v = PBWVector({mono: 1})
        if self.conjugator is not None:
            v = apply_lie_matrix(self.base, self.conjugator.inverse().matrix, v)
        ser = LogSeries({(0, 0): v})
        for step in reversed(self.steps):
            ser = delta_apply_series(step, ser)
        return ser

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        """Y_new(v, x) w, exact to ceiling: the base series of each chain
        term x^e1 log^k1, read to ceiling - e1 and moved by (e1, k1),
        summed per key."""
        reads = ((e1, k1, self.base.vertex_series(vec1, w, floor(ceiling - e1)).terms)
                 for (e1, k1), vec1 in self.chain_transform(v).terms.items())
        return series_sum((e1 + e2, k1, vec2.c)
                          for e1, k1, terms in reads
                          for (e2, _k2), vec2 in terms.items())

    def mode(self, v: PBWVector, m, l: int = 0):
        """The (m, l) mode of Y_new(v, x): coefficient of x^(-m-1) log^l.

        Transforms v along the chain and builds one base reader
        (InducedModule.vertex_operator_mode) for each chain term
        x^e1 log^l whose base mode m + e1 is an integer, except c|0> at a
        base mode other than -1: Y(|0>, x) is the identity, so that read
        is exactly zero.
        The returned operator reads a target through linear_image over the
        image of each of its monomials, the sum of those readers on it
        (never a series), kept while the operator is held.  With no such
        chain term it is zero."""
        m = int_if_integral(m)
        readers = [self.base.vertex_operator_mode(vec1, n)
                   for (e1, k1), vec1 in self.chain_transform(v).terms.items()
                   if k1 == l and (n := m + e1).denominator == 1
                   and (n == -1 or vec1.c.keys() != {""})]
        if not readers:
            return lambda w: PBWVector()

        @lru_cache(maxsize=None)
        def image(mono):
            w = PBWVector({mono: 1})
            return reduce(PBWVector.__add__, [read(w) for read in readers])

        return lambda w: linear_image(w, image)

    def gen_mode(self, b, m, l: int = 0):
        return self.mode(self.base.current(self.base._as_elt(b)), m, l)

    # -- grading ----------------------------------------------------------

    @memo
    def grading(self):
        """(offsets, zero_mode, half_kappa): each generator's class offset,
        its eigenvalues summed over the steps (None unless it is an
        eigenvector of every step); the scalar parts of the steps' zero
        modes s_j(0), each summed from the earlier steps; and sum kappa/2.
        Each value is an int where integral."""
        steps, alg = self.steps, self.algebra
        zero_mode = sum(alg.form(earlier.a, step.s) * self.level
                        for j, step in enumerate(steps) for earlier in steps[:j])
        offsets = []
        for gi in range(alg.dim):
            lams = [step.eig.generator_eigenvalues()[gi] for step in steps]
            offsets.append(None if None in lams else int_if_integral(sum(lams)))
        return (offsets, int_if_integral(zero_mode),
                int_if_integral(sum(F(step.kappa, 2) for step in steps)))

    @memo
    def lattice_grading(self):
        """grading() on an integer lattice: (scale, offsets, base, kappa),
        where scale is the lcm of the denominators of the class offsets, the
        zero mode and kappa/2, offsets are the class offsets times scale
        (None where grading() has None), base is -zero_mode times scale and
        kappa is kappa/2 times scale, all ints."""
        offsets, zero_mode, half_kappa = self.grading()
        scale = lcm(zero_mode.denominator, half_kappa.denominator,
                    *(lam.denominator for lam in offsets if lam is not None))

        def scaled(q):
            return q.numerator * (scale // q.denominator)

        return (scale, [None if lam is None else scaled(lam) for lam in offsets],
                -scaled(zero_mode), scaled(half_kappa))

    def lattice_grade(self, mono) -> tuple:
        """(weight_of(mono), class_of(mono)) times the scale of
        lattice_grading(), both ints."""
        scale, offsets, cls, kappa = self.lattice_grading()
        for gi, _m in factors(mono):
            lam = offsets[gi]
            if lam is None:
                raise Unsupported(
                    "grading needs every generator to be an eigenvector of each "
                    "step's semisimple part")
            cls += lam
        return monomial_weight(mono) * scale - cls + kappa, cls

    def weight_of(self, mono) -> Fraction:
        """Conformal weight of a monomial in the fully twisted grading."""
        return int_if_integral(F(self.lattice_grade(mono)[0], self.lattice_grading()[0]))

    def class_of(self, mono) -> Fraction:
        """Accumulated grading-class offset of a monomial (exact, not mod 1)."""
        return int_if_integral(F(self.lattice_grade(mono)[1], self.lattice_grading()[0]))

    # -- the attached automorphism ----------------------------------------

    @memo
    def automorphism_matrix(self):
        """Coordinate matrix of the attached automorphism
        tau o (diagram o prod_j exp(-2 pi i ad u_j)) o tau^-1, rows indexed by
        target generator, with Cyc entries wherever a root of unity or the
        formal 2*pi*i symbol is needed.  Each current is fixed by the
        automorphism before its step, so its factor commutes with that
        automorphism; the factors apply from the most recent step."""
        alg, order = self.algebra, self.branch_order()
        cols = []
        for gi in range(alg.dim):
            pieces = [(F(1), self.to_step_frame(alg._basis_elt(gi)))]
            for step in reversed(self.steps):
                if not step.s.is_zero():
                    # eigencomponent lam of s scales by zeta^(-D lam)
                    pieces = [(scale * Cyc.zeta(order, -lam * order), comp)
                              for scale, piece in pieces
                              for lam, comp in step.eig.decompose(piece).items()]
                if not step.n.is_zero():
                    # the unipotent factor: sum_k (-T)^k ad_n^k / k!
                    pieces = [(scale * (Cyc.t_power(k) * F((-1) ** k, factorial(k))), comp)
                              for scale, piece in pieces
                              for k, comp in enumerate(_ad_powers(alg, step.n, piece))]
            # the diagram factor and the conjugator on the way out
            col = [F(0)] * alg.dim
            for scale, comp in pieces:
                if self.diagram is not None:
                    comp = self.diagram(comp)
                for gj, c in enumerate(self.from_step_frame(comp).coords):
                    if c:
                        col[gj] = col[gj] + scale * c
            cols.append(col)
        return [[cols[src][dst] for src in range(alg.dim)] for dst in range(alg.dim)]

    def automorphism_apply(self, vec: PBWVector) -> PBWVector:
        return apply_lie_matrix(self.base, self.automorphism_matrix(), vec)

    # -- closed-form mode tables ------------------------------------------

    @memo
    def _fold_mode(self, j: int, elt: LieElt, m, l: int):
        """mode_table_entry of elt_(m, l) through the first j steps, its
        integral values ints."""
        alg = self.algebra
        if elt.is_zero():
            return {}, 0
        if j == 0:
            if l != 0 or m.denominator != 1:
                return {}, 0
            return {(gi, int(m)): c for gi, c in elt.terms()}, 0
        step = self.steps[j - 1]
        ops_total = {}
        scalar_total = 0
        for lam, comp in step.eig.decompose(elt).items():
            # an integral eigenvalue as an int keeps an int mode an int key
            sub_m = m - int_if_integral(lam)
            # zip stops at lp = l before taking one more bracket
            for lp, cur in zip(range(l + 1), _ad_powers(alg, step.n, comp)):
                c = (-1) ** lp if lp < 2 else F((-1) ** lp, factorial(lp))
                sub_ops, sub_scalar = self._fold_mode(j - 1, cur, sub_m, l - lp)
                accumulate(ops_total, sub_ops.items(), c)
                scalar_total += c * sub_scalar
        if m == 0 and l == 0:
            scalar_total -= alg.form(step.a, elt) * self.level
        return ops_total, int_if_integral(scalar_total)


def untwisted_as_twisted(module: InducedModule) -> TwistedModule:
    return TwistedModule(module, ())


def _ad_powers(alg, n: LieElt, elt: LieElt):
    """elt, [n, elt], [n, [n, elt]], ... up to the last nonzero one."""
    while not elt.is_zero():
        yield elt
        elt = alg.bracket(n, elt)


def apply_lie_matrix(module: InducedModule, matrix, vec: PBWVector) -> PBWVector:
    """Extend a generator-level linear map multiplicatively over monomials."""
    alg = module.algebra

    def split(gi):
        return [(0, matrix[gj][gi], alg._basis_elt(gj))
                for gj in range(alg.dim) if matrix[gj][gi]]

    # every key of split is 0, so each expansion has at most one entry
    return linear_image(vec, lambda mono: module.expand_monomial(mono, split).get(0)
                        or PBWVector())


def make_twisted(target, u: PBWVector,
                 legacy_sign_convention: bool = False) -> TwistedModule:
    """Extend a (possibly already twisted) module by one shift operator.

    The current vector u must be fixed by the attached automorphism of the
    target, otherwise NotFixed is raised.  Behind a conjugator tau the new
    step holds tau^(-1) u, since tau Delta_u tau^(-1) = Delta_(tau u); the
    attached automorphism of the result is read off its chain.
    """
    if isinstance(target, InducedModule):
        target = untwisted_as_twisted(target)
    # the cheap rejections run first: the shape of u (DomainError), the
    # critical level, then fixedness (NotFixed).  The errors of make_delta's
    # Jordan decomposition and self-pairing (NeedsFieldExtension,
    # NotSemisimple, DomainError) come after them, so a current that is
    # neither fixed nor split raises NotFixed
    a = current_element(target.base, u)
    if not a.is_zero():
        target.base.require_noncritical()
        if not (target.automorphism_apply(u) - u).is_zero():
            raise NotFixed(
                "the current vector is not fixed by the attached automorphism")
    u = target.base.current(target.to_step_frame(a))
    delta = make_delta(target.base, u, legacy_sign_convention)
    return TwistedModule(target.base, target.steps + (delta,), target.diagram,
                         target.conjugator)


def transport_tau(twisted: TwistedModule, tau: GAutomorphism) -> TwistedModule:
    """Conjugate the construction by a Lie algebra automorphism.

    The transported vertex operator feeds tau^(-1) v into the original one;
    the attached automorphism is conjugated accordingly.
    """
    old = twisted.conjugator
    return TwistedModule(twisted.base, twisted.steps, twisted.diagram,
                         tau if old is None else tau.compose(old))


# -- graded module maps and their transport --------------------------------


class ModuleMap:
    """A weight-diagonal linear map of the underlying space; its scalars are
    stored under the scalar rule, an integral one as an int."""

    def __init__(self, default=1, weight_scalars=None):
        self.default = int_if_integral(default)
        self.weight_scalars = {w: int_if_integral(c)
                               for w, c in (weight_scalars or {}).items()}

    def scalar_at(self, weight):
        return self.weight_scalars.get(int(weight), self.default)

    def apply(self, vec: PBWVector) -> PBWVector:
        return PBWVector({mono: self.scalar_at(monomial_weight(mono)) * c
                          for mono, c in vec.c.items()})


def functor_on_map(twisted: TwistedModule, mappings,
                   probe_weight: int = 2, ceiling: int = 2) -> list:
    """Transport graded maps along the twisting functor.

    The underlying space does not change, so a transported map is the
    same assignment; what needs checking is that it still intertwines the
    twisted action.  Probes run over current vectors against the basis up
    to probe_weight, and the unmapped side of each probe is computed once
    for all the maps.  Returns one entry per map: None if it intertwines,
    else the NotIntertwining error naming its first failing series key.
    """
    base, alg = twisted.base, twisted.algebra
    probes = [base.current(alg._basis_elt(gi)) for gi in range(alg.dim)]
    failures = [None] * len(mappings)
    for v in probes:
        for w in range(probe_weight + 1):
            for mono in base.basis(w):
                bv = PBWVector({mono: 1})
                unmapped = twisted.vertex_series(v, bv, ceiling)
                for i, mapping in enumerate(mappings):
                    if failures[i] is not None:
                        continue
                    mapped = mapping.apply(bv)
                    # an equal input has an equal image: no read needed
                    left = (unmapped if mapped.c == bv.c
                            else twisted.vertex_series(v, mapped, ceiling))
                    witness = series_eq(left, unmapped.map_values(mapping.apply))
                    if witness is not None:
                        failures[i] = NotIntertwining(
                            f"map fails to intertwine at series key {witness[:2]}")
    return failures


# -- closed-form mode tables ------------------------------------------------


def mode_table_entry(twisted: TwistedModule, b, m, l: int = 0):
    """The twisted mode b_(m, l) written over untwisted modes.

    Returns (ops, scalar) with ops a dict {(generator index, integer mode):
    coefficient} and scalar the accumulated multiple of the identity, so

        b_(m, l)  =  sum ops[gi, mode] * b_gi(mode)  +  scalar * Id.

    Behind a conjugator tau the table is that of tau^-1 b: the transported
    b_(m, l) is the untransported (tau^-1 b)_(m, l).
    """
    elt = twisted.to_step_frame(twisted.base._as_elt(b))
    return twisted._fold_mode(len(twisted.steps), elt, int_if_integral(m), int(l))


def apply_table_entry(module: InducedModule, entry, vec: PBWVector) -> PBWVector:
    ops, scalar = entry
    out = {}
    if scalar:
        accumulate(out, vec.c.items(), scalar)
    for (gi, mode), coeff in ops.items():
        moved = module.apply_mode(module.algebra._basis_elt(gi), mode, vec)
        accumulate(out, moved.c.items(), coeff)
    return PBWVector.adopt(out)


def mode_candidates(span: int, order: int):
    """Every mode on the 1/order lattice in [-span, span], ascending, ints
    where integral."""
    return [t // order if t % order == 0 else F(t, order)
            for t in range(-int(span) * order, int(span) * order + 1)]


def mode_table_rows(twisted: TwistedModule, modes, l_max: int) -> list:
    """JSON rows of the nonzero closed-form mode tables of every generator
    over the given modes and log powers 0..l_max."""
    alg = twisted.algebra
    rows = []
    for gi in range(alg.dim):
        for m in modes:
            for l in range(l_max + 1):
                ops, scalar = mode_table_entry(twisted, alg._basis_elt(gi), m, l)
                if not ops and scalar == 0:
                    continue
                rows.append({
                    "generator": alg.names[gi],
                    "mode": fmt_rational(m),
                    "logPower": l,
                    "ops": [
                        {"generator": alg.names[gj],
                         "mode": fmt_rational(mm),
                         "coefficient": fmt_rational(c)}
                        for (gj, mm), c in sorted(ops.items())
                    ],
                    "scalar": fmt_rational(scalar),
                })
    return rows
