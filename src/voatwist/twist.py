"""Twisted modules built as shift-operator chains over a vacuum module.

A TwistedModule keeps the untwisted module as its underlying space and a
tuple of validated shift operators.  Its vertex operator is the untwisted
one applied to the chain-transformed state:

    Y_new(v, x) w  =  Y(D_1(x) ... D_k(x) v, x) w,

with the most recent operator acting on v first.  Everything stays exact:
series come back as LogSeries of PBWVectors trusted up to an explicit
ceiling.  A mode is read as one coefficient: for each chain term of the
wanted log power, the base module's mode reader at the mode left over, so
no whole series is built per target.

The chain image of a basis monomial and a mode operator's image of a basis
target are memoized, and a basis input with coefficient int 1 gets that
image itself: shared and read-only, as delta_apply serves D(b), so no
caller may mutate what these reads return.  The grading offsets and the
modes built from them are ints where integral.

The attached automorphism is tracked as structured data (semisimple part,
nilpotent part, optional diagram factor and conjugator).  Its action on
module vectors uses cyclotomic scalars: an eigencomponent of eigenvalue
lam picks up zeta_D^(-D lam), and the unipotent factor expands in the
formal 2*pi*i symbol carried by Cyc.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import factorial, floor, lcm

from .delta import DeltaOperator, current_element, delta_apply_series, make_delta
from .errors import DomainError, NotFixed, NotIntertwining, Unsupported
from .fock import InducedModule
from .lie import AutomorphismData, GAutomorphism, LieElt
from .linalg import memo
from .scalars import Cyc, fmt_rational, int_if_integral
from .series import LogSeries, PBWVector, accumulate, monomial_weight, series_eq, series_sum

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
    """A chain of shift operators over an untwisted vacuum module."""

    def __init__(self, base: InducedModule, steps, aut: AutomorphismData):
        self.base = base
        self.steps = tuple(steps)
        self.aut = aut

    @property
    def conjugator(self):
        return self.aut.conjugator

    @property
    def algebra(self):
        return self.base.algebra

    @property
    def level(self):
        return self.base.level

    def branch_order(self) -> int:
        """Smallest D with all mode classes in (1/D) * integers."""
        d = 1
        for step in self.steps:
            for lam in step.eig.values:
                d = lcm(d, F(lam).denominator)
        return d

    # -- vertex operators ------------------------------------------------

    def chain_transform(self, v: PBWVector) -> LogSeries:
        """The full shift-chain image of v, an exact finite LogSeries.

        The chain is linear, so an exact nonzero v sums the memoized images
        of its monomials, and a basis monomial with coefficient int 1 gets
        its memoized image itself, shared and read-only as delta_apply
        serves D(b).  A flagged or zero v goes through the chain whole: the
        flagged zeros that delta_apply keeps depend on how its input is
        split into monomials, and a sum of images would lose them."""
        if v.truncated or not v.c:
            return self._transform_whole(v)
        if len(v.c) == 1:
            [(mono, c)] = v.c.items()
            if type(c) is int and c == 1:
                return self._chain_image(mono)
        return series_sum((e, k, vec.c, c, vec.truncated)
                          for mono, c in v.c.items()
                          for (e, k), vec in self._chain_image(mono).terms.items())

    @memo
    def _chain_image(self, mono) -> LogSeries:
        return self._transform_whole(PBWVector({mono: 1}))

    def _transform_whole(self, v: PBWVector) -> LogSeries:
        """The conjugator, then every step from the most recent one."""
        if self.conjugator is not None:
            v = apply_lie_matrix(self.base, self.conjugator.inverse().matrix, v)
        ser = LogSeries({(0, 0): v})
        for step in reversed(self.steps):
            ser = delta_apply_series(step, ser)
        return ser

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        """Y_new(v, x) w, exact to ceiling: the base series of each chain
        term, summed per key.  A single chain term x^e1 log^k1 gives its
        base series with the keys moved by (e1, k1), whose fresh vectors
        are kept as they are."""
        ceiling = int_if_integral(ceiling)
        chain = self.chain_transform(v).terms
        reads = ((e1, k1, self.base.vertex_series(vec1, w, floor(ceiling - e1)).terms)
                 for (e1, k1), vec1 in chain.items())
        if len(chain) == 1:
            [(e1, k1, terms)] = reads
            out = LogSeries(ceiling=ceiling)
            for (e2, _k2), vec2 in terms.items():
                out.terms[int_if_integral(e1 + e2), k1] = vec2
            return out
        return series_sum(((e1 + e2, k1, vec2.c, None, vec2.truncated)
                           for e1, k1, terms in reads
                           for (e2, _k2), vec2 in terms.items()),
                          ceiling)

    def mode(self, v: PBWVector, m, l: int = 0):
        """The (m, l) mode of Y_new(v, x): coefficient of x^(-m-1) log^l.

        On its first call the returned operator transforms v along the
        chain and builds one base reader (InducedModule.vertex_operator_mode)
        for each chain term x^e1 log^l whose base mode m + e1 is an integer.
        Linear in the target, it keeps the image of each target monomial it
        has met while held: the sum of those readers on the monomial, never
        a series.  A basis target with coefficient int 1 gets that image
        itself, shared and read-only.  With no such chain term it is zero.
        Outputs carry the flags of the coefficients read and of the target."""
        m = int_if_integral(m)
        readers = None
        images = {}

        def image(mono):
            w = PBWVector({mono: 1})
            return reduce(PBWVector.__add__, [read(w) for read in readers])

        def op(w: PBWVector) -> PBWVector:
            nonlocal readers
            if readers is None:
                readers = [self.base.vertex_operator_mode(vec1, m + e1)
                           for (e1, k1), vec1 in self.chain_transform(v).terms.items()
                           if k1 == l and (m + e1).denominator == 1]
            if not readers:
                return PBWVector(None, w.truncated)
            if len(w.c) == 1 and not w.truncated:
                [(mono, cw)] = w.c.items()
                if type(cw) is int and cw == 1:
                    img = images.get(mono)
                    if img is None:
                        img = images[mono] = image(mono)
                    return img
            out = {}
            trunc = w.truncated
            for mono, cw in w.c.items():
                img = images.get(mono)
                if img is None:
                    img = images[mono] = image(mono)
                accumulate(out, img.c, cw)
                trunc = trunc or img.truncated
            return PBWVector.adopt(out, trunc)

        return op

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

    def weight_of(self, mono) -> Fraction:
        """Conformal weight of a monomial in the fully twisted grading."""
        return monomial_weight(mono) - self.class_of(mono) + self.grading()[2]

    def class_of(self, mono) -> Fraction:
        """Accumulated grading-class offset of a monomial (exact, not mod 1)."""
        offsets, zero_mode, _half_kappa = self.grading()
        cls = -zero_mode
        for gi, _m in mono:
            lam = offsets[gi]
            if lam is None:
                raise Unsupported(
                    "grading needs every generator to be an eigenvector of each "
                    "step's semisimple part")
            cls += lam
        return cls

    # -- the attached automorphism ----------------------------------------

    @memo
    def automorphism_matrix(self):
        """Coordinate matrix of the attached automorphism, with Cyc entries
        wherever a root of unity or the formal 2*pi*i symbol is needed."""
        return _aut_coord_matrix(self.algebra, self.aut, self.branch_order())

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
            cur = comp
            for lp in range(0, l + 1):
                if cur.is_zero():
                    break
                c = F((-1) ** lp, factorial(lp))
                sub_ops, sub_scalar = self._fold_mode(j - 1, cur, m - lam, l - lp)
                accumulate(ops_total, sub_ops, c)
                scalar_total += c * sub_scalar
                cur = alg.bracket(step.n, cur)
        if m == 0 and l == 0:
            scalar_total -= alg.form(step.a, elt) * self.level
        return ({key: int_if_integral(c) for key, c in ops_total.items()},
                int_if_integral(scalar_total))


def untwisted_as_twisted(module: InducedModule) -> TwistedModule:
    return TwistedModule(module, (), AutomorphismData.identity(module.algebra))


def _aut_coord_matrix(alg, aut: AutomorphismData, order: int):
    dim = alg.dim
    cols = []
    semi = aut.inner_semisimple_part
    nil = aut.inner_nilpotent_part
    eig = alg.ad_eigendata(semi) if semi is not None and not semi.is_zero() else None
    for gi in range(dim):
        elt = alg._basis_elt(gi)
        if aut.conjugator is not None:
            elt = aut.conjugator.inverse()(elt)
        # semisimple factor: eigencomponent lam scales by zeta^(-D lam)
        pieces = []
        if eig is not None:
            for lam, comp in eig.decompose(elt).items():
                dl = F(lam) * order
                if dl.denominator != 1:
                    raise DomainError("branch order does not clear an eigenvalue")
                pieces.append((Cyc.zeta(order, -int(dl)), comp))
        else:
            pieces.append((F(1), elt))
        # unipotent factor: sum_k (-T)^k ad_nil^k / k!
        expanded = []
        for scale, comp in pieces:
            if nil is not None and not nil.is_zero():
                cur, k = comp, 0
                while not cur.is_zero():
                    tfac = Cyc.t_power(k) * F((-1) ** k, factorial(k))
                    expanded.append((scale * tfac, cur))
                    cur = alg.bracket(nil, cur)
                    k += 1
            else:
                expanded.append((scale, comp))
        # diagram factor and the conjugator on the way out
        col = [F(0)] * dim
        for scale, comp in expanded:
            if aut.diagram_part is not None:
                comp = aut.diagram_part(comp)
            if aut.conjugator is not None:
                comp = aut.conjugator(comp)
            for gj, c in enumerate(comp.coords):
                if c:
                    col[gj] = col[gj] + scale * c
        cols.append(col)
    # rows indexed by target generator, columns by source
    return [[cols[src][dst] for src in range(dim)] for dst in range(dim)]


def apply_lie_matrix(module: InducedModule, matrix, vec: PBWVector) -> PBWVector:
    """Extend a generator-level linear map multiplicatively over monomials."""
    alg = module.algebra

    def split(gi):
        return [(0, matrix[gj][gi], alg._basis_elt(gj))
                for gj in range(alg.dim) if matrix[gj][gi]]

    total = PBWVector({}, vec.truncated)
    for mono, coeff in vec.c.items():
        for image in module.expand_monomial(mono, split).values():
            total = total + coeff * image
    return total


def make_twisted(target, u: PBWVector,
                 legacy_sign_convention: bool = False) -> TwistedModule:
    """Extend a (possibly already twisted) module by one shift operator.

    The current vector u must be fixed by the attached automorphism of the
    target, otherwise NotFixed is raised.  The automorphism data of the
    result is the merged product; combinations the structured data cannot
    express raise Unsupported.
    """
    if isinstance(target, InducedModule):
        target = untwisted_as_twisted(target)
    # the cheap rejections run first: the shape of u (DomainError), the
    # critical level, then fixedness (DomainError if the image is truncated,
    # else NotFixed).  The errors of make_delta's Jordan decomposition and
    # self-pairing (NeedsFieldExtension, NotSemisimple, DomainError) come
    # after them, so a current that is neither fixed nor split raises NotFixed
    if not current_element(target.base, u).is_zero():
        target.base.require_noncritical()
        image = target.automorphism_apply(u)
        diff = image - u
        if diff.truncated:
            raise DomainError(
                "the automorphism image of the current vector is truncated; "
                "raise the module cutoff")
        if not diff.is_zero():
            raise NotFixed(
                "the current vector is not fixed by the attached automorphism")
    delta = make_delta(target.base, u, legacy_sign_convention)
    aut = _merge_aut(target.algebra, target.aut, delta)
    return TwistedModule(target.base, target.steps + (delta,), aut)


def _merge_aut(alg, aut: AutomorphismData, delta: DeltaOperator) -> AutomorphismData:
    s_u, n_u = delta.s, delta.n
    h = aut.inner_semisimple_part if aut.inner_semisimple_part is not None else alg.zero()
    n = aut.inner_nilpotent_part if aut.inner_nilpotent_part is not None else alg.zero()

    if not alg.bracket(h, s_u).is_zero():
        raise Unsupported("semisimple parts of the automorphisms do not commute")
    if not alg.bracket(n, n_u).is_zero():
        raise Unsupported("nilpotent parts of the automorphisms do not commute")
    # the exponentiated semisimple factor of the new step must fix the old
    # nilpotent part: every eigencomponent needs an integer eigenvalue
    if not n.is_zero() and not s_u.is_zero():
        for lam, comp in alg.ad_eigendata(s_u).decompose(n).items():
            if not comp.is_zero() and F(lam).denominator != 1:
                raise Unsupported(
                    "the new semisimple factor moves the old nilpotent part")
    h2 = h + s_u
    n2 = n + n_u
    if not n2.is_zero() and not h2.is_zero():
        for lam, comp in alg.ad_eigendata(h2).decompose(n2).items():
            if not comp.is_zero() and F(lam).denominator != 1:
                raise Unsupported(
                    "merged semisimple factor does not fix the merged nilpotent part")
    return replace(aut,
                   inner_semisimple_part=None if h2.is_zero() else h2,
                   inner_nilpotent_part=None if n2.is_zero() else n2)


def transport_tau(twisted: TwistedModule, tau: GAutomorphism) -> TwistedModule:
    """Conjugate the construction by a Lie algebra automorphism.

    The transported vertex operator feeds tau^(-1) v into the original one;
    the attached automorphism is conjugated accordingly.
    """
    old = twisted.conjugator
    new_conj = tau if old is None else tau.compose(old)
    return TwistedModule(twisted.base, twisted.steps,
                         replace(twisted.aut, conjugator=new_conj))


# -- graded module maps and their transport --------------------------------


class ModuleMap:
    """A weight-diagonal linear map of the underlying space."""

    def __init__(self, default=F(1), weight_scalars=None):
        self.default = default
        self.weight_scalars = dict(weight_scalars or {})

    def scalar_at(self, weight):
        return self.weight_scalars.get(int(weight), self.default)

    def apply(self, vec: PBWVector) -> PBWVector:
        return PBWVector({mono: self.scalar_at(monomial_weight(mono)) * c
                          for mono, c in vec.c.items()}, vec.truncated)


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
                bv = PBWVector({mono: F(1)})
                unmapped = twisted.vertex_series(v, bv, ceiling)
                for i, mapping in enumerate(mappings):
                    if failures[i] is not None:
                        continue
                    mapped = mapping.apply(bv)
                    # an equal input has an equal image: no read needed
                    left = unmapped if mapped.c == bv.c and not mapped.truncated \
                        else twisted.vertex_series(v, mapped, ceiling)
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
    """
    elt = twisted.base._as_elt(b)
    return twisted._fold_mode(len(twisted.steps), elt, int_if_integral(m), int(l))


def apply_table_entry(module: InducedModule, entry, vec: PBWVector) -> PBWVector:
    ops, scalar = entry
    out = {}
    if scalar:
        accumulate(out, vec.c, scalar)
    trunc = vec.truncated
    for (gi, mode), coeff in ops.items():
        moved = module.apply_mode(module.algebra._basis_elt(gi), mode, vec)
        accumulate(out, moved.c, coeff)
        trunc = trunc or moved.truncated
    return PBWVector.adopt(out, trunc)


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
                         "mode": fmt_rational(F(mm)),
                         "coefficient": fmt_rational(c)}
                        for (gj, mm), c in sorted(ops.items())
                    ],
                    "scalar": fmt_rational(scalar),
                })
    return rows
