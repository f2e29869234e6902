"""Twisted modules built as shift-operator chains over a vacuum module.

A TwistedModule keeps the untwisted module as its underlying space and a
tuple of validated shift operators.  Its vertex operator is the untwisted
one applied to the chain-transformed state:

    Y_new(v, x) w  =  Y(D_1(x) ... D_k(x) v, x) w,

with the most recent operator acting on v first.  Everything stays exact:
series come back as LogSeries of PBWVectors trusted up to an explicit
ceiling.  A mode is read as one coefficient: for each chain term of the
wanted log power, the base coefficient at the exponent left over, so no
whole series is built per target.

The attached automorphism is tracked as structured data (semisimple part,
nilpotent part, optional diagram factor and conjugator).  Its action on
module vectors uses cyclotomic scalars: an eigencomponent of eigenvalue
lam picks up zeta_D^(-D lam), and the unipotent factor expands in the
formal 2*pi*i symbol carried by Cyc.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import factorial, floor, lcm

from .delta import DeltaOperator, delta_apply_series, make_delta
from .errors import DomainError, NotFixed, NotIntertwining, Unsupported
from .fock import InducedModule, PBWVector, monomial_weight
from .lie import AutomorphismData, GAutomorphism, LieElt
from .linalg import memo
from .scalars import Cyc, fmt_rational
from .series import LogSeries

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
        """The full shift-chain image of v, an exact finite LogSeries."""
        if self.conjugator is not None:
            v = apply_lie_matrix(self.base, self.conjugator.inverse().matrix, v)
        ser = LogSeries({(F(0), 0): v})
        for step in reversed(self.steps):
            ser = delta_apply_series(step, ser)
        return ser

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        ceiling = F(ceiling)
        out = LogSeries(ceiling=ceiling)
        for (e1, k1), vec1 in self.chain_transform(v).terms.items():
            base_ser = self.base.vertex_series(vec1, w, floor(ceiling - e1))
            for (e2, _k2), vec2 in base_ser.terms.items():
                out.add_term(e1 + e2, k1, vec2)
        return out

    def mode(self, v: PBWVector, m, l: int = 0):
        """The (m, l) mode of Y_new(v, x): coefficient of x^(-m-1) log^l.

        The returned operator transforms v along the chain on its first
        call.  For each target it reads one base coefficient per chain term
        of log power l, at the integer exponent left over, and never builds
        a series."""
        e = -F(m) - 1
        reads = None

        def op(w: PBWVector) -> PBWVector:
            nonlocal reads
            if reads is None:
                reads = [(vec1, e - e1)
                         for (e1, k1), vec1 in self.chain_transform(v).terms.items()
                         if k1 == l and (e - e1).denominator == 1]
            out = PBWVector()
            for vec1, e2 in reads:
                out = out + self.base.coefficient_at(vec1, w, e2)
            return out

        return op

    def gen_mode(self, b, m, l: int = 0):
        return self.mode(self.base.current(self.base._as_elt(b)), m, l)

    # -- grading ----------------------------------------------------------

    def _step_eigenvalue(self, j: int, gi: int) -> Fraction:
        lam = self.steps[j].eig.eigenvalue_of(self.algebra._basis_elt(gi))
        if lam is None:
            raise Unsupported(
                "grading needs every generator to be an eigenvector of each "
                "step's semisimple part")
        return lam

    def _zero_mode_shift(self, j: int) -> Fraction:
        """Scalar part of s_j(0) accumulated from the earlier steps."""
        s_j = self.steps[j].s
        total = F(0)
        for i in range(j):
            total += self.algebra.form(self.steps[i].a, s_j) * self.level
        return total

    def weight_of(self, mono) -> Fraction:
        """Conformal weight of a monomial in the fully twisted grading."""
        w = F(monomial_weight(mono))
        for j in range(len(self.steps)):
            beta = -self._zero_mode_shift(j)
            for gi, _m in mono:
                beta += self._step_eigenvalue(j, gi)
            w = w - beta + F(self.steps[j].kappa, 2)
        return w

    def class_of(self, mono) -> Fraction:
        """Accumulated grading-class offset of a monomial (exact, not mod 1)."""
        cls = F(0)
        for j in range(len(self.steps)):
            cls -= self._zero_mode_shift(j)
            for gi, _m in mono:
                cls += self._step_eigenvalue(j, gi)
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
        """mode_table_entry of elt_(m, l) through the first j steps."""
        alg = self.algebra
        if elt.is_zero():
            return {}, F(0)
        if j == 0:
            if l != 0 or m.denominator != 1:
                return {}, F(0)
            return {(gi, int(m)): c for gi, c in enumerate(elt.coords) if c}, F(0)
        step = self.steps[j - 1]
        ops_total = {}
        scalar_total = F(0)
        for lam, comp in step.eig.decompose(elt).items():
            cur = comp
            for lp in range(0, l + 1):
                if cur.is_zero():
                    break
                c = F((-1) ** lp, factorial(lp))
                sub_ops, sub_scalar = self._fold_mode(j - 1, cur, m - lam, l - lp)
                for key, val in sub_ops.items():
                    got = ops_total.get(key)
                    tot = c * val if got is None else got + c * val
                    if not tot:
                        ops_total.pop(key, None)
                    else:
                        ops_total[key] = tot
                scalar_total += c * sub_scalar
                cur = alg.bracket(step.n, cur)
        if m == 0 and l == 0:
            scalar_total -= alg.form(step.a, elt) * self.level
        return ops_total, scalar_total


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
    dim = module.algebra.dim

    def expand(mono):
        if not mono:
            return module.vacuum()
        (gi, m), rest = mono[0], mono[1:]
        tail = expand(rest)
        out = PBWVector({}, tail.truncated)
        for gj in range(dim):
            c = matrix[gj][gi]
            if not c:
                continue
            moved = module.apply_mode(module.algebra._basis_elt(gj), m, tail)
            if moved.is_zero() and not moved.truncated:
                continue
            out = out + c * moved
        return out

    total = PBWVector({}, vec.truncated)
    for mono, coeff in vec.c.items():
        total = total + coeff * expand(mono)
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
    delta = make_delta(target.base, u, legacy_sign_convention)

    if not delta.is_identity:
        image = target.automorphism_apply(u)
        diff = image - u
        if diff.truncated:
            raise DomainError(
                "the automorphism image of the current vector is truncated; "
                "raise the module cutoff")
        if not diff.is_zero():
            raise NotFixed(
                "the current vector is not fixed by the attached automorphism")

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
        out = PBWVector({}, vec.truncated)
        for w, comp in vec.weight_components().items():
            out = out + self.scalar_at(w) * comp
        return out


def functor_on_map(twisted: TwistedModule, mapping: ModuleMap,
                   probe_weight: int = 2, ceiling: int = 2) -> None:
    """Transport a graded map along the twisting functor.

    The underlying space does not change, so the transported map is the
    same assignment; what needs checking is that it still intertwines the
    twisted action.  Probes run over current vectors against the basis up
    to probe_weight; a violation raises NotIntertwining.
    """
    base, alg = twisted.base, twisted.algebra
    probes = [base.current(alg._basis_elt(gi)) for gi in range(alg.dim)]
    for v in probes:
        for w in range(probe_weight + 1):
            for mono in base.basis(w):
                bv = PBWVector({mono: F(1)})
                left = twisted.vertex_series(v, mapping.apply(bv), ceiling)
                mapped = twisted.vertex_series(v, bv, ceiling).map_values(mapping.apply)
                for key in set(left.terms) | set(mapped.terms):
                    a = left.terms.get(key, PBWVector())
                    b = mapped.terms.get(key, PBWVector())
                    if not (a - b).is_zero():
                        raise NotIntertwining(
                            f"map fails to intertwine at series key {key}")


# -- closed-form mode tables ------------------------------------------------


def mode_table_entry(twisted: TwistedModule, b, m, l: int = 0):
    """The twisted mode b_(m, l) written over untwisted modes.

    Returns (ops, scalar) with ops a dict {(generator index, integer mode):
    coefficient} and scalar the accumulated multiple of the identity, so

        b_(m, l)  =  sum ops[gi, mode] * b_gi(mode)  +  scalar * Id.
    """
    elt = twisted.base._as_elt(b)
    return twisted._fold_mode(len(twisted.steps), elt, F(m), int(l))


def apply_table_entry(module: InducedModule, entry, vec: PBWVector) -> PBWVector:
    ops, scalar = entry
    out = scalar * vec
    for (gi, mode), coeff in ops.items():
        out = out + coeff * module.apply_mode(module.algebra._basis_elt(gi),
                                              mode, vec)
    return out


def mode_candidates(span: int, order: int):
    """Every mode on the 1/order lattice in [-span, span], ascending."""
    return [F(t, order) for t in range(-int(span) * order, int(span) * order + 1)]


def mode_table_rows(twisted: TwistedModule, modes, l_max: int) -> list:
    """JSON rows of the nonzero closed-form mode tables of every generator
    over the given modes and log powers 0..l_max."""
    alg = twisted.algebra
    rows = []
    for gi in range(alg.dim):
        for m in modes:
            for l in range(l_max + 1):
                ops, scalar = mode_table_entry(twisted, alg._basis_elt(gi), F(m), l)
                if not ops and scalar == 0:
                    continue
                rows.append({
                    "generator": alg.names[gi],
                    "mode": fmt_rational(F(m)),
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
