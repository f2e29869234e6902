"""Shift operators attached to weight-one current vectors.

For u = a(-1)|0> the operator acts on a module vector v in three stages:

  1. an exponential of positive current modes,
         exp( sum_{m>=1} (1/m) (-1)^m a(m) x^(-m) ),
     which terminates because each a(m) lowers the weight;
  2. the unipotent zero-mode factor exp(-n(0) log x), n the nilpotent
     part of a, producing the log powers;
  3. the diagonalizable factor x^(-s(0)), s the semisimple part of a,
     applied by expanding every tensor factor of a monomial in the
     ad-eigenbasis of s and shifting the exponent by minus the eigenvalue
     sum.  For s = 0 this stage is the identity and is skipped.

The result is a finite, exact LogSeries of PBWVectors.  Integral exponents
and scalars stay ints through all three stages, and a Fraction appears
only where a denominator does.  The self-pairing scalar kappa is always
stored as a Fraction, since callers halve it.  A legacy sign convention
(kept only so its failure is demonstrable) flips the outer x^(s(0)) and
log factors and drops the (-1)^m inside the exponential; the two agree on
the m = 1 term, which is why the difference is easy to miss on small
examples.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, NotQuasiPrimary
from .fock import InducedModule, PBWVector
from .scalars import Cyc, int_if_integral
from .series import LogSeries

__all__ = ["DeltaOperator", "make_delta", "delta_apply", "delta_apply_series"]

F = Fraction


class DeltaOperator:
    """A validated shift operator for one module and one current vector."""

    __slots__ = ("module", "a", "s", "n", "eig", "kappa", "legacy")

    def __init__(self, module, a, s, n, eig, kappa, legacy):
        self.module = module
        self.a = a
        self.s = s
        self.n = n
        self.eig = eig
        self.kappa = kappa
        self.legacy = legacy

    @property
    def is_identity(self):
        return self.a.is_zero()

    def __repr__(self):
        tag = " legacy" if self.legacy else ""
        return f"DeltaOperator(a={self.a!r}{tag})"


def current_element(module: InducedModule, u: PBWVector):
    """The Lie algebra element a of a current vector u = a(-1)|0>.

    Raises DomainError if u is not a weight-one current vector with
    rational coefficients."""
    alg = module.algebra
    coords = [F(0)] * alg.dim
    for mono, coeff in u.c.items():
        if len(mono) != 1 or mono[0][1] != -1:
            raise DomainError("expected a weight-one current vector a(-1)|0>")
        gi = mono[0][0]
        if not isinstance(coeff, (int, Fraction)):
            if hasattr(coeff, "is_rational") and coeff.is_rational():
                coeff = coeff.rational_value()
            else:
                raise DomainError("current coefficients must be rational")
        coords[gi] = coords[gi] + F(coeff)
    return alg.element_from_coords(coords)


def make_delta(module: InducedModule, u: PBWVector,
               legacy_sign_convention: bool = False) -> DeltaOperator:
    """Validate the current vector u = a(-1)|0> and build its operator.

    Raises DomainError if u is not a weight-one current vector,
    NotQuasiPrimary if L(1)u != 0 (the Sugawara L(1) is used, so
    CriticalLevel propagates from there at level -h_vee), and
    NeedsFieldExtension or NotSemisimple from the Jordan decomposition
    of the underlying Lie algebra element.
    """
    alg = module.algebra
    a = current_element(module, u)
    if a.is_zero():
        eig = alg.ad_eigendata(alg.zero())
        return DeltaOperator(module, a, alg.zero(), alg.zero(), eig, F(0),
                             legacy_sign_convention)

    l1u = module.sugawara_mode(1)(u)
    if not l1u.is_zero():
        raise NotQuasiPrimary("L(1) does not annihilate the current vector")

    s, n = alg.jordan_chevalley(a)
    eig = alg.ad_eigendata(s)

    # self-pairing scalar through the module: u_(1) u = kappa |0>
    y1 = module.vertex_operator_mode(u, 1)(u)
    kappa = F(0)
    for mono, coeff in y1.c.items():
        if mono != ():
            raise DomainError("u_(1) u is not a vacuum multiple")
        kappa = F(coeff.rational_value() if isinstance(coeff, Cyc) else coeff)
    return DeltaOperator(module, a, s, n, eig, kappa, legacy_sign_convention)


def _exp_current_stage(delta: DeltaOperator, v: PBWVector):
    """Stage 1: exp of the positive-mode sum.  Returns {exponent: vector}."""
    module = delta.module
    total = {0: v}
    cur = {0: v}
    k = 1
    while cur:
        nxt = {}
        for e, vec in cur.items():
            for m in range(1, vec.depth() + 1):
                if delta.legacy:
                    c = F(-1, m)
                else:
                    c = F(1, m) if m % 2 == 0 else F(-1, m)
                moved = module.apply_mode(delta.a, m, vec)
                if moved.is_zero() and not moved.truncated:
                    continue
                key = e - m
                add = int_if_integral(c / k) * moved
                got = nxt.get(key)
                nxt[key] = add if got is None else got + add
        cur = {e: vec for e, vec in nxt.items()
               if not vec.is_zero() or vec.truncated}
        for e, vec in cur.items():
            got = total.get(e)
            total[e] = vec if got is None else got + vec
        k += 1
    return {e: vec for e, vec in total.items()
            if not vec.is_zero() or vec.truncated}


def _log_stage(delta: DeltaOperator, staged):
    """Stage 2: the unipotent zero-mode factor.  {(e, k): vector}."""
    module = delta.module
    out = {}
    for e, vec in staged.items():
        cur = vec
        j = 0
        while not cur.is_zero() or (j == 0 and cur.truncated):
            got = out.get((e, j))
            out[(e, j)] = cur if got is None else got + cur
            nxt = module.apply_mode(delta.n, 0, cur)
            sign = F(1) if delta.legacy else F(-1)
            cur = int_if_integral(sign / (j + 1)) * nxt
            j += 1
    return out


def _eigen_expand(delta: DeltaOperator, mono):
    """Stage 3 per monomial: [(eigenvalue sum, vector)] over eigencomponent
    choices for every tensor factor."""
    module = delta.module
    if not mono:
        return [(0, module.vacuum())]
    (gi, m), rest = mono[0], mono[1:]
    comps = delta.eig.decompose(module.algebra._basis_elt(gi))
    out = {}
    for lamsum, vec in _eigen_expand(delta, rest):
        for lam, celt in comps.items():
            moved = module.apply_mode(celt, m, vec)
            if moved.is_zero() and not moved.truncated:
                continue
            key = lamsum + lam
            got = out.get(key)
            out[key] = moved if got is None else got + moved
    return list(out.items())


def delta_apply(delta: DeltaOperator, v: PBWVector) -> LogSeries:
    """Apply the operator to a module vector.  Exact, finite output."""
    if delta.is_identity:
        return LogSeries({(0, 0): v})
    staged = _exp_current_stage(delta, v)
    logged = _log_stage(delta, staged)
    out = LogSeries()
    if delta.s.is_zero():
        for (e, k), vec in logged.items():
            out.add_term(e, k, vec)
        return out
    sign = 1 if delta.legacy else -1
    for (e, k), vec in logged.items():
        if vec.is_zero():
            # truncated with no known monomials: nothing to expand, so the
            # flag stays at the unshifted key
            out.add_term(e, k, vec)
        for mono, coeff in vec.c.items():
            for lamsum, expanded in _eigen_expand(delta, mono):
                res = coeff * expanded
                if res.is_zero() and not res.truncated:
                    continue
                # the expansion restarts from the vacuum; keep the input's flag
                res.truncated = res.truncated or vec.truncated
                out.add_term(e + sign * lamsum, k, res)
    return out


def delta_apply_series(delta: DeltaOperator, series: LogSeries) -> LogSeries:
    """Apply the operator termwise to an exact LogSeries of PBWVectors.

    Only exact inputs (no ceiling) are accepted; the shift operator moves
    exponents both ways, so a partial window would need conservative
    re-clipping that no caller wants.
    """
    if series.ceiling is not None:
        raise DomainError("termwise application needs an exact series")
    out = LogSeries()
    for (e, k), vec in series.terms.items():
        sub = delta_apply(delta, vec)
        for (e2, k2), vec2 in sub.terms.items():
            out.add_term(e + e2, k + k2, vec2)
    return out
