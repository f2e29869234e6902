"""Shift operators attached to weight-one current vectors.

For u = a(-1)|0> the operator acts on a module vector v in three stages,
each a LogSeries of PBWVectors built with add_term, so what cancels drops
and a flagged zero stays by the one rule of series.value_is_zero:

  1. an exponential of positive current modes,
         exp( sum_{m>=1} (1/m) (-1)^m a(m) x^(-m) ),
     which terminates because each a(m) lowers the weight (log-free);
  2. the unipotent zero-mode factor exp(-n(0) log x), n the nilpotent
     part of a: the j-th power of n(0) on a stage-1 term lands at log
     power j (nothing to do for n = 0).  For s = 0 this is the result;
  3. the diagonalizable factor x^(-s(0)), s the semisimple part of a: a
     monomial of ad(s)-eigenvectors inside the cutoff is relabeled by
     minus its eigenvalue sum; any other goes through expand_monomial,
     and each of its ad(s)-eigenpieces moves by minus its eigenvalue sum.

Integral exponents and scalars stay ints through all three stages, and a
Fraction appears only where a denominator does.  The self-pairing scalar
kappa is always stored as a Fraction, since callers halve it.  A legacy
sign convention (kept only so its failure is demonstrable) flips the
outer x^(s(0)) and log factors and drops the (-1)^m inside the
exponential; the two agree on the m = 1 term, which is why the
difference is easy to miss on small examples.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, NotQuasiPrimary
from .fock import InducedModule, PBWVector, monomial_weight
from .scalars import Cyc, int_if_integral
from .series import LogSeries, value_is_zero

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


def _exp_current_stage(delta: DeltaOperator, v: PBWVector) -> LogSeries:
    """Stage 1: exp of the positive-mode sum, a log-free series."""
    module = delta.module
    total = cur = LogSeries({(0, 0): v})
    k = 1
    while cur.terms:
        nxt = LogSeries()
        for (e, _k), vec in cur.terms.items():
            for m in range(1, vec.depth() + 1):
                moved = module.apply_mode(delta.a, m, vec)
                if value_is_zero(moved):
                    continue
                c = F(1, m) if m % 2 == 0 and not delta.legacy else F(-1, m)
                nxt.add_term(e - m, 0, int_if_integral(c / k) * moved)
        for (e, _k), vec in nxt.terms.items():
            total.add_term(e, 0, vec)
        cur = nxt
        k += 1
    return total


def _log_stage(delta: DeltaOperator, staged: LogSeries) -> LogSeries:
    """Stage 2: the unipotent zero-mode factor, applied until it gives 0."""
    if delta.n.is_zero():
        return staged
    module = delta.module
    sign = 1 if delta.legacy else -1
    out = LogSeries()
    for (e, _k), cur in staged.terms.items():
        j = 0
        while j == 0 or not cur.is_zero():
            out.add_term(e, j, cur)
            j += 1
            cur = int_if_integral(F(sign, j)) * module.apply_mode(delta.n, 0, cur)
    return out


def delta_apply(delta: DeltaOperator, v: PBWVector) -> LogSeries:
    """Apply the operator to a module vector.  Exact, finite output."""
    if delta.is_identity:
        return LogSeries({(0, 0): v})
    logged = _log_stage(delta, _exp_current_stage(delta, v))
    if delta.s.is_zero():
        return logged
    module = delta.module
    decompose, basis_elt = delta.eig.decompose, module.algebra._basis_elt

    def split(gi):
        return [(lam, None, comp) for lam, comp in decompose(basis_elt(gi)).items()]

    sign = 1 if delta.legacy else -1
    eigvals = delta.eig.generator_eigenvalues()
    out = LogSeries()
    for (e, k), vec in logged.terms.items():
        if not vec.c:
            # a flagged zero has nothing to expand: it stays where it is
            out.add_term(e, k, vec)
        for mono, coeff in vec.c.items():
            # inside the cutoff, a monomial of eigenvectors is relabeled
            lams = [eigvals[gi] for gi, _m in reversed(mono)]
            if None not in lams and monomial_weight(mono) <= module.cutoff:
                out.add_term(e + sign * sum(lams), k,
                             PBWVector({mono: coeff}, vec.truncated))
                continue
            for lamsum, expanded in module.expand_monomial(mono, split).items():
                res = coeff * expanded
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
