"""Shift operators attached to weight-one current vectors.

For u = a(-1)|0> the operator acts on a module vector v in three stages:

  1. an exponential of positive current modes,
         exp( sum_{m>=1} (1/m) (-1)^m a(m) x^(-m) ),
     which terminates because each a(m) lowers the weight (log-free);
  2. the unipotent zero-mode factor exp(-n(0) log x), n the nilpotent
     part of a: the j-th power of n(0) on a stage-1 term lands at log
     power j (nothing to do for n = 0).  For s = 0 this is the result;
  3. the diagonalizable factor x^(-s(0)), s the semisimple part of a: a
     monomial of ad(s)-eigenvectors is relabeled by minus its eigenvalue
     sum; any other goes through expand_monomial, and each of its
     ad(s)-eigenpieces moves by minus its eigenvalue sum.

All three stages run in integers, and _stages is their one integral
reader: D(v) as [(e, k, terms, den)], distinct keys, each coefficient
terms/den with den a positive int.  Stages 1 and 2 act by -a = b/d and by
the signed nilpotent part n'/d_n with b and n' integral (kept on the
record), so every stage denominator is positive; v is scaled by the lcm of
its denominators, and each term is an integral dict over one int
denominator.  Stage 3 sums its terms per output key in ints over the lcm
of the stage denominators, in the order they come (a relabeled monomial
inline, an expanded one as a scaled vector), so a key that cancels drops,
as in LogSeries.add_term.  delta_apply divides each key once (_shift), so
the output follows the one scalar rule: an integral value is an int
(``tests/test_shift_golden.py`` pins every type, and checks stages 1 and 2
against their first forms in Fractions), and each divided term is kept
without a copy.  The shift-conjugation check reads _stages undivided.
Every output coefficient is exact, whatever the weight of the monomials it
passes through: no stage reads the module's cutoff.  The
self-pairing scalar kappa is always stored as a Fraction, since callers
halve it.  A legacy sign convention (kept only so its failure is
demonstrable) flips the outer x^(s(0)) and log factors and drops the
(-1)^m inside the exponential; the two agree on the m = 1 term, which is
why the difference is easy to miss on small examples.

make_delta builds one record per module, current and sign convention, kept
on the module but never referring to it, so a dropped module is freed at
once.  It holds D(b) for each basis monomial b = {mono: 1} it has met
(_basis_image), and stage 3's exponent shift of each monomial it has met.  A single monomial
c b with c an int or a Fraction is served as c D(b), one scaled copy of
each term, which the operator's linearity makes equal in keys, values and
coefficient types to the image computed afresh
(``tests/test_delta.py`` checks this).  Other inputs go through the stages
whole, the one exception to series.linear_series: summing memoized
per-monomial images for the conjugation check's left side makes its pass
1.3 times slower, with 30% more opcodes and 13 times the Fractions.
Stages 1 and 2 act through the module's one kernel, InducedModule.add_mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm

from .errors import DomainError, NotQuasiPrimary
from .fock import InducedModule
from .linalg import memo
from .scalars import clear_denominators, int_if_integral
from .series import LogSeries, PBWVector, accumulate, divided, factor, factors, series_sum

__all__ = ["DeltaOperator", "make_delta", "delta_apply", "delta_apply_series"]

F = Fraction


class DeltaOperator:
    """A validated shift operator for one module and one current vector;
    all but the module comes from the module's record (see make_delta)."""

    __slots__ = ("module", "a", "a_int", "s", "n", "n_int", "eig", "kappa",
                 "legacy", "shifts", "images")

    def __init__(self, module, a, a_int, s, n, n_int, eig, kappa, legacy, shifts,
                 images):
        self.module = module
        self.a = a
        self.a_int = a_int  # (b, d) with -a = b/d and b integral: stage 1
        self.s = s
        self.n = n
        self.n_int = n_int  # the same for -n (n, legacy convention): stage 2
        self.eig = eig
        self.kappa = kappa
        self.legacy = legacy
        self.shifts = shifts  # stage 3's exponent shift of each monomial met
        self.images = images

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
    coords = [0] * alg.dim
    for mono, coeff in u.c.items():
        if len(mono) != 1 or factor(mono)[1] != -1:
            raise DomainError("expected a weight-one current vector a(-1)|0>")
        gi = factor(mono)[0]
        if not isinstance(coeff, (int, Fraction)):
            if hasattr(coeff, "is_rational") and coeff.is_rational():
                coeff = coeff.rational_value()
            else:
                raise DomainError("current coefficients must be rational")
        coords[gi] += coeff
    return alg.element_from_coords(coords)


def make_delta(module: InducedModule, u: PBWVector,
               legacy_sign_convention: bool = False) -> DeltaOperator:
    """Validate the current vector u = a(-1)|0> and build its operator.

    Raises DomainError if u is not a weight-one current vector,
    NotQuasiPrimary if L(1)u != 0 (L(1) is omega_(2), the mode of the
    Sugawara conformal vector, so CriticalLevel propagates from there at
    level -h_vee), and NeedsFieldExtension or NotSemisimple from the
    Jordan decomposition of the underlying Lie algebra element.

    In a vacuum module L(1)a(-1)|0> = a(0)|0> = 0, so NotQuasiPrimary
    cannot fire for any module built today; the gate is kept for a vertex
    algebra whose weight-one space is not quasi-primary.
    """
    a = current_element(module, u)
    return DeltaOperator(module, *_shift_record(module, a, bool(legacy_sign_convention)))


def _integral(alg, elt, sign):
    """(b, d) with sign * elt = b/d, d a positive int and b of integral
    coordinates."""
    [coords], d = clear_denominators([dict(elt.terms())])
    return alg.element_from_coords([sign * coords.get(i, 0) for i in range(alg.dim)]), d


@memo
def _shift_record(module: InducedModule, a, legacy):
    """(a, a_int, s, n, n_int, eig, kappa, legacy, shifts, images), none
    referring to the module."""
    alg = module.algebra
    if a.is_zero():
        eig = alg.ad_eigendata(alg.zero())
        return a, (a, 1), alg.zero(), alg.zero(), (a, 1), eig, F(0), legacy, {}, {}

    u = module.current(a)
    l1u = module.sugawara_mode(1)(u)
    if not l1u.is_zero():
        raise NotQuasiPrimary("L(1) does not annihilate the current vector")

    s, n = alg.jordan_chevalley(a)
    eig = alg.ad_eigendata(s)

    # self-pairing scalar through the module: u_(1) u = kappa |0>
    y1 = module.vertex_operator_mode(u, 1)(u)
    kappa = F(0)
    for mono, coeff in y1.c.items():
        if mono:
            raise DomainError("u_(1) u is not a vacuum multiple")
        kappa = F(coeff)
    return (a, _integral(alg, a, -1), s, n, _integral(alg, n, 1 if legacy else -1),
            eig, kappa, legacy, {}, {})


def _exp_current_stage(delta: DeltaOperator, v: PBWVector) -> list:
    """Stage 1: exp of the positive-mode sum, log-free, as [(e, 0, terms,
    den)]: the x^e term is terms/den, den a positive int and terms a
    nonempty integral coefficient dict (a Cyc, or a Fraction from a
    non-integral level, is kept as it is).

    The modes a(m) commute, so the x^(-j) term is T_j = (1/j) sum_{m<=j}
    s_m a(m) T_(j-m) with T_0 = v and s_m = (-1)^m (-1 under the legacy
    convention); T_j vanishes past the depth of v.  With -a = b/d, b
    integral, and D the lcm of v's denominators, R_j = j! d^j D T_j is
    integral:  R_0 = D v,
        R_j = sum_{m<=j} c_m ((j-1)!/(j-m)!) d^(m-1) b(m) R_(j-m),
    with c_m = (-1)^(m+1) (c_m = 1 under the legacy convention).  So the
    m = 1 image, whose factor is 1, starts the sum as it is."""
    add_mode = delta.module.add_mode
    b, d = delta.a_int
    coords = b.terms()
    [cleared], den = clear_denominators([v.c])
    # at lcm 1 cleared is v's own dict: R_0 is a copy, as every term is fresh
    terms = [dict(cleared) if den == 1 else cleared]
    out = [(0, 0, terms[0], den)]
    for j in range(1, v.depth() + 1):
        # each b(m) R_(j-m) is summed on its own, then merged in m order: a
        # push of every image straight into R_j reorders the sums, and
        # changes the scalar type a cancellation stores
        acc = add_mode(coords, 1, terms[j - 1].items()) if terms[j - 1] else {}
        for m in range(2, j + 1):
            if terms[j - m]:
                k = perm(j - 1, m - 1) * d ** (m - 1)
                if m % 2 == 0 and not delta.legacy:
                    k = -k
                accumulate(acc, add_mode(coords, m, terms[j - m].items(), k).items())
        terms.append(acc)
        den *= j * d
        out.append((-j, 0, acc, den))
    return [term for term in out if term[2]]


def _log_stage(delta: DeltaOperator, staged: list) -> list:
    """Stage 2: the unipotent zero-mode factor, applied until it gives 0,
    as [(e, k, terms, den)].  The factor is exp(n'(0) log x / d_n), n'
    integral (n' = -d_n n, or d_n n under the legacy convention), so the
    log^i term of terms/den is n'(0)^i terms / (den i! d_n^i)."""
    if delta.n.is_zero():
        return staged
    add_mode = delta.module.add_mode
    n, dn = delta.n_int
    coords = n.terms()
    out = []
    for e, _k, cur, den in staged:
        i = 0
        while i == 0 or cur:
            out.append((e, i, cur, den))
            i += 1
            cur = add_mode(coords, 0, cur.items())
            den *= i * dn
    return out


def _stages(delta: DeltaOperator, v: PBWVector) -> list:
    """The integral form of D(v), for any operator: [(e, k, terms, den)]
    with distinct keys (e, k), the x^e (log x)^k coefficient being
    terms/den, den a positive int and terms a nonempty coefficient dict,
    integral as stage 1's are.  The dicts are fresh; a caller may keep them.

    Without a semisimple part this is stage 2's list as it is.  Otherwise
    stage 3 sums every term in one dict per output key over the lcm of the
    stage denominators, in the order the terms come: a relabeled monomial
    inline, an expanded one as a scaled vector.  A key whose sum cancels
    drops, and comes back last if hit again, as in LogSeries.add_term: its
    first entry is left empty and filtered out."""
    staged = _log_stage(delta, _exp_current_stage(delta, v))
    if delta.s.is_zero():
        return staged
    module = delta.module
    decompose, basis_elt = delta.eig.decompose, module.algebra._basis_elt

    def split(gi):
        return [(lam, None, comp) for lam, comp in decompose(basis_elt(gi)).items()]

    sign = 1 if delta.legacy else -1
    eigvals = delta.eig.generator_eigenvalues()
    shifts = delta.shifts
    den = lcm(*[term[3] for term in staged])
    sums, out = {}, []
    for e, k, terms, d in staged:
        q = den // d
        for mono, coeff in terms.items():
            shift = shifts.get(mono, False)
            if shift is False:
                # a monomial of eigenvectors is relabeled (moved by sign
                # times its eigenvalue sum); any other is expanded (None)
                lams = [eigvals[gi] for gi, _m in factors(mono)]
                shift = shifts[mono] = (int_if_integral(sign * sum(lams))
                                        if None not in lams else None)
            if shift is None:
                for lamsum, expanded in module.expand_monomial(mono, split).items():
                    key = (int_if_integral(e + sign * lamsum), k)
                    acc = sums.get(key)
                    if acc is None:
                        acc = sums[key] = {}
                        out.append((*key, acc, den))
                    accumulate(acc, expanded.c.items(), coeff * q)
                    if not acc:
                        del sums[key]
                continue
            # summed inline under accumulate's scalar rule: one accumulate
            # call per relabeled monomial costs more than the sum itself
            key = (e + shift, k)
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
                out.append((*key, acc, den))
            c = acc[mono] + coeff * q if mono in acc else coeff * q
            if not c:
                del acc[mono]
                if not acc:
                    del sums[key]
            elif type(c) is Fraction and c.denominator == 1:
                acc[mono] = c.numerator
            else:
                acc[mono] = c
    return out if len(out) == len(sums) else [term for term in out if term[2]]


def _shift(delta: DeltaOperator, v: PBWVector) -> LogSeries:
    """D(v) as a LogSeries: each term of _stages divided once and kept
    without a copy."""
    out = LogSeries()
    for e, k, terms, den in _stages(delta, v):
        out.terms[e, k] = PBWVector.adopt(divided(terms, den))
    return out


def _basis_image(delta: DeltaOperator, mono) -> LogSeries:
    """D(b) for the basis monomial b = {mono: 1}, memoized on the record;
    shared with every later caller, so never mutated."""
    hit = delta.images.get(mono)
    if hit is None:
        hit = delta.images[mono] = _shift(delta, PBWVector({mono: 1}))
    return hit


def delta_apply(delta: DeltaOperator, v: PBWVector) -> LogSeries:
    """Apply the operator to a module vector.  Exact, finite output; the
    image of a basis input is shared with later callers, so never mutate
    a result."""
    if delta.is_identity:
        return LogSeries({(0, 0): v})
    if len(v.c) == 1:
        [(mono, c)] = v.c.items()
        if type(c) in (int, Fraction):
            hit = _basis_image(delta, mono)
            if type(c) is int and c == 1:
                return hit
            # c is nonzero, so c D(b) has the keys of D(b): one scaled copy
            # of each term
            scaled = LogSeries()
            for key, vec in hit.terms.items():
                scaled.terms[key] = c * vec
            return scaled
    return _shift(delta, v)


def delta_apply_series(delta: DeltaOperator, series: LogSeries) -> LogSeries:
    """Apply the operator termwise to a LogSeries of PBWVectors.

    The input must hold every one of its terms: each caller passes a
    shift output or the identity series (TwistedModule._chain_image, the
    group-law and additivity checks), never a read cut at a ceiling, since
    the shift operator moves exponents both ways and would carry the cut
    into the terms it keeps.
    """
    return series_sum((e + e2, k + k2, vec2.c)
                      for (e, k), vec in series.terms.items()
                      for (e2, k2), vec2 in delta_apply(delta, vec).terms.items())
