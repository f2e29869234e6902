"""Coefficientwise checks for the shift operators and their twisted modules.

Every check recomputes both sides of one identity in exact arithmetic and
returns a CheckReport.  Reports carry no live objects: witnesses and
details are strings and small integers, ready for deterministic JSON.

Two-variable identities are expanded in the inner variable only up to an
explicit ceiling.  Everything at or below the ceiling is exact, so a pass
certifies every compared coefficient and nothing beyond the window; the
window itself is recorded in the report details.  A check raises
DomainError rather than compare a truncated vector as if it were exact,
which is the signal to rebuild the module with a higher cutoff; the
comparison helpers _vector_case and _series_case are where that is decided
for every compared pair, and series_eq itself reads no flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .delta import delta_apply, delta_apply_series, make_delta
from .errors import DomainError
from .fock import InducedModule
from .scalars import Cyc, binom, clear_denominators, fmt_rational, fmt_scalar, int_if_integral
from .series import (
    LogSeries,
    PBWVector,
    accumulate,
    branch_shift,
    common_ceiling,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
    series_sum,
)
from .twist import (
    ModuleMap,
    TwistedModule,
    apply_table_entry,
    functor_on_map,
    make_twisted,
    mode_candidates,
    mode_table_entry,
)

__all__ = [
    "CheckReport",
    "format_monomial",
    "format_vector",
    "basis_states",
    "chain_log_bound",
    "check_shift_finiteness",
    "check_shift_conjugation",
    "check_weight_bracket",
    "check_translation_bracket",
    "check_group_laws",
    "check_additivity",
    "check_mode_tables",
    "check_twisted_commutators",
    "check_conformal_shift",
    "check_regraded_weights",
    "check_grading_restriction",
    "check_zero_mode_nilpotency",
    "check_twisted_axioms",
    "check_equivariance",
    "check_functor_transport",
]

F = Fraction


# -- reports ----------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one named check.

    status is "pass", "fail", or "uncertifiable".  A fail always carries a
    witness dict pointing at the first offending coefficient; uncertifiable
    reports describe the inspected window instead of claiming either side.
    """

    name: str
    status: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": (None if self.witness is None
                        else {k: self.witness[k] for k in sorted(self.witness)}),
            "details": {k: self.details[k] for k in sorted(self.details)},
        }


def format_monomial(alg, mono) -> str:
    if not mono:
        return "|0>"
    return " ".join(f"{alg.names[gi]}({m})" for gi, m in mono) + " |0>"


def format_vector(alg, vec) -> str:
    """Deterministic human-readable form of a PBW vector."""
    if vec is None or vec.is_zero():
        return "0"
    return " + ".join(f"({fmt_scalar(c)}) {format_monomial(alg, mono)}"
                      for mono, c in vec.sorted_items())


def basis_states(module: InducedModule, max_weight: int):
    """All PBW basis vectors of weight <= max_weight, with labels."""
    out = [(module.vacuum(), "|0>")]
    for w in range(1, int(max_weight) + 1):
        for mono in module.basis(w):
            out.append((PBWVector({mono: 1}), format_monomial(module.algebra, mono)))
    return out


def _ensure_exact(vec: PBWVector, context: str):
    if vec.truncated:
        raise DomainError(
            f"{context}: the module cutoff is too low for an exact comparison")
    return vec


def _series_exact(ser: LogSeries, context: str):
    for vec in ser.terms.values():
        _ensure_exact(vec, context)
    return ser


def _series_sub(a: LogSeries, b: LogSeries) -> LogSeries:
    return series_combine(a, series_scale(b, scalar=F(-1)))


def _run_cases(name, cases, count_key, pass_details=None,
               fail_details=None) -> CheckReport:
    """Run (counted, witness-or-None) cases lazily up to the first witness.

    Counted cases add to details[count_key]; an uncounted one is a side
    probe.  pass_details is read after the last case, so a generator may
    fill it in while it runs."""
    checked = 0
    for counted, witness in cases:
        checked += counted
        if witness is not None:
            return CheckReport(name, "fail", witness=witness,
                               details={count_key: checked, **(fail_details or {})})
    return CheckReport(name, "pass",
                       details={count_key: checked, **(pass_details or {})})


def _series_case(alg, left, right, context, **fields):
    """A counted comparison of two series inside their common ceiling, where
    a flagged term on either side raises rather than be compared; a witness
    names the first (e, k) apart."""
    hi = common_ceiling(left.ceiling, right.ceiling)
    for ser in (left, right):
        for (e, _k), vec in ser.terms.items():
            if hi is None or e <= hi:
                _ensure_exact(vec, context)
    wit = series_eq(left, right)
    if wit is None:
        return True, None
    e, k, a, b = wit
    return True, {
        **fields,
        "exponent": fmt_rational(F(e)),
        "logPower": int(k),
        "left": format_vector(alg, a),
        "right": format_vector(alg, b),
    }


def _vector_case(alg, left, right, context, keys=("left", "right"), **fields):
    """A counted comparison of two exact vectors, named by keys in a witness."""
    _ensure_exact(left, context)
    _ensure_exact(right, context)
    if left.c == right.c:
        return True, None
    return True, {**fields, keys[0]: format_vector(alg, left),
                  keys[1]: format_vector(alg, right)}


def _nilpotency_index(alg, n) -> int:
    """Smallest p with ad(n)^p = 0 (0 for n = 0)."""
    if n is None or n.is_zero():
        return 0
    cur = list(alg.basis())
    p = 0
    while any(not x.is_zero() for x in cur):
        cur = [alg.bracket(n, x) for x in cur]
        p += 1
        if p > alg.dim + 1:
            raise DomainError("the nilpotent part is not actually nilpotent")
    return p


# -- output shape of the shift operator -------------------------------------


def check_shift_finiteness(module: InducedModule, u: PBWVector, states,
                           name="shift-finiteness") -> CheckReport:
    """The shift of every state is a finite series with bounded shape.

    Checked per state: coefficients never exceed the state's weight, log
    powers stay under the unipotent bound (nilpotency index minus one, per
    tensor factor), and exponents live on the 1/q lattice cut out by the
    semisimple eigenvalues.
    """
    delta = make_delta(module, u)
    alg = module.algebra
    nil_index = _nilpotency_index(alg, delta.n)
    lattice = 1
    for lam in delta.eig.values:
        lattice = lcm(lattice, F(lam).denominator)
    details = {
        "largestSupport": 0,
        "logPowerBoundPerFactor": max(0, nil_index - 1),
        "exponentLattice": f"1/{lattice}",
    }

    def cases():
        # a state counts once all of its terms are in shape
        for v, label in states:
            ser = _series_exact(delta_apply(delta, v), name)
            vw = v.depth()
            log_bound = max(0, nil_index - 1) * vw
            for (e, k), vec in ser.sorted_items():
                if vec.depth() > vw:
                    bad = "a coefficient outweighs the input state"
                elif k > log_bound:
                    bad = "log power exceeds the unipotent bound"
                elif (F(e) * lattice).denominator != 1:
                    bad = "exponent leaves the eigenvalue lattice"
                else:
                    continue
                yield False, {
                    "state": label,
                    "exponent": fmt_rational(F(e)),
                    "logPower": int(k),
                    "reason": bad,
                    "coefficient": format_vector(alg, vec),
                }
            details["largestSupport"] = max(details["largestSupport"],
                                            len(ser.terms))
            yield True, None

    return _run_cases(name, cases(), "statesChecked", details)


# -- the conjugation identity in two variables ------------------------------


def _log_shift_powers(max_power: int, ceiling: int):
    # powers of log(x+y) - log(x) = sum_{i>=1} (-1)^(i+1) (y/x)^i / i,
    # each stored as {y-exponent: coefficient}; the x-exponent is minus
    # the y-exponent throughout
    powers = [{0: 1}]
    base = {i: F((-1) ** (i + 1), i) for i in range(1, max(int(ceiling), 0) + 1)}
    for _p in range(max_power):
        prev, nxt = powers[-1], {}
        for i1, c1 in prev.items():
            for i2, c2 in base.items():
                if i1 + i2 <= ceiling:
                    nxt[i1 + i2] = nxt.get(i1 + i2, 0) + c1 * c2
        powers.append(nxt)
    return powers


@lru_cache(maxsize=None)
def _expand_at_sum(e, k, max_p):
    """x^e (log x)^k with x replaced by x + y.

    Returns {(j, p): scalar} for x^(e - p) (log x)^j y^p, exact for
    p <= max_p.  Binomial expansion handles x^e, the alternating series
    for log(x+y) - log(x) (from _log_shift_powers) handles the log
    powers.  A pure function of its key, so each table is built once and
    shared: callers must not mutate it.
    """
    lpow = _log_shift_powers(k, max_p)
    out = {}
    for j in range(k + 1):
        ckj = binom(k, j)
        for il, cl in lpow[k - j].items():
            for i in range(0, max_p - il + 1):
                c = ckj * cl * binom(e, i)
                if c:
                    out[(j, i + il)] = out.get((j, i + il), 0) + c
    return {key: int_if_integral(c) for key, c in out.items() if c}


def _conjugated_sides(delta, v: PBWVector, w: PBWVector, shifted, dw,
                      ceiling: int):
    """Both sides of D(x) Y(v, y) w = Y(D(x+y) v, y) D(x) w.

    shifted lists (e, D(v) coefficient, _expand_at_sum table) for every
    term of D(v), and dw the ((e, k), coefficient) terms of D(w), all three
    scaled by the caller to clear denominators.  Returned as {(e, k, j):
    {mono: coeff}} keyed by x^e (log x)^k y^j, exact for j <= ceiling.
    """
    module = delta.module

    # each (e, k, ey) key comes once, so D(Y(v, y) w) is read by reference:
    # its dicts may be images that delta_apply shares, never mutated here
    lhs = {}
    for (ey, _k0), vecy in module.vertex_series(v, w, ceiling).terms.items():
        for (e, k), vec in delta_apply(delta, vecy).terms.items():
            lhs[e, k, ey] = vec.c

    rhs = {}
    for e1, vecv, table in shifted:
        for (ew, kw), vecw in dw:
            sub = module.vertex_series(vecv, vecw, ceiling).terms.items()
            for (j1, p1), c in table.items():
                for (ey, _k0), vecy in sub:
                    if p1 + ey <= ceiling:
                        key = (e1 - p1 + ew, j1 + kw, p1 + ey)
                        accumulate(rhs.setdefault(key, {}), vecy.c, c)
    return lhs, rhs


def _scaled_eq(a: dict, scale: int, b: dict) -> bool:
    """scale * a == b, cross-multiplied so that no Fraction is made."""
    return a.keys() == b.keys() and all(
        c * scale == b[m] if isinstance(c, Cyc)
        else c.numerator * scale == b[m] * c.denominator for m, c in a.items())


def _compare_bivariate(alg, lhs, rhs, scale, ceiling, **fields):
    """The first (e, k, j) key, in (j, e, k) order, where rhs is not scale
    times lhs, as a witness that shows rhs divided by scale."""
    keys = sorted(set(lhs) | set(rhs), key=lambda t: (t[2], t[0], t[1]))
    for key in keys:
        if key[2] > ceiling:
            continue
        a = lhs.get(key, {})
        b = rhs.get(key, {})
        if not _scaled_eq(a, scale, b):
            e, k, j = key
            return {
                **fields,
                "outerExponent": fmt_rational(F(e)),
                "logPower": int(k),
                "innerExponent": fmt_rational(F(j)),
                "left": format_vector(alg, PBWVector(a)),
                "right": format_vector(alg, PBWVector(
                    {m: c / scale if isinstance(c, Cyc) else F(c, scale)
                     for m, c in b.items()})),
            }
    return None


def check_shift_conjugation(module: InducedModule, u: PBWVector, arg_states,
                            target_states, inner_ceiling=2, legacy=False,
                            name="shift-conjugation") -> CheckReport:
    """Conjugating a vertex operator by the shift re-centers its argument.

    Compares D(x) Y(v, y) w against Y(D(x+y) v, y) D(x) w coefficient by
    coefficient in both variables, exactly up to the inner ceiling.  D(w)
    is computed once per target and D(x+y) v once per argument, each with
    its denominators cleared, so the right side is summed in ints and
    compared with the left side times the common denominator.
    """
    delta = make_delta(module, u, legacy_sign_convention=legacy)
    alg = module.algebra
    ceiling = int(inner_ceiling)
    targets = []
    for w, wlabel in target_states:
        dw = _series_exact(delta_apply(delta, w), name)
        coeffs, w_scale = clear_denominators([vec.c for vec in dw.terms.values()])
        targets.append((w, wlabel, list(zip(dw.terms, map(PBWVector, coeffs))),
                        w_scale))
    reach_w = max((w.depth() for w, *_rest in targets), default=0)

    def cases():
        for v, vlabel in arg_states:
            dv = _series_exact(delta_apply(delta, v), name)
            # the inner operator reaches y-exponents as low as minus the
            # total weight, so substitution terms that far above the ceiling
            # still land inside the window and must be kept
            max_p = ceiling + v.depth() + reach_w
            coeffs, v_scale = clear_denominators([vec.c for vec in dv.terms.values()])
            tables, t_scale = clear_denominators([_expand_at_sum(e, k, max_p)
                                                  for (e, k) in dv.terms])
            shifted = [(e, PBWVector(c), table) for (e, _k), c, table
                       in zip(dv.terms, coeffs, tables)]
            for w, wlabel, dw_terms, w_scale in targets:
                lhs, rhs = _conjugated_sides(delta, v, w, shifted, dw_terms,
                                             ceiling)
                yield True, _compare_bivariate(
                    alg, lhs, rhs, v_scale * t_scale * w_scale, ceiling,
                    argument=vlabel, target=wlabel)

    window = {"innerCeiling": ceiling}
    return _run_cases(name, cases(), "pairsChecked", window, window)


# -- derivation brackets -----------------------------------------------------


def _virasoro_bracket(module: InducedModule, u: PBWVector, states, n,
                      name) -> CheckReport:
    """[L(n), D(x)] = (-1)^n x^(n+1) D'(x) + (n+1) x^n u_0 D(x) for
    n in {0, -1}, state by state."""
    delta = make_delta(module, u)
    ln = module.sugawara_mode(n)

    def cases():
        for v, label in states:
            dv = delta_apply(delta, v)
            left = _series_sub(dv.map_values(ln), delta_apply(delta, ln(v)))
            right = series_scale(series_derivative(dv), 1 if n == 0 else -1, n + 1)
            if n == 0:
                right = series_combine(right, dv.map_values(
                    lambda vec: module.apply_mode(delta.a, 0, vec)))
            yield _series_case(module.algebra, left, right, name, state=label)

    return _run_cases(name, cases(), "statesChecked")


def check_weight_bracket(module: InducedModule, u: PBWVector, states,
                         name="weight-bracket") -> CheckReport:
    """[L(0), D(x)] = x d/dx D(x) + u_0 D(x), state by state."""
    return _virasoro_bracket(module, u, states, 0, name)


def check_translation_bracket(module: InducedModule, u: PBWVector, states,
                              name="translation-bracket") -> CheckReport:
    """[L(-1), D(x)] = -d/dx D(x), state by state."""
    return _virasoro_bracket(module, u, states, -1, name)


# -- group laws --------------------------------------------------------------


def check_group_laws(module: InducedModule, u: PBWVector, states,
                     name="group-laws") -> CheckReport:
    """The zero shift is the identity and opposite currents invert."""
    d = make_delta(module, u)
    dinv = make_delta(module, F(-1) * u)
    dzero = make_delta(module, PBWVector())

    def cases():
        for v, label in states:
            expect = LogSeries({(F(0), 0): v})
            laws = [
                ("zero-is-identity", delta_apply(dzero, v)),
                ("inverse-right", delta_apply_series(d, delta_apply(dinv, v))),
                ("inverse-left", delta_apply_series(dinv, delta_apply(d, v))),
            ]
            for law, got in laws:
                yield _series_case(module.algebra, got, expect, name,
                                   state=label, law=law)

    return _run_cases(name, cases(), "comparisons")


def check_additivity(module: InducedModule, s_state: PBWVector,
                     n_state: PBWVector, states) -> CheckReport:
    """Shifts by commuting, pairing-orthogonal currents compose additively.

    The preconditions are recomputed here rather than assumed: the two
    underlying algebra elements must commute and pair to zero.
    """
    name = "shift-additivity"
    alg = module.algebra
    ds = make_delta(module, s_state)
    dn = make_delta(module, n_state)
    dsum = make_delta(module, s_state + n_state)
    if not alg.bracket(ds.a, dn.a).is_zero():
        raise DomainError("additivity needs commuting current parts")
    if alg.form(ds.a, dn.a) != 0:
        raise DomainError("additivity needs pairing-orthogonal current parts")

    def cases():
        for v, label in states:
            want = delta_apply(dsum, v)
            for order, got in [
                ("semisimple-last", delta_apply_series(ds, delta_apply(dn, v))),
                ("nilpotent-last", delta_apply_series(dn, delta_apply(ds, v))),
            ]:
                yield _series_case(alg, got, want, name, state=label, order=order)

    return _run_cases(name, cases(), "comparisons")


# -- twisted mode structure --------------------------------------------------


def chain_log_bound(twisted: TwistedModule) -> int:
    return sum(max(0, _nilpotency_index(twisted.algebra, step.n) - 1)
               for step in twisted.steps)


def check_mode_tables(twisted: TwistedModule, mode_span=3, weight=3,
                      log_max=None) -> CheckReport:
    """Closed-form mode tables agree with series-extracted twisted modes.

    Every candidate mode on the 1/D lattice is compared on the whole PBW
    basis up to the given weight; one extra log power past the unipotent
    bound is checked to vanish on both routes.  For a single purely
    semisimple step the eigenvalue-relabeling formula is recomputed inline
    as a third, independent route.
    """
    name = "mode-tables"
    module = twisted.base
    alg = twisted.algebra
    order = twisted.branch_order()
    if log_max is None:
        log_max = chain_log_bound(twisted)
    states = basis_states(module, weight)
    single_semisimple = (len(twisted.steps) == 1
                         and twisted.steps[0].n.is_zero())

    def cases():
        for b in alg.names:
            belt = alg.generator(b)
            for m in mode_candidates(mode_span, order):
                mode = fmt_rational(m)
                for l in range(0, int(log_max) + 2):
                    entry = mode_table_entry(twisted, b, m, l)
                    op = twisted.gen_mode(b, m, l)
                    for w, wlabel in states:
                        yield _vector_case(alg, apply_table_entry(module, entry, w),
                                           op(w), name, ("table", "series"),
                                           generator=b, mode=mode, logPower=l,
                                           state=wlabel)
                    if single_semisimple and l == 0:
                        yield False, _single_step_mismatch(twisted, belt, b, m,
                                                           entry)

    return _run_cases(name, cases(), "comparisons", {
        "modeSpan": int(mode_span),
        "branchOrder": order,
        "logPowersChecked": int(log_max) + 1,
        "relabelingFormulaChecked": bool(single_semisimple),
    })


def _single_step_mismatch(twisted, belt, bname, m, entry):
    # one semisimple step relabels an eigenvector's modes by its eigenvalue
    # and subtracts the pairing scalar at the zero mode; recompute that
    # directly from the eigendata and compare with the folded table
    step = twisted.steps[0]
    alg = twisted.algebra
    lam = step.eig.eigenvalue_of(belt)
    if lam is None:
        return None
    expected_ops = {}
    if (m - lam).denominator == 1:
        for gi, c in enumerate(belt.coords):
            if c:
                expected_ops[(gi, int(m - lam))] = c
    expected_scalar = 0
    if m == 0:
        expected_scalar = -alg.form(step.a, belt) * twisted.level
    ops, scalar = entry
    if ops != expected_ops or scalar != expected_scalar:
        return {
            "generator": bname,
            "mode": fmt_rational(m),
            "logPower": 0,
            "table": _fmt_table_entry(alg, entry),
            "relabelingFormula": _fmt_table_entry(alg, (expected_ops,
                                                        expected_scalar)),
        }
    return None


def _fmt_table_entry(alg, entry) -> str:
    ops, scalar = entry
    parts = [f"({fmt_scalar(c)}) {alg.names[gi]}({mode})"
             for (gi, mode), c in sorted(ops.items())]
    if scalar:
        parts.append(f"({fmt_scalar(scalar)}) Id")
    return " + ".join(parts) or "0"


def check_twisted_commutators(twisted: TwistedModule, pairs=None, mode_span=3,
                              weight=3) -> CheckReport:
    """Twisted mode commutators reproduce the shifted current relations.

    [b_(m), c_(n)] applied through series-extracted modes must equal the
    current-operator part of the bracket's twisted mode at m + n plus a
    central scalar, both assembled through the closed form tables so the
    two routes stay independent.  The central scalar is the untwisted
    pairing term summed over the two tables' mode expansions; the vacuum
    scalar inside the bracket's own table is excluded because scalars
    never survive a commutator.
    """
    name = "twisted-commutators"
    module = twisted.base
    alg = twisted.algebra
    level = twisted.level
    if pairs is None:
        pairs = [(b, c) for b in alg.names for c in alg.names]
    states = basis_states(module, weight)
    # operators are local, not memoized on the module: each keeps its
    # chain-transformed state alive for as long as it is held
    operators = {}

    def gen_mode(gname, m):
        if (gname, m) not in operators:
            operators[gname, m] = twisted.gen_mode(gname, m)
        return operators[gname, m], mode_table_entry(twisted, gname, m)[0]

    blocked = {}
    offsets = twisted.grading()[0]
    # the case (c, b, n, m) compares the same two products as (b, c, m, n),
    # swapped: whichever runs first builds them and keeps them for the
    # other, so each product is built once and held only until its partner
    # case has run (b_(m) b_(m) w is its own partner and is built once)
    kept = {}

    def cases():
        for at, (bname, cname) in enumerate(pairs):
            partner_later = (cname, bname) in pairs[at + 1:]
            pair = f"{bname},{cname}"
            belt, celt = alg.generator(bname), alg.generator(cname)
            lam_b, lam_c = offsets[alg.index[bname]], offsets[alg.index[cname]]
            if lam_b is None or lam_c is None:
                blocked.update(reason=("a probed generator is not an "
                                       "eigenvector of the chain"),
                               generatorPair=pair)
                return
            bracket = alg.bracket(belt, celt)
            # the bracket's table ops on each state, once per m + n
            images = {}
            for mi in range(-int(mode_span), int(mode_span) + 1):
                m = mi + lam_b
                if abs(m) > mode_span:
                    continue
                bop, bops = gen_mode(bname, m)
                for ni in range(-int(mode_span), int(mode_span) + 1):
                    n = ni + lam_c
                    if abs(n) > mode_span:
                        continue
                    cop, cops = gen_mode(cname, n)
                    entry = (mode_table_entry(twisted, bracket, m + n)[0], 0)
                    central = 0
                    for (gi, p), bco in bops.items():
                        for (gj, q), cco in cops.items():
                            if p + q == 0:
                                pairing = alg.form(alg._basis_elt(gi),
                                                   alg._basis_elt(gj))
                                central += bco * cco * p * pairing * level
                    modes = f"{fmt_rational(m)},{fmt_rational(n)}"
                    shared = kept.pop((bname, cname, m, n), None)
                    keep = partner_later or bname == cname and n > m
                    if keep:
                        kept[cname, bname, n, m] = held = []
                    for i, (w, wlabel) in enumerate(states):
                        if shared is None:
                            bc = bop(cop(w))
                            cb = bc if bop is cop else cop(bop(w))
                        else:
                            # the partner's b_(m) c_(n) w is this case's cb
                            cb, bc = shared[i]
                            shared[i] = None
                        if keep:
                            held.append((bc, cb))
                        lhs = bc - cb
                        image = images.get((m + n, i))
                        if image is None:
                            image = images[m + n, i] = apply_table_entry(module, entry, w)
                        rhs = image + central * w if central else image
                        yield _vector_case(alg, lhs, rhs, name, generatorPair=pair,
                                           modes=modes, state=wlabel)

    # a pair that cannot be certified ends the run unless an earlier one failed
    report = _run_cases(name, cases(), "comparisons",
                        {"modeSpan": int(mode_span), "pairs": len(pairs)})
    if blocked:
        return CheckReport(name, "uncertifiable", details=blocked)
    return report


# -- the conformal regrade ---------------------------------------------------


def check_conformal_shift(prev: TwistedModule, new: TwistedModule,
                          weight=4) -> CheckReport:
    """The regraded Virasoro modes shift by the current's modes.

    With D the last step's shift operator (current u, self-pairing kappa):
        L_new(0)  = L_prev(0)  - u_prev(0)  + kappa/2
        L_new(-1) = L_prev(-1) - u_prev(-1)
    both read off the x^(-2) and x^(-1) coefficients of the conformal
    state's twisted operator, with no log admixture allowed there.
    """
    name = "conformal-shift"
    if not new.steps:
        raise DomainError("the regrade check needs at least one shift step")
    step = new.steps[-1]
    module = new.base
    alg = new.algebra
    omega = module.conformal_vector()
    uvec = module.current(step.a)
    kappa = step.kappa
    states = basis_states(module, weight)
    new_log, new_l0, new_lm1 = (new.mode(omega, 1, 1), new.mode(omega, 1),
                                new.mode(omega, 0))
    prev_l0, prev_lm1 = prev.mode(omega, 1), prev.mode(omega, 0)
    prev_u0, prev_um1 = prev.mode(uvec, 0), prev.mode(uvec, -1)

    def cases():
        for w, label in states:
            logpart = new_log(w)
            yield False, None if logpart.is_zero() else {
                "state": label,
                "reason": "log admixture at the conformal weight mode",
                "left": format_vector(alg, logpart),
            }
            yield _vector_case(alg, new_l0(w),
                               prev_l0(w) - prev_u0(w) + F(kappa, 2) * w,
                               name, state=label, mode="weight-mode")
            yield _vector_case(alg, new_lm1(w), prev_lm1(w) - prev_um1(w),
                               name, state=label, mode="translation-mode")

    return _run_cases(name, cases(), "statesChecked",
                      {"selfPairingScalar": fmt_rational(kappa)})


def check_regraded_weights(twisted: TwistedModule, expectations) -> CheckReport:
    """Monomial weights in the regraded module match stated values.

    expectations: iterable of (monomial, expected weight).  Weights are
    pure arithmetic on the chain data, so this needs no module cutoff.
    """

    def cases():
        for mono, want in expectations:
            got = twisted.weight_of(mono)
            yield True, None if got == F(want) else {
                "monomial": format_monomial(twisted.algebra, mono),
                "got": fmt_rational(got),
                "expected": fmt_rational(F(want)),
            }

    return _run_cases("regraded-weights", cases(), "monomialsChecked")


def check_grading_restriction(twisted: TwistedModule,
                              coset_classes=True) -> CheckReport:
    """Certify or refute the grading restriction on the regraded module.

    With coset_classes True the grading classes are read modulo 1.  A
    generator whose total eigenvalue shift is an integer j >= 1 repeats:
    b(-j)^k |0> all share one weight and one class, an infinite bigraded
    piece, so the restriction certifiably fails.  A fractional shift
    above 1 descends instead: a subfamily in a fixed coset has weights
    falling without bound.  When every shift stays below 1, each tensor
    factor adds at least its positive margin to the weight, which bounds
    the pieces and certifies a pass.

    With exact classes (coset_classes False) the same families separate
    into distinct classes, so neither argument applies once a shift
    exceeds 1; the report is then uncertifiable rather than a claim.
    """
    name = "grading-restriction"
    alg = twisted.algebra
    shifts = {}
    for gname, lam in zip(alg.names, twisted.grading()[0]):
        if lam is None:
            return CheckReport(name, "uncertifiable", details={
                "reason": "a generator is not an eigenvector of the chain",
                "generator": gname,
            })
        shifts[gname] = lam
    details = {
        "classConvention": "mod-1" if coset_classes else "exact",
        "generatorShifts": {g: fmt_rational(s) for g, s in sorted(shifts.items())},
    }
    if coset_classes:
        for gname, lam in sorted(shifts.items()):
            if lam >= 1 and lam.denominator == 1:
                family = f"{gname}(-{int(lam)})^k |0>"
                reason = ("every member shares one weight and one mod-1 "
                          "class: an infinite graded piece")
            elif lam > 1:
                family = f"{gname}(-1)^({lam.denominator}k) |0>"
                reason = "weights fall without bound inside a single mod-1 class"
            else:
                continue
            return CheckReport(name, "fail", witness={
                "generator": gname,
                "shift": fmt_rational(lam),
                "family": family,
                "reason": reason,
            }, details=details)
        margins = {g: fmt_rational(1 - s) for g, s in sorted(shifts.items())}
        details["weightMarginPerFactor"] = margins
        return CheckReport(name, "pass", details=details)
    if all(lam <= 1 for lam in shifts.values()):
        details["separation"] = ("factors with zero weight margin advance "
                                 "the exact class, so no piece repeats")
        return CheckReport(name, "pass", details=details)
    details["reason"] = ("a shift exceeds 1: weights descend within a mod-1 "
                         "coset while exact classes separate, and the "
                         "inspected window cannot settle which grading the "
                         "restriction quantifies over")
    return CheckReport(name, "uncertifiable", details=details)


def check_zero_mode_nilpotency(twisted: TwistedModule, b, weight=3) -> CheckReport:
    """Nilpotency certificate for a twisted zero mode, relative to a window.

    Applies the (0, 0) twisted mode of the current b repeatedly to every
    basis state of weight <= weight.  Three outcomes:

      pass            every orbit dies; the annihilation is exact for the
                      inspected states (no window caveat on those).
      uncertifiable   some orbit leaves the window still alive.  The
                      details certify what the window does show: no orbit
                      cycles inside it, so the report is a cutoff-relative
                      certificate rather than a module-wide claim.
      fail            an orbit survives inside the window for more steps
                      than the window's dimension.  Its span is an
                      invariant subspace of that dimension, so the mode is
                      certifiably not nilpotent on it.
    """
    name = "zero-mode-nilpotency"
    module = twisted.base
    alg = twisted.algebra
    weight = int(weight)
    op = twisted.gen_mode(b, 0)
    states = basis_states(module, weight)
    window_dim = 1 + sum(module.graded_dimension(w) for w in range(1, weight + 1))
    worst = 0
    escapes = 0
    escaped_at = None
    for w, label in states:
        cur = w
        power = 0
        while not cur.is_zero():
            if cur.depth() > weight:
                escapes += 1
                if escaped_at is None:
                    escaped_at = {"state": label, "stepsInsideWindow": power}
                break
            if power > window_dim:
                return CheckReport(name, "fail", witness={
                    "state": label,
                    "powerTried": power,
                    "survivor": format_vector(alg, cur),
                    "reason": ("the orbit stays in a window of dimension "
                               f"{window_dim} without dying, so its span is "
                               "an invariant subspace the mode is not "
                               "nilpotent on"),
                }, details={"inspectedWeight": weight})
            cur = _ensure_exact(op(cur), name)
            power += 1
        worst = max(worst, power)
    if escapes:
        return CheckReport(name, "uncertifiable", details={
            "inspectedWeight": weight,
            "escapingOrbits": escapes,
            "firstEscape": escaped_at,
            "insideWindowConclusion": ("no orbit cycles inside the window; "
                                       "every survivor raises the weight "
                                       "out of it"),
            "cutoffRelative": True,
        })
    return CheckReport(name, "pass", details={
        "inspectedWeight": weight,
        "largestPowerNeeded": worst,
    })


# -- twisted module axioms ---------------------------------------------------


def check_twisted_axioms(twisted: TwistedModule, states, target_states,
                         ceiling=2) -> CheckReport:
    """Vacuum, lattice support, and the derivative rule for the chain.

    The vacuum state's twisted operator must be the identity; exponents
    must stay on the 1/D lattice; and the underlying translation operator
    must differentiate the series.
    """
    name = "twisted-axioms"
    module = twisted.base
    alg = twisted.algebra
    order = twisted.branch_order()
    lm1 = module.sugawara_mode(-1)
    ceiling = int(ceiling)
    if ceiling < 0:
        raise DomainError("the axiom check needs a nonnegative ceiling")
    vac = module.vacuum()

    def cases():
        for w, wlabel in target_states:
            yield _series_case(alg, twisted.vertex_series(vac, w, ceiling),
                               LogSeries({(F(0), 0): w}), name, state=wlabel,
                               axiom="vacuum")
        for v, vlabel in states:
            moved = _ensure_exact(lm1(v), name)
            for w, wlabel in target_states:
                ser = _series_exact(twisted.vertex_series(v, w, ceiling), name)
                off = next((e for (e, _k) in ser.terms
                            if (F(e) * order).denominator != 1), None)
                yield False, None if off is None else {
                    "argument": vlabel,
                    "target": wlabel,
                    "axiom": "lattice",
                    "exponent": fmt_rational(F(off)),
                }
                yield _series_case(alg, twisted.vertex_series(moved, w, ceiling - 1),
                                   series_derivative(ser), name, argument=vlabel,
                                   target=wlabel, axiom="derivative")

    return _run_cases(name, cases(), "comparisons",
                      {"ceiling": ceiling, "branchOrder": order})


def _monomial_sum_series(twisted: TwistedModule, v: PBWVector, w: PBWVector,
                         ceiling, known: dict) -> LogSeries:
    """Y_new(v, x) w as the sum over the monomials b of v of the coefficient
    times Y_new(b, x) w, which is computed once and kept in known[b]."""
    items = []
    for mono, c in v.c.items():
        ser = known.get(mono)
        if ser is None:
            ser = known[mono] = twisted.vertex_series(PBWVector({mono: 1}), w, ceiling)
        items.extend((e, k, vec.c, c, vec.truncated) for (e, k), vec in ser.terms.items())
    return series_sum(items, ceiling)


def check_equivariance(twisted: TwistedModule, target_states=None,
                       ceiling=1) -> CheckReport:
    """Moving one analytic branch matches acting by the automorphism.

    branch_shift(Y_new(v, x) w, one step) must equal Y_new(g v, x) w with
    g the attached automorphism; the comparison runs over cyclotomic
    coefficients, so root-of-unity and formal-log factors are both exact.
    Both sides are sums of Y_new(b, x) w over the monomials b of v and of
    g v, each computed once per target (Y_new is linear in its argument).
    """
    module = twisted.base
    alg = twisted.algebra
    order = twisted.branch_order()
    states = [(module.current(nm), f"{nm}(-1) |0>") for nm in alg.names]
    if target_states is None:
        target_states = basis_states(module, 2)
    # local to the check, as the operators of check_twisted_commutators are
    per_target = [{} for _ in target_states]

    def cases():
        for v, vlabel in states:
            gv = twisted.automorphism_apply(v)
            for (w, wlabel), known in zip(target_states, per_target):
                shifted = branch_shift(
                    _monomial_sum_series(twisted, v, w, ceiling, known), 1, order)
                direct = _monomial_sum_series(twisted, gv, w, ceiling, known)
                yield _series_case(alg, shifted, direct, "equivariance",
                                   argument=vlabel, target=wlabel)

    return _run_cases("equivariance", cases(), "comparisons",
                      {"branchOrder": order, "ceiling": int(ceiling)})


# -- transport of module maps ------------------------------------------------


def check_functor_transport(module: InducedModule, u: PBWVector,
                            probe_weight=2, ceiling=2) -> CheckReport:
    """Module maps transport through the construction and back.

    Identity, scalar, and zero maps must stay intertwining after the
    twist; a weight-skewed map must be rejected; and twisting by u then
    by -u must reproduce the untwisted vertex structure coefficient by
    coefficient.
    """
    name = "functor-transport"
    alg = module.algebra
    tw = make_twisted(module, u)
    good = [
        ("identity", ModuleMap()),
        ("scalar", ModuleMap(default=F(3))),
        ("zero", ModuleMap(default=F(0))),
    ]
    skew = ModuleMap(weight_scalars={2: F(5)})
    *rejected, skew_rejected = functor_on_map(
        tw, [mp for _label, mp in good] + [skew],
        probe_weight=probe_weight, ceiling=ceiling)
    for (label, _mp), exc in zip(good, rejected):
        if exc is not None:
            return CheckReport(name, "fail", witness={
                "map": label,
                "reason": f"rejected: {exc}",
            }, details={})
    if skew_rejected is None:
        return CheckReport(name, "fail", witness={
            "map": "weight-skewed",
            "reason": "a non-intertwining map was accepted",
        }, details={})
    round_trip = make_twisted(tw, F(-1) * u)
    states = [(module.current(nm), f"{nm}(-1) |0>") for nm in alg.names]
    states.append((module.conformal_vector(), "conformal state"))
    targets = basis_states(module, probe_weight + 1)
    cases = (_series_case(alg, round_trip.vertex_series(v, w, ceiling),
                          module.vertex_series(v, w, ceiling), name,
                          argument=vlabel, target=wlabel, law="round-trip")
             for v, vlabel in states for w, wlabel in targets)
    return _run_cases(name, cases, "roundTripComparisons",
                      {"mapsTransported": len(good), "skewRejected": True})
