"""Coefficientwise checks for the shift operators and their twisted modules.

Every check recomputes both sides of one identity in exact arithmetic and
returns a CheckReport.  Reports carry no live objects: witnesses and
details are strings and small integers, ready for deterministic JSON.

Two-variable identities are expanded in the inner variable only up to an
explicit ceiling.  Everything at or below the ceiling is exact, so a pass
certifies every compared coefficient and nothing beyond the window; the
window itself is recorded in the report details.  A check raises
DomainError rather than compare a truncated vector as if it were exact,
which is the signal to rebuild the module with a higher cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .delta import delta_apply, delta_apply_series, make_delta
from .errors import DomainError, NotIntertwining
from .fock import InducedModule, PBWVector
from .scalars import binom, fmt_rational, fmt_scalar
from .series import (
    LogSeries,
    branch_shift,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
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
    parts = []
    for mono, c in vec.sorted_items():
        parts.append(f"({fmt_scalar(c)}) {format_monomial(alg, mono)}")
    return " + ".join(parts)


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


def _series_witness(alg, wit, **extra) -> dict:
    e, k, left, right = wit
    out = {
        "exponent": fmt_rational(F(e)),
        "logPower": int(k),
        "left": format_vector(alg, left if not isinstance(left, int) else None),
        "right": format_vector(alg, right if not isinstance(right, int) else None),
    }
    out.update(extra)
    return out


def _series_check(name, alg, cases, count_key, **pass_details) -> CheckReport:
    """Compare each (left, right, witness fields) series pair in turn.

    cases is consumed lazily, so nothing past the first mismatch is
    computed; the report counts comparisons under count_key.
    """
    checked = 0
    for left, right, fields in cases:
        wit = series_eq(left, right)
        checked += 1
        if wit is not None:
            return CheckReport(name, "fail",
                               witness=_series_witness(alg, wit, **fields),
                               details={count_key: checked})
    return CheckReport(name, "pass", details={count_key: checked, **pass_details})


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
    checked = 0
    largest = 0
    for v, label in states:
        ser = _series_exact(delta_apply(delta, v), name)
        weights = v.weight_components()
        vw = max(weights) if weights else 0
        vd = v.depth()
        log_bound = max(0, (nil_index - 1)) * vd
        for (e, k), vec in ser.sorted_items():
            bad = None
            if any(w > vw for w in vec.weight_components()):
                bad = "a coefficient outweighs the input state"
            elif k > log_bound:
                bad = "log power exceeds the unipotent bound"
            elif (F(e) * lattice).denominator != 1:
                bad = "exponent leaves the eigenvalue lattice"
            if bad is not None:
                return CheckReport(name, "fail", witness={
                    "state": label,
                    "exponent": fmt_rational(F(e)),
                    "logPower": int(k),
                    "reason": bad,
                    "coefficient": format_vector(alg, vec),
                }, details={"statesChecked": checked})
        checked += 1
        largest = max(largest, len(ser.terms))
    return CheckReport(name, "pass", details={
        "statesChecked": checked,
        "largestSupport": largest,
        "logPowerBoundPerFactor": max(0, nil_index - 1),
        "exponentLattice": f"1/{lattice}",
    })


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


def _expand_at_sum(e, k, lpow, max_p):
    """x^e (log x)^k with x replaced by x + y.

    Returns {(j, p): scalar} for x^(e - p) (log x)^j y^p, exact for
    p <= max_p.  Binomial expansion handles x^e, the alternating series
    for log(x+y) - log(x) (lpow, from _log_shift_powers) handles the log
    powers.
    """
    out = {}
    for j in range(k + 1):
        ckj = binom(k, j)
        for il, cl in lpow[k - j].items():
            for i in range(0, max_p - il + 1):
                c = ckj * cl * binom(e, i)
                if c:
                    out[(j, i + il)] = out.get((j, i + il), 0) + c
    return {key: c for key, c in out.items() if c}


def _accumulate(side, key, scale, coeffs):
    bucket = side.setdefault(key, {})
    for mono, c in coeffs.items():
        cur = bucket.get(mono)
        total = scale * c if cur is None else cur + scale * c
        if total:
            bucket[mono] = total
        else:
            bucket.pop(mono, None)


def _conjugated_sides(delta, v: PBWVector, w: PBWVector, shifted, dw: LogSeries,
                      ceiling: int):
    """Both sides of D(x) Y(v, y) w = Y(D(x+y) v, y) D(x) w.

    shifted lists (e, D(v) coefficient, _expand_at_sum table) for every
    term of D(v), and dw is D(w).  Returned as {(e, k, j): {mono: coeff}}
    keyed by x^e (log x)^k y^j, exact for y-exponents j <= ceiling.
    """
    module = delta.module

    lhs = {}
    base = module.vertex_series(v, w, ceiling)
    for (ey, _k0), vecy in base.terms.items():
        _ensure_exact(vecy, "conjugation check")
        for (e, k), vec in delta_apply(delta, vecy).terms.items():
            _accumulate(lhs, (e, k, ey), 1, vec.c)

    rhs = {}
    for e1, vecv, table in shifted:
        for (ew, kw), vecw in dw.terms.items():
            sub = module.vertex_series(vecv, vecw, ceiling).terms.items()
            for (_ey, _k0), vecy in sub:
                _ensure_exact(vecy, "conjugation check")
            for (j1, p1), c in table.items():
                for (ey, _k0), vecy in sub:
                    if p1 + ey <= ceiling:
                        _accumulate(rhs, (e1 - p1 + ew, j1 + kw, p1 + ey), c, vecy.c)
    return lhs, rhs


def _compare_bivariate(alg, lhs, rhs, ceiling):
    keys = sorted(set(lhs) | set(rhs), key=lambda t: (t[2], t[0], t[1]))
    for key in keys:
        if key[2] > ceiling:
            continue
        a = lhs.get(key, {})
        b = rhs.get(key, {})
        if a != b:
            e, k, j = key
            return {
                "outerExponent": fmt_rational(F(e)),
                "logPower": int(k),
                "innerExponent": fmt_rational(F(j)),
                "left": format_vector(alg, PBWVector(a)),
                "right": format_vector(alg, PBWVector(b)),
            }
    return None


def check_shift_conjugation(module: InducedModule, u: PBWVector, arg_states,
                            target_states, inner_ceiling=2, legacy=False,
                            name="shift-conjugation") -> CheckReport:
    """Conjugating a vertex operator by the shift re-centers its argument.

    Compares D(x) Y(v, y) w against Y(D(x+y) v, y) D(x) w coefficient by
    coefficient in both variables, exactly up to the inner ceiling.  D(w)
    is computed once per target and D(x+y) v once per argument.
    """
    delta = make_delta(module, u, legacy_sign_convention=legacy)
    alg = module.algebra
    ceiling = int(inner_ceiling)
    targets = [(w, wlabel, delta_apply(delta, w)) for w, wlabel in target_states]
    reach_w = max((w.depth() for w, _wl, _dw in targets), default=0)
    checked = 0
    for v, vlabel in arg_states:
        dv = delta_apply(delta, v)
        # the inner operator reaches y-exponents as low as minus the total
        # weight, so substitution terms that far above the ceiling still
        # land inside the window and must be kept
        max_p = ceiling + v.depth() + reach_w
        lpow = _log_shift_powers(max((k for (_e, k) in dv.terms), default=0), max_p)
        shifted = [(e, vec, _expand_at_sum(e, k, lpow, max_p))
                   for (e, k), vec in dv.terms.items()]
        for w, wlabel, dw in targets:
            lhs, rhs = _conjugated_sides(delta, v, w, shifted, dw, ceiling)
            wit = _compare_bivariate(alg, lhs, rhs, ceiling)
            checked += 1
            if wit is not None:
                wit["argument"] = vlabel
                wit["target"] = wlabel
                return CheckReport(name, "fail", witness=wit,
                                   details={"pairsChecked": checked,
                                            "innerCeiling": ceiling})
    return CheckReport(name, "pass", details={
        "pairsChecked": checked,
        "innerCeiling": ceiling,
    })


# -- derivation brackets -----------------------------------------------------


def check_weight_bracket(module: InducedModule, u: PBWVector, states,
                         name="weight-bracket") -> CheckReport:
    """[L(0), D(x)] = x d/dx D(x) + u_0 D(x), state by state."""
    delta = make_delta(module, u)
    l0 = module.sugawara_mode(0)

    def cases():
        for v, label in states:
            dv = _series_exact(delta_apply(delta, v), name)
            left = _series_sub(dv.map_values(l0), delta_apply(delta, l0(v)))
            right = series_combine(
                series_scale(series_derivative(dv), eshift=1),
                dv.map_values(lambda vec: module.apply_mode(delta.a, 0, vec)))
            yield left, right, {"state": label}

    return _series_check(name, module.algebra, cases(), "statesChecked")


def check_translation_bracket(module: InducedModule, u: PBWVector, states,
                              name="translation-bracket") -> CheckReport:
    """[L(-1), D(x)] = -d/dx D(x), state by state."""
    delta = make_delta(module, u)
    lm1 = module.sugawara_mode(-1)

    def cases():
        for v, label in states:
            dv = _series_exact(delta_apply(delta, v), name)
            moved = _ensure_exact(lm1(v), name)
            left = _series_sub(dv.map_values(lambda vec: _ensure_exact(lm1(vec), name)),
                               delta_apply(delta, moved))
            right = series_scale(series_derivative(dv), scalar=F(-1))
            yield left, right, {"state": label}

    return _series_check(name, module.algebra, cases(), "statesChecked")


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
                yield got, expect, {"state": label, "law": law}

    return _series_check(name, module.algebra, cases(), "comparisons")


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
                yield got, want, {"state": label, "order": order}

    return _series_check(name, alg, cases(), "comparisons")


# -- twisted mode structure --------------------------------------------------


def chain_log_bound(twisted: TwistedModule) -> int:
    alg = twisted.algebra
    total = 0
    for step in twisted.steps:
        total += max(0, _nilpotency_index(alg, step.n) - 1)
    return total


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
    compared = 0
    for b in alg.names:
        belt = alg.generator(b)
        for m in mode_candidates(mode_span, order):
            for l in range(0, int(log_max) + 2):
                entry = mode_table_entry(twisted, b, m, l)
                op = twisted.gen_mode(b, m, l)
                for w, wlabel in states:
                    via_table = _ensure_exact(apply_table_entry(module, entry, w), name)
                    via_series = _ensure_exact(op(w), name)
                    compared += 1
                    if not (via_table - via_series).is_zero():
                        return CheckReport(name, "fail", witness={
                            "generator": b,
                            "mode": fmt_rational(m),
                            "logPower": l,
                            "state": wlabel,
                            "table": format_vector(alg, via_table),
                            "series": format_vector(alg, via_series),
                        }, details={"comparisons": compared})
                if single_semisimple and l == 0:
                    wit = _single_step_mismatch(twisted, belt, b, m, entry)
                    if wit is not None:
                        return CheckReport(name, "fail", witness=wit,
                                           details={"comparisons": compared})
    return CheckReport(name, "pass", details={
        "comparisons": compared,
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
    if (F(m) - lam).denominator == 1:
        for gi, c in enumerate(belt.coords):
            if c:
                expected_ops[(gi, int(F(m) - lam))] = c
    expected_scalar = F(0)
    if F(m) == 0:
        expected_scalar = -alg.form(step.a, belt) * twisted.level
    ops, scalar = entry
    if ops != expected_ops or scalar != expected_scalar:
        return {
            "generator": bname,
            "mode": fmt_rational(F(m)),
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
    if parts and scalar:
        return " + ".join(parts) + f" + ({fmt_scalar(scalar)}) Id"
    if parts:
        return " + ".join(parts)
    if scalar:
        return f"({fmt_scalar(scalar)}) Id"
    return "0"


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

    compared = 0
    for bname, cname in pairs:
        belt, celt = alg.generator(bname), alg.generator(cname)
        lam_b = _class_shift(twisted, belt)
        lam_c = _class_shift(twisted, celt)
        if lam_b is None or lam_c is None:
            return CheckReport(name, "uncertifiable", details={
                "reason": "a probed generator is not an eigenvector of the chain",
                "generatorPair": f"{bname},{cname}",
            })
        bracket = alg.bracket(belt, celt)
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
                entry_ops = mode_table_entry(twisted, bracket, m + n)[0]
                central = F(0)
                for (gi, p), bco in bops.items():
                    for (gj, q), cco in cops.items():
                        if p + q == 0:
                            pairing = alg.form(alg._basis_elt(gi),
                                               alg._basis_elt(gj))
                            central += bco * cco * p * pairing * level
                for w, wlabel in states:
                    lhs = bop(cop(w)) - cop(bop(w))
                    rhs = apply_table_entry(module, (entry_ops, F(0)), w)
                    rhs = rhs + central * w
                    _ensure_exact(lhs, name)
                    _ensure_exact(rhs, name)
                    compared += 1
                    if not (lhs - rhs).is_zero():
                        return CheckReport(name, "fail", witness={
                            "generatorPair": f"{bname},{cname}",
                            "modes": f"{fmt_rational(m)},{fmt_rational(n)}",
                            "state": wlabel,
                            "left": format_vector(alg, lhs),
                            "right": format_vector(alg, rhs),
                        }, details={"comparisons": compared})
    return CheckReport(name, "pass", details={
        "comparisons": compared,
        "modeSpan": int(mode_span),
        "pairs": len(pairs),
    })


def _class_shift(twisted: TwistedModule, elt):
    """Total grading-class shift of a current, None if not an eigenvector."""
    total = F(0)
    for step in twisted.steps:
        lam = step.eig.eigenvalue_of(elt)
        if lam is None:
            return None
        total += lam
    return total


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
    checked = 0
    for w, label in states:
        logpart = new.mode(omega, 1, 1)(w)
        if not logpart.is_zero():
            return CheckReport(name, "fail", witness={
                "state": label,
                "reason": "log admixture at the conformal weight mode",
                "left": format_vector(alg, logpart),
            }, details={"statesChecked": checked})
        got0 = new.mode(omega, 1)(w)
        want0 = (prev.mode(omega, 1)(w) - prev.mode(uvec, 0)(w)
                 + F(kappa, 2) * w)
        got1 = new.mode(omega, 0)(w)
        want1 = prev.mode(omega, 0)(w) - prev.mode(uvec, -1)(w)
        for tag, got, want in [("weight-mode", got0, want0),
                               ("translation-mode", got1, want1)]:
            _ensure_exact(got, name)
            _ensure_exact(want, name)
            checked += 1
            if not (got - want).is_zero():
                return CheckReport(name, "fail", witness={
                    "state": label,
                    "mode": tag,
                    "left": format_vector(alg, got),
                    "right": format_vector(alg, want),
                }, details={"statesChecked": checked})
    return CheckReport(name, "pass", details={
        "statesChecked": checked,
        "selfPairingScalar": fmt_rational(kappa),
    })


def check_regraded_weights(twisted: TwistedModule, expectations) -> CheckReport:
    """Monomial weights in the regraded module match stated values.

    expectations: iterable of (monomial, expected weight).  Weights are
    pure arithmetic on the chain data, so this needs no module cutoff.
    """
    name = "regraded-weights"
    alg = twisted.algebra
    checked = 0
    for mono, want in expectations:
        got = twisted.weight_of(mono)
        checked += 1
        if got != F(want):
            return CheckReport(name, "fail", witness={
                "monomial": format_monomial(alg, mono),
                "got": fmt_rational(got),
                "expected": fmt_rational(F(want)),
            }, details={"monomialsChecked": checked})
    return CheckReport(name, "pass", details={"monomialsChecked": checked})


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
    for gi, gname in enumerate(alg.names):
        lam = _class_shift(twisted, alg.generator(gname))
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
                j = int(lam)
                return CheckReport(name, "fail", witness={
                    "generator": gname,
                    "shift": fmt_rational(lam),
                    "family": f"{gname}(-{j})^k |0>",
                    "reason": ("every member shares one weight and one "
                               "mod-1 class: an infinite graded piece"),
                }, details=details)
            if lam > 1:
                q = lam.denominator
                return CheckReport(name, "fail", witness={
                    "generator": gname,
                    "shift": fmt_rational(lam),
                    "family": f"{gname}(-1)^({q}k) |0>",
                    "reason": ("weights fall without bound inside a single "
                               "mod-1 class"),
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
            weights = cur.weight_components()
            if weights and max(weights) > weight:
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
        details = {
            "inspectedWeight": weight,
            "escapingOrbits": escapes,
            "firstEscape": escaped_at,
            "insideWindowConclusion": ("no orbit cycles inside the window; "
                                       "every survivor raises the weight "
                                       "out of it"),
            "cutoffRelative": True,
        }
        return CheckReport(name, "uncertifiable", details=details)
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
    checked = 0
    for w, wlabel in target_states:
        ser = twisted.vertex_series(vac, w, ceiling)
        wit = series_eq(ser, LogSeries({(F(0), 0): w}))
        checked += 1
        if wit is not None:
            return CheckReport(name, "fail",
                               witness=_series_witness(alg, wit, state=wlabel,
                                                       axiom="vacuum"),
                               details={"comparisons": checked})
    for v, vlabel in states:
        moved = _ensure_exact(lm1(v), name)
        for w, wlabel in target_states:
            ser = _series_exact(twisted.vertex_series(v, w, ceiling), name)
            for (e, _k), _vec in ser.terms.items():
                if (F(e) * order).denominator != 1:
                    return CheckReport(name, "fail", witness={
                        "argument": vlabel,
                        "target": wlabel,
                        "axiom": "lattice",
                        "exponent": fmt_rational(F(e)),
                    }, details={"comparisons": checked})
            lhs = twisted.vertex_series(moved, w, ceiling - 1)
            rhs = series_derivative(ser)
            wit = series_eq(lhs, rhs)
            checked += 1
            if wit is not None:
                return CheckReport(name, "fail",
                                   witness=_series_witness(alg, wit,
                                                           argument=vlabel,
                                                           target=wlabel,
                                                           axiom="derivative"),
                                   details={"comparisons": checked})
    return CheckReport(name, "pass", details={
        "comparisons": checked,
        "ceiling": ceiling,
        "branchOrder": order,
    })


def check_equivariance(twisted: TwistedModule, target_states=None,
                       ceiling=1) -> CheckReport:
    """Moving one analytic branch matches acting by the automorphism.

    branch_shift(Y_new(v, x) w, one step) must equal Y_new(g v, x) w with
    g the attached automorphism; the comparison runs over cyclotomic
    coefficients, so root-of-unity and formal-log factors are both exact.
    """
    module = twisted.base
    alg = twisted.algebra
    order = twisted.branch_order()
    states = [(module.current(nm), f"{nm}(-1) |0>") for nm in alg.names]
    if target_states is None:
        target_states = basis_states(module, 2)

    def cases():
        for v, vlabel in states:
            gv = twisted.automorphism_apply(v)
            for w, wlabel in target_states:
                shifted = branch_shift(twisted.vertex_series(v, w, ceiling), 1, order)
                direct = twisted.vertex_series(gv, w, ceiling)
                yield shifted, direct, {"argument": vlabel, "target": wlabel}

    return _series_check(
        "equivariance", alg, cases(), "comparisons", branchOrder=order,
        ceiling=int(F(ceiling)) if F(ceiling).denominator == 1 else fmt_rational(F(ceiling)))


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
    for label, mp in good:
        try:
            functor_on_map(tw, mp, probe_weight=probe_weight, ceiling=ceiling)
        except NotIntertwining as exc:
            return CheckReport(name, "fail", witness={
                "map": label,
                "reason": f"rejected: {exc}",
            }, details={})
    skew = ModuleMap(weight_scalars={2: F(5)})
    try:
        functor_on_map(tw, skew, probe_weight=probe_weight, ceiling=ceiling)
        return CheckReport(name, "fail", witness={
            "map": "weight-skewed",
            "reason": "a non-intertwining map was accepted",
        }, details={})
    except NotIntertwining:
        pass
    round_trip = make_twisted(tw, F(-1) * u)
    states = [(module.current(nm), f"{nm}(-1) |0>") for nm in alg.names]
    states.append((module.conformal_vector(), "conformal state"))
    targets = basis_states(module, probe_weight + 1)
    cases = ((round_trip.vertex_series(v, w, ceiling),
              module.vertex_series(v, w, ceiling),
              {"argument": vlabel, "target": wlabel, "law": "round-trip"})
             for v, vlabel in states for w, wlabel in targets)
    return _series_check(name, alg, cases, "roundTripComparisons",
                         mapsTransported=len(good), skewRejected=True)
