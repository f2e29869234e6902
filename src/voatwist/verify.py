"""Coefficientwise checks for the shift operators and their twisted modules.

Every check recomputes both sides of one identity in exact arithmetic and
returns a CheckReport.  Reports carry no live objects: witnesses and
details are strings and small integers, ready for deterministic JSON.

Two-variable identities are expanded in the inner variable only up to an
explicit ceiling.  Everything at or below the ceiling is exact, so a pass
certifies every compared coefficient and nothing beyond the window; the
window itself is recorded in the report details.  Every vector and series
term a check compares is exact, whatever the module's declared cutoff: the
module computes each coefficient in full, so the comparison helpers
_vector_case and _series_case compare values and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .delta import _stages, delta_apply, delta_apply_series, make_delta
from .errors import DomainError
from .fock import InducedModule
from .scalars import clear_denominators, fmt_rational, fmt_scalar
from .series import (
    LogSeries,
    PBWVector,
    branch_shift,
    divided,
    expand_at_sum,
    factors,
    lattice_point,
    linear_series,
    monomial,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
)
from .twist import (
    ModuleMap,
    TwistedModule,
    _ad_powers,
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
    "current_states",
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


class CheckReport:
    """Outcome of one named check.

    status is "pass", "fail", or "uncertifiable".  A fail always carries a
    witness dict pointing at the first offending coefficient; uncertifiable
    reports describe the inspected window instead of claiming either side.
    A plain slotted record: importing dataclasses would load inspect and
    a dozen more modules on every run.
    """

    __slots__ = ("name", "status", "witness", "details")

    def __init__(self, name: str, status: str, witness: dict | None = None,
                 details: dict | None = None):
        self.name = name
        self.status = status
        self.witness = witness
        self.details = {} if details is None else details

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.status, self.witness, self.details)
                == (other.name, other.status, other.witness, other.details))

    def __repr__(self):
        return (f"CheckReport(name={self.name!r}, status={self.status!r}, "
                f"witness={self.witness!r}, details={self.details!r})")

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
    return " ".join(f"{alg.names[gi]}({m})" for gi, m in factors(mono)) + " |0>"


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


def current_states(module: InducedModule, conformal=False):
    """Every generator's current b(-1)|0>, in the order of the algebra's
    names and labelled as basis_states labels them, then the conformal
    state when asked for."""
    states = basis_states(module, 1)[1:]
    if conformal:
        states.append((module.conformal_vector(), "conformal state"))
    return states


def _series_sub(a: LogSeries, b: LogSeries) -> LogSeries:
    return series_combine(a, series_scale(b, scalar=-1))


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


def _series_case(alg, left, right, **fields):
    """A counted comparison of two series, every term of each; the caller
    reads both to one ceiling, the check's window.  A witness names the
    first (e, k) apart."""
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


def _vector_case(alg, left, right, keys=("left", "right"), **fields):
    """A counted comparison of two vectors, named by keys in a witness."""
    if left.c == right.c:
        return True, None
    return True, {**fields, keys[0]: format_vector(alg, left),
                  keys[1]: format_vector(alg, right)}


def _nilpotency_index(alg, n) -> int:
    """Smallest p with ad(n)^p = 0 (0 for n = 0): the longest ad-power walk
    from a basis element."""
    if n is None or n.is_zero():
        return 0
    p = 0
    for x in alg.basis():
        for depth, _power in enumerate(_ad_powers(alg, n, x), 1):
            # a nilpotent ad(n) has ad(n)^dim = 0
            if depth > alg.dim:
                raise DomainError("the nilpotent part is not actually nilpotent")
            p = max(p, depth)
    return p


# -- output shape of the shift operator -------------------------------------


def check_shift_finiteness(module: InducedModule, u: PBWVector, states) -> CheckReport:
    """The shift of every state is a finite series with bounded shape.

    Checked per state: coefficients never exceed the state's weight, log
    powers stay under the unipotent bound (nilpotency index minus one, per
    tensor factor), and exponents live on the 1/q lattice cut out by the
    semisimple eigenvalues.
    """
    delta = make_delta(module, u)
    alg = module.algebra
    nil_index = _nilpotency_index(alg, delta.n)
    lattice = TwistedModule(module, (delta,)).branch_order()
    details = {
        "largestSupport": 0,
        "logPowerBoundPerFactor": max(0, nil_index - 1),
        "exponentLattice": f"1/{lattice}",
    }

    def cases():
        # a state counts once all of its terms are in shape
        for v, label in states:
            ser = delta_apply(delta, v)
            vw = v.depth()
            log_bound = max(0, nil_index - 1) * vw
            for (e, k), vec in ser.sorted_items():
                if vec.depth() > vw:
                    bad = "a coefficient outweighs the input state"
                elif k > log_bound:
                    bad = "log power exceeds the unipotent bound"
                elif lattice_point(e, lattice) is None:
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

    return _run_cases("shift-finiteness", cases(), "statesChecked", details)


# -- the conjugation identity in two variables ------------------------------


def _conjugated_sides(delta, vc: dict, wc: dict, yden: int, shifted, dw,
                      ceiling: int):
    """Both sides of D(x) Y(v, y) w = Y(D(x+y) v, y) D(x) w, keyed (e, k, j)
    by x^e (log x)^k y^j, exact for j <= ceiling.

    The left side maps a key to (terms, den), the coefficient terms/den: D
    of each y-coefficient of Y(v, y) w, summed from v's and w's cleared
    coefficients vc and wc over yden, as the shift's stage output.  The
    right side maps a key to a sum: shifted lists (e, D(v) coefficient,
    expand_at_sum table) for every term of D(v), and dw the ((e, k),
    coefficient) terms of D(w), all cleared.
    """
    module = delta.module
    lhs = {}
    for ey, terms in module.vertex_sums(vc, wc, ceiling).items():
        for e, k, sub, den in _stages(delta, PBWVector.adopt(terms)):
            lhs[e, k, ey] = (sub, den * yden)

    # summed inline straight from the memoized _vs_mono buckets of each
    # monomial pair; compared and never stored, so not held to the scalar
    # rule, and a key may be left with an empty dict.  A table's keys come
    # in ascending p, so its read stops at the first p past ceiling - ey
    rhs = {}
    vs_mono = module._vs_mono
    for e1, vecv, table in shifted:
        entries = table.items()
        for (ew, kw), vecw in dw:
            for mv, cv in vecv.items():
                for mw, cw in vecw.items():
                    cvw = cv * cw
                    for ey, bucket in vs_mono(mv, mw, ceiling).items():
                        top = ceiling - ey
                        for (j1, p1), c in entries:
                            if p1 > top:
                                break
                            key = (e1 - p1 + ew, j1 + kw, p1 + ey)
                            scale = c * cvw
                            acc = rhs.get(key)
                            if acc is None:
                                rhs[key] = {mono: scale * x for mono, x in bucket}
                                continue
                            for mono, x in bucket:
                                x = acc[mono] + scale * x if mono in acc else scale * x
                                if x:
                                    acc[mono] = x
                                else:
                                    del acc[mono]
    return lhs, rhs


def _compare_bivariate(alg, lhs, rhs, scale, ceiling, **fields):
    """The first (e, k, j) key, in (j, e, k) order, where lhs's terms/den is
    not rhs's sum over scale, cross-multiplied (c * scale == r * den), as a
    witness showing both divided.  Only a failing pair's keys are sorted."""
    bad = []
    for key in {*lhs, *rhs}:
        left, den = lhs.get(key, ({}, 1))
        right = rhs.get(key, {})
        if key[2] > ceiling:
            continue
        if left.keys() != right.keys():
            bad.append(key)
            continue
        for m, c in left.items():
            if c * scale != right[m] * den:
                bad.append(key)
                break
    if not bad:
        return None
    key = min(bad, key=lambda t: (t[2], t[0], t[1]))
    e, k, j = key
    left, den = lhs.get(key, ({}, 1))
    return {
        **fields,
        "outerExponent": fmt_rational(F(e)),
        "logPower": int(k),
        "innerExponent": fmt_rational(F(j)),
        "left": format_vector(alg, PBWVector(divided(left, den))),
        "right": format_vector(alg, PBWVector(divided(rhs.get(key, {}), scale))),
    }


def check_shift_conjugation(module: InducedModule, u: PBWVector, arg_states,
                            target_states, inner_ceiling=2, legacy=False) -> CheckReport:
    """Conjugating a vertex operator by the shift re-centers its argument.

    Compares D(x) Y(v, y) w against Y(D(x+y) v, y) D(x) w coefficient by
    coefficient in both variables, exactly up to the inner ceiling, an
    integer (else DomainError).  Both sides are read in integers, the left
    one over a positive int den per key, the right one from D(x+y) v and
    D(w) cleared once per argument and target; only a witness is divided.
    """
    delta = make_delta(module, u, legacy_sign_convention=legacy)
    alg = module.algebra
    if type(inner_ceiling) not in (int, F) or inner_ceiling.denominator != 1:
        raise DomainError(f"the inner ceiling must be an integer, not {inner_ceiling!r}")
    ceiling = int(inner_ceiling)
    targets = []
    for w, wlabel in target_states:
        dw = delta_apply(delta, w)
        coeffs, w_scale = clear_denominators([vec.c for vec in dw.terms.values()])
        [wc], w_den = clear_denominators([w.c])
        targets.append((w.depth(), wc, w_den, wlabel, list(zip(dw.terms, coeffs)),
                        w_scale))
    reach_w = max((target[0] for target in targets), default=0)

    def cases():
        for v, vlabel in arg_states:
            dv = delta_apply(delta, v)
            # the inner operator reaches y-exponents as low as minus the
            # total weight, so substitution terms that far above the ceiling
            # still land inside the window and must be kept
            max_p = ceiling + v.depth() + reach_w
            coeffs, v_scale = clear_denominators([vec.c for vec in dv.terms.values()])
            tables, t_scale = clear_denominators([expand_at_sum(e, k, max_p)
                                                  for (e, k) in dv.terms])
            shifted = [(e, c, table) for (e, _k), c, table
                       in zip(dv.terms, coeffs, tables)]
            [vc], v_den = clear_denominators([v.c])
            for _depth, wc, w_den, wlabel, dw_terms, w_scale in targets:
                lhs, rhs = _conjugated_sides(delta, vc, wc, v_den * w_den, shifted,
                                             dw_terms, ceiling)
                yield True, _compare_bivariate(
                    alg, lhs, rhs, v_scale * t_scale * w_scale, ceiling,
                    argument=vlabel, target=wlabel)

    window = {"innerCeiling": ceiling}
    return _run_cases("shift-conjugation", cases(), "pairsChecked", window, window)


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
            yield _series_case(module.algebra, left, right, state=label)

    return _run_cases(name, cases(), "statesChecked")


def check_weight_bracket(module: InducedModule, u: PBWVector, states) -> CheckReport:
    """[L(0), D(x)] = x d/dx D(x) + u_0 D(x), state by state."""
    return _virasoro_bracket(module, u, states, 0, "weight-bracket")


def check_translation_bracket(module: InducedModule, u: PBWVector, states) -> CheckReport:
    """[L(-1), D(x)] = -d/dx D(x), state by state."""
    return _virasoro_bracket(module, u, states, -1, "translation-bracket")


# -- group laws --------------------------------------------------------------


def check_group_laws(module: InducedModule, u: PBWVector, states) -> CheckReport:
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
                yield _series_case(module.algebra, got, expect, state=label, law=law)

    return _run_cases("group-laws", cases(), "comparisons")


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
                yield _series_case(alg, got, want, state=label, order=order)

    return _run_cases(name, cases(), "comparisons")


# -- twisted mode structure --------------------------------------------------


def chain_log_bound(twisted: TwistedModule) -> int:
    return sum(max(0, _nilpotency_index(twisted.algebra, step.n) - 1)
               for step in twisted.steps)


def check_mode_tables(twisted: TwistedModule, mode_span, weight,
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
            # the table of b is that of b in the steps' frame
            belt = twisted.to_step_frame(alg.generator(b))
            for m in mode_candidates(mode_span, order):
                mode = fmt_rational(m)
                for l in range(0, int(log_max) + 2):
                    entry = mode_table_entry(twisted, b, m, l)
                    op = twisted.gen_mode(b, m, l)
                    for w, wlabel in states:
                        yield _vector_case(alg, apply_table_entry(module, entry, w),
                                           op(w), ("table", "series"),
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
    shifted = m - lam
    if shifted.denominator == 1:
        for gi, c in enumerate(belt.coords):
            if c:
                expected_ops[(gi, int(shifted))] = c
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


def check_twisted_commutators(twisted: TwistedModule, mode_span, weight,
                              pairs=None) -> CheckReport:
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
    @lru_cache(maxsize=None)
    def gen_mode(gname, m):
        return twisted.gen_mode(gname, m), mode_table_entry(twisted, gname, m)[0]

    blocked = {}
    # offsets are in the steps' frame: b has the class of the generator
    # that b is a multiple of there
    offsets = twisted.grading()[0]
    offsets = [offsets[terms[0][0]] if len(terms := elt.terms()) == 1 else None
               for elt in map(twisted.to_step_frame, alg.basis())]

    def span(lam):
        return [mi + lam for mi in range(-int(mode_span), int(mode_span) + 1)
                if abs(mi + lam) <= mode_span]

    def cases():
        for at, (bname, cname) in enumerate(pairs):
            pair = f"{bname},{cname}"
            lam_b, lam_c = offsets[alg.index[bname]], offsets[alg.index[cname]]
            if lam_b is None or lam_c is None:
                blocked.update(reason=("a probed generator is not an "
                                       "eigenvector of the chain"),
                               generatorPair=pair)
                return
            # the case (c, b, n, m) is (b, c, m, n) with both sides negated,
            # and the run reaches it only once that case has passed: it is
            # counted per state and nothing is built for it.  Every case of
            # a pair whose reverse ran earlier is such a partner, and so is
            # b = c with n < m
            reversed_ran = (cname, bname) in pairs[:at]
            bracket = alg.bracket(alg.generator(bname), alg.generator(cname))
            # the bracket's table ops on each state, once per m + n
            images = {}
            for m in span(lam_b):
                for n in span(lam_c):
                    if reversed_ran or bname == cname and n < m:
                        for _ in states:
                            yield True, None
                        continue
                    bop, bops = gen_mode(bname, m)
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
                    for i, (w, wlabel) in enumerate(states):
                        bc = bop(cop(w))
                        cb = bc if bop is cop else cop(bop(w))
                        image = images.get((m + n, i))
                        if image is None:
                            image = images[m + n, i] = apply_table_entry(module, entry, w)
                        rhs = image + central * w if central else image
                        yield _vector_case(alg, bc - cb, rhs, generatorPair=pair,
                                           modes=modes, state=wlabel)

    # a pair that cannot be certified ends the run unless an earlier one failed
    report = _run_cases(name, cases(), "comparisons",
                        {"modeSpan": int(mode_span), "pairs": len(pairs)})
    if blocked:
        return CheckReport(name, "uncertifiable", details=blocked)
    return report


# -- the conformal regrade ---------------------------------------------------


def check_conformal_shift(prev: TwistedModule, new: TwistedModule,
                          weight) -> CheckReport:
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
    # the step holds u in the steps' frame; the identities read it in prev's
    uvec = module.current(new.from_step_frame(step.a))
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
                               state=label, mode="weight-mode")
            yield _vector_case(alg, new_lm1(w), prev_lm1(w) - prev_um1(w),
                               state=label, mode="translation-mode")

    return _run_cases(name, cases(), "statesChecked",
                      {"selfPairingScalar": fmt_rational(kappa)})


def check_regraded_weights(twisted: TwistedModule, expectations) -> CheckReport:
    """Monomial weights in the regraded module match stated values.

    expectations: iterable of (monomial, expected weight), a monomial
    given as a codec str or a tuple of (generator index, mode) pairs.
    Weights are pure arithmetic on the chain data, so this needs no module
    cutoff.
    """

    def cases():
        for mono, want in expectations:
            if type(mono) is tuple:
                mono = monomial(*mono)
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


def check_zero_mode_nilpotency(twisted: TwistedModule, b, weight) -> CheckReport:
    """Nilpotency certificate for a twisted zero mode, relative to a window.

    Applies the (0, 0) twisted mode of the current b repeatedly to every
    basis state of weight <= weight.  Three outcomes:

      pass            every orbit dies; the annihilation is exact for the
                      inspected states (no window caveat on those).
      uncertifiable   some orbit leaves the window still alive.  The
                      details certify what the window does show: no orbit
                      cycles inside it, so the report is a window-relative
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
            cur = op(cur)
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
                               LogSeries({(F(0), 0): w}), state=wlabel,
                               axiom="vacuum")
        for v, vlabel in states:
            moved = lm1(v)
            for w, wlabel in target_states:
                ser = twisted.vertex_series(v, w, ceiling)
                off = next((e for (e, _k) in ser.terms
                            if lattice_point(e, order) is None), None)
                yield False, None if off is None else {
                    "argument": vlabel,
                    "target": wlabel,
                    "axiom": "lattice",
                    "exponent": fmt_rational(F(off)),
                }
                yield _series_case(alg, twisted.vertex_series(moved, w, ceiling - 1),
                                   series_derivative(ser), argument=vlabel,
                                   target=wlabel, axiom="derivative")

    return _run_cases(name, cases(), "comparisons",
                      {"ceiling": ceiling, "branchOrder": order})


def check_equivariance(twisted: TwistedModule, target_states=None,
                       ceiling=1) -> CheckReport:
    """Moving one analytic branch matches acting by the automorphism.

    branch_shift(Y_new(v, x) w, one step) must equal Y_new(g v, x) w with
    g the attached automorphism; the comparison runs over cyclotomic
    coefficients, so root-of-unity and formal-log factors are both exact.
    Y_new is linear in its argument, so both sides are linear_series over
    Y_new(b, x) w for the monomials b of v and of g v, each computed once
    per target.
    """
    module = twisted.base
    alg = twisted.algebra
    order = twisted.branch_order()
    states = current_states(module)
    if target_states is None:
        target_states = basis_states(module, 2)
    # one memo per target, local to the check as the commutator operators are
    images = [lru_cache(maxsize=None)(lambda mono, w=w: twisted.vertex_series(
        PBWVector({mono: 1}), w, ceiling)) for w, _wlabel in target_states]

    def cases():
        for v, vlabel in states:
            gv = twisted.automorphism_apply(v)
            for (w, wlabel), image in zip(target_states, images):
                shifted = branch_shift(linear_series(v, image), 1, order)
                direct = linear_series(gv, image)
                yield _series_case(alg, shifted, direct, argument=vlabel, target=wlabel)

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
    for (label, _mp), key in zip(good, rejected):
        if key is not None:
            return CheckReport(name, "fail", witness={
                "map": label,
                "reason": f"rejected: map fails to intertwine at series key {key}",
            }, details={})
    if skew_rejected is None:
        return CheckReport(name, "fail", witness={
            "map": "weight-skewed",
            "reason": "a non-intertwining map was accepted",
        }, details={})
    round_trip = make_twisted(tw, F(-1) * u)
    states = current_states(module, conformal=True)
    targets = basis_states(module, probe_weight + 1)
    cases = (_series_case(alg, round_trip.vertex_series(v, w, ceiling),
                          module.vertex_series(v, w, ceiling),
                          argument=vlabel, target=wlabel, law="round-trip")
             for v, vlabel in states for w, wlabel in targets)
    return _run_cases(name, cases, "roundTripComparisons",
                      {"mapsTransported": len(good), "skewRejected": True})
