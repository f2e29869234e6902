"""Each vertex-operator read against its first form.

The untwisted reads, ``InducedModule.vertex_series`` and the mode reader
``vertex_operator_mode``, sum their memoized buckets in one dict per
exponent with int scales, the denominators of v and w cleared, and divide
once at the end.  The series expansion ``_vs_mono`` ends its iterate
recursion at one factor, whose coefficients it reads in closed form, and
the mode reader reads a one-factor monomial of v the same way.  The
twisted reads and the Sugawara L(n) hand out memoized images by
reference: ``TwistedModule.chain_transform`` of a basis monomial with
coefficient int 1, and the mode operator and L(n) on a basis target with
coefficient int 1.  The first forms below are the per-item sums these
replaced, and the recursion down to the vacuum.  Both must agree in keys
(in their order), values and value types (Cyc coordinates included), for
int, Fraction and Cyc coefficients, at an integral and a non-integral
level, on multi-monomial and zero vectors.  Checks
run twice on one TwistedModule must report the same, and leave the shared
images as they were.  The commutator check only counts a case whose
partner, the same identity negated, has passed; every case built afresh,
partners included, holds, and their number is the report's.

The shift operator's image is checked the same way: ``delta_apply``
divides each key of one integral stage output once (stage 3 sums every
term over the lcm of the stage denominators), and c D(b) is one scaled
copy of each term of D(b), against its first form, in which stage 3 and
c D(b) are per-item sums of divided terms and stages 1 and 2 go through
the LogSeries constructor.
"""

from fractions import Fraction as F
from functools import lru_cache
from math import floor
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from unittest import mock

from voatwist import cli, verify
from voatwist.delta import _exp_current_stage, _log_stage, delta_apply, make_delta
from voatwist.fock import InducedModule, _integer_exponent, build_module
from voatwist.lie import build_simple_lie
from voatwist.scalars import Cyc, binom, clear_denominators, int_if_integral
from voatwist.series import (LogSeries, PBWVector, accumulate, divided, factor,
                             factors, monomial, monomial_weight, series_sum)
from voatwist.twist import (apply_table_entry, make_twisted, mode_candidates,
                            mode_table_entry, untwisted_as_twisted)
from voatwist.verify import (
    basis_states,
    chain_log_bound,
    check_conformal_shift,
    check_equivariance,
    check_mode_tables,
    check_translation_bracket,
    check_twisted_axioms,
    check_twisted_commutators,
    check_weight_bracket,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
sl2 = build_simple_lie("A", 1)

# -- the first forms ---------------------------------------------------------


def first_vertex_series(mod, v, w, ceiling):
    ceiling = _integer_exponent(ceiling)
    items = []
    for mv, cv in v.c.items():
        for mw, cw in w.c.items():
            scale = cv * cw
            items.extend((e, 0, dict(vec), scale)
                         for e, vec in mod._vs_mono(mv, mw, ceiling).items()
                         if e <= ceiling)
    return series_sum(items)


def first_coefficient_at(mod, v, w, e):
    e = _integer_exponent(e)
    out = {}
    for mv, cv in v.c.items():
        for mw, cw in w.c.items():
            vec = mod._vs_mono(mv, mw, e).get(e)
            if vec is None:
                continue
            accumulate(out, vec, cv * cw)
    return PBWVector(out)


def first_chain_transform(tw, v):
    return series_sum((e, k, vec.c, c)
                      for mono, c in v.c.items()
                      for (e, k), vec in tw._chain_image(mono).terms.items())


def first_twisted_vertex_series(tw, v, w, ceiling):
    ceiling = F(ceiling)
    items = []
    for (e1, k1), vec1 in first_chain_transform(tw, v).terms.items():
        base_ser = first_vertex_series(tw.base, vec1, w, floor(ceiling - e1))
        items.extend((e1 + e2, k1, vec2.c) for (e2, _k2), vec2 in base_ser.terms.items())
    return series_sum(items)


def first_mode(tw, v, m, l):
    e = -F(m) - 1
    reads = [(vec1, e - e1)
             for (e1, k1), vec1 in first_chain_transform(tw, v).terms.items()
             if k1 == l and (e - e1).denominator == 1]
    images = {}

    def image(mono):
        w = PBWVector({mono: 1})
        out = {}
        for vec1, e2 in reads:
            accumulate(out, first_coefficient_at(tw.base, vec1, w, e2).c.items())
        return PBWVector(out)

    def op(w):
        out = {}
        for mono, cw in w.c.items():
            img = images.get(mono)
            if img is None:
                img = images[mono] = image(mono)
            accumulate(out, img.c.items(), cw)
        return PBWVector(out)

    return op


# -- equality in keys, values and types -----------------------------------------


def _typed(c):
    if isinstance(c, Cyc):
        return ("Cyc", c.order, {t: [(type(x), x) for x in vec]
                                 for t, vec in c.coeffs.items()})
    return type(c), c


def typed_vector(vec):
    return [(mono, _typed(c)) for mono, c in vec.c.items()]


def typed_series(ser):
    return [((type(e), e, k), typed_vector(vec)) for (e, k), vec in ser.terms.items()]


def assert_same_series(got, want):
    assert typed_series(got) == typed_series(want)


# -- inputs --------------------------------------------------------------------

CHAINS = {
    "h1=1/2": [{"h1": F(1, 2)}],
    "e1": [{"e1": F(1)}],
    "h1=1/3": [{"h1": F(1, 3)}],
}
LEVELS = {"level 2": F(2), "level 1/2": F(1, 2)}


@lru_cache(maxsize=None)
def twisted(level, chain):
    mod = build_module(sl2, LEVELS[level], 4)
    tw = mod
    for coords in CHAINS[chain]:
        tw = make_twisted(tw, mod.current(sl2.element(coords)))
    return tw


MONOS = [mono for w in range(3) for mono in build_module(sl2, 2, 2).basis(w)]
nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
scalars = st.one_of(
    nonzero,
    st.builds(F, nonzero, st.integers(2, 5)),
    st.builds(lambda k, c: Cyc.zeta(3, k) * c, st.integers(0, 2), nonzero),
)
vectors = st.one_of(
    # a basis monomial with coefficient 1, the shared-image case
    st.builds(lambda mono: PBWVector({mono: 1}), st.sampled_from(MONOS)),
    st.builds(PBWVector, st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4)),
)
cases = st.tuples(st.sampled_from(sorted(LEVELS)), st.sampled_from(sorted(CHAINS)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases, vectors, vectors, st.integers(-3, 2))
# at level 1/2, f(1) e(-1)|0> = |0>/2, so twice it sums Fraction buckets to
# an integral value with no denominator cleared
@example(("level 1/2", "e1"), PBWVector({monomial((1, -1)): 2}), PBWVector({monomial((0, -1)): 1}), -2)
def test_untwisted_reads_match_their_first_forms(case, v, w, e):
    mod = twisted(*case).base
    assert_same_series(mod.vertex_series(v, w, e), first_vertex_series(mod, v, w, e))
    assert typed_vector(mod.vertex_operator_mode(v, -e - 1)(w)) == \
        typed_vector(first_coefficient_at(mod, v, w, e))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases, vectors, vectors, st.integers(-3, 2))
def test_vertex_series_divides_its_integral_reader(case, v, w, e):
    # vertex_series is vertex_sums of the cleared coefficients, each sum
    # divided by the input scales dv * dw; the sums are ints at an integral
    # level with rational inputs, and none is empty
    level, _chain = case
    mod = twisted(*case).base
    (vc,), dv = clear_denominators((v.c,))
    (wc,), dw = clear_denominators((w.c,))
    sums = mod.vertex_sums(vc, wc, e)
    assert all(terms and exponent <= e for exponent, terms in sums.items())
    if level == "level 2" and all(type(c) in (int, F) for c in (*v.c.values(),
                                                                *w.c.values())):
        assert all(type(c) is int for terms in sums.values() for c in terms.values())
    want = LogSeries()
    for exponent, terms in sums.items():
        want.terms[exponent, 0] = PBWVector(divided(terms, dv * dw))
    assert_same_series(mod.vertex_series(v, w, e), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases, vectors, vectors, st.integers(-1, 2))
# a Cyc coefficient equal to 1 is not the int 1 of a basis monomial: the
# images it scales come back with Cyc values
@example(("level 2", "h1=1/2"), PBWVector({monomial((0, -1)): Cyc.of(1)}),
         PBWVector({monomial((1, -1)): 1}), 1)
def test_twisted_reads_match_their_first_forms(case, v, w, ceiling):
    tw = twisted(*case)
    assert_same_series(tw.chain_transform(v), first_chain_transform(tw, v))
    got = tw.vertex_series(v, w, ceiling)
    assert_same_series(got, first_twisted_vertex_series(tw, v, w, ceiling))
    # a read to the ceiling holds no term above it
    assert all(e <= ceiling for e, _k in got.terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases, st.sampled_from([PBWVector({monomial((0, -1)): 1}), PBWVector({monomial((2, -1)): 1}),
                               PBWVector({monomial((1, -2)): F(1, 2), monomial((0, -1), (1, -1)): 1})]),
       st.data(), st.lists(vectors, min_size=1, max_size=4))
def test_mode_operator_matches_its_first_form(case, v, data, targets):
    tw = twisted(*case)
    m = data.draw(st.sampled_from(mode_candidates(1, tw.branch_order())))
    l = data.draw(st.integers(0, chain_log_bound(tw) + 1))
    # one operator for every target, so later targets read the images
    # that earlier ones left; each target is read twice
    op, first = tw.mode(v, m, l), first_mode(tw, v, m, l)
    for w in targets + targets:
        assert typed_vector(op(w)) == typed_vector(first(w))


# -- the closed form at one factor and the one mode reader ---------------------


def first_vs_mono(mod, mv, mw, ceiling):
    """The iterate recursion down to Y(|0>, x) = id, unmemoized."""
    if not mv:
        return {0: {mw: 1}}
    (gi, m), rest = factor(mv[0]), mv[1:]
    acc = {}
    for e2, vec in first_vs_mono(mod, rest, mw, ceiling).items():
        for i in range(ceiling - e2 + 1):
            coeff = binom(m, i) if i % 2 == 0 else -binom(m, i)
            moved = mod.apply_mode_dict(gi, m - i, vec.items())
            if moved:
                accumulate(acc.setdefault(e2 + i, {}), moved.items(), coeff)
    for i in range(monomial_weight(mw) + 1):
        coeff = -binom(m, i) if (m - i) % 2 == 0 else binom(m, i)
        for mono2, c2 in dict(mod._act(gi, i, mw)).items():
            for e2, vec in first_vs_mono(mod, rest, mono2, ceiling - (m - i)).items():
                if e2 + m - i <= ceiling:
                    accumulate(acc.setdefault(e2 + m - i, {}), vec.items(), coeff * c2)
    return {e: bucket for e, bucket in acc.items() if bucket and e <= ceiling}


def typed_expansion(res, ceiling):
    return [((type(e), e), [(mono, _typed(c)) for mono, c in dict(bucket).items()])
            for e, bucket in res.items() if e <= ceiling]


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_series_expansion_matches_the_recursion_to_the_vacuum(level):
    # every a(m)|0>, m in -1..-3, and the two-factor states of weight 2,
    # against targets up to weight 3 at ceilings -4..4, each expanded on a
    # fresh module, so that the entry compared is the one built at that
    # ceiling; fresh entries hold no exponent above their ceiling
    shape = build_module(sl2, 2, 5)
    states = [monomial((gi, m)) for m in (-1, -2, -3) for gi in range(sl2.dim)]
    states += [mono for mono in shape.basis(2) if len(mono) == 2]
    targets = [mono for w in range(4) for mono in shape.basis(w)]
    for ceiling in range(-4, 5):
        mod = build_module(sl2, LEVELS[level], 5)
        for mv in states:
            for mw in targets:
                got = mod._vs_mono(mv, mw, ceiling)
                assert all(e <= ceiling for e in got)
                assert typed_expansion(got, ceiling) == \
                    typed_expansion(first_vs_mono(mod, mv, mw, ceiling), ceiling)


CUTOFF = 4
READ_STATES = [
    PBWVector({monomial((0, -1)): 1}),
    PBWVector({monomial((2, -2)): F(1, 2)}),
    PBWVector({monomial((1, -3)): 2, monomial((0, -1), (1, -1)): F(-1, 3), "": 5}),
    PBWVector({monomial((2, -1)): Cyc.zeta(3, 1), monomial((1, -1)): 3}),
    PBWVector({"": 1}),
]


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_mode_reader_matches_coefficient_first_form_around_the_cutoff(level):
    # every e with depth(v) + depth(w) + e one below, at or one above the
    # cutoff for some target; one reader serves every target, twice, so its
    # plan is built once and reused.  Past the cutoff the reads equal those
    # of a module declared with a cutoff above every weight reached
    mod = build_module(sl2, LEVELS[level], CUTOFF)
    high = build_module(sl2, LEVELS[level], CUTOFF + 4)
    targets = [PBWVector({mono: 1}) for w in range(3) for mono in mod.basis(w)]
    targets += [PBWVector({monomial((0, -1)): F(2, 3), monomial((1, -2)): 1}),
                PBWVector({monomial((2, -1), (2, -1)): Cyc.zeta(3, 2)})]
    seen = set()
    for v in READ_STATES:
        for e in range(CUTOFF - v.depth() - 3, CUTOFF - v.depth() + 2):
            read = mod.vertex_operator_mode(v, -e - 1)
            for w in targets + targets:
                seen.add(v.depth() + w.depth() + e - CUTOFF)
                want = first_coefficient_at(mod, v, w, e)
                assert typed_vector(read(w)) == typed_vector(want)
                assert typed_vector(mod.vertex_operator_mode(v, -e - 1)(w)) == typed_vector(want)
                assert typed_vector(want) == \
                    typed_vector(high.vertex_operator_mode(v, -e - 1)(w))
    assert {-1, 0, 1} <= seen


def test_vacuum_reads_are_exact_past_the_cutoff():
    # Y(|0>, x) w = w: the vacuum's modes read w at x^0 and zero elsewhere,
    # however far depth(w) + e lies past the cutoff; a non-vacuum monomial
    # beside the vacuum reads what a module with a higher cutoff reads
    mod = build_module(sl2, 2, CUTOFF)
    vacuum = mod.vacuum()
    for weight in range(CUTOFF + 1):
        for mono in mod.basis(weight):
            w = PBWVector({mono: 1})
            assert typed_vector(mod.vertex_operator_mode(vacuum, -1)(w)) == \
                typed_vector(w)
            for e in range(1, CUTOFF + 2):
                read = mod.vertex_operator_mode(PBWVector({"": 3}), -e - 1)(w)
                assert typed_vector(read) == typed_vector(PBWVector())
    w = PBWVector({mod.basis(2)[0]: 1})
    assert mod.vertex_operator_mode(vacuum, -4)(w).is_zero()
    high = build_module(sl2, 2, CUTOFF + 4)
    mixed = PBWVector({"": 1, monomial((0, -1)): 1})
    for n in (-2, -3):
        got = mod.vertex_operator_mode(mixed, n)(w)
        assert typed_vector(got) == typed_vector(high.vertex_operator_mode(mixed, n)(w))
        assert not got.is_zero()


sl3 = build_simple_lie("A", 2)
# (algebra, level, cutoff, currents of the chain, log power, mode span):
# the README's semisimple chain, the nilpotent chain at its log power 1,
# the order-3 chain of perfbench's sl2_branch3 config (Cyc targets), and
# the two-step chain of tests/configs/a2_two_inner_steps.json
MODE_CHAINS = {
    "sl2 h1=1/2": (sl2, 2, 4, [{"h1": F(1, 2)}], 0, 2),
    "sl2 e1, log 1": (sl2, 2, 4, [{"e1": 1}], 1, 2),
    "sl2_branch3": (sl2, 2, 4, [{"h1": F(1, 3)}], 0, 1),
    "A2 two steps": (sl3, 2, 3, [{"h1": F(1, 3), "h2": F(2, 3)}, {"e2": 1}], 0, 1),
}


@pytest.mark.parametrize("chain", sorted(MODE_CHAINS))
def test_twisted_mode_operators_match_their_first_form(chain):
    alg, level, cutoff, currents, l, span = MODE_CHAINS[chain]
    mod = build_module(alg, level, cutoff)
    tw = mod
    for coords in currents:
        tw = make_twisted(tw, mod.current(alg.element(coords)))
    targets = [PBWVector({mono: 1}) for w in range(2) for mono in mod.basis(w)]
    targets += [PBWVector({mono: 1}) for mono in mod.basis(2)[:6]]
    targets += [PBWVector({monomial((0, -1)): Cyc.zeta(3, 1), monomial((1, -1), (0, -1)): F(1, 2)})]
    states = [mod.current(alg._basis_elt(gi)) for gi in range(alg.dim)]
    if alg is sl2:
        states.append(mod.conformal_vector())
    for v in states:
        for m in mode_candidates(span, tw.branch_order()):
            op, first = tw.mode(v, m, l), first_mode(tw, v, m, l)
            for w in targets + targets:
                assert typed_vector(op(w)) == typed_vector(first(w))


@pytest.mark.parametrize("chain", ["sl2 h1=1/2", "sl2 e1, log 1"])
def test_current_modes_read_a_vacuum_chain_term_only_at_base_mode_minus_one(
        monkeypatch, chain):
    # Y(|0>, x) = id, so a chain term c|0> has a coefficient only at base
    # mode -1: no reader is built for it at any other mode, and the outputs
    # still match the first form, which reads every chain term
    alg, level, cutoff, currents, l_max, span = MODE_CHAINS[chain]
    mod = build_module(alg, level, cutoff)
    tw = mod
    for coords in currents:
        tw = make_twisted(tw, mod.current(alg.element(coords)))
    built = []
    real = InducedModule.vertex_operator_mode

    def watched(self, v, n):
        built.append((v, n))
        return real(self, v, n)

    monkeypatch.setattr(InducedModule, "vertex_operator_mode", watched)
    targets = [PBWVector({mono: 1}) for w in range(3) for mono in mod.basis(w)]
    for v in (mod.current(alg._basis_elt(gi)) for gi in range(alg.dim)):
        for m in mode_candidates(span, tw.branch_order()):
            for l in range(l_max + 1):
                op, first = tw.mode(v, m, l), first_mode(tw, v, m, l)
                for w in targets:
                    assert typed_vector(op(w)) == typed_vector(first(w))
    vacuum_modes = {n for v, n in built if v.c.keys() == {""}}
    assert vacuum_modes == {-1}


# -- checks run twice on one module ------------------------------------------


def _snapshot(tw):
    """Deep copies of the images the reads share: the chain images, each
    step's D(b) and the module's series buckets."""
    chain = {mono: typed_series(ser) for mono, ser in tw._chain_image_cache.items()}
    shifts = [{mono: typed_series(ser) for mono, ser in step.images.items()}
              for step in tw.steps]
    buckets = {key: (ceiling, {e: list(dict(b).items()) for e, b in res.items()})
               for key, (ceiling, res) in tw.base._vs_cache.items()}
    return chain, shifts, buckets


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_checks_repeat_and_leave_shared_images(level):
    tw = twisted(level, "h1=1/2")
    states = basis_states(tw.base, 1)

    def run():
        return [report.to_dict() for report in (
            check_twisted_commutators(tw, mode_span=1, weight=2),
            check_mode_tables(tw, mode_span=1, weight=2),
            check_equivariance(tw, basis_states(tw.base, 1), ceiling=1),
            check_twisted_axioms(tw, states, states, ceiling=1),
        )]

    first = run()
    before = _snapshot(tw)
    assert before[0] and before[1][0] and before[2]
    assert run() == first
    assert _snapshot(tw) == before
    assert [report["status"] for report in first] == ["pass"] * 4


def _window_modes(tw, b, span):
    """b's modes in the commutator window: on its class, within span of
    both 0 and its class offset (read in the steps' frame)."""
    [(gi, _c)] = tw.to_step_frame(tw.algebra.generator(b)).terms()
    lam = tw.grading()[0][gi]
    return [m for m in mode_candidates(span, tw.branch_order())
            if (m - lam).denominator == 1 and abs(m - lam) <= span]


def commutator_oracle(tw, mode_span, weight):
    """Every case of the commutator window built afresh, each pair's partner
    cases included: [b_(m), c_(n)] w against the bracket's table at m + n
    plus the pairing scalar summed over the two tables.  Returns the number
    of identities that hold and the number of cases."""
    alg, module = tw.algebra, tw.base
    states = basis_states(module, weight)
    modes = {b: _window_modes(tw, b, mode_span) for b in alg.names}
    tables = {(b, m): mode_table_entry(tw, b, m)[0] for b in alg.names for m in modes[b]}
    ops = {key: tw.gen_mode(*key) for key in tables}
    held = cases = 0
    for b in alg.names:
        for c in alg.names:
            bracket = alg.bracket(alg.generator(b), alg.generator(c))
            for m in modes[b]:
                for n in modes[c]:
                    central = sum(bco * cco * p * alg.form(alg._basis_elt(gi),
                                                           alg._basis_elt(gj))
                                  for (gi, p), bco in tables[b, m].items()
                                  for (gj, q), cco in tables[c, n].items()
                                  if p + q == 0) * tw.level
                    entry = (mode_table_entry(tw, bracket, m + n)[0], central)
                    bop, cop = ops[b, m], ops[c, n]
                    for w, _label in states:
                        lhs = bop(cop(w)) - cop(bop(w))
                        held += lhs.c == apply_table_entry(module, entry, w).c
                        cases += 1
    return held, cases


@pytest.mark.parametrize("chain, mode_span, weight, cases", [
    ("h1=1/2", 1, 2, 637),
    ("e1", 1, 2, 1053),
    ("a2_transport_tables", 1, 1, 5184),
])
def test_commutator_cases_hold_built_afresh(chain, mode_span, weight, cases):
    # the check builds nothing for a partner case; building every case
    # afresh, each identity holds and the count is the report's
    if chain == "a2_transport_tables":
        path = ROOT / "tests" / "configs" / "a2_transport_tables.json"
        tw = cli.build_chain(cli.load_config(str(path))).twisted
    else:
        tw = twisted("level 2", chain)
    report = check_twisted_commutators(tw, mode_span=mode_span, weight=weight)
    assert report.status == "pass"
    assert commutator_oracle(tw, mode_span, weight) == (cases, cases)
    assert report.details["comparisons"] == cases


@pytest.mark.parametrize("pairs", [[("e1", "f1"), ("h1", "e1")], [("h1", "h1")],
                                   [("e1", "f1"), ("f1", "e1"), ("e1", "f1")]])
def test_commutators_pass_with_and_without_partners(pairs):
    # no partner, a pair that is its own partner, and a pair that comes
    # back after its partner: every case is counted as before
    tw = twisted("level 1/2", "h1=1/2")
    report = check_twisted_commutators(tw, pairs=pairs, mode_span=1, weight=1)
    offsets = tw.grading()[0]

    def modes(name):
        lam = offsets[sl2.index[name]]
        return sum(abs(mi + lam) <= 1 for mi in range(-1, 2))

    cases = sum(modes(b) * modes(c) for b, c in pairs) * len(basis_states(tw.base, 1))
    assert report.status == "pass"
    assert report.details == {"comparisons": cases, "modeSpan": 1, "pairs": len(pairs)}


def test_a_pair_after_its_partner_builds_no_right_side():
    # a pair whose reverse ran earlier is only counted, so the whole square
    # of pairs calls the tables as often as the pairs whose reverse does
    # not come earlier
    tw = twisted("level 2", "h1=1/2")
    real = verify.apply_table_entry
    calls = []

    def counted(module, entry, vec):
        calls.append(None)
        return real(module, entry, vec)

    every = [(b, c) for b in sl2.names for c in sl2.names]
    first = [(b, c) for at, (b, c) in enumerate(every) if (c, b) not in every[:at]]
    counts = []
    for pairs in (every, first):
        calls.clear()
        with mock.patch.object(verify, "apply_table_entry", counted):
            report = check_twisted_commutators(tw, pairs=pairs, mode_span=1, weight=2)
        assert report.status == "pass"
        counts.append(len(calls))
    assert len(first) == 6 and counts[0] == counts[1] > 0


# -- the Sugawara L(n) -----------------------------------------------------------


def first_sugawara_mode(mod, n):
    """L(n) as first written: a fresh per-monomial sum of the images."""
    def act(vec):
        out = {}
        for mono, coeff in vec.c.items():
            accumulate(out, mod._sugawara_image(n, mono).c.items(), coeff)
        return PBWVector.adopt(out)

    return act


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LEVELS)), st.integers(-2, 2),
       st.lists(vectors, min_size=1, max_size=4))
def test_sugawara_mode_matches_its_first_form(level, n, targets):
    # at cutoff 3, L(-2) of the weight-2 targets reaches weight 4, past the
    # cutoff; each target is read twice
    mod = build_module(sl2, LEVELS[level], 3)
    ln, first = mod.sugawara_mode(n), first_sugawara_mode(mod, n)
    for w in targets + targets:
        got = ln(w)
        assert typed_vector(got) == typed_vector(first(w))
        if len(w.c) == 1:
            [(mono, c)] = w.c.items()
            if type(c) is int and c == 1:
                assert got is mod._sugawara_image(n, mono)


def _sugawara_images(mod):
    return {key: typed_vector(image) for key, image in mod._sugawara_image_cache.items()}


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_sugawara_checks_leave_the_shared_images(level):
    """L(n) of a basis monomial is its memoized image itself, so the
    checks that read L(n) must leave every image as a fresh module builds
    it, and report the same when run again."""
    mod = build_module(sl2, LEVELS[level], 4)
    u = mod.current(sl2.element({"h1": F(1, 2)}))
    tw = make_twisted(mod, u)
    states = basis_states(mod, 2)

    def run():
        return [report.to_dict() for report in (
            check_twisted_axioms(tw, states, states, ceiling=1),
            check_weight_bracket(mod, u, states),
            check_translation_bracket(mod, u, states),
            check_conformal_shift(untwisted_as_twisted(mod), tw, weight=3),
        )]

    first = run()
    before = _sugawara_images(mod)
    assert before
    assert run() == first
    assert _sugawara_images(mod) == before
    fresh = build_module(sl2, LEVELS[level], 4)
    assert {key: typed_vector(fresh._sugawara_image(*key)) for key in before} == before
    assert [report["status"] for report in first] == ["pass"] * 4


# -- the shift operator ----------------------------------------------------------


def first_series_sum(items):
    out = LogSeries()
    for item in items:
        out.add_term(*item)
    for vec in out.terms.values():
        vec.c = {mono: int_if_integral(c) for mono, c in vec.c.items()}
    return out


def first_shift(delta, v):
    staged = _log_stage(delta, _exp_current_stage(delta, v))
    if delta.s.is_zero():
        return LogSeries({(e, k): PBWVector(divided(terms, den))
                          for e, k, terms, den in staged})
    module = delta.module

    def split(gi):
        return [(lam, None, comp) for lam, comp in
                delta.eig.decompose(module.algebra._basis_elt(gi)).items()]

    sign = 1 if delta.legacy else -1
    eigvals = delta.eig.generator_eigenvalues()
    items = []
    for e, k, terms, den in staged:
        for mono, coeff in divided(terms, den).items():
            lams = [eigvals[gi] for gi, _m in reversed(factors(mono))]
            if None not in lams:
                items.append((e + sign * sum(lams), k, {mono: coeff}))
                continue
            for lamsum, expanded in module.expand_monomial(mono, split).items():
                items.append((e + sign * lamsum, k, expanded.c, coeff))
    return first_series_sum(items)


def first_delta_apply(delta, v):
    if delta.is_identity:
        return LogSeries({(0, 0): v})
    if len(v.c) == 1:
        [(mono, c)] = v.c.items()
        if type(c) in (int, F):
            hit = first_shift(delta, PBWVector({mono: 1}))
            if type(c) is int and c == 1:
                return hit
            return first_series_sum(((e, k, w.c)
                                     for (e, k), w in ((key, c * vec) for key, vec
                                                       in hit.terms.items())))
    return first_shift(delta, v)


sl3 = build_simple_lie("A", 2)
# (algebra, level, cutoff, current): semisimple, nilpotent and mixed, with
# h1=1/2+e1 relabeling its e1 monomials and expanding the others onto the
# same keys, and an A2 current whose s and n are both nonzero
SHIFT_CURRENTS = {
    "sl2 h1=1/2": (sl2, 2, 3, {"h1": F(1, 2)}),
    "sl2 e1": (sl2, 2, 3, {"e1": 1}),
    "sl2 h1=1/3": (sl2, F(1, 2), 3, {"h1": F(1, 3)}),
    "sl2 h1=1/2+e1": (sl2, 2, 3, {"h1": F(1, 2), "e1": 1}),
    "A2 (1/3,2/3)": (sl3, 1, 2, {"h1": F(1, 3), "h2": F(2, 3)}),
    "A2 (h1-h2)/6+e12": (sl3, 1, 2, {"h1": F(1, 6), "h2": F(-1, 6), "e12": 1}),
}


@lru_cache(maxsize=None)
def shift_operator(current, legacy):
    alg, level, cutoff, coords = SHIFT_CURRENTS[current]
    mod = build_module(alg, level, cutoff)
    return make_delta(mod, mod.current(alg.element(coords)), legacy)


@lru_cache(maxsize=None)
def shift_monomials(alg):
    # up to one past the cutoff, where a monomial is relabeled all the same
    mod = build_module(alg, 2, 3)
    top = 4 if alg is sl2 else 3
    return [mono for w in range(top) for mono in mod.basis(w)] + mod.basis(top)[:6]


@st.composite
def shift_cases(draw):
    current = draw(st.sampled_from(sorted(SHIFT_CURRENTS)))
    alg = SHIFT_CURRENTS[current][0]
    monos = st.sampled_from(shift_monomials(alg))
    v = draw(st.one_of(
        # a basis monomial, and an int or Fraction multiple: served from D(b)
        st.builds(lambda mono: PBWVector({mono: 1}), monos),
        st.builds(lambda mono, c: PBWVector({mono: c}), monos, scalars),
        st.builds(PBWVector, st.dictionaries(monos, scalars, max_size=4)),
    ))
    return current, draw(st.booleans()), v


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shift_cases())
@example(("sl2 h1=1/2+e1", False,
          PBWVector({monomial((0, -1), (1, -1)): 1, monomial((2, -1)): F(1, 2), monomial((0, -2)): 3})))
@example(("sl2 h1=1/2", False, PBWVector({})))
@example(("sl2 e1", True, PBWVector({})))
@example(("A2 (h1-h2)/6+e12", False, PBWVector({monomial((2, -1), (3, -1)): F(-2, 3)})))
def test_shift_image_matches_its_first_form(case):
    current, legacy, v = case
    delta = shift_operator(current, legacy)
    assert_same_series(delta_apply(delta, v), first_delta_apply(delta, v))
