"""Each vertex-operator read against its first form.

The untwisted reads, ``InducedModule.vertex_series`` and
``coefficient_at``, sum their memoized buckets in one dict per exponent
with int scales, the denominators of v and w cleared, and divide once at
the end.  The twisted reads hand out memoized images by reference:
``TwistedModule.chain_transform`` of a basis monomial with coefficient int
1, and the mode operator on a basis target with coefficient int 1.  The
first forms below are the per-item sums these replaced.  Both must agree in
keys (in their order), values, value types (Cyc coordinates included) and
flags, for int, Fraction and Cyc coefficients, at an integral and a
non-integral level, on multi-monomial, flagged and zero vectors.  Checks
run twice on one TwistedModule must report the same, and leave the shared
images as they were.

The shift operator's image is checked the same way: ``delta_apply``
builds each term once (stage 3 sums a relabeled monomial straight into its
output vector, stages 1 and 2 keep each divided dict, and c D(b) is one
scaled copy of each term of D(b)), against its first form, in which stage
3 and c D(b) are per-item sums and stages 1 and 2 go through the LogSeries
constructor.
"""

from fractions import Fraction as F
from functools import lru_cache
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from voatwist.delta import _exp_current_stage, _log_stage, delta_apply, make_delta
from voatwist.fock import _integer_exponent, build_module
from voatwist.lie import build_simple_lie
from voatwist.scalars import Cyc, int_if_integral
from voatwist.series import (LogSeries, PBWVector, accumulate, divided, monomial_weight,
                             series_sum)
from voatwist.twist import make_twisted, mode_candidates
from voatwist.verify import (
    basis_states,
    chain_log_bound,
    check_equivariance,
    check_mode_tables,
    check_twisted_axioms,
    check_twisted_commutators,
)

sl2 = build_simple_lie("A", 1)

# -- the first forms ---------------------------------------------------------


def first_vertex_series(mod, v, w, ceiling):
    ceiling = _integer_exponent(ceiling)
    items = []
    for mv, cv in v.c.items():
        for mw, cw in w.c.items():
            scale = cv * cw
            items.extend((e, 0, vec, scale, False)
                         for e, vec in mod._vs_mono(mv, mw, ceiling).items()
                         if e <= ceiling)
    return series_sum(items, ceiling)


def first_coefficient_at(mod, v, w, e):
    e = _integer_exponent(e)
    out = {}
    for mv, cv in v.c.items():
        for mw, cw in w.c.items():
            vec = mod._vs_mono(mv, mw, e).get(e)
            if vec is None:
                continue
            accumulate(out, vec, cv * cw)
    deep = bool(v.c and w.c) and v.depth() + w.depth() + e > mod.cutoff
    return PBWVector(out, deep or v.truncated or w.truncated)


def first_chain_transform(tw, v):
    if v.truncated or not v.c:
        return tw._transform_whole(v)
    return series_sum((e, k, vec.c, c, vec.truncated)
                      for mono, c in v.c.items()
                      for (e, k), vec in tw._chain_image(mono).terms.items())


def first_twisted_vertex_series(tw, v, w, ceiling):
    ceiling = F(ceiling)
    items = []
    for (e1, k1), vec1 in first_chain_transform(tw, v).terms.items():
        base_ser = first_vertex_series(tw.base, vec1, w, floor(ceiling - e1))
        items.extend((e1 + e2, k1, vec2.c, None, vec2.truncated)
                     for (e2, _k2), vec2 in base_ser.terms.items())
    return series_sum(items, ceiling)


def first_mode(tw, v, m, l):
    e = -F(m) - 1
    reads = [(vec1, e - e1)
             for (e1, k1), vec1 in first_chain_transform(tw, v).terms.items()
             if k1 == l and (e - e1).denominator == 1]
    images = {}

    def image(mono):
        w = PBWVector({mono: 1})
        out, trunc = {}, False
        for vec1, e2 in reads:
            coeff = first_coefficient_at(tw.base, vec1, w, e2)
            accumulate(out, coeff.c)
            trunc = trunc or coeff.truncated
        return PBWVector(out, trunc)

    def op(w):
        if not reads:
            return PBWVector(None, w.truncated)
        out = {}
        trunc = w.truncated
        for mono, cw in w.c.items():
            img = images.get(mono)
            if img is None:
                img = images[mono] = image(mono)
            accumulate(out, img.c, cw)
            trunc = trunc or img.truncated
        return PBWVector(out, trunc)

    return op


# -- equality in keys, values, types and flags --------------------------------


def _typed(c):
    if isinstance(c, Cyc):
        return ("Cyc", c.order, {t: [(type(x), x) for x in vec]
                                 for t, vec in c.coeffs.items()})
    return type(c), c


def typed_vector(vec):
    return [(mono, _typed(c)) for mono, c in vec.c.items()], vec.truncated


def typed_series(ser):
    return [((type(e), e, k), typed_vector(vec)) for (e, k), vec in ser.terms.items()]


def assert_same_series(got, want):
    assert typed_series(got) == typed_series(want)
    assert got.ceiling == want.ceiling


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
    st.builds(PBWVector, st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4),
              st.booleans()),
)
cases = st.tuples(st.sampled_from(sorted(LEVELS)), st.sampled_from(sorted(CHAINS)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases, vectors, vectors, st.integers(-3, 2))
# at level 1/2, f(1) e(-1)|0> = |0>/2, so twice it sums Fraction buckets to
# an integral value with no denominator cleared
@example(("level 1/2", "e1"), PBWVector({((1, -1),): 2}), PBWVector({((0, -1),): 1}), -2)
def test_untwisted_reads_match_their_first_forms(case, v, w, e):
    mod = twisted(*case).base
    assert_same_series(mod.vertex_series(v, w, e), first_vertex_series(mod, v, w, e))
    assert typed_vector(mod.coefficient_at(v, w, e)) == \
        typed_vector(first_coefficient_at(mod, v, w, e))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases, vectors, vectors, st.integers(-1, 2))
# a Cyc coefficient equal to 1 is not the int 1 of a basis monomial: the
# images it scales come back with Cyc values
@example(("level 2", "h1=1/2"), PBWVector({((0, -1),): Cyc.of(1)}),
         PBWVector({((1, -1),): 1}), 1)
def test_twisted_reads_match_their_first_forms(case, v, w, ceiling):
    tw = twisted(*case)
    assert_same_series(tw.chain_transform(v), first_chain_transform(tw, v))
    got = tw.vertex_series(v, w, ceiling)
    assert_same_series(got, first_twisted_vertex_series(tw, v, w, ceiling))
    # the ceiling follows the scalar rule
    assert type(got.ceiling) is int


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases, st.sampled_from([PBWVector({((0, -1),): 1}), PBWVector({((2, -1),): 1}),
                               PBWVector({((1, -2),): F(1, 2), ((0, -1), (1, -1)): 1})]),
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


# -- checks run twice on one module ------------------------------------------


def _snapshot(tw):
    """Deep copies of the images the reads share: the chain images, each
    step's D(b) and the module's series buckets."""
    chain = {mono: typed_series(ser) for mono, ser in tw._chain_image_cache.items()}
    shifts = [{mono: typed_series(ser) for mono, ser in step.images.items()}
              for step in tw.steps]
    buckets = {key: (ceiling, {e: list(b.items()) for e, b in res.items()})
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


# -- the shift operator ----------------------------------------------------------


def first_series_sum(items, ceiling=None):
    out = LogSeries(ceiling=ceiling)
    for item in items:
        out.add_term(*item)
    for vec in out.terms.values():
        vec.c = {mono: int_if_integral(c) for mono, c in vec.c.items()}
    return out


def first_shift(delta, v):
    staged = _log_stage(delta, _exp_current_stage(delta, v))
    if delta.s.is_zero():
        return LogSeries({(e, k): PBWVector(divided(vec.c, den), vec.truncated)
                          for e, k, vec, den in staged})
    module = delta.module

    def split(gi):
        return [(lam, None, comp) for lam, comp in
                delta.eig.decompose(module.algebra._basis_elt(gi)).items()]

    sign = 1 if delta.legacy else -1
    eigvals = delta.eig.generator_eigenvalues()
    items = []
    for e, k, vec, den in staged:
        if not vec.c:
            items.append((e, k, {}, None, vec.truncated))
        for mono, coeff in divided(vec.c, den).items():
            lams = [eigvals[gi] for gi, _m in reversed(mono)]
            if None not in lams and monomial_weight(mono) <= module.cutoff:
                items.append((e + sign * sum(lams), k, {mono: coeff}, None,
                              vec.truncated))
                continue
            for lamsum, expanded in module.expand_monomial(mono, split).items():
                items.append((e + sign * lamsum, k, expanded.c, coeff,
                              expanded.truncated or vec.truncated))
    return first_series_sum(items)


def first_delta_apply(delta, v):
    if delta.is_identity:
        return LogSeries({(0, 0): v})
    if len(v.c) == 1 and not v.truncated:
        [(mono, c)] = v.c.items()
        if type(c) in (int, F):
            hit = first_shift(delta, PBWVector({mono: 1}))
            if type(c) is int and c == 1:
                return hit
            return first_series_sum(((e, k, w.c, None, w.truncated)
                                     for (e, k), w in ((key, c * vec) for key, vec
                                                       in hit.terms.items())),
                                    hit.ceiling)
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
    # up to one past the cutoff, where a relabeled monomial is expanded instead
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
        st.builds(PBWVector, st.dictionaries(monos, scalars, max_size=4), st.booleans()),
    ))
    return current, draw(st.booleans()), v


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shift_cases())
@example(("sl2 h1=1/2+e1", False,
          PBWVector({((0, -1), (1, -1)): 1, ((2, -1),): F(1, 2), ((0, -2),): 3})))
@example(("sl2 h1=1/2", False, PBWVector({}, True)))
@example(("sl2 e1", True, PBWVector({})))
@example(("A2 (h1-h2)/6+e12", False, PBWVector({((2, -1), (3, -1)): F(-2, 3)})))
def test_shift_image_matches_its_first_form(case):
    current, legacy, v = case
    delta = shift_operator(current, legacy)
    assert_same_series(delta_apply(delta, v), first_delta_apply(delta, v))
