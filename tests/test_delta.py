import contextlib
import gc
import io
import pathlib
import weakref
from fractions import Fraction as F

import pytest

from voatwist import cli, delta
from voatwist.delta import delta_apply, delta_apply_series, make_delta
from voatwist.errors import DomainError, NeedsFieldExtension
from voatwist.fock import PBWVector, build_module
from voatwist.lie import build_simple_lie
from voatwist.scalars import Cyc
from voatwist.series import LogSeries, divided, factors, monomial, series_eq
from voatwist.verify import basis_states, check_shift_conjugation

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=8)

U_S = MOD.current(sl2.element({"h1": F(1, 2)}))
U_N = MOD.current("e1")
DS = make_delta(MOD, U_S)
DN = make_delta(MOD, U_N)


def mono(*letters):
    name_to_idx = {n: i for i, n in enumerate(sl2.names)}
    return monomial(*[(name_to_idx[n], m) for n, m in letters])


def vec(*pairs):
    from voatwist.fock import PBWVector

    return PBWVector({m: F(c) for m, c in pairs})


def expect(d, state, terms):
    got = delta_apply(d, state)
    want = LogSeries({(F(e), k): v for (e, k), v in terms.items()})
    assert series_eq(got, want) is None, (got, want)


def test_self_pairing_scalars():
    assert DS.kappa == 1
    assert DN.kappa == 0


# The literal expansions below were worked out by hand from the three
# stage actions (grading twist, nilpotent rotation, positive-mode
# exponential) before the operator code existed, and are kept frozen.

def test_semisimple_shift_of_raising_current():
    expect(DS, MOD.current("e1"), {(-1, 0): vec((mono(("e1", -1)), 1))})


def test_semisimple_shift_of_lowering_current():
    expect(DS, MOD.current("f1"), {(1, 0): vec((mono(("f1", -1)), 1))})


def test_semisimple_shift_of_cartan_current():
    expect(
        DS,
        MOD.current("h1"),
        {(0, 0): vec((mono(("h1", -1)), 1)), (-1, 0): vec(("", -2))},
    )


def test_semisimple_shift_of_depth_two_current():
    state = MOD.apply_mode("f1", -2, MOD.vacuum())
    expect(
        DS,
        state,
        {(1, 0): vec((mono(("f1", -2)), 1)), (0, 0): vec((mono(("f1", -1)), 1))},
    )


def test_semisimple_shift_of_quadratic_state():
    state = MOD.apply_mode("e1", -1, MOD.current("f1"))
    expect(
        DS,
        state,
        {
            (0, 0): vec((mono(("e1", -1), ("f1", -1)), 1)),
            (-1, 0): vec((mono(("h1", -1)), -1)),
            (-2, 0): vec(("", 2)),
        },
    )


def test_semisimple_shift_of_conformal_vector():
    expect(
        DS,
        MOD.conformal_vector(),
        {
            (0, 0): MOD.conformal_vector(),
            (-1, 0): vec((mono(("h1", -1)), F(-1, 2))),
            (-2, 0): vec(("", F(1, 2))),
        },
    )


def test_nilpotent_shift_of_lowering_current():
    expect(
        DN,
        MOD.current("f1"),
        {
            (0, 0): vec((mono(("f1", -1)), 1)),
            (0, 1): vec((mono(("h1", -1)), -1)),
            (0, 2): vec((mono(("e1", -1)), -1)),
            (-1, 0): vec(("", -2)),
        },
    )


def test_nilpotent_shift_fixes_raising_current():
    expect(DN, MOD.current("e1"), {(0, 0): vec((mono(("e1", -1)), 1))})


def test_zero_current_gives_identity():
    ident = make_delta(MOD, 0 * MOD.vacuum())
    assert ident.is_identity
    state = MOD.apply_mode("h1", -2, MOD.current("e1"))
    got = delta_apply(ident, state)
    assert series_eq(got, LogSeries({(F(0), 0): state})) is None


def test_legacy_sign_flips_grading_direction():
    legacy = make_delta(MOD, U_S, legacy_sign_convention=True)
    got = delta_apply(legacy, MOD.current("e1"))
    want = LogSeries({(F(1), 0): MOD.current("e1")})
    assert series_eq(got, want) is None


def test_series_application_composes():
    state = MOD.current("f1")
    once = delta_apply(DS, state)
    twice = delta_apply_series(DS, once)
    # two half-h shifts equal one full-h shift
    full = make_delta(MOD, MOD.current(sl2.element({"h1": F(1)})))
    assert series_eq(twice, delta_apply(full, state)) is None


def test_rejects_non_current_input():
    with pytest.raises(DomainError):
        make_delta(MOD, MOD.apply_mode("e1", -2, MOD.vacuum()))
    with pytest.raises(DomainError):
        make_delta(MOD, MOD.conformal_vector())


def test_rejects_irrational_split():
    with pytest.raises(NeedsFieldExtension):
        make_delta(MOD, MOD.current("e1") - MOD.current("f1"))


def test_weights_are_respected():
    # the shift of a weight-w state stays at weight <= w in each term
    state = MOD.apply_mode("e1", -1, MOD.current("f1"))
    for (_e, _k), term in delta_apply(DS, state).terms.items():
        assert term.depth() <= 2


@pytest.mark.parametrize("d", [DS, DN], ids=["semisimple", "nilpotent"])
def test_truncated_input_keeps_its_flag(d):
    # no value depends on the declared cutoff: on a module declared with
    # cutoff 0 every shift equals the one at cutoff 8, term by term
    tiny = build_module(sl2, F(2), cutoff=0)
    d0 = make_delta(tiny, tiny.current(d.a))
    quadratic = MOD.apply_mode("e1", -1, MOD.current("f1"))
    for state in (MOD.current("f1"), MOD.current("h1"), quadratic):
        exact = delta_apply(d, state)
        got = delta_apply(d0, PBWVector(state.c))
        assert set(exact.terms) == set(got.terms)
        for key, term in got.terms.items():
            assert (term - exact.terms[key]).is_zero()


def test_truncated_zero_input_keeps_its_flag():
    # the zero vector shifts to the empty series, whatever the cutoff
    small = build_module(sl2, F(2), cutoff=3)
    d = make_delta(small, small.current(sl2.element({"h1": F(1, 2)})))
    assert not delta_apply(d, PBWVector()).terms


@pytest.mark.parametrize("rank, coeffs", [
    (1, {"h1": F(1, 2)}),
    (1, {"h1": F(1, 3)}),
    (2, {"h1": F(1, 3), "h2": F(2, 3)}),
], ids=["sl2 h1=1/2", "sl2 h1=1/3", "A2 h1=1/3,h2=2/3"])
def test_eigen_monomials_expand_to_themselves(rank, coeffs):
    # the invariant behind stage 3's relabeling: rebuilding a monomial of
    # ad(s)-eigenvectors gives back the monomial, moved by its eigenvalues
    alg = build_simple_lie("A", rank)
    mod = build_module(alg, F(2), cutoff=3)
    d = make_delta(mod, mod.current(alg.element(coeffs)))

    def split(gi):
        parts = d.eig.decompose(alg._basis_elt(gi)).items()
        return [(lam, None, comp) for lam, comp in parts]

    for weight in range(4):
        for mono in mod.basis(weight):
            lamsum = 0
            for gi, _m in reversed(factors(mono)):
                lamsum += d.eig.eigenvalue_of(alg._basis_elt(gi))
            got = mod.expand_monomial(mono, split)
            assert [(k, type(k)) for k in got] == [(lamsum, type(lamsum))], mono
            vec = got[lamsum]
            assert vec.c == {mono: 1} and type(vec.c[mono]) is int, mono


def test_mixed_generators_keep_the_rebuild():
    # tests/data/shift_chain.json pins h1=1/2+e1, where f1 is mixed, so the
    # golden digests cover stage 3's rebuild path as well as its relabeling
    d = make_delta(MOD, MOD.current(sl2.element({"h1": F(1, 2), "e1": F(1)})))
    assert d.eig.eigenvalue_of(sl2.generator("f1")) is None
    assert d.eig.generator_eigenvalues()[sl2.index["f1"]] is None


def test_relabeling_stops_at_the_cutoff():
    # a monomial of weight past the cutoff is relabeled like any other, and
    # its whole shift equals the one on a module declared with a cutoff
    # above its weight
    small = build_module(sl2, F(2), cutoff=3)
    d = make_delta(small, small.current(sl2.element({"h1": F(1, 2)})))
    deep = PBWVector({mono(("e1", -2), ("e1", -2)): 1})
    got = delta_apply(d, deep)
    assert got.terms[(-2, 0)].c == {mono(("e1", -2), ("e1", -2)): 1}
    assert canonical(got) == canonical(delta_apply(DS, deep))


def canonical(ser):
    """Keys, values and coefficient types of a series of vectors."""
    return [(key, [(m, type(c), c) for m, c in vec.sorted_items()])
            for key, vec in ser.sorted_items()]


def ordered(ser):
    """Keys in their order with their types, and each term's monomials in
    their order with values and coefficient types."""
    return [((type(e), e, k), [(m, type(c), c) for m, c in vec.c.items()])
            for (e, k), vec in ser.terms.items()]


STAGE_STATES = [v for v, _label in basis_states(MOD, 3)] + [
    vec((mono(("e1", -1)), 3)),
    vec((mono(("f1", -1)), F(-2, 3))),
    vec((mono(("e1", -1), ("f1", -1)), F(1, 2)), (mono(("h1", -2)), 3),
        (mono(("f1", -1)), F(-5, 4))),
    Cyc.zeta(3, 1) * MOD.current("f1") + MOD.current("h1"),
    PBWVector(),
]


@pytest.mark.parametrize("legacy", [False, True], ids=["sign", "legacy sign"])
@pytest.mark.parametrize("coords", [{"h1": F(1, 2)}, {"e1": 1}, {"h1": F(1, 2), "e1": 1}],
                         ids=["h1=1/2", "e1", "h1=1/2+e1"])
def test_shift_is_its_divided_stage_output(coords, legacy):
    # delta_apply, from its memoized images or afresh, is the integral stage
    # output with each key divided by its positive int den, in keys, order,
    # values and types; f1 is mixed under h1=1/2+e1, so that current reaches
    # expand_monomial
    d = make_delta(MOD, MOD.current(sl2.element(coords)), legacy)
    for v in STAGE_STATES:
        stages = delta._stages(d, v)
        assert all(terms and type(den) is int and den > 0
                   for _e, _k, terms, den in stages), v
        want = [((type(e), e, k), [(m, type(c), c) for m, c in divided(terms, den).items()])
                for e, k, terms, den in stages]
        assert ordered(delta_apply(d, v)) == want, v


def test_stored_basis_images_match_fresh_ones(monkeypatch, tmp_path):
    # the images on a record are shared by every caller: after two whole
    # runs, each must still equal one computed afresh on a new module
    built = []
    real = cli.build_module

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_module", recording)
    for name in ("sl2_semisimple", "sl2_nilpotent"):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(CONFIG_DIR / f"{name}.json"),
                             "--output", str(tmp_path / "report.json")])
        assert code == 0
    compared = 0
    for mod in built:
        for a, legacy in mod.__dict__.get("_shift_record_cache", {}):
            stored = make_delta(mod, mod.current(a), legacy).images
            fresh_mod = build_module(mod.algebra, mod.level, mod.cutoff)
            fresh = make_delta(fresh_mod, fresh_mod.current(a), legacy)
            for mono, image in stored.items():
                want = delta_apply(fresh, PBWVector({mono: 1}))
                assert canonical(image) == canonical(want), (a, legacy, mono)
                compared += 1
    assert compared


def test_filled_records_do_not_keep_their_module_alive():
    gc.disable()
    try:
        mod = build_module(sl2, F(2), cutoff=4)
        states = basis_states(mod, 2)
        for coords in ({"h1": F(1, 2)}, {"e1": F(1)}):
            u = mod.current(sl2.element(coords))
            for v, _label in states:
                delta_apply(make_delta(mod, u), v)
            check_shift_conjugation(mod, u, states[:3], states[:3])
        records = mod._shift_record_cache
        assert len(records) == 2 and all(rec[-1] for rec in records.values())
        ref = weakref.ref(mod)
        del mod, records
        assert ref() is None
    finally:
        gc.enable()


# -- linearity: a scaled basis input is served from the stored D(b) ---------

LINEAR_CURRENTS = [
    (1, 3, {"h1": F(1, 2)}),
    (1, 3, {"h1": F(1, 3)}),
    (1, 3, {"e1": F(1)}),
    (1, 3, {"f1": F(-2)}),
    (1, 3, {"h1": F(1, 2), "e1": F(1)}),
    (2, 2, {"h1": F(1, 3), "h2": F(2, 3)}),
    (2, 2, {"e1": F(1), "e2": F(1)}),
    (2, 2, {"h1": F(1, 2), "e1": F(1)}),
]
LINEAR_SCALARS = [2, -3, 7, F(1, 2), F(2), F(-3, 4), F(1)]
# the cutoffs of tests/test_shift_golden.py
LINEAR_MODULES = {rank: build_module(build_simple_lie("A", rank), F(2), cutoff)
                  for rank, cutoff in ((1, 5), (2, 3))}


@pytest.mark.parametrize("legacy", [False, True], ids=["sign", "legacy sign"])
@pytest.mark.parametrize("rank, max_weight, coords", LINEAR_CURRENTS,
                         ids=[f"A{r} {c}" for r, _w, c in LINEAR_CURRENTS])
def test_scaled_basis_inputs_match_fresh_images(rank, max_weight, coords, legacy):
    mod = LINEAR_MODULES[rank]
    d = make_delta(mod, mod.current(mod.algebra.element(coords)), legacy)
    for v, label in basis_states(mod, max_weight):
        [mono] = v.c
        for c in LINEAR_SCALARS:
            scaled = PBWVector({mono: c})
            got = delta_apply(d, scaled)
            assert canonical(got) == canonical(delta._shift(d, scaled)), (label, c)
        assert mono in d.images


def test_other_inputs_are_computed_afresh(monkeypatch):
    reached = []
    real = delta._shift

    def recording(d, v):
        reached.append(v)
        return real(d, v)

    monkeypatch.setattr(delta, "_shift", recording)
    b = MOD.current("f1")
    inputs = [Cyc.zeta(3, 1) * b, Cyc.of(2) * b, b + MOD.current("h1")]
    for d in (DS, DN):
        for v in inputs:
            reached.clear()
            delta_apply(d, v)
            assert reached == [v]


@pytest.mark.parametrize("d", [DS, DN], ids=["h1=1/2", "e1"])
def test_stage_one_keeps_no_dict_of_its_input(d):
    # with no denominators to clear, clear_denominators hands back the
    # input's own dict: stage 1's x^0 term, and so _stages', must be a copy
    for v in (MOD.current("e1"), MOD.apply_mode("e1", -1, MOD.current("f1"))):
        [(e, k, terms, den), *_rest] = delta._exp_current_stage(d, v)
        assert (e, k, den) == (0, 0, 1) and terms == v.c and terms is not v.c
        assert all(terms is not v.c for _e, _k, terms, _den in delta._stages(d, v))
