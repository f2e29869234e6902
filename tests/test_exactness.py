"""No float ever enters a coefficient or an exponent, and no integral
rational is stored as a Fraction.

Integral scalars and series exponents are kept as ints, so a division of
two of them would quietly produce a float and end exact arithmetic.  These
tests watch every PBW coefficient and every series term that full CLI runs
create, both sides of every shift-conjugation comparison and its int
scale, and the chain scalars that get halved.  They also read what every
PBWVector and LieElt stores once built, over the CLI runs and the shift
probes, and every mode-table entry that ``tables`` builds, for a Fraction
whose value is integral, also as a coordinate of a Cyc coefficient.

Besides ``PBWVector.__init__``, coefficients are stored by
``PBWVector.adopt``, which keeps a freshly summed dict without a copy (the
untwisted vertex-operator reads, vector sums, mode actions, the twisted
mode operators and each divided key of the shift operator), and series
terms by ``LogSeries.add_term``, which series_sum calls, and by
``LogSeries.from_sums``; both scans hook those too.  The float scan also
reads the shift operator's integral output (``delta._stages``), whose keys
become series terms without add_term.  Every
stored per-key sum follows ``series.accumulate``'s scalar rule as it
stores, so the integral-Fraction scan reads each value that add_term
stores as it is stored.
"""

import contextlib
import io
import pathlib
from fractions import Fraction as F

import pytest
from test_shift_golden import probe_outputs

from voatwist import cli, delta, series, twist, verify
from voatwist.fock import build_module
from voatwist.lie import LieElt, build_simple_lie
from voatwist.scalars import Cyc, int_if_integral
from voatwist.series import LogSeries, PBWVector, accumulate, monomial, series_sum
from voatwist.twist import make_twisted

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json")) + [
    ROOT / "perfbench" / "configs" / "sl2_branch3.json"]
ALL_CONFIGS = CONFIGS + sorted((ROOT / "tests" / "configs").glob("*.json"))


def _has_float(value) -> bool:
    if isinstance(value, Cyc):
        return any(isinstance(c, float)
                   for vec in value.coeffs.values() for c in vec)
    return isinstance(value, float)


@pytest.fixture
def float_scan(monkeypatch):
    """Record every float coefficient or exponent; count what was watched."""
    scan = {"watched": 0, "compared": 0, "floats": []}
    init = PBWVector.__init__
    adopt = PBWVector.adopt
    add_term = LogSeries.add_term
    from_sums = LogSeries.from_sums
    stages = delta._stages
    compare = verify._compare_bivariate

    def watched_init(self, c=None):
        for mono, coeff in (c or {}).items():
            scan["watched"] += 1
            if _has_float(coeff):
                scan["floats"].append(("coefficient", mono, coeff))
        init(self, c)

    def watched_adopt(c):
        # sums kept without __init__
        for mono, coeff in c.items():
            scan["watched"] += 1
            if _has_float(coeff):
                scan["floats"].append(("coefficient", mono, coeff))
        return adopt(c)

    def watched_from_sums(sums, den):
        # the exponents of the log-free series that bypass add_term; their
        # coefficients go through adopt
        for e in sums:
            scan["watched"] += 1
            if _has_float(e) or _has_float(den):
                scan["floats"].append(("exponent", e, den))
        return from_sums(sums, den)

    def watched_stages(d, v):
        # the shift's integral output, [(e, k, terms, den)]: _shift divides
        # each item into a series term without add_term
        out = stages(d, v)
        for e, k, terms, den in out:
            scan["watched"] += 1
            if (_has_float(e) or type(den) is not int or den <= 0
                    or any(map(_has_float, terms.values()))):
                scan["floats"].append(("stage", e, k, terms, den))
        return out

    def watched_add_term(self, e, k, terms, scale=None):
        # every series_sum item passes here
        scan["watched"] += 1
        if any(map(_has_float, (e, k, scale, *terms.values()))):
            scan["floats"].append(("term", e, k, terms, scale))
        add_term(self, e, k, terms, scale)

    def watched_compare(alg, lhs, rhs, scale, ceiling, **fields):
        # shift-conjugation sums both sides in plain dicts that no
        # PBWVector or LogSeries sees: the left one's terms over a positive
        # int den per key, the right one's over the int scale
        scan["compared"] += 1
        if type(scale) is not int:
            scan["floats"].append(("scale", scale))
        for key, (bucket, den) in lhs.items():
            if type(den) is not int or den <= 0:
                scan["floats"].append(("den", key, den))
        for key, bucket in [*((key, bucket) for key, (bucket, _den) in lhs.items()),
                            *rhs.items()]:
            if any(map(_has_float, key)) or any(map(_has_float, bucket.values())):
                scan["floats"].append(("conjugation", key, bucket))
        return compare(alg, lhs, rhs, scale, ceiling, **fields)

    monkeypatch.setattr(PBWVector, "__init__", watched_init)
    monkeypatch.setattr(PBWVector, "adopt", staticmethod(watched_adopt))
    monkeypatch.setattr(LogSeries, "add_term", watched_add_term)
    monkeypatch.setattr(LogSeries, "from_sums", staticmethod(watched_from_sums))
    monkeypatch.setattr(delta, "_stages", watched_stages)
    monkeypatch.setattr(verify, "_compare_bivariate", watched_compare)
    return scan


@pytest.mark.parametrize("command", ["run", "tables"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_cli_creates_no_float(float_scan, tmp_path, command, config):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(config), "--output",
                         str(tmp_path / "report")])
    if code == 0:
        assert float_scan["watched"] > 0
        if command == "run" and '"delta"' in config.read_text(encoding="utf-8"):
            assert float_scan["compared"] > 0
    assert float_scan["floats"] == []


def test_float_scan_sees_every_series_term(float_scan):
    # a float exponent, coefficient or scale in any series_sum item is seen
    mono = monomial((0, -1))
    items = [(0.5, 0, {mono: 1}, None), (0, 0, {mono: 0.25}, None),
             (1, 0, {mono: 1}, 2.0)]
    series_sum(items)
    assert float_scan["floats"] == [("term", *item) for item in items]


def test_float_scan_sees_every_added_term(float_scan):
    # a float exponent or coefficient of a one-monomial term added outside
    # series_sum
    mono = monomial((0, -1))
    out = LogSeries()
    out.add_term(0.5, 0, {mono: 1})
    out.add_term(0, 0, {mono: 0.25})
    assert float_scan["floats"] == [("term", 0.5, 0, {mono: 1}, None),
                                    ("term", 0, 0, {mono: 0.25}, None)]


def test_float_scan_watches_the_shift_stages(float_scan):
    # every key of a semisimple shift's integral output is read, with its
    # den and coefficients
    alg = build_simple_lie("A", 1)
    mod = build_module(alg, F(2), 4)
    d = delta.make_delta(mod, mod.current(alg.element({"h1": F(1, 2)})))
    seen = float_scan["watched"]
    v = PBWVector({monomial((0, -1), (1, -1)): F(1, 2), monomial((2, -2)): 1})
    keys = len(delta._stages(d, v))
    assert keys and float_scan["watched"] - seen >= keys
    seen = float_scan["watched"]
    delta.delta_apply(d, v)
    assert float_scan["watched"] - seen >= keys
    assert float_scan["floats"] == []


def test_float_scan_sees_the_untwisted_reads(float_scan):
    # a float exponent of a summed series, or a float coefficient that a
    # read keeps by adopting its dict, is seen
    mono = monomial((0, -1))
    LogSeries.from_sums({0.5: {mono: 1}}, 1)
    PBWVector.adopt({mono: 0.25})
    assert float_scan["floats"] == [("exponent", 0.5, 1), ("coefficient", mono, 0.25)]


def test_float_scan_watches_the_untwisted_reads(float_scan):
    # vertex_series and vertex_operator_mode store through the hooked points
    alg = build_simple_lie("A", 1)
    mod = build_module(alg, F(2), 4)
    v = PBWVector({monomial((0, -1)): F(1, 2)})
    w = PBWVector({monomial((1, -1)): 1})
    mod.vertex_series(v, w, 1)
    seen = float_scan["watched"]
    mod.vertex_operator_mode(v, 0)(w)
    assert seen > 0 and float_scan["watched"] > seen
    assert float_scan["floats"] == []


@pytest.mark.parametrize("name,coeff", [("h1", F(1, 2)), ("e1", 1), ("h1", F(1, 3)),
                                        ("h1", 1)],
                         ids=["h1=1/2", "e1", "h1=1/3", "h1=int 1"])
def test_halved_chain_scalars_are_exact(name, coeff):
    # kappa is halved in weight_of and in the conformal check; an int
    # coefficient makes the module compute an int kappa
    alg = build_simple_lie("A", 1)
    mod = build_module(alg, F(2), 4)
    tw = make_twisted(mod, PBWVector({monomial((alg.index[name], -1)): coeff}))
    assert type(tw.steps[-1].kappa) in (int, F)
    assert type(tw.weight_of("")) in (int, F)


def _integral_fraction(value) -> bool:
    """An integral Fraction, alone or as a coordinate of a Cyc."""
    if isinstance(value, Cyc):
        return any(map(_integral_fraction,
                       (c for vec in value.coeffs.values() for c in vec)))
    return type(value) is F and value.denominator == 1


# every module that binds series_sum by name, series itself included (the
# linear reads of the other modules sum inside series.py)
SERIES_SUM_USERS = (series, delta, twist)


@pytest.fixture
def fraction_scan(monkeypatch):
    """Record every integral Fraction that a built PBWVector or LieElt, a
    series term as add_term stores it, or a series_sum result stores; count
    the stored values read, and note each vector read with its coefficients
    in place."""
    scan = {"read": 0, "found": [], "vectors": set()}
    pbw_init = PBWVector.__init__
    pbw_adopt = PBWVector.adopt
    lie_init = LieElt.__init__
    summed = series.series_sum
    add_term = LogSeries.add_term

    def read_pbw(vec):
        scan["read"] += len(vec.c)
        if vec.c:
            # read with its coefficients in place, not as an empty start
            scan["vectors"].add(id(vec))
        scan["found"].extend(("coefficient", mono, coeff)
                             for mono, coeff in vec.c.items()
                             if _integral_fraction(coeff))

    def watched_pbw_init(self, c=None):
        pbw_init(self, c)
        read_pbw(self)

    def watched_pbw_adopt(c):
        # sums kept without __init__
        vec = pbw_adopt(c)
        read_pbw(vec)
        return vec

    def watched_series_sum(items):
        # series_sum fills its vectors after PBWVector.__init__ has run
        out = summed(items)
        for vec in out.terms.values():
            read_pbw(vec)
        return out

    def watched_add_term(self, e, k, terms, scale=None):
        # the storing point of every series_sum item and of any other
        # per-key sum into a series: read each value it has just stored
        add_term(self, e, k, terms, scale)
        vec = self.terms.get((int_if_integral(e), k))
        if vec is None:
            return
        stored = [(mono, vec.c[mono]) for mono in terms if mono in vec.c]
        scan["read"] += len(stored)
        if stored:
            scan["vectors"].add(id(vec))
        scan["found"].extend(("coefficient", mono, coeff) for mono, coeff in stored
                             if _integral_fraction(coeff))

    def watched_lie_init(self, algebra, coords):
        lie_init(self, algebra, coords)
        scan["read"] += len(self.coords)
        if any(map(_integral_fraction, self.coords)):
            scan["found"].append(("coordinates", self.coords))

    monkeypatch.setattr(PBWVector, "__init__", watched_pbw_init)
    monkeypatch.setattr(PBWVector, "adopt", staticmethod(watched_pbw_adopt))
    monkeypatch.setattr(LogSeries, "add_term", watched_add_term)
    monkeypatch.setattr(LieElt, "__init__", watched_lie_init)
    for module in SERIES_SUM_USERS:
        monkeypatch.setattr(module, "series_sum", watched_series_sum)
    return scan


@pytest.mark.parametrize("module", SERIES_SUM_USERS, ids=lambda m: m.__name__)
def test_fraction_scan_reads_every_series_sum(fraction_scan, module):
    # a series_sum whose output holds n coefficients raises read by n or more
    mono, other = monomial((0, -1)), monomial((1, -1))
    items = [(0, 0, {mono: 1, other: F(1, 2)}),
             (1, 0, {mono: F(3, 2)}, 2)]
    before = fraction_scan["read"]
    out = module.series_sum(items)
    held = sum(len(vec.c) for vec in out.terms.values())
    assert held == 3
    assert fraction_scan["read"] - before >= held
    assert fraction_scan["found"] == []


def test_fraction_scan_reads_every_added_term(fraction_scan):
    # a sum built outside series_sum raises read by each value stored, as
    # it is stored; the scalar rule has run at each store
    mono, other = monomial((0, -1)), monomial((1, -1))
    out = LogSeries()
    before = fraction_scan["read"]
    out.add_term(0, 0, {mono: F(1, 2)})
    out.add_term(0, 0, {mono: F(1, 2)})
    out.add_term(F(2, 2), 0, {other: F(1, 3)}, 3)
    assert [(e, vec.c) for (e, _k), vec in out.terms.items()] == [(0, {mono: 1}),
                                                                  (1, {other: 1})]
    assert all(type(c) is int for vec in out.terms.values() for c in vec.c.values())
    assert fraction_scan["read"] - before == 3
    assert {id(vec) for vec in out.terms.values()} <= fraction_scan["vectors"]
    assert fraction_scan["found"] == []


@pytest.mark.parametrize("coords", [{"h1": F(1, 2)}, {"h1": F(1, 2), "e1": 1}, {"e1": 1}],
                         ids=["h1=1/2", "h1=1/2+e1", "e1"])
def test_fraction_scan_reads_the_shift_image(fraction_scan, coords):
    # every vector of delta_apply's image is read once filled: each
    # divided key of the shift through adopt, and c D(b)'s through the
    # constructor
    alg = build_simple_lie("A", 1)
    mod = build_module(alg, F(2), 4)
    d = delta.make_delta(mod, mod.current(alg.element(coords)))
    for v in (PBWVector({monomial((0, -1), (1, -1)): F(1, 2), monomial((2, -2)): 1}),
              PBWVector({monomial((1, -1)): F(3, 2)})):
        ser = delta.delta_apply(d, v)
        assert ser.terms
        assert all(id(vec) in fraction_scan["vectors"] for vec in ser.terms.values())
    assert fraction_scan["found"] == []


def test_fraction_scan_reads_the_untwisted_reads(fraction_scan):
    # every coefficient that vertex_series and vertex_operator_mode keep is read,
    # also at a non-integral level, where the summed buckets are Fractions;
    # both keep their sums through PBWVector.adopt
    alg = build_simple_lie("A", 1)
    mono = monomial((0, -1))
    for level in (F(2), F(1, 2)):
        mod = build_module(alg, level, 4)
        v = PBWVector({monomial((0, -1)): F(1, 2), monomial((1, -1)): 3})
        w = PBWVector({monomial((1, -1)): F(2, 3)})
        before = fraction_scan["read"]
        ser = mod.vertex_series(v, w, 1)
        held = sum(len(vec.c) for vec in ser.terms.values())
        coeff = mod.vertex_operator_mode(v, 0)(w)
        assert held > 0 and coeff.c
        assert fraction_scan["read"] - before >= held + len(coeff.c)
    assert fraction_scan["found"] == []
    # accumulate stores an integral Fraction sum as an int, and adopt keeps
    # the dict it is given
    before = fraction_scan["read"]
    terms = {}
    accumulate(terms, {mono: F(2, 3), monomial((1, -1)): F(1, 6)}.items(), 3)
    vec = PBWVector.adopt(terms)
    assert vec.c is terms and terms == {mono: 2, monomial((1, -1)): F(1, 2)}
    assert type(terms[mono]) is int
    assert fraction_scan["read"] - before == 2
    assert fraction_scan["found"] == []


@pytest.mark.parametrize("command", ["run", "tables"])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda p: p.stem)
def test_cli_stores_no_integral_fraction(fraction_scan, tmp_path, command, config):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, str(config), "--output", str(tmp_path / "report")])
    assert fraction_scan["read"] > 0
    assert fraction_scan["found"] == []


def test_shift_probes_store_no_integral_fraction(fraction_scan):
    for _output in probe_outputs():
        pass
    assert fraction_scan["read"] > 0
    assert fraction_scan["found"] == []


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_mode_table_entries_hold_no_integral_fraction(monkeypatch, tmp_path, config):
    read, found = [], []
    real = twist.mode_table_entry

    def watched(*args, **kwargs):
        ops, scalar = entry = real(*args, **kwargs)
        read.append(entry)
        found.extend(c for c in [*ops.values(), scalar] if _integral_fraction(c))
        return entry

    monkeypatch.setattr(twist, "mode_table_entry", watched)
    monkeypatch.setattr(verify, "mode_table_entry", watched)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["tables", str(config), "--output", str(tmp_path / "report")])
    if code == 0:
        assert read
    assert found == []
