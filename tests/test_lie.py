from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from voatwist.errors import InvalidSymmetry, NeedsFieldExtension, UnsupportedAlgebra
from voatwist.lie import build_simple_lie, diagram_automorphism

sl2 = build_simple_lie("A", 1)
sl3 = build_simple_lie("A", 2)

coords3 = st.lists(st.integers(-3, 3), min_size=8, max_size=8)


def elt3(coords):
    return sl3.element_from_coords([F(c) for c in coords])


def test_sl2_structure_constants():
    e, f, h = (sl2.generator(n) for n in ("e1", "f1", "h1"))
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(h, e) == 2 * e
    assert sl2.bracket(h, f) == -2 * f


def test_form_normalization():
    # normalized so long roots have square length 2
    e, f, h = (sl2.generator(n) for n in ("e1", "f1", "h1"))
    assert sl2.form(e, f) == 1
    assert sl2.form(h, h) == 2
    assert sl2.form(e, e) == 0


def test_dual_coxeter_number():
    assert sl2.dual_coxeter() == 2
    assert sl3.dual_coxeter() == 3
    assert build_simple_lie("A", 3).dual_coxeter() == 4


def test_unknown_family_rejected():
    with pytest.raises(UnsupportedAlgebra):
        build_simple_lie("E", 8)


@settings(max_examples=60)
@given(coords3, coords3, coords3)
def test_jacobi_identity(a, b, c):
    x, y, z = elt3(a), elt3(b), elt3(c)
    total = (
        sl3.bracket(x, sl3.bracket(y, z))
        + sl3.bracket(y, sl3.bracket(z, x))
        + sl3.bracket(z, sl3.bracket(x, y))
    )
    assert total.is_zero()


@settings(max_examples=60)
@given(coords3, coords3, coords3)
def test_form_invariance(a, b, c):
    x, y, z = elt3(a), elt3(b), elt3(c)
    assert sl3.form(sl3.bracket(x, y), z) == sl3.form(x, sl3.bracket(y, z))


def test_ad_eigendata_of_half_h():
    s = sl2.element({"h1": F(1, 2)})
    eig = sl2.ad_eigendata(s)
    assert eig.values == [F(-1), F(0), F(1)]
    assert eig.eigenvalue_of(sl2.generator("e1")) == 1
    assert eig.eigenvalue_of(sl2.generator("f1")) == -1
    # a mixed vector is not an eigenvector
    assert eig.eigenvalue_of(sl2.generator("e1") + sl2.generator("f1")) is None


def test_jordan_chevalley_semisimple_off_cartan():
    # h + e has distinct rational eigenvalues, hence is its own
    # semisimple part even though it is not diagonal
    x = sl2.generator("h1") + sl2.generator("e1")
    s, n = sl2.jordan_chevalley(x)
    assert s == x and n.is_zero()


def test_jordan_chevalley_nilpotent():
    e = sl2.generator("e1")
    s, n = sl2.jordan_chevalley(e)
    assert s.is_zero() and n == e


def test_jordan_chevalley_mixed_commuting_pair():
    s_in = sl3.element({"h1": F(2), "h2": F(1)})
    n_in = sl3.generator("e2")
    s, n = sl3.jordan_chevalley(s_in + n_in)
    assert s == s_in and n == n_in
    assert sl3.bracket(s, n).is_zero()


def test_jordan_chevalley_irrational_spectrum():
    # only successful calls are memoized: a failure raises on every call
    x = sl2.generator("e1") - sl2.generator("f1")
    for _ in range(2):
        with pytest.raises(NeedsFieldExtension):
            sl2.jordan_chevalley(x)
        with pytest.raises(NeedsFieldExtension):
            sl2.ad_eigendata(x)


def test_diagram_flip_of_rank_two():
    tau = diagram_automorphism(sl3, [2, 1])
    e1, e2 = sl3.generator("e1"), sl3.generator("e2")
    assert tau(e1) == e2 and tau(e2) == e1
    # an automorphism: brackets transport
    x, y = e1 + sl3.generator("f2"), sl3.generator("h1")
    assert tau(sl3.bracket(x, y)) == sl3.bracket(tau(x), tau(y))
    # order two
    assert tau(tau(x)) == x


def test_diagram_flip_preserves_form():
    tau = diagram_automorphism(sl3, [2, 1])
    x = sl3.generator("e1") + 2 * sl3.generator("h2")
    y = sl3.generator("f1") - sl3.generator("h1")
    assert sl3.form(tau(x), tau(y)) == sl3.form(x, y)


def test_diagram_rejects_non_permutation():
    with pytest.raises(InvalidSymmetry):
        diagram_automorphism(sl3, [1, 1])
    with pytest.raises(InvalidSymmetry):
        diagram_automorphism(sl3, [1])


def test_diagram_rejects_non_symmetry():
    # swapping the two nodes of A_3's outer pair while fixing the middle
    # is the only symmetry; an arbitrary 3-cycle must be refused
    sl4 = build_simple_lie("A", 3)
    with pytest.raises(InvalidSymmetry):
        diagram_automorphism(sl4, [2, 3, 1])


def test_element_round_trip():
    x = sl3.element({"e12": F(3), "h2": F(-1, 2)})
    assert sl3.element_from_coords(x.coords) == x
    with pytest.raises(UnsupportedAlgebra):
        sl3.element({"nope": F(1)})


# -- oracles for the tabulated structure data and the memos -----------------

ALGEBRAS = {rank: build_simple_lie("A", rank) for rank in (1, 2, 3)}
rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def elements(draw, count, borel=False, ranks=(1, 2, 3)):
    """(algebra, [coords] * count) over the given ranks of type A.

    With borel=True the coordinates live on the positive root vectors and,
    with small integer values, on the Cartan.  Then ad has a small rational
    spectrum and every Jordan-Chevalley split exists and is cheap to find.
    """
    alg = ALGEBRAS[draw(st.sampled_from(ranks))]
    npos = len(alg.pos_pairs)
    out = []
    for _ in range(count):
        coords = draw(st.lists(rational, min_size=alg.dim, max_size=alg.dim))
        if borel:
            coords[npos:2 * npos] = [F(0)] * npos
            coords[2 * npos:] = [F(draw(st.integers(-1, 1)))
                                 for _ in range(alg.rank)]
        out.append(coords)
    return alg, out


def sym_rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def sym_matrix(alg, coords):
    m = sympy.zeros(alg.rank + 1, alg.rank + 1)
    for c, bm in zip(coords, alg.basis_mats):
        m += sym_rational(c) * sympy.Matrix([[sym_rational(x) for x in row] for row in bm])
    return m


def to_fractions(m):
    return [[F(int(x.p), int(x.q)) for x in row] for row in m.tolist()]


@settings(max_examples=60, deadline=None)
@given(elements(2))
def test_tables_match_matrix_commutators(drawn):
    alg, (a, b) = drawn
    x, y = alg.element_from_coords(a), alg.element_from_coords(b)
    ma, mb = sym_matrix(alg, a), sym_matrix(alg, b)
    assert alg.bracket(x, y) == alg.from_matrix(to_fractions(ma * mb - mb * ma))
    trace = (ma * mb).trace()
    assert alg.form(x, y) == F(int(trace.p), int(trace.q))


# a rank-3 split takes seconds in exact arithmetic, so this test stays at
# ranks 1 and 2
@settings(max_examples=25, deadline=None)
@given(elements(2, borel=True, ranks=(1, 2)))
def test_memoized_splits_match_a_fresh_algebra(drawn):
    alg, (a, b) = drawn
    fresh = build_simple_lie("A", alg.rank)
    x = alg.element_from_coords(a)
    s, n = alg.jordan_chevalley(x)
    fs, fn = fresh.jordan_chevalley(fresh.element_from_coords(a))
    assert (s.coords, n.coords) == (fs.coords, fn.coords)
    again = alg.jordan_chevalley(alg.element_from_coords(a))
    assert (again[0].coords, again[1].coords) == (s.coords, n.coords)
    eig, fresh_eig = alg.ad_eigendata(s), fresh.ad_eigendata(fs)
    for coords in (b, *(g.coords for g in alg.basis())):
        got = eig.decompose(alg.element_from_coords(coords))
        assert eig.decompose(alg.element_from_coords(coords)) is got
        want = fresh_eig.decompose(fresh.element_from_coords(coords))
        assert {lam: part.coords for lam, part in got.items()} == \
            {lam: part.coords for lam, part in want.items()}

