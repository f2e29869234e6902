from fractions import Fraction as F
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from voatwist.errors import (InvalidSymmetry, NeedsFieldExtension, NotSemisimple,
                             UnsupportedAlgebra)
from voatwist.lie import _diagonal_spectrum, _spectrum_of, build_simple_lie, diagram_automorphism
from voatwist.linalg import charpoly, mat_inverse, mat_vec, rref

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
    # oracle: the Casimir sum_i ad(x_i) ad(x^i) over dual bases acts on the
    # adjoint representation as twice the dual Coxeter number
    for rank in (1, 2, 3):
        alg = build_simple_lie("A", rank)
        cas = sympy.zeros(alg.dim, alg.dim)
        for x, xd in zip(alg.basis(), alg.dual_basis()):
            cas += sym_ad(alg, x.coords) * sym_ad(alg, xd.coords)
        assert alg.dual_coxeter() == rank + 1
        assert cas == 2 * alg.dual_coxeter() * sympy.eye(alg.dim)


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


def test_ad_eigendata_refuses_a_nilpotent_element():
    # only successful calls are memoized: a failure raises on every call
    for _ in range(2):
        with pytest.raises(NotSemisimple):
            sl2.ad_eigendata(sl2.generator("e1"))


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


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_diagram_order_is_read_off_the_automorphism(rank):
    alg = build_simple_lie("A", rank)
    assert diagram_automorphism(alg, list(range(1, rank + 1))).order() == 1
    if rank > 1:
        assert diagram_automorphism(alg, list(range(rank, 0, -1))).order() == 2


def test_diagram_flip_past_rank_nine():
    # from rank 10 on generator names run past one digit per node (e1011 is
    # E_(9)(11)); the flip is built from matrix units, not from the names
    alg = build_simple_lie("A", 11)
    tau = diagram_automorphism(alg, list(range(11, 0, -1)))
    assert tau.check() and tau.order() == 2
    for x, y in [("e1", "e11"), ("f1", "f11"), ("h1", "h11"), ("h5", "h7")]:
        assert tau(alg.generator(x)) == alg.generator(y)
        assert tau(alg.generator(y)) == alg.generator(x)
    assert tau(alg.generator("e12")) == -alg.generator("e1011")


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

ALGEBRAS = {rank: build_simple_lie("A", rank) for rank in (1, 2, 3, 4)}
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


def basis_mats(alg):
    """The Chevalley basis matrices by their definition: E_ij and E_ji for
    each positive pair (i, j) in alg.pos_pairs, then E_(k-1)(k-1) - E_kk."""
    n1 = alg.rank + 1

    def matrix(*entries):
        m = [[0] * n1 for _ in range(n1)]
        for r, c, v in entries:
            m[r][c] = v
        return tuple(map(tuple, m))

    return ([matrix((i, j, 1)) for i, j in alg.pos_pairs]
            + [matrix((j, i, 1)) for i, j in alg.pos_pairs]
            + [matrix((k - 1, k - 1, 1), (k, k, -1)) for k in range(1, n1)])


def sym_matrix(alg, coords):
    m = sympy.zeros(alg.rank + 1, alg.rank + 1)
    for c, bm in zip(coords, basis_mats(alg)):
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


@settings(max_examples=25, deadline=None)
@given(elements(2, borel=True))
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



# -- the linear algebra behind the splits, against sympy ---------------------


def sym_ad(alg, coords):
    """ad(x) on the Chevalley basis, computed in sympy from the defining
    representation: column j holds the coordinates of [x, b_j]."""
    basis = [sympy.Matrix([[sym_rational(c) for c in row] for row in bm])
             for bm in basis_mats(alg)]
    flat = sympy.Matrix.hstack(*(b.reshape(len(b), 1) for b in basis))
    x = sym_matrix(alg, coords)
    cols = []
    for b in basis:
        br = x * b - b * x
        sol, params = flat.gauss_jordan_solve(br.reshape(len(br), 1))
        assert not params.free_symbols
        cols.append(sol)
    return sympy.Matrix.hstack(*cols)


@settings(max_examples=20, deadline=None)
@given(elements(1, ranks=(1, 2)))
def test_charpoly_matches_sympy_on_ad_matrices(drawn):
    alg, (coords,) = drawn
    ad = sym_ad(alg, coords)
    lam = sympy.Symbol("lam")
    sym_coeffs = ad.charpoly(lam).all_coeffs()[::-1]
    assert charpoly(to_fractions(ad)) == [F(int(c.p), int(c.q)) for c in sym_coeffs]


@settings(max_examples=15, deadline=None)
@given(elements(1, borel=True, ranks=(1, 2)))
def test_jordan_chevalley_parts_in_sympy(drawn):
    alg, (coords,) = drawn
    x = alg.element_from_coords(coords)
    s, n = alg.jordan_chevalley(x)
    assert s + n == x
    ms, mn = sym_matrix(alg, s.coords), sym_matrix(alg, n.coords)
    assert ms * mn == mn * ms
    ad_s, ad_n = sym_ad(alg, s.coords), sym_ad(alg, n.coords)
    assert ad_s.is_diagonalizable()
    assert ad_n ** alg.dim == sympy.zeros(alg.dim, alg.dim)


@settings(max_examples=25, deadline=None)
@given(elements(2, borel=True))
def test_eigen_decomposition_against_sympy(drawn):
    # the parts of decompose(y) sum to y and are ad(s)-eigenvectors of their
    # eigenvalue, the eigenvalues are sympy's, and the lambda-parts of the
    # basis span a space of sympy's multiplicity
    alg, (a, b) = drawn
    s, _n = alg.jordan_chevalley(alg.element_from_coords(a))
    eig = alg.ad_eigendata(s)
    y = alg.element_from_coords(b)
    parts = eig.decompose(y)
    assert sum(parts.values(), alg.zero()) == y
    for lam, part in parts.items():
        assert alg.bracket(s, part) == lam * part
    want = {F(int(v.p), int(v.q)): mult
            for v, mult in sym_ad(alg, s.coords).eigenvals().items()}
    assert eig.values == sorted(want)
    for lam, mult in want.items():
        span = [eig.decompose(x)[lam].coords for x in alg.basis() if lam in eig.decompose(x)]
        assert len(rref(span)[1]) == mult


def first_eigendata(alg, s):
    """(spaces, inverse): the eigenvectors of ad(s) by eigenvalue, P E_ij P^-1
    for i != j with eigenvalue mu_i - mu_j and P (E_kk - E_(k+1)(k+1)) P^-1
    in the kernel, and mat_inverse of the matrix whose columns are their
    coordinates in ascending eigenvalue order."""
    p, p_inv, mus = alg._spectrum(s)
    n1 = len(mus)

    def outer(i, j):
        return tuple(tuple(p[r][i] * p_inv[j][c] for c in range(n1)) for r in range(n1))

    spaces = {}
    for i in range(n1):
        for j in range(n1):
            if i != j:
                spaces.setdefault(mus[i] - mus[j], []).append(alg.from_matrix(outer(i, j)))
    spaces.setdefault(F(0), []).extend(
        alg.from_matrix(mat_sub(outer(k, k), outer(k + 1, k + 1))) for k in range(n1 - 1))
    cols = [v.coords for lam in sorted(spaces) for v in spaces[lam]]
    return spaces, mat_inverse(tuple(zip(*cols)))


def first_decompose(alg, first, y):
    """The nonzero sums of each eigenvalue's eigenvectors times their
    weights in y, in ascending eigenvalue order."""
    spaces, inverse = first
    weights = iter(mat_vec(inverse, y.coords))
    out = {}
    for lam in sorted(spaces):
        acc = alg.zero()
        for v in spaces[lam]:
            w = next(weights)
            if w:
                acc = acc + w * v
        if not acc.is_zero():
            out[lam] = acc
    return out


@settings(max_examples=20, deadline=None, derandomize=True)
@given(elements(2, borel=True, ranks=(1, 2, 3, 4)), st.booleans())
def test_decompose_matches_the_eigenvector_list(drawn, cartan):
    # a Cartan s takes the diagonal spectrum, any other the general one
    alg, (a, b) = drawn
    if cartan:
        a = [F(0)] * (alg.dim - alg.rank) + a[alg.dim - alg.rank:]
    s, _n = alg.jordan_chevalley(alg.element_from_coords(a))
    eig, first = alg.ad_eigendata(s), first_eigendata(alg, s)
    assert eig.values == sorted(first[0])
    for y in (alg.element_from_coords(b), *probe_elements(alg)):
        got, want = eig.decompose(y), first_decompose(alg, first, y)
        assert [(typed(lam), typed(part.coords)) for lam, part in got.items()] == \
            [(typed(lam), typed(part.coords)) for lam, part in want.items()]


def test_decompose_covers_non_cartan_semisimple_parts():
    # e1 + h1 on sl3 is semisimple, its defining matrix having eigenvalues
    # 1, -1 and 0, and outside the Cartan, so its eigenbasis is not diagonal
    s = sl3.element({"e1": 1, "h1": 1})
    assert sl3.jordan_chevalley(s)[0] == s
    eig, first = sl3.ad_eigendata(s), first_eigendata(sl3, s)
    for y in probe_elements(sl3):
        got, want = eig.decompose(y), first_decompose(sl3, first, y)
        assert [(typed(lam), typed(part.coords)) for lam, part in got.items()] == \
            [(typed(lam), typed(part.coords)) for lam, part in want.items()]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_dual_basis_matches_the_gram_inverse(rank):
    alg = build_simple_lie("A", rank)
    _struct, gram = first_tables(alg)
    inv = mat_inverse(gram)
    want = [mat_vec(inv, [F(k == i) for k in range(alg.dim)]) for i in range(alg.dim)]
    got = alg.dual_basis()
    assert [typed(x.coords) for x in got] == \
        [typed(alg.element_from_coords(w).coords) for w in want]
    for i, x in enumerate(alg.basis()):
        assert [alg.form(x, y) for y in got] == [int(i == j) for j in range(alg.dim)]


# -- the sparse tables and the automorphism action against their first forms --


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@lru_cache(maxsize=None)
def first_tables(alg):
    """(struct, gram) from every dense product of two basis matrices."""
    mats = basis_mats(alg)
    prods = [[tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*y))
                    for row in x) for y in mats] for x in mats]
    n1 = alg.rank + 1
    gram = tuple(tuple(sum(p[k][k] for k in range(n1)) for p in row) for row in prods)

    def commutator(i, j):
        br = alg.from_matrix(mat_sub(prods[i][j], prods[j][i]))
        return tuple((k, c) for k, c in enumerate(br.coords) if c)

    struct = tuple(tuple(commutator(i, j) for j in range(alg.dim)) for i in range(alg.dim))
    return struct, gram


def first_bracket(alg, a, b):
    struct, _gram = first_tables(alg)
    out = [F(0)] * alg.dim
    for i, ca in enumerate(a.coords):
        for j, cb in enumerate(b.coords):
            if ca and cb:
                for k, c in struct[i][j]:
                    out[k] += ca * cb * c
    return alg.element_from_coords(out)


def first_apply(aut, elt):
    """The dense mat_vec action, summed from Fraction 0."""
    return aut.algebra.element_from_coords(mat_vec(aut.matrix, elt.coords))


def first_check(aut):
    alg = aut.algebra
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            a, b = alg._basis_elt(i), alg._basis_elt(j)
            if first_apply(aut, first_bracket(alg, a, b)) != \
                    first_bracket(alg, first_apply(aut, a), first_apply(aut, b)):
                return False
    return True


def first_diagram_matrix(alg, perm):
    """diagram_automorphism's matrix, its images built with first_bracket."""
    n = alg.rank
    images = {f"{x}{k}": alg.generator(f"{x}{perm[k - 1]}")
              for k in range(1, n + 1) for x in "efh"}

    def image_of(name):
        if name not in images:
            first, rest = name[:2], name[0] + name[2:]
            a, b = image_of(first), image_of(rest)
            images[name] = first_bracket(alg, a, b) if name[0] == "e" \
                else first_bracket(alg, b, a)
        return images[name]

    cols = [image_of(name).coords for name in alg.names]
    return tuple(tuple(cols[j][i] for j in range(alg.dim)) for i in range(alg.dim))


def typed(x):
    if isinstance(x, tuple):
        return tuple(typed(y) for y in x)
    return type(x), x


def probe_elements(alg):
    """Every basis element, and mixed int and Fraction coordinates."""
    yield from alg.basis()
    yield alg.element_from_coords([F(k + 1, 3) * (-1) ** k for k in range(alg.dim)])
    yield alg.element_from_coords([k % 3 - 1 for k in range(alg.dim)])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_sparse_tables_match_the_dense_products(rank):
    alg = build_simple_lie("A", rank)
    assert typed(alg._tables()) == typed(first_tables(alg))
    probes = list(probe_elements(alg))
    for a in probes:
        for b in probes[-3:]:
            got = alg.bracket(a, b)
            assert typed(got.coords) == typed(first_bracket(alg, a, b).coords)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_automorphisms_act_as_the_dense_matrix_product(rank):
    alg = build_simple_lie("A", rank)
    flips = [list(range(1, rank + 1)), list(range(rank, 0, -1))]
    for perm in flips:
        aut = diagram_automorphism(alg, perm)
        assert typed(aut.matrix) == typed(first_diagram_matrix(alg, perm))
        # the inverse and a composite hold Fraction entries; twice every
        # entry, or a sheared (not symmetric) matrix, is no automorphism
        doubled = type(aut)(alg, tuple(tuple(2 * c for c in row) for row in aut.matrix))
        sheared = type(aut)(alg, tuple(
            tuple(c + F(1, 2) if (i, j) == (0, alg.dim - 1) else c for j, c in enumerate(row))
            for i, row in enumerate(aut.matrix)))
        for g in (aut, aut.inverse(), aut.compose(aut.inverse()), doubled, sheared):
            for x in probe_elements(alg):
                assert typed(g(x).coords) == typed(first_apply(g, x).coords)
            assert g.check() is first_check(g) is (g not in (doubled, sheared))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda rank: st.lists(
    st.sampled_from([0, 1, -2, F(1, 2), F(-1, 3)]), min_size=rank, max_size=rank)))
def test_a_cartan_spectrum_is_read_off_the_diagonal(hs):
    # repeated, zero, int and Fraction eigenvalues; the general path on the
    # same diagonal matrix is the first form
    alg = build_simple_lie("A", len(hs))
    x = alg.element({f"h{k}": c for k, c in enumerate(hs, start=1)})
    got = alg._spectrum(x)
    assert typed_spectrum(got) == typed_spectrum(_spectrum_of(alg.to_matrix(x)))
    assert got == _diagonal_spectrum(alg.to_matrix(x))


def typed_spectrum(spectrum):
    p, p_inv, mus = spectrum
    return typed(p), typed(p_inv), typed(tuple(mus))
