"""Simple Lie algebras of type A with exact structure data.

The algebra sl(n+1) is realized by traceless (n+1)-by-(n+1) rational
matrices.  The stored basis is a Chevalley basis: root vectors E_ij for
every ordered pair (named e1, e12, ..., f1, ...) and the simple coroots
h_k = E_kk - E_(k+1)(k+1).  Each basis matrix has one or two int entries,
and the structure constants are tabulated once, on first use, from the
commutators of these sparse matrices, in ints, and the invariant form from
the defining-representation trace form, which for type A is already
normalized (long roots have squared length 2).  Coordinates are ints
where integral, and the constructors, the bracket and an automorphism's
action sum from int 0.

The spectral data of an element comes from one generalized eigenbasis of
its defining matrix: the Jordan-Chevalley split reads the semisimple part
off it, and the ad(s)-eigencomponents of an element are read off its
defining matrix conjugated by that eigenbasis, with no ad matrix and no
dim-square table built.  The dual basis is closed form.  Tables, spectra,
eigendata and splits are memoized per algebra (``memo``).

Other families are not implemented and raise UnsupportedAlgebra.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import (
    InvalidSymmetry,
    NeedsFieldExtension,
    NotSemisimple,
    UnsupportedAlgebra,
)
from .linalg import (
    charpoly,
    kernel_basis,
    mat_inverse,
    mat_mul,
    memo,
    rational_roots,
)
from .scalars import int_if_integral

__all__ = [
    "GAutomorphism",
    "LieAlgebra",
    "LieElt",
    "build_simple_lie",
    "diagram_automorphism",
]

F = Fraction
_0 = F(0)
_1 = F(1)
_INT = {int}
_COORD = itemgetter(1)


def build_simple_lie(family: str, rank: int) -> "LieAlgebra":
    """Construct a simple Lie algebra; only type A (any rank >= 1) is supported.

    A vacuum module over it (fock.build_module) encodes at most 1032
    generators, so modules are built up to rank 31 (sl_32)."""
    family = family.upper()
    if family != "A":
        raise UnsupportedAlgebra(f"type {family} is not implemented, only type A")
    if rank < 1:
        raise UnsupportedAlgebra("rank must be at least 1")
    return LieAlgebra(rank)


class LieElt:
    """An element of a LieAlgebra, stored as Chevalley-basis coordinates."""

    __slots__ = ("algebra", "coords", "_terms")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        coords = tuple(coords)
        # all-int coordinates, the common case, are kept with no per-coordinate step
        if set(map(type, coords)) != _INT:
            coords = tuple(c if type(c) is int else int_if_integral(
                c if type(c) is F else F(c)) for c in coords)
        self.coords = coords
        self._terms = None

    def is_zero(self):
        return not any(self.coords)

    def terms(self):
        """The nonzero (index, coordinate) pairs; computed on first use and
        kept, since an element never changes."""
        if self._terms is None:
            self._terms = tuple(filter(_COORD, enumerate(self.coords)))
        return self._terms

    def __add__(self, other):
        return LieElt(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return LieElt(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return LieElt(self.algebra, [-a for a in self.coords])

    def __rmul__(self, c):
        return LieElt(self.algebra, [c * a for a in self.coords])

    def __eq__(self, other):
        return isinstance(other, LieElt) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        parts = [f"{c}*{n}" for c, n in zip(self.coords, self.algebra.names) if c]
        return " + ".join(parts) if parts else "0"


class LieAlgebra:
    """sl(rank+1) with a fixed Chevalley basis and exact invariant form."""

    def __init__(self, rank: int):
        self.family = "A"
        self.rank = rank
        n1 = rank + 1
        pos_pairs = sorted(
            ((i, j) for i in range(n1) for j in range(i + 1, n1)),
            key=lambda p: (p[1] - p[0], p[0]),
        )
        self.pos_pairs = pos_pairs
        # E_ij is e followed by its nodes i+1..j run together while every
        # node is one digit (e12 for E_02), else by its first and last node
        # joined by "_" (e12_12 for E_(11)(12)), so names are injective
        names = [prefix + ("".join(map(str, range(i + 1, j + 1))) if j < 10
                           else f"{i + 1}_{j}")
                 for prefix in "ef" for (i, j) in pos_pairs]
        names += [f"h{k}" for k in range(1, n1)]
        # the nonzero (row, column, value) entries of each basis matrix
        entries = [((i, j, 1),) for (i, j) in pos_pairs]
        entries += [((j, i, 1),) for (i, j) in pos_pairs]
        entries += [((k - 1, k - 1, 1), (k, k, -1)) for k in range(1, n1)]
        self.names = names
        self.basis_entries = entries
        self.dim = len(entries)
        self.index = {n: i for i, n in enumerate(names)}
        self._cartan_start = 2 * len(pos_pairs)

    # -- element constructors -----------------------------------------

    def zero(self):
        return LieElt(self, [0] * self.dim)

    def generator(self, name: str) -> LieElt:
        coords = [0] * self.dim
        coords[self.index[name]] = 1
        return LieElt(self, coords)

    def element(self, named_coords: dict) -> LieElt:
        coords = [0] * self.dim
        for name, c in named_coords.items():
            if name not in self.index:
                raise UnsupportedAlgebra(f"no generator named {name!r}")
            coords[self.index[name]] = c
        return LieElt(self, coords)

    def element_from_coords(self, coords) -> LieElt:
        return LieElt(self, coords)

    def from_matrix(self, m) -> LieElt:
        """Coordinates of a traceless matrix in the Chevalley basis."""
        n1 = self.rank + 1
        coords = [0] * self.dim
        for idx, (i, j) in enumerate(self.pos_pairs):
            coords[idx] = m[i][j]
            coords[idx + len(self.pos_pairs)] = m[j][i]
        partial = 0
        for k in range(1, n1):
            partial += m[k - 1][k - 1]
            coords[self._cartan_start + k - 1] = partial
        return LieElt(self, coords)

    def to_matrix(self, x: LieElt):
        """The traceless matrix of x (from_matrix inverts it), summed from
        int 0 over the entries of the basis matrices x touches."""
        n1 = self.rank + 1
        m = [[0] * n1 for _ in range(n1)]
        for i, c in x.terms():
            for r, k, v in self.basis_entries[i]:
                m[r][k] += c * v
        return tuple(map(tuple, m))

    # -- structure ------------------------------------------------------

    @memo
    def _tables(self):
        """(struct, gram) of the basis: struct[i][j] lists the nonzero
        (k, c) of [b_i, b_j] in ascending k and gram[i][j] is the trace
        form (b_i, b_j), all ints.  Each product of two basis matrices is
        summed over their matching entries, and a commutator's coordinates
        are read off its entries as from_matrix reads a matrix: an
        off-diagonal (r, c) entry is the coordinate of E_rc, and a diagonal
        (r, r) one adds to the coordinate of every h_k with k > r."""
        entries, n1, start = self.basis_entries, self.rank + 1, self._cartan_start
        slot = {}
        for idx, (i, j) in enumerate(self.pos_pairs):
            slot[i, j], slot[j, i] = idx, idx + len(self.pos_pairs)
        gram = tuple(tuple(sum(a * b for r, k, a in x for k2, c, b in y
                               if k == k2 and c == r) for y in entries)
                     for x in entries)

        def commutator(x, y):
            diff = {}  # the entries of x y - y x
            for r, k, a in x:
                for r2, c, b in y:
                    if k == r2:
                        diff[r, c] = diff.get((r, c), 0) + a * b
                    if c == r:
                        diff[r2, k] = diff.get((r2, k), 0) - a * b
            coords = {}
            for (p, q), v in diff.items():
                for idx in (slot[p, q],) if p != q else range(start + p, start + n1 - 1):
                    coords[idx] = coords.get(idx, 0) + v
            return tuple(sorted((idx, c) for idx, c in coords.items() if c))

        struct = tuple(tuple(commutator(x, y) for y in entries) for x in entries)
        return struct, gram

    def bracket(self, a: LieElt, b: LieElt) -> LieElt:
        struct, _gram = self._tables()
        out = [0] * self.dim
        b_terms = b.terms()
        for i, ca in a.terms():
            row = struct[i]
            for j, cb in b_terms:
                cab = ca * cb
                for k, c in row[j]:
                    out[k] += cab * c
        return LieElt(self, out)

    def form(self, a: LieElt, b: LieElt) -> Fraction:
        _struct, gram = self._tables()
        total = _0
        for i, ca in enumerate(a.coords):
            if ca:
                row = gram[i]
                for j, cb in enumerate(b.coords):
                    if cb and row[j]:
                        total += ca * cb * row[j]
        return total

    def dual_basis(self):
        """Basis dual to the Chevalley basis with respect to the form: E_ij
        pairs with E_ji (e with f), and h_k with the fundamental coweight,
        whose h_m coordinate is the inverse Cartan matrix entry
        min(k, m) (rank + 1 - max(k, m)) / (rank + 1)."""
        npos, n1 = len(self.pos_pairs), self.rank + 1
        duals = [self._basis_elt((i + npos) % (2 * npos)) for i in range(2 * npos)]
        return duals + [
            LieElt(self, [0] * (2 * npos) + [F(min(k, m) * (n1 - max(k, m)), n1)
                                             for m in range(1, n1)])
            for k in range(1, n1)]

    @memo
    def _basis_elt(self, i):
        return LieElt(self, [1 if j == i else 0 for j in range(self.dim)])

    def basis(self):
        return [self._basis_elt(i) for i in range(self.dim)]

    def dual_coxeter(self) -> Fraction:
        """Dual Coxeter number, rank + 1 for sl(rank+1)."""
        return F(self.rank + 1)

    # -- spectral data ----------------------------------------------------

    @memo
    def _spectrum(self, x: LieElt):
        """(P, P^-1, mus): the columns of P are generalized eigenvectors of
        the defining matrix X of x, grouped by eigenvalue in ascending
        order, and mus lists the eigenvalue of each column.  X is traceless,
        so ad(x) has rational spectrum exactly when X has
        (NeedsFieldExtension otherwise).  An element of the Cartan
        subalgebra has a diagonal X, whose eigenbasis is read off its
        diagonal."""
        a = self.to_matrix(x)
        if all(i >= self._cartan_start for i, _c in x.terms()):
            return _diagonal_spectrum(a)
        return _spectrum_of(a)

    @memo
    def jordan_chevalley(self, x: LieElt):
        """Split x = s + n with ad(s) semisimple (rational spectrum), ad(n)
        nilpotent, [s, n] = 0: S = P diag(mus) P^-1 on the generalized
        eigenbasis of the defining matrix X of x.  S is a polynomial in X,
        and the split of X is that of x."""
        p, p_inv, mus = self._spectrum(x)
        scaled = tuple(tuple(c * mu for c, mu in zip(row, mus)) for row in p)
        s = self.from_matrix(mat_mul(scaled, p_inv))
        return s, x - s

    @memo
    def ad_eigendata(self, s: LieElt) -> "EigenData":
        """The ad(s)-eigen-decomposition; s must act semisimply with
        rational spectrum (NotSemisimple / NeedsFieldExtension otherwise)."""
        if not self.jordan_chevalley(s)[1].is_zero():
            raise NotSemisimple("element does not act semisimply on the algebra")
        return EigenData(self, self._spectrum(s))


def _spectrum_of(a):
    """LieAlgebra._spectrum of the defining matrix a, from the rational
    roots of its characteristic polynomial and the kernels of powers of
    a - mu."""
    roots, rem = rational_roots(charpoly(a))
    if len(rem) > 1:
        raise NeedsFieldExtension(
            "semisimple part would have irrational spectrum")
    cols, mus = [], []
    for mu in sorted(set(roots)):
        shifted = tuple(tuple(c - mu if r == k else c for k, c in enumerate(row))
                        for r, row in enumerate(a))
        power = shifted
        for _ in range(roots.count(mu) - 1):
            power = mat_mul(power, shifted)
        vecs = kernel_basis(power)
        cols.extend(vecs)
        mus.extend([mu] * len(vecs))
    p = tuple(zip(*cols))
    return p, mat_inverse(p), mus


def _diagonal_spectrum(a):
    """_spectrum_of a diagonal matrix, in the same values and types: the
    columns of P are the unit vectors, ordered by (eigenvalue, index) as
    the kernel bases of _spectrum_of order them, and P^-1 is P
    transposed."""
    n1 = len(a)
    order = sorted(range(n1), key=lambda k: (a[k][k], k))
    p_inv = tuple(tuple(_1 if r == k else _0 for r in range(n1)) for k in order)
    return tuple(zip(*p_inv)), p_inv, [F(a[k][k]) for k in order]


def _nonzero(rows):
    """The nonzero (column, entry) pairs of each row."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)


def _product(a_cols, m, b_rows):
    """A M B, summed from int 0 over nonzero entries alone: A is given by
    the _nonzero pairs of its columns and B by those of its rows."""
    out = [[0] * len(m) for _ in m]
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if v:
                for i, a in a_cols[r]:
                    for j, b in b_rows[c]:
                        out[i][j] += a * v * b
    return out


class EigenData:
    """Rational eigen-decomposition of ad(s), read through the spectrum
    (P, P^-1, mus) of the defining matrix S = P diag(mus) P^-1 of s: ad(s)
    sends P E_ij P^-1 to (mu_i - mu_j) P E_ij P^-1, and these span gl(n),
    so nothing here depends on the type of the algebra."""

    def __init__(self, algebra, spectrum):
        self.algebra = algebra
        p, p_inv, self._mus = spectrum
        self.values = sorted({a - b for a in self._mus for b in self._mus})
        # the nonzero (index, entry) pairs of each row and column of P and P^-1
        self._p_rows, self._p_cols = _nonzero(p), _nonzero(zip(*p))
        self._inv_rows, self._inv_cols = _nonzero(p_inv), _nonzero(zip(*p_inv))

    def eigenvalue_of(self, elt: LieElt):
        """The single eigenvalue of an eigenvector (None if mixed)."""
        comps = self.decompose(elt)
        return next(iter(comps), _0) if len(comps) < 2 else None

    @memo
    def generator_eigenvalues(self) -> list:
        """eigenvalue_of each basis generator (None if mixed), ints where integral."""
        return [int_if_integral(self.eigenvalue_of(b)) for b in self.algebra.basis()]

    @memo
    def decompose(self, elt: LieElt) -> dict:
        """Split elt into its ad(s)-eigencomponents, keyed by eigenvalue in
        ascending order.  Y = sum_ij Y'_ij P E_ij P^-1 with Y' = P^-1 Y P, so
        the lambda-component of Y is P Y'_lambda P^-1, where Y'_lambda keeps
        the entries of Y' with mu_i - mu_j = lambda.

        The dict is shared between callers, who must not mutate it."""
        alg, mus = self.algebra, self._mus
        parts = {}
        for i, row in enumerate(_product(self._inv_cols, alg.to_matrix(elt), self._p_rows)):
            for j, w in enumerate(row):
                if w:
                    parts.setdefault(mus[i] - mus[j], [[0] * len(mus) for _ in mus])[i][j] = w
        return {lam: alg.from_matrix(_product(self._p_cols, parts[lam], self._inv_rows))
                for lam in sorted(parts)}


class GAutomorphism:
    """An automorphism of the Lie algebra given by its rational matrix."""

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = matrix
        self._columns = None

    def __call__(self, elt: LieElt) -> LieElt:
        """The image of elt, summed from int 0 over the nonzero entries
        (ints where integral) of the matrix columns that elt touches."""
        cols = self._columns
        if cols is None:
            cols = self._columns = tuple(
                tuple((i, int_if_integral(row[j])) for i, row in enumerate(self.matrix)
                      if row[j])
                for j in range(self.algebra.dim))
        out = [0] * self.algebra.dim
        for j, c in elt.terms():
            for i, a in cols[j]:
                out[i] += a * c
        return LieElt(self.algebra, out)

    def compose(self, other: "GAutomorphism") -> "GAutomorphism":
        return GAutomorphism(self.algebra, mat_mul(self.matrix, other.matrix))

    @memo
    def inverse(self) -> "GAutomorphism":
        return GAutomorphism(self.algebra, mat_inverse(self.matrix))

    @memo
    def order(self) -> int:
        """The least k >= 1 with self^k the identity, read off the basis
        images; only called on an automorphism of finite order, such as a
        diagram automorphism."""
        basis = self.algebra.basis()
        images, k = list(map(self, basis)), 1
        while images != basis:
            images, k = list(map(self, images)), k + 1
        return k

    def check(self):
        """Verify the bracket is preserved on all basis pairs."""
        alg = self.algebra
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                a, b = alg._basis_elt(i), alg._basis_elt(j)
                lhs = self(alg.bracket(a, b))
                rhs = alg.bracket(self(a), self(b))
                if lhs != rhs:
                    return False
        return True


def diagram_automorphism(algebra: LieAlgebra, perm) -> GAutomorphism:
    """The automorphism induced by a permutation of the simple roots.

    ``perm`` lists the image of each simple root, 1-based: [2, 1] is the
    order-two flip of the rank-2 diagram.  The permutation must preserve
    the Cartan matrix (InvalidSymmetry otherwise), so it is the identity
    or the flip k -> n + 1 - k.  The flip is X -> -J X^T J^-1 with J the
    antidiagonal matrix of signs (-1)^r: it sends the matrix unit E_rc to
    (-1)^(r+c+1) E_(n-c)(n-r), 0-based with n the rank, and each basis
    image is read back through from_matrix.
    """
    n = algebra.rank
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidSymmetry("not a permutation of the simple roots")

    def cartan(i, j):
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if cartan(perm[i - 1], perm[j - 1]) != cartan(i, j):
                raise InvalidSymmetry("permutation does not preserve the Cartan matrix")

    flip = list(perm) != list(range(1, n + 1))
    cols = []
    for b in algebra.basis():
        x = algebra.to_matrix(b)
        if flip:
            x = [[(-1) ** (i + j + 1) * x[n - j][n - i] for j in range(n + 1)]
                 for i in range(n + 1)]
        cols.append(algebra.from_matrix(x).coords)
    m = tuple(tuple(cols[j][i] for j in range(algebra.dim))
              for i in range(algebra.dim))
    out = GAutomorphism(algebra, m)
    if not out.check():
        raise InvalidSymmetry("bracket extension failed; not a diagram symmetry")
    return out
