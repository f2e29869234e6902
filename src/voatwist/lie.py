"""Simple Lie algebras of type A with exact structure data.

The algebra sl(n+1) is realized by traceless (n+1)-by-(n+1) rational
matrices.  The stored basis is a Chevalley basis: root vectors E_ij for
every ordered pair (named e1, e12, ..., f1, ...) and the simple coroots
h_k = E_kk - E_(k+1)(k+1).  The structure constants are tabulated once, on
first use, from the matrix commutators of the basis, and the invariant form
from the defining-representation trace form, which for type A is already
normalized (long roots have squared length 2).  Tables, ad matrices,
eigendata and Jordan-Chevalley splits are memoized per algebra (``memo``).

Other families are not implemented and raise UnsupportedAlgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidSymmetry,
    NeedsFieldExtension,
    NotSemisimple,
    UnsupportedAlgebra,
)
from .linalg import (
    charpoly,
    identity,
    kernel_basis,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    memo,
    poly_deriv,
    poly_eval_mat,
    poly_xgcd,
    rational_roots,
    solve,
    squarefree_part,
    zeros,
)

__all__ = [
    "AutomorphismData",
    "GAutomorphism",
    "LieAlgebra",
    "LieElt",
    "build_simple_lie",
    "diagram_automorphism",
]

F = Fraction
_0 = F(0)
_1 = F(1)


def build_simple_lie(family: str, rank: int) -> "LieAlgebra":
    """Construct a simple Lie algebra; only type A (any rank >= 1) is supported."""
    family = family.upper()
    if family != "A":
        raise UnsupportedAlgebra(f"type {family} is not implemented, only type A")
    if rank < 1:
        raise UnsupportedAlgebra("rank must be at least 1")
    return LieAlgebra(rank)


class LieElt:
    """An element of a LieAlgebra, stored as Chevalley-basis coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(F(c) for c in coords)

    def is_zero(self):
        return not any(self.coords)

    def __add__(self, other):
        return LieElt(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return LieElt(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return LieElt(self.algebra, [-a for a in self.coords])

    def __rmul__(self, c):
        c = F(c)
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
        names, mats = [], []
        for (i, j) in pos_pairs:
            names.append("e" + "".join(str(k) for k in range(i + 1, j + 1)))
            mats.append(self._unit(i, j))
        for (i, j) in pos_pairs:
            names.append("f" + "".join(str(k) for k in range(i + 1, j + 1)))
            mats.append(self._unit(j, i))
        for k in range(1, n1):
            names.append(f"h{k}")
            m = [[_0] * n1 for _ in range(n1)]
            m[k - 1][k - 1] = _1
            m[k][k] = -_1
            mats.append(tuple(tuple(r) for r in m))
        self.names = names
        self.basis_mats = mats
        self.dim = len(mats)
        self.index = {n: i for i, n in enumerate(names)}
        self._cartan_start = 2 * len(pos_pairs)

    def _unit(self, i, j):
        n1 = self.rank + 1
        m = [[_0] * n1 for _ in range(n1)]
        m[i][j] = _1
        return tuple(tuple(r) for r in m)

    # -- element constructors -----------------------------------------

    def zero(self):
        return LieElt(self, [_0] * self.dim)

    def generator(self, name: str) -> LieElt:
        coords = [_0] * self.dim
        coords[self.index[name]] = _1
        return LieElt(self, coords)

    def element(self, named_coords: dict) -> LieElt:
        coords = [_0] * self.dim
        for name, c in named_coords.items():
            if name not in self.index:
                raise UnsupportedAlgebra(f"no generator named {name!r}")
            coords[self.index[name]] = F(c)
        return LieElt(self, coords)

    def element_from_coords(self, coords) -> LieElt:
        return LieElt(self, [F(c) for c in coords])

    def from_matrix(self, m) -> LieElt:
        """Coordinates of a traceless matrix in the Chevalley basis."""
        n1 = self.rank + 1
        coords = [_0] * self.dim
        for idx, (i, j) in enumerate(self.pos_pairs):
            coords[idx] = m[i][j]
            coords[idx + len(self.pos_pairs)] = m[j][i]
        partial = _0
        for k in range(1, n1):
            partial += m[k - 1][k - 1]
            coords[self._cartan_start + k - 1] = partial
        return LieElt(self, coords)

    # -- structure ------------------------------------------------------

    @memo
    def _tables(self):
        """(struct, gram) of the basis: struct[i][j] lists the nonzero
        (k, c) of [b_i, b_j] and gram[i][j] is the trace form (b_i, b_j)."""
        mats = self.basis_mats
        prods = [[mat_mul(x, y) for y in mats] for x in mats]
        n1 = self.rank + 1
        gram = tuple(tuple(sum(p[k][k] for k in range(n1)) for p in row)
                     for row in prods)

        def commutator(i, j):
            br = self.from_matrix(mat_sub(prods[i][j], prods[j][i]))
            return tuple((k, c) for k, c in enumerate(br.coords) if c)

        struct = tuple(tuple(commutator(i, j) for j in range(self.dim))
                       for i in range(self.dim))
        return struct, gram

    def bracket(self, a: LieElt, b: LieElt) -> LieElt:
        struct, _gram = self._tables()
        out = [_0] * self.dim
        for i, ca in enumerate(a.coords):
            if ca:
                row = struct[i]
                for j, cb in enumerate(b.coords):
                    if cb:
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

    @memo
    def ad_matrix(self, a: LieElt):
        """Matrix of ad(a) on the Chevalley basis (columns are images)."""
        cols = [self.bracket(a, self._basis_elt(i)).coords for i in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    def dual_basis(self):
        """Basis dual to the Chevalley basis with respect to the form."""
        _struct, gram = self._tables()
        inv = mat_inverse(gram)
        return [LieElt(self, mat_vec(inv, [_1 if k == i else _0 for k in range(self.dim)]))
                for i in range(self.dim)]

    @memo
    def _basis_elt(self, i):
        return LieElt(self, [_1 if j == i else _0 for j in range(self.dim)])

    def basis(self):
        return [self._basis_elt(i) for i in range(self.dim)]

    def dual_coxeter(self) -> Fraction:
        """Dual Coxeter number, read off the Casimir acting on the adjoint."""
        dual = self.dual_basis()
        cas = zeros(self.dim, self.dim)
        for i in range(self.dim):
            prod = mat_mul(self.ad_matrix(self._basis_elt(i)),
                           self.ad_matrix(dual[i]))
            cas = tuple(tuple(x + y for x, y in zip(r1, r2))
                        for r1, r2 in zip(cas, prod))
        scalar = cas[0][0]
        if not mat_eq(cas, mat_scale(identity(self.dim), scalar)):
            raise NotSemisimple("adjoint Casimir is not scalar")
        return F(scalar, 2)

    # -- spectral data ----------------------------------------------------

    @memo
    def ad_eigendata(self, s: LieElt) -> "EigenData":
        """Eigenvalues and eigenbasis of ad(s); s must act semisimply with
        rational spectrum (NotSemisimple / NeedsFieldExtension otherwise)."""
        a = self.ad_matrix(s)
        p = charpoly(a)
        psf = squarefree_part(p)
        roots, rem = rational_roots(psf)
        if len(rem) > 1:
            raise NeedsFieldExtension(
                "ad spectrum is irrational; refusing to leave the rationals")
        if not mat_eq(poly_eval_mat(psf, a), zeros(self.dim, self.dim)):
            raise NotSemisimple("element does not act semisimply on the algebra")
        spaces = {}
        for lam in sorted(set(roots)):
            shifted = mat_sub(a, mat_scale(identity(self.dim), lam))
            vecs = kernel_basis(shifted)
            spaces[lam] = [LieElt(self, v) for v in vecs]
        return EigenData(self, s, spaces)

    @memo
    def jordan_chevalley(self, x: LieElt):
        """Split x = s + n with ad(s) semisimple (rational spectrum), ad(n)
        nilpotent, [s, n] = 0.  Newton iteration on the squarefree part of
        the characteristic polynomial of ad(x)."""
        a = self.ad_matrix(x)
        p = charpoly(a)
        psf = squarefree_part(p)
        _roots, rem = rational_roots(psf)
        if len(rem) > 1:
            raise NeedsFieldExtension(
                "semisimple part would have irrational spectrum")
        zero = zeros(self.dim, self.dim)
        if mat_eq(poly_eval_mat(psf, a), zero):
            return x, self.zero()
        g, _u, v = poly_xgcd(psf, poly_deriv(psf))
        if len(g) != 1:
            raise NotSemisimple("squarefree part is not separable")
        z = a
        for _ in range(self.dim + 1):
            pz = poly_eval_mat(psf, z)
            if mat_eq(pz, zero):
                break
            correction = mat_mul(poly_eval_mat(v, z), pz)
            z = mat_sub(z, correction)
        else:
            raise NotSemisimple("Newton iteration failed to converge")
        s = self.derivation_to_element(z)
        n = x - s
        if not self.bracket(s, n).is_zero():
            raise NotSemisimple("split parts fail to commute")
        return s, n

    def derivation_to_element(self, d):
        """Solve ad(elt) = d for elt (every derivation here is inner)."""
        cols = [self.ad_matrix(self._basis_elt(i)) for i in range(self.dim)]
        rows = []
        rhs = []
        for r in range(self.dim):
            for c in range(self.dim):
                rows.append(tuple(cols[k][r][c] for k in range(self.dim)))
                rhs.append(d[r][c])
        sol = solve(rows, rhs)
        if sol is None:
            raise NotSemisimple("matrix is not an inner derivation")
        return LieElt(self, sol)


class EigenData:
    """Rational eigen-decomposition of ad(s) with exact projections."""

    def __init__(self, algebra, s, spaces):
        self.algebra = algebra
        self.s = s
        self.spaces = spaces
        self.values = sorted(spaces)
        cols = []
        self.slots = []  # parallel: which eigenvalue each column carries
        for lam in self.values:
            for v in spaces[lam]:
                cols.append(v.coords)
                self.slots.append(lam)
        if len(cols) != algebra.dim:
            raise NotSemisimple("eigenspaces do not span the algebra")
        p = tuple(tuple(cols[j][i] for j in range(algebra.dim))
                  for i in range(algebra.dim))
        self._p_inv = mat_inverse(p)

    def eigenvalue_of(self, elt: LieElt):
        """The single eigenvalue of an eigenvector (None if mixed)."""
        comps = self.decompose(elt)
        nonzero = [lam for lam, part in comps.items() if not part.is_zero()]
        if len(nonzero) == 1:
            return nonzero[0]
        if not nonzero:
            return F(0)
        return None

    @memo
    def decompose(self, elt: LieElt) -> dict:
        """Split elt into its ad(s)-eigencomponents, keyed by eigenvalue.

        The dict is shared between callers, who must not mutate it."""
        weights = mat_vec(self._p_inv, elt.coords)
        out = {}
        idx = 0
        for lam in self.values:
            acc = self.algebra.zero()
            for v in self.spaces[lam]:
                if weights[idx]:
                    acc = acc + weights[idx] * v
                idx += 1
            if not acc.is_zero():
                out[lam] = acc
        return out


class GAutomorphism:
    """An automorphism of the Lie algebra given by its rational matrix."""

    __slots__ = ("algebra", "matrix", "label")

    def __init__(self, algebra, matrix, label="auto"):
        self.algebra = algebra
        self.matrix = matrix
        self.label = label

    def __call__(self, elt: LieElt) -> LieElt:
        return LieElt(self.algebra, mat_vec(self.matrix, elt.coords))

    def compose(self, other: "GAutomorphism") -> "GAutomorphism":
        return GAutomorphism(self.algebra, mat_mul(self.matrix, other.matrix),
                             f"{self.label}*{other.label}")

    def inverse(self) -> "GAutomorphism":
        return GAutomorphism(self.algebra, mat_inverse(self.matrix),
                             f"{self.label}^-1")

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
    the Cartan matrix (InvalidSymmetry otherwise); images of non-simple
    root vectors are built from iterated brackets of simple ones.
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

    images = {}
    for k in range(1, n + 1):
        images[f"e{k}"] = algebra.generator(f"e{perm[k - 1]}")
        images[f"f{k}"] = algebra.generator(f"f{perm[k - 1]}")
        images[f"h{k}"] = algebra.generator(f"h{perm[k - 1]}")

    def image_of(name):
        if name in images:
            return images[name]
        if name[0] in "ef":
            digits = [int(d) for d in name[1:]]
            first, rest = name[0] + str(digits[0]), name[0] + "".join(
                str(d) for d in digits[1:])
            a, b = image_of(first), image_of(rest)
            if name[0] == "e":
                out = algebra.bracket(a, b)
            else:
                out = algebra.bracket(b, a)
            images[name] = out
            return out
        raise InvalidSymmetry(f"cannot extend to generator {name}")

    cols = []
    for name in algebra.names:
        cols.append(image_of(name).coords)
    m = tuple(tuple(cols[j][i] for j in range(algebra.dim))
              for i in range(algebra.dim))
    out = GAutomorphism(algebra, m, label=f"diagram{tuple(perm)}")
    if not out.check():
        raise InvalidSymmetry("bracket extension failed; not a diagram symmetry")
    return out


@dataclass
class AutomorphismData:
    """Canonical description of the automorphism a twisted module carries.

    The automorphism is tau o (diagram o inner) o tau^-1 where the inner
    part is exp(-2 pi i a(0)) for a = inner_semisimple_part +
    inner_nilpotent_part, the two inner pieces commuting with each other in
    the exponent (the nilpotent part must be fixed by the semisimple
    factor).  Any field may be None, meaning that factor is trivial.
    """

    algebra: LieAlgebra
    diagram_part: GAutomorphism | None = None
    inner_semisimple_part: LieElt | None = None
    inner_nilpotent_part: LieElt | None = None
    conjugator: GAutomorphism | None = None

    @staticmethod
    def identity(algebra):
        return AutomorphismData(algebra)
