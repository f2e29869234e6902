"""Dense exact linear algebra and polynomial helpers over the rationals.

Matrices are tuples of tuples of Fractions (rows).  Polynomials are lists
or tuples of Fractions in ascending powers.  Everything here is small and
exact; no pivoting heuristics, no floats.  The Lie layer needs row
reduction (kernels, inverses), characteristic polynomials and their
rational roots; scalars needs polynomial division and divisors.  Products
skip zero entries, as automorphism matrices and inverse eigenbases on Lie
coordinates are mostly zeros, and still return Fractions.  The ``memo``
method decorator lives here too, below every class whose results it
caches.
"""

from fractions import Fraction
from functools import wraps
from math import gcd, isqrt, lcm

__all__ = [
    "charpoly",
    "divisors",
    "kernel_basis",
    "mat_inverse",
    "mat_mul",
    "mat_sub",
    "mat_vec",
    "memo",
    "poly_divmod",
    "poly_eval",
    "poly_trim",
    "rational_roots",
    "rref",
    "zeros",
]

F = Fraction
_0 = F(0)
_1 = F(1)


def zeros(n, m):
    """n-by-m zero matrix."""
    return tuple(tuple(_0 for _ in range(m)) for _ in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col) if x and y), _0)
                       for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), _0) for row in a)


def rref(a):
    """Reduced row echelon form; returns (rows as list of lists, pivot columns)."""
    rows = [list(map(F, r)) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(a):
    """Basis of the right kernel of a (list of coordinate tuples)."""
    if not a:
        return []
    rows, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_0] * ncols
        v[fc] = _1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def mat_inverse(a):
    """Exact inverse of a square rational matrix (ValueError if singular)."""
    n = len(a)
    aug = [list(map(F, row)) + [_1 if i == j else _0 for j in range(n)]
           for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def charpoly(a):
    """Characteristic polynomial det(xI - a), ascending coefficients, monic."""
    n = len(a)
    coeffs = [_0] * (n + 1)
    coeffs[n] = _1
    m = zeros(n, n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        m = tuple(
            tuple(m[i][j] + (coeffs[n - k + 1] if i == j else _0) for j in range(n))
            for i in range(n)
        )
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(n))
        coeffs[n - k] = F(-tr, k)
    return coeffs


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(a, b):
    """Quotient and remainder of polynomial division."""
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and poly_trim(r):
        r = poly_trim(r)
        if len(r) < len(b):
            break
        c = F(r[-1], b[-1])
        d = len(r) - len(b)
        q[d] = c
        for j in range(len(b)):
            r[d + j] -= c * b[j]
        r.pop()
    return poly_trim(q), poly_trim(r)


def poly_eval(p, x):
    acc = _0
    for c in reversed(poly_trim(p)):
        acc = acc * x + c
    return acc


def rational_roots(p):
    """All rational roots of p with multiplicity, plus the deflated remainder.

    Returns (roots, remainder) where remainder has no rational roots.
    """
    p = poly_trim(p)
    if not p:
        raise ZeroDivisionError("zero polynomial")
    roots = []
    # clear denominators to get integer coefficients
    while True:
        den = 1
        for c in p:
            den = lcm(den, c.denominator)
        ip = [int(c * den) for c in p]
        g = 0
        for c in ip:
            g = gcd(g, c)
        if g:
            ip = [c // g for c in ip]
        # root 0
        if ip and ip[0] == 0:
            roots.append(_0)
            p, _ = poly_divmod(p, [_0, _1])
            continue
        if len(ip) <= 1:
            break
        lead_divs = divisors(ip[-1])
        candidates = (F(sign * num, q) for num in divisors(ip[0])
                      for sign in (1, -1) for q in lead_divs)
        root = next((c for c in candidates if poly_eval(p, c) == 0), None)
        if root is None:
            break
        roots.append(root)
        p, _ = poly_divmod(p, [-root, _1])
    return roots, poly_trim(p)


def divisors(n):
    """Positive divisors of |n| in ascending order (none for n = 0)."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def memo(method):
    """Memoize a method per instance (or a function per its first argument),
    keyed by the other positional arguments.

    Results live in the instance's own ``_<name>_cache`` dict (leading
    underscores of the name dropped), so they die with the instance and two
    instances share nothing.  A call that raises stores nothing, so it
    raises again next time.  Results are shared: callers must not mutate
    them.
    """
    attr = f"_{method.__name__.lstrip('_')}_cache"

    @wraps(method)
    def cached(self, *args):
        try:
            return self.__dict__[attr][args]
        except KeyError:
            pass
        out = method(self, *args)
        self.__dict__.setdefault(attr, {})[args] = out
        return out

    return cached
