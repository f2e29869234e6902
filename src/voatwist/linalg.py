"""Dense exact linear algebra and polynomial helpers over the rationals.

Matrices are tuples of tuples of Fractions (rows).  Polynomials are lists
or tuples of Fractions in ascending powers.  Everything here is small and
exact; no pivoting heuristics, no floats.  The ``memo`` method decorator
lives here too, below every class whose results it caches.
"""

from fractions import Fraction
from functools import wraps
from math import gcd, isqrt, lcm

__all__ = [
    "charpoly",
    "divisors",
    "identity",
    "kernel_basis",
    "mat_eq",
    "mat_inverse",
    "mat_mul",
    "mat_scale",
    "mat_sub",
    "mat_vec",
    "memo",
    "poly_deriv",
    "poly_divmod",
    "poly_eval_mat",
    "poly_eval",
    "poly_mul",
    "poly_trim",
    "poly_xgcd",
    "rational_roots",
    "rref",
    "solve",
    "squarefree_part",
    "zeros",
]

F = Fraction
_0 = F(0)
_1 = F(1)


def zeros(n, m):
    """n-by-m zero matrix."""
    return tuple(tuple(_0 for _ in range(m)) for _ in range(n))


def identity(n):
    """n-by-n identity matrix."""
    return tuple(tuple(_1 if i == j else _0 for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    c = F(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_eq(a, b):
    return all(all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def solve(a, b):
    """One solution x of a x = b, or None if the system is inconsistent."""
    if not a:
        return None
    n, m = len(a), len(a[0])
    aug = [list(map(F, row)) + [F(bi)] for row, bi in zip(a, b)]
    rows, pivots = rref(aug)
    for row in rows:
        if row[-1] and not any(row[:-1]):
            return None
    x = [_0] * m
    for r, pc in enumerate(pivots):
        if pc == m:
            return None
        x[pc] = rows[r][-1]
    return tuple(x)


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


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [_0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


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


def poly_xgcd(a, b):
    """Extended gcd: returns (g, u, v) monic g with u a + v b = g."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = [_1], []
    t0, t1 = [], [_1]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_trim([x - y for x, y in _zip_pad(s0, poly_mul(q, s1))])
        t0, t1 = t1, poly_trim([x - y for x, y in _zip_pad(t0, poly_mul(q, t1))])
    if not r0:
        return [], [], []
    lead = r0[-1]
    inv = _1 / lead
    return ([inv * c for c in r0], [inv * c for c in s0], [inv * c for c in t0])


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_0] * (n - len(a))
    b = list(b) + [_0] * (n - len(b))
    return zip(a, b)


def poly_deriv(p):
    return [F(i) * c for i, c in enumerate(p)][1:]


def poly_eval(p, x):
    acc = _0
    for c in reversed(poly_trim(p)):
        acc = acc * x + c
    return acc


def poly_eval_mat(p, a):
    """Evaluate a polynomial at a square matrix."""
    n = len(a)
    acc = zeros(n, n)
    for c in reversed(poly_trim(p)):
        acc = mat_mul(acc, a)
        acc = tuple(
            tuple(acc[i][j] + (c if i == j else _0) for j in range(n))
            for i in range(n)
        )
    return acc


def squarefree_part(p):
    """p / gcd(p, p'), monic."""
    g, _, _ = poly_xgcd(p, poly_deriv(p))
    if not g:
        return poly_trim(p)
    q, r = poly_divmod(p, g)
    if r:
        raise ArithmeticError("gcd does not divide")
    lead = q[-1]
    return [F(c, lead) for c in q]


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
    """Memoize a method per instance, keyed by its positional arguments.

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
