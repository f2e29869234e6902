"""Exact scalar arithmetic: rationals and the ring Q(zeta_D)[T].

Rationals are ints when integral (exact and much cheaper) and
fractions.Fraction otherwise; int_if_integral applies that rule where PBW
coefficients, Lie and Cyc coordinates and series exponents are stored.  A
division that could see two ints is written with an explicit Fraction, so
no float ever appears.  The class Cyc models elements of Q(zeta_D)[T], polynomials
in a formal variable T whose coefficients live in the cyclotomic field of
order D.  T is the formal stand-in for the branch constant 2*pi*i: a branch
shift replaces log x by log x + T, and equality of two expressions
"identically in zeta_D and T" is plain equality in this ring.

Only ring operations are provided (add, sub, mul, scalar division);
division by a general cyclotomic is never needed here.  Elements are kept
in a canonical reduced form, unique at a given order, so == at one order
compares coordinates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import divisors, poly_divmod

__all__ = [
    "Cyc",
    "binom",
    "clear_denominators",
    "cyclotomic_poly",
    "fmt_rational",
    "fmt_scalar",
    "int_if_integral",
    "parse_rational",
]

def parse_rational(text) -> Fraction:
    """Parse "p/q" or "n" (or an int) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise TypeError(f"cannot parse rational from {text!r}")


def fmt_rational(q: Fraction) -> str:
    """Format a rational as "p/q", or "n" when the denominator is 1."""
    if type(q) is int:
        return str(q)
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def int_if_integral(q):
    """q as an int when it is an integral Fraction, else unchanged: the one
    place that decides an integral rational is held as an int."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def clear_denominators(dicts):
    """The {key: coeff} dicts times the lcm of their denominators (a Cyc
    counts as 1), with that lcm; rational coefficients come back as ints.
    At lcm 1 the list of dicts itself comes back, shared with the caller."""
    scale = 1
    for d in dicts:
        for c in d.values():
            if type(c) is Fraction:
                scale = math.lcm(scale, c.denominator)
    if scale == 1:
        return dicts, 1
    return [{m: c * scale if isinstance(c, Cyc)
             else c.numerator * (scale // c.denominator) for m, c in d.items()}
            for d in dicts], scale


def binom(e, i: int):
    """Generalized binomial coefficient C(e, i) for rational e, integer i.

    Zero for i < 0.  An int when e is integral, else a Fraction."""
    if i < 0:
        return 0
    if e.denominator == 1:
        e = e.numerator
        if e >= 0:
            return math.comb(e, i)
        # C(-n, i) = (-1)^i C(n + i - 1, i)
        return (-1) ** i * math.comb(i - e - 1, i)
    num = Fraction(1)
    for j in range(i):
        num *= e - j
    return num / math.factorial(i)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple:
    """Coefficients (ascending) of the d-th cyclotomic polynomial, monic
    with integer coefficients, held as ints."""
    if d < 1:
        raise ValueError("order must be positive")
    p = [0] * (d + 1)
    p[0], p[d] = -1, 1
    for e in divisors(d):
        if e < d:
            p, r = poly_divmod(p, cyclotomic_poly(e))
            if r:
                raise ArithmeticError("inexact polynomial division")
    return tuple(map(int_if_integral, p))


def _vec_reduce(vec, d: int):
    """Reduce a coefficient list in x (ascending) mod Phi_d to length deg Phi_d."""
    phi = cyclotomic_poly(d)
    deg = len(phi) - 1
    out = list(vec) + [0] * max(0, deg - len(vec))
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(deg):
                out[k - deg + j] -= c * phi[j]
    return tuple(out[:deg])


class Cyc:
    """An element of Q(zeta_D)[T] in canonical reduced form.

    Internal form: ``order`` D and ``coeffs`` mapping T-power -> tuple of
    rationals of length deg Phi_D (the zeta-coordinate vector, reduced mod
    Phi_D), each an int when integral.  Zero vectors are dropped; a purely
    rational element is stored at order 1.  The form at a given order is
    unique; mixed-order arithmetic promotes to the lcm order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        clean = {}
        for t, vec in coeffs.items():
            if any(vec):
                clean[t] = tuple(map(int_if_integral, vec))
        # rebase to order 1 when only the zeta^0 coordinate survives
        if order > 1 and all(not any(v[1:]) for v in clean.values()):
            clean = {t: (v[0],) for t, v in clean.items()}
            order = 1
        self.order = order
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(value) -> "Cyc":
        """Embed a rational (or pass a Cyc through)."""
        if isinstance(value, Cyc):
            return value
        return Cyc(1, {0: (value if isinstance(value, int) else Fraction(value),)})

    @staticmethod
    def zeta(order: int, power) -> "Cyc":
        """zeta_order ** power, power an integer (negatives reduced mod
        order); one shared element per (order, power mod order)."""
        return _zeta(order, int(power) % order)

    @staticmethod
    def t_power(k: int) -> "Cyc":
        """T**k."""
        return Cyc(1, {k: (1,)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.order == 1 and set(self.coeffs) <= {0}

    def rational_value(self):
        if not self.coeffs:
            return 0
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0][0]

    def _coeffs_at(self, order: int) -> dict:
        """Raw coefficient dict at a multiple order (no canonical rebase);
        at the element's own order its own dict, which must not be mutated."""
        if order == self.order:
            return self.coeffs
        if order % self.order:
            raise ValueError("can only promote to a multiple order")
        step = order // self.order
        deg = len(cyclotomic_poly(order)) - 1
        out = {}
        for t, vec in self.coeffs.items():
            acc = [0] * deg
            for k, c in enumerate(vec):
                if c:
                    unit = [0] * (k * step + 1)
                    unit[k * step] = 1
                    red = _vec_reduce(unit, order)
                    for j in range(deg):
                        acc[j] += c * red[j]
            out[t] = tuple(acc)
        return out

    @staticmethod
    def _scale(x: "Cyc", c: int | Fraction) -> "Cyc":
        """x times a rational c.  A nonzero c keeps every zero coordinate
        zero and every other one nonzero, so the form stays canonical and
        the constructor is not needed."""
        out = object.__new__(Cyc)
        out.order, out.coeffs = (x.order, {
            t: tuple(int_if_integral(c * a) if a else 0 for a in vec)
            for t, vec in x.coeffs.items()}) if c else (1, {})
        return out

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.of(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        order = math.lcm(self.order, other.order)
        out = dict(self._coeffs_at(order))
        for t, vec in other._coeffs_at(order).items():
            cur = out.get(t)
            out[t] = vec if cur is None else tuple(x + y for x, y in zip(cur, vec))
        return Cyc(order, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyc._scale(self, -1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.of(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Cyc.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc._scale(self, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        order = math.lcm(self.order, other.order)
        a = self._coeffs_at(order)
        b = other._coeffs_at(order)
        deg = len(cyclotomic_poly(order)) - 1
        out = {}
        for t1, v1 in a.items():
            for t2, v2 in b.items():
                prod = [0] * (2 * deg - 1 if deg > 1 else 1)
                for i, c1 in enumerate(v1):
                    if not c1:
                        continue
                    for j, c2 in enumerate(v2):
                        if c2:
                            prod[i + j] += c1 * c2
                red = _vec_reduce(prod, order)
                t = t1 + t2
                cur = out.get(t)
                if cur is None:
                    out[t] = red
                else:
                    out[t] = tuple(x + y for x, y in zip(cur, red))
        return Cyc(order, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError
            return Cyc._scale(self, 1 / q)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs == ({0: (other,)} if other else {})
        if not isinstance(other, Cyc):
            return NotImplemented
        # at equal orders this compares the two coefficient dicts themselves
        order = math.lcm(self.order, other.order)
        return self._coeffs_at(order) == other._coeffs_at(order)

    # no __hash__: equal elements can be stored at different orders, so
    # hashing would need subfield detection; Cyc values are never dict keys
    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Cyc({self.fmt()})"

    def fmt(self) -> str:
        """Deterministic human-readable form, terms sorted by (T-power, zeta-power)."""
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs):
            vec = self.coeffs[t]
            for k, c in enumerate(vec):
                if not c:
                    continue
                factors = [fmt_rational(c)]
                if k:
                    factors.append(f"z{self.order}^{k}")
                if t:
                    factors.append(f"T^{t}")
                parts.append("*".join(factors))
        return " + ".join(parts)


@functools.lru_cache(maxsize=None)
def _zeta(order: int, k: int) -> Cyc:
    """zeta_order ** k for 0 <= k < order, memoized as cyclotomic_poly is;
    a Cyc is never mutated, so the element is shared."""
    deg = len(cyclotomic_poly(order)) - 1
    vec = [0] * max(k + 1, deg)
    vec[k] = 1
    return Cyc(order, {0: _vec_reduce(vec, order)})


def fmt_scalar(c) -> str:
    """Deterministic string form of a Fraction or Cyc coefficient."""
    if isinstance(c, Cyc):
        return c.fmt()
    return fmt_rational(c)
