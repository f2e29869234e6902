"""Finite formal series in x^e (log x)^k with exact rational exponents.

A LogSeries is a finite sum sum_{(e,k)} c_{e,k} x^e (log x)^k where the
exponents e are rationals (stored as ints when integral, Fractions
otherwise, so an integral key costs no Fraction hashing), the log powers k
are nonnegative integers, and the coefficients c_{e,k} are module vectors
(fock.PBWVector: an ``is_zero`` test, a ``truncated`` flag and scalar
action by rationals and cyclotomic-with-T scalars).  Series are stored
sparsely as a dict keyed by (e, k); fock.series_sum builds one from
per-key sums of coefficient dicts.

A series may carry a ``ceiling``: coefficients at e > ceiling are unknown
(dropped, not zero).  ``None`` means the stored terms are the whole truth.
A sum is trusted only below both ceilings, and ``series_eq`` compares
only inside the common ceiling.

The core operations the rest of the package relies on are
``series_combine`` (add), ``series_scale`` (scalar times a power of x),
``series_derivative`` (d/dx), and
``branch_shift`` (log x -> log x + T, x^e -> zeta^(D e) x^e, the formal
substitution that moves between analytic branches).
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import Cyc, binom, int_if_integral

__all__ = [
    "LogSeries",
    "branch_shift",
    "series_combine",
    "series_derivative",
    "series_eq",
    "series_scale",
]


def value_is_zero(v) -> bool:
    """Whether a series drops the module vector v as a zero term.

    A vector flagged as truncated is never zero: its flag says that part
    of it lies beyond the module cutoff, so a series must keep it.  This
    is the one place that decides whether a flagged zero is kept."""
    return v.is_zero() and not v.truncated


def _min_ceiling(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LogSeries:
    """A finite x^e (log x)^k series trusted up to an optional ceiling."""

    __slots__ = ("terms", "ceiling")

    def __init__(self, terms=None, ceiling=None):
        self.terms = {}
        if terms:
            for (e, k), v in terms.items():
                if not value_is_zero(v):
                    self.terms[(int_if_integral(e), int(k))] = v
        self.ceiling = ceiling

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, e, k, value):
        key = (int_if_integral(e), int(k))
        cur = self.terms.get(key)
        new = value if cur is None else cur + value
        if value_is_zero(new):
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def map_values(self, fn) -> "LogSeries":
        """Apply fn to every coefficient (dropping zero results)."""
        out = LogSeries(ceiling=self.ceiling)
        for (e, k), v in self.terms.items():
            out.add_term(e, k, fn(v))
        return out

    def sorted_items(self):
        """Terms in deterministic (e, k) order."""
        return sorted(self.terms.items(), key=lambda it: (it[0][0], it[0][1]))

    def __repr__(self):
        parts = [f"x^{e}" + (f"*log^{k}" if k else "") for (e, k), _ in self.sorted_items()]
        win = f" ceiling={self.ceiling}"
        return f"LogSeries({len(self.terms)} terms: {', '.join(parts[:6])}...{win})"


def series_combine(a: LogSeries, b: LogSeries) -> LogSeries:
    """The sum of two series, trusted below both ceilings."""
    out = LogSeries(ceiling=_min_ceiling(a.ceiling, b.ceiling))
    for key, v in a.terms.items():
        out.add_term(key[0], key[1], v)
    for key, v in b.terms.items():
        out.add_term(key[0], key[1], v)
    return out


def series_scale(a: LogSeries, scalar=1, eshift=0) -> LogSeries:
    """scalar * x^eshift * a; the ceiling moves up by eshift."""
    out = LogSeries(ceiling=None if a.ceiling is None else a.ceiling + eshift)
    for (e, k), v in a.terms.items():
        out.add_term(e + eshift, k, scalar * v)
    return out


def series_derivative(a: LogSeries) -> LogSeries:
    """Formal d/dx: x^e log^k -> e x^(e-1) log^k + k x^(e-1) log^(k-1)."""
    out = LogSeries(ceiling=None if a.ceiling is None else a.ceiling - 1)
    for (e, k), v in a.terms.items():
        if e:
            out.add_term(e - 1, k, e * v)
        if k:
            out.add_term(e - 1, k - 1, k * v)
    return out


def branch_shift(a: LogSeries, steps: int, order: int) -> LogSeries:
    """Move ``steps`` analytic branches: log x -> log x + steps*T and
    x^e -> zeta_order^(order*e*steps) x^e.

    Coefficients come back as Cyc-multiplied values.  Exponents must lie on
    the (1/order)-lattice, otherwise the declared order is wrong and a
    DomainError is raised.
    """
    out = LogSeries(ceiling=a.ceiling)
    for (e, k), v in a.terms.items():
        scaled = e * order
        if scaled.denominator != 1:
            raise DomainError(
                f"exponent {e} is not on the 1/{order} lattice")
        zfac = Cyc.zeta(order, int(scaled) * steps)
        if not k:
            out.add_term(e, 0, v * zfac)
            continue
        for j in range(k + 1):
            # (log x + steps*T)^k: keep j log-powers, k-j copies of steps*T
            tpart = Cyc.of(1)
            for _ in range(k - j):
                tpart = tpart * Cyc.t_power(1) * steps
            coeff = zfac * binom(k, j) * tpart
            out.add_term(e, j, v * coeff)
    return out


def series_eq(a: LogSeries, b: LogSeries, ceiling=None):
    """Exact comparison inside the common ceiling, and up to ceiling.

    Returns None when equal, else a witness tuple (e, k, left, right) for
    the first mismatch in (e, k) order, None standing for a missing term
    (a stored term is never an unflagged zero, so it mismatches).  Terms
    agree when neither is flagged and their canonical dicts are equal.
    """
    hi = _min_ceiling(_min_ceiling(a.ceiling, b.ceiling), ceiling)
    keys = set(a.terms) | set(b.terms)
    for (e, k) in sorted(keys, key=lambda t: (t[0], t[1])):
        if hi is not None and e > hi:
            continue
        va = a.terms.get((e, k))
        vb = b.terms.get((e, k))
        if va is None or vb is None or va.truncated or vb.truncated \
                or va.c != vb.c:
            return (e, k, va, vb)
    return None
