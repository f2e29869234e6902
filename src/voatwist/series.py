"""PBW monomials, and finite formal series in x^e (log x)^k of module
vectors.

A PBW monomial is a str with one code point per factor (generator index
gi, mode m), m < 0: chr(BASE + gi*SPAN + m + SPAN - 1).  The code is
monotone in (gi, m), so str order is the order of the (gi, m) pairs, and a
str caches its hash, so a shared monomial is hashed once and compared by
identity or memcmp in every dict it keys.  The empty str is the vacuum, a
prefix is mono[1:] and a prepend is code + mono.  The codec (factor_code,
monomial, factor, factors, monomial_weight) is the only code that knows
the layout; decoding goes through a table filled once per code.  It
encodes generator indices below MAX_GENERATORS (1032, up to sl_32) and
modes down to -MAX_WEIGHT (-1023), so every monomial of weight up to 1023;
factor_code raises DomainError past either limit.

A LogSeries is a finite sum sum_{(e,k)} c_{e,k} x^e (log x)^k where the
exponents e are rationals (stored as ints when integral, Fractions
otherwise, so an integral key costs no Fraction hashing), the log powers k
are nonnegative integers, and the coefficients c_{e,k} are PBWVectors:
finite combinations of PBW monomials with an ``is_zero`` test and scalar
action by rationals and cyclotomic-with-T scalars.  Every stored
coefficient is exact.  Series are stored sparsely as a dict keyed by
(e, k).  A map given on basis
monomials is extended by ``linear_image`` and ``linear_series``, the one
rule of every linear read: {b: int 1} gets image(b) itself, shared and
read-only.

Every series is built by one per-key sum: ``series_sum`` runs
``LogSeries.add_term`` on a stream of (e, k, coefficient dict, scale)
items, and ``accumulate`` is the one sum of (monomial, coefficient)
pairs under it, which stores each sum under the scalar rule (an integral
Fraction as an int).  ``series_combine`` (add), ``series_scale`` (scalar times a power
of x), ``series_derivative`` (d/dx), ``LogSeries.map_values`` and
``branch_shift`` (log x -> log x + T, x^e -> zeta^(D e) x^e, the formal
substitution that moves between analytic branches) are item streams into
it.  A series whose terms are already known to have distinct keys and no
zero is stored as it is: ``LogSeries.from_sums`` divides each per-key sum
of a log-free series once (``divided``) and keeps it without a copy
(``PBWVector.adopt``, which also keeps a vector sum built outside a
series), and the shift operator and the twisted reads store such terms
the same way.  ``expand_at_sum`` is the other formal substitution,
x -> x + y in x^e (log x)^k, as a memoized table of scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .scalars import Cyc, binom, int_if_integral

__all__ = [
    "MAX_GENERATORS",
    "MAX_WEIGHT",
    "LogSeries",
    "PBWVector",
    "branch_shift",
    "divided",
    "expand_at_sum",
    "factor",
    "factor_code",
    "factors",
    "lattice_point",
    "linear_image",
    "linear_series",
    "monomial",
    "monomial_weight",
    "series_combine",
    "series_derivative",
    "series_eq",
    "series_scale",
    "series_sum",
]


# BASE starts above the surrogate block, so every code is a character that
# encodes; a mode runs from 1 - SPAN to -1 and a generator index from 0 to
# MAX_GENERATORS - 1 (1031: the 1023 generators of sl_32 fit, not those of
# sl_33).  Every factor of a monomial of weight w has a mode of -w or above,
# so every monomial of weight up to MAX_WEIGHT (1023) encodes.
BASE = 0xE000
SPAN = 1024
MAX_GENERATORS = (0x110000 - BASE) // SPAN
MAX_WEIGHT = SPAN - 1


def factor_code(gi: int, m: int) -> str:
    """The one-character monomial gi(m)|0>, m < 0."""
    if not (0 <= gi < MAX_GENERATORS and -MAX_WEIGHT <= m < 0):
        raise DomainError(f"no PBW factor code for generator {gi} at mode {m}: "
                          f"generators run from 0 to {MAX_GENERATORS - 1}, "
                          f"modes from {-MAX_WEIGHT} to -1")
    return chr(BASE + gi * SPAN + m + SPAN - 1)


def monomial(*pairs) -> str:
    """The monomial of the (gi, m) factors pairs, in the order given."""
    return "".join([factor_code(gi, m) for gi, m in pairs])


class _Factors(dict):
    """(gi, m) of each factor code, decoded on its first lookup."""

    def __missing__(self, code):
        gi, r = divmod(ord(code) - BASE, SPAN)
        pair = self[code] = (gi, r + 1 - SPAN)
        return pair


_FACTORS = _Factors()
factor = _FACTORS.__getitem__  # (gi, m) of a one-factor monomial


def factors(mono) -> tuple:
    """The (gi, m) pairs of mono, left to right."""
    return tuple(map(factor, mono))


@lru_cache(maxsize=1 << 14)
def monomial_weight(mono) -> int:
    """The weight of mono, minus the sum of its modes: decoded once per
    monomial, in a bounded memo, so the monomials of a freed module are
    not kept alive by it."""
    return -sum([factor(code)[1] for code in mono])


def accumulate(out: dict, terms, scale=None) -> None:
    """Add scale * terms (terms itself if scale is None), an iterable of
    (monomial, coefficient) pairs such as a dict's items(), into the
    monomial-to-coefficient dict out, dropping the coefficients that
    cancel.  Each sum is stored under the scalar rule, an integral
    Fraction as an int, so a dict summed here is canonical as it stands."""
    for mono, c in terms:
        if scale is not None:
            c = scale * c
        if mono in out:
            c = out[mono] + c
        if not c:
            out.pop(mono, None)
        elif type(c) is Fraction and c.denominator == 1:
            out[mono] = c.numerator
        else:
            out[mono] = c


class PBWVector:
    """Linear combination of canonical PBW monomials, each a codec str
    acting on the highest-weight vector ("" is the vacuum).  The
    constructor stores each coefficient nonzero, and a rational one as an
    int where integral."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {}
        if c:
            for mono, coeff in c.items():
                if coeff:
                    self.c[mono] = int_if_integral(coeff)

    @classmethod
    def adopt(cls, c):
        """The vector whose dict is c itself, with no copy: c holds no zero,
        follows the scalar rule (as a dict summed by accumulate does) and
        is given up by the caller, who has just built it."""
        vec = cls.__new__(cls)
        vec.c = c
        return vec

    def is_zero(self):
        return not self.c

    def _plus(self, other, scale):
        out = dict(self.c)
        accumulate(out, other.c.items(), scale)
        return PBWVector.adopt(out)

    def __add__(self, other):
        return self._plus(other, None)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if not scalar:
            return PBWVector()
        return PBWVector({m: scalar * coeff for m, coeff in self.c.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        # every stored coefficient is nonzero, so equal dicts mean a zero
        # difference
        if not isinstance(other, PBWVector):
            return NotImplemented
        return self.c == other.c

    def depth(self):
        """Largest monomial weight present."""
        return max(map(monomial_weight, self.c), default=0)

    def sorted_items(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "PBW(0)"
        bits = []
        for mono, coeff in self.sorted_items()[:6]:
            body = "".join(f"[{g}:{m}]" for g, m in factors(mono)) or "vac"
            bits.append(f"{coeff}*{body}")
        return "PBW(" + " + ".join(bits) + (" ..." if len(self.c) > 6 else "") + ")"


def divided(terms: dict, den: int) -> dict:
    """The coefficients of terms/den under the scalar rule: an int where
    den divides, else a Fraction; a Cyc or a Fraction is divided as it is.
    At den 1 terms itself is returned."""
    if den == 1:
        return terms
    out = {}
    for mono, c in terms.items():
        if type(c) is int:
            q, r = divmod(c, den)
            out[mono] = Fraction(c, den) if r else q
        else:
            out[mono] = int_if_integral(c / den)
    return out


class LogSeries:
    """A finite x^e (log x)^k series."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (e, k), v in (terms or {}).items():
            self.add_term(e, k, v.c)

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, e, k, terms, scale=None):
        """Add scale * terms, a monomial-to-coefficient dict, into the
        x^e log^k coefficient, a vector the series owns.  A key whose sum
        cancels is removed, and comes back last if hit again."""
        key = (int_if_integral(e), k)
        vec = self.terms.get(key)
        if vec is None:
            vec = self.terms[key] = PBWVector()
        accumulate(vec.c, terms.items(), scale)
        if not vec.c:
            del self.terms[key]

    @classmethod
    def from_sums(cls, sums: dict, den: int) -> "LogSeries":
        """The log-free series sum_e (sums[e]/den) x^e, e an int: each
        sums[e] is a nonempty coefficient dict that the caller gives up,
        divided by den under the scalar rule and held without a copy."""
        out = cls()
        for e, terms in sums.items():
            out.terms[e, 0] = PBWVector.adopt(divided(terms, den))
        return out

    def map_values(self, fn) -> "LogSeries":
        """Apply fn to every coefficient (dropping zero results)."""
        images = ((key, fn(v)) for key, v in self.terms.items())
        return series_sum((e, k, w.c) for (e, k), w in images)

    def sorted_items(self):
        """Terms in deterministic (e, k) order."""
        return sorted(self.terms.items(), key=lambda it: (it[0][0], it[0][1]))

    def __repr__(self):
        parts = [f"x^{e}" + (f"*log^{k}" if k else "") for (e, k), _ in self.sorted_items()]
        return f"LogSeries({len(self.terms)} terms: {', '.join(parts[:6])}...)"


def series_sum(items) -> LogSeries:
    """The LogSeries of (e, k, terms) and (e, k, terms, scale) items, each
    added by LogSeries.add_term."""
    out = LogSeries()
    add = out.add_term
    for item in items:
        add(*item)
    return out


def _basis_monomial(vec: PBWVector):
    """b for the basis input {b: int 1}, else None."""
    if len(vec.c) == 1:
        [(mono, c)] = vec.c.items()
        return mono if type(c) is int and c == 1 else None
    return None


def linear_image(vec: PBWVector, image) -> PBWVector:
    """vec under the linear map with PBWVector images image(b): a fresh
    per-key sum of c * image(b)."""
    if (mono := _basis_monomial(vec)) is not None:
        return image(mono)
    out = {}
    for mono, c in vec.c.items():
        accumulate(out, image(mono).c.items(), c)
    return PBWVector.adopt(out)


def linear_series(vec: PBWVector, image) -> LogSeries:
    """linear_image for LogSeries images."""
    if (mono := _basis_monomial(vec)) is not None:
        return image(mono)
    return series_sum(((e, k, t.c, c)
                       for mono, c in vec.c.items()
                       for (e, k), t in image(mono).terms.items()))


def _items(a: LogSeries, scale=None, eshift=0):
    """a's terms as series_sum items, scaled and moved by x^eshift."""
    return ((e + eshift, k, v.c, scale) for (e, k), v in a.terms.items())


def series_combine(a: LogSeries, b: LogSeries) -> LogSeries:
    """The sum of two series."""
    return series_sum((*_items(a), *_items(b)))


def series_scale(a: LogSeries, scalar=1, eshift=0) -> LogSeries:
    """scalar * x^eshift * a."""
    return series_sum(_items(a, scalar, eshift))


def series_derivative(a: LogSeries) -> LogSeries:
    """Formal d/dx: x^e log^k -> e x^(e-1) log^k + k x^(e-1) log^(k-1)."""
    def items():
        for (e, k), v in a.terms.items():
            if e:
                yield e - 1, k, v.c, e
            if k:
                yield e - 1, k - 1, v.c, k

    return series_sum(items())


def lattice_point(e, order: int):
    """order * e as an int when the rational e (an int or a Fraction) lies
    on the 1/order lattice, None when it does not."""
    # e is in lowest terms: on the lattice iff its denominator divides order
    q, r = divmod(order, e.denominator)
    return None if r else e.numerator * q


def branch_shift(a: LogSeries, steps: int, order: int) -> LogSeries:
    """Move ``steps`` analytic branches: log x -> log x + steps*T and
    x^e -> zeta_order^(order*e*steps) x^e.

    Coefficients come back as Cyc-multiplied values.  Exponents must lie on
    the (1/order)-lattice, otherwise the declared order is wrong and a
    DomainError is raised.
    """
    def items():
        for (e, k), v in a.terms.items():
            scaled = lattice_point(e, order)
            if scaled is None:
                raise DomainError(f"exponent {e} is not on the 1/{order} lattice")
            zfac = Cyc.zeta(order, scaled * steps)
            if not k:
                yield e, 0, v.c, zfac
                continue
            for j in range(k + 1):
                # (log x + steps*T)^k: keep j log-powers, k-j copies of steps*T
                tpart = Cyc.of(1)
                for _ in range(k - j):
                    tpart = tpart * Cyc.t_power(1) * steps
                yield e, j, v.c, zfac * binom(k, j) * tpart

    return series_sum(items())


def _log_shift_powers(max_power: int, ceiling: int):
    # powers of log(x+y) - log(x) = sum_{i>=1} (-1)^(i+1) (y/x)^i / i,
    # each stored as {y-exponent: coefficient}; the x-exponent is minus
    # the y-exponent throughout
    powers = [{0: 1}]
    base = {i: Fraction((-1) ** (i + 1), i) for i in range(1, max(int(ceiling), 0) + 1)}
    for _p in range(max_power):
        prev, nxt = powers[-1], {}
        for i1, c1 in prev.items():
            accumulate(nxt, ((i1 + i2, c2) for i2, c2 in base.items() if i1 + i2 <= ceiling),
                       c1)
        powers.append(nxt)
    return powers


@lru_cache(maxsize=None)
def expand_at_sum(e, k, max_p):
    """x^e (log x)^k with x replaced by x + y.

    Returns {(j, p): scalar} for x^(e - p) (log x)^j y^p, exact for
    p <= max_p, its keys in ascending p (so a reader bounded in p stops at
    the first key past its bound).  Binomial expansion handles x^e, the
    alternating series for log(x+y) - log(x) (from _log_shift_powers)
    handles the log powers.  A pure function of its key, so each table is
    built once and shared: callers must not mutate it.  The
    shift-conjugation check reads D(x+y) v through it.
    """
    lpow = _log_shift_powers(k, max_p)
    out = {}
    for j in range(k + 1):
        ckj = binom(k, j)
        for il, cl in lpow[k - j].items():
            accumulate(out, (((j, i + il), binom(e, i)) for i in range(max_p - il + 1)),
                       ckj * cl)
    return dict(sorted(out.items(), key=lambda item: item[0][1]))


def series_eq(a: LogSeries, b: LogSeries):
    """Exact comparison.

    Returns None when equal, else a witness tuple (e, k, left, right) for
    the first mismatch in (e, k) order, None standing for a missing term
    (a stored term is never zero, so it mismatches).  Terms agree when
    their canonical dicts are equal.
    """
    if a.terms == b.terms:
        # compares each key by its stored hash, and values as below
        return None
    keys = set(a.terms) | set(b.terms)
    for (e, k) in sorted(keys, key=lambda t: (t[0], t[1])):
        va = a.terms.get((e, k))
        vb = b.terms.get((e, k))
        if va is None or vb is None or va.c != vb.c:
            return (e, k, va, vb)
    return None
