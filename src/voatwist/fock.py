"""Vacuum modules for affine Lie algebras, with exact vertex operators.

A monomial is a codec str (series.py), one code point per factor
(generator index, mode) acting on the highest-weight vector, with "" the
vacuum.  Its factors are kept in canonical order: modes weakly decreasing
left to right (so a(-1) before b(-2)), ties broken by generator index.
A mode action prepends a factor's code or peels the leftmost one
(mono[1:]), and only the codec decodes a factor.  A PBWVector (series.py,
beside the series it is the coefficient of) is a finite linear
combination of such monomials; it stores each rational
coefficient as an int where integral and a Fraction otherwise, and Cyc
scalars once an automorphism or branch shift has acted.  Mode actions read
the algebra's memoized structure table (LieAlgebra._tables), whose integral
structure constants and central terms are ints, so the integral case pays
for no Fraction product.  add_mode is the one kernel that sums a mode
action into a coefficient dict.

Every value is exact: the module is the whole vacuum module, and a mode
action, vertex-operator read or Sugawara mode builds every monomial it
needs, whatever its weight.  The module keeps the weight cutoff it was
declared with, but no value depends on it.  The memoized mode action b(m)
on one monomial is its image alone, frozen as a tuple of (monomial,
coefficient) pairs in the order its sum produced them; an exact zero is
the shared empty tuple ZERO.

That memo is kept by hand in rows, _act_cache[gi, m] mapping a monomial
to the image of b_gi(m) on it: unlike linalg.memo, it keeps no (gi, m,
mono) key tuple per entry.  It and _vs_cache, the vertex-operator memo,
hold every mode action and vertex-operator series the module keeps.

Vertex operator series are computed through the standard iterate
reconstruction

    Y(a(m)v, x) = sum_i C(m,i) [ (-x)^i a(m-i) Y(v,x) - (-x)^(m-i) Y(v,x) a(i) ]

down to one factor, where it has a closed form:

    Y(a(m)|0>, x) = d^(-m-1) a(x) / (-m-1)!,  so its x^e coefficient is
    C(e-m-1, -m-1) a(m-e),

read from the memoized mode action.  A read to ceiling c comes back as a
LogSeries holding exactly its terms at or below c.  Each monomial pair is
expanded once, at the largest ceiling asked for.  There is one mode reader,
vertex_operator_mode: it reads its single coefficient without building a
series, a one-factor monomial of v in closed form and any other from its
pair's expansion.

Both reads are integer sums: v and w are scaled by the lcm of their
denominators (no work when every coefficient is an int), the memoized
buckets are summed per exponent with int scales, and each sum is divided
once at the end, so the stored coefficients follow the scalar rule and are
kept without a copy (PBWVector.adopt, LogSeries.from_sums).  The series'
sum is its own integral reader, vertex_sums, which takes the cleared
coefficient dicts and returns the sums undivided; the shift-conjugation
check reads it for its left side, and sums its right side straight from
the _vs_mono buckets.  The Sugawara L(n) is the mode omega_(n+1) of the
conformal vector, read by vertex_operator_mode like any other.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CriticalLevel, DomainError, Unsupported
from .lie import LieAlgebra, LieElt
from .linalg import memo
from .scalars import binom, clear_denominators, int_if_integral
from .series import (MAX_GENERATORS, LogSeries, PBWVector, accumulate,
                     divided, factor, factor_code, monomial_weight)

__all__ = [
    "InducedModule",
    "build_module",
]

F = Fraction


# the image _act shares for every exact zero
ZERO = ()


class InducedModule:
    """Level-ell vacuum module for an affine algebra.  The declared weight
    cutoff is kept as cutoff; no value depends on it."""

    def __init__(self, algebra: LieAlgebra, level, cutoff, lam=0):
        self.algebra = algebra
        self.level = F(level)
        self.cutoff = int_if_integral(F(cutoff))
        if F(lam) != 0:
            raise Unsupported("only the vacuum highest weight (lambda = 0) is built")
        if algebra.dim > MAX_GENERATORS:
            raise DomainError(f"a module's monomials encode {MAX_GENERATORS} "
                              f"generators, not the {algebra.dim} of this "
                              "algebra: type A up to rank 31")
        # _act fills _act_cache; it is created here so that its size can be
        # read on a module that never acted
        self._act_cache = {}
        self._vs_cache = {}

    # -- basic vectors --------------------------------------------------

    def vacuum(self) -> PBWVector:
        return PBWVector({"": 1})

    def current(self, name_or_elt) -> PBWVector:
        """The weight-one vector a(-1)|0> for a in the algebra."""
        elt = self._as_elt(name_or_elt)
        return PBWVector({factor_code(gi, -1): c for gi, c in enumerate(elt.coords)})

    def _as_elt(self, x) -> LieElt:
        if isinstance(x, LieElt):
            return x
        return self.algebra.generator(x)

    @memo
    def basis(self, weight) -> list:
        """All canonical monomials of the given weight, deterministic order."""
        weight = int(weight)
        # each factor's code and weight, in canonical order
        letters = [(factor_code(gi, -d), d) for d in range(1, weight + 1)
                   for gi in range(self.algebra.dim)]
        out = []

        def rec(prefix, start, rem):
            if rem == 0:
                out.append(prefix)
                return
            for idx in range(start, len(letters)):
                code, d = letters[idx]
                if d <= rem:
                    rec(prefix + code, idx, rem - d)

        rec("", 0, weight)
        return out

    def graded_dimension(self, weight) -> int:
        return len(self.basis(weight))

    # -- mode action ------------------------------------------------------

    def _freeze(self, terms: dict):
        """The pairs of the coefficient dict terms, in its order, as a tuple
        (ZERO when terms is empty)."""
        return tuple(terms.items()) if terms else ZERO

    def _act(self, gi: int, m: int, mono):
        """b_gi(m) applied to one monomial, read from its memo row
        _act_cache[gi, m], which maps a monomial to its frozen image; on a
        miss the image is computed (_image) and stored."""
        try:
            return self._act_cache[gi, m][mono]
        except KeyError:
            pass
        image = self._image(gi, m, mono)
        self._act_cache.setdefault((gi, m), {})[mono] = image
        return image

    def _image(self, gi: int, m: int, mono):
        """b_gi(m) applied to one monomial: a frozen image (_freeze), ZERO
        for an exact zero."""
        if not mono:
            return ZERO if m >= 0 else self._freeze({factor_code(gi, m): 1})
        g1, m1 = factor(mono[0])
        # canonical order: gi(m) goes first when its mode is larger, or
        # equal with gi no larger
        if m < 0 and (m > m1 or m == m1 and gi <= g1):
            return self._freeze({factor_code(gi, m) + mono: 1})
        rest = mono[1:]
        acc = {}
        for mono2, c2 in self._act(gi, m, rest):
            accumulate(acc, self._act(g1, m1, mono2), c2)
        struct, gram = self.algebra._tables()
        for k, ck in struct[gi][g1]:
            accumulate(acc, self._act(k, m + m1, rest), ck)
        if m + m1 == 0 and m and gram[gi][g1]:
            accumulate(acc, ((rest, int_if_integral(m * gram[gi][g1] * self.level)),))
        return self._freeze(acc)

    def add_mode(self, coords, m: int, terms, scale=None) -> dict:
        """scale * x(m) terms as a fresh dict: x given by its nonzero
        (generator index, coordinate) pairs coords, m an int, terms
        (monomial, coefficient) pairs such as a dict's items(), and no
        scale meaning 1 (so nothing is multiplied by it).  Each sum is
        stored under accumulate's scalar rule.  The one mode-action kernel:
        apply_mode and the shift stages (delta.py) sum through it.

        Summed inline, not through accumulate: this is the innermost loop
        of every check, and one accumulate call per monomial and generator
        costs the conjugation workload 5.5% more opcodes per pass (12.34 M
        against 11.70 M); for the same reason the memo row is indexed here
        (a list of the rows built once per call costs 3.5% more, since most
        calls act on one monomial) and _act called on a miss.  Monomial by
        monomial, since summing generator by generator changes the scalar
        type an intermediate cancellation stores."""
        known = self._act_cache
        out = {}
        for mono, coeff in terms:
            if scale is not None:
                coeff = coeff * scale
            for gi, cg in coords:
                try:
                    sub = known[gi, m][mono]
                except KeyError:
                    sub = self._act(gi, m, mono)
                for mono2, c2 in sub:
                    s = out[mono2] + (cg * c2) * coeff if mono2 in out else (cg * c2) * coeff
                    if not s:
                        out.pop(mono2, None)
                    elif type(s) is Fraction and s.denominator == 1:
                        out[mono2] = s.numerator
                    else:
                        out[mono2] = s
        return out

    def apply_mode(self, x, m: int, vec: PBWVector) -> PBWVector:
        """x(m) vec for x in the algebra (name, LieElt) and integer mode m."""
        coords = self._as_elt(x).terms()
        return PBWVector.adopt(self.add_mode(coords, int(m), vec.c.items()))

    def expand_monomial(self, mono, split) -> dict:
        """Rebuild mono from the vacuum, rightmost factor first, with each
        factor (gi, m) replaced by the sum of scalar * x(m) over split(gi), a
        list of (key, scalar or None, x).  Returns {sum of keys: vector},
        without the keys whose vector cancels to an exact zero."""
        if not mono:
            return {0: self.vacuum()}
        (gi, m), rest = factor(mono[0]), mono[1:]
        parts = split(gi)
        out = {}
        for key, vec in self.expand_monomial(rest, split).items():
            for k2, scalar, x in parts:
                moved = self.apply_mode(x, m, vec)
                if not moved.c:
                    continue
                if scalar is not None:
                    moved = scalar * moved
                k = key + k2
                out[k] = out[k] + moved if k in out else moved
        return {key: vec for key, vec in out.items() if vec.c}

    # -- Sugawara Virasoro ------------------------------------------------

    def require_noncritical(self):
        """Raise CriticalLevel at level -h_vee, where no Sugawara field exists."""
        if self.level == -self.algebra.dual_coxeter():
            raise CriticalLevel(
                f"level {self.level} equals minus the dual Coxeter number")

    def sugawara_mode(self, n: int):
        """The Virasoro operator L(n) = omega_(n+1), the mode of the
        conformal vector, as a reader on PBWVectors (vertex_operator_mode)."""
        return self.vertex_operator_mode(self.conformal_vector(), n + 1)

    def central_charge(self) -> Fraction:
        self.require_noncritical()
        return self.level * self.algebra.dim / (self.level + self.algebra.dual_coxeter())

    @memo
    def conformal_vector(self) -> PBWVector:
        """The Sugawara vector
        omega = 1/(2(k + h_vee)) sum_i u_i(-1) u^i(-1)|0>
        over a basis u_i and its dual basis u^i."""
        self.require_noncritical()
        alg = self.algebra
        acc = PBWVector()
        for ui, udi in zip(alg.basis(), alg.dual_basis()):
            acc = acc + self.apply_mode(ui, -1, self.apply_mode(udi, -1, self.vacuum()))
        return F(1) / (2 * (self.level + alg.dual_coxeter())) * acc

    # -- vertex operators ---------------------------------------------------

    def _vs_mono(self, mv, mw, ceiling):
        """Series dict {int exponent: bucket} for Y(mv, x) mw, exact for
        exponents <= ceiling, each bucket a frozen tuple of (monomial,
        coefficient) pairs, as _act's images are.

        A coefficient does not depend on the ceiling it was computed at, so
        each pair keeps one memo entry, at the largest ceiling asked for so
        far.  The dict may therefore hold exponents above ceiling: every
        reader drops them.  The iterate recursion peels the leftmost factor
        and ends at one factor, whose coefficients are read from _act's memo
        in closed form (_one_factor)."""
        key = (mv, mw)
        hit = self._vs_cache.get(key)
        if hit is not None and hit[0] >= ceiling:
            return hit[1]
        if not mv:
            res = {0: self._freeze({mw: 1})}
            self._vs_cache[key] = (ceiling, res)
            return res
        if len(mv) == 1:
            gi, m = factor(mv)
            # the exponents whose binomial is nonzero, in the order of the two
            # sums below: 0 up to the ceiling, then m down to m - wt(mw)
            res = {}
            for e in (*range(ceiling + 1),
                      *range(min(m, ceiling), m - monomial_weight(mw) - 1, -1)):
                moved = self._act(gi, m - e, mw)
                if moved:
                    # _act's image itself when the binomial is 1
                    c = _one_factor(m, e)
                    if c == 1:
                        res[e] = moved
                    else:
                        bucket = {}
                        accumulate(bucket, moved, c)
                        res[e] = self._freeze(bucket)
            self._vs_cache[key] = (ceiling, res)
            return res
        (gi, m), rest = factor(mv[0]), mv[1:]
        acc = {}
        # sum 1: C(m,i) (-x)^i a(m-i) applied to Y(rest, x) mw
        sub = self._vs_mono(rest, mw, ceiling)
        for e2, vec in sub.items():
            for i in range(ceiling - e2 + 1):  # empty above the ceiling
                coeff = binom(m, i) if i % 2 == 0 else -binom(m, i)
                if coeff:
                    moved = self.apply_mode_dict(gi, m - i, vec)
                    if moved:
                        accumulate(acc.setdefault(e2 + i, {}), moved.items(), coeff)
        # sum 2: -C(m,i) (-x)^(m-i) Y(rest, x) (a(i) mw)
        dw = monomial_weight(mw)
        for i in range(0, dw + 1):
            moved = self._act(gi, i, mw)
            if not moved:
                continue
            coeff = -binom(m, i) if (m - i) % 2 == 0 else binom(m, i)
            if not coeff:
                continue
            for mono2, c2 in moved:
                sub2 = self._vs_mono(rest, mono2, ceiling - (m - i))
                for e2, vec in sub2.items():
                    e = e2 + (m - i)
                    if e > ceiling:
                        continue
                    accumulate(acc.setdefault(e, {}), vec, coeff * c2)
        res = {e: self._freeze(bucket) for e, bucket in acc.items() if bucket and e <= ceiling}
        self._vs_cache[key] = (ceiling, res)
        return res

    def apply_mode_dict(self, gi, m, terms):
        """b_gi(m) on the (monomial, coefficient) pairs terms, as a fresh dict.
        Summed through accumulate rather than add_mode, whose coordinate
        product 1 * c2 would build one more Fraction per Fraction term."""
        out = {}
        for mono, coeff in terms:
            accumulate(out, self._act(gi, int(m), mono), coeff)
        return out

    def vertex_sums(self, vc: dict, wc: dict, ceiling: int) -> dict:
        """The undivided sums of vertex_series: {e: {monomial: coefficient}}
        for Y(v, x) w at each int exponent e <= ceiling, v and w given by
        their coefficient dicts vc and wc (integral ones give integral sums).

        The memoized buckets are summed per exponent with the scales
        cv * cw, in the order and with the drops of a per-key sum; each sum
        is nonempty and fresh, and the caller may keep it."""
        sums = {}
        for mv, cv in vc.items():
            for mw, cw in wc.items():
                scale = cv * cw
                for e, bucket in self._vs_mono(mv, mw, ceiling).items():
                    if e > ceiling:
                        continue
                    acc = sums.get(e)
                    if acc is None:
                        acc = sums[e] = {}
                    accumulate(acc, bucket, scale)
                    if not acc:
                        del sums[e]
        return sums

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        """Y(v, x) w as a log-free LogSeries of PBWVectors, exact to ceiling:
        the vertex_sums of v and w cleared of denominators, each divided
        once."""
        ceiling = _integer_exponent(ceiling)
        (vc,), dv = clear_denominators((v.c,))
        (wc,), dw = clear_denominators((w.c,))
        return LogSeries.from_sums(self.vertex_sums(vc, wc, ceiling), dv * dw)

    def vertex_operator_mode(self, v: PBWVector, n):
        """The mode v_(n), n an int or a Fraction, as a reader: w -> the
        x^(-n-1) coefficient of Y(v, x) w.  The one untwisted mode read.

        v's denominators are cleared once, for every target.  A one-factor
        monomial a(m)|0> of v is read in closed form from _act's memo, any
        other from its _vs_mono bucket, and the sum over cleared
        denominators is divided once, as in vertex_series."""
        e = _integer_exponent(-n - 1)
        (vc,), dv = clear_denominators((v.c,))
        # (mv, cv, None) reads _vs_mono; (mv, C cv, (gi, m - e)) reads the
        # memo row of b_gi(m - e) directly, as apply_mode does; a zero
        # coefficient drops the monomial
        parts = []
        for mv, cv in vc.items():
            if len(mv) != 1:
                if mv or e == 0:  # Y(|0>, x) = id
                    parts.append((mv, cv, None))
                continue
            gi, m = factor(mv)
            if c := _one_factor(m, e):
                parts.append((mv, c * cv, (gi, m - e)))

        def read(w: PBWVector) -> PBWVector:
            (wc,), dw = clear_denominators((w.c,))
            out = {}
            for mv, cv, act in parts:
                row = None if act is None else self._act_cache.setdefault(act, {})
                for mw, cw in wc.items():
                    if row is None:
                        bucket = self._vs_mono(mv, mw, e).get(e)
                    else:
                        bucket = row.get(mw)
                        if bucket is None:
                            bucket = self._act(*act, mw)
                    if bucket:
                        accumulate(out, bucket, cv * cw)
            return PBWVector.adopt(divided(out, dv * dw))

        return read


def _one_factor(m: int, e: int) -> int:
    """C(e-m-1, -m-1), m < 0: the x^e coefficient of Y(a(m)|0>, x) =
    d^(-m-1) a(x) / (-m-1)! is this binomial times a(m-e)."""
    return binom(e - m - 1, -m - 1)


def _integer_exponent(x) -> int:
    """x as an int, building a Fraction only for an argument that is
    neither an int nor a Fraction."""
    if type(x) is not int:
        x = x if type(x) is Fraction else F(x)
        if x.denominator != 1:
            raise DomainError("untwisted vertex operators live on integer exponents")
        x = x.numerator
    return x


def build_module(algebra: LieAlgebra, level, cutoff, lam=0) -> InducedModule:
    """Public constructor for the level-``level`` vacuum module.

    Monomials are codec strs (series.py), which bounds two things: the
    algebra has at most MAX_GENERATORS generators (type A up to rank 31,
    else DomainError here), and a state has weight at most MAX_WEIGHT
    (1023): a mode action that would make a factor of mode below -1023
    raises DomainError."""
    return InducedModule(algebra, level, cutoff, lam)

