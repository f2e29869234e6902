"""Vacuum modules for affine Lie algebras, with exact vertex operators.

A monomial is a tuple of (generator index, mode) pairs acting on the
highest-weight vector, kept in canonical order: modes weakly decreasing
left to right (so a(-1) before b(-2)), ties broken by generator index.
A PBWVector (series.py, beside the series it is the coefficient of) is a
finite linear combination of such monomials; it stores each rational
coefficient as an int where integral and a Fraction otherwise, and Cyc
scalars once an automorphism or branch shift has acted.  Mode actions read
the algebra's structure table, whose integral structure constants and
central terms are ints, so the integral case pays for no Fraction product.

The module tracks a weight cutoff.  Results that would need monomials
beyond the cutoff get their ``truncated`` flag set; everything below the
cutoff is exact.  Vertex operator series are computed through the standard
iterate reconstruction

    Y(a(m)v, x) = sum_i C(m,i) [ (-x)^i a(m-i) Y(v,x) - (-x)^(m-i) Y(v,x) a(i) ]

down to one factor, where it has a closed form:

    Y(a(m)|0>, x) = d^(-m-1) a(x) / (-m-1)!,  so its x^e coefficient is
    C(e-m-1, -m-1) a(m-e),

read from the memoized mode action.  Series come back as LogSeries whose
ceiling marks the last exactly-known exponent.  Each monomial pair is
expanded once, at the largest ceiling asked for.  There is one mode reader,
vertex_operator_mode (coefficient_at calls it): it reads its single
coefficient without building a series, a one-factor monomial of v in closed
form and any other from its pair's expansion.

Both reads are integer sums: v and w are scaled by the lcm of their
denominators (no work when every coefficient is an int), the memoized
buckets are summed per exponent with int scales, and each sum is divided
once at the end, so the stored coefficients follow the scalar rule and are
kept without a copy (PBWVector.adopt, LogSeries.from_sums).  The buckets
are shared by every read, which never mutates them.  The Sugawara L(n) is
linear too: it sums the memoized image of each monomial, scaled by its
coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CriticalLevel, DomainError, Unsupported
from .lie import LieAlgebra, LieElt
from .linalg import memo
from .scalars import binom, clear_denominators, int_if_integral
from .series import LogSeries, PBWVector, accumulate, divided, monomial_weight, value_is_zero

__all__ = [
    "InducedModule",
    "build_module",
]

F = Fraction


def _canonical_key(gen, mode):
    return (-mode, gen)


class InducedModule:
    """Level-ell vacuum module for an affine algebra, up to a weight cutoff."""

    def __init__(self, algebra: LieAlgebra, level, cutoff, lam=0):
        self.algebra = algebra
        self.level = F(level)
        self.cutoff = int_if_integral(F(cutoff))
        if F(lam) != 0:
            raise Unsupported("only the vacuum highest weight (lambda = 0) is built")
        # memo fills _act_cache; it is created here so that its size can be
        # read on a module that never acted
        self._act_cache = {}
        self._vs_cache = {}

    # -- basic vectors --------------------------------------------------

    def vacuum(self) -> PBWVector:
        return PBWVector({(): 1})

    def current(self, name_or_elt) -> PBWVector:
        """The weight-one vector a(-1)|0> for a in the algebra."""
        elt = self._as_elt(name_or_elt)
        return PBWVector({((gi, -1),): c for gi, c in enumerate(elt.coords)})

    def _as_elt(self, x) -> LieElt:
        if isinstance(x, LieElt):
            return x
        return self.algebra.generator(x)

    @memo
    def basis(self, weight) -> list:
        """All canonical monomials of the given weight, deterministic order."""
        weight = int(weight)
        letters = []
        for m in range(-1, -weight - 1, -1):
            for gi in range(self.algebra.dim):
                letters.append((gi, m))
        letters.sort(key=lambda p: _canonical_key(*p))
        out = []

        def rec(prefix, start, rem):
            if rem == 0:
                out.append(tuple(prefix))
                return
            for idx in range(start, len(letters)):
                gi, m = letters[idx]
                if -m <= rem:
                    prefix.append((gi, m))
                    rec(prefix, idx, rem - (-m))
                    prefix.pop()

        rec([], 0, weight)
        return out

    def graded_dimension(self, weight) -> int:
        return len(self.basis(weight))

    # -- mode action ------------------------------------------------------

    @memo
    def _act(self, gi: int, m: int, mono):
        """b_gi(m) applied to one monomial: (dict mono->coeff, truncated)."""
        if not mono:
            if m >= 0:
                return {}, False
            return ({}, True) if -m > self.cutoff else ({((gi, m),): 1}, False)
        g1, m1 = mono[0]
        if m < 0 and _canonical_key(gi, m) <= _canonical_key(g1, m1):
            new = ((gi, m),) + mono
            if monomial_weight(new) > self.cutoff:
                return {}, True
            return {new: 1}, False
        rest = mono[1:]
        acc = {}
        inner, trunc = self._act(gi, m, rest)
        for mono2, c2 in inner.items():
            sub, t2 = self._act(g1, m1, mono2)
            trunc = trunc or t2
            accumulate(acc, sub, c2)
        struct, gram = self.algebra._tables()
        for k, ck in struct[gi][g1]:
            sub, t3 = self._act(k, m + m1, rest)
            trunc = trunc or t3
            accumulate(acc, sub, ck)
        if m + m1 == 0 and m and gram[gi][g1]:
            accumulate(acc, {rest: int_if_integral(m * gram[gi][g1] * self.level)})
        return acc, trunc

    def apply_mode(self, x, m: int, vec: PBWVector) -> PBWVector:
        """x(m) vec for x in the algebra (name, LieElt) and integer mode m."""
        coords = self._as_elt(x).terms()
        m = int(m)
        out = {}
        trunc = vec.truncated
        # summed inline, not through accumulate: the innermost loop of every
        # check, where a call per term adds 6% to the calls of a pass; for
        # the same reason _act's memo dict is read before calling it
        act, known = self._act, self._act_cache
        for mono, coeff in vec.c.items():
            for gi, cg in coords:
                hit = known.get((gi, m, mono))
                sub, t = act(gi, m, mono) if hit is None else hit
                trunc = trunc or t
                for mono2, c2 in sub.items():
                    cur = out.get(mono2)
                    s = (cg * c2) * coeff if cur is None else cur + (cg * c2) * coeff
                    if not s:
                        out.pop(mono2, None)
                    else:
                        out[mono2] = s
        return PBWVector.adopt(out, trunc)

    def expand_monomial(self, mono, split) -> dict:
        """Rebuild mono from the vacuum, rightmost factor first, with each
        factor (gi, m) replaced by the sum of scalar * x(m) over split(gi), a
        list of (key, scalar or None, x).  Returns {sum of keys: vector},
        without the keys whose vector cancels to an exact zero."""
        if not mono:
            return {0: self.vacuum()}
        (gi, m), rest = mono[0], mono[1:]
        parts = split(gi)
        out = {}
        for key, vec in self.expand_monomial(rest, split).items():
            for k2, scalar, x in parts:
                moved = self.apply_mode(x, m, vec)
                if value_is_zero(moved):
                    continue
                if scalar is not None:
                    moved = scalar * moved
                k = key + k2
                out[k] = out[k] + moved if k in out else moved
        return {key: vec for key, vec in out.items() if not value_is_zero(vec)}

    # -- Sugawara Virasoro ------------------------------------------------

    def require_noncritical(self):
        """Raise CriticalLevel at level -h_vee, where no Sugawara field exists."""
        if self.level == -self.algebra.dual_coxeter():
            raise CriticalLevel(
                f"level {self.level} equals minus the dual Coxeter number")

    @memo
    def _sugawara_pairs(self):
        self.require_noncritical()
        dual = self.algebra.dual_basis()
        return (list(zip(self.algebra.basis(), dual)),
                F(1) / (2 * (self.level + self.algebra.dual_coxeter())))

    def sugawara_mode(self, n: int):
        """The Virasoro operator L(n) as a callable on PBWVectors: the sum
        of the coefficients times the memoized images of the monomials."""
        self._sugawara_pairs()  # at the critical level, raise here

        def act(vec: PBWVector) -> PBWVector:
            out, trunc = {}, vec.truncated
            for mono, coeff in vec.c.items():
                image = self._sugawara_image(n, mono)
                accumulate(out, image.c, coeff)
                trunc = trunc or image.truncated
            return PBWVector.adopt(out, trunc)

        return act

    @memo
    def _sugawara_image(self, n, mono) -> PBWVector:
        """L(n) of one monomial: the scaled sum of the normally ordered
        products u_i(p) u^i(n - p) over the modes that can act on it."""
        pairs, scale = self._sugawara_pairs()
        one = PBWVector({mono: 1})
        d = monomial_weight(mono)
        acc = PBWVector()
        for j in range(n - d, d + 1):
            p, q = j, n - j
            for ui, udi in pairs:
                # normal order: smaller mode on the left, so the
                # larger-mode factor acts first
                if p <= q:
                    inner, im, outer, om = udi, q, ui, p
                else:
                    inner, im, outer, om = ui, p, udi, q
                tmp = self.apply_mode(inner, im, one)
                if value_is_zero(tmp):
                    continue
                acc = acc + self.apply_mode(outer, om, tmp)
        return scale * acc

    def central_charge(self) -> Fraction:
        h_vee = self.algebra.dual_coxeter()
        if self.level == -h_vee:
            raise CriticalLevel("no conformal structure at the critical level")
        return self.level * self.algebra.dim / (self.level + h_vee)

    @memo
    def conformal_vector(self) -> PBWVector:
        pairs, scale = self._sugawara_pairs()
        acc = PBWVector()
        for ui, udi in pairs:
            acc = acc + self.apply_mode(ui, -1, self.apply_mode(udi, -1, self.vacuum()))
        return scale * acc

    # -- vertex operators ---------------------------------------------------

    def _vs_mono(self, mv, mw, ceiling):
        """Series dict {int exponent: {mono: coeff}} for Y(mv, x) mw, exact
        for exponents <= ceiling.

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
            res = {0: {mw: 1}}
            self._vs_cache[key] = (ceiling, res)
            return res
        if len(mv) == 1:
            (gi, m), = mv
            # the exponents whose binomial is nonzero, in the order of the two
            # sums below: 0 up to the ceiling, then m down to m - wt(mw)
            res = {}
            for e in (*range(ceiling + 1),
                      *range(min(m, ceiling), m - monomial_weight(mw) - 1, -1)):
                hit = self._act_cache.get((gi, m - e, mw))
                moved = (self._act(gi, m - e, mw) if hit is None else hit)[0]
                if moved:
                    # _act's memo dict itself when the binomial is 1: never mutated
                    c = _one_factor(m, e)
                    res[e] = moved if c == 1 else {k: c * x for k, x in moved.items()}
            self._vs_cache[key] = (ceiling, res)
            return res
        (gi, m), rest = mv[0], mv[1:]
        acc = {}
        # sum 1: C(m,i) (-x)^i a(m-i) applied to Y(rest, x) mw
        sub = self._vs_mono(rest, mw, ceiling)
        for e2, vec in sub.items():
            for i in range(ceiling - e2 + 1):  # empty above the ceiling
                coeff = binom(m, i) if i % 2 == 0 else -binom(m, i)
                if coeff:
                    moved = self.apply_mode_dict(gi, m - i, vec)
                    if moved:
                        accumulate(acc.setdefault(e2 + i, {}), moved, coeff)
        # sum 2: -C(m,i) (-x)^(m-i) Y(rest, x) (a(i) mw)
        dw = monomial_weight(mw)
        for i in range(0, dw + 1):
            moved = self._act(gi, i, mw)[0]  # _act's memoized dict: never mutated
            if not moved:
                continue
            coeff = -binom(m, i) if (m - i) % 2 == 0 else binom(m, i)
            if not coeff:
                continue
            for mono2, c2 in moved.items():
                sub2 = self._vs_mono(rest, mono2, ceiling - (m - i))
                for e2, vec in sub2.items():
                    e = e2 + (m - i)
                    if e > ceiling:
                        continue
                    accumulate(acc.setdefault(e, {}), vec, coeff * c2)
        res = {e: bucket for e, bucket in acc.items() if bucket and e <= ceiling}
        self._vs_cache[key] = (ceiling, res)
        return res

    def apply_mode_dict(self, gi, m, vec_dict):
        out = {}
        for mono, coeff in vec_dict.items():
            sub, _t = self._act(gi, int(m), mono)
            accumulate(out, sub, coeff)
        return out

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        """Y(v, x) w as a log-free LogSeries of PBWVectors, exact to ceiling.

        The buckets of each exponent are summed in one dict with the int
        scales of v and w cleared of denominators, in the order and with
        the drops of a per-key sum, and divided once at the end."""
        ceiling = _integer_exponent(ceiling)
        (vc,), dv = clear_denominators((v.c,))
        (wc,), dw = clear_denominators((w.c,))
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
        return LogSeries.from_sums(sums, dv * dw, ceiling)

    def coefficient_at(self, v: PBWVector, w: PBWVector, e) -> PBWVector:
        """The x^e coefficient of Y(v, x) w (e an int or a Fraction), read
        through vertex_operator_mode."""
        return self.vertex_operator_mode(v, -e - 1)(w)

    def vertex_operator_mode(self, v: PBWVector, n):
        """The mode v_(n), n an int or a Fraction, as a reader: w -> the
        x^(-n-1) coefficient of Y(v, x) w.  The one untwisted mode read.

        Its first call clears v's denominators and takes its depth, for
        every target.  A one-factor monomial a(m)|0> of v is read in closed
        form from _act's memo, any other from its _vs_mono bucket, and the
        sum over cleared denominators is divided once, as in vertex_series.
        The result is flagged when v or w is, or when its weight, up to
        depth(v) + depth(w) + e, passes the cutoff, since the modes that
        build it lose what lies above."""
        plan = None

        def read(w: PBWVector) -> PBWVector:
            nonlocal plan
            if plan is None:
                e = _integer_exponent(-n - 1)
                (vc,), dv = clear_denominators((v.c,))
                # (mv, cv, None) reads _vs_mono; (mv, C cv, (gi, m - e)) reads
                # _act's memo dict directly, as apply_mode does; a zero
                # coefficient drops the monomial
                parts = []
                for mv, cv in vc.items():
                    if len(mv) != 1:
                        if mv or e == 0:  # Y(|0>, x) = id
                            parts.append((mv, cv, None))
                    elif c := _one_factor(mv[0][1], e):
                        parts.append((mv, c * cv, (mv[0][0], mv[0][1] - e)))
                plan = e, dv, v.depth() if vc else None, parts
            e, dv, depth, parts = plan
            (wc,), dw = clear_denominators((w.c,))
            out = {}
            known = self._act_cache
            for mv, cv, act in parts:
                for mw, cw in wc.items():
                    if act is None:
                        bucket = self._vs_mono(mv, mw, e).get(e)
                    else:
                        hit = known.get((*act, mw))
                        bucket = (self._act(*act, mw) if hit is None else hit)[0]
                    if bucket:
                        accumulate(out, bucket, cv * cw)
            deep = depth is not None and bool(wc) and depth + w.depth() + e > self.cutoff
            return PBWVector.adopt(divided(out, dv * dw),
                                   deep or v.truncated or w.truncated)

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
    """Public constructor for the level-``level`` vacuum module."""
    return InducedModule(algebra, level, cutoff, lam)

