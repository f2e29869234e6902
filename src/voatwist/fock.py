"""Vacuum modules for affine Lie algebras, with exact vertex operators.

A monomial is a tuple of (generator index, mode) pairs acting on the
highest-weight vector, kept in canonical order: modes weakly decreasing
left to right (so a(-1) before b(-2)), ties broken by generator index.
A PBWVector is a finite linear combination of such monomials; its
coefficients are ints where integral and Fractions otherwise, or Cyc
scalars once an automorphism or branch shift has acted.  Mode actions keep
integral structure constants and central terms as ints, so the common
integral case never pays for Fraction arithmetic.

The module tracks a weight cutoff.  Results that would need monomials
beyond the cutoff get their ``truncated`` flag set; everything below the
cutoff is exact.  Vertex operator series are computed through the standard
iterate reconstruction

    Y(a(m)v, x) = sum_i C(m,i) [ (-x)^i a(m-i) Y(v,x) - (-x)^(m-i) Y(v,x) a(i) ]

down to Y(1, x) = id, and come back as LogSeries whose ceiling marks the
last exactly-known exponent.  Each monomial pair is expanded once, at the
largest ceiling asked for, and a mode reads its single coefficient straight
from that expansion (coefficient_at) without building a series.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CriticalLevel, DomainError, Unsupported
from .lie import LieAlgebra, LieElt
from .linalg import memo
from .scalars import binom, int_if_integral
from .series import LogSeries

__all__ = [
    "InducedModule",
    "PBWVector",
    "build_module",
]

F = Fraction


def monomial_weight(mono) -> int:
    return -sum(m for _g, m in mono)


def _canonical_key(gen, mode):
    return (-mode, gen)


class PBWVector:
    """Linear combination of canonical PBW monomials."""

    __slots__ = ("c", "truncated")

    def __init__(self, c=None, truncated=False):
        self.c = {}
        if c:
            for mono, coeff in c.items():
                if coeff:
                    self.c[mono] = coeff
        self.truncated = truncated

    def is_zero(self):
        return not self.c

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        out = dict(self.c)
        for mono, coeff in other.c.items():
            cur = out.get(mono)
            s = coeff if cur is None else cur + coeff
            if not s:
                out.pop(mono, None)
            else:
                out[mono] = s
        return PBWVector(out, self.truncated or other.truncated)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if not scalar:
            return PBWVector({}, self.truncated)
        return PBWVector({m: scalar * coeff for m, coeff in self.c.items()},
                         self.truncated)

    __mul__ = __rmul__

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        if not isinstance(other, PBWVector):
            return NotImplemented
        return (self - other).is_zero()

    def depth(self):
        """Largest monomial weight present."""
        return max((monomial_weight(m) for m in self.c), default=0)

    def weight_components(self):
        out = {}
        for mono, coeff in self.c.items():
            w = monomial_weight(mono)
            out.setdefault(w, {})[mono] = coeff
        return {w: PBWVector(d, self.truncated) for w, d in sorted(out.items())}

    def sorted_items(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "PBW(0)"
        bits = []
        for mono, coeff in self.sorted_items()[:6]:
            body = "".join(f"[{g}:{m}]" for g, m in mono) or "vac"
            bits.append(f"{coeff}*{body}")
        flag = " (truncated)" if self.truncated else ""
        return "PBW(" + " + ".join(bits) + (" ..." if len(self.c) > 6 else "") + f"){flag}"


class InducedModule:
    """Level-ell vacuum module for an affine algebra, up to a weight cutoff."""

    def __init__(self, algebra: LieAlgebra, level, cutoff, lam=0):
        self.algebra = algebra
        self.level = F(level)
        self.cutoff = F(cutoff)
        if F(lam) != 0:
            raise Unsupported("only the vacuum highest weight (lambda = 0) is built")
        self.lam = F(0)
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
        out = PBWVector()
        for gi, c in enumerate(elt.coords):
            if c:
                out = out + PBWVector({((gi, -1),): c})
        return out

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
        trunc = False

        def add(mono2, coeff):
            cur = acc.get(mono2)
            s = coeff if cur is None else cur + coeff
            if not s:
                acc.pop(mono2, None)
            else:
                acc[mono2] = s

        inner, t1 = self._act(gi, m, rest)
        trunc = trunc or t1
        for mono2, c2 in inner.items():
            sub, t2 = self._act(g1, m1, mono2)
            trunc = trunc or t2
            for mono3, c3 in sub.items():
                add(mono3, c2 * c3)
        br = self.algebra.bracket(self.algebra._basis_elt(gi),
                                  self.algebra._basis_elt(g1))
        for k, ck in enumerate(br.coords):
            if ck:
                ck = int_if_integral(ck)
                sub, t3 = self._act(k, m + m1, rest)
                trunc = trunc or t3
                for mono2, c2 in sub.items():
                    add(mono2, ck * c2)
        if m + m1 == 0 and m:
            pair = self.algebra.form(self.algebra._basis_elt(gi),
                                     self.algebra._basis_elt(g1))
            c = int_if_integral(m * pair * self.level)
            if c:
                add(rest, c)
        return acc, trunc

    def apply_mode(self, x, m: int, vec: PBWVector) -> PBWVector:
        """x(m) vec for x in the algebra (name, LieElt) and integer mode m."""
        coords = [(gi, int_if_integral(cg))
                  for gi, cg in enumerate(self._as_elt(x).coords) if cg]
        m = int(m)
        out = {}
        trunc = vec.truncated

        for mono, coeff in vec.c.items():
            for gi, cg in coords:
                sub, t = self._act(gi, m, mono)
                trunc = trunc or t
                for mono2, c2 in sub.items():
                    cur = out.get(mono2)
                    s = (cg * c2) * coeff if cur is None else cur + (cg * c2) * coeff
                    if not s:
                        out.pop(mono2, None)
                    else:
                        out[mono2] = s
        return PBWVector(out, trunc)

    # -- Sugawara Virasoro ------------------------------------------------

    @memo
    def _sugawara_pairs(self):
        h_vee = self.algebra.dual_coxeter()
        if self.level == -h_vee:
            raise CriticalLevel(
                f"level {self.level} equals minus the dual Coxeter number")
        dual = self.algebra.dual_basis()
        return (list(zip(self.algebra.basis(), dual)),
                F(1) / (2 * (self.level + h_vee)))

    def sugawara_mode(self, n: int):
        """The Virasoro operator L(n) as a callable on PBWVectors."""
        pairs, scale = self._sugawara_pairs()

        def act(vec: PBWVector) -> PBWVector:
            total = PBWVector({}, vec.truncated)
            for mono, coeff in vec.c.items():
                d = monomial_weight(mono)
                one = PBWVector({mono: coeff})
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
                        if tmp.is_zero() and not tmp.truncated:
                            continue
                        tmp = self.apply_mode(outer, om, tmp)
                        acc = acc + tmp
                total = total + scale * acc
            return total

        return act

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
        reader drops them."""
        key = (mv, mw)
        hit = self._vs_cache.get(key)
        if hit is not None and hit[0] >= ceiling:
            return hit[1]
        if not mv:
            res = {0: {mw: 1}}
            self._vs_cache[key] = (ceiling, res)
            return res
        (gi, m), rest = mv[0], mv[1:]
        acc = {}

        def add(e, mono, coeff):
            bucket = acc.setdefault(e, {})
            cur = bucket.get(mono)
            s = coeff if cur is None else cur + coeff
            if not s:
                bucket.pop(mono, None)
            else:
                bucket[mono] = s

        # sum 1: C(m,i) (-x)^i a(m-i) applied to Y(rest, x) mw
        sub = self._vs_mono(rest, mw, ceiling)
        for e2, vec in sub.items():
            i_max = ceiling - e2  # negative above the ceiling
            i = 0
            while i <= i_max:
                coeff = binom(m, i) if i % 2 == 0 else -binom(m, i)
                if coeff:
                    moved = self.apply_mode_dict(gi, m - i, vec)
                    for mono2, c2 in moved.items():
                        add(e2 + i, mono2, coeff * c2)
                i += 1
        # sum 2: -C(m,i) (-x)^(m-i) Y(rest, x) (a(i) mw)
        dw = monomial_weight(mw)
        for i in range(0, dw + 1):
            moved = self.apply_mode_dict(gi, i, {mw: 1})
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
                    for mono3, c3 in vec.items():
                        add(e, mono3, coeff * c2 * c3)
        res = {e: bucket for e, bucket in acc.items() if bucket and e <= ceiling}
        self._vs_cache[key] = (ceiling, res)
        return res

    def apply_mode_dict(self, gi, m, vec_dict):
        out = {}
        for mono, coeff in vec_dict.items():
            sub, _t = self._act(gi, int(m), mono)
            for mono2, c2 in sub.items():
                cur = out.get(mono2)
                s = c2 * coeff if cur is None else cur + c2 * coeff
                if not s:
                    out.pop(mono2, None)
                else:
                    out[mono2] = s
        return out

    def vertex_series(self, v: PBWVector, w: PBWVector, ceiling) -> LogSeries:
        """Y(v, x) w as a log-free LogSeries of PBWVectors, exact to ceiling."""
        ceiling = F(ceiling)
        if ceiling.denominator != 1:
            raise DomainError("untwisted vertex operators live on integer exponents")
        out = LogSeries(ceiling=ceiling)
        for mv, cv in v.c.items():
            for mw, cw in w.c.items():
                sub = self._vs_mono(mv, mw, int(ceiling))
                for e, vec in sub.items():
                    if e <= ceiling:
                        out.add_term(e, 0, (cv * cw) * PBWVector(dict(vec)))
        return out

    def coefficient_at(self, v: PBWVector, w: PBWVector, e) -> PBWVector:
        """The x^e coefficient of Y(v, x) w, read without building the series."""
        e = F(e)
        if e.denominator != 1:
            raise DomainError("untwisted vertex operators live on integer exponents")
        e = int(e)
        out = {}
        for mv, cv in v.c.items():
            for mw, cw in w.c.items():
                vec = self._vs_mono(mv, mw, e).get(e)
                if vec is None:
                    continue
                scale = cv * cw
                for mono, c in vec.items():
                    cur = out.get(mono)
                    s = scale * c if cur is None else cur + scale * c
                    if not s:
                        out.pop(mono, None)
                    else:
                        out[mono] = s
        return PBWVector(out)

    def vertex_operator_mode(self, v: PBWVector, n):
        """The mode v_(n): w -> coefficient of x^(-n-1) in Y(v, x) w."""
        e = -F(n) - 1
        return lambda w: self.coefficient_at(v, w, e)


def build_module(algebra: LieAlgebra, level, cutoff, lam=0) -> InducedModule:
    """Public constructor for the level-``level`` vacuum module."""
    return InducedModule(algebra, level, cutoff, lam)

