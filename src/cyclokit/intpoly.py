"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored little-endian: ``coeffs[i]`` is the coefficient of
X^i, with trailing zeros trimmed so the leading stored coefficient of a
nonzero polynomial is never zero. The zero polynomial is the empty tuple;
its degree is -inf, which compares below every integer and keeps degree
bounds free of special cases.

ScaledPoly pairs an IntPoly numerator with a positive integer denominator
and keeps gcd(content, den) = 1, so every rational-coefficient result
(Bezout cofactors, modular inverses) has exactly one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

NEG_INF = float("-inf")


class NotCoprimeError(ValueError):
    """A Bezout inverse was requested for inputs sharing a factor."""


def _trimmed(coeffs) -> tuple[int, ...]:
    out = tuple(coeffs)
    end = len(out)
    while end > 0 and out[end - 1] == 0:
        end -= 1
    return out[:end]


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("IntPoly coefficients must be integers")
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> IntPoly:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def content(self) -> int:
        """gcd of all coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def evaluate(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def scalar_div_exact(self, g: int) -> IntPoly:
        if any(c % g for c in self.coeffs):
            raise ValueError(f"coefficients not divisible by {g}")
        return IntPoly(tuple(c // g for c in self.coeffs))

    def to_decimal_strings(self) -> list[str]:
        """Little-endian decimal-string form used by the CLI."""
        return [str(c) for c in self.coeffs]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: IntPoly | int):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly('0')"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "X" if i == 1 else f"X^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + term)
        return f"IntPoly('{''.join(parts)}')"


def divrem_exact(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Euclidean division a = q*b + s by a monic divisor, deg s < deg b.

    Monic divisors keep every intermediate coefficient integral, which is
    all this library ever needs (divisions are by cyclotomic products).
    """
    if b.is_zero:
        raise ValueError("division by the zero polynomial")
    if not b.is_monic:
        raise ValueError("divisor must be monic")
    db = b.degree
    r = list(a.coeffs)
    if len(r) <= db:
        return IntPoly(()), a
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            q[k] = c
            for i, bc in enumerate(b.coeffs[:-1]):
                r[k + i] -= c * bc
        r[k + db] = 0
    return IntPoly(tuple(q)), IntPoly(tuple(r))


@dataclass(frozen=True)
class ScaledPoly:
    """An integer polynomial divided by a positive integer denominator."""

    num: IntPoly
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(den, int) or den == 0:
            raise ValueError("denominator must be a nonzero integer")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.content, den)
        if g > 1:
            num = num.scalar_div_exact(g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fractions(cls, fracs) -> ScaledPoly:
        fracs = [Fraction(f) for f in fracs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = tuple(int(f * den) for f in fracs)
        return cls(IntPoly(nums), den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def as_intpoly(self) -> IntPoly:
        if self.den != 1:
            raise ValueError(f"denominator {self.den} is not 1")
        return self.num

    def evaluate(self, q: int) -> Fraction:
        return Fraction(self.num.evaluate(q), self.den)

    def scaled(self, k: int) -> ScaledPoly:
        return ScaledPoly(self.num * k, self.den)

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_decimal_strings(), "den": str(self.den)}


def _ftrim(v: list[Fraction]) -> list[Fraction]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _fmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ftrim(out)


def _fsub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _ftrim(out)


def _fdivmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    dl = den[-1]
    r = list(num)
    if len(r) < len(den):
        return [], _ftrim(r)
    q = [Fraction(0)] * (len(r) - len(den) + 1)
    for k in range(len(r) - len(den), -1, -1):
        c = r[k + len(den) - 1] / dl
        if c:
            q[k] = c
            for i, dc in enumerate(den):
                r[k + i] -= c * dc
    return _ftrim(q), _ftrim(r)


def xgcd_rational(a: IntPoly, b: IntPoly) -> tuple[ScaledPoly, ScaledPoly]:
    """Canonical Bezout pair (U, V) with a*U + b*V = 1 over the rationals.

    The returned pair satisfies deg U < deg b and deg V < deg a, which pins
    it uniquely; inputs must be nonzero and coprime over Q.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("xgcd_rational requires nonzero inputs")
    af = [Fraction(c) for c in a.coeffs]
    bf = [Fraction(c) for c in b.coeffs]
    r0, r1 = af, bf
    s0, s1 = [Fraction(1)], []
    while r1:
        q, rem = _fdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _fsub(s0, _fmul(q, s1))
    if len(r0) != 1:
        raise NotCoprimeError("inputs share a factor of positive degree")
    c = r0[0]
    u = _fdivmod([x / c for x in s0], bf)[1]
    v, rem = _fdivmod(_fsub([Fraction(1)], _fmul(af, u)), bf)
    if rem:
        raise ArithmeticError("Bezout residual does not divide exactly")
    return ScaledPoly.from_fractions(u), ScaledPoly.from_fractions(v)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    # lc(b)^(deg a - deg b + 1) * a = q*b + r with deg r < deg b
    d = b.leading
    e = a.degree - b.degree + 1
    r = a
    while not r.is_zero and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * d - b * IntPoly.monomial(shift, r.leading)
        e -= 1
    if e:
        r = r * (d**e)
    return r


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Sylvester-matrix resultant of a and b, computed fraction-free.

    Uses the subresultant remainder sequence, so all intermediates stay
    integral; the sign agrees with the Sylvester determinant, and
    resultant(a, b) == (-1)**(deg a * deg b) * resultant(b, a).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant requires nonzero inputs")
    s = 1
    A, B = a, b
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -1
        A, B = B, A
    if B.degree == 0:
        return s * B.coeffs[0] ** A.degree
    ca, cb = A.content, B.content
    A = A.scalar_div_exact(ca)
    B = B.scalar_div_exact(cb)
    t = ca**B.degree * cb**A.degree
    g = h = 1
    while B.degree > 0:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -s
        rem = _pseudo_rem(A, B)
        A = B
        if rem.is_zero:
            return 0
        B = rem.scalar_div_exact(g * h**delta)
        g = A.leading
        if delta == 1:
            h = g
        elif delta > 1:
            h, r2 = divmod(g**delta, h ** (delta - 1))
            if r2:
                raise ArithmeticError("subresultant h-update does not divide exactly")
    ell = B.coeffs[0]
    dA = A.degree
    hf, r2 = divmod(ell**dA, h ** (dA - 1))
    if r2:
        raise ArithmeticError("subresultant final step does not divide exactly")
    return s * t * hf
