"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored little-endian: ``coeffs[i]`` is the coefficient of
X^i, with trailing zeros trimmed so the leading stored coefficient of a
nonzero polynomial is never zero. The zero polynomial is the empty tuple;
its degree is -inf, which compares below every integer and keeps degree
bounds free of special cases.

ScaledPoly pairs an IntPoly numerator with a positive integer denominator
and keeps gcd(content, den) = 1, so every rational-coefficient result
(Bezout cofactors, modular inverses) has exactly one representation.

Arithmetic over Q never leaves Z[X]: one fraction-free pseudo-division,
``_pseudo_divrem``, is the only long division. It serves ``divrem_exact``
(a monic divisor, scale 1), the subresultant ``resultant`` and the Bezout
pairs of ``xgcd_rational``, which run Euclid on primitive remainders and
keep one denominator per cofactor in a ScaledPoly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    all this library ever needs (cyclotomic products and field moduli).
    """
    if b.is_zero:
        raise ValueError("division by the zero polynomial")
    if not b.is_monic:
        raise ValueError("divisor must be monic")
    _, q, r = _pseudo_divrem(a.coeffs, b.coeffs)  # scale 1: b is monic
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

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def scaled(self, k: int) -> ScaledPoly:
        return ScaledPoly(self.num * k, self.den)

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_decimal_strings(), "den": str(self.den)}


def _pseudo_divrem(a, b) -> tuple[int, list[int], list[int]]:
    """Pseudo-division of little-endian int lists: (scale, Q, R).

    scale*a = Q*b + R with deg R < deg b and
    scale = lc(b)^max(deg a - deg b + 1, 0), so every step stays integral.
    b must be nonzero with a nonzero last entry; a monic b skips the scaling.
    """
    db = len(b) - 1
    lc = b[-1]
    steps = max(len(a) - db, 0)
    low = [(i, bc) for i, bc in enumerate(b[:-1]) if bc]  # cyclotomics and moduli are sparse
    r = list(a)
    q = [0] * steps
    for k in range(steps - 1, -1, -1):
        # lc*r - c*X^k*b cancels the top term c*X^(k+db)
        c = r.pop()
        if lc != 1:
            r = [x * lc for x in r]
        if c:
            q[k] = c
            for i, bc in low:
                r[k + i] -= c * bc
    if lc == 1:
        return 1, q, r
    # q[k] was taken before the k later steps that scale everything by lc
    power = 1
    for k in range(steps):
        q[k] *= power
        power *= lc
    return power, q, r


def xgcd_rational(a: IntPoly, b: IntPoly) -> tuple[ScaledPoly, ScaledPoly]:
    """Canonical Bezout pair (U, V) with a*U + b*V = 1 over the rationals.

    The returned pair satisfies deg U < deg b and deg V < deg a, which pins
    it uniquely; inputs must be nonzero and coprime over Q.

    Fraction-free: Euclid runs on primitive integer remainders r_i, each
    pseudo-remainder divided by its content, and carries cofactors s_i with
    s_i*a = r_i (mod b).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("xgcd_rational requires nonzero inputs")
    r0, r1 = a, b
    s0, s1 = ScaledPoly(IntPoly.one()), ScaledPoly(IntPoly.zero())
    while r1:
        scale, q, rem = _pseudo_divrem(r0.coeffs, r1.coeffs)
        rem = IntPoly(rem)
        g = rem.content or 1
        s2 = ScaledPoly(
            s0.num * (scale * s1.den) - IntPoly(q) * s1.num * s0.den,
            s0.den * s1.den * g,
        )
        r0, r1 = r1, rem.scalar_div_exact(g)
        s0, s1 = s1, s2
    if r0.degree != 0:
        raise NotCoprimeError("inputs share a factor of positive degree")
    # deg s0 = deg b - deg r_{k-1} < deg b for the last remainder r_k = c,
    # so U = s0/c needs no reduction; b*V = 1 - a*U must divide exactly
    u = ScaledPoly(s0.num, s0.den * r0.coeffs[0])
    scale, q, rem = _pseudo_divrem((IntPoly.constant(u.den) - a * u.num).coeffs, b.coeffs)
    if any(rem):
        raise ArithmeticError("Bezout residual does not divide exactly")
    return u, ScaledPoly(IntPoly(q), scale * u.den)


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
        rem = IntPoly(_pseudo_divrem(A.coeffs, B.coeffs)[2])
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
