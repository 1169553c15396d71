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
``_pseudo_divrem``, is the only long division. It scales the dividend once, then divides
it in one of three evaluation orders, chosen from the inputs: Horner's rule as one
``accumulate`` for a monic X - c; a loop over the divisor's nonzero terms, whose quotient
digits are exact divisions by the leading coefficient; or one packed bigint division, at
the one slot width the operands' sizes predict, kept only under an exact certificate. It
serves ``divrem_exact`` (a monic divisor, scale 1), the subresultant ``resultant`` and
the Bezout pairs of ``xgcd_rational``: Euclid on primitive int-list remainders, with one
denominator per cofactor, carries only the short cofactor, and an exact residual division
gives the other. ``_mul``, one packed bigint product, multiplies in Z[X], except that
``cyclotomic`` multiplies by the sparse X^d - 1 by shift and subtract, as a dense product
would be slower.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, repeat, zip_longest
from operator import add, mul, neg

NEG_INF = float("-inf")


class NotCoprimeError(ValueError):
    """A Bezout inverse was requested for inputs sharing a factor."""


class _Record:
    """Immutable record: the fields named in ``_fields``, set once by __init__, compared
    and hashed field-wise within one class; repr ``Name(field=value, ...)``.

    ``_assign`` is the only writer, so the instance ``__dict__`` holds exactly the
    fields, in order, and equality and hash read it at C speed. It writes through
    ``object.__setattr__``, which keeps the fields in the instance's inline values:
    a write through ``__dict__`` would build the dict at every construction.
    """

    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"record field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


_SLOT_TYPES = {array(t).itemsize: t for t in "bhilq"}  # signed, by size: 1, 2, 4, 8 bytes


def _sign_bits(size: int, count: int) -> int:
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * count, "little")


def _height(xs) -> int:  # max |x|, in two C passes
    return max(max(xs), -min(xs))


def _little(slots: array) -> array:
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _pack(xs, size: int) -> int:
    """sum(x * 2^(8*size*i)) for |x| < 2^(8*size-1), in linear time: little-endian two's-complement
    slots (an array for 1, 2, 4 or 8 bytes), then each slot with its sign bit set loses 2^(8*size)."""
    if typecode := _SLOT_TYPES.get(size):
        raw = _little(array(typecode, xs)).tobytes()
    else:
        raw = b"".join(x.to_bytes(size, "little", signed=True) for x in xs)
    u = int.from_bytes(raw, "little")
    return u - ((u & _sign_bits(size, len(xs))) << 1)


def _unpack(x: int, size: int, count: int) -> list[int] | None:
    """The count digits of x in base 2^(8*size), each in [-2^(8*size-1), 2^(8*size-1)); None if there
    are none. Each digit plus its slot's sign bit, with that bit then flipped, is its two's complement."""
    signs = _sign_bits(size, count)
    try:
        raw = ((x + signs) ^ signs).to_bytes(size * count, "little")
    except OverflowError:
        return None
    if typecode := _SLOT_TYPES.get(size):
        return _little(array(typecode, raw)).tolist()
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _mul(a, b) -> list[int]:
    """Product of little-endian int lists by Kronecker substitution: one bigint product
    of slots wide enough for any product coefficient and its sign, and for each factor."""
    if not a or not b:
        return []
    bound = (_height(a) or 1) * (_height(b) or 1) * min(len(a), len(b))
    size = min((s for s in _SLOT_TYPES if 8 * s > bound.bit_length()), default=bound.bit_length() // 8 + 1)
    return _unpack(_pack(a, size) * _pack(b, size), size, len(a) + len(b) - 1)


def _trimmed(coeffs) -> tuple[int, ...]:
    out = tuple(coeffs)
    end = len(out)
    while end > 0 and out[end - 1] == 0:
        end -= 1
    return out[:end]


class IntPoly(_Record):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        if not all(map(isinstance, coeffs, repeat(int))):
            raise TypeError("IntPoly coefficients must be integers")
        self._assign(_trimmed(coeffs))

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int) -> IntPoly:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (1,))

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
        return math.gcd(*self.coeffs)

    def evaluate(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def scalar_div_exact(self, g: int) -> IntPoly:
        if not self.coeffs:
            return self
        quotients, remainders = zip(*map(divmod, self.coeffs, repeat(g)))
        if any(remainders):
            raise ValueError(f"coefficients not divisible by {g}")
        return IntPoly(quotients)

    def to_decimal_strings(self) -> list[str]:
        """Little-endian decimal-string form used by the CLI."""
        return list(map(str, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly((*map(add, a, b), *a[len(b) :]))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(map(neg, self.coeffs)))

    def __mul__(self, other: IntPoly | int):
        if isinstance(other, int):
            return IntPoly(tuple(map(mul, self.coeffs, repeat(other))))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(tuple(_mul(self.coeffs, other.coeffs)))

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


class ScaledPoly(_Record):
    """An integer polynomial divided by a positive integer denominator."""

    _fields = ("num", "den")

    def __init__(self, num: IntPoly, den: int = 1):
        if not isinstance(den, int) or den == 0:
            raise ValueError("denominator must be a nonzero integer")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.content, den)
        if g > 1:
            num = num.scalar_div_exact(g)
            den //= g
        self._assign(num, den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def scaled(self, k: int) -> ScaledPoly:
        return ScaledPoly(self.num * k, self.den)

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_decimal_strings(), "den": str(self.den)}


# Measured on the theorem-1 sweep's divisions by other than X - c: below 8 loop updates per
# dividend slot, as in Euclid's short steps over Q, packing costs more than it saves; from 8
# to 32 updates the packed division is 2-4 times faster.
_PACKED_DIVISION_MIN_WORK = 8


def _pseudo_divrem(a, b) -> tuple[int, list[int], list[int]]:
    """Pseudo-division of little-endian int lists: (scale, Q, R).

    scale*a = Q*b + R with deg R < deg b and
    scale = lc(b)^max(deg a - deg b + 1, 0), so every step stays integral;
    Q has one entry per step. b must be nonzero with a nonzero last entry.
    Every evaluation order divides the same once-scaled dividend scale*a by b.

    A monic X - c takes Horner's rule: the partial values of one ``accumulate`` from the
    top of a are Q, top digit first, then R = a(c). Otherwise the loop makes steps*len(low)
    updates and takes each quotient digit as an exact division by lc(b). From
    ``_PACKED_DIVISION_MIN_WORK`` updates per dividend slot, one packed division comes
    first, at the narrowest w of 8, 16, 32 or 64 bits whose slots hold (max|scale*a| +
    sum|b|)*sum|b|, a guess at max|Q|*sum|b|; if none does, or its certificate fails, the
    loop runs. Q and R are the balanced w-bit digits of Qi = round(A/B) and
    A - Qi*B, for A, B the packed scale*a and b. They are kept only if
    max|Q|*sum|b| + max|R| + max|scale*a| < 2^w: P = Q*b + R - scale*a is zero at 2^w,
    so its lowest nonzero coefficient would be a multiple of 2^w, and none is. Then
    P = 0, and Q, R are the unique pseudo-quotient and remainder.
    """
    db = len(b) - 1
    lc = b[-1]
    if db == 1 and lc == 1:  # h_k = c*h_(k+1) + a_k for b = X - c
        h = list(accumulate(reversed(a), add if b[0] == -1 else lambda acc, x: x - b[0] * acc))
        return 1, h[-2::-1], h[-1:]
    steps = max(len(a) - db, 0)
    scale = lc**steps
    if scale != 1:
        a = list(map(mul, a, repeat(scale)))
    low = [(i, bc) for i, bc in enumerate(b[:-1]) if bc]  # cyclotomics and moduli are sparse
    if steps and steps * len(low) >= _PACKED_DIVISION_MIN_WORK * len(a):
        top, norm = _height(a), sum(map(abs, b))
        bits = ((top + norm) * norm).bit_length()
        if size := next((s for s in _SLOT_TYPES if bits < 8 * s), 0):
            A, B = _pack(a, size), _pack(b, size)
            qi, ri = divmod(A + (B >> 1), B)  # qi = round(A/B), ri = A - qi*B + (B >> 1)
            q, r = _unpack(qi, size, steps), _unpack(ri - (B >> 1), size, db)
            if None not in (q, r) and _height(q) * norm + _height(r) + top < 1 << (8 * size):
                return scale, q, r
    r = list(a)
    q = [0] * steps
    for k in range(steps - 1, -1, -1):
        # lc^(k+1) divides every entry of r, as it does scale*a; subtracting (c/lc)*X^k*b
        # cancels the top term c*X^(k+db) and leaves a multiple of lc^k
        c = r.pop()
        if c:
            q[k] = c = c // lc
            for i, bc in low:
                r[k + i] -= c * bc
    return scale, q, r


def xgcd_rational(a: IntPoly, b: IntPoly) -> tuple[ScaledPoly, ScaledPoly]:
    """Canonical Bezout pair (U, V) with a*U + b*V = 1 over the rationals.

    The returned pair satisfies deg U < deg b and deg V < deg a, which pins
    it uniquely; inputs must be nonzero and coprime over Q.

    Fraction-free: Euclid runs on primitive integer remainders r_i, each
    pseudo-remainder divided by its content, and carries cofactors
    s_i = num_i/den_i with s_i*a = r_i (mod b), all as int lists; the
    cofactor is kept reduced by gcd(content, den) at every step. Inputs with
    deg a < deg b are swapped first, so s_i is the short cofactor, of degree
    below the smaller input degree; the residual division gives the other.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("xgcd_rational requires nonzero inputs")
    swapped = a.degree < b.degree
    if swapped:
        a, b = b, a
    r0, r1 = a.coeffs, b.coeffs
    s0, d0, s1, d1 = [1], 1, [], 1
    while r1:
        scale, q, rem = _pseudo_divrem(r0, r1)
        g = math.gcd(*rem) or 1
        # s2 = (scale*s0 - q*s1) / g over the common denominator d0*d1
        k, d2 = scale * d1, d0 * d1 * g
        s2 = [k * x - d0 * y for x, y in zip_longest(s0, _mul(q, s1), fillvalue=0)]
        h = math.gcd(d2, *s2)
        r0, r1 = r1, _trimmed(c // g for c in rem)
        s0, d0, s1, d1 = s1, d1, [c // h for c in s2], d2 // h
    if len(r0) != 1:
        raise NotCoprimeError("inputs share a factor of positive degree")
    # deg s0 = deg b - deg r_{k-1} < deg b for the last remainder r_k = c,
    # so U = s0/c needs no reduction; b*V = den - a*U must divide exactly
    u = ScaledPoly(IntPoly(s0), d0 * r0[0])
    residual = list(map(neg, _mul(a.coeffs, u.num.coeffs))) or [0]
    residual[0] += u.den
    scale, q, rem = _pseudo_divrem(residual, b.coeffs)
    if any(rem):
        raise ArithmeticError("Bezout residual does not divide exactly")
    v = ScaledPoly(IntPoly(q), scale * u.den)
    return (v, u) if swapped else (u, v)


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
