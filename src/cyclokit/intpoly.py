"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored little-endian: ``coeffs[i]`` is the coefficient of
X^i, with trailing zeros trimmed so the leading stored coefficient of a
nonzero polynomial is never zero. The zero polynomial is the empty tuple;
its degree is -inf, which compares below every integer and keeps degree
bounds free of special cases.

ScaledPoly pairs an IntPoly numerator with a positive integer denominator
and keeps gcd(content, den) = 1, so every rational-coefficient result
(Bezout cofactors, modular inverses) has exactly one representation.

Arithmetic over Q never leaves Z[X]: one fraction-free pseudo-division, ``_pseudo_divrem``,
is the only long division. It scales the dividend once and divides it in one of three orders
chosen from the inputs: Horner's rule as one ``accumulate`` for a monic X - c; a loop over the
divisor's nonzero terms, whose quotient digits are exact divisions by the leading coefficient;
or one packed bigint division, at the one slot width the operands' sizes predict, kept only
under an exact certificate. It serves ``divrem_exact`` (a monic divisor, scale 1), the
subresultant ``resultant`` on int lists, whose steps divide by ``_div_exact`` as ScaledPoly's
content does, and the Bezout pairs of ``xgcd_rational``: Euclid on primitive int-list
remainders, one denominator per cofactor, carries only the short cofactor and stops at the
first constant remainder, whose cofactor is U; an exact residual division gives the other.
``_mul`` multiplies in Z[X]: one C pass per nonzero term of a factor of at most
``_SHORT_FACTOR`` terms (a Euclid quotient, a constant), else one packed bigint product.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, repeat, zip_longest
from operator import add, floordiv, mul, neg

NEG_INF = float("-inf")


class PreconditionError(ValueError):
    """A mathematical precondition or resource ceiling was violated (CLI exit 3)."""


class NotCoprimeError(PreconditionError):
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


# Measured on inverse_sweep (2-core Xeon VM): 1 243 op/s, against 1 166 with every product
# packed and 1 017 with none; 1 to 4 terms are even within noise.
_SHORT_FACTOR = 3


def _mul(a, b) -> list[int]:
    """Product of little-endian int lists: for a factor of at most ``_SHORT_FACTOR`` terms, one
    C pass over the other per nonzero term, added into a slice of the output; else Kronecker
    substitution, one bigint product of slots that hold any product coefficient and each factor."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= _SHORT_FACTOR:
        out = [*map(mul, b, repeat(a[0])), *repeat(0, len(a) - 1)]
        for i, c in enumerate(a[1:], 1):
            if c:
                out[i : i + len(b)] = map(add, out[i : i + len(b)], map(mul, b, repeat(c)))
        return out
    bound = (_height(a) or 1) * (_height(b) or 1) * len(a)
    size = min((s for s in _SLOT_TYPES if 8 * s > bound.bit_length()), default=bound.bit_length() // 8 + 1)
    return _unpack(_pack(a, size) * _pack(b, size), size, len(a) + len(b) - 1)


def _div_exact(xs, g: int) -> tuple[int, ...]:
    """Each entry of xs divided by g, in one divmod pass; ArithmeticError if one leaves a remainder."""
    quotients, remainders = [*zip(*map(divmod, xs, repeat(g)))] or [(), ()]
    if any(remainders):
        raise ArithmeticError(f"coefficients not divisible by {g}")
    return quotients


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
            num = IntPoly(_div_exact(num.coeffs, g))
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

    Fraction-free: Euclid runs on primitive integer remainders r_i, each pseudo-remainder
    divided by its content, and carries cofactors s_i = num_i/den_i with s_i*a = r_i (mod b),
    as int lists reduced by gcd(content, den) at every step. Inputs with deg a < deg b are
    swapped first, so s_i is the short cofactor, of degree below the smaller input degree.
    Euclid stops at the first constant remainder r_k = c, whose cofactor gives U = s_k/c; an
    empty remainder before it means a common factor. The exact division of den - a*U by b
    gives V and certifies U.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("xgcd_rational requires nonzero inputs")
    swapped = a.degree < b.degree
    if swapped:
        a, b = b, a
    r0, r1 = a.coeffs, b.coeffs
    s0, d0, s1, d1 = [1], 1, [], 1
    while len(r1) > 1:
        scale, q, rem = _pseudo_divrem(r0, r1)
        g = math.gcd(*rem) or 1
        # s2 = (scale*s0 - q*s1) / g over the common denominator d0*d1
        k, d2 = scale * d1, d0 * d1 * g
        s2 = [k * x - d0 * y for x, y in zip_longest(s0, _mul(q, s1), fillvalue=0)]
        h = math.gcd(d2, *s2)
        r0, r1 = r1, _trimmed(map(floordiv, rem, repeat(g)))
        s0, d0, s1, d1 = s1, d1, [*map(floordiv, s2, repeat(h))], d2 // h
    if not r1:
        raise NotCoprimeError("inputs share a factor of positive degree")
    # a further step would only divide by c = r1; b*V = den - a*U must divide exactly
    u = ScaledPoly(IntPoly(s1), d1 * r1[0])
    residual = _mul(a.coeffs, [*map(neg, u.num.coeffs)]) or [0]
    residual[0] += u.den
    scale, q, rem = _pseudo_divrem(residual, b.coeffs)
    if any(rem):
        raise ArithmeticError("Bezout residual does not divide exactly")
    v = ScaledPoly(IntPoly(q), scale * u.den)
    return (v, u) if swapped else (u, v)


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Sylvester-matrix resultant of a and b, computed fraction-free.

    Runs the subresultant remainder sequence (Collins) on int lists, content
    included, from g = h = 1: each pseudo-remainder divides by beta = g*h^delta,
    then g becomes the divisor's leading coefficient and h becomes
    g^delta/h^(delta-1), taken as g^delta*h/h^delta for every delta >= 0.
    Once a remainder is constant, its own h-update is the resultant. Each
    division is exact or raises ArithmeticError. The sign agrees with the
    Sylvester determinant, and resultant(a, b) == (-1)**(deg a * deg b) *
    resultant(b, a).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant requires nonzero inputs")
    A, B, s = a.coeffs, b.coeffs, 1
    if len(A) < len(B):
        A, B = B, A
        s = -1 if len(A) % 2 == len(B) % 2 == 0 else 1  # both degrees odd
    g = h = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == len(B) % 2 == 0:
            s = -s
        rem = _trimmed(_pseudo_divrem(A, B)[2])
        if not rem:
            return 0
        A, B = B, _div_exact(rem, g * h**delta)
        g = A[-1]
        (h,) = _div_exact((g**delta * h,), h**delta)
    (h,) = _div_exact((B[0] ** (len(A) - 1) * h,), h ** (len(A) - 1))
    return s * h
