"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored little-endian: ``coeffs[i]`` is the coefficient of
X^i, with trailing zeros trimmed so the leading stored coefficient of a
nonzero polynomial is never zero. The zero polynomial is the empty tuple;
its degree is -inf, which compares below every integer and keeps degree
bounds free of special cases.

ScaledPoly pairs an IntPoly numerator with a positive integer denominator
and keeps gcd(content, den) = 1, so every rational-coefficient result
(Bezout cofactors, modular inverses) has exactly one representation.

Arithmetic over Q never leaves Z[X]: one fraction-free pseudo-division, ``_pseudo_divrem``, is
the only long division. A dividend shorter than the divisor takes no step; any other is scaled
once and divided in one of three orders chosen from the inputs: Horner's rule as one
``accumulate`` for a monic X - c; a loop over the divisor's nonzero terms, whose quotient digits
are exact divisions by the leading coefficient; or one packed bigint division at the narrowest
slot width whose packed dividend certifies that it fits, the result kept only if a word-parallel
test certifies the packed quotient and remainder. It serves ``divrem_exact`` (a monic divisor,
scale 1), the subresultant ``resultant`` on int lists, whose steps divide by ``_div_exact`` as
ScaledPoly's content does, and the Bezout pairs of ``xgcd_rational``: Euclid on primitive
int-list remainders, one denominator per cofactor, carries only the short cofactor and stops at
the first constant remainder, whose cofactor is U. A content or cofactor gcd of 1 divides
nothing, and the cofactor update is one ``_mul`` and one slice add. V comes from Euclid's first
quotient, left packed, and one exact division of a short bracket by the divisor, so the long
input is divided once. ``IntPoly._of`` builds the library's own results without the constructor's
per-coefficient type check, which outside input keeps. ``_mul`` multiplies in Z[X]: for a factor
of at most ``_SHORT_FACTOR`` terms (a Euclid quotient, a constant), one comprehension over the
other per nonzero term, else one packed bigint product.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from operator import add, floordiv, mul

NEG_INF = float("-inf")


class PreconditionError(ValueError):
    """A mathematical precondition or resource ceiling was violated (CLI exit 3)."""


class NotCoprimeError(PreconditionError):
    """A Bezout inverse was requested for inputs sharing a factor."""


class _Record:
    """Immutable record: the fields named in ``_fields``, set once by __init__, compared
    and hashed field-wise within one class, so that it can key a cache or a set; repr
    ``Name(field=value, ...)``, as a failure report shows it.

    ``__init__`` takes the values in ``_fields`` order, then the rest by name. It and the
    constructors of IntPoly, ScaledPoly and PrimePair are the only writers, so the instance
    ``__dict__`` holds exactly the fields, in order, and equality and hash read it at C speed. Each writes into
    ``__dict__`` with one C call, which builds the dict at every construction; ``__eq__`` and
    ``__hash__`` build it anyway. Against one ``object.__setattr__`` per field (Python 3.11,
    2-core Xeon VM), ``IntPoly._of`` takes 320-390 ns instead of 770-810 ns and a two-field
    record through ``__init__`` 640-670 ns instead of 730-790 ns, while a field read takes
    about 20 ns instead of 6 ns: 3.11 does not keep its specialised read for such a dict.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        if named:  # a missing field leaves values short, an unknown or repeated one stays in named
            values += tuple(named.pop(name) for name in self._fields[len(values) :] if name in named)
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)} once each")
        self.__dict__.update(zip(self._fields, values))

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


# signed, by size: 1, 2, 4, 8 bytes; under "<", struct gives these codes the same sizes
# wherever C's short and int have 2 and 4 bytes
_SLOT_TYPES = {array(t).itemsize: t for t in "bhilq"}


@lru_cache(maxsize=256)  # one inverse_sweep pass reads 212 (size, count) keys
def _sign_bits(size: int, count: int) -> int:
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * count, "little")


def _height(xs) -> int:  # max |x|, in two C passes
    return max(max(xs), -min(xs))


def _pack(xs, size: int) -> int:
    """sum(x * 2^(8*size*i)) for |x| < 2^(8*size-1), in linear time: little-endian two's-complement
    slots (one struct.pack for 1, 2, 4 or 8 bytes), then each slot with its sign bit set loses
    2^(8*size)."""
    if typecode := _SLOT_TYPES.get(size):
        raw = struct.pack(f"<{len(xs)}{typecode}", *xs)
    else:
        raw = b"".join(x.to_bytes(size, "little", signed=True) for x in xs)
    u = int.from_bytes(raw, "little")
    return u - ((u & _sign_bits(size, len(xs))) << 1)


def _unpack(x: int, size: int, count: int) -> list[int]:
    """The count digits of x in base 2^(8*size), each in [-2^(8*size-1), 2^(8*size-1)), which every
    caller certifies or sizes x to have. Each digit plus its slot's sign bit, with that bit then
    flipped, is its two's complement."""
    signs = _sign_bits(size, count)
    raw = ((x + signs) ^ signs).to_bytes(size * count, "little")
    if typecode := _SLOT_TYPES.get(size):
        slots = array(typecode, raw)
        if sys.byteorder == "big":
            slots.byteswap()
        return slots.tolist()
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]


# Re-measured as the sum of inverse_sweep's 110 op medians in-process, settings interleaved
# (2-core Xeon VM, Python 3.11, three runs): 2 and 4 terms within 1%; 6 to 12 faster by 1.0-2.4%,
# 16 by 0.5-1.0%; 30 or packing none within 1.4%; 1 term costs 4%, packing every product 21%.
# It stays 3: those gains are sparse short factors', while a dense factor of 10 terms takes 20 us
# by per-term passes against 30 terms (6 us packed) and 367 us against 800 (41 us packed).
_SHORT_FACTOR = 3


def _mul(a, b) -> list[int]:
    """Product of little-endian int lists: for a factor of at most ``_SHORT_FACTOR`` terms, one
    comprehension over the other per nonzero term, added into a slice of the output; else Kronecker
    substitution, one bigint product of slots that hold any product coefficient and each factor."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= _SHORT_FACTOR:
        out = [a[0] * x for x in b] + [0] * (len(a) - 1)
        for i, c in enumerate(a[1:], 1):
            if c:
                out[i : i + len(b)] = [o + c * x for o, x in zip(out[i : i + len(b)], b)]
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


# holds every coefficient inverse_sweep prints (within +-31) and inv's 8-bit numerators
_DECIMAL = {i: str(i) for i in range(-256, 257)}


class IntPoly(_Record):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        coeffs = tuple(coeffs)  # once, so that a one-shot iterator is scanned and stored alike
        if not all(map(isinstance, coeffs, repeat(int))):
            raise TypeError("IntPoly coefficients must be integers")
        self.__dict__["coeffs"] = _trimmed(coeffs)

    @classmethod
    def _of(cls, coeffs) -> IntPoly:
        """IntPoly(coeffs) without the per-coefficient type scan, for ints the library computed."""
        poly = cls.__new__(cls)
        poly.__dict__["coeffs"] = _trimmed(coeffs)
        return poly

    @classmethod
    def one(cls) -> IntPoly:
        return cls._of((1,))

    @classmethod
    def monomial(cls, degree: int) -> IntPoly:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls._of((0,) * degree + (1,))

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
        """The CLI's little-endian decimal strings, str(int(c)) for each c: a lookup if all are small."""
        try:
            return list(map(_DECIMAL.__getitem__, self.coeffs))
        except KeyError:
            return list(map(int.__repr__, self.coeffs))

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._of([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly._of([-x for x in self.coeffs])

    def __mul__(self, other: IntPoly | int):
        if isinstance(other, int):
            return IntPoly._of([other * x for x in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly._of(_mul(self.coeffs, other.coeffs))

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
    return IntPoly._of(q), IntPoly._of(r)


class ScaledPoly(_Record):
    """An integer polynomial divided by a positive integer denominator."""

    _fields = ("num", "den")

    def __init__(self, num: IntPoly, den: int = 1):
        if not isinstance(den, int) or den == 0:
            raise ValueError("denominator must be a nonzero integer")
        if den < 0:
            num, den = -num, -den
        if den != 1 and (g := math.gcd(num.content, den)) > 1:
            num = IntPoly._of(_div_exact(num.coeffs, g))
            den //= g
        fields = self.__dict__
        fields["num"], fields["den"] = num, int(den)  # a bool den is stored as the int it equals

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_decimal_strings(), "den": str(self.den)}


# Re-measured as _SHORT_FACTOR was: 7 and 8 updates per dividend slot level, 5 and 6 within
# 1.4%; 4 costs 2.7%, 10 0.9%, 12 4.5%, 16 10%, never packing 48%. One pass makes 1 183
# divisions: 540 by Horner's rule, 24 without a step and 619 by the loop or packed. Timed one
# by one, packing is faster on 68-71 of the 82 from 8 per slot and on 25-29 of the 537 below;
# the 619 take 3.07-3.57 ms, and the faster order for each would take 2.80-3.32 ms (30-35 of
# them gain 10% or more), about 1% of the pass (2-core Xeon VM, Python 3.11, two runs).
_PACKED_DIVISION_MIN_WORK = 8


def _digits_within(x: int, size: int, count: int, t: int) -> bool:
    """Whether x = sum d_i 2^(w*i), i < count, w = 8*size, with each d_i in [-2^t, 2^t), 0 <= t
    <= w - 2. For e = sum 2^(w*i), i < count, such d_i make y = x + 2^t*e the sum of
    (d_i + 2^t)*2^(w*i), terms in [0, 2^(t+1)), so in disjoint bits, and y has no bit outside the
    low t + 1 bits of its count slots (a negative y has infinitely many). Conversely such a y is a
    sum of y_i*2^(w*i), 0 <= y_i < 2^(t+1), and d_i = y_i - 2^t are x's balanced digits."""
    e = _sign_bits(size, count) >> (8 * size - 1)
    return not (x + (e << t)) & ~((e << (t + 1)) - e)


def _packed_divrem(a, b, steps: int, packed_q: bool = False):
    """(Q, R) of a dividend a of steps + deg b coefficients by b, in one packed bigint division at
    the narrowest w of 8, 16, 32 or 64 bits whose packed dividend certifies that it fits; None if
    no w does or the result fails its certificate. Q and R are the balanced w-bit digits of
    Qi = round(A/B), for A and B the packed a and b, and of A - Qi*B; if packed_q, Q stays packed
    and comes back as (Qi, w // 8, t), digits in [-2^t, 2^t).

    Width: limit is the largest top with (top + sum|b|)*sum|b| < 2^(w-1). w is taken if limit is
    positive, a packs, and ``_digits_within`` puts A's digits, the a_i, in [-2^s, 2^s), for 2^s
    the largest power of two <= limit. Certificate: ``_digits_within`` puts Q's and R's digits in
    [-2^t, 2^t), for the t with 2^t*(sum|b| + 1) < 2^(w-1). Then max|Q|*sum|b| + max|R| + max|a|
    < 2^(w-1) + limit < 2^w, so P = Q*b + R - a, which is zero at X = 2^w, has no coefficient
    that is a nonzero multiple of 2^w, as its lowest nonzero one would be: P = 0, and Q and R
    are the unique pseudo-quotient and remainder."""
    norm = sum(map(abs, b))
    for size in _SLOT_TYPES:
        limit = ((1 << (8 * size - 1)) - 1) // norm - norm
        if limit <= 0:
            continue
        try:
            A = _pack(a, size)
        except struct.error:  # some |a_i| >= 2^(w-1) > limit
            continue
        if _digits_within(A, size, len(a), limit.bit_length() - 1):
            break
    else:
        return None
    w, db, B = 8 * size, len(b) - 1, _pack(b, size)
    qi, ri = divmod(A + (B >> 1), B)  # qi = round(A/B), ri = A - qi*B + (B >> 1)
    ri -= B >> 1
    t = w - 1 - (norm + 1).bit_length()  # >= 0 as limit > 0
    if not (_digits_within(qi, size, steps, t) and _digits_within(ri, size, db, t)):
        return None
    return (qi, size, t) if packed_q else _unpack(qi, size, steps), _unpack(ri, size, db)


def _pseudo_divrem(a, b, packed_q: bool = False) -> tuple[int, list[int] | tuple, list[int]]:
    """Pseudo-division of little-endian int lists: (scale, Q, R).

    scale*a = Q*b + R with deg R < deg b and
    scale = lc(b)^max(deg a - deg b + 1, 0), so every step stays integral;
    Q has one entry per step. b must be nonzero with a nonzero last entry.
    Every evaluation order divides the same once-scaled dividend scale*a by b.

    A dividend shorter than b takes no step: Q = [] and R = a. A monic X - c takes Horner's
    rule: the partial values of one ``accumulate`` from the top of a are Q, top digit first,
    then R = a(c). Otherwise the loop makes steps*(db - b.count(0)) updates, one per nonzero
    low term of b in each step, and takes each quotient digit as an exact division by lc(b).
    From ``_PACKED_DIVISION_MIN_WORK`` updates per dividend slot, one packed division of scale*a
    comes first, as ``_packed_divrem``, which leaves Q packed if packed_q; if it finds no slot or
    no certificate, the loop runs.
    """
    db = len(b) - 1
    steps = len(a) - db
    if steps <= 0:
        return 1, [], list(a)
    lc = b[-1]
    if db == 1 and lc == 1:  # h_k = c*h_(k+1) + a_k for b = X - c
        h = list(accumulate(reversed(a), add if b[0] == -1 else lambda acc, x: x - b[0] * acc))
        return 1, h[-2::-1], h[-1:]
    scale = lc**steps
    if scale != 1:
        a = [scale * x for x in a]
    if steps * (db - b.count(0)) >= _PACKED_DIVISION_MIN_WORK * len(a):
        if qr := _packed_divrem(a, b, steps, packed_q):
            return scale, *qr
    r = list(a)
    low = [(i, bc) for i, bc in enumerate(b[:-1]) if bc]  # cyclotomics and moduli are sparse
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
    as int lists reduced by gcd(content, den); a content or gcd of 1 divides nothing, and the
    first step, whose s_1 is 0, makes s_2 the constant scale. Inputs with deg a < deg b are
    swapped first, so s_i is the short cofactor, of degree below the smaller input degree.
    Euclid stops at the first constant remainder r_k = c, whose cofactor gives U = s_k/c; an
    empty remainder before it means a common factor. The long a is divided once, by Euclid's first
    step scale1*a = Q1*b + R1: scale1*(den - a*U) = B - Q1*U*b for the short bracket B =
    scale1*den - R1*U, whose exact division scale2*B = Q2*b certifies U and gives
    V = (Q2 - scale2*Q1*U)/(scale1*scale2*den). A Q1 left packed, digits within 2^t, makes that one
    bigint product at its slots while 2^t*sum|U|*|scale2| + max|Q2| fits them, else one ``_mul``.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("xgcd_rational requires nonzero inputs")
    swapped = a.degree < b.degree
    if swapped:
        a, b = b, a
    a, b = a.coeffs, b.coeffs
    r0, r1, first = a, b, None
    s0, d0, s1, d1 = [1], 1, [], 1
    while len(r1) > 1:
        scale, q, rem = _pseudo_divrem(r0, r1, packed_q=not first)
        g = math.gcd(*rem) or 1
        # s2 = (scale*s0 - q*s1) / g over the common denominator d0*d1
        k, d2 = scale * d1, d0 * d1 * g
        if first:  # -d0*q*s1, then k*s0 into its low slots: len(q*s1) >= len(s1) >= len(s0)
            s2 = _mul([*map(mul, q, repeat(-d0))], s1)
            s2[: len(s0)] = map(add, s2[: len(s0)], s0 if k == 1 else map(mul, s0, repeat(k)))
        else:  # s0 = [1] and s1 = [], so q, which may be packed, is not read
            first, s2 = (scale, q, rem), [k]
        h = math.gcd(d2, *s2)
        r0, r1 = r1, _trimmed(rem if g == 1 else map(floordiv, rem, repeat(g)))
        s0, d0, s1, d1 = s1, d1, s2 if h == 1 else [*map(floordiv, s2, repeat(h))], d2 // h
    if not r1:
        raise NotCoprimeError("inputs share a factor of positive degree")
    # a further step would only divide by c = r1; a constant b takes no step, and U = 0
    u = ScaledPoly(IntPoly._of(s1), d1 * r1[0])
    U, den = u.num.coeffs, u.den
    scale1, q1, rem1 = first or _pseudo_divrem(a, b)
    bracket = _mul(rem1, [-x for x in U]) or [0]
    bracket[0] += scale1 * den
    scale2, q2, rem = _pseudo_divrem(bracket, b)
    if any(rem):
        raise ArithmeticError("Bezout residual does not divide exactly")
    if isinstance(q1, tuple):  # packed, digits within 2^t: decoded only if Q1*U outgrows the slots
        qi, size, t = q1
        fits = (abs(scale2) * sum(map(abs, U)) << t) + max(map(abs, q2), default=0) < 1 << (8 * size - 1)
        q1 = None if fits else _unpack(qi, size, len(a) - len(b) + 1)
    if q1 is None:
        v = _unpack(_pack(q2, size) - scale2 * qi * _pack(U, size), size, len(a) - len(b) + len(U))
    else:  # for a linear b, U has one term and Q2 none: one pass over Q1
        v = _mul(q1, [-scale2 * x for x in U]) or [0]  # a constant b: U = [], Q2 one term
        v[: len(q2)] = map(add, v[: len(q2)], q2)
    v = ScaledPoly(IntPoly._of(v), scale1 * scale2 * den)
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
