"""Exact polynomial arithmetic: division, Bezout pairs, resultants."""

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclokit import intpoly
from cyclokit.cyclotomic import PrimePair, cyclotomic, primes_upto
from cyclokit.intpoly import (
    IntPoly,
    NotCoprimeError,
    ScaledPoly,
    _mul,
    _pseudo_divrem,
    divrem_exact,
    resultant,
    xgcd_rational,
)
from cyclokit.inverses import verify_closed_forms

X = IntPoly.monomial(1)
ONE = IntPoly.one()

PHI1 = X - ONE
PHI2 = X + ONE
PHI3 = IntPoly((1, 1, 1))
PHI5 = IntPoly((1, 1, 1, 1, 1))
PHI6 = IntPoly((1, -1, 1))
PHI15 = IntPoly((1, -1, 0, 1, -1, 1, 0, -1, 1))

polys = st.lists(st.integers(-9, 9), max_size=12).map(lambda cs: IntPoly(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero)
monic_polys = st.lists(st.integers(-9, 9), max_size=8).map(
    lambda cs: IntPoly(tuple(cs) + (1,))
)
# large coefficients and a non-unit leading coefficient give remainders
# with nontrivial content
wide_polys = st.tuples(
    st.lists(st.integers(-(10**6), 10**6), max_size=7),
    st.integers(2, 10**6),
    st.sampled_from((1, -1)),
).map(lambda t: IntPoly(tuple(t[0]) + (t[1] * t[2],)))
bezout_polys = st.one_of(nonzero_polys, wide_polys)
# small, wide (degree <= 6 keeps the determinant quick) and content multiples c*a:
# the subresultant sequence runs on its inputs as given, content included
sylvester_polys = st.one_of(
    st.lists(st.integers(-5, 5), max_size=7).map(lambda cs: IntPoly(tuple(cs))),
    wide_polys.filter(lambda p: p.degree <= 6),
).flatmap(lambda p: st.one_of(st.just(p), st.integers(2, 6).map(lambda c: p * c)))
# magnitudes at the edges of the packed product's 1-, 2-, 4- and 8-byte
# slots, and past them into the wide path
mul_magnitudes = st.sampled_from((1, 9, 2**7, 2**15, 2**31, 2**63, 10**40))
SHORT = intpoly._SHORT_FACTOR  # the longest factor that _mul does not pack
mul_operands = mul_magnitudes.flatmap(
    lambda m: st.lists(st.one_of(st.just(0), st.integers(-m, m)), min_size=1, max_size=300)
)

# dividends of 64 or more terms by divisors with 12 or more nonzero low terms reach the
# packed division. Half are a = Q*b + R, with Q and R at the edges of its 1-, 2-, 4- and
# 8-byte slots and past them, where the loop takes over; the other half are arbitrary,
# and their quotients mostly outgrow every slot.
slot_edges = st.sampled_from((1, 2**6, 2**7, 2**14, 2**15, 2**30, 2**31, 2**62, 2**63, 10**25))
dense_divisors = st.tuples(
    st.lists(st.integers(-2, 2).filter(bool), min_size=12, max_size=64),
    st.sampled_from((1, -1, 2, -3)),
).map(lambda t: t[0] + [t[1]])


@st.composite
def long_dividends(draw, b):
    m = draw(slot_edges)
    coeffs = st.integers(-m, m)
    if draw(st.booleans()):
        return draw(st.lists(coeffs, min_size=64, max_size=200))
    q = draw(st.lists(coeffs, min_size=max(65 - len(b), 16), max_size=200))
    r = draw(st.lists(coeffs, max_size=len(b) - 1))
    return [x + y for x, y in zip_longest(_mul(q, b), r, fillvalue=0)]


long_divisions = dense_divisors.flatmap(lambda b: st.tuples(long_dividends(b), st.just(b)))

# X - 1, X + 1, X - c and non-monic linear divisors [b0, lc]
linear_divisors = st.one_of(
    st.sampled_from(([-1, 1], [1, 1])),
    st.integers(-(10**12), 10**12).map(lambda c: [-c, 1]),
    st.tuples(st.integers(-9, 9), st.integers(-5, 5).filter(lambda lc: lc not in (0, 1))).map(list),
)
linear_dividends = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)), max_size=300)


def reference_pseudo_divrem(a, b):
    """Textbook pseudo-division: before each step, multiply the quotient and the
    remainder by lc(b), then subtract the top coefficient times X^k * b."""
    db, lc = len(b) - 1, b[-1]
    steps = max(len(a) - db, 0)
    q, r = [0] * steps, list(a)
    for k in range(steps - 1, -1, -1):
        c = r[k + db]
        q = [lc * x for x in q]
        q[k] = c
        r = [lc * x for x in r]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return lc**steps, q, r[:db]


def schoolbook_product(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference product: the quadratic double loop over the coefficients."""
    if a.is_zero or b.is_zero:
        return IntPoly(())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(tuple(out))


def sylvester_resultant(a: IntPoly, b: IntPoly) -> int:
    """Independent oracle: Fraction Gaussian elimination on the Sylvester matrix."""
    da, db = len(a.coeffs) - 1, len(b.coeffs) - 1
    size = da + db
    if size == 0:
        return 1
    rows = []
    desc_a = list(reversed(a.coeffs))
    desc_b = list(reversed(b.coeffs))
    for i in range(db):
        rows.append([0] * i + desc_a + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + desc_b + [0] * (da - 1 - i))
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((i for i in range(col, size) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, size):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    assert det.denominator == 1
    return int(det)


class TestIntPoly:
    def test_trimming_and_degree(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).degree < -(10**9)
        assert IntPoly((0, 0)).is_zero
        assert IntPoly((3,)).degree == 0

    def test_add_examples(self):
        assert (X - ONE) + (X + ONE) == IntPoly((0, 2))
        p = IntPoly((4, -1, 3))
        assert IntPoly(()) + p == p
        assert IntPoly((0, 0, 1)) + IntPoly((0, 0, -1)) == IntPoly(())
        # no int addition: + and - refuse an int operand with TypeError, as * refuses a float,
        # and the message names the operator that was applied
        for op, bad in (("+", lambda a: a + 1), ("-", lambda a: a - 1), ("*", lambda a: a * 1.5)):
            with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \{op}:"):
                bad(IntPoly((1, 2)))

    def test_mul_examples(self):
        assert (X - ONE) * (X + ONE) == IntPoly((-1, 0, 1))
        assert PHI1 * PHI3 == IntPoly((-1, 0, 0, 1))
        full = PHI3 * PHI5 * PHI15 * PHI1
        assert full == IntPoly.monomial(15) - ONE

    @given(mul_operands, mul_operands)
    @settings(max_examples=200, deadline=None)
    # one factor of a coefficient exactly at each slot's signed limit, 2^(8s-1)
    @example([2**7], [1])
    @example([2**15], [-1])
    @example([2**31], [1])
    @example([2**63], [-1])
    @example([-(2**63)], [1])
    # an all-zero factor, whose height would give no slot width of its own
    @example([0], [128, 1])
    @example([0, 0], [1, 1])
    # a factor of _SHORT_FACTOR terms, one with interior zeros and one a term longer,
    # against a long one
    @example([3] * SHORT, list(range(-50, 50)))
    @example(list(range(-50, 50)), [-5, *[0] * (SHORT - 2), 7])
    @example([-(2**40)] * (SHORT + 1), list(range(-50, 50)))
    # a two-term Euclid quotient of about 800 bits times a cofactor of 1000 terms of about 400
    @example([2**800 - 1, -(2**799)], [(-1) ** i * (2**400 - i) for i in range(1000)])
    def test_mul_matches_schoolbook(self, a, b):
        pa, pb = IntPoly(tuple(a)), IntPoly(tuple(b))
        expected = schoolbook_product(pa, pb)
        assert pa * pb == expected
        # untrimmed factors give the untrimmed product
        zeros = [0] * (len(a) + len(b) - 1 - len(expected.coeffs))
        assert _mul(a, b) == [*expected.coeffs, *zeros]

    @pytest.mark.parametrize("short", [[2**800 - 1, -(2**799)], [-5, *[0] * (SHORT - 2), 7]])
    def test_short_factor_is_never_packed(self, monkeypatch, short):
        long = [(-1) ** i * (2**400 - i) for i in range(1000)]
        expected = schoolbook_product(IntPoly(tuple(short)), IntPoly(tuple(long)))

        def no_pack(xs, size):
            raise AssertionError("a short factor was packed")

        monkeypatch.setattr(intpoly, "_pack", no_pack)
        assert IntPoly(tuple(_mul(short, long))) == IntPoly(tuple(_mul(long, short))) == expected

    def test_long_factors_are_packed(self, monkeypatch):
        packed, real = [], intpoly._pack
        monkeypatch.setattr(intpoly, "_pack", lambda xs, size: packed.append(len(xs)) or real(xs, size))
        a, b = list(range(1, SHORT + 2)), list(range(-40, 40))
        assert IntPoly(tuple(_mul(a, b))) == schoolbook_product(IntPoly(tuple(a)), IntPoly(tuple(b)))
        assert sorted(packed) == [SHORT + 1, 80]

    # one coefficient at each signed limit of the 1-, 2-, 4- and 8-byte slots and a 9-byte one
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
    def test_pack_is_the_value_at_the_slot_base(self, size):
        w = 8 * size
        xs = [0, 1, -1, 2 ** (w - 1) - 1, -(2 ** (w - 1)), 5, -7, 0]
        assert intpoly._pack(xs, size) == sum(x << (w * i) for i, x in enumerate(xs))
        assert intpoly._unpack(intpoly._pack(xs, size), size, len(xs)) == xs

    # three 1-byte digits in [-128, 128) reach exactly [-128*65793, 127*65793]; past that range x
    # has none (digits None), and _unpack raises rather than return wrong ones: every caller
    # certifies or sizes x to have them
    @pytest.mark.parametrize(
        "x, digits",
        [(127 * 65793, [127] * 3), (127 * 65793 + 1, None), (-128 * 65793, [-128] * 3), (-128 * 65793 - 1, None)],
    )
    def test_unpack_is_none_past_the_balanced_range(self, x, digits):
        if digits is None:
            with pytest.raises(OverflowError):
                intpoly._unpack(x, 1, 3)
        else:
            assert intpoly._unpack(x, 1, 3) == digits

    # every digit tuple of count 1-byte slots and one slot past them, whose digit must be 0;
    # at count 2 only that digit 0, which keeps the 2^16 * 7 checks under a second
    @pytest.mark.parametrize("count, past", [(0, range(-128, 128)), (1, range(-128, 128)), (2, (0,))])
    def test_digits_within_matches_a_digit_scan(self, count, past):
        ts = range(7)
        for *digits, extra in product(*[range(-128, 128)] * count, past):
            x = sum(d << (8 * i) for i, d in enumerate((*digits, extra)))
            least = max((max(d, -d - 1).bit_length() for d in digits), default=0)  # d in [-2^t, 2^t)
            got = [intpoly._digits_within(x, 1, count, t) for t in ts]
            assert got == [extra == 0 and t >= least for t in ts], (x, count)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0, 1, -1),
            (256, -256, 5),  # the table's edges
            (257, 1, -257),  # one past each edge
            (2**70, -(2**70), 3),
            (True, 0, -1),  # a bool is an int, printed as one
            (False, True, 2**70),  # and so is it off the table
        ],
    )
    def test_decimal_strings_are_str_of_int(self, coeffs):
        assert IntPoly(coeffs).to_decimal_strings() == [str(int(c)) for c in IntPoly(coeffs).coeffs]

    def test_eval(self):
        assert PHI3.evaluate(2) == 7
        assert PHI1.evaluate(1) == 0
        assert PHI15.evaluate(2) == 151

    def test_repr_smoke(self):
        assert repr(PHI3) == "IntPoly(coeffs=(1, 1, 1))"
        assert repr(IntPoly(())) == "IntPoly(coeffs=())"

    def test_negative_monomial_degree_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntPoly.monomial(-1)

    @pytest.mark.parametrize("bad", [(1, 2.0), (1, "2"), (1.5,), (None,), (1, 2, Fraction(3))])
    def test_non_int_coefficient_rejected(self, bad):
        with pytest.raises(TypeError, match="integers"):
            IntPoly(bad)
        with pytest.raises(TypeError, match="integers"):
            IntPoly(coeffs=list(bad))
        with pytest.raises(TypeError, match="integers"):
            IntPoly(c for c in bad)

    # a generator or iterator is read once, by the type scan and the stored tuple alike
    def test_one_shot_iterable_coefficients(self):
        assert IntPoly(c for c in (1, 2)).coeffs == (1, 2)
        assert IntPoly(iter([3, 4])).coeffs == (3, 4)
        assert IntPoly(coeffs=(c for c in (5, 0, 0))).coeffs == (5,)
        assert IntPoly(iter(())) == IntPoly(())
        with pytest.raises(TypeError, match="integers"):
            IntPoly(c for c in (1, 2.0))


class TestDivRem:
    def test_quotient_is_phi15(self):
        num = IntPoly.monomial(15) - ONE
        den = PHI1 * PHI3 * PHI5
        q, s = divrem_exact(num, den)
        assert q == PHI15 and s.is_zero
        assert q * den + s == num

    def test_equal_degree(self):
        q, s = divrem_exact(IntPoly((0, 0, 1)), IntPoly((0, 0, 1)))
        assert q == ONE and s.is_zero

    def test_small_by_large(self):
        q, s = divrem_exact(IntPoly((2, 1)), IntPoly.monomial(3))
        assert q.is_zero and s == IntPoly((2, 1))

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            divrem_exact(PHI3, IntPoly(()))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            divrem_exact(PHI3, IntPoly((1, 2)))

    @given(polys, monic_polys)
    def test_roundtrip(self, a, b):
        q, s = divrem_exact(a, b)
        assert q * b + s == a
        assert s.degree < b.degree


class TestPseudoDivrem:
    @given(long_divisions)
    @settings(max_examples=200, deadline=None)
    @example(([], [1] * 13))  # an empty dividend takes no step
    @example(([5] * 12, [1] * 13))  # deg a < deg b
    @example(([3] * 80, [-1] * 13 + [2]))  # non-monic: scale 2^67 outgrows the 8-byte slots
    @example(([7] * 20, [1, -2, 3, -(2**70 + 1)]))  # the loop's digits: exact 71-bit divisions
    def test_identity_and_degree(self, case):
        a, b = case
        scale, q, r = _pseudo_divrem(a, b)
        assert scale == b[-1] ** max(len(a) - len(b) + 1, 0)
        assert IntPoly(tuple(scale * x for x in a)) == IntPoly(tuple(_mul(q, b))) + IntPoly(tuple(r))
        assert IntPoly(tuple(r)).degree < len(b) - 1

    @given(linear_dividends, linear_divisors)
    @settings(max_examples=150, deadline=None)
    @example([], [-1, 1])  # no step
    @example([7], [-1, 1])  # deg a < deg b
    @example([3], [4, -2])
    @example([1] * 300, [1, 1])
    @example([0, 0], [128, 1])  # an all-zero quotient
    def test_linear_divisors_match_the_textbook_division(self, a, b):
        scale, q, r = _pseudo_divrem(a, b)
        assert (scale, q, r) == reference_pseudo_divrem(a, b)
        assert IntPoly(tuple(scale * x for x in a)) == IntPoly(tuple(q)) * IntPoly(tuple(b)) + IntPoly(tuple(r))

    @pytest.mark.parametrize(
        "a, b, packed",
        [
            (cyclotomic(899).coeffs, cyclotomic(29).coeffs, True),  # the oracle's first Euclid step
            (_mul(cyclotomic(29).coeffs, [-1] * 20 + [1]), [-1] * 20 + [1], True),  # monic, every low term negative
            ([1] * 60, [1] * 40 + [2], True),  # non-monic, scale 2^20 fits
            ((-1,) + (0,) * 898 + (1,), (-1, 1), False),  # X - 1 is sparse
            (cyclotomic(899).coeffs, (-1,) + (0,) * 28 + (1,), False),  # so is X^29 - 1
            ([], cyclotomic(29).coeffs, False),  # no step
            ([1] * 28, cyclotomic(29).coeffs, False),
            (_mul(cyclotomic(31).coeffs, [1] * 20 + [-1]), [1] * 20 + [-1], True),  # lc -1: scale (-1)^steps
            # the quotients of Phi_899 by these two grow geometrically, to 800 bits: the
            # certificate fails at the 2-byte slots, and the loop runs
            (cyclotomic(899).coeffs, [-1] * 20 + [1], False),
            (cyclotomic(899).coeffs, [1] * 20 + [-1], False),
        ],
    )
    def test_dense_divisors_take_the_packed_division(self, monkeypatch, a, b, packed):
        unpacked = []
        unpack = intpoly._unpack
        monkeypatch.setattr(intpoly, "_unpack", lambda *args: unpacked.append(args) or unpack(*args))
        scale, q, r = _pseudo_divrem(a, b)
        assert bool(unpacked) == packed
        if (a, b) == (cyclotomic(899).coeffs, cyclotomic(29).coeffs):
            assert len(unpacked) == 2  # Q and R decoded once: certified at the first width
        monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
        assert _pseudo_divrem(a, b) == (scale, q, r)

    def test_quotient_that_outgrows_its_first_slots(self):
        # X^300 / (X - 1)^9: a packed division is tried at 4-byte slots, where the
        # quotient's binomial coefficients C(k + 8, 8) no longer fit
        a = [0] * 300 + [1]
        b = [math.comb(9, i) * (-1) ** (9 - i) for i in range(10)]
        assert _pseudo_divrem(a, b) == reference_pseudo_divrem(a, b)

    # X^121 + R by a dense b with sum|b| = 10: the quotient's digits grow to 23. The 1-byte slots
    # leave a largest height of 2 and hold a dividend with every digit in [-2, 2), and their
    # certificate needs Q's digits in [-2^3, 2^3), so the first R takes the loop; even the exact
    # max|Q|*sum|b| + max|R| + max|a| = 230 + 24 + 2 is 256 = 2^8. A 2 in the dividend moves it to
    # the 2-byte slots, whose certificate holds Q's digits to 2^11: the second R (230 + 23 + 2 =
    # 255) and the third (256 again) are certified there
    @pytest.mark.parametrize(
        "low, heights, packed",
        [
            ([-1, 1, -2, 1, 0, 1, 0, 1, 0], 256, False),
            ([1, 1, 1, 2, 2, -2, 1, -2, -2], 255, True),
            ([-1, 2, -2, 1, 0, 2, 0, 2, 0], 256, True),
        ],
    )
    def test_a_quotient_digit_past_the_bound_takes_the_loop(self, monkeypatch, low, heights, packed):
        a, b = [*low, *[0] * 112, 1], [1, -1, 1, -1, 1, 1, -1, 1, -1, 1]
        results, widths, packed_divrem, pack = [], [], intpoly._packed_divrem, intpoly._pack

        def record(*args):
            results.append(packed_divrem(*args))
            return results[-1]

        monkeypatch.setattr(intpoly, "_packed_divrem", record)
        monkeypatch.setattr(intpoly, "_pack", lambda xs, size: xs is b and widths.append(size) or pack(xs, size))
        scale, q, r = _pseudo_divrem(a, b)
        assert (scale, q, r) == reference_pseudo_divrem(a, b)
        assert max(map(abs, q)) * 10 + max(map(abs, r)) + 2 == heights
        assert len(results) == 1 and (results[0] is not None) == packed
        assert widths == [2 if 2 in low else 1]

    # a dividend with one coefficient at a slot width's edge, packed whatever its work: the width
    # _packed_divrem takes, the size it packs b at, is the narrowest w of 8, 16, 32 and 64 bits
    # with (P + sum|b|)*sum|b| < 2^(w-1), for P the least power of two with every a_i in [-P, P),
    # and (scale, Q, R) are the loop's. sum|b| = 10 leaves the 1-byte slots a largest height of 2,
    # so P = 2: -2 stays, 2 takes 2 bytes. sum|b| = 2 and 8 leave them 61 and 7, so P = 32 and 4,
    # and sum|b| = 128 leaves them none and the 2-byte slots 127, so P = 64 there. A coefficient
    # of 2^7, 2^15, 2^31 or 2^63 is past its slot's signed range (struct.error, the next width);
    # 2^62 fits 8 bytes but no bound, and 2^63 no slot, so both take the loop
    @pytest.mark.parametrize("b", [[1, -1, 1, -1, 1, 1, -1, 1, -1, 1], [1, 0, 1], [1] * 8, [1] * 128])
    def test_packed_width_is_the_exact_height_rule(self, monkeypatch, b):
        widths, pack, norm = [], intpoly._pack, sum(map(abs, b))
        monkeypatch.setattr(intpoly, "_pack", lambda xs, size: xs is b and widths.append(size) or pack(xs, size))
        for edge, sign in product([1, 2, 3, 7, 8, 61, 62, 127, 128, 2**15, 2**31, 2**62, 2**63], [1, -1]):
            a = [1, -1, 0, sign * edge, *[0] * (len(b) + 40), 1]
            power = 1 << (max(2, edge + (sign > 0)) - 1).bit_length()
            rule = next((s for s in (1, 2, 4, 8) if (power + norm) * norm < 1 << (8 * s - 1)), None)
            monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
            looped = _pseudo_divrem(a, b)
            widths.clear()
            monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", 0)
            assert _pseudo_divrem(a, b) == looped, (edge, sign)
            assert (widths or [None]) == [rule], (edge, sign)

    # forced failures: no word-parallel test holds, so no width is certified and every division
    # runs the loop
    @given(long_divisions)
    @settings(max_examples=50, deadline=None)
    def test_failed_certificates_fall_back(self, case):
        a, b = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intpoly, "_digits_within", lambda *args: False)
            assert _pseudo_divrem(a, b) == reference_pseudo_divrem(a, b)

    def test_sweep_divisions_take_one_pass(self, monkeypatch):
        # one verify_closed_forms pass over the primes <= 31: each packed division decodes Q and R
        # once, at the first width it packs at, except the first division of each oracle call,
        # which decodes only R: xgcd_rational packs Q2 and U and decodes V once, and never Q1.
        # Each X -+ 1 that takes a step is one Horner accumulate; the constant brackets by X -+ 1
        # take no step and none
        inside, done, oracle = [], [], []  # [function, args, _unpack and accumulate calls, widths] per call

        def counted(f, i):
            def call(*args):
                if sys._getframe(1).f_code is xgcd_rational.__code__:
                    oracle.append(f.__name__)
                elif inside and i is None:
                    inside[-1][4].append(args[1])
                elif inside:
                    inside[-1][i] += 1
                return f(*args)

            return call

        def framed(f):
            def call(*args, **kwargs):
                inside.append([f, (*args, *kwargs.values()), 0, 0, []])
                try:
                    return f(*args, **kwargs)
                finally:
                    done.append(inside.pop())

            return call

        pseudo_divrem, packed_divrem = intpoly._pseudo_divrem, intpoly._packed_divrem
        monkeypatch.setattr(intpoly, "_pack", counted(intpoly._pack, None))
        monkeypatch.setattr(intpoly, "_unpack", counted(intpoly._unpack, 2))
        monkeypatch.setattr(intpoly, "accumulate", counted(intpoly.accumulate, 3))
        monkeypatch.setattr(intpoly, "_pseudo_divrem", framed(pseudo_divrem))
        monkeypatch.setattr(intpoly, "_packed_divrem", framed(packed_divrem))
        primes = primes_upto(31)
        for p in primes:
            for r in primes:
                if p != r:
                    verify_closed_forms(PrimePair(p, r))
        packed = [(args[3], unpacks, tuple(widths)) for f, args, unpacks, _, widths in done if f is packed_divrem]
        x_pm_1 = ((-1, 1), (1, 1))
        by_x_pm_1 = [(len(args[0]) > 1, h) for f, args, _, h, _ in done if f is pseudo_divrem and args[1] in x_pm_1]
        firsts = sum(packed_q for packed_q, _, _ in packed)
        # 60 of the 440 oracle calls pack their first division, and 22 other divisions pack. Each
        # divisor, Phi_11 to Phi_31, has sum|b| >= 11, which leaves the 1-byte slots no positive
        # largest height (Phi_11's is 0), so each division packs a and b once, at 2 bytes, and is
        # certified there
        assert Counter(packed) == {(True, 1, (2, 2)): 60, (False, 2, (2, 2)): 22} and firsts == 60
        assert oracle.count("_pack") == 2 * firsts and oracle.count("_unpack") == firsts
        assert len(by_x_pm_1) > 100 and set(by_x_pm_1) == {(True, 1), (False, 0)}


def counted_divisions(monkeypatch) -> list:
    """Patch the long divisions to append (dividend, divisor) of each to the returned list: every
    _pseudo_divrem call, and every _packed_divrem call made outside one, with dividend None."""
    calls, depth = [], []
    pseudo_divrem, packed_divrem = intpoly._pseudo_divrem, intpoly._packed_divrem

    def divide(a, b, **kwargs):
        calls.append((a, b))
        depth.append(b)
        try:
            return pseudo_divrem(a, b, **kwargs)
        finally:
            depth.pop()

    def divide_packed(a, b, steps, *packed_q):
        if not depth:
            calls.append((None, b))
        return packed_divrem(a, b, steps, *packed_q)

    monkeypatch.setattr(intpoly, "_pseudo_divrem", divide)
    monkeypatch.setattr(intpoly, "_packed_divrem", divide_packed)
    return calls


def oracle_packing(monkeypatch) -> list:
    """Patch _pack and _unpack to append the name of each call made by xgcd_rational itself to the
    returned list: a packed V is two _pack calls and one _unpack, a decoded Q1 one _unpack."""
    calls = []

    def counted(f):
        def call(*args):
            if sys._getframe(1).f_code is xgcd_rational.__code__:
                calls.append(f.__name__)
            return f(*args)

        return call

    monkeypatch.setattr(intpoly, "_pack", counted(intpoly._pack))
    monkeypatch.setattr(intpoly, "_unpack", counted(intpoly._unpack))
    return calls


class TestXgcd:
    def test_phi3_phi5(self):
        u, v = xgcd_rational(PHI3, PHI5)
        assert u == ScaledPoly(IntPoly((1, 0, 0, 1)), 1)
        # reduction oracle: Phi_3 * (X^3 + 1) = 1 mod Phi_5
        _, rem = divrem_exact(PHI3 * u.num, PHI5)
        assert rem == ONE

    def test_phi5_phi3(self):
        u, _ = xgcd_rational(PHI5, PHI3)
        assert u == ScaledPoly(IntPoly((0, -1)), 1)

    def test_phi3_phi1(self):
        u, v = xgcd_rational(PHI3, PHI1)
        assert u == ScaledPoly(ONE, 3)
        assert v == ScaledPoly(IntPoly((-2, -1)), 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            xgcd_rational(PHI3 * PHI1, PHI5 * PHI1)

    def test_zero_input(self):
        with pytest.raises(ValueError):
            xgcd_rational(IntPoly(()), PHI3)

    # Phi_7 by X - 1 leaves the constant 7, so Euclid takes one step and the bracket one
    # division; (899, 29) takes two steps and the bracket. Dividing on past the constant would add
    # one each. The long a is divided once: every later dividend is shorter than 2 deg b
    @pytest.mark.parametrize("m, n, divisions", [(7, 1, 2), (899, 29, 3)])
    def test_euclid_stops_at_the_first_constant_remainder(self, monkeypatch, m, n, divisions):
        a, b = cyclotomic(m), cyclotomic(n)
        calls = counted_divisions(monkeypatch)
        u, v = xgcd_rational(a, b)
        assert len(calls) == divisions and tuple(calls[-1][1]) == b.coeffs  # the bracket's divisor
        assert calls[0][0] is a.coeffs and all(len(x) < 2 * b.degree for x, _ in calls[1:])
        assert a * u.num * v.den + b * v.num * u.den == IntPoly((u.den * v.den,))

    def test_sweep_divisions(self, monkeypatch):
        # one verify_closed_forms pass over the primes <= 31: 440 oracle calls, each one
        # division fewer than a Euclid that runs to the zero remainder (1 623 divisions); no
        # packed division runs outside _pseudo_divrem
        calls = counted_divisions(monkeypatch)
        primes = primes_upto(31)
        for p in primes:
            for r in primes:
                if p != r:
                    verify_closed_forms(PrimePair(p, r))
        assert len(calls) == 1183 and None not in (a for a, _ in calls)

    def test_constant_inputs(self):
        # a constant b takes no Euclid step and U = 0, so the bracket scale1*den - R1*U is a constant
        assert xgcd_rational(ONE, ONE) == (ScaledPoly(IntPoly(()), 1), ScaledPoly(ONE, 1))
        assert xgcd_rational(IntPoly((2,)), IntPoly((5,))) == (ScaledPoly(IntPoly(()), 1), ScaledPoly(ONE, 5))

    def test_non_monic_short_dividend(self):
        # deg a < deg b - 1, so the first pseudo-division takes no step, and
        # lc(b) = 3 is not a unit
        a = IntPoly((3, 0, 2))
        b = IntPoly((5, 1, 0, 3))
        u, v = xgcd_rational(a, b)
        assert u == ScaledPoly(IntPoly((49, -60, -42)), 347)
        assert v == ScaledPoly(IntPoly((40, 28)), 347)

    def test_packed_divisions_match_the_loop(self, monkeypatch):
        # every ordered pair of indices up to 60; _PACKED_DIVISION_MIN_WORK = inf sends every
        # division to the loop, and so every V to _mul, with the same divisions: Euclid's and one
        # bracket per call. With packing, 238 calls keep Q1 packed and 226 of them pack V
        phis = [cyclotomic(n) for n in range(1, 61)]
        pairs = [(a, b) for a in phis for b in phis if a != b]
        calls, packing = counted_divisions(monkeypatch), oracle_packing(monkeypatch)
        packed = [xgcd_rational(a, b) for a, b in pairs]
        assert len(calls) == 20696 and packing.count("_pack") == 2 * 226 and packing.count("_unpack") == 238
        calls.clear(), packing.clear()
        monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
        assert [xgcd_rational(a, b) for a, b in pairs] == packed
        assert len(calls) == 20696 and not packing

    # a = Q*b + R for a dense b, monic or not, and R = c, X, -X or X + 3, none of which shares a
    # root with b, as |b(0)| <= 2: Euclid stops after one or two steps, Q1 stays packed if its
    # first division packs, and V is one packed product while 2^t*sum|U|*|scale2| + max|Q2| fits
    # its slots. Failures are forced as in test_failed_certificates_fall_back, so that no packed
    # division holds.
    @given(
        dense_divisors,
        st.lists(st.integers(-3, 3), min_size=40, max_size=150),
        st.sampled_from(([1], [-2], [0, 1], [0, -1], [3, 1])),
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_paths_agree(self, b, q, r):
        a, b = IntPoly(tuple(x + y for x, y in zip_longest(_mul(q, b), r, fillvalue=0))), IntPoly(tuple(b))
        u, v = xgcd_rational(a, b)
        assert a * u.num * v.den + b * v.num * u.den == IntPoly((u.den * v.den,))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
            assert xgcd_rational(a, b) == (u, v)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intpoly, "_digits_within", lambda *args: False)
            assert xgcd_rational(a, b) == (u, v)

    # b = X - 1 and X + 1 divide a by Horner's rule, and the bracket scale1*den - R1*U is a constant,
    # which takes no step: a nonzero remainder there is the failed certificate, as for any b
    @pytest.mark.parametrize("m, n", [(7, 1), (15, 2), (899, 1)])
    def test_broken_bracket_on_the_horner_path_raises(self, monkeypatch, m, n):
        pseudo_divrem, broken = intpoly._pseudo_divrem, []

        def divide(a, b, **kwargs):
            scale, q, r = pseudo_divrem(a, b, **kwargs)
            if len(a) == 1:
                broken.append((tuple(b), q))
                r = [r[0] + 1]
            return scale, q, r

        monkeypatch.setattr(intpoly, "_pseudo_divrem", divide)
        with pytest.raises(ArithmeticError, match="Bezout residual does not divide exactly"):
            xgcd_rational(cyclotomic(m), cyclotomic(n))
        assert broken == [(cyclotomic(n).coeffs, [])]

    # each pair packs its first division, Phi_63 or Phi_126 (degree 36) by Phi_26 or Phi_13, in
    # 2-byte slots with t = 11, but sum|U| = 27 and 2^11*27 > 2^15, so Q1*U does not fit them: Q1
    # is decoded once and multiplied by _mul, as the loop's Q1 is
    @pytest.mark.parametrize("m, n", [(63, 26), (26, 63), (13, 126)])
    def test_q1_u_past_its_slots_is_decoded(self, monkeypatch, m, n):
        a, b = cyclotomic(m), cyclotomic(n)
        packing = oracle_packing(monkeypatch)
        u, v = xgcd_rational(a, b)
        assert packing == ["_unpack"]
        assert a * u.num * v.den + b * v.num * u.den == IntPoly((u.den * v.den,))
        monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
        assert xgcd_rational(a, b) == (u, v)

    # a constant b takes no Euclid step: U = 0 and V = 1/b, through the same bracket. A non-monic
    # b scales both divisions, packed (lc 2 on 41 terms, scale 2^21) or not (2X + 1, 3X^2 - 1)
    @pytest.mark.parametrize(
        "a, b, pair",
        [
            (PHI5, IntPoly((3,)), (ScaledPoly(IntPoly(()), 1), ScaledPoly(ONE, 3))),
            (IntPoly((3,)), PHI15, (ScaledPoly(ONE, 3), ScaledPoly(IntPoly(()), 1))),
            (PHI15 * 4, IntPoly((-6,)), (ScaledPoly(IntPoly(()), 1), ScaledPoly(ONE, -6))),
            (IntPoly(tuple(_mul([1] * 21, [1, -1] * 20 + [2]))) + ONE, IntPoly((1, -1) * 20 + (2,)), None),
            (PHI15, IntPoly((1, 2)), None),
            (IntPoly((1, -1) * 40 + (3,)), IntPoly((-1, 0, 3)), None),
        ],
    )
    def test_non_monic_and_constant_divisors(self, monkeypatch, a, b, pair):
        u, v = xgcd_rational(a, b)
        assert pair is None or (u, v) == pair
        assert a * u.num * v.den + b * v.num * u.den == IntPoly((u.den * v.den,))
        assert u.num.degree < b.degree and (b.degree == 0 or v.num.degree < a.degree)
        assert xgcd_rational(b, a) == (v, u)
        monkeypatch.setattr(intpoly, "_PACKED_DIVISION_MIN_WORK", math.inf)
        assert xgcd_rational(a, b) == (u, v)

    @given(bezout_polys, bezout_polys)
    @settings(max_examples=150, deadline=None)
    def test_bezout_identity_and_degree_bounds(self, a, b):
        try:
            u, v = xgcd_rational(a, b)
        except NotCoprimeError:
            return
        lhs = a * u.num * v.den + b * v.num * u.den
        assert lhs == IntPoly((u.den * v.den,))
        assert u.num.degree < b.degree
        if a.degree > 0 or b.degree > 0:
            # two nonzero constants admit no pair with both bounds strict
            assert v.num.degree < a.degree

    # cyclotomic pairs of lower, equal and higher first degree
    @example(PHI3, PHI5)
    @example(PHI5, PHI3)
    @example(PHI3, PHI6)
    @example(PHI15, PHI2)
    @example(PHI1, PHI15)
    @given(bezout_polys, bezout_polys)
    @settings(max_examples=150, deadline=None)
    def test_swapped_inputs_swap_the_pair(self, a, b):
        # two nonzero constants have no pair with both degree bounds, so no canonical one
        if a.degree == b.degree == 0:
            return
        try:
            u, v = xgcd_rational(a, b)
        except NotCoprimeError:
            with pytest.raises(NotCoprimeError):
                xgcd_rational(b, a)
            return
        assert xgcd_rational(b, a) == (v, u)


class TestResultant:
    def test_known_values(self):
        assert resultant(PHI1, PHI2) == 2
        assert resultant(PHI6, PHI3) == 4
        assert resultant(PHI3, PHI5) == 1

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            resultant(IntPoly(()), PHI3)

    def test_common_factor_gives_zero(self):
        a = (X - ONE) * IntPoly((3, 1))
        b = (X - ONE) * IntPoly((2, 0, 1))
        assert resultant(a, b) == 0

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, a, b):
        sign = -1 if (len(a.coeffs) - 1) % 2 == 1 and (len(b.coeffs) - 1) % 2 == 1 else 1
        assert resultant(a, b) == sign * resultant(b, a)

    @given(sylvester_polys, sylvester_polys)
    @example(IntPoly((1, 2, 3)), IntPoly((2, -1, 5)))  # equal degrees: delta = 0 first
    # the first remainder drops from degree 3 to 1, so the next step has delta = 2
    @example(IntPoly((4, 9, 1, 2, 2)), IntPoly((3, 1, 0, 2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_sylvester_determinant(self, a, b):
        if a.is_zero or b.is_zero:
            return
        assert resultant(a, b) == sylvester_resultant(a, b)

    def test_matches_sylvester_on_cyclotomics(self):
        pairs = [(PHI1, PHI2), (PHI6, PHI3), (PHI3, PHI5), (PHI15, PHI6), (PHI2, PHI15)]
        for a, b in pairs:
            assert resultant(a, b) == sylvester_resultant(a, b)


class TestScaledPoly:
    def test_normalization(self):
        sp = ScaledPoly(IntPoly((2, 4)), 6)
        assert sp.num == IntPoly((1, 2)) and sp.den == 3

    def test_negative_denominator(self):
        sp = ScaledPoly(IntPoly((1, -1)), -2)
        assert sp.den == 2 and sp.num == IntPoly((-1, 1))

    def test_zero_numerator_forces_unit_denominator(self):
        sp = ScaledPoly(IntPoly(()), 7)
        assert sp.num.is_zero and sp.den == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ScaledPoly(ONE, 0)

    def test_bool_denominator_is_stored_as_an_int(self):
        sp = ScaledPoly(IntPoly((2,)), True)
        assert type(sp.den) is int and sp == ScaledPoly(IntPoly((2,)), 1)
        assert sp.to_json_dict() == {"num": ["2"], "den": "1"}

    @given(polys, st.integers(-40, 40).filter(bool))
    def test_normalization_idempotent(self, num, den):
        sp = ScaledPoly(num, den)
        assert ScaledPoly(sp.num, sp.den) == sp
