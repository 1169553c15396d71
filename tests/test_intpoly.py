"""Exact polynomial arithmetic: division, Bezout pairs, resultants."""

import math
from fractions import Fraction
from itertools import zip_longest

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
# magnitudes at the edges of the packed product's 1-, 2-, 4- and 8-byte
# slots, and past them into the wide path
mul_magnitudes = st.sampled_from((1, 9, 2**7, 2**15, 2**31, 2**63, 10**40))
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
    def test_mul_matches_schoolbook(self, a, b):
        pa, pb = IntPoly(tuple(a)), IntPoly(tuple(b))
        expected = schoolbook_product(pa, pb)
        assert pa * pb == expected
        # untrimmed factors give the untrimmed product
        zeros = [0] * (len(a) + len(b) - 1 - len(expected.coeffs))
        assert _mul(a, b) == [*expected.coeffs, *zeros]

    # one coefficient at each signed limit of the 1-, 2-, 4- and 8-byte slots and a 9-byte one
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
    def test_pack_is_the_value_at_the_slot_base(self, size):
        w = 8 * size
        xs = [0, 1, -1, 2 ** (w - 1) - 1, -(2 ** (w - 1)), 5, -7, 0]
        assert intpoly._pack(xs, size) == sum(x << (w * i) for i, x in enumerate(xs))
        assert intpoly._unpack(intpoly._pack(xs, size), size, len(xs)) == xs

    # three 1-byte digits in [-128, 128) reach exactly [-128*65793, 127*65793]
    @pytest.mark.parametrize(
        "x, digits",
        [(127 * 65793, [127] * 3), (127 * 65793 + 1, None), (-128 * 65793, [-128] * 3), (-128 * 65793 - 1, None)],
    )
    def test_unpack_is_none_past_the_balanced_range(self, x, digits):
        assert intpoly._unpack(x, 1, 3) == digits

    def test_eval(self):
        assert PHI3.evaluate(2) == 7
        assert PHI1.evaluate(1) == 0
        assert PHI15.evaluate(2) == 151

    def test_repr_smoke(self):
        assert "X" in repr(PHI15)
        assert repr(IntPoly(())) == "IntPoly('0')"

    @pytest.mark.parametrize("bad", [(1, 2.0), (1, "2"), (1.5,), (None,), (1, 2, Fraction(3))])
    def test_non_int_coefficient_rejected(self, bad):
        with pytest.raises(TypeError, match="integers"):
            IntPoly(bad)
        with pytest.raises(TypeError, match="integers"):
            IntPoly(coeffs=list(bad))


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
            (cyclotomic(899).coeffs, [-1] * 20 + [1], True),  # monic, every low term negative
            ([1] * 60, [1] * 40 + [2], True),  # non-monic, scale 2^20 fits
            ((-1,) + (0,) * 898 + (1,), (-1, 1), False),  # X - 1 is sparse
            (cyclotomic(899).coeffs, (-1,) + (0,) * 28 + (1,), False),  # so is X^29 - 1
            ([], cyclotomic(29).coeffs, False),  # no step
            ([1] * 28, cyclotomic(29).coeffs, False),
            (cyclotomic(899).coeffs, [1] * 20 + [-1], True),  # lc -1: scale (-1)^steps
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

    def test_sweep_divisions_take_one_pass(self, monkeypatch):
        # one verify_closed_forms pass over the primes <= 31: each packed division decodes
        # Q and R once, at its first width, and each X -+ 1 is one Horner accumulate
        inside, done = [], []

        def counted(f, i):
            def call(*args):
                if inside:
                    inside[-1][i] += 1
                return f(*args)

            return call

        def divide(a, b):
            inside.append([tuple(b), 0, 0])  # divisor, _unpack calls, accumulate calls
            try:
                return pseudo_divrem(a, b)
            finally:
                done.append(inside.pop())

        pseudo_divrem = intpoly._pseudo_divrem
        monkeypatch.setattr(intpoly, "_unpack", counted(intpoly._unpack, 1))
        monkeypatch.setattr(intpoly, "accumulate", counted(intpoly.accumulate, 2))
        monkeypatch.setattr(intpoly, "_pseudo_divrem", divide)
        primes = primes_upto(31)
        for p in primes:
            for r in primes:
                if p != r:
                    verify_closed_forms(PrimePair.of(p, r))
        packed = [unpacks for _, unpacks, _ in done if unpacks]
        by_x_pm_1 = [horner for b, _, horner in done if b in ((-1, 1), (1, 1))]
        assert len(packed) > 100 and set(packed) == {2}
        assert len(by_x_pm_1) > 100 and set(by_x_pm_1) == {1}


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

    def test_constant_inputs(self):
        # a*U has no coefficient when U = 0, so the residual den - a*U is the constant den
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

    @given(bezout_polys, bezout_polys)
    @settings(max_examples=150, deadline=None)
    def test_bezout_identity_and_degree_bounds(self, a, b):
        try:
            u, v = xgcd_rational(a, b)
        except NotCoprimeError:
            return
        lhs = a * u.num * v.den + b * v.num * u.den
        assert lhs == IntPoly.constant(u.den * v.den)
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

    @given(
        st.lists(st.integers(-5, 5), max_size=7).map(lambda cs: IntPoly(tuple(cs))),
        st.lists(st.integers(-5, 5), max_size=7).map(lambda cs: IntPoly(tuple(cs))),
    )
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

    @given(polys, st.integers(-40, 40).filter(bool))
    def test_normalization_idempotent(self, num, den):
        sp = ScaledPoly(num, den)
        assert ScaledPoly(sp.num, sp.den) == sp

    def test_scaled(self):
        assert ScaledPoly(ONE, 3).scaled(3) == ScaledPoly(ONE, 1)
        assert math.gcd(ScaledPoly(IntPoly((3, 6)), 4).num.content, 4) in (1, 4)
