"""Closed-form inverses against the extended-GCD oracle, plus coefficient bounds."""

import pytest

from cyclokit import inverses
from cyclokit.cyclotomic import PrimePair, cyclotomic, euler_phi, primes_upto
from cyclokit.intpoly import IntPoly, NotCoprimeError, ScaledPoly, divrem_exact
from cyclokit.inverses import (
    CASE_IDS,
    closed_form_i,
    closed_form_ii,
    closed_form_iii_forward,
    closed_form_iii_reverse,
    closed_form_iv,
    difference_inverse,
    inverse_mod,
    verify_closed_forms,
)


def reduce_mod(a: IntPoly, n: int) -> IntPoly:
    return divrem_exact(a, cyclotomic(n))[1]


class TestInverseMod:
    def test_p_mod_1(self):
        assert inverse_mod(3, 1) == ScaledPoly(IntPoly.one(), 3)

    def test_1_mod_p(self):
        assert inverse_mod(1, 5) == ScaledPoly(IntPoly((-4, -3, -2, -1)), 5)

    def test_two_primes(self):
        assert inverse_mod(3, 5) == ScaledPoly(IntPoly((1, 0, 0, 1)), 1)

    def test_defining_property(self):
        for m, n in [(3, 5), (15, 2), (2, 15), (1, 15), (4, 7), (9, 8)]:
            u = inverse_mod(m, n)
            prod = cyclotomic(m) * u.num
            assert reduce_mod(prod, n) == IntPoly.constant(u.den)

    def test_degree_contract(self):
        for m, n in [(3, 5), (15, 2), (1, 15), (5, 15), (15, 5)]:
            assert inverse_mod(m, n).num.degree < euler_phi(n)

    def test_same_index_rejected(self):
        with pytest.raises(NotCoprimeError):
            inverse_mod(3, 3)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            inverse_mod(0, 3)


class TestClosedFormI:
    def test_forward(self):
        assert closed_form_i(2) == ScaledPoly(IntPoly.one(), 2)
        assert closed_form_i(3, "forward") == inverse_mod(3, 1)

    def test_reverse_degenerate(self):
        assert closed_form_i(2, "reverse") == ScaledPoly(IntPoly((-1,)), 2)

    def test_reverse_p5(self):
        assert closed_form_i(5, "reverse") == ScaledPoly(IntPoly((-4, -3, -2, -1)), 5)
        assert closed_form_i(5, "reverse") == inverse_mod(1, 5)

    @pytest.mark.parametrize("p", primes_upto(31))
    def test_reverse_bound(self, p):
        # den = p and every numerator coefficient in [-(p-1), -1]
        pair = PrimePair.of(p, 3 if p == 2 else 2)
        assert inverses._bound_holds("i-b", pair, closed_form_i(p, "reverse"))
        too_low = ScaledPoly(IntPoly((-p, -1)), p)
        assert too_low.den == p and not inverses._bound_holds("i-b", pair, too_low)
        assert not inverses._bound_holds("i-b", pair, ScaledPoly(IntPoly((-1,)), p + 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_i(4)
        with pytest.raises(ValueError):
            closed_form_i(3, "sideways")


class TestClosedFormII:
    def test_forward_is_one(self):
        fwd, _ = closed_form_ii(PrimePair.of(3, 5))
        assert fwd == ScaledPoly(IntPoly.one(), 1)

    def test_reverse_n15(self):
        _, rev = closed_form_ii(PrimePair.of(3, 5))
        assert rev == ScaledPoly(IntPoly((0, -1, -1, 0, -1, 0, 0, -1)), 1)
        assert rev == inverse_mod(1, 15)

    def test_reverse_coefficients_small(self):
        for p, r in [(2, 3), (2, 7), (5, 7), (3, 11)]:
            _, rev = closed_form_ii(PrimePair.of(p, r))
            assert all(c in (-1, 0, 1) for c in rev.num.coeffs)
            assert rev == inverse_mod(1, p * r)


class TestClosedFormIII:
    def test_forward_examples(self):
        assert closed_form_iii_forward(PrimePair.of(3, 5)) == ScaledPoly(IntPoly((1, 1)), 5)
        assert closed_form_iii_forward(PrimePair.of(5, 3)) == ScaledPoly(IntPoly((1, 1, 1)), 3)
        assert closed_form_iii_forward(PrimePair.of(2, 3)) == ScaledPoly(IntPoly.one(), 3)

    def test_forward_reduction_witness(self):
        # Phi_15 * (1 + X) = 5 mod Phi_3
        prod = cyclotomic(15) * IntPoly((1, 1))
        assert reduce_mod(prod, 3) == IntPoly.constant(5)
        prod = cyclotomic(15) * IntPoly((1, 1, 1))
        assert reduce_mod(prod, 5) == IntPoly.constant(3)

    def test_forward_is_oracle(self):
        for p, r in [(2, 3), (3, 5), (5, 3), (7, 13), (13, 7)]:
            assert closed_form_iii_forward(PrimePair.of(p, r)) == inverse_mod(p * r, p)

    def test_reverse_examples(self):
        v = closed_form_iii_reverse(PrimePair.of(2, 3))
        assert v == ScaledPoly(IntPoly((2, -1)), 3)
        v = closed_form_iii_reverse(PrimePair.of(3, 5))
        assert v.den == 5 and all(c < 5 for c in v.num.coeffs)

    def test_reverse_is_oracle(self):
        for p in primes_upto(19):
            for r in primes_upto(19):
                if p == r:
                    continue
                pair = PrimePair.of(p, r)
                assert closed_form_iii_reverse(pair) == inverse_mod(p, p * r)


class TestClosedFormIV:
    def test_examples(self):
        assert closed_form_iv(3, 5) == IntPoly((1, 0, 0, 1))
        assert closed_form_iv(5, 3) == IntPoly((0, -1))
        assert closed_form_iv(2, 3) == IntPoly((0, -1))

    def test_hand_check_2_3(self):
        # (X + 1) * (-X) = -X^2 - X = 1 mod X^2 + X + 1
        prod = cyclotomic(2) * IntPoly((0, -1))
        assert reduce_mod(prod, 3) == IntPoly.one()

    def test_built_without_the_oracle(self, monkeypatch):
        def no_oracle(m, n):
            raise RuntimeError("the extended-GCD oracle must not be called")

        monkeypatch.setattr(inverses, "inverse_mod", no_oracle)
        assert closed_form_iv(3, 5) == IntPoly((1, 0, 0, 1))
        assert difference_inverse(3, 5) == IntPoly((-1, 1, 0, -1, 1))


class TestDifferenceInverse:
    def test_examples(self):
        assert difference_inverse(3, 5) == IntPoly((-1, 1, 0, -1, 1))
        assert difference_inverse(5, 3) == IntPoly((0, 1, -1))

    def test_sweep_small(self):
        for p in primes_upto(13):
            for r in primes_upto(13):
                if p == r:
                    continue
                du = difference_inverse(p, r)
                assert du.degree < r
                assert all(c in (-1, 0, 1) for c in du.coeffs)


class TestVerifyClosedForms:
    def test_pair_3_5(self):
        reports = verify_closed_forms(PrimePair.of(3, 5))
        assert [rep.case_id for rep in reports] == list(CASE_IDS)
        assert all(rep.bound_satisfied for rep in reports)

    def test_smallest_pair(self):
        assert all(rep.bound_satisfied for rep in verify_closed_forms(PrimePair.of(2, 3)))

    def test_large_pair(self):
        assert all(rep.bound_satisfied for rep in verify_closed_forms(PrimePair.of(29, 31)))

    def test_report_serialization(self):
        rep = verify_closed_forms(PrimePair.of(2, 3))[0]
        d = rep.to_json_dict()
        assert set(d) == {"p", "r", "case", "num", "den", "bound_satisfied", "observed_min", "observed_max"}
        assert d["p"] == 2 and d["case"] == "i-a"

    def test_extrema_recorded(self):
        reports = {rep.case_id: rep for rep in verify_closed_forms(PrimePair.of(3, 5))}
        assert reports["i-b"].observed_min == -2  # -(1/3)(X + 2)
        assert reports["iii-b"].observed_max < 5
