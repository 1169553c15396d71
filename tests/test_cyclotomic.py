"""Cyclotomic construction, totients, Moebius sums, closed-form resultants."""

import math
import sys

import pytest

import cyclokit
import cyclokit.cyclotomic as cyclotomic_module
from cyclokit import intpoly
from cyclokit.cyclotomic import (
    PrimePair,
    cyclotomic,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    lam_leung_phi_pr,
    lam_leung_split,
    moebius,
    nontrivial_resultant,
    primes_upto,
    resultant_apostol,
)
from cyclokit.intpoly import IntPoly, resultant

PHI15 = IntPoly((1, -1, 0, 1, -1, 1, 0, -1, 1))


class TestNumberTheory:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)

    def test_is_prime_against_a_sieve(self):
        bound = 10_000
        sieve = [False, False] + [True] * (bound - 1)
        for n in range(2, math.isqrt(bound) + 1):
            if sieve[n]:
                sieve[n * n :: n] = [False] * len(range(n * n, bound + 1, n))
        assert [is_prime(n) for n in range(-50, bound + 1)] == [False] * 50 + sieve
        assert is_prime(65537) and is_prime(2**31 - 1)
        assert not is_prime(561) and not is_prime(2**32 + 1)

    def test_factorize_roundtrip(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(1) == ()
        for n in range(1, 300):
            pairs = factorize(n)
            assert math.prod(p**e for p, e in pairs) == n
            assert all(is_prime(p) and e >= 1 for p, e in pairs)
            assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})

    def test_factorize_rejects_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            factorize(0)

    def test_factorize_stops_once_the_cofactor_is_prime(self):
        # trial division ends at sqrt of what is left: 3 after the twos, not sqrt(3 * 2^50)
        assert factorize(3 * 2**50) == ((2, 50), (3, 1))
        assert factorize(2**36) == ((2, 36),) and not is_prime(2**36)
        assert factorize(2 * (2**31 - 1)) == ((2, 1), (2**31 - 1, 1))
        assert factorize(65537**2) == ((65537, 2),)

    def test_divisors(self):
        assert divisors(15) == (1, 3, 5, 15)
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_euler_phi(self):
        assert euler_phi(1) == 1
        assert euler_phi(15) == 8
        assert euler_phi(8) == 4

    def test_moebius(self):
        assert moebius(1) == 1
        assert moebius(4) == 0
        assert moebius(30) == -1

    def test_moebius_divisor_sums_vanish(self):
        for n in range(2, 501):
            assert sum(moebius(d) for d in divisors(n)) == 0


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == IntPoly((-1, 1))
        assert cyclotomic(2) == IntPoly((1, 1))
        assert cyclotomic(6) == IntPoly((1, -1, 1))
        assert cyclotomic(15) == PHI15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_identity_up_to_200(self):
        for n in range(1, 201):
            prod = IntPoly.one()
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == IntPoly.monomial(n) - IntPoly.one()

    def test_degree_is_totient_up_to_200(self):
        for n in range(1, 201):
            assert cyclotomic(n).degree == euler_phi(n)

    # squarefree (3003 = 3*7*11*13, 15015 = 3*5*7*11*13) and not (4620, 9009,
    # 864 = 2^5*3^3); the series construction never reads a lower-index
    # cyclotomic, so the divisor product is an independent check
    @pytest.mark.parametrize("n", [3003, 4620, 9009, 864, 15015])
    def test_large_composite_indices(self, n):
        prod = IntPoly.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == IntPoly.monomial(n) - IntPoly.one()
        assert cyclotomic(n).degree == euler_phi(n)

    # three identities the construction does not use, over every index <= 3003
    def test_twice_an_odd_index_is_the_odd_one_at_minus_x(self):
        for n in range(3, 1502, 2):  # Phi_2n(X) = Phi_n(-X)
            c, c2 = cyclotomic(n).coeffs, cyclotomic(2 * n).coeffs
            assert c2[::2] == c[::2] and c2[1::2] == tuple(-x for x in c[1::2])

    def test_a_repeated_prime_substitutes_x_to_the_p(self):
        for n in range(2, 1502):  # Phi_np(X) = Phi_n(X^p) for each prime p | n
            for p, _ in factorize(n):
                if n * p <= 3003:
                    c = cyclotomic(n).coeffs
                    spread = [0] * ((len(c) - 1) * p + 1)
                    spread[::p] = c
                    assert cyclotomic(n * p).coeffs == tuple(spread), (n, p)

    def test_value_at_one(self):
        for n in range(2, 3004):  # Phi_n(1) = p for n = p^k, else 1
            p = next((k for k in range(2, math.isqrt(n) + 1) if n % k == 0), n)
            power = p
            while power < n:
                power *= p
            assert sum(cyclotomic(n).coeffs) == (p if power == n else 1), n

    def test_binomial_that_does_not_divide_raises(self, monkeypatch):
        # mu(6) = +1 read as -1: 1 - X is divided out where it should multiply
        # in, so the series does not end at X^phi(6) = X^2
        monkeypatch.setattr(cyclotomic_module, "moebius", lambda k: -1 if k == 6 else moebius(k))
        with pytest.raises(ArithmeticError, match=r"Phi_6 .* past X\^2"):
            cyclotomic.__wrapped__(6)

    def test_package_attribute_is_the_module(self, monkeypatch):
        # the package exports no function under its submodule's name, so a
        # patch through the dotted path reaches the module's Moebius reads
        assert cyclokit.cyclotomic is cyclotomic_module is sys.modules["cyclokit.cyclotomic"]
        arguments_seen = []

        def recording(k):
            arguments_seen.append(k)
            return moebius(k)

        monkeypatch.setattr("cyclokit.cyclotomic.moebius", recording)
        assert cyclotomic.__wrapped__(15) == PHI15
        assert arguments_seen == [15, 5, 3, 1] * 2  # mu(15/d) for d | 15, once per pass

    @pytest.mark.parametrize("n", [1, 2, 15, 105, 3003])
    def test_construction_does_no_long_division(self, n):
        # a profiler sees every call, however the function was imported
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is intpoly._pseudo_divrem.__code__:
                entered.append(n)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            phi = cyclotomic.__wrapped__(n)
        finally:
            sys.setprofile(previous)
        assert phi.degree == euler_phi(n) and entered == []

    def test_phi105_landmark(self):
        c = cyclotomic(105).coeffs
        assert c[7] == -2 and c[41] == -2

    def test_monic(self):
        for n in range(1, 60):
            assert cyclotomic(n).is_monic


class TestLamLeung:
    def test_split_examples(self):
        assert lam_leung_split(3, 5) == (1, 1)
        assert lam_leung_split(2, 3) == (1, 0)
        assert lam_leung_split(5, 3) == (1, 1)

    def test_split_meets_its_definition(self):
        primes = [p for p in range(2, 60) if is_prime(p)]
        for p in primes:
            for r in primes:
                if p != r:
                    s, t = lam_leung_split(p, r)
                    assert s * p + t * r == (p - 1) * (r - 1)
                    assert 0 <= s <= r - 2 and 0 <= t <= p - 2

    def test_split_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            lam_leung_split(3, 3)
        with pytest.raises(ValueError):
            lam_leung_split(4, 5)

    def test_matches_cyclotomic(self):
        assert lam_leung_phi_pr(3, 5) == cyclotomic(15)
        assert lam_leung_phi_pr(2, 3) == cyclotomic(6)
        assert lam_leung_phi_pr(7, 11) == cyclotomic(77)

    def test_matches_cyclotomic_in_both_orders(self):
        primes = primes_upto(61)
        for p in primes:
            for r in primes:
                if p < r:
                    assert lam_leung_phi_pr(p, r) == lam_leung_phi_pr(r, p) == cyclotomic(p * r)

    def test_coefficient_set_small_pairs(self):
        for p, r in [(2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (5, 11)]:
            assert all(c in (-1, 0, 1) for c in lam_leung_phi_pr(p, r).coeffs)

    def test_prime_pair(self):
        assert PrimePair(3, 5).n == PrimePair(5, 3).n == 15
        for p, r in [(3, 9), (4, 5), (5, 5), (1, 2)]:
            with pytest.raises(ValueError):
                PrimePair(p, r)


class TestApostol:
    def test_prime_power_cases(self):
        assert resultant_apostol(9, 1) == 3
        assert resultant_apostol(6, 1) == 1
        assert resultant_apostol(2, 1) == 2
        assert resultant_apostol(128, 1) == 2

    def test_index_one_is_the_value_at_one(self):
        # Res(Phi_m, X - 1) = +-Phi_m(1), evaluated without the divisor product
        for m in range(2, 1001):
            assert resultant_apostol(m, 1) == abs(cyclotomic(m).evaluate(1)), m

    def test_two_index_case(self):
        assert resultant_apostol(6, 3) == 4
        assert resultant_apostol(15, 3) == 25

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            resultant_apostol(3, 3)
        with pytest.raises(ValueError):
            resultant_apostol(3, 5)

    def test_matches_generic_small(self):
        for m in range(2, 26):
            pm = cyclotomic(m)
            for n in range(1, m):
                assert resultant_apostol(m, n) == abs(resultant(pm, cyclotomic(n)))


class TestCoprimality:
    def test_nontrivial_resultant(self):
        assert nontrivial_resultant(6, 3)
        assert nontrivial_resultant(15, 3)  # ratio 5 is a prime power
        assert not nontrivial_resultant(15, 1)
        assert not nontrivial_resultant(5, 3)

    @pytest.mark.parametrize("m, n", [(3, 3), (3, 5), (1, 0)])
    def test_nontrivial_resultant_rejects_bad_order(self, m, n):
        with pytest.raises(ValueError, match="m > n >= 1"):
            nontrivial_resultant(m, n)

    def test_matches_apostol(self):
        for m in range(2, 41):
            for n in range(1, m):
                assert nontrivial_resultant(m, n) == (resultant_apostol(m, n) != 1)

    # a unit resultant bounds gcd(Phi_m(q), Phi_n(q)) by 1 at every integer q
    def test_coprime_evaluations_true_case(self):
        assert not nontrivial_resultant(15, 1)
        for q in range(2, 101):
            assert math.gcd(cyclotomic(15).evaluate(q), cyclotomic(1).evaluate(q)) == 1

    def test_coprime_evaluations_false_case(self):
        assert nontrivial_resultant(3, 1)
        assert math.gcd(cyclotomic(3).evaluate(4), cyclotomic(1).evaluate(4)) == 3

    def test_non_integer_ratio(self):
        assert not nontrivial_resultant(5, 3)
        for q in range(2, 101):
            assert math.gcd(cyclotomic(5).evaluate(q), cyclotomic(3).evaluate(q)) == 1


def test_primes_upto():
    assert primes_upto(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
