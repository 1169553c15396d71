"""Closed-form inverses against the extended-GCD oracle, plus coefficient bounds."""

import builtins
import functools
import hashlib
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclokit import cli, intpoly, inverses
from cyclokit.cyclotomic import PrimePair, cyclotomic, euler_phi, primes_upto
from cyclokit.intpoly import IntPoly, NotCoprimeError, ScaledPoly, divrem_exact, xgcd_rational
from cyclokit.inverses import (
    CASE_IDS,
    closed_form_i,
    closed_form_ii,
    closed_form_iii,
    closed_form_iv,
    difference_inverse,
    inverse_mod,
    inverse_pair,
    verify_closed_forms,
)
from cyclokit.torus import derive_exponent_polys


def reduce_mod(a: IntPoly, n: int) -> IntPoly:
    return divrem_exact(a, cyclotomic(n))[1]


def bound_holds(case_id: str, pair: PrimePair, closed: ScaledPoly) -> bool:
    """_bound_holds on the extrema that verify_closed_forms reads off the numerator."""
    coeffs = closed.num.coeffs or (0,)
    return inverses._bound_holds(case_id, pair, closed.den, min(coeffs), max(coeffs))


def bound_holds_per_coefficient(case_id: str, pair: PrimePair, closed: ScaledPoly) -> bool:
    """Reference for _bound_holds: each bound tested coefficient by coefficient, the zero
    numerator as the one coefficient 0."""
    p, r = pair.p, pair.r
    den, coeffs = closed.den, closed.num.coeffs or (0,)
    if case_id == "i-b":
        return den == p and all(-(p - 1) <= c <= -1 for c in coeffs)
    if case_id in ("ii-b", "iv"):
        return den == 1 and all(c in (-1, 0, 1) for c in coeffs)
    if case_id == "iii-b":
        return r % den == 0 and all(c * (r // den) < r for c in coeffs)
    return True


@st.composite
def bound_cases(draw):
    p, r = draw(st.sampled_from([(p, r) for p in primes_upto(13) for r in primes_upto(13) if p != r]))
    den = draw(st.one_of(st.sampled_from((1, p, r)), st.integers(1, 2 * r)))
    coeffs = draw(st.lists(st.integers(-r - 1, r + 1), max_size=8))
    return draw(st.sampled_from(CASE_IDS)), PrimePair(p, r), ScaledPoly(IntPoly(tuple(coeffs)), den)


def assert_bezout_pair(m: int, n: int, u: ScaledPoly, v: ScaledPoly) -> None:
    # Phi_m*U + Phi_n*V = 1 exactly, with deg U < phi(n) and deg V < phi(m)
    lhs = cyclotomic(m) * u.num * v.den + cyclotomic(n) * v.num * u.den
    assert lhs == IntPoly((u.den * v.den,)), (m, n)
    assert u.num.degree < euler_phi(n) and v.num.degree < euler_phi(m), (m, n)


class TestInverseMod:
    def test_p_mod_1(self):
        assert inverse_mod(3, 1) == ScaledPoly(IntPoly.one(), 3)

    def test_1_mod_p(self):
        assert inverse_mod(1, 5) == ScaledPoly(IntPoly((-4, -3, -2, -1)), 5)

    def test_two_primes(self):
        assert inverse_mod(3, 5) == ScaledPoly(IntPoly((1, 0, 0, 1)), 1)

    def test_defining_property(self):
        # (105, 77) and (77, 105) run dozens of Euclid steps whose cofactors
        # only stay small if each is reduced by gcd(content, den)
        for m, n in [(3, 5), (15, 2), (2, 15), (1, 15), (4, 7), (9, 8), (105, 77), (77, 105)]:
            u = inverse_mod(m, n)
            prod = cyclotomic(m) * u.num
            assert reduce_mod(prod, n) == IntPoly((u.den,))

    def test_degree_contract(self):
        for m, n in [(3, 5), (15, 2), (1, 15), (5, 15), (15, 5)]:
            assert inverse_mod(m, n).num.degree < euler_phi(n)

    def test_same_index_rejected(self):
        with pytest.raises(NotCoprimeError):
            inverse_mod(3, 3)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            inverse_mod(0, 3)

    @pytest.mark.parametrize("p, r", [(3, 5), (2, 7)])
    def test_pair_halves_are_one_bezout_identity(self, p, r):
        divisors = (1, p, r, p * r)
        for m in divisors:
            for n in divisors:
                if m == n:
                    continue
                u, v = inverse_pair(m, n)
                assert_bezout_pair(m, n, u, v)
                assert (u, v) == (inverse_mod(m, n), inverse_mod(n, m)), (m, n)

    def test_canonical_pairs_below_80_are_pinned(self):
        # sha256 of one line "m n repr(inverse_pair(m, n))" per ordered pair 1 <= m != n < 80, in
        # order: any change to the oracle's canonical outputs, not only to the seeded CLI's, moves it
        lines = hashlib.sha256()
        for m in range(1, 80):
            for n in range(1, 80):
                if m != n:
                    lines.update(f"{m} {n} {inverse_pair(m, n)!r}\n".encode())
        assert lines.hexdigest() == "4d431ee90feeac764b870939535e545a0825b94e2a9646be9e74ca00268cb8bb"


# every ordered pair of distinct primes <= 13
SMALL_PAIRS = [(p, r) for p in primes_upto(13) for r in primes_upto(13) if p != r]


class TestBezoutPairContract:
    @pytest.mark.parametrize("p, r", SMALL_PAIRS)
    def test_two_sided_builders_return_the_bezout_pair(self, p, r):
        pair = PrimePair(p, r)
        assert_bezout_pair(p, 1, *closed_form_i(p))
        assert_bezout_pair(p * r, 1, *closed_form_ii(pair))
        assert_bezout_pair(p * r, p, *closed_form_iii(pair))

    @pytest.mark.parametrize("p, r", SMALL_PAIRS)
    def test_case_iv_and_its_swap_form_the_bezout_pair(self, p, r):
        assert_bezout_pair(p, r, ScaledPoly(closed_form_iv(p, r)), ScaledPoly(closed_form_iv(r, p)))


class TestClosedFormI:
    def test_forward(self):
        assert closed_form_i(2)[0] == ScaledPoly(IntPoly.one(), 2)
        assert closed_form_i(3)[0] == inverse_mod(3, 1)

    def test_reverse_degenerate(self):
        assert closed_form_i(2)[1] == ScaledPoly(IntPoly((-1,)), 2)

    def test_reverse_p5(self):
        assert closed_form_i(5)[1] == ScaledPoly(IntPoly((-4, -3, -2, -1)), 5)
        assert closed_form_i(5)[1] == inverse_mod(1, 5)

    @pytest.mark.parametrize("p", primes_upto(31))
    def test_reverse_bound(self, p):
        # den = p and every numerator coefficient in [-(p-1), -1]
        pair = PrimePair(p, 3 if p == 2 else 2)
        r = pair.r
        assert bound_holds("i-b", pair, closed_form_i(p)[1])
        too_low = ScaledPoly(IntPoly((-p, -1)), p)
        assert too_low.den == p and not bound_holds("i-b", pair, too_low)
        assert not bound_holds("i-b", pair, ScaledPoly(IntPoly((-1,)), p + 2))
        # ii-b and iv: integral, coefficients in {-1, 0, 1}
        assert bound_holds("ii-b", pair, closed_form_ii(pair)[1])
        assert not bound_holds("ii-b", pair, ScaledPoly(IntPoly((0, -1, 2)), 1))
        assert bound_holds("iv", pair, ScaledPoly(closed_form_iv(p, r), 1))
        assert not bound_holds("iv", pair, ScaledPoly(IntPoly((1,)), 2))
        # iii-b: written over the denominator r, every numerator coefficient < r
        assert bound_holds("iii-b", pair, closed_form_iii(pair)[1])
        assert not bound_holds("iii-b", pair, ScaledPoly(IntPoly((r, -1)), r))

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_i(4)


class TestClosedFormII:
    def test_forward_is_one(self):
        fwd, _ = closed_form_ii(PrimePair(3, 5))
        assert fwd == ScaledPoly(IntPoly.one(), 1)

    def test_reverse_n15(self):
        _, rev = closed_form_ii(PrimePair(3, 5))
        assert rev == ScaledPoly(IntPoly((0, -1, -1, 0, -1, 0, 0, -1)), 1)
        assert rev == inverse_mod(1, 15)

    def test_reverse_coefficients_small(self):
        for p, r in [(2, 3), (2, 7), (5, 7), (3, 11)]:
            _, rev = closed_form_ii(PrimePair(p, r))
            assert all(c in (-1, 0, 1) for c in rev.num.coeffs)
            assert rev == inverse_mod(1, p * r)

    def test_inexact_division_raises(self, monkeypatch):
        # Phi_3(1) = 3, not 1: X - 1 does not divide 1 - Phi_3
        monkeypatch.setattr(inverses, "cyclotomic", lambda n: IntPoly((1, 1, 1)))
        with pytest.raises(ArithmeticError, match=r"\(3, 5\)"):
            closed_form_ii(PrimePair(3, 5))


# (p, r) pairs whose builders are profiled or perturbed below
PROBE_PAIRS = [(2, 3), (3, 2), (3, 5), (5, 3), (7, 13), (29, 31)]


@pytest.mark.parametrize("p, r", PROBE_PAIRS)
def test_construction_does_no_long_division(p, r):
    # cases iii and iv divide only by binomials, never through intpoly's division or product
    kernels = {f.__code__ for f in (intpoly._pseudo_divrem, intpoly.divrem_exact, intpoly._mul)}
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in kernels:
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        closed_form_iii(PrimePair(p, r))
        closed_form_iv(p, r)
    finally:
        sys.setprofile(previous)
    assert entered == [] and not hasattr(inverses, "divrem_exact")


class TestClosedFormIII:
    def test_forward_examples(self):
        assert closed_form_iii(PrimePair(3, 5))[0] == ScaledPoly(IntPoly((1, 1)), 5)
        assert closed_form_iii(PrimePair(5, 3))[0] == ScaledPoly(IntPoly((1, 1, 1)), 3)
        assert closed_form_iii(PrimePair(2, 3))[0] == ScaledPoly(IntPoly.one(), 3)

    def test_forward_reduction_witness(self):
        # Phi_15 * (1 + X) = 5 mod Phi_3
        prod = cyclotomic(15) * IntPoly((1, 1))
        assert reduce_mod(prod, 3) == IntPoly((5,))
        prod = cyclotomic(15) * IntPoly((1, 1, 1))
        assert reduce_mod(prod, 5) == IntPoly((3,))

    def test_forward_is_oracle(self):
        for p, r in [(2, 3), (3, 5), (5, 3), (7, 13), (13, 7)]:
            assert closed_form_iii(PrimePair(p, r))[0] == inverse_mod(p * r, p)

    def test_reverse_examples(self):
        v = closed_form_iii(PrimePair(2, 3))[1]
        assert v == ScaledPoly(IntPoly((2, -1)), 3)
        v = closed_form_iii(PrimePair(3, 5))[1]
        assert v.den == 5 and all(c < 5 for c in v.num.coeffs)

    @pytest.mark.parametrize("p, r", PROBE_PAIRS)
    def test_inexact_division_raises(self, monkeypatch, p, r):
        # Phi_pr + 1 leaves r - Phi_pr*U off by U, which Phi_p does not divide: deg U < p - 1
        real = inverses.cyclotomic
        monkeypatch.setattr(inverses, "cyclotomic", lambda n: real(n) + IntPoly.one() if n == p * r else real(n))
        with pytest.raises(ArithmeticError, match=rf"\({p}, {r}\)") as exc:
            closed_form_iii(PrimePair(p, r))
        assert type(exc.value) is ArithmeticError

    def test_reverse_is_oracle(self):
        for p in primes_upto(19):
            for r in primes_upto(19):
                if p == r:
                    continue
                pair = PrimePair(p, r)
                assert closed_form_iii(pair)[1] == inverse_mod(p, p * r)


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
        monkeypatch.setattr(inverses, "inverse_pair", no_oracle)
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

    @pytest.mark.parametrize(
        "u, message",
        [
            (IntPoly((2,)), "outside"),  # (X - 1) * 2 = -2 + 2X
            (IntPoly((-1, -2, -1)), "alternate"),  # (X - 1) * -(1 + X)^2 = 1 + X - X^2 - X^3
        ],
    )
    def test_rejects_a_wrong_coefficient_pattern(self, monkeypatch, u, message):
        monkeypatch.setattr(inverses, "closed_form_iv", lambda p, r: u)
        with pytest.raises(ValueError, match=message):
            difference_inverse(3, 5)


class TestVerifyClosedForms:
    def test_pair_3_5(self):
        reports = verify_closed_forms(PrimePair(3, 5))
        assert [rep.case_id for rep in reports] == list(CASE_IDS)
        assert all(rep.bound_satisfied for rep in reports)

    def test_one_oracle_call_per_index_pair(self, monkeypatch):
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return xgcd_rational(a, b)

        monkeypatch.setattr(inverses, "xgcd_rational", recording)
        assert all(rep.bound_satisfied for rep in verify_closed_forms(PrimePair(3, 5)))
        assert len(calls) == 4

    def test_smallest_pair(self):
        assert all(rep.bound_satisfied for rep in verify_closed_forms(PrimePair(2, 3)))

    def test_large_pair(self):
        assert all(rep.bound_satisfied for rep in verify_closed_forms(PrimePair(29, 31)))

    def test_report_serialization(self):
        rep = verify_closed_forms(PrimePair(2, 3))[0]
        d = rep.to_json_dict()
        assert set(d) == {"p", "r", "case", "num", "den", "bound_satisfied", "observed_min", "observed_max"}
        assert d["p"] == 2 and d["case"] == "i-a"

    @given(bound_cases())
    def test_bound_holds_matches_the_per_coefficient_definition(self, case):
        assert bound_holds(*case) == bound_holds_per_coefficient(*case)

    def test_bound_holds_rejects_an_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case id v"):
            inverses._bound_holds("v", PrimePair(3, 5), 1, 0, 0)

    def test_extrema_recorded(self):
        reports = {rep.case_id: rep for rep in verify_closed_forms(PrimePair(3, 5))}
        assert reports["i-b"].observed_min == -2  # -(1/3)(X + 2)
        assert reports["iii-b"].observed_max < 5

    # an out-of-bound closed form for each bounded case at (3, 5), its
    # expected (num, den) and extrema (iii-b's scaled to denominator r = 5)
    OUT_OF_BOUND = {
        "i-b": (ScaledPoly(IntPoly((-3, -1)), 3), -3, -1),
        "ii-b": (ScaledPoly(IntPoly((0, -1, 2)), 1), -1, 2),
        "iii-b": (ScaledPoly(IntPoly((5, -1)), 5), -1, 5),
        "iv": (ScaledPoly(IntPoly((1, 0, 0, 2)), 1), 0, 2),
    }

    @pytest.mark.parametrize("case_id", sorted(OUT_OF_BOUND))
    def test_bound_miss_reports_its_own_closed_form(self, monkeypatch, case_id):
        bad, lo, hi = self.OUT_OF_BOUND[case_id]
        real_i, real_ii, real_iii = closed_form_i, closed_form_ii, closed_form_iii
        builders = {
            "i-b": ("closed_form_i", lambda p: (real_i(p)[0], bad)),
            "ii-b": ("closed_form_ii", lambda pair: (real_ii(pair)[0], bad)),
            "iii-b": ("closed_form_iii", lambda pair: (real_iii(pair)[0], bad)),
            "iv": ("closed_form_iv", lambda p, r: bad.num),
        }
        monkeypatch.setattr(inverses, *builders[case_id])
        reports = {rep.case_id: rep for rep in verify_closed_forms(PrimePair(3, 5))}
        missed = reports.pop(case_id)
        # the fake is not the oracle's inverse, so that check fails first
        assert not missed.bound_satisfied and missed.failed_check == "oracle"
        line = missed.to_json_dict()
        assert line["num"] == bad.num.to_decimal_strings() and line["den"] == str(bad.den)
        assert (missed.observed_min, missed.observed_max) == (lo, hi)
        assert len(reports) == 6 and all(rep.bound_satisfied for rep in reports.values())
        assert all(rep.failed_check is None for rep in reports.values())

    # a closed form at (3, 5) that fails a check first: the check, its builder,
    # the fake it returns (ii's as the second half of its pair, iii's as the
    # first), its case, and the indices at which the oracle is made to return
    # the same fake (so that the later checks decide), if any
    FIRST_FAILED = {
        "oracle": ("oracle", "closed_form_iii", ScaledPoly(IntPoly((1,)), 7), "iii-a", None),
        "degree": ("degree", "closed_form_iii", ScaledPoly(IntPoly((0, 0, 1)), 5), "iii-a", (15, 3)),
        "bound": ("bound", "closed_form_iv", IntPoly((2,)), "iv", (3, 5)),
        # a zero numerator has no coefficients to take extrema of
        "zero": ("oracle", "closed_form_ii", ScaledPoly(IntPoly(()), 1), "ii-b", None),
    }

    @pytest.mark.parametrize("fault", sorted(FIRST_FAILED))
    def test_failed_check_is_named(self, monkeypatch, capsys, fault):
        check, builder, fake, case_id, agree_at = self.FIRST_FAILED[fault]
        real_ii, real_iii = closed_form_ii, closed_form_iii
        fakes = {
            "closed_form_ii": lambda pair: (real_ii(pair)[0], fake),
            "closed_form_iii": lambda pair: (fake, real_iii(pair)[1]),
            "closed_form_iv": lambda p, r: fake,
        }
        monkeypatch.setattr(inverses, builder, fakes[builder])
        if agree_at:
            real, scaled = inverse_pair, fake if isinstance(fake, ScaledPoly) else ScaledPoly(fake)

            def agreeing_pair(m, n):
                u, v = real(m, n)
                return (scaled if (m, n) == agree_at else u, scaled if (n, m) == agree_at else v)

            monkeypatch.setattr(inverses, "inverse_pair", agreeing_pair)
        reports = {rep.case_id: rep for rep in verify_closed_forms(PrimePair(3, 5))}
        failed = reports.pop(case_id)
        assert (failed.bound_satisfied, failed.failed_check) == (False, check)
        assert all(rep.failed_check is None for rep in reports.values())
        # the JSON line carries the key only when ok is false
        assert cli.main(["verify", "--mode", "theorem1", "--max", "5"]) == 1
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()[:-1]]
        assert len(lines) == 6 * 7
        assert all(("failed_check" in line) == (not line["ok"]) for line in lines)
        (line,) = [ln for ln in lines if (ln["p"], ln["r"], ln["case"]) == (3, 5, case_id)]
        assert line["failed_check"] == check and line["bound_satisfied"] is False
        assert list(line)[-2:] == ["ok", "failed_check"]

    @staticmethod
    def _wrong_k(monkeypatch):
        # case iv's k = p^-1 mod r, off by one: the sum then misses the
        # inverse, so Phi_p * U = 1 mod Phi_r fails
        monkeypatch.setattr(
            inverses, "pow", lambda b, e, m: builtins.pow(b, e, m) + 1, raising=False
        )

    def test_identity_failure_raises(self, monkeypatch):
        self._wrong_k(monkeypatch)
        with pytest.raises(ArithmeticError, match=r"\(3, 5\)") as exc:
            verify_closed_forms(PrimePair(3, 5))
        assert type(exc.value) is ArithmeticError

    def test_identity_failure_exits_1(self, monkeypatch, capsys):
        self._wrong_k(monkeypatch)
        code = cli.main(["verify", "--mode", "theorem1", "--max", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "(2, 3)" in err
        assert "Traceback" not in err


# All 306 ordered pairs of distinct primes <= 61. These pin envelopes that
# the closed forms show on this range: observations, sharper than the bounds
# _bound_holds states, which tighten only on the paper's own statements.
OBSERVED_PAIRS = [PrimePair(p, r) for p in primes_upto(61) for r in primes_upto(61) if p != r]


class TestObservedEnvelopes:
    def test_pair_count(self):
        assert len(OBSERVED_PAIRS) == 306

    def test_iii_b_extrema(self):
        # observed: max r - 1; min -(r - 2) exactly when r = 1 mod p, else -(r - 1)
        for pair in OBSERVED_PAIRS:
            p, r = pair.p, pair.r
            closed = closed_form_iii(pair)[1]
            scaled = [c * (r // closed.den) for c in closed.num.coeffs]
            low = -(r - 2) if r % p == 1 else -(r - 1)
            assert (min(scaled), max(scaled)) == (low, r - 1), (p, r)

    def test_ii_b_coefficients_are_minus_one_or_zero(self):
        # observed: +1 never occurs and -1 always does
        for pair in OBSERVED_PAIRS:
            coeffs = set(closed_form_ii(pair)[1].num.coeffs)
            assert coeffs <= {-1, 0} and -1 in coeffs, (pair.p, pair.r)

    def test_iv_coefficients_are_sign_uniform(self):
        # observed: all in {-1, 0} or all in {0, 1}
        for pair in OBSERVED_PAIRS:
            coeffs = set(closed_form_iv(pair.p, pair.r).coeffs)
            assert coeffs <= {-1, 0} or coeffs <= {0, 1}, (pair.p, pair.r)


@functools.lru_cache(maxsize=None)
def torus_v1_v2(p: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    exps = derive_exponent_polys(p, r)
    return exps.v1.coeffs, exps.v2.coeffs


class TestTorusExponentEnvelopes:
    """The coefficients of the torus exponents v1, v2 over the same 306 pairs, a = min(p, r),
    b = max(p, r). v2 is p*r times the inverse of Phi_1*Phi_pr mod Phi_p*Phi_r, a product of the
    polynomials whose inverses the paper bounds.

    The v2 envelope and the symmetry are theorems. Symmetry: derive_exponent_polys' formulas for
    v1 and v2, M included, are symmetric in p and r. Envelope: v2 = Phi_r*b_p + Phi_p*b_r, and
    case i-b's b_p has -(p - 1 - j) at X^j for 0 <= j <= p - 2. With t = p - 1 - j, the negated
    coefficient of Phi_r*b_p at X^i is the sum of the integers t in [1, p - 1] with
    p - 1 - i <= t <= p + r - 2 - i: a window of r consecutive integers, cut to [1, p - 1]. In the
    same way Phi_p*b_r's is the sum over a window of p consecutive integers, cut to [1, r - 1].
    For 0 <= i <= p + r - 3 = deg v2 both windows hold max(1, k - 1 - i) (k = p, r), so each sum
    is at least 1 and v2's coefficients are at most -2, with -2 at X^(p+r-3), where both windows
    are {1}. Take p = a by the symmetry. The first sum is at most 1 + ... + (a - 1), the second, of
    at most a distinct integers below b, at most (b - 1) + ... + (b - a); together a(b - 1). At
    X^(a-1) the windows are [1, a - 1] and [b - a, b - 1], so -a(b - 1) is attained there.

    v1's least coefficient -2(a - 1)(b - 1) is an observation on this range, without proof.
    """

    def test_v2_envelope(self):
        for pair in OBSERVED_PAIRS:
            a, b = sorted((pair.p, pair.r))
            v2 = torus_v1_v2(pair.p, pair.r)[1]
            assert (min(v2), max(v2)) == (-a * (b - 1), -2), (pair.p, pair.r)
            assert (v2[a - 1], v2[-1], len(v2)) == (-a * (b - 1), -2, a + b - 2), (pair.p, pair.r)

    def test_v1_least_coefficient(self):
        for pair in OBSERVED_PAIRS:
            a, b = sorted((pair.p, pair.r))
            assert min(torus_v1_v2(pair.p, pair.r)[0]) == -2 * (a - 1) * (b - 1), (pair.p, pair.r)

    def test_symmetric_in_p_and_r(self):
        for pair in OBSERVED_PAIRS:
            assert torus_v1_v2(pair.p, pair.r) == torus_v1_v2(pair.r, pair.p), (pair.p, pair.r)


class TestOraclePairs:
    def test_iii_and_iv_are_the_oracle_pairs(self):
        # both halves of case iii at (pr, p), and case iv with its swap at (p, r), for p < r
        for pair in OBSERVED_PAIRS:
            p, r = pair.p, pair.r
            assert closed_form_iii(pair) == inverse_pair(p * r, p), (p, r)
            if p < r:
                iv = ScaledPoly(closed_form_iv(p, r)), ScaledPoly(closed_form_iv(r, p))
                assert iv == inverse_pair(p, r), (p, r)
