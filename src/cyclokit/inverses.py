"""Closed-form modular inverses between cyclotomic polynomials.

For distinct primes p, r and indices m, n dividing p*r, the inverse of the m-th cyclotomic
polynomial modulo the n-th has small, structured coefficients. Each builder constructs its case from
the closed form and raises ArithmeticError only when an identity of that construction fails, never
on a bound. Case ii divides by X - 1 as one running sum; case iii, times X - 1, divides by X^p - 1
as running sums per residue class in ``_divide_by_binomial``, which also builds the torus's v1; case
iv checks its inverse mod X^r - 1 = (X - 1)*Phi_r by a rotation, so none of them shares a division
with the oracle. Cases i, ii and iii return the Bezout pair (U, V) with Phi_m*U + Phi_n*V = 1,
ordered as ``inverse_pair(m, n)``; case iv is one inverse. ``_bound_holds`` states the bounds of
i-b, ii-b, iii-b and iv; ``verify_closed_forms`` checks all seven cases of a prime pair against the
extended-GCD oracle and reports each verdict with the case's own closed form.

Case ids (m index vs modulus index):
    i-a    p   mod 1          1/p
    i-b    1   mod p          -(1/p)(X^{p-2} + 2X^{p-3} + ... + (p-1))
    ii-a   pr  mod 1          1
    ii-b   1   mod pr         integer coefficients in {-1, 0, 1}
    iii-a  pr  mod p          (1/r)(1 + X + ... + X^d), d = (r-1) mod p
    iii-b  p   mod pr         (1/r) * numerator with every coefficient < r
    iv     p   mod r          integer coefficients in {-1, 0, 1}
"""

from __future__ import annotations

from itertools import accumulate
from operator import eq, sub

from .cyclotomic import PrimePair, cyclotomic, euler_phi, is_prime
from .intpoly import IntPoly, ScaledPoly, _height, _Record, xgcd_rational

CASE_IDS = ("i-a", "i-b", "ii-a", "ii-b", "iii-a", "iii-b", "iv")


def inverse_pair(m: int, n: int) -> tuple[ScaledPoly, ScaledPoly]:
    """Canonical (U, V) with Phi_m*U + Phi_n*V = 1: U inverts Phi_m mod Phi_n, V the converse.

    Distinct cyclotomic polynomials are coprime over the rationals, so this
    only fails (NotCoprimeError) when m == n.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return xgcd_rational(cyclotomic(m), cyclotomic(n))


def inverse_mod(m: int, n: int) -> ScaledPoly:
    """Canonical inverse U of the m-th cyclotomic modulo the n-th, deg U < phi(n)."""
    return inverse_pair(m, n)[0]


def closed_form_i(p: int) -> tuple[ScaledPoly, ScaledPoly]:
    """Case i: (U, V) with Phi_p*U + (X-1)*V = 1.

    U = 1/p and V = -(1/p)(X^{p-2} + 2X^{p-3} + ... + (p-1)).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    reverse = tuple(-(p - 1 - k) for k in range(p - 1))
    return ScaledPoly(IntPoly.one(), p), ScaledPoly(IntPoly._of(reverse), p)


def closed_form_ii(pair: PrimePair) -> tuple[ScaledPoly, ScaledPoly]:
    """Case ii: (U, V) with Phi_pr*U + (X-1)*V = 1: U = 1, V = (1 - Phi_pr) / (X-1).

    With Phi_pr = a_0 + a_1 X + ..., coefficient i of V is the prefix sum
    a_0 + ... + a_i - 1. The division is exact since Phi_pr(1) = 1: the last
    prefix sum, a_0 + ... + a_{phi(pr)} - 1, is checked to be 0.
    """
    sums = list(accumulate(cyclotomic(pair.n).coeffs, initial=-1))
    if sums[-1]:
        raise ArithmeticError(f"X - 1 does not divide 1 - Phi_pr for ({pair.p}, {pair.r})")
    return ScaledPoly(IntPoly.one(), 1), ScaledPoly(IntPoly._of(sums[1:-1]), 1)


def _divide_by_binomial(a: list[int], k: int, what: str, pair: PrimePair) -> list[int]:
    """a/(1 - X^k), in place as running sums per residue class mod k: exact iff the top k are 0."""
    for s in range(k):
        a[s::k] = accumulate(a[s::k])
    if any(a[-k:]):
        raise ArithmeticError(f"X^{k} - 1 does not divide {what} for ({pair.p}, {pair.r})")
    del a[-k:]
    return a


def closed_form_iii(pair: PrimePair) -> tuple[ScaledPoly, ScaledPoly]:
    """Case iii: (U, V) with Phi_pr*U + Phi_p*V = 1, U = (1/r)(1 + X + ... + X^d), d = (r-1) mod p.

    V = (1 - Phi_pr*U)/Phi_p. Times X - 1 on top and bottom, rV = (Phi_pr*(X^(d+1) - 1) - r(X - 1))
    / (1 - X^p): a running sum per residue class mod p, exact iff its top p terms are 0.
    """
    p, r = pair.p, pair.r
    phi, e = cyclotomic(pair.n).coeffs, (r - 1) % p + 1
    a = list(map(sub, (0,) * e + phi, (phi[0] - r, phi[1] + r, *phi[2:]) + (0,) * e))
    v = _divide_by_binomial(a, p, "the numerator of V", pair)
    return ScaledPoly(IntPoly._of((1,) * e), r), ScaledPoly(IntPoly._of(v), r)


def closed_form_iv(p: int, r: int) -> IntPoly:
    """Case iv: integer inverse of the p-th cyclotomic mod the r-th, coefficients in {-1,0,1}.

    With k = p^{-1} mod r, U is S = sum_{i<k} X^{(ip mod r)} mod Phi_r: S's first r - 1 coefficients
    minus its last. (X^p - 1)*S = X^{pk} - 1 = X - 1 mod X^r - 1 = (X-1)*Phi_r, and Phi_r is monic, so
    Phi_p*U = 1 mod Phi_r is checked as (X^p - 1)*U = X - 1 mod X^r - 1: U in r terms, rotated by p,
    minus U is (-1, 1, 0, ..., 0). ``_bound_holds`` judges its coefficient set.
    """
    PrimePair.of(p, r)  # validates distinct primes
    powers = [0] * r
    for i in range(pow(p, -1, r)):
        powers[i * p % r] = 1
    u, s = [c - powers[-1] for c in powers[:-1]] + [0], p % r
    if list(map(sub, u[-s:] + u[:-s], u)) != [-1, 1] + [0] * (r - 2):
        raise ArithmeticError(f"closed form iv is not an inverse of Phi_p mod Phi_r for ({p}, {r})")
    return IntPoly._of(u)


def difference_inverse(p: int, r: int) -> IntPoly:
    """(X-1) times the case-iv inverse; degree < r, since closed_form_iv has r - 1 coefficients.

    Asserts coefficients lie in {-1, 0, 1} and that the nonzero ones
    strictly alternate in sign when read from the constant term up (zeros
    are skipped), the structure the case-iv bound rests on.
    """
    u = closed_form_iv(p, r)
    du = (IntPoly.monomial(1) - IntPoly.one()) * u
    if _height(du.coeffs) > 1:
        raise ValueError("difference inverse has a coefficient outside {-1, 0, 1}")
    signs = list(filter(None, du.coeffs))  # each -1 or 1 by now
    if any(map(eq, signs, signs[1:])):
        raise ValueError(f"difference inverse signs do not alternate for ({p}, {r})")
    return du


class InverseReport(_Record):
    """Outcome of one closed-form case: the inverse, extrema and the first check
    that failed ("oracle", "degree" or "bound"), None when all of them pass."""

    _fields = ("pair", "case_id", "inverse", "failed_check", "observed_min", "observed_max")

    @property
    def bound_satisfied(self) -> bool:
        return self.failed_check is None

    def to_json_dict(self) -> dict:
        return {
            "p": self.pair.p,
            "r": self.pair.r,
            "case": self.case_id,
            **self.inverse.to_json_dict(),
            "bound_satisfied": self.bound_satisfied,
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
        }


def _bound_holds(case_id: str, pair: PrimePair, den: int, lo: int, hi: int) -> bool:
    """The coefficient bound of a case, from the denominator and the numerator's least and
    greatest coefficient; i-a, ii-a and iii-a have none beyond their formula."""
    p, r = pair.p, pair.r
    if case_id == "i-b":
        return den == p and -(p - 1) <= lo and hi <= -1
    if case_id in ("ii-b", "iv"):
        return den == 1 and -1 <= lo and hi <= 1
    if case_id == "iii-b":
        return r % den == 0 and hi * (r // den) < r  # r // den >= 1 once den divides r
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case id {case_id}")
    return True


def verify_closed_forms(pair: PrimePair) -> list[InverseReport]:
    """Run all seven cases for one prime pair and report each outcome.

    Every closed form is compared, as a canonical ScaledPoly, against the
    extended-GCD inverse of the same indices, and its coefficient bound is
    checked. Each row zips a closed pair against the oracle's pair at the same
    (m, n), four calls at (p, 1), (pr, 1), (pr, p) and (p, r) in all.
    A violation is reported (failed_check names the first check that failed,
    so bound_satisfied is False) with the case's own closed form and
    extrema: a sweep is also a falsification harness.
    """
    p, r, n = pair.p, pair.r, pair.n
    rows = (
        (("i-a", "i-b"), closed_form_i(p), p, 1),
        (("ii-a", "ii-b"), closed_form_ii(pair), n, 1),
        (("iii-a", "iii-b"), closed_form_iii(pair), n, p),
        (("iv",), (ScaledPoly(closed_form_iv(p, r)),), p, r),
    )
    reports = []
    for case_ids, closed_pair, m_idx, n_idx in rows:
        oracle_pair, caps = inverse_pair(m_idx, n_idx), (euler_phi(n_idx), euler_phi(m_idx))
        for case_id, closed, oracle, cap in zip(case_ids, closed_pair, oracle_pair, caps):
            values = set(closed.num.coeffs or (0,))  # the zero numerator's one coefficient is 0
            lo, hi = min(values), max(values)
            if closed != oracle:
                failed = "oracle"
            elif closed.num.degree >= cap:
                failed = "degree"
            else:
                failed = None if _bound_holds(case_id, pair, closed.den, lo, hi) else "bound"
            k = r // closed.den if case_id == "iii-b" else 1  # k >= 0 scales both extrema
            reports.append(InverseReport(pair, case_id, closed, failed, k * lo, k * hi))
    return reports
