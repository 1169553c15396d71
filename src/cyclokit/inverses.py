"""Closed-form modular inverses between cyclotomic polynomials.

For distinct primes p, r and indices m, n dividing p*r, the inverse of
the m-th cyclotomic polynomial modulo the n-th has small, structured
coefficients. Each case below constructs the inverse directly from its
closed form; ``verify_closed_forms`` replays all seven cases for a prime
pair, cross-checks them against the generic extended-GCD inverse, and
reports every coefficient bound instead of raising.

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

from dataclasses import dataclass

from .cyclotomic import PrimePair, cyclotomic, euler_phi, is_prime
from .intpoly import IntPoly, ScaledPoly, divrem_exact, xgcd_rational

CASE_IDS = ("i-a", "i-b", "ii-a", "ii-b", "iii-a", "iii-b", "iv")


def inverse_mod(m: int, n: int) -> ScaledPoly:
    """Canonical inverse U of the m-th cyclotomic modulo the n-th, deg U < phi(n).

    Distinct cyclotomic polynomials are coprime over the rationals, so this
    only fails (NotCoprimeError) when m == n.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return xgcd_rational(cyclotomic(m), cyclotomic(n))[0]


def closed_form_i(p: int, direction: str = "forward") -> ScaledPoly:
    """Case i: forward is the p-th cyclotomic inverted mod X-1, reverse the converse.

    forward: 1/p.  reverse: -(1/p)(X^{p-2} + 2X^{p-3} + ... + (p-1)).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if direction == "forward":
        return ScaledPoly(IntPoly.one(), p)
    if direction == "reverse":
        coeffs = tuple(-(p - 1 - k) for k in range(p - 1))
        return ScaledPoly(IntPoly(coeffs), p)
    raise ValueError("direction must be 'forward' or 'reverse'")


def closed_form_ii(pair: PrimePair) -> tuple[ScaledPoly, ScaledPoly]:
    """Case ii: constant 1 forward; reverse solved from (X-1)*V = 1 - Phi_pr.

    The prefix-sum structure of that triangular system keeps every
    coefficient of V in {-1, 0, 1}.
    """
    phi_pr = cyclotomic(pair.n)
    if phi_pr.evaluate(1) != 1:
        raise ArithmeticError(f"Phi_{pair.n}(1) != 1")
    v, rem = divrem_exact(IntPoly.one() - phi_pr, cyclotomic(1))
    if not rem.is_zero:
        raise ArithmeticError(f"X - 1 does not divide 1 - Phi_{pair.n}")
    return ScaledPoly(IntPoly.one(), 1), ScaledPoly(v, 1)


def closed_form_iii_forward(pair: PrimePair) -> ScaledPoly:
    """Case iii forward: (1/r) * (1 + X + ... + X^d) with d = (r-1) mod p."""
    d = (pair.r - 1) % pair.p
    return ScaledPoly(IntPoly((1,) * (d + 1)), pair.r)


def closed_form_iii_reverse(pair: PrimePair) -> ScaledPoly:
    """Case iii reverse: divide 1 - Phi_pr * (forward inverse) by Phi_p.

    Returns the denominator-r inverse and raises if any numerator
    coefficient reaches r (the stated one-sided bound; no lower bound is
    asserted, observed minima are surfaced through verify_closed_forms).
    """
    p, r = pair.p, pair.r
    d = (r - 1) % p
    w = IntPoly.constant(r) - cyclotomic(pair.n) * IntPoly((1,) * (d + 1))
    v, rem = divrem_exact(w, cyclotomic(p))
    if not rem.is_zero:
        raise ArithmeticError(f"Phi_{p} does not divide r - Phi_pr * U for ({p}, {r})")
    if any(c >= r for c in v.coeffs):
        raise ValueError(f"coefficient bound v_i < {r} violated for pair ({p}, {r})")
    return ScaledPoly(v, r)


def closed_form_iv(p: int, r: int) -> IntPoly:
    """Case iv: integer inverse of the p-th cyclotomic mod the r-th, coefficients in {-1,0,1}.

    With k = p^{-1} mod r, U = sum_{i<k} X^{(ip mod r)} reduced mod Phi_r.
    This works because Phi_p * (X-1) * sum_{i<k} X^{ip} = X^{pk} - 1, which
    is X - 1 mod X^r - 1. The reduction is by a monic divisor, so U is
    integral; that it inverts Phi_p mod Phi_r over Z is checked, and its
    coefficient set as well.
    """
    PrimePair.of(p, r)  # validates distinct primes
    powers = [0] * r
    for i in range(pow(p, -1, r)):
        powers[i * p % r] = 1
    _, u = divrem_exact(IntPoly(tuple(powers)), cyclotomic(r))
    if divrem_exact(cyclotomic(p) * u, cyclotomic(r))[1] != IntPoly.one():
        raise ValueError(f"closed form iv is not an integral inverse of Phi_{p} mod Phi_{r}")
    if any(c not in (-1, 0, 1) for c in u.coeffs):
        raise ValueError("coefficients outside {-1, 0, 1}")
    return u


def difference_inverse(p: int, r: int) -> IntPoly:
    """(X-1) times the case-iv inverse; degree < r.

    Asserts coefficients lie in {-1, 0, 1} and that the nonzero ones
    strictly alternate in sign when read from the constant term up (zeros
    are skipped), the structure the case-iv bound rests on.
    """
    u = closed_form_iv(p, r)
    du = (IntPoly.monomial(1) - IntPoly.one()) * u
    if du.degree >= r:
        raise ArithmeticError(f"difference inverse has degree {du.degree} >= {r}")
    if any(c not in (-1, 0, 1) for c in du.coeffs):
        raise ValueError("difference inverse has a coefficient outside {-1, 0, 1}")
    if not _signs_alternate(du):
        raise ValueError(f"difference inverse signs do not alternate for ({p}, {r})")
    return du


def _signs_alternate(poly: IntPoly) -> bool:
    last = 0
    for c in poly.coeffs:
        if c == 0:
            continue
        if c * last > 0:
            return False
        last = c
    return True


@dataclass(frozen=True)
class InverseReport:
    """Outcome of one closed-form case: the inverse, bound verdict, extrema."""

    pair: PrimePair
    case_id: str
    inverse: ScaledPoly
    bound_satisfied: bool
    observed_min: int
    observed_max: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.pair.p,
            "r": self.pair.r,
            "case": self.case_id,
            "num": self.inverse.num.to_decimal_strings(),
            "den": str(self.inverse.den),
            "bound_satisfied": self.bound_satisfied,
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
        }


def _bound_holds(case_id: str, pair: PrimePair, closed: ScaledPoly) -> bool:
    p, r = pair.p, pair.r
    if case_id == "i-a":
        return closed == ScaledPoly(IntPoly.one(), p)
    if case_id == "i-b":
        return closed.den == p and all(-(p - 1) <= c <= -1 for c in closed.num.coeffs)
    if case_id == "ii-a":
        return closed == ScaledPoly(IntPoly.one(), 1)
    if case_id == "ii-b":
        return closed.den == 1 and all(c in (-1, 0, 1) for c in closed.num.coeffs)
    if case_id == "iii-a":
        d = (r - 1) % p
        return closed.den == r and closed.num == IntPoly((1,) * (d + 1))
    if case_id == "iii-b":
        raw = closed.num * (r // closed.den)
        return r % closed.den == 0 and all(c < r for c in raw.coeffs)
    if case_id == "iv":
        return closed.den == 1 and all(c in (-1, 0, 1) for c in closed.num.coeffs)
    raise ValueError(f"unknown case id {case_id}")


def verify_closed_forms(pair: PrimePair) -> list[InverseReport]:
    """Run all seven cases for one prime pair and report each outcome.

    Every closed form is compared, as a canonical ScaledPoly, against the
    extended-GCD inverse of the same indices, and its coefficient bound is
    checked. Violations are reported (bound_satisfied = False), never
    raised: a sweep over pairs is also a falsification harness.
    """
    p, r, n = pair.p, pair.r, pair.n
    cases = (
        ("i-a", lambda: closed_form_i(p, "forward"), p, 1),
        ("i-b", lambda: closed_form_i(p, "reverse"), 1, p),
        ("ii-a", lambda: closed_form_ii(pair)[0], n, 1),
        ("ii-b", lambda: closed_form_ii(pair)[1], 1, n),
        ("iii-a", lambda: closed_form_iii_forward(pair), n, p),
        ("iii-b", lambda: closed_form_iii_reverse(pair), p, n),
        ("iv", lambda: ScaledPoly(closed_form_iv(p, r), 1), p, r),
    )
    reports = []
    for case_id, build, m_idx, n_idx in cases:
        oracle = inverse_mod(m_idx, n_idx)
        try:
            closed = build()
            ok = closed == oracle and _bound_holds(case_id, pair, closed)
        except ValueError:
            closed, ok = oracle, False
        ok = ok and closed.num.degree < euler_phi(n_idx)
        if case_id == "iii-b" and closed.den in (1, r):
            observed = closed.num * (r // closed.den)
        else:
            observed = closed.num
        reports.append(
            InverseReport(
                pair=pair,
                case_id=case_id,
                inverse=closed,
                bound_satisfied=ok,
                observed_min=min(observed.coeffs),
                observed_max=max(observed.coeffs),
            )
        )
    return reports
