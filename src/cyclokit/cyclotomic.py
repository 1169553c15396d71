"""Cyclotomic polynomials and the number theory around their resultants.

The n-th cyclotomic polynomial is the product of the binomials
(1 - X^d)^mu(n/d) over d | n, taken as a truncated integer power series.
Resultants of two cyclotomics admit a divisor-product closed form
(Apostol's theorem); ``resultant_apostol`` implements it in integer
exponents, with no rational arithmetic, and ``nontrivial_resultant`` the
resulting prime-power-ratio criterion.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .intpoly import IntPoly, _Record


def is_prime(n: int) -> bool:
    """True iff n > 1 is its own factorization. Desk-scale: ``factorize``'s cached
    trial division runs to sqrt(n) on a prime, and a repeated test is a lookup."""
    return n > 1 and factorize(n) == ((n, 1),)


def primes_upto(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n as (prime, exponent) pairs, primes increasing."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    pairs, m, p = [], n, 2
    while p * p <= m:  # after that, m < p^2 has no factor below p: it is 1 or a prime
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += 1 + (p > 2)  # 2, then odd candidates only
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial: monic, degree phi(n), integer coefficients.

    The series prod_{d | n} (1 - X^d)^mu(n/d) to X^(phi(n)+1) (Arnold and Monagan, 2011): a
    slice subtraction multiplies by 1 - X^d, a running sum per residue class mod d divides by
    it. The term past X^phi(n) must be 0. Phi_1 = -(1 - X). The lru_cache memoizes.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    a = [1] + [0] * (euler_phi(n) + 1)
    for d in divisors(n):
        if moebius(n // d) == 1:
            a[d:] = map(sub, a[d:], a[:-d])
    for d in divisors(n):
        if moebius(n // d) == -1 and d < len(a):
            for s in range(d):
                a[s::d] = accumulate(a[s::d])
    if a.pop():
        raise ArithmeticError(f"the series for Phi_{n} has a nonzero term past X^{len(a) - 1}")
    return IntPoly._of(a if n > 1 else (-1, 1))


def lam_leung_split(p: int, r: int) -> tuple[int, int]:
    """The unique (s, t) with (p-1)(r-1) = s*p + t*r, 0 <= s <= r-2, 0 <= t <= p-2:
    s = p^-1 mod r - 1 and t = r^-1 mod p - 1.

    Both sides agree mod p (each is 1 - r) and mod r (each is 1 - p), so mod pr.
    s*p + t*r lies in [0, 2pr - 2p - 2r], so it differs from (p-1)(r-1) = pr - p - r + 1
    by at most pr - p - r + 1 < pr, and the two are equal.
    """
    PrimePair.of(p, r)  # validates distinct primes
    return pow(p, -1, r) - 1, pow(r, -1, p) - 1


class PrimePair(_Record):
    """Ordered pair of distinct primes."""

    _fields = ("p", "r")

    def __init__(self, p: int, r: int):
        if p == r or not is_prime(p) or not is_prime(r):
            raise ValueError(f"({p}, {r}) is not a pair of distinct primes")
        fields = self.__dict__
        fields["p"], fields["r"] = p, r

    @classmethod
    def of(cls, p: int, r: int) -> PrimePair:
        return cls(p, r)

    @property
    def n(self) -> int:
        return self.p * self.r


def lam_leung_phi_pr(p: int, r: int) -> IntPoly:
    """Cyclotomic polynomial of index p*r from the two-product expression.

    With (p-1)(r-1) = s*p + t*r the polynomial is
    (sum_{i<=s} X^{ip})(sum_{j<=t} X^{jr})
      - X^{-pr} (sum_{i=s+1}^{r-1} X^{ip})(sum_{j=t+1}^{p-1} X^{jr}),
    where the second product only involves exponents > pr, so the shift
    stays polynomial: its lowest is (s+1)p + (t+1)r = pr + 1. The exponents ip + jr
    (i < r, j < p) are pairwise distinct, so each term of either product places its
    own +1 or -1. The result equals cyclotomic(p*r).
    """
    s, t = lam_leung_split(p, r)
    n = p * r
    out = [0] * ((p - 1) * (r - 1) + 1)
    for i in range(s + 1):
        out[i * p : i * p + (t + 1) * r : r] = [1] * (t + 1)
    for i in range(s + 1, r):
        lo = i * p + (t + 1) * r - n
        out[lo : lo + (p - 1 - t) * r : r] = [-1] * (p - 1 - t)
    return IntPoly._of(out)


def resultant_apostol(m: int, n: int) -> int:
    """Closed-form |resultant| of the m-th and n-th cyclotomic polynomials, m > n >= 1.

    It is the product of p^(mu(n/d) * phi(m)/phi(p^a)) over divisors d | n
    with m/gcd(m, d) = p^a a prime power; for n = 1 that is p when m is a
    power of the prime p and 1 otherwise. Each term is an
    integer, since p^a | m and phi is multiplicative, and the exponents
    accumulated per prime must total a nonnegative integer.
    """
    if m <= n or n < 1:
        raise ValueError("requires m > n >= 1")
    phim = euler_phi(m)
    exponents: dict[int, int] = {}
    for d in divisors(n):
        md = m // math.gcd(m, d)
        f = factorize(md)
        if len(f) != 1:
            continue
        p, a = f[0]
        exponents[p] = exponents.get(p, 0) + moebius(n // d) * (phim // euler_phi(p**a))
    out = 1
    for p, e in exponents.items():
        if e < 0:
            raise ArithmeticError(f"exponent {e} of {p} in Res(Phi_{m}, Phi_{n}) is negative")
        out *= p**e
    return out


def nontrivial_resultant(m: int, n: int) -> bool:
    """True iff the resultant of the m-th and n-th cyclotomics differs from 1.

    Decided from the indices alone: the resultant is nontrivial exactly
    when m/n is an integer prime power p^alpha, alpha >= 1.
    """
    if m <= n or n < 1:
        raise ValueError("requires m > n >= 1")
    if m % n:
        return False
    return len(factorize(m // n)) == 1

