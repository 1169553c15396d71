"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a single `ACCEPTANCE <nn> <slug>: PASS|FAIL (<elapsed>)`
line; run with `pytest tests/test_acceptance.py -v -s` to see them live.
All checks are exact (integer / polynomial equality); the only measured
quantities are the frozen regression constants of criterion 10.
"""

import random
import time

from cyclokit.cyclotomic import (
    PrimePair,
    cyclotomic,
    factorize,
    lam_leung_phi_pr,
    primes_upto,
    resultant_apostol,
    nontrivial_resultant,
)
from cyclokit.finitefield import make_ext_field, random_nonzero, torus_membership
from cyclokit.intpoly import IntPoly, resultant
from cyclokit.inverses import difference_inverse, verify_closed_forms
from cyclokit.torus import (
    decompose,
    derive_exponent_polys,
    derive_params,
    kernel_annihilator,
    recombine,
    theta,
    theta_dimensions,
)

# Frozen after first measurement at (q=7, p=3, r=5): the kernel of the
# reverse-parametrization composite is annihilated by 15^1 (group exponent 3).
THETA_KERNEL_EXPONENT = 3
THETA_KERNEL_POWER = 1


def _report(num: int, slug: str, ok: bool, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {num:02d} {slug}: {verdict} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert ok, f"criterion {num} ({slug}) failed"
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_n15_golden_vectors():
    started = time.perf_counter()
    exps = derive_exponent_polys(3, 5)
    ok = (
        exps.u1 == IntPoly((1,))
        and exps.u_pr == IntPoly((0, -1, -1, 0, -1, 0, 0, -1))
        and exps.u_p == IntPoly((0, -1))
        and exps.u_r == IntPoly((1, 0, 0, 1))
        and exps.v1 == IntPoly((9, -16, 7, 6, -10, 8, -3, -2, 2))
        and exps.v2 == IntPoly((-6, -10, -12, -9, -6, -2))
    )
    _report(1, "n15-golden-vectors", ok, started, 1.0)


def test_criterion_02_resultant_oracle_equivalence():
    started = time.perf_counter()
    ok = True
    for m in range(2, 61):
        phi_m = cyclotomic(m)
        for n in range(1, m):
            closed = resultant_apostol(m, n)
            generic = resultant(phi_m, cyclotomic(n))
            ok = ok and closed == abs(generic)
            if n > 1:
                ok = ok and generic > 0  # closed form is sign-exact above index 1
    phi_1 = cyclotomic(1)
    for m in range(2, 201):
        value = resultant(phi_1, cyclotomic(m))
        f = factorize(m)
        expected = f[0][0] if len(f) == 1 else 1
        ok = ok and value == expected
    _report(2, "resultant-oracle-equivalence", ok, started, 120.0)


def test_criterion_03_ratio_criterion_equivalence():
    started = time.perf_counter()
    ok = True
    for m in range(2, 61):
        for n in range(1, m):
            ok = ok and nontrivial_resultant(m, n) == (resultant_apostol(m, n) != 1)
    _report(3, "ratio-criterion-equivalence", ok, started, 120.0)


def test_criterion_04_closed_form_sweep():
    started = time.perf_counter()
    primes = primes_upto(31)
    ok = True
    count = 0
    for p in primes:
        for r in primes:
            if p == r:
                continue
            reports = verify_closed_forms(PrimePair.of(p, r))
            count += len(reports)
            ok = ok and len(reports) == 7 and all(rep.bound_satisfied for rep in reports)
    ok = ok and count == 110 * 7
    _report(4, "closed-form-sweep", ok, started, 300.0)


def test_criterion_05_difference_inverse_alternation():
    started = time.perf_counter()
    primes = primes_upto(31)
    ok = True
    for p in primes:
        for r in primes:
            if p == r:
                continue
            try:
                du = difference_inverse(p, r)  # asserts set and alternation
                ok = ok and all(c in (-1, 0, 1) for c in du.coeffs)
            except ValueError:
                ok = False
    _report(5, "difference-inverse-alternation", ok, started, 300.0)


def test_criterion_06_phi105_landmark():
    started = time.perf_counter()
    coeffs = cyclotomic(105).coeffs
    ok = coeffs[7] == -2 and coeffs[41] == -2
    _report(6, "phi105-landmark", ok, started, 1.0)


def test_criterion_07_lam_leung_equivalence():
    started = time.perf_counter()
    primes = primes_upto(31)
    ok = True
    for i, p in enumerate(primes):
        for r in primes[i + 1 :]:
            built = lam_leung_phi_pr(p, r)
            ok = ok and built == cyclotomic(p * r)
            ok = ok and all(c in (-1, 0, 1) for c in built.coeffs)
    _report(7, "lam-leung-equivalence", ok, started, 30.0)


def test_criterion_08_torus_roundtrip():
    started = time.perf_counter()
    ok = True
    for q, p, r, seed in ((7, 3, 5, 20240715), (5, 2, 3, 20240523)):
        n = p * r
        params = derive_params(q, p, r)
        field = make_ext_field(q, n)
        rng = random.Random(seed)
        for _ in range(500):
            x = random_nonzero(field, rng)
            comps = decompose(x, params)
            ok = (
                ok
                and torus_membership(comps.t1, 1)
                and torus_membership(comps.tp, p)
                and torus_membership(comps.tr, r)
                and torus_membership(comps.tpr, n)
                and recombine(comps, params) == x**n
            )
    _report(8, "torus-roundtrip", ok, started, 120.0)


def test_criterion_09_scaled_cofactor_integrality():
    started = time.perf_counter()
    primes = primes_upto(13)
    ok = True
    for p in primes:
        for r in primes:
            if p == r:
                continue
            try:
                exps = derive_exponent_polys(p, r)  # raises unless Phi_p*Phi_r divides M exactly
            except ArithmeticError:
                ok = False
                continue
            # the integer cofactors pr*U, pr*V of Phi_p*Phi_r and Phi_1*Phi_pr
            bezout = cyclotomic(p) * cyclotomic(r) * exps.v1 + cyclotomic(1) * cyclotomic(p * r) * exps.v2
            ok = ok and bezout == IntPoly((p * r,))
    _report(9, "scaled-cofactor-integrality", ok, started, 60.0)


def test_criterion_10_theta_pipeline():
    started = time.perf_counter()
    q, p, r = 7, 3, 5
    n = p * r
    params = derive_params(q, p, r)
    big = make_ext_field(q, n)
    field_p = make_ext_field(q, p)
    field_r = make_ext_field(q, r)
    rng = random.Random(20240901)
    ok = True
    for _ in range(100):
        x = random_nonzero(big, rng) ** params.norm_exponents[n]
        xp = random_nonzero(field_p, rng)
        xr = random_nonzero(field_r, rng)
        x1, xpr = theta(x, xp, xr, params)  # raises on membership violations
        ok = ok and not x1.is_zero and not xpr.is_zero
    ins, outs = theta_dimensions(p, r)
    ok = ok and ins == (8, 3, 5) and outs == (1, 15) and sum(ins) == sum(outs) == 16
    first = kernel_annihilator(params)
    second = kernel_annihilator(params)
    ok = ok and first == second  # stable across runs
    ok = ok and first.exponent == THETA_KERNEL_EXPONENT
    ok = ok and first.power == THETA_KERNEL_POWER
    ok = ok and first.d_x == n
    _report(10, "theta-pipeline", ok, started, 120.0)
