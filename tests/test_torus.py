"""Decomposition/recombination maps, subfield embeddings, and the parametrization."""

import collections
import functools
import hashlib
import itertools
import json
import math
import random
import re
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclokit import cli, inverses, torus
from cyclokit.cyclotomic import PrimePair, cyclotomic, divisors, primes_upto
from cyclokit.finitefield import ExtField, ExtFieldElement, make_ext_field, random_nonzero
from cyclokit.intpoly import IntPoly, ScaledPoly, divrem_exact, xgcd_rational
from cyclokit.inverses import closed_form_i, closed_form_ii, closed_form_iii
from cyclokit.torus import (
    BezoutExponents,
    TorusComponents,
    TorusMembershipError,
    TorusParams,
    composite_exponents,
    decompose,
    derive_exponent_polys,
    derive_params,
    kernel_annihilator,
    recombine,
    subfield_embed,
    subfield_extract,
    theta,
    theta_dimensions,
    theta_reverse,
)

GOLDEN_N15 = {
    "u1": IntPoly((1,)),
    "u_pr": IntPoly((0, -1, -1, 0, -1, 0, 0, -1)),
    "u_p": IntPoly((0, -1)),
    "u_r": IntPoly((1, 0, 0, 1)),
    "v1": IntPoly((9, -16, 7, 6, -10, 8, -3, -2, 2)),
    "v2": IntPoly((-6, -10, -12, -9, -6, -2)),
}


class TestExponentPolys:
    def test_n15_golden_block(self):
        exps = derive_exponent_polys(3, 5)
        assert exps.u1 == GOLDEN_N15["u1"]
        assert exps.u_pr == GOLDEN_N15["u_pr"]
        assert exps.u_p == GOLDEN_N15["u_p"]
        assert exps.u_r == GOLDEN_N15["u_r"]
        assert exps.v1 == GOLDEN_N15["v1"]
        assert exps.v2 == GOLDEN_N15["v2"]

    def test_identities_exact(self):
        # derive_exponent_polys checks none of these: each follows from the checks
        # that built its pair, and these asserts keep them under test
        for p, r in itertools.permutations(primes_upto(31), 2):
            exps = derive_exponent_polys(p, r)
            one, pr = IntPoly.one(), IntPoly((p * r,))
            phi1, phip = cyclotomic(1), cyclotomic(p)
            phir, phipr = cyclotomic(r), cyclotomic(p * r)
            assert phipr * exps.u1 + phi1 * exps.u_pr == one, (p, r)
            assert phir * exps.u_p + phip * exps.u_r == one, (p, r)
            assert phip * phir * exps.v1 + phi1 * phipr * exps.v2 == pr, (p, r)
            # the round-trip theorem on T_pr: U_pr * u_pr * v1 = p*r mod Phi_pr
            witness = phi1 * phip * phir * exps.u_pr * exps.v1 - pr
            assert divrem_exact(witness, phipr)[1].is_zero, (p, r)

    def test_evaluated_identity_over_q_range(self):
        exps = derive_exponent_polys(3, 5)
        for q in range(2, 51):
            lhs = cyclotomic(15).evaluate(q) * exps.u1.evaluate(q) + cyclotomic(1).evaluate(
                q
            ) * exps.u_pr.evaluate(q)
            assert lhs == 1

    def test_v1_v2_are_the_oracle_pair_times_pr(self):
        # the oracle's canonical pair for (Phi_p*Phi_r, Phi_1*Phi_pr), scaled by p*r here
        for p, r in itertools.permutations(primes_upto(61), 2):
            n = p * r
            a, b = xgcd_rational(cyclotomic(p) * cyclotomic(r), cyclotomic(1) * cyclotomic(n))
            exps = derive_exponent_polys(p, r)
            assert ScaledPoly(exps.v1) == ScaledPoly(a.num * n, a.den), (p, r)
            assert ScaledPoly(exps.v2) == ScaledPoly(b.num * n, b.den), (p, r)

    @staticmethod
    def _break_one_running_sum(monkeypatch):
        # the first running sum that _divide_by_binomial takes ends one too high; case ii's
        # prefix sums, the only ones that pass initial=, stay right
        real, broken = inverses.accumulate, []

        def accumulate(xs, **kwargs):
            sums = list(real(xs, **kwargs))
            if not kwargs and not broken:
                broken.append(sums)
                sums[-1] += 1
            return sums

        monkeypatch.setattr(inverses, "accumulate", accumulate)

    def test_inexact_division_of_m_raises(self, monkeypatch, capsys):
        # a class's last sum lies in the top p terms, which an exact division leaves 0
        message = "X^3 - 1 does not divide the numerator of v1 for (3, 5)"
        self._break_one_running_sum(monkeypatch)
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            derive_exponent_polys(3, 5)
        self._break_one_running_sum(monkeypatch)
        code = cli.main(["torus", "params", "--q", "0", "--p", "3", "--r", "5"])
        out, err = capsys.readouterr()
        assert code == 1 and not out and err == f"error: {message}\n"

    def test_v1_v2_from_cases_ii_and_iii_by_crt(self):
        # case iii gives r/Phi_p and p/Phi_r mod Phi_pr as integer polynomials, so their
        # product w is p*r/(Phi_p Phi_r) mod Phi_pr; the same value is 1 mod Phi_1, as
        # Phi_p(1)*Phi_r(1) = p*r, and case ii's Phi_pr*u1 + Phi_1*u_pr = 1 joins the two
        for p, r in itertools.permutations(primes_upto(31), 2):
            n = p * r
            phi1, phip, phir, phipr = (cyclotomic(k) for k in (1, p, r, n))
            (_, vp), (_, vr) = closed_form_iii(PrimePair(p, r)), closed_form_iii(PrimePair(r, p))
            w = divrem_exact(vp.num * (r // vp.den) * vr.num * (p // vr.den), phipr)[1]
            u1, u_pr = (c.num for c in closed_form_ii(PrimePair(p, r)))
            v1 = divrem_exact(phipr * u1 + phi1 * u_pr * w, phi1 * phipr)[1]
            v2, rem = divrem_exact(IntPoly((n,)) - phip * phir * v1, phi1 * phipr)
            assert rem.is_zero
            exps = derive_exponent_polys(p, r)
            assert (v1, v2) == (exps.v1, exps.v2), (p, r)

    def test_degree_bounds(self):
        for p, r in [(3, 5), (5, 7), (2, 13)]:
            exps = derive_exponent_polys(p, r)
            phi = (p - 1) * (r - 1)
            assert exps.v1.degree < 1 + phi
            assert exps.v2.degree < (p - 1) + (r - 1)


class TestDeriveParams:
    def test_rejects_composite_q(self):
        with pytest.raises(ValueError):
            derive_params(4, 3, 5)

    def test_norm_exponent_identity(self):
        params = derive_params(7, 3, 5)
        for k, e in params.norm_exponents.items():
            assert cyclotomic(k).evaluate(7) * e == 7**15 - 1

    def test_wrong_subgroup_order_raises(self, monkeypatch):
        # real exponent polynomials, then a Phi_15 off by one: only the product
        # check Phi_1 Phi_3 Phi_5 Phi_15 = q^15 - 1 can catch it
        exps = derive_exponent_polys(3, 5)
        monkeypatch.setattr(torus, "derive_exponent_polys", lambda p, r: exps)
        monkeypatch.setattr(torus, "cyclotomic", lambda k: cyclotomic(k) + IntPoly.one() if k == 15 else cyclotomic(k))
        with pytest.raises(ArithmeticError, match="7\\^15 - 1"):
            derive_params(7, 3, 5)


class TestRoundTrip:
    def test_identity_roundtrip(self):
        params = derive_params(5, 2, 3)
        field = make_ext_field(5, 6)
        comps = decompose(field.element((1,)), params)
        assert comps == TorusComponents(*[field.element((1,))] * 4)
        assert recombine(comps, params) == field.element((1,))

    def test_random_roundtrips_f5_6(self):
        params = derive_params(5, 2, 3)
        field = make_ext_field(5, 6)
        rng = random.Random(31)
        for _ in range(25):
            x = random_nonzero(field, rng)
            assert recombine(decompose(x, params), params) == x**6

    def test_random_roundtrips_f7_15(self):
        params = derive_params(7, 3, 5)
        field = make_ext_field(7, 15)
        rng = random.Random(17)
        for _ in range(10):
            x = random_nonzero(field, rng)
            comps = decompose(x, params)
            assert recombine(comps, params) == x**15

    def test_field_reductions_per_roundtrip(self, monkeypatch):
        # decompose takes B = x^(Phi_5 Phi_15), C = x^(Phi_3 Phi_15), t_pr = ((x^6)^Phi_3)^Phi_5
        # and t_1 = B^Phi_3 as norms on doubling chains of 3, 2, 2 + 3 and 2 Frobenius steps
        # (sigma^3, sigma^6, sigma^3; sigma^5 twice; then sigma^1 and sigma^2), each
        # followed by one product, one reduce; a step itself is table lookups and a slot fold,
        # no reduce. x^6, B^6 and C^6 take 3 reduces each on the ladder; each component in
        # recombine is squared once for all its exponents. One ladder per power took 244 here,
        # one squaring chain per base without conjugates 188, linear products of 4 and 2
        # conjugates 138, and norms for B and C alone (each step one reduce) 136
        params, field = derive_params(7, 3, 5), make_ext_field(7, 15)
        x = field.element([(3 * i + 1) % 7 for i in range(15)])
        decompose(x, params)  # builds the field's Frobenius tables, kept for later calls
        reduce, frobenius, calls, steps = field._reduce, field._frobenius, [], []
        monkeypatch.setattr(field, "_reduce", lambda c: calls.append(c) or reduce(c))
        monkeypatch.setattr(field, "_frobenius", lambda y, j: steps.append(j) or frobenius(y, j))
        comps = decompose(x, params)
        assert (len(calls), steps) == (21, [3, 6, 3, 5, 5, 1, 1, 1, 2, 1, 1, 1])
        back = recombine(comps, params)
        assert len(calls) == 106
        assert back == x**15

    def test_field_reductions_per_theta_roundtrip(self, monkeypatch):
        # theta raises xp in F_{7^3} and xr in F_{7^5}, then embeds t_1, t_p and t_r with one
        # F_{7^15} reduce each before recombine. theta_reverse's decompose takes its 21, each of
        # its three extractions one subfield reduce and one F_{7^15} reduce for the re-embedding
        # check, and the b_k powers run in the subfields. With the embedded values raised in
        # F_{7^15}, theta took 113 reduces there and theta_reverse 144, plus 1 in each subfield
        params, big = derive_params(7, 3, 5), make_ext_field(7, 15)
        fp, fr = make_ext_field(7, 3), make_ext_field(7, 5)
        x = big.element([(3 * i + 1) % 7 for i in range(15)]) ** params.norm_exponents[15]
        xp, xr = fp.element((2, 5, 1)), fr.element((3, 0, 6, 1, 4))
        theta_reverse(*theta(x, xp, xr, params), params)  # builds the embeddings and tables
        calls = collections.Counter()  # reduces per field degree
        for f in (big, fp, fr):
            monkeypatch.setattr(f, "_reduce", lambda c, n=f.n, reduce=f._reduce: calls.update((n,)) or reduce(c))
        x1, xpr = theta(x, xp, xr, params)
        assert calls == {15: 87, 3: 9, 5: 18}
        calls.clear()
        back = theta_reverse(x1, xpr, params)
        assert calls == {15: 24, 3: 14, 5: 25}
        assert back == (x**15, *(y ** e for y, e in zip((xp, xr), composite_exponents(params)[1:])))

    def test_recombine_rejects_zero_component(self):
        params, field = derive_params(5, 2, 3), make_ext_field(5, 6)
        comps, zero = decompose(field.element((1,)), params), ExtFieldElement(field, 0)
        with pytest.raises(TorusMembershipError, match="Phi_6"):
            recombine(TorusComponents(comps.t1, comps.tp, comps.tr, zero), params)

    def test_recombine_rejects_members_of_another_modulus(self):
        # same q and n, so each membership check passes; the product must still refuse
        params, field = derive_params(5, 2, 3), make_ext_field(5, 6)
        other = ExtField(5, IntPoly((2, 1, 0, 0, 0, 0, 1)))
        assert other.modulus != field.modulus
        comps = decompose(field.element((1,)), params)
        with pytest.raises(ValueError, match="different fields"):
            recombine(TorusComponents(comps.t1, other.element((1,)), comps.tr, comps.tpr), params)

    def test_decompose_zero_rejected(self):
        params = derive_params(5, 2, 3)
        with pytest.raises(ValueError):
            decompose(ExtFieldElement(make_ext_field(5, 6), 0), params)

    def test_decompose_wrong_field_rejected(self):
        params = derive_params(5, 2, 3)
        with pytest.raises(ValueError):
            decompose(make_ext_field(5, 3).element((1,)), params)

    def test_recombine_rejects_bad_membership(self):
        params = derive_params(5, 2, 3)
        field = make_ext_field(5, 6)
        rng = random.Random(3)
        g = random_nonzero(field, rng)
        while g ** cyclotomic(1).evaluate(5) == field.element((1,)):
            g = random_nonzero(field, rng)
        comps = decompose(g, params)
        broken = TorusComponents(g, comps.tp, comps.tr, comps.tpr)
        with pytest.raises(TorusMembershipError):
            recombine(broken, params)


class TestSinglePrime:
    # theta_reverse recombines T_1 and T_p with x^p = x^{Phi_p(q)} * (x^{q-1})^b, where
    # b = (p - Phi_p(q)) // (q - 1) is case i-b's numerator at q
    def test_bezout_arithmetic_p3_q2(self):
        # Phi_3(2) = 7, q - 1 = 1, cofactor -4: 7 - 4 = 3
        assert (3 - cyclotomic(3).evaluate(2)) // (2 - 1) == closed_form_i(3)[1].num.evaluate(2) == -4

    def test_random_roundtrip_f7_3(self):
        field = make_ext_field(7, 3)
        b = (3 - cyclotomic(3).evaluate(7)) // (7 - 1)
        assert b == closed_form_i(3)[1].num.evaluate(7)
        rng = random.Random(77)
        for _ in range(200):
            x = random_nonzero(field, rng)
            assert x ** cyclotomic(3).evaluate(7) * (x**6) ** b == x**3


class TestSubfieldEmbedding:
    def test_embed_one(self):
        big = make_ext_field(5, 6)
        small = make_ext_field(5, 2)
        assert subfield_embed(small.element((1,)), big) == big.element((1,))

    def test_homomorphism(self):
        big = make_ext_field(5, 6)
        for d in (1, 2, 3):
            small = make_ext_field(5, d)
            rng = random.Random(d)
            for _ in range(100):
                a = random_nonzero(small, rng)
                b = random_nonzero(small, rng)
                assert subfield_embed(a * b, big) == subfield_embed(a, big) * subfield_embed(b, big)
                # additive too: the sum's coefficient vector embeds to the sum of the images'
                ea, eb = subfield_embed(a, big).coeffs, subfield_embed(b, big).coeffs
                sum_ab = small.element(map(add, a.coeffs, b.coeffs))
                assert subfield_embed(sum_ab, big).coeffs == tuple((x + y) % 5 for x, y in zip(ea, eb))

    def test_image_is_frobenius_fixed(self):
        big = make_ext_field(5, 6)
        small = make_ext_field(5, 3)
        rng = random.Random(4)
        for _ in range(20):
            y = subfield_embed(random_nonzero(small, rng), big)
            assert y ** (5**3) == y

    def test_rejects_non_divisor_degree(self):
        big = make_ext_field(5, 6)
        small = make_ext_field(5, 4)
        with pytest.raises(ValueError):
            subfield_embed(small.element((1,)), big)

    def test_rejects_another_characteristic(self):
        with pytest.raises(ValueError, match="different characteristics"):
            subfield_embed(make_ext_field(3, 1).element((1,)), make_ext_field(5, 2))

    def test_extract_roundtrip(self):
        big = make_ext_field(5, 6)
        small = make_ext_field(5, 3)
        rng = random.Random(8)
        for _ in range(25):
            x = random_nonzero(small, rng)
            assert subfield_extract(subfield_embed(x, big), small) == x

    # q = 2 (the trace split), a 17-bit q (the widest slots) and d = 1 (small's
    # reduce bound is (q-1)^2)
    EDGE_SHAPES = [(5, 3, 6), (2, 5, 15), (65537, 2, 6), (3, 1, 35)]

    @pytest.mark.parametrize("q, d, n", EDGE_SHAPES)
    def test_stored_inverse_is_a_left_inverse(self, q, d, n):
        small, big = make_ext_field(q, d), make_ext_field(q, n)
        powers, _ = torus._embedding(small, big)
        assert len(powers) == d
        for j, pw in enumerate(powers):
            beta_j = ExtFieldElement(big, pw)
            assert subfield_extract(beta_j, small) == small.element([0] * j + [1])

    @pytest.mark.parametrize("q, d, n", EDGE_SHAPES)
    def test_extract_rejects_outsiders(self, q, d, n):
        small, big = make_ext_field(q, d), make_ext_field(q, n)
        rng = random.Random(12)
        y = random_nonzero(big, rng)
        while y ** (q**d) == y:
            y = random_nonzero(big, rng)
        with pytest.raises(ValueError, match="not in the subfield image"):
            subfield_extract(y, small)


@functools.lru_cache(maxsize=None)
def scan_root(small, big):
    """Reference root: the coefficient-lex smallest root of small's modulus in big, by brute force.

    The subfield is enumerated as the F_q-span of the traces Tr(X^j) from big
    down to it, so neither the norms nor the split are used; its vectors are
    then tried in lex order.
    """
    q, d = big.q, small.n
    span = {ExtFieldElement(big, 0).coeffs}
    for j in range(big.n):
        if len(span) == q**d:
            break
        z = big.element([0] * j + [1])
        trace = z.coeffs
        for _ in range(big.n // d - 1):
            z = z ** (q**d)
            trace = tuple((a + b) % q for a, b in zip(trace, z.coeffs))
        if trace not in span:
            span = {
                tuple((a + c * b) % q for a, b in zip(vec, trace))
                for vec in span
                for c in range(q)
            }
    assert len(span) == q**d
    for vec in sorted(span):
        x, acc = big.element(vec), ExtFieldElement(big, 0)
        for c in reversed(small.modulus.coeffs):  # Horner: c added to the constant coefficient
            ax = (acc * x).coeffs
            acc = big.element((ax[0] + c, *ax[1:]))
        if acc.is_zero:
            return x
    raise AssertionError("the subfield modulus has no root in the subfield")


# every (q, p, r) with p < r and q^r <= 3000, so the scan stays small
SCAN_TRIPLES = [
    (q, p, r)
    for q in primes_upto(13)
    for p in primes_upto(11)
    for r in primes_upto(11)
    if p < r and q**r <= 3000
]
# the (q, p, r) that the cli_cold benchmark workload builds, and (3, 5, 7)
DIGEST_TRIPLES = [
    (5, 2, 3), (3, 2, 5), (2, 3, 7), (3, 2, 7), (13, 2, 3),
    (23, 2, 3), (29, 2, 3), (7, 3, 5), (3, 5, 7),
]
# every (q, p, r) of distinct primes that the CLI's q^(pr) <= 2^128 guard admits
# for q < 60 and q = 65537
GUARDED_TRIPLES = [
    (q, p, r)
    for q in primes_upto(60) + [65537]
    for p in primes_upto(61)
    for r in primes_upto(61)
    if p != r and q ** (p * r) <= 2**128
]


class TestRootSplitting:
    @given(st.sampled_from(SCAN_TRIPLES), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_brute_force_scan(self, triple, which):
        q, p, r = triple
        small, big = make_ext_field(q, (1, p, r)[which]), make_ext_field(q, p * r)
        beta = scan_root(small, big)
        columns = [(beta**j).coeffs for j in range(small.n)]
        assert [big._unpack(pw) for pw in torus._embedding(small, big)[0]] == columns

    def test_matrices_digest(self):
        # sha256 of the n x d matrices whose column j holds beta^j, for d in (1, p, r),
        # recorded with the Theta(q^d) candidate scan that root splitting replaced
        mats = []
        for q, p, r in DIGEST_TRIPLES:
            big = make_ext_field(q, p * r)
            for d in (1, p, r):
                powers, _ = torus._embedding(make_ext_field(q, d), big)
                mats.append(list(zip(*map(big._unpack, powers))))
        digest = hashlib.sha256(json.dumps(mats).encode()).hexdigest()
        assert digest == "a5a39fd63e775081b0148dc1aa2782e60c8b0149deda5f9e2ecd14ca76bae492"

    @given(st.sampled_from(GUARDED_TRIPLES), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=12, deadline=None)
    def test_embed_extract_homomorphism(self, triple, use_p, seed):
        q, p, r = triple
        big, small = make_ext_field(q, p * r), make_ext_field(q, p if use_p else r)
        rng = random.Random(seed)
        x, y = random_nonzero(small, rng), random_nonzero(small, rng)
        ex, ey = subfield_embed(x, big), subfield_embed(y, big)
        sum_xy = small.element(map(add, x.coeffs, y.coeffs))  # additive: coefficient vectors add
        assert subfield_embed(sum_xy, big).coeffs == tuple(
            (a + b) % q for a, b in zip(ex.coeffs, ey.coeffs)
        )
        assert subfield_embed(x * y, big) == ex * ey
        assert subfield_extract(ex, small) == x

    # odd q; q = 2; and d = n/2
    @pytest.mark.parametrize("q, d, n", [(7, 5, 15), (2, 5, 15), (3, 3, 6)])
    def test_split_constants_lie_in_the_subfield(self, monkeypatch, q, d, n):
        # every delta the split receives is a nonzero element of the degree-d
        # subfield, the elements fixed by x -> x^(q^d)
        big, deltas, split = make_ext_field(q, n), [], torus._split

        def recording(g, delta, d_, big_):
            deltas.append(ExtFieldElement(big_, delta))
            return split(g, delta, d_, big_)

        monkeypatch.setattr(torus, "_split", recording)
        torus._embedding.__wrapped__(make_ext_field(q, d), big)
        assert deltas
        for delta in deltas:
            assert not delta.is_zero
            assert delta ** (q**d) == delta

    def test_split_that_never_separates_raises(self, monkeypatch):
        monkeypatch.setattr(torus, "_split", lambda g, delta, d, big: g)
        with pytest.raises(ArithmeticError, match=r"q=5, d=3, n=6"):
            torus._embedding.__wrapped__(make_ext_field(5, 3), make_ext_field(5, 6))

    def test_non_root_is_refused(self, monkeypatch):
        # a split that returns Y + 1 hands over beta = -1, which no irreducible
        # cubic over F_5 has as a root: the exact check must refuse it
        monkeypatch.setattr(torus, "_split", lambda g, delta, d, big: [1, 1])
        with pytest.raises(ArithmeticError, match="non-root"):
            torus._embedding.__wrapped__(make_ext_field(5, 3), make_ext_field(5, 6))


def two_step_recombine(c, params):
    """The two-step Bezout recombination with unreduced, signed exponents."""
    u1, u_pr, u_p, u_r, v1, v2 = evaluated_exponents(params)
    y1 = c.t1**u1 * c.tpr**u_pr
    y2 = c.tp**u_p * c.tr**u_r
    return y1**v1 * y2**v2


def evaluated_exponents(params):
    """(u1, u_pr, u_p, u_r, v1, v2), each exponent polynomial evaluated at q."""
    exps = params.exps
    return tuple(getattr(exps, name).evaluate(params.q) for name in exps._fields)


def assert_norm_powers(x, comps, params):
    """Each component is x to its norm exponent U_k(q), as the definition states."""
    p, r = params.pair.p, params.pair.r
    for k, comp in zip((1, p, r, p * r), (comps.t1, comps.tp, comps.tr, comps.tpr)):
        assert comp == x ** params.norm_exponents[k]


class _Untouchable(dict):
    def __getitem__(self, k):
        raise AssertionError("a reduced recombination exponent was read")


# q = 2 included, where Phi_1(2) = 1 and the T_1 exponent reduces to 0
SMALL_GUARDED_TRIPLES = [(q, p, r) for q, p, r in GUARDED_TRIPLES if q < 30 and p < r <= 7]


class TestReducedExponents:
    def test_triples_cover_q2(self):
        assert (2, 2, 3) in SMALL_GUARDED_TRIPLES and (2, 5, 7) in SMALL_GUARDED_TRIPLES

    @pytest.mark.parametrize("q, p, r", SMALL_GUARDED_TRIPLES)
    def test_reduced_exponents_against_two_step_formula(self, q, p, r):
        params, n = derive_params(q, p, r), p * r
        orders, a = params.orders, params.recombine_exponents
        assert orders == {k: cyclotomic(k).evaluate(q) for k in (1, p, r, n)}
        u1, u_pr, u_p, u_r, v1, v2 = evaluated_exponents(params)
        two_step = {1: u1 * v1, p: u_p * v2, r: u_r * v2, n: u_pr * v1}
        for k, e in two_step.items():
            assert 0 <= a[k] < orders[k]
            assert (a[k] - e) % orders[k] == 0
        if q == 2:
            assert a[1] == 0
        field, rng = make_ext_field(q, n), random.Random(q * n)
        for _ in range(3):
            x = random_nonzero(field, rng)
            comps = decompose(x, params)
            assert_norm_powers(x, comps, params)
            back = recombine(comps, params)
            assert back == x**n
            assert back == two_step_recombine(comps, params)

    @pytest.mark.parametrize("q, p, r", [(2, 3, 41), (2, 2, 61)])
    def test_components_at_large_degree(self, q, p, r):
        params, field, rng = derive_params(q, p, r), make_ext_field(q, p * r), random.Random(p * r)
        for _ in range(2):
            x = random_nonzero(field, rng)
            assert_norm_powers(x, decompose(x, params), params)

    @pytest.mark.parametrize("q, p, r", [(5, 2, 3), (7, 3, 5)])
    def test_components_under_another_modulus(self, q, p, r):
        # the monic reciprocal of the canonical modulus is irreducible too; each field
        # keeps its own Frobenius tables, so reading the other's would show here
        params, canonical = derive_params(q, p, r), make_ext_field(q, p * r)
        f = canonical.modulus.coeffs
        other = ExtField(q, IntPoly(tuple(c * pow(f[0], -1, q) for c in reversed(f))))
        assert other.modulus != canonical.modulus
        rng = random.Random(q * p * r)
        for field in (canonical, other, canonical):
            for _ in range(3):
                x = random_nonzero(field, rng)
                assert_norm_powers(x, decompose(x, params), params)
        mine, theirs = other._frobenius_tables, canonical._frobenius_tables
        assert all(mine[j] != theirs[j] for j in (p, r))

    def test_non_member_rejected_before_any_reduced_power(self):
        params = derive_params(7, 3, 5)
        field = make_ext_field(7, 15)
        rng = random.Random(21)
        g = random_nonzero(field, rng)
        while g ** params.orders[15] == field.element((1,)):
            g = random_nonzero(field, rng)
        comps = decompose(random_nonzero(field, rng), params)
        guarded = TorusParams(
            params.q, params.pair, params.exps, params.norm_exponents, params.orders, _Untouchable()
        )
        broken = TorusComponents(comps.t1, comps.tp, comps.tr, tpr=g)
        with pytest.raises(TorusMembershipError, match="Phi_15"):
            recombine(broken, guarded)
        with pytest.raises(AssertionError, match="reduced"):  # members do reach the powers
            recombine(comps, guarded)


@pytest.fixture(scope="module")
def setup_7_3_5():
    params = derive_params(7, 3, 5)
    return params, make_ext_field(7, 15), make_ext_field(7, 3), make_ext_field(7, 5)


class TestTheta:
    def test_all_identity(self, setup_7_3_5):
        params, big, fp, fr = setup_7_3_5
        x1, xpr = theta(big.element((1,)), fp.element((1,)), fr.element((1,)), params)
        assert x1 == make_ext_field(7, 1).element((1,))
        assert xpr == big.element((1,))

    def test_dimension_bookkeeping(self):
        ins, outs = theta_dimensions(3, 5)
        assert ins == (8, 3, 5) and outs == (1, 15)
        assert sum(ins) == sum(outs) == 16
        ins, outs = theta_dimensions(2, 3)
        assert ins == (2, 2, 3) and outs == (1, 6)
        assert sum(ins) == sum(outs)

    def test_rejects_non_torus_input(self, setup_7_3_5):
        params, big, fp, fr = setup_7_3_5
        rng = random.Random(6)
        x = random_nonzero(big, rng)
        while x ** cyclotomic(15).evaluate(7) == big.element((1,)):
            x = random_nonzero(big, rng)
        with pytest.raises(TorusMembershipError):
            theta(x, fp.element((1,)), fr.element((1,)), params)

    def test_one_membership_check_per_component(self, setup_7_3_5, monkeypatch):
        # recombine's T_pr check covers theta's first argument: no second one
        params, big, fp, fr = setup_7_3_5
        checked = []

        member_squares = torus._member_squares

        def recording(x, k, *rest):
            checked.append(k)
            return member_squares(x, k, *rest)

        monkeypatch.setattr(torus, "_member_squares", recording)
        theta(big.element((1,)), fp.element((1,)), fr.element((1,)), params)
        assert checked == [1, 3, 5, 15]

    def test_rejects_zero_subfield_input(self, setup_7_3_5):
        params, big, fp, fr = setup_7_3_5
        with pytest.raises(ValueError):
            theta(big.element((1,)), ExtFieldElement(fp, 0), fr.element((1,)), params)

    def test_rejects_subfield_inputs_of_the_wrong_degree(self, setup_7_3_5):
        params, big, fp, fr = setup_7_3_5
        with pytest.raises(ValueError, match="second argument must live in a degree-p"):
            theta(big.element((1,)), fr.element((1,)), fr.element((1,)), params)
        with pytest.raises(ValueError, match="third argument must live in a degree-r"):
            theta(big.element((1,)), fp.element((1,)), fp.element((1,)), params)

    def test_reverse_rejects_a_bad_first_argument(self, setup_7_3_5):
        params, big, fp, _ = setup_7_3_5
        with pytest.raises(ValueError, match="must be a prime-field element"):
            theta_reverse(fp.element((1,)), big.element((1,)), params)
        with pytest.raises(ValueError, match="must be nonzero"):
            theta_reverse(ExtFieldElement(make_ext_field(7, 1), 0), big.element((1,)), params)

    @pytest.mark.parametrize("slot", ["t1", "tp", "tr"])
    def test_reverse_rejects_a_component_outside_its_subfield(self, setup_7_3_5, monkeypatch, slot):
        # X generates F_{7^15}, so it lies in neither F_{7^3} nor F_{7^5}: the extraction that
        # moves the component into its subfield must refuse it before any power is taken there
        params, big, _, _ = setup_7_3_5
        real = torus.decompose

        def decompose(y, prm):
            comps = {name: getattr(real(y, prm), name) for name in TorusComponents._fields}
            return TorusComponents(**{**comps, slot: big.element((0, 1))})

        monkeypatch.setattr(torus, "decompose", decompose)
        with pytest.raises(ValueError, match="not in the subfield image"):
            theta_reverse(make_ext_field(7, 1).element((1,)), big.element((1,)), params)

    def test_composition_is_fixed_powers(self, setup_7_3_5):
        params, big, fp, fr = setup_7_3_5
        d_x, d_p, d_r = composite_exponents(params)
        assert d_x == 15
        rng = random.Random(99)
        for _ in range(10):
            x = random_nonzero(big, rng) ** params.norm_exponents[15]
            xp = random_nonzero(fp, rng)
            xr = random_nonzero(fr, rng)
            x1, xpr = theta(x, xp, xr, params)
            back = theta_reverse(x1, xpr, params)
            assert back == (x**d_x, xp**d_p, xr**d_r)

    def test_kernel_annihilator_frozen(self, setup_7_3_5):
        params, _, _, _ = setup_7_3_5
        report = kernel_annihilator(params)
        assert (report.d_x, report.d_p, report.d_r) == (15, -753, 75)
        assert report.exponent == 3
        assert report.power == 1
        again = kernel_annihilator(params)
        assert again == report

    def test_kernel_annihilator_rejects_non_smooth_exponent(self, setup_7_3_5, monkeypatch):
        params, _, _, _ = setup_7_3_5
        # gcd(7^3 - 1, 7^3 - 1) = 2 * 3^2 * 19 is not 3,5-smooth
        monkeypatch.setattr(torus, "composite_exponents", lambda prm: (15, 7**3 - 1, 1))
        with pytest.raises(ArithmeticError):
            kernel_annihilator(params)

    def test_second_parameter_set(self):
        # the round-trip theorem's exponents written out: (pr, p*pr - (pr - 1)*Phi_p(q), r*pr)
        for q, p, r in ((5, 2, 3), (2, 2, 3), (3, 5, 2), (13, 2, 3)):
            params, n = derive_params(q, p, r), p * r
            big, fp, fr = make_ext_field(q, n), make_ext_field(q, p), make_ext_field(q, r)
            d_x, d_p, d_r = n, p * n - (n - 1) * (q**p - 1) // (q - 1), r * n
            assert composite_exponents(params) == (d_x, d_p, d_r)
            rng = random.Random(55)
            for _ in range(10):
                x = random_nonzero(big, rng) ** params.norm_exponents[n]
                xp = random_nonzero(fp, rng)
                xr = random_nonzero(fr, rng)
                x1, xpr = theta(x, xp, xr, params)
                back = theta_reverse(x1, xpr, params)
                assert back == (x**d_x, xp**d_p, xr**d_r), (q, p, r)

    def test_kernel_exponent_divides_a_power_of_pr(self):
        # kernel_annihilator builds no field, so every shape under the field ceiling is cheap
        shapes = [
            (q, p, r)
            for q in primes_upto(31)
            for p, r in itertools.permutations(primes_upto(13), 2)
            if q ** (p * r) <= 2**128
        ]
        assert len(shapes) == 198
        for q, p, r in shapes:
            report = kernel_annihilator(derive_params(q, p, r))
            assert (p * r) ** report.power % report.exponent == 0, (q, p, r)

    def test_theta_values_digest(self):
        # sha256 of theta's outputs and theta_reverse's three, for x in T_pr drawn as theta-demo
        # draws it; recorded when theta still raised the embedded xp and xr in F_{q^pr}
        rows = []
        for q, p, r in ((5, 2, 3), (3, 2, 5), (2, 3, 7), (7, 3, 5)):
            params, rng = derive_params(q, p, r), random.Random(q * p * r)
            big, fp, fr = make_ext_field(q, p * r), make_ext_field(q, p), make_ext_field(q, r)
            for _ in range(20):
                x = random_nonzero(big, rng) ** params.norm_exponents[p * r]
                xp, xr = random_nonzero(fp, rng), random_nonzero(fr, rng)
                x1, xpr = theta(x, xp, xr, params)
                rows.append((x1.coeffs, xpr.coeffs, *(y.coeffs for y in theta_reverse(x1, xpr, params))))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "58a656d9c9cce3d01ffeeb0e5d41879d95e12ffd67190bb8cf2624838c8f511d"


def _nonzero_elements(field: ExtField) -> list[ExtFieldElement]:
    return [field.element(c) for c in itertools.product(range(field.q), repeat=field.n) if any(c)]


def _order(x: ExtFieldElement) -> int:
    return min(d for d in divisors(x.field.order - 1) if x**d == x.field.element((1,)))


class TestExhaustiveOracle:
    """The torus maps on every element of tiny fields: measured, not derived from
    the closed-form exponents that ``kernel_annihilator`` reads."""

    @pytest.mark.parametrize("q, p, r, exponent", [(2, 2, 3, 3), (3, 2, 3, 8), (2, 2, 5, 1)])
    def test_theta_kernel_and_image_by_enumeration(self, q, p, r, exponent):
        params = derive_params(q, p, r)
        n = p * r
        big, fp, fr = make_ext_field(q, n), make_ext_field(q, p), make_ext_field(q, r)
        torus_pr = [x for x in _nonzero_elements(big) if x ** params.orders[n] == big.element((1,))]
        domain = list(itertools.product(torus_pr, _nonzero_elements(fp), _nonzero_elements(fr)))
        identity = (big.element((1,)), fp.element((1,)), fr.element((1,)))
        one_out = (make_ext_field(q, 1).element((1,)), big.element((1,)))
        image, ker_theta, ker_composite = set(), 0, []
        for slots in domain:
            out = theta(*slots, params)
            image.add(out)
            ker_theta += out == one_out
            if theta_reverse(*out, params) == identity:
                ker_composite.append(slots)
        assert ker_theta * len(image) == len(domain)
        measured = math.lcm(*(_order(x) for slots in ker_composite for x in slots))
        assert measured == kernel_annihilator(params).exponent == exponent

    @pytest.mark.parametrize("q, p, r", [(2, 2, 3), (3, 2, 3), (2, 2, 5)])
    def test_recombine_by_enumeration(self, q, p, r):
        params = derive_params(q, p, r)
        n = p * r
        big = make_ext_field(q, n)
        elements = _nonzero_elements(big)
        for x in elements:
            comps = decompose(x, params)
            assert_norm_powers(x, comps, params)
            assert recombine(comps, params) == x**n
        for slot, k in zip(TorusComponents._fields, (1, p, r, n)):
            outsiders = [x for x in elements if x ** params.orders[k] != big.element((1,))]
            assert outsiders
            for x in outsiders:
                comps = dict.fromkeys(TorusComponents._fields, big.element((1,))) | {slot: x}
                with pytest.raises(TorusMembershipError):
                    recombine(TorusComponents(**comps), params)
