"""Extension field construction, arithmetic axioms, and subgroup projections."""

import itertools
import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclokit import finitefield
from cyclokit.cyclotomic import cyclotomic, divisors, factorize, moebius
from cyclokit.finitefield import (
    ExtField,
    ExtFieldElement,
    _is_irreducible,
    _ladder,
    _packed_kernel,
    make_ext_field,
    random_nonzero,
    torus_membership,
)
from cyclokit.intpoly import IntPoly
from cyclokit.torus import derive_params


def multiplicative_order(x):
    """Order of a nonzero x, from the primes of each Phi_d(q), d | n, by trial division."""
    if x.is_zero:
        raise ValueError("zero has no multiplicative order")
    field = x.field
    order = field.order - 1
    primes = set()
    for d in divisors(field.n):
        primes.update(p for p, _ in factorize(cyclotomic(d).evaluate(field.q)))
    for ell in primes:
        while order % ell == 0 and x ** (order // ell) == field.element((1,)):
            order //= ell
    return order


def vector_sum(x, y):
    """x + y: the coefficient vectors of two elements of one field, added mod q."""
    return x.field.element(map(add, x.coeffs, y.coeffs))


class TestConstruction:
    def test_prime_field_validation(self):
        assert ExtField(97, IntPoly.monomial(1)).q == 97
        with pytest.raises(ValueError):
            ExtField(91, IntPoly.monomial(1))

    def test_degree_is_read_off_the_modulus(self):
        assert ExtField(7, make_ext_field(7, 15).modulus).n == 15
        for bad in (IntPoly((1,)), IntPoly((1, 5)), IntPoly((1, 2))):  # degree 0; lead 0 or 2 mod 5
            with pytest.raises(ValueError, match="monic"):
                ExtField(5, bad)
        with pytest.raises(ValueError, match="degree"):
            make_ext_field.__wrapped__(5, 0)

    @pytest.mark.parametrize("q, n", [(2, 5), (3, 4), (5, 3), (7, 2)])
    def test_modulus_is_the_first_irreducible_in_base_q_order(self, q, n):
        # (c_0, ..., c_{n-1}) in lex order, c_0 most significant, skipping c_0 = 0
        low = next(
            low for low in itertools.product(range(q), repeat=n)
            if low[0] and _is_irreducible(q, n, _packed_kernel(q, low + (1,)))
        )
        assert make_ext_field(q, n).modulus.coeffs == low + (1,)

    def test_degree_one_modulus_is_x(self):
        assert make_ext_field(7, 1).modulus == IntPoly.monomial(1)

    def test_only_irreducible_quadratic_over_f2(self):
        assert make_ext_field(2, 2).modulus == IntPoly((1, 1, 1))

    def test_determinism(self):
        before = make_ext_field(7, 15).modulus
        make_ext_field.cache_clear()
        assert make_ext_field(7, 15).modulus == before

    def test_rejects_composite_q(self):
        with pytest.raises(ValueError):
            make_ext_field(6, 2)

    def test_composite_q_rejected_before_the_modulus_scan(self, monkeypatch):
        # the scan reads a ValueError from ExtField as "reducible": a composite
        # q must be refused first, not after q^n candidates and an exit 1
        def never(q, n, kernel):
            raise AssertionError("the modulus scan ran")

        monkeypatch.setattr(finitefield, "_is_irreducible", never)
        with pytest.raises(ValueError, match="not prime"):
            make_ext_field.__wrapped__(91, 2)
        with pytest.raises(ValueError, match="not prime"):
            ExtField(91, IntPoly.monomial(1))

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            ExtField(2, IntPoly((1, 0, 1)))  # (X + 1)^2 over F_2

    @pytest.mark.parametrize("q, max_n", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_irreducible_count_matches_gauss(self, q, max_n):
        # Gauss: (1/n) sum_{d | n} mu(n/d) q^d monic irreducibles of degree n
        for n in range(1, max_n + 1):
            accepted = sum(
                _is_irreducible(q, n, _packed_kernel(q, low + (1,)))
                for low in itertools.product(range(q), repeat=n)
            )
            gauss = sum(moebius(n // d) * q**d for d in divisors(n)) // n
            assert accepted == gauss, (q, n)

    @pytest.mark.parametrize(
        "low, factors, fixes_x",
        [
            # X^(2^6) = X mod this f, so only the unit step can reject it
            ((1, 1, 0, 0, 1, 0), [(1, 1), (1, 1, 1), (1, 1, 0, 1)], True),
            ((1, 1, 0, 1, 0, 1), [(1, 1, 1)] * 3, False),
        ],
    )
    def test_rabin_rejects_products(self, low, factors, fixes_x):
        f = low + (1,)
        prod = IntPoly.one()
        for g in factors:
            prod = prod * IntPoly(g)
        assert tuple(c % 2 for c in prod.coeffs) == f
        kernel = _packed_kernel(2, f)
        pack, _, reduce, _ = kernel
        x = pack((0, 1))
        assert (_ladder([x], 2**6, reduce) == x) == fixes_x
        assert not _is_irreducible(2, 6, kernel)
        with pytest.raises(ValueError):
            ExtField(2, IntPoly(f))

    def test_one_kernel_per_field(self, monkeypatch):
        calls = []

        def counting_kernel(q, f):
            calls.append((q, f))
            return _packed_kernel(q, f)

        monkeypatch.setattr(finitefield, "_packed_kernel", counting_kernel)
        ExtField(7, make_ext_field(7, 15).modulus)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            ExtField(2, IntPoly((1, 0, 1)))
        assert len(calls) == 2

    def test_exhausted_search_raises_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(finitefield, "_is_irreducible", lambda q, n, kernel: False)
        with pytest.raises(ArithmeticError):
            make_ext_field.__wrapped__(3, 2)  # bypass the cache


class TestArithmetic:
    def test_f4_multiplication(self):
        f = make_ext_field(2, 2)
        x = f.element([0, 1])
        assert x * f.element([1, 1]) == f.element((1,))

    def test_lagrange(self):
        rng = random.Random(11)
        for q, n in [(2, 2), (7, 3), (11, 5)]:
            f = make_ext_field(q, n)
            for _ in range(10):
                x = random_nonzero(f, rng)
                assert x ** (q**n - 1) == f.element((1,))

    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        f = make_ext_field(7, 5)
        for _ in range(25):
            x = random_nonzero(f, rng)
            assert x ** (-1) * x == f.element((1,))
            assert x.inv() * x == f.element((1,))

    def test_pow_additivity(self):
        rng = random.Random(9)
        f = make_ext_field(7, 3)
        for _ in range(25):
            x = random_nonzero(f, rng)
            a = rng.randrange(-500, 500)
            b = rng.randrange(-500, 500)
            assert x ** (a + b) == x**a * x**b

    def test_pow_zero_is_one(self):
        f = make_ext_field(7, 3)
        assert ExtFieldElement(f, 0) ** 0 == f.element((1,))
        assert f.element([3, 1, 4]) ** 0 == f.element((1,))

    def test_field_axioms_sampled(self):
        rng = random.Random(123)
        for q in (2, 7, 11):
            for n in (1, 3, 5, 15):
                f = make_ext_field(q, n)
                for _ in range(4):
                    a = f.element([rng.randrange(q) for _ in range(n)])
                    b = f.element([rng.randrange(q) for _ in range(n)])
                    c = f.element([rng.randrange(q) for _ in range(n)])
                    assert (a * b) * c == a * (b * c)
                    assert a * vector_sum(b, c) == vector_sum(a * b, a * c)
                    assert vector_sum(a, b) == vector_sum(b, a) and a * b == b * a
                    if not a.is_zero:
                        assert a.inv() * a == f.element((1,))

    def test_invert_zero_rejected(self):
        f = make_ext_field(5, 2)
        with pytest.raises(ZeroDivisionError):
            ExtFieldElement(f, 0).inv()
        with pytest.raises(ZeroDivisionError):
            ExtFieldElement(f, 0) ** (-2)

    def test_cross_field_rejected(self):
        a = make_ext_field(5, 2).element((1,))
        b = make_ext_field(7, 2).element((1,))
        with pytest.raises(ValueError):
            a * b

    def test_twin_fields_do_not_mix(self):
        # fields compare by identity: a second field on the same modulus is another field
        f = make_ext_field(7, 15)
        twin = ExtField(7, f.modulus)
        for x, y in ((twin.element((1,)), f.element((1,))), (f.element((1,)), twin.element((1,)))):
            with pytest.raises(ValueError, match="different fields"):
                x * y

    def test_non_element_operand_rejected(self):
        a = make_ext_field(5, 2).element((1,))
        with pytest.raises(TypeError, match="extension field element"):
            a * 2
        with pytest.raises(TypeError, match="extension field element"):
            a * a.coeffs

    def test_element_reduction(self):
        f = make_ext_field(2, 2)
        # each coefficient reduces mod q; X^2 is refused, not reduced mod X^2 + X + 1
        assert f.element([2, 3]) == f.element([-2, -1]) == f.element([0, 1])
        with pytest.raises(ValueError, match=r"3 coefficients for F_2\^2, more than its degree"):
            f.element([0, 0, 1])

    def test_element_refuses_more_than_n_coefficients(self):
        f = make_ext_field(7, 15)
        assert f.element(range(15)).coeffs == tuple(i % 7 for i in range(15))
        for vec in (range(16), [0] * 15 + [1], [0] * 16):
            with pytest.raises(ValueError, match=r"16 coefficients for F_7\^15"):
                f.element(vec)


class TestSubgroups:
    def test_norm_exponent_values(self):
        norm_exponents = derive_params(2, 3, 5).norm_exponents
        assert norm_exponents[15] == 217
        assert norm_exponents[1] == 32767

    def test_defining_identity(self):
        for q in (2, 7, 11):
            norm_exponents = derive_params(q, 3, 5).norm_exponents
            assert sorted(norm_exponents) == [1, 3, 5, 15]
            for k, e in norm_exponents.items():
                assert cyclotomic(k).evaluate(q) * e == q**15 - 1

    def test_membership_of_projections(self):
        rng = random.Random(21)
        q, n = 7, 15
        f = make_ext_field(q, n)
        norm_exponents = derive_params(q, 3, 5).norm_exponents
        for _ in range(50):
            x = random_nonzero(f, rng)
            for k in (1, 3, 5, 15):
                t = x ** norm_exponents[k]
                assert torus_membership(t, k)
                assert t ** cyclotomic(k).evaluate(q) == f.element((1,))

    @pytest.mark.parametrize("q, n", [(2, 12), (3, 8), (3, 9), (5, 6), (2, 30), (7, 15), (3, 35)])
    def test_membership_is_the_definition(self, q, n):
        """torus_membership(x, k), which tests norms, against x^{Phi_k(q)} = 1, for every k | n.

        Why they agree: for k >= 2, T_k(F_q) -- the unique subgroup of order Phi_k(q) of the cyclic
        F_{q^k}^x -- is the common kernel of the norms from F_{q^k} to F_{q^(k/l)} for the primes
        l | k (Rubin-Silverberg, CRYPTO 2003, Lemma 7). On x in F_{q^n} such a norm is
        x^((q^k - 1)/(q^(k/l) - 1)), so if it is 1 then x^(q^k - 1) = 1 and x is in F_{q^k}.
        Members of every T_d, d | n, put x in the kernel of some norms of T_k but not of all:
        at k = 6 a member of T_3 has norm 1 to F_{q^2} and norm x^2 to F_{q^3}.
        """
        f, rng = make_ext_field(q, n), random.Random(q * n)
        xs = [random_nonzero(f, rng) for _ in range(4)] + [f.element((c,)) for c in range(1, min(q, 5))]
        for d in divisors(n):
            xs += [random_nonzero(f, rng) ** ((f.order - 1) // cyclotomic(d).evaluate(q)) for _ in range(3)]
        for k in divisors(n):
            got = [torus_membership(x, k) for x in xs]
            assert got == [x ** cyclotomic(k).evaluate(q) == f.element((1,)) for x in xs], k
            assert True in got and False in got, k

    def test_identity_in_every_subgroup(self):
        f = make_ext_field(7, 15)
        for k in (1, 3, 5, 15):
            assert torus_membership(f.element((1,)), k)

    def test_generator_not_in_torus(self):
        f = make_ext_field(2, 15)
        group = 2**15 - 1
        g = None
        for c in range(2, 300):
            cand = f.element([(c >> i) & 1 for i in range(15)])
            if not cand.is_zero and multiplicative_order(cand) == group:
                g = cand
                break
        assert g is not None
        assert not torus_membership(g, 15)
        assert torus_membership(g ** derive_params(2, 3, 5).norm_exponents[15], 15)

    def test_membership_zero_rejected(self):
        f = make_ext_field(7, 15)
        with pytest.raises(ValueError):
            torus_membership(ExtFieldElement(f, 0), 1)

    def test_membership_bad_divisor_rejected(self):
        f = make_ext_field(7, 15)
        with pytest.raises(ValueError):
            torus_membership(f.element((1,)), 4)


class TestOrder:
    def test_order_of_one(self):
        assert multiplicative_order(make_ext_field(7, 3).element((1,))) == 1

    def test_order_divides_group_order(self):
        rng = random.Random(2)
        f = make_ext_field(3, 4)
        for _ in range(20):
            x = random_nonzero(f, rng)
            o = multiplicative_order(x)
            assert (3**4 - 1) % o == 0
            assert x**o == f.element((1,))

    def test_full_order_element_exists_f8(self):
        f = make_ext_field(2, 3)
        orders = set()
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    e = f.element([a, b, c])
                    if not e.is_zero:
                        orders.add(multiplicative_order(e))
        assert 7 in orders


# -- packed kernel against a schoolbook reference ---------------------------


def schoolbook_mulmod(a, b, f, q):
    """Product of coefficient tuples a, b modulo the monic f over F_q."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return schoolbook_rem(prod, f, q)


def schoolbook_rem(prod, f, q):
    """The coefficients prod, of degree at most 2n - 2, modulo the monic f of degree n over F_q."""
    n = len(f) - 1
    prod = list(prod)
    for i in range(len(prod) - 1, n - 1, -1):  # cancel X^i with c * X^(i-n) * f
        c = prod[i] % q
        for j, fj in enumerate(f):
            prod[i - n + j] -= c * fj
    return tuple(c % q for c in prod[:n])


def schoolbook_pow(a, e, f, q):
    """a^e for e >= 0 by right-to-left square-and-multiply on the reference."""
    n = len(f) - 1
    result, base = (1,) + (0,) * (n - 1), tuple(a)
    while e:
        if e & 1:
            result = schoolbook_mulmod(result, base, f, q)
        base = schoolbook_mulmod(base, base, f, q)
        e >>= 1
    return result


# n = 1, q = 2, the two benchmark fields and large q at small n, so that slot
# widths from 1 bit to over 100 bits are exercised
KERNEL_FIELDS = [
    (2, 1), (7, 1), (65537, 1), (2**31 - 1, 1),
    (2, 2), (2, 5), (2, 21), (5, 2), (13, 6),
    (7, 15), (3, 35),
    (65537, 2), (65537, 6), (2**31 - 1, 2), (2**31 - 1, 3),
]


@st.composite
def field_and_vectors(draw, count):
    q, n = draw(st.sampled_from(KERNEL_FIELDS))
    coeff = st.integers(0, q - 1)
    vecs = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(count)]
    return make_ext_field(q, n), vecs


def modulus_of(f):
    return tuple(f.modulus.coeffs)


def assert_canonical(got, f, expected):
    # unpacking never reads above slot n - 1, so a stray high bit shows only
    # in the stored residue: value equality and hash against a fresh element
    assert got == f.element(expected)
    assert hash(got) == hash(f.element(expected))


class TestPackedKernel:
    @given(field_and_vectors(2))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_schoolbook(self, case):
        f, (a, b) = case
        got = f.element(a) * f.element(b)
        expected = schoolbook_mulmod(a, b, modulus_of(f), f.q)
        assert got.coeffs == expected
        assert_canonical(got, f, expected)

    @pytest.mark.parametrize("q, n", KERNEL_FIELDS)
    def test_largest_coefficients(self, q, n):
        # all slots at q - 1 give the largest value every kernel step can see
        f = make_ext_field(q, n)
        top = [q - 1] * n
        for other in (top, [1] + [0] * (n - 1), [q - 1] + [0] * (n - 1), [0] * (n - 1) + [q - 1]):
            got = f.element(top) * f.element(other)
            expected = schoolbook_mulmod(top, other, modulus_of(f), q)
            assert got.coeffs == expected
            assert_canonical(got, f, expected)

    # reduce's worst case: degree 2n - 2 with every slot at the kernel's bound n(q - 1)^2, for
    # n at and past each change of bit_length(n) at q = 2. Reduction is exact whether or not f is
    # irreducible, so f is fixed: every low coefficient 1, or only the first two
    @pytest.mark.parametrize(
        "q, n",
        [(2, n) for n in (2, 3, 4, 7, 8, 15, 16, 63, 64, 127, 128)]
        + [(q, n) for q in (3, 7) for n in (2, 15, 35)],
    )
    @pytest.mark.parametrize("dense", [True, False])
    def test_reduce_at_the_slot_bound(self, q, n, dense):
        f = (1,) * (n + 1) if dense else (1, 1) + (0,) * (n - 2) + (1,)
        pack, unpack, reduce, _ = _packed_kernel(q, f)
        worst = [n * (q - 1) ** 2] * (2 * n - 1)
        expected = schoolbook_rem(worst, f, q)
        assert reduce(pack(worst)) == pack(expected)  # canonical: no slot at q or above
        assert unpack(reduce(pack(worst))) == expected

    @given(field_and_vectors(1), st.integers(0, 24))
    @settings(max_examples=200, deadline=None)
    def test_power_matches_repeated_product(self, case, e):
        f, (a,) = case
        expected = f.element((1,)).coeffs
        for _ in range(e):
            expected = schoolbook_mulmod(expected, a, modulus_of(f), f.q)
        got = f.element(a) ** e
        assert got.coeffs == expected
        assert_canonical(got, f, expected)

    @given(field_and_vectors(1), st.integers(0, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_power_beyond_field_order(self, case, extra):
        f, (a,) = case
        e = f.order + extra
        got = f.element(a) ** e
        assert got.coeffs == schoolbook_pow(a, e, modulus_of(f), f.q)
        if any(a):  # Lagrange: x^(q^n - 1) = 1
            assert got == f.element(a) ** (e % (f.order - 1))

    @given(field_and_vectors(1), st.integers(1, 2**70))
    @settings(max_examples=100, deadline=None)
    def test_negative_power_is_inverse_power(self, case, e):
        f, (a,) = case
        x = f.element(a)
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x ** (-e)
            return
        inverse = x.inv()
        assert x ** (-1) == inverse
        assert x ** (-e) == inverse**e
        assert (x ** (-e) * x**e) == f.element((1,))

    @given(field_and_vectors(1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_negative_power_reduces_mod_group_order(self, case, data):
        # x^(-e) is x^(-e mod (q^n - 1)) on one ladder; inv() stays Fermat's x^(q^n - 2)
        f, (a,) = case
        x = f.element(a)
        if x.is_zero:
            return
        e = data.draw(st.integers(1, 3 * f.order))
        assert x ** (-e) == (x**e).inv()
        assert x ** (-(f.order - 1)) == f.element((1,))

    @given(
        field_and_vectors(1),
        st.one_of(st.integers(-(2**100), -1), st.just(0), st.integers(2**64, 2**100)),
        st.integers(-3, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_depends_only_on_the_exponent_mod_group_order(self, case, e, k):
        f, (a,) = case
        x = f.element(a)
        if x.is_zero:
            return
        assert x**e == x ** (e + k * (f.order - 1))

    @pytest.mark.parametrize("q, n", [(2, 1), (7, 3), (3, 35)])
    def test_positive_powers_of_zero_are_zero(self, q, n):
        # multiples of q^n - 1 included: x^(q^n - 1) = 1 holds only for nonzero x
        f = make_ext_field(q, n)
        zero = ExtFieldElement(f, 0)
        for e in (1, 2, f.order - 1, f.order, 2 * (f.order - 1), 2**100):
            assert zero**e == zero

    def test_negative_power_of_zero_raises(self):
        for q, n in ((2, 1), (7, 3), (3, 35)):
            with pytest.raises(ZeroDivisionError):
                ExtFieldElement(make_ext_field(q, n), 0) ** (-1)

    @given(field_and_vectors(1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shared_squares_match_single_powers(self, case, data):
        # one exponent or several, short ones before long ones, on one set of squares
        f, (a,) = case
        x = f.element(a)
        edges = st.sampled_from([0, 1, -1, f.order - 2, f.order - 1, f.order, 3 * f.order + 5])
        exps = data.draw(st.lists(st.one_of(edges, st.integers(-(2**70), 2**70)), min_size=1, max_size=4))
        if x.is_zero and min(exps) < 0:
            with pytest.raises(ZeroDivisionError):
                x.powers(*exps)
            return
        got = x.powers(*exps)
        assert got == [x**e for e in exps]
        for g, e in zip(got, exps):
            e = e % (f.order - 1) if any(a) else e  # x^(q^n - 1) = 1 holds only for nonzero x
            assert_canonical(g, f, schoolbook_pow(a, e, modulus_of(f), f.q))

    @pytest.mark.parametrize("q, n", [(2, 1), (7, 3), (3, 35)])
    def test_shared_squares_of_zero(self, q, n):
        f = make_ext_field(q, n)
        zero = ExtFieldElement(f, 0)
        got = zero.powers(0, 1, f.order - 1, 0, 2**100)
        assert got == [f.element((1,)), zero, zero, f.element((1,)), zero]
        with pytest.raises(ZeroDivisionError):
            zero.powers(2, -1)

    @given(field_and_vectors(1))
    @settings(max_examples=200, deadline=None)
    def test_inverse_matches_schoolbook(self, case):
        f, (a,) = case
        if not any(a):
            return
        got = f.element(a).inv().coeffs
        assert schoolbook_mulmod(a, got, modulus_of(f), f.q) == f.element((1,)).coeffs

    @given(
        st.sampled_from(KERNEL_FIELDS).flatmap(
            lambda qn: st.tuples(
                st.just(qn), st.lists(st.integers(-10**6, 10**6), max_size=3 * qn[1] + 1)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_element_matches_horner_sum(self, case):
        (q, n), vec = case
        f = make_ext_field(q, n)
        if len(vec) > n:  # a longer vector is refused, not reduced mod the modulus
            with pytest.raises(ValueError, match="more than its degree"):
                f.element(vec)
            return
        # X itself, or -f_0 when the modulus X + f_0 has degree 1
        x = f.element((0, 1)) if n > 1 else f.element((-f.modulus.coeffs[0],))
        acc = ExtFieldElement(f, 0)
        for c in reversed(vec):
            acc = vector_sum(acc * x, f.element((c,)))
        assert f.element(vec) == acc

    def test_equal_fields_from_distinct_objects_multiply(self):
        # a twin keeps its own kernel; its products match f's coefficient by coefficient
        f = make_ext_field(7, 3)
        twin = ExtField(7, f.modulus)
        assert twin is not f and twin.modulus == f.modulus
        x, y = twin.element([1, 2, 3]), twin.element([4, 5, 6])
        expected = schoolbook_mulmod((1, 2, 3), (4, 5, 6), modulus_of(f), 7)
        assert (x * y).coeffs == (f.element([1, 2, 3]) * f.element([4, 5, 6])).coeffs == expected
        assert x * y == y * x


class TestFrobenius:
    # 2642239 has 22 bits, so each of its slots spans 22 one-bit planes, each read by a table of its
    # own; 13, 23 and 29 serve cli commands at n = 6
    @pytest.mark.parametrize(
        "q, p, r", [(7, 3, 5), (3, 5, 7), (2, 3, 7), (5, 2, 3), (2642239, 2, 3), (13, 2, 3), (23, 2, 3), (29, 2, 3)]
    )
    def test_table_and_map_against_powers(self, q, p, r):
        f, rng = make_ext_field(q, p * r), random.Random(q * p * r)
        for j in (1, p, r):
            assert f._frobenius(1, j) == 1  # and the table is built
            # one table per bit plane of each five slots, keyed by at most five one-bit digits
            tables = f._frobenius_tables[j]
            assert len(tables) == (q - 1).bit_length() * -(-f.n // 5)
            assert all(len(entries) <= 32 for _, entries in tables)
            for y in [random_nonzero(f, rng) for _ in range(5)] + [f.element([q - 1] * f.n)]:
                assert f._frobenius(y.packed, j) == (y ** q**j).packed

    @pytest.mark.parametrize("q, n", KERNEL_FIELDS)
    def test_map_at_every_slot_width(self, q, n):
        # all slots at q - 1 sum n products (q-1)^2 into a slot: the kernel's bound
        f = make_ext_field(q, n)
        if n == 1:  # no norm runs on F_q: its table would need X, which element refuses there
            with pytest.raises(ValueError, match=r"2 coefficients for F_\d+\^1, more than its degree"):
                f._frobenius(1, 1)
            return
        for vec in ([q - 1] * n, [1] + [0] * (n - 1), [0] * (n - 1) + [q - 1], [0] * n):
            y = f.element(vec)
            for j in (1, 2, n):
                got = ExtFieldElement(f, f._frobenius(y.packed, j))
                assert_canonical(got, f, (y ** q**j).coeffs)

    @pytest.mark.parametrize("q, n", [(2, 122), (7, 15), (3, 35), (65537, 6)])
    def test_norm_chain_against_powers(self, q, n, monkeypatch):
        # floor(log2 k) + popcount(k) - 1 Frobenius steps; k = 1 takes none
        f, rng = make_ext_field(q, n), random.Random(q * n)
        frobenius, steps = f._frobenius, []
        monkeypatch.setattr(f, "_frobenius", lambda y, j: steps.append(j) or frobenius(y, j))
        for j in (1, 3):
            for k in (1, 2, 3, 4, 5, 7, 8, 61):
                y = random_nonzero(f, rng)
                steps.clear()
                assert f._norm(y.packed, j, k) == (y ** sum(q ** (j * i) for i in range(k))).packed
                assert len(steps) == k.bit_length() + k.bit_count() - 2

    def test_tables_are_kept_per_field_object(self):
        f = make_ext_field(5, 6)
        other, twin = ExtField(5, IntPoly((2, 1, 0, 0, 0, 0, 1))), ExtField(5, f.modulus)
        assert other.modulus != f.modulus and twin.modulus == f.modulus and twin is not f
        f._frobenius(1, 1)
        assert 1 not in twin._frobenius_tables and 1 not in other._frobenius_tables
        y = [1, 2, 3, 4, 0, 1]
        for field in (twin, other):
            assert field._frobenius(field.element(y).packed, 1) == (field.element(y) ** 5).packed
        assert twin._frobenius_tables[1] == f._frobenius_tables[1] != other._frobenius_tables[1]

