"""Decomposition of F_{q^{pr}}^x into norm-one subgroups and back.

For distinct primes p, r the multiplicative group of F_{q^{pr}} maps onto
the four subgroups T_k of order Phi_k(q), k in {1, p, r, pr}, via the
cofactor powers U_k(q) = prod_{j != k} Phi_j(q). The reverse direction
recombines the components in two steps driven by Bezout identities:

    Phi_pr * u1 + Phi_1 * u_pr = 1        (pairs T_1 with T_pr)
    Phi_r  * u_p + Phi_p * u_r = 1        (pairs T_p with T_r)
    Phi_p Phi_r * v1 + Phi_1 Phi_pr * v2 = p*r   (joins the two halves)

so that recombine(decompose(x)) = x^{pr} exactly; each component's two-step
exponent is stored mod its subgroup order Phi_k(q). ``theta`` packages the
same machinery as a near-bijection

    T_pr x F_{q^p}^x x F_{q^r}^x  ->  F_q^x x F_{q^{pr}}^x

whose kernel is annihilated by a power of p*r; ``kernel_annihilator``
measures that power from the closed-form exponents of theta_reverse o theta.
Both directions raise each subfield value in F_{q^p} or F_{q^r}, where it lives,
and cross to F_{q^pr} only through the embeddings, which are ring maps.

``decompose`` takes every norm among its four powers, to F_{q^p}, F_{q^r} and F_q, from
Frobenius conjugates, as torus-based cryptography does (Rubin-Silverberg, CRYPTO 2003), on
the doubling chain of ExtField._norm; only its three powers q - 1 stay on the ladder.
``recombine`` checks each membership on the squares that its component's exponent reuses.

The subfield embeddings theta uses are F_q-linear: each is stored, once built, as
the packed powers beta^j and a packed left inverse from one elimination on those
d rows, so embedding and extraction are one packed sum and one reduce each.
The embedding of F_{q^d} sends X to the coefficient-lex smallest root of
its modulus, which equal-degree (Cantor-Zassenhaus) splitting with random
norms down to F_{q^d} finds without scanning or spanning the subfield.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from operator import sub

from .cyclotomic import PrimePair, cyclotomic, divisors, euler_phi, is_prime, moebius
from .finitefield import (
    ExtField,
    ExtFieldElement,
    _ladder,
    make_ext_field,
    random_nonzero,
)
from .intpoly import IntPoly, PreconditionError, _Record, _trimmed
from .inverses import _divide_by_binomial, closed_form_i, closed_form_ii, closed_form_iv


class TorusMembershipError(PreconditionError):
    """A component failed its subgroup-order membership check."""


class BezoutExponents(_Record):
    """The six exponent polynomials of the two-step recombination."""

    _fields = ("u1", "u_pr", "u_p", "u_r", "v1", "v2")


def derive_exponent_polys(p: int, r: int) -> BezoutExponents:
    """All Bezout exponent polynomials for the pair (p, r), exactly, from closed forms.

    u1, u_pr (Phi_pr*u1 + Phi_1*u_pr = 1) are those of case ii, u_p, u_r (Phi_r*u_p + Phi_p*u_r
    = 1) those of case iv. With case i-b's numerator b_k, (X - 1)*b_k = k - Phi_k, the pair
    v2 = Phi_r*b_p + Phi_p*b_r, v1 = 2*Phi_pr + M/(Phi_p*Phi_r), M = pr - p*Phi_r(X^p) - r*Phi_p(X^r),
    has Phi_p*Phi_r*v1 + Phi_1*Phi_pr*v2 = pr: as Phi_r*Phi_pr = Phi_r(X^p) and Phi_p*Phi_pr =
    Phi_p(X^r), (X - 1)*Phi_pr*v2 = p*Phi_r(X^p) + r*Phi_p(X^r) - 2*Phi_p*Phi_r*Phi_pr. With deg v2
    <= p + r - 3 and deg v1 <= phi(pr), it is the oracle's canonical pair times pr. The sparse M is
    divided by Phi_p, then by Phi_r, as M*(1 - X)/(1 - X^k) in running sums. Each identity holds
    by the check that built its pair: case ii's last prefix sum, case iv's two rotations (the sum
    is 1 mod Phi_p and mod Phi_r, of degree below theirs), and both exact divisions of M.
    """
    pair = PrimePair(p, r)
    n = pair.n
    u1, u_pr = closed_form_ii(pair)
    v2 = cyclotomic(r) * closed_form_i(p)[1].num + cyclotomic(p) * closed_form_i(r)[1].num
    m = [n - p - r] + [0] * (n - 1)  # M, of degree max(p(r - 1), r(p - 1)) < n
    m[p::p], m[r::r] = [-p] * (r - 1), [-r] * (p - 1)
    for k in (p, r):
        m = _divide_by_binomial([*map(sub, m + [0], [0] + m)], k, "the numerator of v1", pair)
    return BezoutExponents(
        u1=u1.num, u_pr=u_pr.num, u_p=closed_form_iv(r, p), u_r=closed_form_iv(p, r),
        v1=cyclotomic(n) * 2 + IntPoly._of(m), v2=v2,
    )


class TorusParams(_Record):
    """Exponent data for one (q, p, r): the polynomials (a reader evaluates them at q),
    U_k(q), Phi_k(q) and each component's two-step exponent mod Phi_k(q)."""

    _fields = ("q", "pair", "exps", "norm_exponents", "orders", "recombine_exponents")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared and hashed by identity


def derive_params(q: int, p: int, r: int) -> TorusParams:
    """TorusParams for the prime q and the distinct primes p, r.

    Raising x in F_{q^pr}^x to the norm exponent U_k(q) = (q^pr - 1)/Phi_k(q)
    projects it onto the subgroup of order Phi_k(q). Raises ArithmeticError
    unless the four orders multiply to q^pr - 1, as X^pr - 1 = prod_{d | pr} Phi_d does.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    pair = PrimePair(p, r)
    exps = derive_exponent_polys(p, r)
    n = pair.n
    u1, u_pr, u_p, u_r, v1, v2 = (
        f.evaluate(q) for f in (exps.u1, exps.u_pr, exps.u_p, exps.u_r, exps.v1, exps.v2)
    )
    orders = {k: cyclotomic(k).evaluate(q) for k in (1, p, r, n)}
    group = q**n - 1  # the order of F_{q^pr}^x
    if math.prod(orders.values()) != group:
        raise ArithmeticError(f"Phi_1 Phi_p Phi_r Phi_pr at q = {q} is not {q}^{n} - 1")
    two_step = {1: u1 * v1, p: u_p * v2, r: u_r * v2, n: u_pr * v1}
    return TorusParams(
        q=q, pair=pair, exps=exps,
        norm_exponents={k: group // o for k, o in orders.items()},
        orders=orders,
        recombine_exponents={k: e % orders[k] for k, e in two_step.items()},
    )


class TorusComponents(_Record):
    """An element's projections onto T_1, T_p, T_r and T_pr, the subgroups of F_{q^pr}^x
    of order Phi_k(q): decompose's output, and recombine's input, which gives back x^{pr}."""

    _fields = ("t1", "tp", "tr", "tpr")


def _check_big_field(x: ExtFieldElement, params: TorusParams) -> ExtField:
    field = x.field
    if field.q != params.q or field.n != params.pair.n:
        raise ValueError("element does not live in the configured F_{q^{pr}}")
    return field


def decompose(x: ExtFieldElement, params: TorusParams) -> TorusComponents:
    """Project x onto (T_1, T_p, T_r, T_pr) via the four norm powers U_k(q).

    They share factors: with B = x^{Phi_r Phi_pr} and C = x^{Phi_p Phi_pr}, t_1 = B^{Phi_p},
    t_p = B^{Phi_1}, t_r = C^{Phi_1} and t_pr = (x^{Phi_1})^{Phi_p Phi_r}. Every factor but
    Phi_1 = q - 1 is a norm, taken by ExtField._norm: Phi_r Phi_pr = 1 + q^p + ... + q^(p(r-1))
    to F_{q^p}, Phi_p Phi_pr to F_{q^r}, and Phi_p = 1 + q + ... + q^(p-1) and Phi_r to F_q.
    """
    if x.is_zero:
        raise ValueError("cannot decompose zero")
    field = _check_big_field(x, params)
    q, p, r = params.q, params.pair.p, params.pair.r
    norm, reduce = field._norm, field._reduce
    b, c = norm(x.packed, p, r), norm(x.packed, r, p)
    tpr = norm(norm(_ladder([x.packed], q - 1, reduce), 1, p), 1, r)
    comps = (norm(b, 1, p), _ladder([b], q - 1, reduce), _ladder([c], q - 1, reduce), tpr)
    return TorusComponents(*(ExtFieldElement(field, y) for y in comps))


def _member_squares(comp: ExtFieldElement, k: int, params: TorusParams) -> list[int]:
    """The squares comp^(2^i) that give comp^{Phi_k(q)}, once that power is 1;
    otherwise TorusMembershipError names Phi_k."""
    field, order = _check_big_field(comp, params), params.orders[k]
    squares = [comp.packed]
    if _ladder(squares, order, field._reduce) != 1:  # zero, too, is no member
        raise TorusMembershipError(f"component is outside the order-Phi_{k}(q) subgroup")
    return squares


def recombine(c: TorusComponents, params: TorusParams) -> ExtFieldElement:
    """Two-step reconstruction; recombine(decompose(x)) = x^{pr}.

    Each T_k component is raised to its two-step exponent mod Phi_k(q), on the
    squares its membership check built, and all four powers go into one product.
    Components must satisfy their subgroup memberships; violations raise
    TorusMembershipError.
    """
    p, r, n = params.pair.p, params.pair.r, params.pair.n
    comps, ks = (c.t1, c.tp, c.tr, c.tpr), (1, p, r, n)
    # load-bearing: the reduced exponents act as the two-step ones only on
    # members, so a non-member must be rejected before any of them is read
    tables = [_member_squares(comp, k, params) for comp, k in zip(comps, ks)]
    a, acc = params.recombine_exponents, 1
    for comp, squares, k in zip(comps, tables, ks):
        acc = _ladder(squares, a[k], c.t1._same_field(comp)._reduce, acc)
    return ExtFieldElement(c.t1.field, acc)


# -- subfield embeddings -----------------------------------------------------


def _rref(rows, q) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a rectangular matrix over F_q, and its pivot columns."""
    a = [[c % q for c in row] for row in rows]
    pivots = []
    for col in range(len(a[0])):
        row = len(pivots)
        piv = next((i for i in range(row, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, q)
        a[row] = [c * inv % q for c in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(c - f * d) % q for c, d in zip(a[i], a[row])]
        pivots.append(col)
    return a, pivots


# A polynomial over F_{q^n} is a list of the big field's packed residues,
# constant term first, no trailing zeros. Degrees stay at most d <= n, so a
# coefficient sum below has at most d reduced terms (slots <= d(q-1)): valid
# input to the kernel's reduce, whose slot bound is n(q-1)^2, met at d = n, q = 2.


def _padd(a: list[int], b: list[int], big: ExtField) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return list(_trimmed([big._reduce(x + y) for x, y in zip(a, b)] + a[len(b):]))


def _pmul(a: list[int], b: list[int], big: ExtField) -> list[int]:
    """Product of two polynomials of length at most d."""
    reduce = big._reduce
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += reduce(x * y)
    return [reduce(c) for c in out]


def _pdivmod(a: list[int], b: list[int], big: ExtField) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b."""
    reduce, minus_one = big._reduce, big.q - 1  # q - 1 is the packed residue of -1
    rem, m = list(a), len(b) - 1
    quo = [0] * max(len(a) - m, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = reduce(rem[i + m])
        neg_c = reduce(c * minus_one)
        for j in range(m):
            rem[i + j] += reduce(neg_c * b[j])
    return quo, list(_trimmed(map(reduce, rem[:m])))


def _pgcd(a: list[int], b: list[int], big: ExtField) -> list[int]:
    """Monic gcd; each leading coefficient is inverted by ExtFieldElement.inv."""
    reduce = big._reduce
    while b:
        inv = ExtFieldElement(big, b[-1]).inv().packed
        b = [reduce(c * inv) for c in b]
        a, b = b, _pdivmod(a, b, big)[1]
    return a


def _split(g: list[int], delta: int, d: int, big: ExtField) -> list[int]:
    """The monic factor of g whose roots b, all in the degree-d subfield S, have
    (b + delta)^((q^d - 1)/2) = 1 for odd q, or Tr_{S/F_2}(delta*b) = 0 for
    q = 2. A delta in F_q puts all conjugates b^(q^i) on one side, so it is
    drawn from S.
    """
    q = big.q
    if q == 2:  # sum of (delta*Y)^(2^i), i < d; squaring is Frobenius on each coefficient
        t = w = [0, delta]
        for _ in range(d - 1):
            sq = [0] * (2 * len(t) - 1)
            sq[::2] = [big._reduce(x * x) for x in t]
            t = _pdivmod(sq, g, big)[1]
            w = _padd(w, t, big)
    else:
        base = w = [delta, 1]
        for bit in bin((q**d - 1) // 2)[3:]:
            w = _pdivmod(_pmul(w, w, big), g, big)[1]
            if bit == "1":
                w = _pdivmod(_pmul(w, base, big), g, big)[1]
        w = _padd(w, [q - 1], big)  # w - 1
    return _pgcd(g, w, big)


_SPLIT_TRIES = 64  # a try separates two given roots with probability about 1/2


@lru_cache(maxsize=None)
def _embedding(small: ExtField, big: ExtField) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The map F_{q^d} -> F_{q^n} sending X to the lex-smallest root of small's modulus f_s.

    The d roots of f_s are the conjugates beta^(q^i) in the degree-d subfield
    S. Equal-degree splitting finds one; each delta is the norm
    y^((q^n - 1)/(q^d - 1)) of a nonzero y from a fixed seed, uniform in S^x,
    taken by ExtField._norm.
    It recurses into the smaller factor until that is linear, and raises
    after _SPLIT_TRIES tries. The lex minimum over the conjugates is the root
    a lex-order scan of S meets first, so the map does not depend on the draws.
    """
    if small.q != big.q:
        raise ValueError("fields have different characteristics")
    d, n, q = small.n, big.n, big.q
    if n % d:
        raise ValueError(f"degree {d} does not divide {n}")
    rng = random.Random(0)  # a fixed seed: the same tries on every build
    f = list(small.modulus.coeffs)  # a reduced constant c < q is its own packed residue
    for _ in range(_SPLIT_TRIES):
        if len(f) == 2:
            break
        # the norm maps F_{q^n}^x onto S^x, each fiber one size
        delta = big._norm(random_nonzero(big, rng).packed, d, n // d)
        factor = _split(f, delta, d, big)
        if 1 < len(factor) < len(f):
            f = min(factor, _pdivmod(f, factor, big)[0], key=len)
    if len(f) != 2:
        raise ArithmeticError(f"no root split off in {_SPLIT_TRIES} tries (q={q}, d={d}, n={n})")
    conjugates = [ExtFieldElement(big, big._reduce(f[0] * (q - 1)))]  # Y + f[0]'s root: q - 1 is -1
    for _ in range(d - 1):
        conjugates.append(conjugates[-1] ** q)
    beta, powers = min(conjugates, key=lambda e: e.coeffs).packed, [1]
    for _ in range(d):
        powers.append(big._reduce(powers[-1] * beta))
    top = powers.pop()
    # f_s(beta) = 0 iff beta^d = sum_{i<d} -f_i beta^i: d terms (q-1)^2, inside reduce's bound
    if top != big._reduce(sum((-c % q) * pw for c, pw in zip(small.modulus.coeffs, powers))):
        raise ArithmeticError(f"the split gave a non-root of the modulus (q={q}, d={d}, n={n})")
    # rref([B | I_d]) = [R | M], R = M*B: y = x*B gives x = sum_k y[i_k]*M[k] at R's pivots i_k;
    # B has rank d, as f_s (irreducible by ExtField's Rabin test) is beta's minimal polynomial
    red, pivots = _rref([[*big._unpack(pw), *(i == j for j in range(d))] for i, pw in enumerate(powers)], q)
    return tuple(powers), tuple((i, small._pack(row[n:])) for i, row in zip(pivots, red))


def subfield_embed(x: ExtFieldElement, big: ExtField) -> ExtFieldElement:
    """Ring embedding of x into the larger field.

    Determined by sending the generator class of x's field to the
    canonically smallest root of its modulus in the big field, so the map
    is deterministic and multiplicative.
    """
    powers, _ = _embedding(x.field, big)
    # d terms, slots <= d(q-1)^2 and degree < n: inside reduce's bound n(q-1)^2
    return ExtFieldElement(big, big._reduce(sum(c * pw for c, pw in zip(x.coeffs, powers))))


def subfield_extract(y: ExtFieldElement, small: ExtField) -> ExtFieldElement:
    """Inverse of subfield_embed on its image; raises if y is not in the image."""
    _, rows = _embedding(small, y.field)
    # d terms, slots <= d(q-1)^2 and degree < d: exactly small's reduce bound
    coeffs = y.coeffs
    x = ExtFieldElement(small, small._reduce(sum(coeffs[i] * m for i, m in rows)))
    if subfield_embed(x, y.field) != y:  # y is in the image iff re-embedding x gives it back
        raise ValueError("element is not in the subfield image")
    return x


# -- the near-bijective parametrization --------------------------------------


def theta(
    x: ExtFieldElement,
    xp: ExtFieldElement,
    xr: ExtFieldElement,
    params: TorusParams,
) -> tuple[ExtFieldElement, ExtFieldElement]:
    """Map (x in T_pr, xp in F_{q^p}^x, xr in F_{q^r}^x) to (x1 in F_q^x, x_pr).

    The first output is xp^{Phi_p(q)}, xp's norm to F_q. The tuple (xr^{Phi_r(q)}, xp^{q-1},
    xr^{q-1}, x) is recombined into the second, whose checks reject x outside T_pr. Each power
    is taken in F_{q^p} or F_{q^r} and then embedded, as the embedding is a ring map.
    Counts balance: phi(pr) + p + r = 1 + pr.
    """
    q, p, r = params.q, params.pair.p, params.pair.r
    big = _check_big_field(x, params)
    if xp.is_zero or xr.is_zero:
        raise ValueError("subfield inputs must be nonzero")
    if xp.field.q != q or xp.field.n != p:
        raise ValueError("second argument must live in a degree-p extension")
    if xr.field.q != q or xr.field.n != r:
        raise ValueError("third argument must live in a degree-r extension")
    x1, tp = xp.powers(params.orders[p], q - 1)
    t1, tr = xr.powers(params.orders[r], q - 1)
    t1, tp, tr = (subfield_embed(t, big) for t in (t1, tp, tr))
    xpr = recombine(TorusComponents(t1=t1, tp=tp, tr=tr, tpr=x), params)
    return make_ext_field(q, 1).element(x1.coeffs[:1]), xpr


def theta_reverse(
    x1: ExtFieldElement,
    xpr: ExtFieldElement,
    params: TorusParams,
) -> tuple[ExtFieldElement, ExtFieldElement, ExtFieldElement]:
    """Reverse parametrization: decompose x_pr, then rebuild the subfield slots.

    Composing with theta raises each input slot to a fixed power (see composite_exponents);
    the deviation from the identity is annihilated by a power of p*r. Both slots use case i-b's
    numerator b_k at q, (k - Phi_k(q))/(q - 1), exact as Phi_k(q) = k mod q - 1. t_p is extracted
    to F_{q^p}, t_1 and t_r to F_{q^r}, where the powers are taken; x1 enters F_{q^p} as a constant.
    """
    q, p, r = params.q, params.pair.p, params.pair.r
    if x1.field.n != 1 or x1.field.q != q:
        raise ValueError("first argument must be a prime-field element")
    if x1.is_zero:
        raise ValueError("first argument must be nonzero")
    comps, orders = decompose(xpr, params), params.orders
    fp, fr = make_ext_field(q, p), make_ext_field(q, r)
    t1, tr = (subfield_extract(t, fr) for t in (comps.t1, comps.tr))
    xp = fp.element(x1.coeffs) * subfield_extract(comps.tp, fp) ** ((p - orders[p]) // (q - 1))
    return comps.tpr, xp, t1 * tr ** ((r - orders[r]) // (q - 1))


def theta_dimensions(p: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinate counts of theta's domain and codomain from the Moebius split.

    Divisors d of n = p*r with moebius(n/d) = -1 contribute F_{q^d} factors
    to the domain (next to the phi(n)-dimensional torus); those with
    moebius(n/d) = +1 make up the codomain.
    """
    pair = PrimePair(p, r)
    n = pair.n
    ins = (euler_phi(n),) + tuple(d for d in divisors(n) if moebius(n // d) == -1)
    outs = tuple(d for d in divisors(n) if moebius(n // d) == +1)
    return ins, outs


def composite_exponents(params: TorusParams) -> tuple[int, int, int]:
    """Fixed exponents (d_x, d_p, d_r) = (pr, p*pr - (pr - 1)*Phi_p(q), r*pr) of theta_reverse o theta.

    recombine(decompose(x)) = x^{pr} at a generator x gives sum_k a_k*U_k(q) = pr mod q^pr - 1 for
    the two-step exponents a_k, so a_k*U_k(q) = pr mod Phi_k(q), which divides every other U_j(q):
    decompose(recombine(c)) = c^{pr} slot by slot on T_1 x T_p x T_r x T_pr. So theta_reverse, given
    theta's x1 = xp^{Phi_p} and recombined (xr^{Phi_r}, xp^{q-1}, xr^{q-1}, x), returns x^{pr},
    xp^{Phi_p + pr*(q-1)*b_p} and xr^{pr*Phi_r + pr*(q-1)*b_r}; (q - 1)*b_k = k - Phi_k(q) ends it.
    """
    n, p = params.pair.n, params.pair.p
    return n, p * n - (n - 1) * params.orders[p], params.pair.r * n


class KernelReport(_Record):
    """Annihilator of the kernel of theta_reverse o theta: the composite exponents
    d_x, d_p, d_r, the group exponent of the composite map's kernel, and power, the
    least k with exponent | (p*r)^k."""

    _fields = ("d_x", "d_p", "d_r", "exponent", "power")


def kernel_annihilator(params: TorusParams) -> KernelReport:
    """KernelReport for params. Its exponent e is {p, r}-smooth: d_x = pr, d_r = r*pr, and a prime
    l | gcd(d_p, q^p - 1) divides p^2*r if l | Phi_p(q), as d_p = p*pr mod Phi_p(q); otherwise
    l | q - 1, modulo which Phi_p(q) = p, so d_p = p. The raise guards that argument."""
    q, p, r, n = params.q, params.pair.p, params.pair.r, params.pair.n
    d_x, d_p, d_r = composite_exponents(params)
    e = math.lcm(
        math.gcd(d_x, params.orders[n]),
        math.gcd(abs(d_p), q**p - 1),
        math.gcd(abs(d_r), q**r - 1),
    )
    # a valuation of e is below its bit length, so a p,r-smooth e divides (p*r)^k for some such k
    power = next((k for k in range(e.bit_length()) if (p * r) ** k % e == 0), None)
    if power is None:
        raise ArithmeticError(f"kernel exponent {e} is not {p},{r}-smooth")
    return KernelReport(d_x=d_x, d_p=d_p, d_r=d_r, exponent=e, power=power)
