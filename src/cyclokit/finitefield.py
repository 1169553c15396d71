"""Extension fields F_{q^n}, q prime, with deterministic canonical moduli.

Extensions use plain polynomial-basis arithmetic modulo the
lexicographically smallest monic irreducible polynomial of the requested
degree (coefficient vectors compared from the constant term up), so a
field object -- and every test vector built on it -- is a pure function
of (q, n).

An element stores its canonical packed residue (Kronecker substitution):
(a_0, ..., a_{n-1}) is the one integer sum a_i * 2^(W*i), with a slot width W
wide enough that no slot ever carries into the next, so one bigint product
yields every coefficient of the polynomial product at once. Reduction stays
packed: a Barrett step on the integers (one multiply, a shift and a mask)
takes every slot mod q, and a Barrett step on polynomials, with
mu = floor(X^(2n-2) / f) over F_q, reduces mod the modulus f. A reduced
residue has every slot in [0, q) and nothing above slot n - 1, so equal
elements hold equal integers. A product is one bigint product and one
reduce. A power of a nonzero element reduces its exponent, of either sign,
mod q^n - 1, so x^(-1) is Fermat's x^(q^n - 2); zero has 0^0 = 1, 0^e = 0 for
e > 0 and no negative powers. Every power runs one right-to-left ladder, whose
squares x^(2^i) the powers of one base share (ExtFieldElement.powers). The Rabin
irreducibility test behind the modulus search runs on the same kernel and ladder;
coefficients are unpacked only when read. The only long division is intpoly's, for mu.
The Frobenius map y -> y^(q^j) is F_q-linear, and sum y_i X^(i*q^j) with every X^(i*q^j) mod f
reduced has degree below n: a field keeps, per j, one table of such sums for each bit plane of
each five slots, keyed by those masked bits, so a step is one masked shift and one dict read per
table, one sum and the kernel's slot-only Barrett step (fold), with no polynomial step. Every norm
y^(1 + q^j + ... + q^(j(k-1))) runs on it, as one doubling chain of such steps (ExtField._norm):
decompose in torus, and torus_membership, which tests x against the norms to the maximal
subfields of F_{q^k} (Rubin-Silverberg, CRYPTO 2003, Lemma 7).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import factorize, is_prime
from .intpoly import IntPoly, _Record, divrem_exact


# -- the packed kernel ------------------------------------------------------


def _packed_kernel(q: int, f: tuple[int, ...]):
    """(pack, unpack, reduce, fold) for arithmetic mod the monic f of degree n >= 1 over F_q.

    pack maps reduced coefficients (c_0, c_1, ...) to sum c_i 2^(W*i),
    unpack maps a packed residue back to its n coefficients, reduce
    maps a packed product of two packed residues to the packed residue,
    and fold is the slot-only Barrett step c - ((c*m >> k) & qmask)*q,
    which takes every slot at most `bound` mod q and nothing else.

    Every slot value the kernel produces is at most `bound`: a product
    coefficient is a sum of at most n terms (q-1)^2, and the quotient and
    residue steps stay below that too. Barrett's floor(x*m / 2^k) equals
    floor(x/q) for all x <= bound once bound*(m*q - 2^k) < 2^k, at the least such
    k >= 1 (at q = 2, k = m = 1; for odd q, m*q - 2^k >= 1 forces 2^k > bound);
    the slot width W holds bound*m. With f = X^n + f_low, a product c = c_hi X^n +
    c_lo has degree at most 2n - 2. Polynomial Barrett gives the quotient
    Q = floor(c_hi * mu / X^(n-2)) exactly, and the residue is
    c_lo + Q * (-f_low) mod X^n. Every slot is taken mod q before it is
    multiplied again.
    """
    n = len(f) - 1
    bound = n * (q - 1) ** 2
    k = 1
    while bound * (-(-(1 << k) // q) * q - (1 << k)) >= 1 << k:
        k += 1
    m = -(-(1 << k) // q)
    w = max((bound * m).bit_length(), k)
    slot = (1 << w) - 1
    shifts = tuple(range(0, n * w, w))

    def pack(coeffs) -> int:
        x = 0
        for c in reversed(coeffs):
            x = (x << w) | c
        return x

    def unpack(x: int) -> tuple[int, ...]:
        return tuple((x >> s) & slot for s in shifts)

    # mu = floor(X^(2n-2) / f) over F_q: f is monic, so the quotient over Z
    # reduced mod q is the quotient over F_q
    mu = pack([c % q for c in divrem_exact(IntPoly.monomial(2 * n - 2), IntPoly._of(f))[0].coeffs])
    neg_low = pack([-c % q for c in f[:n]])
    qmask = sum(((1 << (w - k)) - 1) << (w * i) for i in range(2 * n))
    low = (1 << (n * w)) - 1
    hi_shift, mu_shift = n * w, max(n - 2, 0) * w

    def fold(c: int) -> int:
        return c - ((c * m >> k) & qmask) * q

    def reduce(c: int) -> int:  # fold's step written out three times: the calls cost 3-5% of a reduce
        c -= ((c * m >> k) & qmask) * q
        quo = (c >> hi_shift) * mu >> mu_shift
        quo -= ((quo * m >> k) & qmask) * q
        c = (c & low) + ((quo * neg_low) & low)
        return c - ((c * m >> k) & qmask) * q

    return pack, unpack, reduce, fold


def _ladder(squares: list[int], e: int, reduce, acc: int = 1) -> int:
    """acc * x^e for e >= 0 by right-to-left square-and-multiply: squares = [x, x^2,
    x^4, ...] holds packed residues and grows in place to e's bit length, so the
    exponents of one base share its squares, and e's bits pick the factors.
    """
    x = squares[-1]
    for _ in range(e.bit_length() - len(squares)):
        x = reduce(x * x)
        squares.append(x)
    for s, bit in zip(squares, bin(e)[:1:-1]):  # low bit first
        if bit == "1":
            acc = s if acc == 1 else reduce(acc * s)
    return acc


def _is_irreducible(q: int, n: int, kernel) -> bool:
    """Rabin test for the degree-n modulus f of a packed kernel over F_q.

    Once X^{q^n} = X mod f, F_q[X]/f is a product of fields F_{q^d}, d | n,
    and f is irreducible iff P = prod_{l | n prime} (X^{q^{n/l}} - X) is a
    unit there, i.e. iff P^{q^n - 1} = 1: no gcd is needed.
    """
    if n == 1:
        return True
    pack, _, reduce, _ = kernel
    x, one = pack((0, 1)), pack((1,))
    checkpoints = {n // ell for ell, _ in factorize(n)}
    b, prod = x, one
    for i in range(1, n + 1):
        b = _ladder([b], q, reduce)  # X^{q^i}
        if i in checkpoints:  # reduce takes X^{q^i} + (q-1)X, slots <= 2(q-1), to X^{q^i} - X
            prod = reduce(prod * reduce(b + (q - 1) * x))
    return b == x and _ladder([prod], q**n - 1, reduce) == one


# -- field objects ----------------------------------------------------------


class ExtField:
    """F_{q^n} in polynomial basis modulo a fixed monic irreducible polynomial of degree n;
    fields compare by identity, and make_ext_field returns one per (q, n)."""

    def __init__(self, q: int, modulus: IntPoly):
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        mod = tuple(c % q for c in modulus.coeffs)
        if len(mod) < 2 or mod[-1] != 1:
            raise ValueError("modulus must be monic mod q of degree >= 1")
        n = len(mod) - 1
        kernel = _packed_kernel(q, mod)
        if not _is_irreducible(q, n, kernel):
            raise ValueError("modulus is reducible")
        self.q = q
        self.n = n
        self.order = q**n
        self.modulus = IntPoly._of(mod)
        self._pack, self._unpack, self._reduce, self._fold = kernel
        # sigma^j reads y one bit plane t < bits(q - 1) of five slots at a time: a table has at
        # most 32 entries, and a step reads bits(q - 1) * ceil(n/5) of them
        bits, w = (q - 1).bit_length(), self._pack((0, 1)).bit_length() - 1
        self._digit_planes, self._digit_mask = (bits, w), sum(1 << w * l for l in range(5))
        self._frobenius_tables: dict[int, list[tuple[int, dict[int, int]]]] = {}

    def _frobenius(self, y: int, j: int) -> int:
        """The packed y^(q^j): sigma^j(sum y_i X^i) = sum y_i X^(i*q^j), as each y_i is in F_q.

        The table for j pairs each shift s = W*i + t, i a multiple of 5, with a dict: its key
        (y >> s) & _digit_mask holds bit t of each of the slots i + l, l < 5, at bit W*l, and
        maps to the sum of 2^t X^((i+l)q^j) over the bits set, unreduced. The entries read
        sum to sum y_i X^(i*q^j) with every X^(i*q^j) reduced: degree < n and slots <=
        n(q-1)^2, the kernel's bound, so one fold makes it canonical. A reduced y has nothing
        above slot n - 1, so the last chunk's table keys only its own slots.
        """
        table = self._frobenius_tables.get(j)
        # X^(i*q^j), i < n: one ladder for X^(q^j), then n - 1 products. X = element((0, 1))
        # needs n >= 2, and _norm runs on decompose's field of degree pr, on the big field of an
        # _embedding split, which splits only for d >= 2 with d | n, and for torus_membership
        # at k >= 2, k | n
        if table is None:
            xqj, powers = (self.element((0, 1)) ** self.q**j).packed, [1]
            while len(powers) < self.n:
                powers.append(self._reduce(powers[-1] * xqj))
            bits, w = self._digit_planes
            table = []
            for i in range(0, self.n, 5):
                for t in range(bits):
                    entries = {0: 0}
                    for l, x in enumerate(powers[i:i + 5]):
                        entries |= {key | 1 << w * l: v + (x << t) for key, v in entries.items()}
                    table.append((w * i + t, entries))
            self._frobenius_tables[j] = table
        mask = self._digit_mask
        return self._fold(sum([entries[y >> s & mask] for s, entries in table]))

    def _norm(self, y: int, j: int, k: int) -> int:
        """The packed y^(1 + q^j + ... + q^(j(k-1))) by the Itoh-Tsujii doubling chain:
        from N_1 = y, N_2m = N_m * sigma^(jm)(N_m) and N_(m+1) = y * sigma^j(N_m), as k's
        bits after the leading one say, so floor(log2 k) + popcount(k) - 1 Frobenius steps.
        """
        acc, m = y, 1
        for bit in bin(k)[3:]:
            acc, m = self._reduce(acc * self._frobenius(acc, j * m)), 2 * m
            if bit == "1":
                acc, m = self._reduce(y * self._frobenius(acc, j)), m + 1
        return acc

    def element(self, coeffs) -> ExtFieldElement:
        vec = [c % self.q for c in coeffs]
        if len(vec) > self.n:
            raise ValueError(f"{len(vec)} coefficients for F_{self.q}^{self.n}, more than its degree")
        return ExtFieldElement(self, self._pack(vec))


@lru_cache(maxsize=None)
def make_ext_field(q: int, n: int) -> ExtField:
    """The canonical F_{q^n}: lexicographically smallest monic irreducible modulus.

    Candidate vectors (c_0, ..., c_{n-1}) are compared from the constant
    term up; being pure in (q, n), repeated construction is bit-identical.
    """
    # before the scan, whose except would read a composite q as reducibility
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if n < 1:  # the scan below would return a degree-1 field
        raise ValueError("extension degree must be >= 1")
    if n == 1:
        return ExtField(q, IntPoly.monomial(1))
    # c_0 = 0 would make X a factor, so start at the first candidate with c_0 = 1;
    # a lazy range, as itertools.product would first hold range(q) in memory
    for k in range(q ** (n - 1), q**n):
        coeffs = tuple(k // q**i % q for i in reversed(range(n)))  # base-q digits (c_0, ..., c_{n-1})
        try:
            return ExtField(q, IntPoly._of(coeffs + (1,)))
        except ValueError:  # reducible: every candidate is monic of degree n
            continue
    raise ArithmeticError(f"no monic irreducible polynomial of degree {n} over F_{q} found")


class ExtFieldElement(_Record):
    """An element of F_{q^n}, stored as its canonical packed residue on the field's
    kernel; ExtField.element builds one from a coefficient vector."""

    _fields = ("field", "packed")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._unpack(self.packed)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def _same_field(self, other: ExtFieldElement) -> ExtField:
        if not isinstance(other, ExtFieldElement):
            raise TypeError("expected an extension field element")
        if self.field is not other.field:
            raise ValueError("operands belong to different fields")
        return self.field

    def __mul__(self, other: ExtFieldElement) -> ExtFieldElement:
        field = self._same_field(other)
        return ExtFieldElement(field, field._reduce(self.packed * other.packed))

    def inv(self) -> ExtFieldElement:
        return self**-1

    def __pow__(self, e: int) -> ExtFieldElement:
        return self.powers(e)[0]

    def powers(self, *exps: int) -> list[ExtFieldElement]:
        """[self ** e for e in exps] on one ladder: the squares of self are built once."""
        field = self.field
        if not self.packed:
            if any(e < 0 for e in exps):
                raise ZeroDivisionError("negative power of zero")
            return [self if e else ExtFieldElement(field, 1) for e in exps]
        squares, group = [self.packed], field.order - 1
        # x^(q^n - 1) = 1 on nonzero x, so x^(-1) = x^(q^n - 2)
        return [ExtFieldElement(field, _ladder(squares, e % group, field._reduce)) for e in exps]


# -- subgroup structure -----------------------------------------------------


def torus_membership(x: ExtFieldElement, k: int) -> bool:
    """True iff x lies in T_k, the order-Phi_k(q) subgroup, i.e. x^{Phi_k(q)} = 1.

    T_1 = F_q^x holds the nonzero constants. For k >= 2, T_k is the common kernel of the
    norms from F_{q^k} to its maximal subfields F_{q^(k/l)}, l | k prime (Rubin-Silverberg,
    CRYPTO 2003, Lemma 7; it has order Phi_k(q)). The norm is y^(1 + q^(k/l) + ... ) =
    y^((q^k - 1)/(q^(k/l) - 1)) on all of F_{q^n}, so one norm of x being 1 already forces
    x^(q^k - 1) = 1, that is x in F_{q^k}: x is a member iff every such norm of it is 1.
    """
    if x.is_zero:
        raise ValueError("membership is defined on nonzero elements")
    field = x.field
    if k < 1 or field.n % k:
        raise ValueError(f"{k} does not divide the extension degree {field.n}")
    if k == 1:
        return x.packed < field.q  # a reduced constant c < q is its own packed residue
    return all(field._norm(x.packed, k // ell, ell) == 1 for ell, _ in factorize(k))


def random_nonzero(field: ExtField, rng) -> ExtFieldElement:
    """Uniform nonzero element drawn from a seeded random.Random."""
    while True:
        x = field.element([rng.randrange(field.q) for _ in range(field.n)])
        if not x.is_zero:
            return x
