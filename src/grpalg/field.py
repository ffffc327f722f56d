"""Exact arithmetic in a base field F_q, the cyclotomic traces the
idempotents need, and the one kernel that splits a Frobenius-fixed algebra
F_q^r into its primitive idempotents.

Base fields F_q (q = p^a) represent elements as integer indices 0..q-1;
index i encodes the coefficient vector (c_0, ..., c_{a-1}) with
i = sum c_k p^k, so the constant c embeds as the index c.  All arithmetic
in F_q is gathers through precomputed q x q int16 tables (BaseField.sum_rows is
the one reduction of many vectors to their sum).
For a >= 2 the modulus is the lex-least monic irreducible of degree a
over F_p, coefficients compared low degree first, found by Ben-Or's test
on lists of ints mod p (lex_least_irreducible).  The first
generator g of F_q^* in index order is found by
walking the orbit of 1 under each candidate's multiply-by-g map, which is
built in numpy from the digits of x^k·i; the product table is then one
gather of g's doubled exp table at log i + log j.

No extension field F_{q^s} is ever built, and no polynomial is factored.
The idempotents only need the traces tr(zeta^k) of a primitive n-th root
of unity zeta, and those lie in F_q: they are n times the coefficients of
a primitive idempotent of F_q[Z_n] (BaseField.cyclotomic_traces, memoized
on the field object that make_field caches per (p, a)).  That idempotent
comes from split_fixed, which splits an algebra isomorphic to F_q^r, given
by gather arrays for a spanning set of its elements, by minimal
polynomials whose roots all lie in F_q: evaluating them at the q elements
finds the roots, and Lagrange interpolation gives the pieces.  The oracle
splits the Frobenius-fixed center of F_q[G] with the same kernel.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import InternalInconsistency, NotPrime, NotSemisimple


def is_prime(n: int) -> bool:
    """Trial division; BaseField calls it only for p <= MAX_BASE_ORDER."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mult_order(n: int, q: int) -> int:
    """Least s >= 1 with q^s = 1 mod n; ord_1(q) = 1 by convention.
    ValueError unless n >= 1 and gcd(n, q) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    s, acc = 1, q % n
    while acc != 1 % n:
        acc = acc * q % n
        s += 1
    return s


# ---------------------------------------------------------------------------
# The modulus of F_{p^a}.  A polynomial over F_p is a list of ints mod p,
# low degree first.
# ---------------------------------------------------------------------------

def _rem(p, f, m):
    """f mod the monic m over F_p, as a list of exactly deg m ints."""
    f, d = list(f), len(m) - 1
    for i in range(len(f) - 1, d - 1, -1):
        c = f[i] % p
        if c:  # f -= c x^{i-d} m, whose top term cancels f[i]
            for j in range(d):
                f[i - d + j] -= c * m[j]
    return [c % p for c in f[:d]] + [0] * (d - len(f))


def _mulmod(p, g, h, m):
    """g·h mod the monic m over F_p."""
    prod = [0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        if a:
            for j, b in enumerate(h):
                prod[i + j] += a * b
    return _rem(p, prod, m)


def _coprime(p, f, g):
    """Whether the monic f and the polynomial g share no factor of positive
    degree over F_p (g = 0 shares all of f): Euclid, each divisor made monic by the
    inverse pow(c, p - 2, p) of its top coefficient c."""
    while any(g):
        g = g[:max(i for i, c in enumerate(g) if c) + 1]
        inv = pow(g[-1], p - 2, p)
        f, g = g, _rem(p, f, [c * inv % p for c in g])
    return len(f) == 1


def is_irreducible(p, f):
    """Ben-Or's test: the monic f of degree s >= 1 over F_p is irreducible
    iff gcd(x^{p^d} - x, f) = 1 for every d <= s/2.  x^{p^d} mod f is the
    p-th power of x^{p^(d-1)} mod f, by square and multiply."""
    x = h = _rem(p, [0, 1], f)
    for _ in range((len(f) - 1) // 2):
        power = h  # the leading bit of p
        for bit in bin(p)[3:]:
            power = _mulmod(p, power, power, f)
            if bit == "1":
                power = _mulmod(p, power, h, f)
        h = power
        if not _coprime(p, f, [(c - e) % p for c, e in zip(h, x)]):
            return False
    return True


def lex_least_irreducible(p, s):
    """Lex-least monic irreducible of degree s >= 2 over F_p (coefficients
    compared low-degree-first).  Its constant term is nonzero, so the
    candidates with c_0 = 0 are skipped wholesale."""
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=s - 1):
            f = (c0, *rest, 1)
            if is_irreducible(p, f):
                return f
    raise InternalInconsistency(f"no irreducible of degree {s} found")


# ---------------------------------------------------------------------------
# Base field F_q
# ---------------------------------------------------------------------------

MAX_BASE_ORDER = 4096


def _digit_add_table(base, a):
    """The int16 addition table of length-a digit vectors mod p, index
    i = Σ c_k p^k, from the p x p table `base`, by halves: with a1 = ⌈a/2⌉
    an index is p^{a1}·hi + lo, and the sum of two adds their hi and their
    lo parts apart.  Each step is one broadcast whose inner axes are the
    longer half, p^{a1} wide, where one broadcast per digit would loop over
    inner axes of length p."""
    if a == 1:
        return base
    p, a1 = base.shape[0], (a + 1) // 2
    lo, hi = _digit_add_table(base, a1), _digit_add_table(base, a - a1)
    return (p ** a1 * hi[:, None, :, None] + lo[None, :, None, :]).reshape(p ** a, p ** a)


class BaseField:
    """F_{p^a} with table-backed arithmetic on integer element indices; the
    cyclotomic trace tables of the idempotents are memoized per instance.

    The int16 arrays add_np, mul_np, neg_np and inv_np (inv_np[0] = 0) are
    the only tables; inv reads one entry of inv_np as a Python int.  For
    a >= 2 an element is a residue mod modulus, the lex-least monic
    irreducible of degree a over F_p (lex_least_irreducible)."""

    def __init__(self, p: int, a: int = 1):
        if a < 1:
            raise ValueError("exponent must be >= 1")
        huge = a >= 64 and abs(p) >= 2  # |p^a| >= 2^64: not computed
        q = None if huge else p ** a
        # a huge p^a is past the cap unless it is negative (p < 0, a odd)
        if (p > 0 or a % 2 == 0) if huge else q > MAX_BASE_ORDER:
            raise ValueError(f"base field order {f'{p}^{a}' if huge else q} exceeds cap "
                             f"{MAX_BASE_ORDER}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p, self.a, self.q = p, a, q
        i = np.arange(p, dtype=np.int32)  # products reach p^2 > 2^15
        self.add_np = _digit_add_table((np.add.outer(i, i) % p).astype(np.int16), a)
        if a == 1:
            self.modulus = None
            self.mul_np = (np.multiply.outer(i, i) % p).astype(np.int16)
        else:
            self.modulus = lex_least_irreducible(p, a)
            self.mul_np = self._prime_power_product()
        self.neg_np = (self.add_np == 0).argmax(axis=1).astype(np.int16)
        self.inv_np = (self.mul_np == 1).argmax(axis=1).astype(np.int16)
        self._traces = {}

    def _prime_power_product(self):
        """The int16 mul table of F_{p^a}, a >= 2: one gather of the doubled
        exp table of a generator (_generator_powers) at log i + log j, with
        row and column 0 zeroed.  The sums are at most 2(q - 2) < 2^13, so
        every intermediate is q x q int16."""
        q = self.q
        exp = self._generator_powers()
        log = np.zeros(q, dtype=np.int16)
        log[exp] = np.arange(q - 1, dtype=np.int16)
        mul = np.concatenate([exp, exp])[log[:, None] + log[None, :]]
        mul[0, :] = 0
        mul[:, 0] = 0
        return mul

    def _generator_powers(self):
        """g^0, ..., g^{q-2} as an int16 array, g the first generator of
        F_q^* in index order.  The digits of x^k·i (k < a) are stacked once;
        a candidate's map i -> g·i is their sum weighted by its digits.  g
        generates when the orbit of 1 under that map first returns to 1 at
        step q - 1; the walk stops there, since under a reducible modulus a
        zero divisor's orbit never returns."""
        p, a, q = self.p, self.a, self.q
        weights = p ** np.arange(a)
        digits = np.arange(q)[:, None] // weights % p
        stack = [digits]
        for _ in range(1, a):  # times x: shift up, fold x^a = -(m_0 + ... + m_{a-1} x^{a-1})
            d = stack[-1]
            stack.append((np.pad(d[:, :-1], ((0, 0), (1, 0)))
                          - d[:, -1:] * self.modulus[:a]) % p)
        stack = np.stack(stack)
        for g in range(2, q):
            times_g = (np.tensordot(digits[g], stack, 1) % p @ weights).tolist()
            powers, cur = [1], times_g[1]
            while cur != 1 and len(powers) < q - 1:
                powers.append(cur)
                cur = times_g[cur]
            if cur == 1 and len(powers) == q - 1:
                return np.array(powers, dtype=np.int16)
        raise InternalInconsistency(f"no generator of F_{self.q}^* found")

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_np[i])

    def from_int(self, k: int) -> int:
        return k % self.p

    def sum_rows(self, rows) -> np.ndarray:
        """The field sum over axis 0 of an array of element indices (zeros
        for no rows): add the top half of the rows to the bottom half
        through add_np until one row is left, an odd last row kept aside."""
        rows = np.asarray(rows)
        while len(rows) > 1:
            half = len(rows) // 2
            top = self.add_np[rows[:half], rows[half:2 * half]]
            rows = np.concatenate([top, rows[2 * half:]]) if len(rows) % 2 else top
        return rows[0].copy() if len(rows) else np.zeros(rows.shape[1:], np.int16)

    # -- representation helpers
    def coeffs_of(self, i) -> tuple:
        """Coefficient vector (c_0, ..., c_{a-1}) over F_p."""
        p = self.p
        return tuple((i // p ** k) % p for k in range(self.a))

    # -- cyclotomic traces, memoized per field
    def cyclotomic_traces(self, n: int) -> tuple:
        """(tr(zeta^k) for k in range(n)) as base-field indices, zeta a
        primitive n-th root of unity and tr the trace from F_q(zeta) to F_q.
        Raises ValueError if gcd(n, q) != 1.

        In A = F_q[Z_n], x a generator, the primitive idempotent e of the
        <q>-orbit of a faithful character x -> zeta has e[x^k] =
        n^-1·tr(zeta^-k), so tr(zeta^k) = n·e[x^-k].  Another orbit means
        another zeta, which only permutes the generator cosets indexing the
        traces.  The ring automorphism sigma: x -> x^q fixes every primitive
        idempotent.  Its fixed subalgebra A^sigma is spanned by the sums
        theta_O over the orbits O of j -> qj on Z/n, as the invariants of a
        permutation module are spanned by its orbit sums in any
        characteristic.  On each component F_q[x]/(f) = F_{q^s} of A, sigma
        is the Frobenius, whose fixed field is F_q; so A^sigma = F_q^r, r the
        number of orbits, with the primitive idempotents of A.  In one
        coordinate per orbit, read at its least member rho,
        (theta_O·w)(rho) = sum_{j in O} w(rho - j) is a gather, and
        split_fixed splits the projection prod_{l | n prime}
        (1 - l^-1·sum_{i<l} x^{i·n/l}) onto the faithful characters, under
        which A^sigma is F_q^count, count the number of orbits of units,
        phi(n)/ord_n(q); e is the first block.  The orbit sums of x^{n/l^k},
        l^k || n, come first: on a faithful character each acts by a trace of
        a primitive l^k-th root, so its minimal polynomial has degree below
        l^k, where that of x itself can reach count (1200 for n = 4092 over
        F_4093); the other orbit sums follow in orbit order."""
        tr = self._traces.get(n)
        if tr is None:
            if gcd(n, self.q) != 1:
                raise ValueError(f"gcd({n}, {self.q}) != 1")
            orbit = orbit_labels((np.arange(n) * self.q % n).tolist())
            rho = np.unique(orbit, return_index=True)[1]  # the least member of each orbit

            def theta(members):  # the gather array of sum_{j in members} x^j
                return orbit[(rho - members[:, None]) % n]

            f = np.zeros(rho.size, dtype=np.int16)
            f[0] = 1
            for ell in prime_factors(n):
                s = self.sum_rows(f[theta(np.arange(ell) * (n // ell))])
                f = self.add_np[f, self.neg_np[self.mul_np[self.inv(self.from_int(ell)), s]]]
            # n // gcd(n, l^bits) is n/l^k, as l^k <= n < 2^bits
            first = [int(orbit[n // gcd(n, ell ** n.bit_length())]) for ell in prime_factors(n)]
            sums = (theta(np.flatnonzero(orbit == o))
                    for o in dict.fromkeys(first + list(range(rho.size))))
            count = sum(gcd(int(j), n) == 1 for j in rho)
            e = split_fixed(self, sums, f, count)[0]
            tr = self._traces[n] = tuple(
                self.mul_np[self.from_int(n), e[orbit[-np.arange(n) % n]]].tolist())
        return tr

    def __repr__(self):
        return f"F_{self.q}" if self.a == 1 else f"F_{self.q} (= F_{self.p}^{self.a})"


@lru_cache(maxsize=None)
def make_field(p: int, a: int = 1) -> BaseField:
    return BaseField(p, a)


# ---------------------------------------------------------------------------
# Splitting an algebra F_q^r by roots in F_q
# ---------------------------------------------------------------------------

def orbit_labels(step) -> np.ndarray:
    """The orbit of each point i under the permutation i -> step[i] (a
    list), numbered by least member: the walk from each unlabeled i labels
    the points it reaches."""
    labels = [-1] * len(step)
    count = 0
    for i in range(len(step)):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = count
                j = step[j]
            count += 1
    return np.array(labels, dtype=np.int32)


def _minimal_polynomial(F, s, e):
    """Minimal polynomial of multiplication by the element with gather
    array s (split_fixed) on the ideal generated by the idempotent e, low
    degree first and monic; also returns the power list [e, s·e, s²·e, ...]
    so that polynomials can be evaluated at s cheaply.

    Elimination over the power rows with tracked combinations, in one
    pass: each new power is reduced against the stored rows in insertion
    order, and every stored row is zero at the pivots of the rows stored
    before it, so a reduced power is zero at every pivot.  The first power
    that reduces to zero yields the dependency directly, monic because its
    combination has 1 at its own index and the stored combinations live
    below it.
    """
    nmax = len(e) + 1
    powers = [e]
    basis = {}  # pivot column -> (reduced row, combo over power indices)
    deg = 0
    while True:
        v = powers[-1].copy()
        combo = np.zeros(nmax, dtype=np.int16)
        combo[deg] = 1
        for piv, (br, bc) in basis.items():
            c = int(v[piv])
            if c:
                v = F.add_np[v, F.neg_np[F.mul_np[c, br]]]
                combo = F.add_np[combo, F.neg_np[F.mul_np[c, bc]]]
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return combo[:deg + 1].tolist(), powers
        piv = int(nz[0])
        inv = F.inv(int(v[piv]))
        v = F.mul_np[inv, v]
        combo = F.mul_np[inv, combo]
        basis[piv] = (v, combo)
        powers.append(F.sum_rows(powers[-1][s]))  # s · powers[-1]
        deg += 1


def split_fixed(F, sums, start, count):
    """The primitive idempotents of a commutative F_q-algebra A = F_q^r that
    lie under the idempotent start, as the rows of an array, with A·start
    = F_q^count.  An element of A is a vector w of its r coordinates, and
    sums yields the elements to refine by, each as its gather array s:
    (s·w)[l] = sum_x w[s[x, l]], one field sum of a gather.

    Each round takes the next s and tests, in one pass over all blocks e,
    whether s·e lies in F_q·e.  Each other block is split by the minimal
    polynomial mp of s on A·e.  A·e = F_q^{r_e}, on which s acts by a
    diagonal matrix over F_q, so mp = prod (x - c) over its distinct
    diagonal entries c: its roots all lie in F_q, and evaluating mp at
    the q elements finds them.  The Lagrange pieces L_c(s)·e, with
    L_c = prod_{c' != c} (x - c')/(c - c'), are nonzero orthogonal
    idempotents summing to e: modulo mp, sum_c L_c = 1, L_c·L_c' = 0 and
    L_c² = L_c, and L_c(s)·e != 0 as deg L_c < deg mp.  A minimal
    polynomial with fewer distinct roots in F_q than its degree shows that
    A is not F_q^r: NotSemisimple.

    The split stops before the next s once there are count blocks: count
    nonzero orthogonal idempotents summing to start in A·start = F_q^count
    are indicators of disjoint nonempty sets of its count coordinates,
    that is, its primitive idempotents.  If sums spans A, the stop must
    come: a block e on which every s acts by a scalar has A·e = F_q·e, and
    is primitive.  InternalInconsistency if sums runs out first, or if
    a round passes count, which no F_q^count allows."""
    blocks, sums = start[None, :], iter(sums)
    while len(blocks) < count:
        s = next(sums, None)
        if s is None:
            break
        prods = np.zeros_like(blocks)  # s·e for every block e, a row of s at a time
        for row in s:
            prods = F.add_np[prods, blocks[:, row]]
        at = np.arange(len(blocks)), (blocks != 0).argmax(axis=1)
        c = F.mul_np[prods[at], F.inv_np[blocks[at]]]
        scalar = (F.mul_np[c[:, None], blocks] == prods).all(axis=1)
        blocks = np.concatenate([e[None, :] if sc else _lagrange_pieces(F, s, e)
                                 for e, sc in zip(blocks, scalar)])
    if len(blocks) != count:
        raise InternalInconsistency(f"split into {len(blocks)} blocks, not {count}")
    return blocks


def _lagrange_pieces(F, s, e):
    """The pieces L_c(s)·e of split_fixed, one per root c of the minimal
    polynomial mp of s on A·e, in increasing c.  mp/(x - c) comes from
    synthetic division for all roots at once; its value at c is
    prod_{c' != c} (c - c'), the denominator of L_c."""
    mp, powers = _minimal_polynomial(F, s, e)
    d = len(mp) - 1
    xs = np.arange(F.q)
    value = np.zeros(F.q, dtype=np.int16)
    for a in reversed(mp):  # Horner's rule at every element of F_q
        value = F.add_np[F.mul_np[value, xs], a]
    roots = np.flatnonzero(value == 0)
    if roots.size < d:
        raise NotSemisimple(f"minimal polynomial {mp} (low degree first) has "
                            f"fewer than {d} distinct roots in F_{F.q}")
    quot = np.empty((d, roots.size), dtype=np.int16)  # column c: mp/(x - c)
    top = np.ones(roots.size, dtype=np.int16)  # mp is monic
    at_c = np.zeros(roots.size, dtype=np.int16)
    for j in range(d - 1, -1, -1):
        quot[j] = top
        at_c = F.add_np[F.mul_np[at_c, roots], top]
        top = F.add_np[mp[j], F.mul_np[roots, top]]
    quot = F.mul_np[quot, F.inv_np[at_c]]
    powers = np.array(powers[:d])
    return np.array([F.sum_rows(F.mul_np[quot[:, i, None], powers])
                     for i in range(roots.size)])
