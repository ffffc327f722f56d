"""Exact arithmetic in a base field F_q, polynomials over it, and the
cyclotomic traces the idempotents need.

Base fields F_q (q = p^a) represent elements as integer indices 0..q-1;
index i encodes the coefficient vector (c_0, ..., c_{a-1}) with
i = sum c_k p^k, so the constant c embeds as the index c.  Arithmetic
goes through precomputed q x q int16 tables: gathers for vectorized use
(BaseField.sum_rows, the one reduction of many vectors to their sum), and
row memoryviews for scalar lookups.
For a >= 2 the modulus is the lex-least irreducible of degree a
over F_p, and the product table comes from discrete-log tables of a
generator of F_q^*.

No extension field F_{q^s} is ever built.  The idempotents only need the
traces tr(zeta^k) of a primitive n-th root of unity zeta, and those lie in
F_q: they are the power sums of the roots of one irreducible factor of the
cyclotomic polynomial Phi_n over F_q (BaseField.cyclotomic_traces, memoized
on the field object that make_field caches per (p, a)).  Factoring is
for squarefree input only: the minimal polynomials the oracle splits are
squarefree whenever F_q[G] is semisimple.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np

from .errors import InternalInconsistency, NotCoprime, NotPrime


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
    """Least s >= 1 with q^s = 1 mod n; ord_1(q) = 1 by convention."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n == 1:
        return 1
    if gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    s, acc = 1, q % n
    while acc != 1:
        acc = acc * q % n
        s += 1
    return s


# ---------------------------------------------------------------------------
# Polynomials over a base field.  Coefficients are base-field indices,
# low-degree first, with no trailing zeros ([] is the zero polynomial).
# ---------------------------------------------------------------------------

def poly_trim(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return f[:i]


def poly_deg(f):
    return len(f) - 1


def poly_add(F, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


def poly_sub(F, f, g):
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = F.sub(out[i], c)
    return poly_trim(out)


def poly_scale(F, c, f):
    if c == 0:
        return []
    return poly_trim([F.mul(c, x) for x in f])


def poly_mul(F, f, g):
    if not f or not g:
        return []
    add = F._add
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = F._mul[a]  # one row view per outer step
            for j, b in enumerate(g):
                if b:
                    out[i + j] = add[out[i + j]][row[b]]
    return poly_trim(out)


def poly_divmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    add = F._add
    dg = len(g) - 1
    lg_inv = F.inv(g[-1])
    quot = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        f = poly_trim(f)
        if len(f) - 1 < dg:
            break
        c = F.mul(f[-1], lg_inv)
        shift = len(f) - 1 - dg
        quot[shift] = c
        row = F._mul[F.neg(c)]  # f -= c x^shift g, one row view per step
        for i, b in enumerate(g):
            f[shift + i] = add[f[shift + i]][row[b]]
    return poly_trim(quot), poly_trim(f)


def poly_mod(F, f, g):
    return poly_divmod(F, f, g)[1]


def poly_monic(F, f):
    if not f:
        return f
    if f[-1] == F.one:
        return list(f)
    return poly_scale(F, F.inv(f[-1]), f)


def poly_gcd(F, f, g):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g:
        f, g = g, poly_mod(F, f, g)
    return poly_monic(F, f)


def poly_pow_mod(F, f, e, m):
    result = [F.one]
    base = poly_mod(F, f, m)
    while e > 0:
        if e & 1:
            result = poly_mod(F, poly_mul(F, result, base), m)
        base = poly_mod(F, poly_mul(F, base, base), m)
        e >>= 1
    return result


def poly_deriv(F, f):
    return poly_trim([F.mul(F.from_int(i), c) for i, c in enumerate(f)][1:])


def is_irreducible(F, f) -> bool:
    """Deterministic test: x^{q^s} = x mod f and gcd(x^{q^{s/l}} - x, f) = 1
    for every prime l | s."""
    f = poly_monic(F, poly_trim(list(f)))
    s = poly_deg(f)
    if s < 1:
        return False
    if s == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    x = [0, F.one]
    h = list(x)
    powers = {}
    for i in range(1, s + 1):
        h = poly_pow_mod(F, h, F.q, f)
        powers[i] = h
    if poly_sub(F, powers[s], x):
        return False
    for ell in prime_factors(s):
        g = poly_gcd(F, poly_sub(F, powers[s // ell], x), f)
        if poly_deg(g) != 0:
            return False
    return True


def lex_least_irreducible(F, s):
    """Lex-least monic irreducible of degree s over F (coefficients compared
    low-degree-first in F's element-lex order).  For s >= 2 the constant
    term must be nonzero, so those candidates are skipped wholesale."""
    if s == 1:
        return (0, F.one)
    lex = list(F.elements_lex())
    for c0 in lex:
        if c0 == F.zero:
            continue
        for rest in itertools.product(lex, repeat=s - 1):
            f = [c0, *rest, F.one]
            if is_irreducible(F, f):
                return tuple(f)
    raise InternalInconsistency(f"no irreducible of degree {s} found")


# ---------------------------------------------------------------------------
# Base field F_q
# ---------------------------------------------------------------------------

MAX_BASE_ORDER = 4096


class BaseField:
    """F_{p^a} with table-backed arithmetic on integer element indices, and
    the cyclotomic trace tables of the idempotents, memoized per instance.

    The int16 arrays add_np, mul_np, neg_np and inv_np (inv_np[0] = 0) are
    the only tables; the scalar ops read them through one memoryview per
    row, which returns Python ints."""

    def __init__(self, p: int, a: int = 1):
        if a < 1:
            raise ValueError("exponent must be >= 1")
        q = p ** a if a < 64 else None  # p^a >= 2^64 is past the cap; not built
        if q is None or q > MAX_BASE_ORDER:
            raise ValueError(f"base field order {q or f'{p}^{a}'} exceeds cap "
                             f"{MAX_BASE_ORDER}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p, self.a, self.q = p, a, q
        self.zero, self.one = 0, 1
        if a == 1:
            self.modulus = None
            i = np.arange(p, dtype=np.int32)  # products reach p^2 > 2^15
            self.add_np = (np.add.outer(i, i) % p).astype(np.int16)
            self.mul_np = (np.multiply.outer(i, i) % p).astype(np.int16)
        else:
            prime = BaseField(p, 1)
            self.modulus = lex_least_irreducible(prime, a)
            self.add_np, self.mul_np = self._prime_power_tables(prime)
        self.neg_np = (self.add_np == 0).argmax(axis=1).astype(np.int16)
        self.inv_np = (self.mul_np == 1).argmax(axis=1).astype(np.int16)
        self._add = [memoryview(row) for row in self.add_np]
        self._mul = [memoryview(row) for row in self.mul_np]
        self._neg, self._inv = memoryview(self.neg_np), memoryview(self.inv_np)
        self._traces = {}

    def _prime_power_tables(self, prime):
        """int16 add and mul tables of F_{p^a}, a >= 2, in O(a) numpy calls:
        add by one broadcast per digit, mul as exp[(log i + log j) mod
        (q - 1)] with row and column 0 zeroed.  Every intermediate stays
        q x q int16 (q <= MAX_BASE_ORDER keeps 2(q - 2) below 2^15)."""
        p, q = self.p, self.q
        add = base = prime.add_np
        for k in range(1, self.a):  # index p·i + c: c is the new least digit
            n = p ** k
            add = (p * add[:, None, :, None] + base[None, :, None, :]).reshape(n * p, n * p)
        exp = self._generator_powers(prime)
        log = np.zeros(q, dtype=np.int16)
        log[exp] = np.arange(q - 1, dtype=np.int16)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        return add, mul

    def _generator_powers(self, prime):
        """g^0, ..., g^{q-2} as an int16 array, g the first generator of
        F_q^* in index order (products by polynomial arithmetic over F_p)."""
        mod = list(self.modulus)
        for g in range(2, self.q):
            gpoly = poly_trim(list(self.coeffs_of(g)))
            powers, cur = [1], [1]
            for _ in range(self.q - 2):
                cur = poly_mod(prime, poly_mul(prime, cur, gpoly), mod)
                i = self._coeffs_to_index(cur)
                if i == 1:
                    break
                powers.append(i)
            else:
                return np.array(powers, dtype=np.int16)
        raise InternalInconsistency(f"no generator of F_{self.q}^* found")

    # -- scalar ops on indices
    def add(self, i, j):
        return self._add[i][j]

    def sub(self, i, j):
        return self._add[i][self._neg[j]]

    def neg(self, i):
        return self._neg[i]

    def mul(self, i, j):
        return self._mul[i][j]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[i]

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

    def _coeffs_to_index(self, coeffs):
        return sum(c * self.p ** k for k, c in enumerate(coeffs))

    def elements_lex(self):
        """All element indices in coefficient-lex order (c_0 compared first)."""
        for c in itertools.product(range(self.p), repeat=self.a):
            yield self._coeffs_to_index(c)

    # -- cyclotomic traces, memoized per field
    def cyclotomic_traces(self, n: int) -> tuple:
        """(tr(zeta^k) for k in range(n)) as base-field indices, zeta a
        primitive n-th root of unity and tr the trace from F_q(zeta) to F_q.

        zeta is a root of one irreducible factor f0 of Phi_n over F_q, so the
        traces are the power sums of the roots of f0.  Another factor means
        another zeta, which only permutes the generator cosets indexing the
        traces.  Raises NotCoprime if gcd(n, q) != 1.
        """
        tr = self._traces.get(n)
        if tr is None:
            tr = self._traces[n] = _power_sums(self, _cyclotomic_factor(self, n), n)
        return tr

    def __repr__(self):
        return f"F_{self.q}" if self.a == 1 else f"F_{self.q} (= F_{self.p}^{self.a})"


@lru_cache(maxsize=None)
def make_field(p: int, a: int = 1) -> BaseField:
    return BaseField(p, a)


def _int_cyclotomic(n: int) -> list:
    """Phi_n over Z, low degree first: prod_{d | n} (x^d - 1)^mu(n/d), the
    factors with mu = -1 applied last as exact divisions."""
    times, over = [], []
    for d in range(1, n + 1):
        if n % d:
            continue
        ells = prime_factors(n // d)
        if prod(ells) == n // d:  # squarefree, so mu(n/d) = (-1)^len(ells)
            (over if len(ells) % 2 else times).append(d)
    f = [1]
    for d in times:
        g = [0] * (len(f) + d)
        for i, c in enumerate(f):
            g[i] -= c
            g[i + d] += c
        f = g
    for d in over:
        # h (x^d - 1) = f  <=>  h_i = f_{i+d} + h_{i+d}, top coefficient first
        h = [0] * len(f)
        for i in range(len(f) - d - 1, -1, -1):
            h[i] = f[i + d] + h[i + d]
        f = h[:len(f) - d]
    return f


def _cyclotomic_factor(F: BaseField, n: int) -> list:
    """One monic irreducible factor of Phi_n over F.  Every factor has degree
    s = ord_n(q), so equal-degree splitting alone finds one; each round
    keeps the smaller piece."""
    s = mult_order(n, F.q)
    f = poly_trim([F.from_int(c) for c in _int_cyclotomic(n)])
    while poly_deg(f) > s:
        g = _split_once(F, f, s)
        f = min(g, poly_divmod(F, f, g)[0], key=len)
    return f


def _power_sums(F: BaseField, f, n: int) -> tuple:
    """p_0, ..., p_{n-1}, p_k the sum of the k-th powers of the roots of the
    monic f = x^s + c_{s-1} x^{s-1} + ... + c_0.  Newton's identities give
    p_k = -(c_{s-1} p_{k-1} + ... + c_{s-k+1} p_1 + k c_{s-k}) for k <= s;
    beyond s, p_k follows the recurrence with characteristic polynomial f."""
    s = poly_deg(f)
    out = [F.from_int(s)]
    for k in range(1, n):
        acc = F.mul(F.from_int(k), f[s - k]) if k <= s else 0
        for i in range(1, min(k, s + 1)):
            acc = F.add(acc, F.mul(f[s - i], out[k - i]))
        out.append(F.neg(acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# Factorization of monic univariate polynomials over the base field
# ---------------------------------------------------------------------------

def factor_polynomial(F: BaseField, f):
    """The monic irreducible factors of a squarefree monic polynomial over
    F_q, sorted by (degree, coefficient-lex): distinct-degree, then
    equal-degree splitting.  ValueError for a constant, non-monic or
    non-squarefree (gcd(f, f') != 1) f."""
    f = poly_trim(list(f))
    if poly_deg(f) < 1:
        raise ValueError("degree must be >= 1")
    if f[-1] != F.one:
        raise ValueError("polynomial must be monic")
    if poly_deg(poly_gcd(F, f, poly_deriv(F, f))) > 0:
        raise ValueError("polynomial is not squarefree")
    factors, rest = [], f
    x = [0, F.one]
    h = list(x)
    d = 0
    while poly_deg(rest) > 0:
        d += 1
        if 2 * d > poly_deg(rest):
            factors.append(tuple(rest))
            break
        h = poly_pow_mod(F, h, F.q, rest)
        g = poly_gcd(F, poly_sub(F, h, x), rest)
        if poly_deg(g) > 0:
            factors.extend(tuple(irr) for irr in _split_equal_degree(F, g, d))
            rest = poly_divmod(F, rest, g)[0]
            h = poly_mod(F, h, rest)
    check = [F.one]
    for h in factors:
        check = poly_mul(F, check, list(h))
    if check != f:
        raise InternalInconsistency("factorization does not re-multiply")
    return sorted(factors, key=lambda h: (len(h), tuple(F.coeffs_of(c) for c in h)))


def _split_equal_degree(F, f, d):
    if poly_deg(f) == d:
        return [f]
    g = _split_once(F, f, d)
    rest = poly_divmod(F, f, g)[0]
    return _split_equal_degree(F, g, d) + _split_equal_degree(F, rest, d)


def _split_once(F, f, d):
    """A proper monic factor of the squarefree monic f, every irreducible
    factor of which has degree d < deg f (Cantor-Zassenhaus with the
    candidates T taken in a fixed order)."""
    n = poly_deg(f)
    for coeffs in itertools.product(F.elements_lex(), repeat=n):
        T = poly_trim(list(coeffs))
        if poly_deg(T) < 1:
            continue
        if F.p == 2:
            acc, cur = list(T), list(T)
            for _ in range(F.a * d - 1):
                cur = poly_pow_mod(F, poly_mul(F, cur, cur), 1, f)
                acc = poly_add(F, acc, cur)
            g = poly_gcd(F, acc, f)
        else:
            e = (F.q ** d - 1) // 2
            g = poly_gcd(F, poly_sub(F, poly_pow_mod(F, T, e, f), [F.one]), f)
        if 0 < poly_deg(g) < n:
            return g
    raise InternalInconsistency("equal-degree splitting exhausted candidates")
