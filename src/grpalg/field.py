"""Exact arithmetic in a base field F_q, polynomials over it, and the
cyclotomic traces the idempotents need.

Base fields F_q (q = p^a) represent elements as integer indices 0..q-1;
index i encodes the coefficient vector (c_0, ..., c_{a-1}) with
i = sum c_k p^k, so the constant c embeds as the index c.  Scalar
arithmetic goes through precomputed q x q tables (both plain lists for
scalar lookups and numpy arrays for vectorized use by the group-algebra
layer).  For a >= 2 the modulus is the lex-least irreducible of degree a
over F_p, and the product table comes from discrete-log tables of a
generator of F_q^*.

No extension field F_{q^s} is ever built.  The idempotents only need the
traces tr(zeta^k) of a primitive n-th root of unity zeta, and those lie in
F_q: they are the power sums of the roots of one irreducible factor of the
cyclotomic polynomial Phi_n over F_q (BaseField.cyclotomic_traces, memoized
on the field object that make_field caches per (p, a)).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .errors import InternalInconsistency, NotCoprime, NotPrime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, exact for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(out)


def poly_divmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
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
        for i, b in enumerate(g):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, b))
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


def poly_eval(F, f, x):
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


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
    the cyclotomic trace tables of the idempotents, memoized per instance."""

    def __init__(self, p: int, a: int = 1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if a < 1:
            raise ValueError("exponent must be >= 1")
        q = p ** a if a < 64 else None  # p^a >= 2^64 is past the cap; not built
        if q is None or q > MAX_BASE_ORDER:
            raise ValueError(f"base field order {q or f'{p}^{a}'} exceeds cap "
                             f"{MAX_BASE_ORDER}")
        self.p, self.a, self.q = p, a, q
        self.zero, self.one = 0, 1
        if a == 1:
            self.modulus = None
            i = np.arange(p, dtype=np.int32)  # products reach p^2 > 2^15
            self.add_np = ((i[:, None] + i[None, :]) % p).astype(np.int16)
            self.mul_np = ((i[:, None] * i[None, :]) % p).astype(np.int16)
        else:
            prime = BaseField(p, 1)
            self.modulus = lex_least_irreducible(prime, a)
            self.add_np, self.mul_np = self._prime_power_tables(prime)
        self.add_t, self.mul_t = self.add_np.tolist(), self.mul_np.tolist()
        self.neg_t = [0] * q
        for i in range(q):
            row = self.add_t[i]
            self.neg_t[i] = row.index(0)
        self.inv_t = [0] * q
        for i in range(1, q):
            self.inv_t[i] = self.mul_t[i].index(1)
        self.neg_np = np.array(self.neg_t, dtype=np.int16)
        self.inv_np = np.array(self.inv_t, dtype=np.int16)
        self._traces = {}

    def _prime_power_tables(self, prime):
        """int16 add and mul tables of F_{p^a}, a >= 2, in O(q) Python work:
        add digit by digit, mul as exp[(log i + log j) mod (q - 1)] with
        row and column 0 zeroed.  Every intermediate stays q x q int16
        (q <= MAX_BASE_ORDER keeps 2(q - 2) below 2^15)."""
        p, q = self.p, self.q
        idx = np.arange(q, dtype=np.int16)
        add = np.zeros((q, q), dtype=np.int16)
        for k in range(self.a):
            digit = idx // p ** k % p
            add += (digit[:, None] + digit[None, :]) % p * p ** k
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
        return self.add_t[i][j]

    def sub(self, i, j):
        return self.add_t[i][self.neg_t[j]]

    def neg(self, i):
        return self.neg_t[i]

    def mul(self, i, j):
        return self.mul_t[i][j]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_t[i]

    def pow(self, i, e):
        if e < 0:
            i, e = self.inv(i), -e
        result, base = 1, i
        while e > 0:
            if e & 1:
                result = self.mul_t[result][base]
            base = self.mul_t[base][base]
            e >>= 1
        return result

    def from_int(self, k: int) -> int:
        return k % self.p

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
    """Factor a monic polynomial over F_q into (irreducible, multiplicity)
    pairs, sorted by (degree, coefficient-lex)."""
    f = poly_trim(list(f))
    if poly_deg(f) < 1:
        raise ValueError("degree must be >= 1")
    if f[-1] != F.one:
        raise ValueError("polynomial must be monic")
    factors: dict[tuple, int] = {}
    _factor_into(F, f, 1, factors)
    check = [F.one]
    for h, e in factors.items():
        for _ in range(e):
            check = poly_mul(F, check, list(h))
    if check != f:
        raise InternalInconsistency("factorization does not re-multiply")
    return sorted(
        ((h, e) for h, e in factors.items()),
        key=lambda it: (len(it[0]), tuple(F.coeffs_of(c) for c in it[0])),
    )


def _factor_into(F, f, mult, factors):
    if poly_deg(f) < 1:
        return
    d = poly_deriv(F, f)
    if not d:
        # f = g(x^p); p-th root of each coefficient is c^(q/p)
        root = [F.pow(c, F.q // F.p) for c in f[:: F.p]]
        _factor_into(F, root, mult * F.p, factors)
        return
    w = poly_divmod(F, f, poly_gcd(F, f, d))[0]  # distinct-factor part
    rem = list(f)
    for h in _factor_squarefree(F, w):
        e = 0
        while True:
            quot, r = poly_divmod(F, rem, list(h))
            if r:
                break
            rem, e = quot, e + 1
        factors[h] = factors.get(h, 0) + e * mult
    if poly_deg(rem) >= 1:
        # remaining multiplicities all divisible by p
        root = [F.pow(c, F.q // F.p) for c in rem[:: F.p]]
        _factor_into(F, root, mult * F.p, factors)


def _factor_squarefree(F, f):
    """Irreducible factors of a squarefree monic f (distinct-degree then
    equal-degree splitting)."""
    out = []
    f = poly_monic(F, f)
    x = [0, F.one]
    h = list(x)
    d = 0
    while poly_deg(f) > 0:
        d += 1
        if 2 * d > poly_deg(f):
            out.append(tuple(f))
            break
        h = poly_pow_mod(F, h, F.q, f)
        g = poly_gcd(F, poly_sub(F, h, x), f)
        if poly_deg(g) > 0:
            out.extend(tuple(irr) for irr in _split_equal_degree(F, g, d))
            f = poly_divmod(F, f, g)[0]
            h = poly_mod(F, h, f)
    return out


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
