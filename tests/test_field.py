import functools
import itertools
import os
import random
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_table_reference, is_irreducible_reference as is_irreducible
from grpalg import field
from grpalg.errors import NotCoprime, NotPrime
from grpalg.field import (
    BaseField,
    factor_polynomial,
    is_prime,
    lex_least_irreducible,
    make_field,
    mult_order,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
    prime_factors,
)


def brute_irreducibles(F, s):
    """All monic irreducibles of degree s over a prime field, by checking
    for roots / low-degree divisors via exhaustive division."""
    out = []
    lower = {}
    for d in range(1, s):
        lower[d] = brute_irreducibles(F, d) if d > 1 else \
            [(c, 1) for c in range(F.q)]
    for coeffs in itertools.product(range(F.q), repeat=s):
        f = list(coeffs) + [1]
        if any(not poly_divmod(F, f, list(g))[1]
               for d in range(1, s) for g in lower[d]):
            continue
        out.append(tuple(f))
    return out


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31 + 1)


def test_mult_order_brute():
    for n in range(1, 40):
        for q in range(2, 20):
            if gcd(n, q) != 1:
                continue
            s = mult_order(n, q)
            assert pow(q, s, n) == 1 % n
            assert all(pow(q, i, n) != 1 % n for i in range(1, s)) or n == 1
    assert mult_order(1, 7) == 1
    with pytest.raises(NotCoprime):
        mult_order(6, 3)


def test_base_field_requires_prime():
    with pytest.raises(NotPrime):
        BaseField(6)
    # the cap comes first, so no primality test runs on a huge p
    for p, a in [(10000, 1), (10 ** 40 + 1, 1), (65, 2)]:
        with pytest.raises(ValueError, match="exceeds cap 4096"):
            BaseField(p, a)


def test_f4_f9_moduli_are_lex_least():
    # oracle: enumerate all monic irreducibles and take the lex-least
    f2, f3 = BaseField(2), BaseField(3)
    assert BaseField(2, 2).modulus == min(brute_irreducibles(f2, 2))
    assert BaseField(2, 2).modulus == (1, 1, 1)          # x^2 + x + 1
    assert BaseField(3, 2).modulus == min(brute_irreducibles(f3, 2))
    assert BaseField(3, 2).modulus == (1, 0, 1)          # x^2 + 1
    assert lex_least_irreducible(f2, 3) == min(brute_irreducibles(f2, 3))


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, a):
    F = BaseField(p, a)
    els = range(F.q)
    for x in els:
        assert F.add(x, 0) == x and F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
        for y in els:
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            for z in els:
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                assert F.add(x, F.add(y, z)) == F.add(F.add(x, y), z)


def naive_tables(p, a, modulus):
    """add and mul tables of F_p[x]/(modulus) by schoolbook arithmetic on
    coefficient vectors, one row (first operand) at a time."""
    q = p ** a
    D = np.array([[i // p ** k % p for k in range(a)] for i in range(q)])
    weights = p ** np.arange(a)
    add = (D[:, None, :] + D[None, :, :]) % p @ weights
    mul = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        prod = np.zeros((q, 2 * a - 1), dtype=np.int64)
        for u in range(a):
            prod[:, u:u + a] += D[i, u] * D
        for d in range(2 * a - 2, a - 1, -1):  # x^a = -(m_0 + ... + m_{a-1} x^{a-1})
            c = prod[:, d] % p
            for k in range(a):
                prod[:, d - a + k] -= c * modulus[k]
        mul[i] = prod[:, :a] % p @ weights
    return add, mul


PRIME_POWERS_TO_256 = [(p, a) for p in (2, 3, 5, 7, 11, 13)
                       for a in range(2, 9) if p ** a <= 256]


@pytest.mark.parametrize("p,a", PRIME_POWERS_TO_256)
def test_prime_power_tables_match_naive_product(p, a):
    F = BaseField(p, a)
    add, mul = naive_tables(p, a, F.modulus)
    assert F.add_np.dtype == F.mul_np.dtype == np.int16
    assert np.array_equal(F.add_np, add) and np.array_equal(F.mul_np, mul)
    els = range(F.q)
    assert [[F.add(i, j) for j in els] for i in els] == add.tolist()
    assert [[F.mul(i, j) for j in els] for i in els] == mul.tolist()
    # negatives and inverses, checked against the naive tables as well
    assert all(add[i, F.neg(i)] == 0 and F.neg_np[i] == F.neg(i) for i in els)
    assert all(mul[i, F.inv(i)] == 1 and F.inv_np[i] == F.inv(i) for i in els[1:])
    assert all(F.sub(i, j) == add[i, F.neg(j)] for i in els for j in (0, 1, F.q - 1))


PRIME_POWERS_TO_4096 = [(p, a) for p in range(2, 65) if is_prime(p)
                        for a in range(2, 13) if p ** a <= 4096]


@pytest.mark.parametrize("p,a", PRIME_POWERS_TO_4096)
def test_add_table_matches_digit_loop(p, a):
    """The broadcast F_{p^a} addition table against the digit-by-digit
    build, for every p^a <= MAX_BASE_ORDER with a >= 2 (BaseField, not the
    make_field cache, so no table outlives its case)."""
    assert np.array_equal(BaseField(p, a).add_np, add_table_reference(p, a))


def test_largest_fields_stay_small():
    """The int16 arrays are the only tables, with no q x q Python copy: in
    a fresh process F_4093 and F_{2^12} each peak under 300 MB (ru_maxrss,
    KiB on Linux), and verify runs at the largest prime below the cap.  1
    GiB of address space keeps a regression from filling the memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=120,
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (1 << 30, 1 << 30)))

    for args in ("4093", "2, 12"):
        proc = run("-c", "import resource; from grpalg.field import make_field; "
                         f"make_field({args}); "
                         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 300 * 1024, (args, int(proc.stdout) // 1024)
    proc = run("-m", "grpalg.cli", "verify", "--metacyclic", "3", "2", "0", "2",
               "--p", "4093")
    assert proc.returncode == 0, proc.stderr
    assert "oracle.match = yes" in proc.stdout.splitlines()


def companion_traces(F, f, n):
    """tr(C^k) for k < n, C the companion matrix of the monic f: the trace of
    multiplication by a root of f on F[x]/(f)."""
    s = len(f) - 1
    C = [[F.one if i == j + 1 else 0 for j in range(s)] for i in range(s)]
    for i in range(s):
        C[i][s - 1] = F.neg(f[i])
    M = [[F.one if i == j else 0 for j in range(s)] for i in range(s)]
    out = []
    for _ in range(n):
        out.append(functools.reduce(F.add, (M[i][i] for i in range(s))))
        M = [[functools.reduce(F.add, (F.mul(M[i][t], C[t][j]) for t in range(s)))
              for j in range(s)] for i in range(s)]
    return out


TRACE_GRID = [(2, 1, 7), (2, 1, 21), (2, 1, 63), (3, 1, 13), (3, 1, 40),
              (5, 1, 1), (5, 1, 12), (7, 1, 19), (2, 2, 5), (2, 2, 9),
              (2, 2, 63), (2, 3, 9), (2, 3, 63), (3, 2, 5), (3, 2, 20),
              (3, 2, 56), (5, 2, 13), (5, 2, 24), (5, 2, 63)]


def test_cyclotomic_traces_match_companion_matrix():
    for p, a, n in TRACE_GRID:
        F = make_field(p, a)
        f0 = field._cyclotomic_factor(F, n)
        assert len(f0) - 1 == mult_order(n, F.q) and is_irreducible(F, f0)
        phi = poly_trim([F.from_int(c) for c in field._int_cyclotomic(n)])
        assert poly_divmod(F, phi, f0)[1] == []
        # the roots of f0 have exact order n
        x_to = lambda m: poly_sub(F, [0] * m + [F.one], [F.one])  # noqa: E731
        assert poly_divmod(F, x_to(n), f0)[1] == []
        assert all(poly_divmod(F, x_to(n // ell), f0)[1] != []
                   for ell in prime_factors(n))
        tr = make_field(p, a).cyclotomic_traces(n)
        assert list(tr) == companion_traces(F, f0, n), (p, a, n)
    with pytest.raises(NotCoprime):
        make_field(3).cyclotomic_traces(6)


def test_trace_values():
    # F_4 over F_2: tr(1) = 0 and tr(zeta) = tr(zeta^2) = zeta + zeta^2 = 1
    assert make_field(2).cyclotomic_traces(3) == (0, 1, 1)
    # zeta in F_25 over F_5: tr(1) = 2, tr(zeta) = -1
    assert make_field(5).cyclotomic_traces(3) == (2, 4, 4)
    # in F_7 the primitive cube roots are 2 and 4, and tr is the identity
    tr = make_field(7).cyclotomic_traces(3)
    assert tr[0] == 1 and {tr[1], tr[2]} == {2, 4} and tr[2] == tr[1] ** 2 % 7
    assert make_field(2, 2).cyclotomic_traces(1) == (1,)
    # tr(1) = s and tr is Frobenius-invariant: tr(zeta^k) = tr(zeta^{kq})
    for p, a, n in TRACE_GRID:
        F = make_field(p, a)
        tr = F.cyclotomic_traces(n)
        assert tr[0] == mult_order(n, F.q) % p
        assert all(tr[k] == tr[k * F.q % n] for k in range(n))


def test_int_cyclotomic_known_values():
    assert field._int_cyclotomic(1) == [-1, 1]
    assert field._int_cyclotomic(6) == [1, -1, 1]
    assert field._int_cyclotomic(12) == [1, 0, -1, 0, 1]
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    phi105 = field._int_cyclotomic(105)
    assert len(phi105) - 1 == 48 and min(phi105) == -2
    # prod_{d | n} Phi_d = x^n - 1
    for n in (8, 30, 36, 63):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = field._int_cyclotomic(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, x in enumerate(prod):
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=7),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_poly_divmod_roundtrip(f, g):
    F = make_field(5)
    g = poly_trim(g)
    if not g:
        return
    q, r = poly_divmod(F, f, g)
    recon = [0] * max(len(f), 1)
    prod = poly_mul(F, q, g)
    for i, c in enumerate(prod):
        recon[i] = c
    for i, c in enumerate(r):
        recon[i] = F.add(recon[i], c)
    assert poly_trim(recon) == poly_trim(list(f))
    assert len(r) < len(g) or not r


@pytest.mark.parametrize("p, a", [(3, 1), (2, 2)])
def test_poly_divmod_by_sparse_binomials(p, a):
    """Dense f of degree up to 600 divided by u·x^k + c with u != 0 and k up
    to 300 (the shape of Phi_{2^j} = x^{2^(j-1)} + 1): q·g + r = f and
    deg r < k."""
    F = make_field(p, a)
    rng = random.Random(p * 10 + a)
    for _ in range(25):
        k = rng.randint(1, 300)
        g = [rng.randrange(F.q)] + [0] * (k - 1) + [rng.randrange(1, F.q)]
        f = [rng.randrange(F.q) for _ in range(rng.randint(1, 601))]
        q, r = poly_divmod(F, f, g)
        assert poly_mul(F, g, q) == poly_sub(F, f, r)
        assert len(r) <= k


def has_square_factor(F, f):
    """Whether some monic irreducible h of degree <= deg(f)/2 has h^2 | f,
    by exhaustive division over a prime field."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        hs = [(c, 1) for c in range(F.q)] if d == 1 else brute_irreducibles(F, d)
        if any(not poly_divmod(F, f, poly_mul(F, list(h), list(h)))[1] for h in hs):
            return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_polynomial_remultiplies(p):
    # every monic quartic: the squarefree ones factor into distinct
    # irreducibles whose product is f, the others are rejected
    F = BaseField(p)
    for coeffs in itertools.product(range(p), repeat=4):
        f = list(coeffs) + [1]
        if has_square_factor(F, f):
            with pytest.raises(ValueError, match="not squarefree"):
                factor_polynomial(F, f)
            continue
        factors = factor_polynomial(F, f)
        assert len(set(factors)) == len(factors)
        prod = [1]
        for h in factors:
            assert is_irreducible(F, list(h))
            prod = poly_mul(F, prod, list(h))
        assert prod == f


def test_factor_known_values():
    F = BaseField(3)
    # x^2 + 1 irreducible over F_3
    assert factor_polynomial(F, [1, 0, 1]) == [(1, 0, 1)]
    # x^2 - 1 = (x+1)(x+2)
    assert factor_polynomial(F, [2, 0, 1]) == [(1, 1), (2, 1)]
    # x^3 - x = x (x+1)(x+2) over F_3
    assert factor_polynomial(F, [0, 2, 0, 1]) == [(0, 1), (1, 1), (2, 1)]
    # x^2 + x + 2 takes the values 2, 1, 2 on F_3, so it is irreducible
    assert factor_polynomial(F, [2, 1, 1]) == [(2, 1, 1)]
    # repeated factors are rejected: x^3 + 1 = (x+1)^3 in char 3, whose
    # derivative is 0, and, over F_2, x^4 + x^2 + 1 = (x^2+x+1)^2
    with pytest.raises(ValueError, match="not squarefree"):
        factor_polynomial(F, [1, 0, 0, 1])
    with pytest.raises(ValueError, match="not squarefree"):
        factor_polynomial(BaseField(2), [1, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="not squarefree"):
        factor_polynomial(F, [1, 2, 1])  # (x + 1)^2
    # char 2 equal-degree split: x^4 + x = x (x + 1)(x^2 + x + 1)
    assert factor_polynomial(BaseField(2), [0, 1, 0, 0, 1]) == \
        [(0, 1), (1, 1), (1, 1, 1)]


def test_factor_rejects_nonmonic_and_constant():
    F = BaseField(3)
    with pytest.raises(ValueError):
        factor_polynomial(F, [1])
    with pytest.raises(ValueError):
        factor_polynomial(F, [0, 2])


def test_root_of_unity_deterministic():
    # the root zeta is fixed by the chosen factor f0 of Phi_n; both, and so
    # the traces, must not depend on the field instance, nor on the splits
    # run in between (the splitting candidates are drawn afresh per call)
    F = make_field(5)
    f0 = field._cyclotomic_factor(F, 8)
    factor_polynomial(F, [1, 0, 0, 0, 0, 0, 0, 0, 1])  # Phi_16 = x^8 + 1
    assert field._cyclotomic_factor(F, 8) == f0
    assert make_field(5).cyclotomic_traces(8) == make_field(5).cyclotomic_traces(8)
    # over F_4, Phi_27 has two factors that the Frobenius of F_2 swaps
    F = make_field(2, 2)
    f0 = field._cyclotomic_factor(F, 27)
    factor_polynomial(F, poly_trim([F.from_int(c) for c in field._int_cyclotomic(27)]))
    assert field._cyclotomic_factor(F, 27) == f0
    assert BaseField(2, 2).cyclotomic_traces(27) == BaseField(2, 2).cyclotomic_traces(27)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2)])
def test_ben_or_matches_rabin(p, a):
    """field.is_irreducible (Ben-Or, on the shared distinct-degree loop)
    against the reference Rabin test on every monic polynomial of degree
    1-4, squarefree or not: lex_least_irreducible feeds it both kinds."""
    F = BaseField(p, a)
    for s in range(1, 5):
        for coeffs in itertools.product(range(F.q), repeat=s):
            f = [*coeffs, F.one]
            assert field.is_irreducible(F, f) == is_irreducible(F, f), f


def test_tower_extension_cached():
    # the per-field trace memo replaces the extension cache: it starts
    # empty and hands back the same tuple on a repeated call
    F = BaseField(3)
    assert F._traces == {}
    tr = F.cyclotomic_traces(4)
    assert F.cyclotomic_traces(4) is tr
    assert F.cyclotomic_traces(1) is F.cyclotomic_traces(1)
    assert BaseField(3)._traces == {}
