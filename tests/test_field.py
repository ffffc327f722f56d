import itertools
import os
import random
import resource
import signal
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_table_reference,
    full_product,
    int_cyclotomic,
    is_irreducible_reference as is_irreducible,
)
from grpalg.algebra import ideal_dimension
from grpalg import field
from grpalg.errors import InternalInconsistency, NotPrime
from grpalg.field import (
    BaseField,
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
from grpalg.groups import FiniteGroup


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
    with pytest.raises(ValueError, match=r"^gcd\(6, 3\) != 1$"):
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


def schoolbook_rows(p, a, modulus, rows):
    """Rows i (first operands) of the product table of F_p[x]/(modulus) by
    schoolbook arithmetic on coefficient vectors, one row at a time."""
    q = p ** a
    D = np.array([[i // p ** k % p for k in range(a)] for i in range(q)])
    weights = p ** np.arange(a)
    mul = np.zeros((len(rows), q), dtype=np.int64)
    for r, i in enumerate(rows):
        prod = np.zeros((q, 2 * a - 1), dtype=np.int64)
        for u in range(a):
            prod[:, u:u + a] += D[i, u] * D
        for d in range(2 * a - 2, a - 1, -1):  # x^a = -(m_0 + ... + m_{a-1} x^{a-1})
            c = prod[:, d] % p
            for k in range(a):
                prod[:, d - a + k] -= c * modulus[k]
        mul[r] = prod[:, :a] % p @ weights
    return mul


def naive_tables(p, a, modulus):
    """add and mul tables of F_p[x]/(modulus) by schoolbook arithmetic on
    coefficient vectors."""
    q = p ** a
    D = np.array([[i // p ** k % p for k in range(a)] for i in range(q)])
    add = (D[:, None, :] + D[None, :, :]) % p @ p ** np.arange(a)
    return add, schoolbook_rows(p, a, modulus, range(q))


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
    build, 32 seeded random rows (all rows for q < 32) of the product table
    against the schoolbook product, and inv_np on every nonzero element,
    for every p^a <= MAX_BASE_ORDER with a >= 2 (BaseField, not the
    make_field cache, so no table outlives its case)."""
    F = BaseField(p, a)
    assert np.array_equal(F.add_np, add_table_reference(p, a))
    rows = random.Random(1000 * p + a).sample(range(F.q), min(32, F.q))
    assert np.array_equal(F.mul_np[rows], schoolbook_rows(p, a, F.modulus, rows))
    nonzero = np.arange(1, F.q)
    assert (F.mul_np[nonzero, F.inv_np[nonzero]] == 1).all()


def test_reducible_modulus_finds_no_generator(monkeypatch):
    """Under the reducible x^2 + 1 = (x + 1)^2 over F_2, the orbit of 1
    under x returns after 2 steps and the orbit under 1 + x runs into 0 and
    never returns, so BaseField raises instead of returning tables; an alarm
    fails the test if the walk does not stop."""
    def timeout(*_):
        raise TimeoutError("generator walk did not stop")

    monkeypatch.setattr(field, "lex_least_irreducible", lambda F, s: (1, 0, 1))
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(InternalInconsistency, match="no generator of F_4"):
            BaseField(2, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


TRACE_GRID = [(2, 1, 7), (2, 1, 21), (2, 1, 63), (3, 1, 13), (3, 1, 40),
              (5, 1, 1), (5, 1, 12), (7, 1, 19), (2, 2, 5), (2, 2, 9),
              (2, 2, 63), (2, 3, 9), (2, 3, 63), (3, 2, 5), (3, 2, 20),
              (3, 2, 56), (5, 2, 13), (5, 2, 24), (5, 2, 63)]


def cyclic_group(n):
    """Z_n from its Cayley table, element k standing for x^k."""
    i = np.arange(n)
    return FiniteGroup((i[:, None] + i) % n, name=f"Z{n}")


def trace_idempotent(F, tr):
    """e = n^-1·sum_k tr[k]·x^-k in F_q[Z_n], as a coefficient vector."""
    n = len(tr)
    return F.mul_np[F.inv(F.from_int(n)), np.array(tr, dtype=np.int16)[-np.arange(n) % n]]


def test_cyclotomic_traces_match_companion_matrix():
    """The traces characterize a primitive idempotent of the faithful part
    of F_q[Z_n]: e = n^-1·sum_k T[k]·x^-k is idempotent; it is annihilated
    by the sum over the subgroup of order l for every prime l | n, so it
    lies under the faithful characters, and so by Phi_n(x); and its ideal
    has dimension ord_n(q), the dimension of one faithful component
    F_q(zeta).  So e is the primitive idempotent of one <q>-orbit of
    faithful characters x -> zeta, and then T[k] = n·e[x^-k] = tr(zeta^k)."""
    for p, a, n in TRACE_GRID:
        F = make_field(p, a)
        G = cyclic_group(n)
        e = trace_idempotent(F, F.cyclotomic_traces(n))
        assert np.array_equal(full_product(G, F, e, e), e), (p, a, n)
        for ell in prime_factors(n):
            sub = np.zeros(n, dtype=np.int16)
            sub[::n // ell] = 1
            assert not full_product(G, F, sub, e).any(), (p, a, n, ell)
        phi = np.zeros(n, dtype=np.int16)  # Phi_n(x), reduced by x^n = 1
        for k, c in enumerate(int_cyclotomic(n)):
            phi[k % n] = F.add(phi[k % n], F.from_int(c))
        assert not full_product(G, F, phi, e).any(), (p, a, n)
        assert ideal_dimension(G, F, e) == mult_order(n, F.q), (p, a, n)
    with pytest.raises(ValueError, match=r"^gcd\(6, 3\) != 1$"):
        make_field(3).cyclotomic_traces(6)


def equal_up_to_unit(tr, other):
    """Whether tr[u·k mod n] = other[k] for every k, for some unit u mod n:
    the traces of another primitive n-th root of unity."""
    n = len(tr)
    return any(all(tr[u * k % n] == other[k] for k in range(n))
               for u in range(n) if gcd(u, n) == 1)


LIFT_AND_CRT_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1))


def test_trace_lift_rule():
    """If l² | n and ord_n(q) = l·ord_{n/l}(q), then, up to a unit,
    T_n[k] = l·T_{n/l}[k/l] when l | k and 0 otherwise: x^l - zeta^l is
    the minimal polynomial of zeta over F_q(zeta^l), so the trace from
    F_q(zeta) to F_q(zeta^l) of zeta^k is zeta^k·sum_i w^{ik} over the l-th
    roots of unity w."""
    checked = 0
    for p, a in LIFT_AND_CRT_FIELDS:
        F = make_field(p, a)
        for n in range(4, 100):
            for ell in prime_factors(n):
                if (gcd(n, F.q) != 1 or n % (ell * ell)
                        or mult_order(n, F.q) != ell * mult_order(n // ell, F.q)):
                    continue
                low = F.cyclotomic_traces(n // ell)
                lifted = [F.mul(F.from_int(ell), low[k // ell]) if k % ell == 0 else 0
                          for k in range(n)]
                assert equal_up_to_unit(F.cyclotomic_traces(n), lifted), (F.q, n, ell)
                checked += 1
    assert checked > 50


def test_trace_crt_rule():
    """If n = n1·n2 with gcd(n1, n2) = 1 and gcd(ord_{n1}(q), ord_{n2}(q)) = 1,
    then, up to a unit, T_n[k] = T_{n1}[u·k mod n1]·T_{n2}[v·k mod n2] with
    u = n2^-1 mod n1 and v = n1^-1 mod n2: zeta^k = zeta1^{uk}·zeta2^{vk}
    for zeta1 = zeta^{n2} and zeta2 = zeta^{n1}, and F_q(zeta) is the
    tensor product of F_q(zeta1) and F_q(zeta2), whose degrees are coprime,
    so the trace is the product of the two traces."""
    checked = 0
    for p, a in LIFT_AND_CRT_FIELDS:
        F = make_field(p, a)
        for n1 in range(2, 40):
            for n2 in range(n1 + 1, 40):
                if (gcd(n1, n2) != 1 or gcd(n1 * n2, F.q) != 1
                        or gcd(mult_order(n1, F.q), mult_order(n2, F.q)) != 1):
                    continue
                n, u, v = n1 * n2, pow(n2, -1, n1), pow(n1, -1, n2)
                t1, t2 = F.cyclotomic_traces(n1), F.cyclotomic_traces(n2)
                product = [F.mul(t1[u * k % n1], t2[v * k % n2]) for k in range(n)]
                assert equal_up_to_unit(F.cyclotomic_traces(n), product), (F.q, n1, n2)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("q, n", [(3, 512), (3, 2048), (3, 4093), (661, 660)])
def test_traces_at_the_order_cap(q, n):
    """Traces at the order cap over F_3, and at q = 1 (mod n), where each
    orbit of j -> qj is one point: n·e is idempotent up to the factor n
    (sum_j T[j]·T[k - j] = n·T[k]), lies under the faithful characters
    (sum_i T[k + i·n/l] = 0 for every prime l | n), is Frobenius-invariant
    and has T[0] = ord_n(q) mod q; for the powers of 2 the lift rule ties
    it to n/2."""
    F = BaseField(q)
    tr = np.array(F.cyclotomic_traces(n), dtype=np.int64)
    square = np.convolve(tr, tr)
    square[:n - 1] += square[n:]
    assert np.array_equal(square[:n] % q, n * tr % q)
    for ell in prime_factors(n):
        assert not (tr.reshape(ell, n // ell).sum(axis=0) % q).any(), ell
    assert np.array_equal(tr[np.arange(n) * q % n], tr)
    assert tr[0] == mult_order(n, q) % q
    if n in (512, 2048):
        low = F.cyclotomic_traces(n // 2)
        lifted = [2 * low[k // 2] % q if k % 2 == 0 else 0 for k in range(n)]
        assert equal_up_to_unit(tr.tolist(), lifted)


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
    assert int_cyclotomic(1) == [-1, 1]
    assert int_cyclotomic(6) == [1, -1, 1]
    assert int_cyclotomic(12) == [1, 0, -1, 0, 1]
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    phi105 = int_cyclotomic(105)
    assert len(phi105) - 1 == 48 and min(phi105) == -2
    # prod_{d | n} Phi_d = x^n - 1
    for n in (8, 30, 36, 63):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = int_cyclotomic(d)
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


def test_root_of_unity_deterministic():
    # the root zeta the traces belong to must not depend on the field
    # instance, nor on the traces computed on it before
    F = BaseField(5)
    F.cyclotomic_traces(16)
    assert F.cyclotomic_traces(8) == BaseField(5).cyclotomic_traces(8) \
        == make_field(5).cyclotomic_traces(8)
    # over F_4, the Frobenius of F_2 swaps the two factors of Phi_27
    F = BaseField(2, 2)
    F.cyclotomic_traces(81)
    assert F.cyclotomic_traces(27) == BaseField(2, 2).cyclotomic_traces(27)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2)])
def test_ben_or_matches_rabin(p, a):
    """field.is_irreducible (Ben-Or, on the shared distinct-degree loop)
    against the reference Rabin test on every monic polynomial of degree
    1-4, squarefree or not: lex_least_irreducible feeds it both kinds."""
    F = BaseField(p, a)
    for s in range(1, 5):
        for coeffs in itertools.product(range(F.q), repeat=s):
            f = [*coeffs, 1]
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
