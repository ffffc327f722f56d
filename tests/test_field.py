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

from conftest import (
    add_table_reference,
    full_product,
    int_cyclotomic,
    irreducibles_reference,
    monic_polynomials,
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
    prime_factors,
)
from grpalg.groups import FiniteGroup


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
    # oracle: sieve out the products of lower-degree monics, take the lex-least
    assert BaseField(2, 2).modulus == min(irreducibles_reference(2, 2))
    assert BaseField(2, 2).modulus == (1, 1, 1)          # x^2 + x + 1
    assert BaseField(3, 2).modulus == min(irreducibles_reference(3, 2))
    assert BaseField(3, 2).modulus == (1, 0, 1)          # x^2 + 1
    assert lex_least_irreducible(2, 3) == min(irreducibles_reference(2, 3))


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, a):
    """Every field axiom on every element, pair and triple, read on the
    tables: x, y, z broadcast over the q elements."""
    F = BaseField(p, a)
    add, mul = F.add_np, F.mul_np
    x = np.arange(F.q)
    assert (add[x, 0] == x).all() and (mul[x, 1] == x).all()
    assert (add[x, F.neg_np[x]] == 0).all()
    assert (mul[x[1:], F.inv_np[x[1:]]] == 1).all()
    assert all(F.inv(i) == F.inv_np[i] for i in x[1:])
    assert (add == add.T).all() and (mul == mul.T).all()
    y, z = x[:, None], x[:, None, None]
    assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all()
    assert (add[x, add[y, z]] == add[add[x, y], z]).all()


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
    # negatives and inverses, checked against the naive tables as well
    els = range(F.q)
    assert all(add[i, F.neg_np[i]] == 0 for i in els)
    assert all(mul[i, F.inv(i)] == 1 and F.inv_np[i] == F.inv(i) for i in els[1:])


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


# The modulus of every F_{p^a} with a >= 2 under the order cap, low degree
# first: it fixes the index of every element, and so every printed
# coefficient of an idempotent over F_{p^a}
MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1), (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1), (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1), (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1), (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1), (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (7, 2): (1, 0, 1), (7, 3): (1, 0, 1, 1), (7, 4): (1, 0, 0, 1, 1),
    (11, 2): (1, 0, 1), (11, 3): (1, 0, 4, 1), (13, 2): (1, 3, 1), (13, 3): (1, 0, 4, 1),
    (17, 2): (1, 1, 1), (19, 2): (1, 0, 1), (23, 2): (1, 0, 1), (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1), (37, 2): (1, 3, 1), (41, 2): (1, 1, 1), (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1), (53, 2): (1, 1, 1), (59, 2): (1, 0, 1), (61, 2): (1, 5, 1),
}


def test_every_modulus_is_pinned():
    """The modulus of each of the 40 fields F_{p^a}, a >= 2, p^a <= 4096,
    is the pinned one, and for p^a <= 729 it is the lex-least polynomial
    the sieve leaves.  BaseField, not the make_field cache, so no q x q
    table outlives its field."""
    assert sorted(MODULI) == sorted(PRIME_POWERS_TO_4096)
    for (p, a), modulus in MODULI.items():
        assert BaseField(p, a).modulus == modulus, (p, a)
        if p ** a <= 729:
            assert min(irreducibles_reference(p, a)) == modulus, (p, a)


def test_reducible_modulus_finds_no_generator(monkeypatch):
    """Under the reducible x^2 + 1 = (x + 1)^2 over F_2, the orbit of 1
    under x returns after 2 steps and the orbit under 1 + x runs into 0 and
    never returns, so BaseField raises instead of returning tables; an alarm
    fails the test if the walk does not stop."""
    def timeout(*_):
        raise TimeoutError("generator walk did not stop")

    monkeypatch.setattr(field, "lex_least_irreducible", lambda p, s: (1, 0, 1))
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
            phi[k % n] = F.add_np[phi[k % n], F.from_int(c)]
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
                lifted = [F.mul_np[F.from_int(ell), low[k // ell]] if k % ell == 0 else 0
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
                product = [F.mul_np[t1[u * k % n1], t2[v * k % n2]] for k in range(n)]
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


@pytest.mark.parametrize("p,top", [(2, 6), (3, 6), (5, 4)])
def test_ben_or_matches_sieve(p, top):
    """field.is_irreducible (Ben-Or) against the sieve on every monic
    polynomial over F_p of degree 1 to top, squarefree or not:
    lex_least_irreducible feeds it both kinds."""
    for s in range(1, top + 1):
        irreducible = irreducibles_reference(p, s)
        for f in monic_polynomials(p, s):
            assert field.is_irreducible(p, f) == (f in irreducible), f


def test_tower_extension_cached():
    # the per-field trace memo replaces the extension cache: it starts
    # empty and hands back the same tuple on a repeated call
    F = BaseField(3)
    assert F._traces == {}
    tr = F.cyclotomic_traces(4)
    assert F.cyclotomic_traces(4) is tr
    assert F.cyclotomic_traces(1) is F.cyclotomic_traces(1)
    assert BaseField(3)._traces == {}
