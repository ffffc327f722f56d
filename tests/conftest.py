import itertools
from math import gcd

import numpy as np
import pytest

from grpalg.algebra import GroupAlgebra
from grpalg.errors import NoIdentity, NoInverse, NotAssociative, NotSemisimple
from grpalg.field import (
    factor_polynomial,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_trim,
)
from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    d1_group,
    d2_group,
    metacyclic_group,
    normalizer,
    subgroup_closure,
)
from grpalg.idempotents import cyclic_quotient_data, generator_cosets
from grpalg.oracle import _poly_inverse_mod

PRIMES = (3, 5, 7, 11, 13)

# Tables that break the group axioms, with the error FiniteGroup raises.
# The order-5 loop has identity 0 and x*x = 0 for every x, but no group of
# order 5 is all involutions.
BAD_TABLES = {
    "ragged": ([[0, 1], [1]], ValueError),
    "out_of_range": ([[0, 1], [1, 2]], ValueError),
    "negative": ([[0, 1], [1, -1]], ValueError),
    "no_identity": ([[1, 0], [0, 1]], NoIdentity),
    "no_inverse": ([[0, 1, 2], [1, 1, 1], [2, 1, 1]], NoInverse),
    "one_sided_inverse": ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], NoInverse),
    "non_associative": ([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]], NotAssociative),
}

METACYCLIC_TUPLES = [
    (4, 2, 0, 3), (5, 4, 0, 2), (7, 3, 0, 2),
    (9, 3, 0, 4), (8, 2, 0, 3), (16, 4, 0, 3),
]

# the corpus presentations plus d2_group(m), m = 1..4, as (n, t, k, r)
ALL_METACYCLIC = METACYCLIC_TUPLES + [(1 << (m + 1), 2, 2, (1 << m) + 1)
                                      for m in (1, 2, 3, 4)]


def perm_group(perms, name):
    """Group from a list of permutation tuples (identity must sort first)."""
    ident = tuple(range(len(perms[0])))
    perms = sorted(set(perms), key=lambda p: (p != ident, p))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms[0])
    table = [[idx[tuple(p[r[i]] for i in range(n))] for r in perms]
             for p in perms]
    return FiniteGroup(table, name=name)


def a4_group():
    perms = [p for p in itertools.permutations(range(4))
             if sum(1 for i in range(4) for j in range(i) if p[j] > p[i]) % 2 == 0]
    return perm_group(perms, "A4")


def s4_group():
    return perm_group(list(itertools.permutations(range(4))), "S4")


def elementary_abelian(p, k):
    """Z_p^k from its Cayley table, elements in lexicographic digit order."""
    digits = list(itertools.product(range(p), repeat=k))
    idx = {d: i for i, d in enumerate(digits)}
    table = [[idx[tuple((x + y) % p for x, y in zip(a, b))] for b in digits]
             for a in digits]
    return FiniteGroup(table, name=f"Z{p}^{k}")


def lattice(G):
    """Every subgroup of G by brute force, sorted by (order, members): the
    closure of the cyclic subgroups under joins with one cyclic subgroup
    at a time.  A reference for the engine's lattice-free enumerations."""
    cyclic = {}
    for g in range(G.order):
        cyclic.setdefault(subgroup_closure(G, [g]).member_set, g)
    found = {frozenset((0,)): []}
    frontier = list(found)
    while frontier:
        nxt = []
        for mem in frontier:
            for cm, g in cyclic.items():
                if cm <= mem:
                    continue
                J = subgroup_closure(G, found[mem] + [g]).member_set
                if J not in found:
                    found[J] = found[mem] + [g]
                    nxt.append(J)
        frontier = nxt
    return sorted((Subgroup(G, m) for m in found), key=lambda H: (H.order, H.members))


# ---------------------------------------------------------------------------
# Loop references for the array kernels of grpalg.groups and grpalg.algebra
# ---------------------------------------------------------------------------

def conj(G, g, x):
    """x^-1 g x, read from G.m entry by entry."""
    return int(G.m[G.m[G.inv_np[x], g], x])


def full_associativity_witness(m):
    """The first (x, y, z) with (x*y)*z != x*(y*z), checking every x: the
    reference for Light's test."""
    for x in range(len(m)):
        lhs = m[m[x]]      # lhs[y, z] = (x*y)*z
        rhs = m[x][m]      # rhs[y, z] = x*(y*z)
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return x, y, z
    return None


def coset_orbits_reference(G, K, H, q, rng=None):
    """coset_orbits by closure loops: each orbit grown by BFS under the set
    of multipliers, and the stabilizer of each coset found element by
    element.  The reference for the one-gather coset_orbits."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    cosets = generator_cosets(n, q)
    NH = normalizer(G, H)
    NK = normalizer(G, K)
    acting = sorted(NH.member_set & NK.member_set)
    mults = set()
    for g in acting:
        x = conj(G, gen, g)
        assert x in K.member_set
        mults.add(int(e[x]))
    by_members = {c.members: c for c in cosets}
    orbits = []
    seen = set()
    for c in cosets:
        if c.members in seen:
            continue
        orbit = {c.members}
        frontier = [c.members]
        while frontier:
            nf = []
            for mem in frontier:
                for m in mults:
                    img = tuple(sorted((m * u) % n for u in mem))
                    if img not in orbit:
                        orbit.add(img)
                        nf.append(img)
            frontier = nf
        seen |= orbit
        orbits.append(sorted(orbit))
    E_members = None
    for c in cosets:
        stab = [g for g in acting
                if tuple(sorted(int(e[conj(G, gen, g)]) * u % n for u in c.members))
                == c.members]
        assert E_members is None or E_members == stab
        E_members = stab
    reps = []
    for orbit in orbits:
        if rng is None:
            pick = min(orbit, key=lambda mem: min(mem))
        else:
            pick = orbit[rng.randrange(len(orbit))]
        reps.append(by_members[pick])
    reps.sort(key=lambda c: c.rep)
    return reps, Subgroup(G, E_members)


def convolution_reference(A, x, y):
    """The coefficients of x·y in A = F_q[G] by the definition: for every
    pair (g, k), the scalar x[g]·y[k] is added to the coefficient of g·k."""
    F, G = A.field, A.group
    out = [0] * G.order
    for g in range(G.order):
        for k in range(G.order):
            h = int(G.m[g, k])
            out[h] = F.add(out[h], F.mul(int(x[g]), int(y[k])))
    return np.array(out, dtype=np.int16)


def add_table_reference(p, a):
    """The addition table of F_{p^a}, indices i = sum c_k p^k, built digit
    by digit: four q x q int16 passes for each of the a digits."""
    q = p ** a
    idx = np.arange(q, dtype=np.int16)
    add = np.zeros((q, q), dtype=np.int16)
    for k in range(a):
        digit = idx // p ** k % p
        add += (digit[:, None] + digit[None, :]) % p * p ** k
    return add


def rank_reference(F, rows):
    """Rank over F_q by Gauss-Jordan elimination one row at a time."""
    rows = rows.copy()
    nr, nc = rows.shape
    add, mul, neg, inv = F.add_np, F.mul_np, F.neg_np, F.inv_np
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r, col]:
                piv = r
                break
        if piv is None:
            continue
        rows[[rank, piv]] = rows[[piv, rank]]
        pr = mul[inv[rows[rank, col]], rows[rank]]
        for r in range(nr):
            if r != rank and rows[r, col]:
                rows[r] = add[rows[r], neg[mul[rows[r, col], pr]]]
        rows[rank] = pr
        rank += 1
        if rank == nr:
            break
    return rank


def metacyclic_table_loop(n, t, k, r):
    """The table of metacyclic_group(n, t, k, r), entry by entry."""
    r %= n
    k %= n
    rinv = pow(r, -1, n) if n > 1 else 0
    ripow = [pow(rinv, j, n) if n > 1 else 0 for j in range(t)]
    table = [[0] * (n * t) for _ in range(n * t)]
    for i1 in range(n):
        for j1 in range(t):
            row = table[i1 * t + j1]
            for i2 in range(n):
                for j2 in range(t):
                    j = j1 + j2
                    i = (i1 + i2 * ripow[j1] + k * (j // t)) % n
                    row[i2 * t + j2] = i * t + (j % t)
    return table


def d1_table_loop(m):
    """The table of d1_group(m), entry by entry."""
    n = 1 << m
    half = n >> 1
    table = [[0] * (4 * n) for _ in range(4 * n)]
    for c1, e1, f1 in itertools.product(range(n), range(2), range(2)):
        row = table[c1 * 4 + e1 * 2 + f1]
        for c2, e2, f2 in itertools.product(range(n), range(2), range(2)):
            c = (c1 + c2 + f1 * e2 * half) % n
            row[c2 * 4 + e2 * 2 + f2] = c * 4 + ((e1 + e2) % 2) * 2 + (f1 + f2) % 2
    return table


def random_loop(n, rng):
    """A random Latin square of order n (rows drawn one at a time as random
    perfect matchings of columns to unused symbols), normalized so that
    row 0 and column 0 read 0, 1, ..., n-1."""
    rows = []
    for _ in range(n):
        free = [set(range(n)) - {row[c] for row in rows} for c in range(n)]
        col_of = {}  # symbol -> column

        def augment(c, seen):
            syms = list(free[c])
            rng.shuffle(syms)
            for s in syms:
                if s not in seen:
                    seen.add(s)
                    if s not in col_of or augment(col_of[s], seen):
                        col_of[s] = c
                        return True
            return False

        for c in rng.sample(range(n), n):
            augment(c, set())
        row = [0] * n
        for s, c in col_of.items():
            row[c] = s
        rows.append(row)
    L = np.array(rows)
    L = L[:, np.argsort(L[0])]      # row 0 becomes the identity
    return L[np.argsort(L[:, 0])]   # column 0 becomes the identity


def relabeled(m, rng):
    """m with its non-identity elements relabeled at random."""
    perm = np.array([0] + rng.sample(range(1, len(m)), len(m) - 1))
    out = np.empty_like(m)
    out[np.ix_(perm, perm)] = perm[m]
    return out


# ---------------------------------------------------------------------------
# The oracle in |G| coordinates: the reference for grpalg.oracle.center_split
# ---------------------------------------------------------------------------

def class_sums(A):
    """The conjugacy-class sums of A = F_q[G], in class order."""
    out = []
    for cls in conjugacy_classes(A.group):
        c = np.zeros(A.group.order, dtype=np.int16)
        c[list(cls)] = 1
        out.append(A.element(c))
    return out


def _minimal_polynomial_reference(A, z, e):
    """Minimal polynomial of multiplication by z on A·e, by Gauss-Jordan over
    the powers [e, ze, z²e, ...] in |G| coordinates; also returns the powers."""
    F = A.field
    nmax = A.group.order + 1
    powers = [e]
    basis = {}  # pivot column -> (reduced row, combo over power indices)
    deg = 0
    while True:
        v = powers[-1].coeffs.copy()
        combo = np.zeros(nmax, dtype=np.int16)
        combo[deg] = 1
        for piv, (br, bc) in basis.items():
            c = int(v[piv])
            if c:
                v = F.add_np[v, F.neg_np[F.mul_np[c, br]]]
                combo = F.add_np[combo, F.neg_np[F.mul_np[c, bc]]]
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return poly_trim([int(c) for c in combo]), powers
        piv = int(nz[0])
        inv = F.inv(int(v[piv]))
        v = F.mul_np[inv, v]
        combo = F.mul_np[inv, combo]
        for p2, (br, bc) in list(basis.items()):
            c = int(br[piv])
            if c:
                basis[p2] = (F.add_np[br, F.neg_np[F.mul_np[c, v]]],
                             F.add_np[bc, F.neg_np[F.mul_np[c, combo]]])
        basis[piv] = (v, combo)
        powers.append(powers[-1] * z)
        deg += 1


def center_split_reference(G, F):
    """center_split computed in the full |G|-dimensional algebra, every
    power an AlgebraElement product."""
    if gcd(F.q, G.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {G.order}) != 1")
    A = GroupAlgebra(G, F)
    blocks = [A.one()]
    for z in class_sums(A):
        refined = []
        for e in blocks:
            mp, powers = _minimal_polynomial_reference(A, z, e)
            mp = poly_scale(F, F.inv(mp[-1]), mp)
            try:
                factors = factor_polynomial(F, mp)
            except ValueError:
                raise NotSemisimple(
                    "class sum has a repeated minimal-polynomial factor") from None
            if len(factors) == 1:
                refined.append(e)
                continue
            for h in factors:
                comp = poly_divmod(F, mp, list(h))[0]
                inv = _poly_inverse_mod(F, poly_mod(F, comp, list(h)), list(h))
                acc = A.zero()
                for i, c in enumerate(poly_mod(F, poly_mul(F, comp, inv), mp)):
                    if c:
                        acc = acc + powers[i].scale(c)
                refined.append(acc)
        blocks = refined
    return sorted(blocks, key=lambda e: e.key())


def corpus_groups():
    out = [
        metacyclic_group(3, 2, 0, 2),   # S3
        metacyclic_group(4, 2, 0, 3),   # D8
        d2_group(1),                    # Q8
        a4_group(),
        metacyclic_group(12, 1, 0, 1),  # Z_12
    ]
    out += [metacyclic_group(*t) for t in METACYCLIC_TUPLES]
    for m in (2, 3, 4):
        out.append(d1_group(m))
        out.append(d2_group(m))
    return out


def corpus_grid():
    for G in corpus_groups():
        for q in PRIMES:
            if G.order % q:
                yield G, q


@pytest.fixture(scope="session")
def a4():
    return a4_group()


@pytest.fixture(scope="session")
def s4():
    return s4_group()
