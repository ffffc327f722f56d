import itertools

import pytest

from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    d1_group,
    d2_group,
    metacyclic_group,
    subgroup_closure,
)

PRIMES = (3, 5, 7, 11, 13)

METACYCLIC_TUPLES = [
    (4, 2, 0, 3), (5, 4, 0, 2), (7, 3, 0, 2),
    (9, 3, 0, 4), (8, 2, 0, 3), (16, 4, 0, 3),
]


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
