import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BAD_TABLES,
    a4_group,
    conj,
    corpus_groups,
    d1_table_loop,
    elementary_abelian,
    full_associativity_witness,
    lattice,
    metacyclic_table_loop,
    random_loop,
    relabeled,
)
from grpalg import groups
from grpalg.errors import (
    BadPresentation,
    CapExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotMetabelian,
)
from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    associativity_witness,
    center,
    centralizer,
    class_index,
    conjugacy_classes,
    conjugate_subgroup,
    core,
    d1_group,
    d1_index,
    d2_group,
    derived_subgroup,
    format_cayley,
    generators,
    is_metabelian,
    is_normal,
    maximal_abelian_over_derived,
    metacyclic_group,
    normal_subgroups,
    normalizer,
    parse_cayley,
    subgroup_closure,
)

S3 = metacyclic_group(3, 2, 0, 2)
D8 = metacyclic_group(4, 2, 0, 3)
Q8 = d2_group(1)


def test_metacyclic_relations():
    # b^{-1} a b = a^r in every constructed group
    for (n, t, k, r) in [(3, 2, 0, 2), (4, 2, 0, 3), (9, 3, 0, 4),
                         (5, 4, 0, 2), (16, 4, 0, 3), (8, 2, 2, 5)]:
        G = metacyclic_group(n, t, k, r)
        a, b = t, 1  # index of a = 1*t + 0, index of b = 0*t + 1
        assert G.element_order(a) == n or n == 1
        assert conj(G, a, b) == G.power(a, r % n)
        # b^t = a^k
        assert G.power(b, t) == G.power(a, k % n)
        # elementwise over an array, and negative exponents through inverses
        xs = np.arange(G.order)
        assert G.power(xs, t).tolist() == [G.power(x, t) for x in range(G.order)]
        assert G.power(xs, -1).tolist() == G.inv_np.tolist()
        assert G.power(a, -2) == G.power(int(G.inv_np[a]), 2)


def test_bad_presentation():
    with pytest.raises(BadPresentation):
        metacyclic_group(5, 2, 0, 3)  # 3^2 = 4 != 1 mod 5
    with pytest.raises(BadPresentation):
        metacyclic_group(4, 2, 1, 3)  # k(r-1) = 2 != 0 mod 4


def test_known_orders():
    assert S3.order == 6 and D8.order == 8 and Q8.order == 8
    assert d1_group(2).order == 16 and d2_group(3).order == 32
    assert sorted(S3.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    assert sorted(Q8.element_order(g) for g in range(8)) == \
        [1, 2, 4, 4, 4, 4, 4, 4]


def test_table_validation_errors():
    with pytest.raises(NoIdentity):
        FiniteGroup([[1, 0], [0, 1]])
    # Z3 table with a corrupted entry: 0 stays identity, row 2 broken
    with pytest.raises((NotAssociative, NoInverse)):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]][:2] + [[2, 1, 0]])
    for table, error in BAD_TABLES.values():
        with pytest.raises(error):
            FiniteGroup(table)


@pytest.mark.parametrize("params", [
    (2, 3, 1, 1), (6, 1, 0, 1), (3, 2, 0, 2), (4, 2, 2, 3), (8, 2, 2, 5),
    (9, 3, 3, 4), (12, 2, 6, 5), (6, 2, 3, 1), (7, 3, 0, 2), (16, 4, 0, 3),
    (16, 4, 8, 5), (13, 3, 0, 3), (1, 5, 0, 0)])
def test_metacyclic_table_matches_loop(params):
    G = metacyclic_group(*params)
    assert G.m.dtype == np.int32
    assert G.m.tolist() == metacyclic_table_loop(*params)
    assert G.inv_np.tolist() == [row.index(0) for row in metacyclic_table_loop(*params)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_d1_and_d2_tables_match_loops(m):
    assert d1_group(m).m.tolist() == d1_table_loop(m)
    assert d2_group(m).m.tolist() == metacyclic_table_loop(1 << (m + 1), 2, 2, (1 << m) + 1)


@pytest.mark.parametrize("m", [1, 3])
def test_d2_group_is_built_and_checked_once(monkeypatch, m):
    real, calls = groups.associativity_witness, []

    def counted(table):
        calls.append(len(table))
        return real(table)

    monkeypatch.setattr(groups, "associativity_witness", counted)
    # past both constructor caches: a build from nothing
    monkeypatch.setattr(groups, "metacyclic_group", groups.metacyclic_group.__wrapped__)
    G = groups.d2_group.__wrapped__(m)
    assert calls == [1 << (m + 2)]
    M = metacyclic_group(1 << (m + 1), 2, 2, (1 << m) + 1)
    assert np.array_equal(G.m, M.m) and G.labels == M.labels
    assert (G.name, G.meta) == (f"D2({m})", {"family": "d2", "m": m,
                                             "params": M.meta["params"]})


def test_light_test_matches_full_check():
    """Light's test against the all-x check on seeded random normalized
    Latin squares of orders 4-12: random loops, relabeled group tables, and
    group tables with one 2x2 subsquare switched, which are nearly
    associative."""
    rng = random.Random(5)
    small = [metacyclic_group(*p) for p in [
        (4, 1, 0, 1), (2, 2, 0, 1), (3, 2, 0, 2), (6, 1, 0, 1), (4, 2, 0, 3),
        (4, 2, 2, 3), (8, 1, 0, 1), (3, 3, 0, 1), (5, 2, 0, 4), (6, 2, 0, 5),
        (3, 4, 0, 2), (6, 2, 3, 1)]] + [elementary_abelian(2, 3), a4_group()]
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        kind = rng.choice(["loop", "group", "switched"])
        if kind == "loop":
            m = random_loop(rng.randint(4, 12), rng)
        else:
            m = relabeled(rng.choice(small).m, rng)
        if kind == "switched":
            n = len(m)
            # 2x2 subsquares u v / v u away from the identity's row and column
            switches = [(r1, r2, c1, c2)
                        for r1 in range(1, n) for r2 in range(r1 + 1, n)
                        for c1 in range(1, n)
                        for c2 in np.flatnonzero(m[r1] == m[r2, c1])
                        if c2 > c1 and m[r2, c2] == m[r1, c1]]
            if not switches:
                continue
            r1, r2, c1, c2 = rng.choice(switches)
            u, v = m[r1, c1], m[r1, c2]
            m[r1, c1] = m[r2, c2] = v
            m[r1, c2] = m[r2, c1] = u
        got, want = associativity_witness(m), full_associativity_witness(m)
        assert (got is None) == (want is None)
        if got is not None:
            x, a, y = got
            assert m[m[x, a], y] != m[x, m[a, y]]
        outcomes[got is None] += 1
    assert min(outcomes.values()) >= 50, outcomes
    # Z_600 with the subsquare of rows 280, 580 and columns 5, 305 switched:
    # the first violation, (279*1)*5, lies past the first 256-row block
    m = metacyclic_group(600, 1, 0, 1).m.copy()
    m[[280, 580], 5], m[[280, 580], 305] = m[[280, 580], 305], m[[280, 580], 5]
    x, a, y = associativity_witness(m)
    assert x >= 256 and m[m[x, a], y] != m[x, m[a, y]]
    assert full_associativity_witness(m) is not None


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_generators_generate(G):
    """generators() of each normal subgroup generate it, at most log2|H| of
    them, and the normalizer over them matches the all-element test."""
    for H in normal_subgroups(G) + [subgroup_closure(G, [1])]:
        gens = generators(G.m, H.members)
        assert subgroup_closure(G, gens) == H
        assert 2 ** len(gens) <= H.order
        brute = [g for g in range(G.order)
                 if all(conj(G, h, g) in H for h in H.members)]
        assert normalizer(G, H).members == tuple(brute)


def test_subgroup_closure_and_lattice():
    subs = lattice(D8)
    assert len(subs) == 10
    assert len(normal_subgroups(D8)) == 6
    orders = sorted(H.order for H in subs)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    # closure of a reflection and the rotation is everything
    assert subgroup_closure(D8, [2, 1]).order == 8


@pytest.mark.parametrize(
    "G", corpus_groups() + [elementary_abelian(3, 3), elementary_abelian(3, 4)],
    ids=lambda G: G.name)
def test_normal_subgroups_match_lattice(G):
    brute = [H.members for H in lattice(G) if is_normal(G, H)]
    assert [N.members for N in normal_subgroups(G)] == brute


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_classes_and_derived_match_loops(G):
    t, inv = G.m.tolist(), G.inv_np.tolist()
    classes, seen = [], set()
    for g in range(G.order):
        if g not in seen:
            cls = tuple(sorted({conj(G, g, x) for x in range(G.order)}))
            seen |= set(cls)
            classes.append(cls)
    assert conjugacy_classes(G) == classes
    class_of = class_index(G)
    assert class_of.dtype == np.int32
    assert class_of.tolist() == [next(i for i, c in enumerate(classes) if g in c)
                                 for g in range(G.order)]
    comms = {t[t[t[inv[x]][inv[y]]][x]][y]
             for x in range(G.order) for y in range(G.order)}
    assert derived_subgroup(G) == subgroup_closure(G, comms)


def test_cap_exceeded(monkeypatch):
    # a fresh group, so that no cached list hides the cap
    G = FiniteGroup(metacyclic_group(16, 4, 0, 3).m)
    monkeypatch.setattr(groups, "SUBGROUP_CAP", 3)
    with pytest.raises(CapExceeded, match="more than 3 normal subgroups"):
        normal_subgroups(G)
    monkeypatch.undo()
    assert len(normal_subgroups(G)) > 3
    assert len(normal_subgroups(metacyclic_group(12, 1, 0, 1))) == 6  # divisors of 12


def test_center_derived_quotient():
    assert center(S3).order == 1
    assert center(D8).order == 2
    assert center(Q8).order == 2
    assert derived_subgroup(S3).order == 3
    assert derived_subgroup(D8).order == 2
    # D8/D8' is the Klein four group: index 4, every square lies in D8'
    dmem = derived_subgroup(D8).member_set
    assert D8.order // len(dmem) == 4
    assert all(D8.m[g, g] in dmem for g in range(D8.order))


def test_conjugacy_classes():
    sizes = sorted(len(c) for c in conjugacy_classes(S3))
    assert sizes == [1, 2, 3]
    assert sorted(len(c) for c in conjugacy_classes(Q8)) == [1, 1, 2, 2, 2]
    assert sorted(len(c) for c in conjugacy_classes(D8)) == [1, 1, 2, 2, 2]


def test_normalizer_centralizer_core():
    # <b> in S3 (order 2, index of b is 1)
    H = subgroup_closure(S3, [1])
    assert H.order == 2
    assert normalizer(S3, H).order == 2
    assert centralizer(S3, H).order == 2
    assert core(S3, H).order == 1
    N = subgroup_closure(S3, [2])  # <a>
    assert is_normal(S3, N)
    assert normalizer(S3, N).order == 6
    assert core(S3, N).members == N.members
    # core is the intersection of conjugates
    for G in (S3, D8, Q8):
        for H in lattice(G):
            C = core(G, H)
            assert is_normal(G, C)
            assert C.member_set <= H.member_set
            for g in range(G.order):
                assert C.member_set <= conjugate_subgroup(G, H, g).member_set


def test_metabelian_detection(s4):
    assert is_metabelian(S3) and is_metabelian(D8) and is_metabelian(Q8)
    assert is_metabelian(d1_group(3)) and is_metabelian(d2_group(2))
    assert not is_metabelian(s4)
    with pytest.raises(NotMetabelian):
        maximal_abelian_over_derived(s4, Subgroup(s4, (0,)))


def test_maximal_abelian_over_derived():
    A = maximal_abelian_over_derived(S3, Subgroup(S3, (0,)))
    assert A.order == 3  # <a>
    A8 = maximal_abelian_over_derived(D8, Subgroup(D8, (0,)))
    assert A8.order == 4
    dmem = derived_subgroup(D8).member_set
    assert dmem <= A8.member_set


def _commutes_mod(G, x, y, N):
    return int(G.m[conj(G, G.inv_np[y], x), y]) in N.member_set  # [x, y] in N


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_maximal_abelian_over_derived_is_maximal(G):
    """For every N, deterministic and random choices alike: A contains G'N,
    A/N is abelian, and no element outside A commutes with A modulo N."""
    rng = random.Random(7)
    for N in normal_subgroups(G):
        for choice in (None, rng, rng):
            A = maximal_abelian_over_derived(G, N, rng=choice)
            assert N.member_set | derived_subgroup(G).member_set <= A.member_set
            assert all(_commutes_mod(G, x, y, N)
                       for x in A.members for y in A.members)
            assert not any(all(_commutes_mod(G, g, a, N) for a in A.members)
                           for g in range(G.order) if g not in A)


def test_d1_structure():
    for m in (2, 3):
        G = d1_group(m)
        t = d1_index(m, 1, 0, 0)
        x = d1_index(m, 0, 1, 0)
        y = d1_index(m, 0, 0, 1)
        assert G.element_order(t) == 1 << m
        assert G.element_order(x) == 2 and G.element_order(y) == 2
        assert G.m[t, x] == G.m[x, t]  # t central against x
        # yx = xy * t^{2^{m-1}}
        z = d1_index(m, 1 << (m - 1), 0, 0)
        assert G.m[y, x] == G.m[G.m[x, y], z]
        assert derived_subgroup(G).members == (0, z) or \
            derived_subgroup(G).members == tuple(sorted((0, z)))


def test_q8_is_d2_1():
    # <a, b | a^4, b^2 = a^2, b^{-1}ab = a^3> is the quaternion group
    assert Q8.meta["params"] == (4, 2, 2, 3)
    assert sum(1 for g in range(8) if Q8.element_order(g) == 2) == 1


def test_cayley_roundtrip():
    text = format_cayley(S3)
    G = parse_cayley(text)
    assert np.array_equal(G.m, S3.m)
    assert G.labels == S3.labels


def test_cayley_parse_errors():
    with pytest.raises(ValueError):
        parse_cayley("order two\n")
    with pytest.raises(ValueError):
        parse_cayley("order 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_cayley("order 2\n0 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_cayley("order 2\n0 1\n1 0\nlabel 5 z\n")
    # comments and blank lines are fine
    G = parse_cayley("# Z2\norder 2\n\n0 1\n1 0\nlabel 1 g\n")
    assert G.order == 2 and G.labels[1] == "g"


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(1, 4))
def test_cyclic_and_abelian_metacyclic(n, t):
    G = metacyclic_group(n, t, 0, 1)  # Z_n x Z_t
    assert G.order == n * t
    assert derived_subgroup(G).order == 1
    assert center(G).order == n * t
