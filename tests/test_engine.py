import dataclasses
import random
from math import gcd

import numpy as np
import pytest

from conftest import (
    ALL_METACYCLIC,
    PRIMES,
    CyclotomicCoset,
    basis_vector,
    conjugate_in_g,
    conjugate_subgroup,
    core,
    corpus_groups,
    coset_orbits_reference,
    direct_product,
    elementary_abelian,
    full_product,
    generator_cosets,
    is_central,
    is_idempotent,
    lattice,
    normal_subgroups,
    normalizer,
    random_metabelian_groups,
    relabeled,
    shoda_triples_reference,
    validate_reference,
)
from grpalg import groups, idempotents, metacyclic
from grpalg.algebra import AlgebraElement, ideal_dimension, to_str
from grpalg.errors import (
    InternalInconsistency,
    InvariantViolation,
    NotMetabelian,
    NotSemisimple,
)
from grpalg.field import BaseField, make_field
from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    d2_group,
    generators,
    maximal_abelian_over_derived,
    metacyclic_group,
    subgroup_closure,
)
from grpalg.idempotents import (
    Triple,
    _characters,
    _kernel_conjugates,
    _validate,
    coset_orbits,
    cyclic_quotient_data,
    d_classes,
    decompose,
    ec_idempotent,
    epsilon_idempotent,
    shoda_triples,
    summarize,
    triple_components,
)
from grpalg.metacyclic import (
    MetacyclicParams,
    metacyclic_decompose,
    normal_triples,
    o_v,
    triple_subgroup,
    x_classes,
    x_triples,
)
from grpalg.oracle import q_class_count

S3 = metacyclic_group(3, 2, 0, 2)
D8 = metacyclic_group(4, 2, 0, 3)
Q8 = d2_group(1)


def test_generator_cosets():
    assert generator_cosets(1, 5) == [CyclotomicCoset(1, (0,))]
    # mod 8 under multiplication by 3: {1,3} and {5,7}
    cs = generator_cosets(8, 3)
    assert [c.members for c in cs] == [(1, 3), (5, 7)]
    # mod 3 under 5: single coset {1,2}
    assert [c.members for c in generator_cosets(3, 5)] == [(1, 2)]
    # q = 1 mod n: singletons
    assert len(generator_cosets(8, 17)) == 4


def test_cyclic_quotient_data():
    K = subgroup_closure(S3, [2])  # <a>
    H = Subgroup(S3, (0,))
    n, gen, e = cyclic_quotient_data(S3, K, H)
    assert n == 3 and gen == 2
    assert e[0] == 0 and e[2] == 1 and e[4] == 2
    # whole group over <a>: order-2 quotient generated by b
    n2, gen2, e2 = cyclic_quotient_data(S3, Subgroup(S3, range(6)), K)
    assert n2 == 2 and e2[gen2] == 1
    assert {g for g in range(6) if e2[g] == 0} == {0, 2, 4}
    # Z_2^2 over the identity: order 4, but no element of order 4
    V4 = elementary_abelian(2, 2)
    with pytest.raises(InternalInconsistency):
        cyclic_quotient_data(V4, Subgroup(V4, range(4)), Subgroup(V4, (0,)))


@pytest.mark.parametrize("G", corpus_groups() + [elementary_abelian(3, 3)],
                         ids=lambda G: G.name)
def test_d_classes_match_lattice_filter(G):
    """The character kernels kept for each N are the lattice filter
    N <= D <= A, A/D cyclic, core_G(D) = N, split into G-conjugacy classes."""
    subs = lattice(G)
    for N in normal_subgroups(G):
        A = maximal_abelian_over_derived(G, N)
        classes = d_classes(G, N, A, _kernel_conjugates(G, N, A))
        want = sorted(D.members.tolist() for D in subs
                      if set(N.members.tolist()) <= set(D.members.tolist())
                      <= set(A.members.tolist())
                      and np.array_equal(core(G, D).members, N.members)
                      and any(np.array_equal(
                          subgroup_closure(G, D.members.tolist() + [a]).members, A.members)
                          for a in A.members.tolist()))
        assert sorted(D.members.tolist() for cls in classes for D in cls) == want
        for cls in classes:
            assert {tuple(D.members.tolist()) for D in cls} == {
                tuple(conjugate_subgroup(G, cls[0], g).members.tolist())
                for g in range(G.order)}


def relabeled_metacyclic(params, seed):
    G = metacyclic_group(*params)
    return FiniteGroup(relabeled(G.m, random.Random(seed))[0], name=f"{G.name}~")


TRIPLE_GROUPS = (corpus_groups()
                 + [elementary_abelian(3, 3), elementary_abelian(3, 4),
                    # the pair of N = 1 yields 4 of the 7 N in its closure
                    direct_product(S3, metacyclic_group(2, 1, 0, 1), "S3xZ2"),
                    # b^t = a^k != 1: not direct products
                    relabeled_metacyclic((8, 2, 4, 3), 1),
                    relabeled_metacyclic((9, 3, 3, 4), 2)]
                 + random_metabelian_groups(12, seed=2011)
                 # the closure builds 41 pairs on each, where two rounds of
                 # cores with a commutator filter between them built 38
                 + [random_metabelian_groups(40, seed=7)[i] for i in (7, 16, 21)])


@pytest.mark.parametrize("G", TRIPLE_GROUPS, ids=lambda G: G.name)
def test_shoda_triples_match_lattice_reference(G):
    """The triples found from character kernels are those found by
    running over every normal subgroup, in the same order."""
    def members(triples):
        return [(t.N.members.tolist(), t.D.members.tolist(), t.A.members.tolist())
                for t in triples]

    assert members(shoda_triples(G)) == members(shoda_triples_reference(G))


@pytest.mark.parametrize("G", TRIPLE_GROUPS, ids=lambda G: G.name)
def test_shoda_triples_build_each_pair_once(G, monkeypatch):
    """Each (N, A_N) pair's character kernels are built once, and serve
    both the cores found from it and its D-classes."""
    calls = []

    def counting(G, N, A):
        calls.append((tuple(N.members.tolist()), tuple(A.members.tolist())))
        return kernel_conjugates(G, N, A)

    kernel_conjugates = idempotents._kernel_conjugates
    monkeypatch.setattr(idempotents, "_kernel_conjugates", counting)
    shoda_triples(FiniteGroup(G.m, name=G.name))  # a fresh, uncached copy
    assert calls and len(calls) == len(set(calls))


def xor_group(k):
    """Z_2^k from the numpy table i ^ j."""
    i = np.arange(1 << k, dtype=np.int32)
    return FiniteGroup(i[:, None] ^ i, name=f"Z2^{k}xor")


@pytest.mark.parametrize(
    "G", [FiniteGroup(relabeled(G.m, random.Random(seed))[0], name=f"{G.name}~")
          for seed, G in enumerate(corpus_groups())] + [xor_group(4), xor_group(9)],
    ids=lambda G: G.name)
def test_shoda_triples_sorted_by_member_ints(G):
    """shoda_triples comes out in the order of (|N|, N, |D|, D), the
    subgroups compared as tuples of ints, so Triple.key's bytes must sort
    as those do; the descriptors, and so the witnesses, follow this order.
    Z_2^4 and Z_2^9 have many N of one order, and on Z_2^9 bytes of
    another byte order would sort members 255 and 256 the other way.
    Every members array is int32, strictly increasing and read-only."""
    triples = shoda_triples(G)
    ints = [(t.N.order, tuple(t.N.members.tolist()), t.D.order, tuple(t.D.members.tolist()))
            for t in triples]
    assert len(set(ints)) == len(ints) > 1
    assert ints == sorted(ints)
    for H in {H for t in triples for H in (t.N, t.D, t.A)}:
        assert H.members.dtype == np.int32
        assert (np.diff(H.members) > 0).all()
        assert not H.members.flags.writeable
        with pytest.raises(ValueError):
            H.members[0] = H.members[0]


@pytest.mark.parametrize(
    "tup", ALL_METACYCLIC + [None],
    ids=lambda t: "Z_3^4" if t is None else "M(%d,%d,%d,%d)" % t)
def test_one_conjugation_table_per_subgroup(tup, monkeypatch):
    """On one fresh group object, the engine over two q and the fast path
    (or, for Z_3^4, the engine) compute the transversal of each subgroup
    once: _kernel_conjugates, coset_orbits and ec_idempotent all read the
    one conjugation_table per A cached on the group."""
    calls = []

    def counting(G, H):
        calls.append((id(G), tuple(H.members.tolist())))
        return transversal(G, H)

    transversal = groups.transversal
    monkeypatch.setattr(groups, "transversal", counting)
    if tup is None:
        G = elementary_abelian(3, 4)
        decompose(G, make_field(2))
    else:
        G = metacyclic_group.__wrapped__(*tup)  # past the constructor's lru cache
        monkeypatch.setattr(MetacyclicParams, "group", lambda params: G)
        qs = [q for q in PRIMES if G.order % q][:2]
        for q in qs:
            decompose(G, make_field(q))
        metacyclic_decompose(MetacyclicParams(*tup), make_field(qs[0]))
    assert len(calls) == len(set(calls))
    assert {(id(G), tuple(tr.A.members.tolist())) for tr in shoda_triples(G)} <= set(calls)


def test_characters_are_int32():
    """_characters builds its table in int32.  On the cyclic Z_512, with
    N = 1 and A = G, so [A:N] = 512, its 512 rows are distinct
    homomorphisms to Z/512 (checked on generators, against every element),
    and the triples are (D, D, G), one per subgroup D."""
    G = metacyclic_group(512, 1, 0, 1)
    elems, values = _characters(G, Subgroup(G, (0,)), Subgroup(G, range(512)))
    assert values.dtype == np.int32 and values.shape == (512, 512)
    assert len({row.tobytes() for row in values}) == 512
    pos = np.empty(G.order, dtype=np.int64)
    pos[elems] = np.arange(elems.size)
    for g in generators(G.m, range(G.order)):
        assert np.array_equal(values[:, pos[G.m[g, elems]]],
                              (values[:, [pos[g]]] + values) % 512)
    assert [(tr.N.order, tr.D.order, tr.A.order) for tr in shoda_triples(G)] \
        == [(d, d, 512) for d in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)]
    assert all(tr.N == tr.D for tr in shoda_triples(G))


def test_z3_5_decomposes():
    """Z_3^5 has 2664 normal subgroups and 122 q-classes over F_2."""
    G = elementary_abelian(3, 5)
    _, descriptors = decompose(G, make_field(2))
    assert len(descriptors) == 122 == q_class_count(G, 2)


def test_shoda_triples_s3():
    trs = shoda_triples(S3)
    # (N, D, A) with orders: (1, 1, <a>), (<a>, <a>, G), (G, G, G)
    got = [(t.N.order, t.D.order, t.A.order) for t in trs]
    assert got == [(1, 1, 3), (3, 3, 6), (6, 6, 6)]


def test_shoda_triples_d8_count():
    trs = shoda_triples(D8)
    # one triple per simple component of F_q[D8] for splitting q: 4 linear
    # (from the four index-2-or-less quotients) + 1 two-dimensional
    assert len(trs) == 5
    assert sorted(D8.order // t.A.order for t in trs) == [1, 1, 1, 1, 2]


def test_epsilon_hand_value_s3_f5():
    # epsilon for K = <a>, H = 1, C = 1·<5> = {1,2}: 3^{-1} sum tr(zeta^e(g)) g^{-1}
    # tr: F_25 -> F_5, tr(1) = 2, tr(zeta) = tr(zeta^2) = -1 = 4
    # => 2*(2 + 4a + 4a^2) = 4 + 3a + 3a^2
    F5 = make_field(5)
    K = subgroup_closure(S3, [2])
    H = Subgroup(S3, (0,))
    eps = epsilon_idempotent(S3, F5, K, H, 1)
    assert list(eps) == [4, 0, 3, 0, 3, 0]
    assert is_idempotent(S3, F5, eps)
    # it is already central in F_5[S3]: e_C = epsilon here
    _, ind = coset_orbits(S3, K, H, 5)
    assert np.array_equal(ec_idempotent(S3, F5, K, H, 1, ind), eps)
    # over F_7 the coset C = {1} is not -C, and a * eps = zeta * eps pins
    # the g^{-1} in the sum: with g it would be zeta^{-1} * eps
    F7 = make_field(7)
    eps7 = epsilon_idempotent(S3, F7, K, H, 1)
    zeta = F7.cyclotomic_traces(3)[1]
    assert np.array_equal(full_product(S3, F7, basis_vector(S3, 2), eps7),
                          F7.mul_np[zeta, eps7])


def ec_idempotent_reference(G, F, K, H, j):
    """The sum of the distinct conjugates x^-1·epsilon·x over all of G, each
    a product with basis elements: its coefficient vector."""
    eps = epsilon_idempotent(G, F, K, H, j)
    seen = set()
    total = np.zeros(G.order, dtype=np.int16)
    for x in range(G.order):
        left = full_product(G, F, basis_vector(G, int(G.inv_np[x])), eps)
        c = full_product(G, F, left, basis_vector(G, x))
        if tuple(c) not in seen:
            seen.add(tuple(c))
            total = F.add_np[total, c]
    return total


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_ec_idempotent_matches_all_conjugate_sum(G):
    """The sum of the distinct rows of the conjugation table equals the
    deduplicated sum over all of G, for the engine's triples and the fast
    path's (K, H), two fields per group."""
    for q in [q for q in PRIMES if G.order % q][:2]:
        F = make_field(q)
        for tr in shoda_triples(G):
            js, ind = coset_orbits(G, tr.A, tr.D, q)
            for j in js:
                assert np.array_equal(ec_idempotent(G, F, tr.A, tr.D, j, ind),
                                      ec_idempotent_reference(G, F, tr.A, tr.D, j))
        if "params" in G.meta:
            params = MetacyclicParams(*G.meta["params"])
            _, descriptors = metacyclic_decompose(params, F)
            for dsc in descriptors:  # over params.group(), the parent of each triple
                assert np.array_equal(dsc.idempotent.coeffs, ec_idempotent_reference(
                    dsc.triple.A.parent, F, dsc.triple.A, dsc.triple.D, dsc.j))


def coset_orbits_expected(G, K, H, q):
    """(js, [E:K]) from the loop reference's (js, E)."""
    js, E = coset_orbits_reference(G, K, H, q)
    return js, E.order // K.order


@pytest.mark.parametrize("case", ["S3", "M(8,2,0,3)"])
def test_ec_idempotent_checks_the_stabilizer_both_ways(case):
    """ec_idempotent raises InternalInconsistency, naming the count of
    distinct conjugates and [G:K]/ind, for an ind = [E:K] too small or too
    large, and with the true ind it is the sum of the distinct conjugates.
    Over F_5, for K = <a> and H = 1: in S_3 the idempotent is central and
    E = G (ind 2); in M(8,2,0,3) b moves it and E = K (ind 1), so no ind
    is too small there, and ind = 2 claims a stabilizer the idempotent does
    not have."""
    G = S3 if case == "S3" else metacyclic_group(8, 2, 0, 3)
    F = make_field(5)
    K = subgroup_closure(G, [2])  # <a>
    H = Subgroup(G, (0,))
    distinct, ind = {"S3": (1, 2), "M(8,2,0,3)": (2, 1)}[case]
    assert coset_orbits(G, K, H, 5) == ([1], ind) == coset_orbits_expected(G, K, H, 5)
    assert np.array_equal(ec_idempotent(G, F, K, H, 1, ind),
                          ec_idempotent_reference(G, F, K, H, 1))
    for wrong in sorted({ind - 1, ind + 1} - {0}):
        with pytest.raises(InternalInconsistency,
                           match=rf"^{distinct} distinct conjugates .*= 2/{wrong}:"):
            ec_idempotent(G, F, K, H, 1, wrong)


def test_coset_orbit_stabilizer_s3():
    K = subgroup_closure(S3, [2])
    H = Subgroup(S3, (0,))
    js, ind = coset_orbits(S3, K, H, 5)
    # conjugation by b maps C -> 2C = C, so everything is stable: E = G
    assert (js, ind) == ([1], 2) == coset_orbits_expected(S3, K, H, 5)
    # q = 7: cosets mod 3 are {1} and {2}; b swaps them, so only K = <a>
    # stabilizes and the two cosets form one orbit
    js7, ind7 = coset_orbits(S3, K, H, 7)
    assert (js7, ind7) == ([1], 1) == coset_orbits_expected(S3, K, H, 7)


def test_coset_orbits_hand_case_m8():
    """M(8,2,0,3) = <a, b | a^8, b^2, b^-1 a b = a^3>, K = <a>, H = 1, q = 5:
    <5> = {1, 5} and m(N_G(H)) = {1, 3} are both nontrivial, and
    M = <5>·{1, 3} is every unit mod 8, so the cosets {1, 5} and {3, 7}
    form one orbit with least unit 1.  E = {g : m(g) in <5>} = <a>, as b
    acts by 3.  The component is M_2(F_{5^l}) with l = ord_8(5)/[E:A] = 2."""
    G = metacyclic_group(8, 2, 0, 3)
    K = subgroup_closure(G, [2])  # <a>
    H = Subgroup(G, (0,))
    assert K.order == 8
    assert coset_orbits(G, K, H, 5) == ([1], 1) == coset_orbits_expected(G, K, H, 5)
    [dsc] = triple_components(G, make_field(5), Triple(N=H, D=H, A=K))
    assert (dsc.d, dsc.l, dsc.j) == (2, 2, 1)


def _coset_cases(source):
    """(G, K, H) for the engine's triples of a group, or for the (K, H)
    pairs metacyclic_decompose passes to coset_orbits for a presentation."""
    if not isinstance(source, tuple):
        yield from ((source, tr.A, tr.D) for tr in shoda_triples(source))
        return
    params = MetacyclicParams(*source)
    G = params.group()
    for v, i, c in normal_triples(params):
        ov = o_v(params, v)
        K = triple_subgroup(G, params, 1, 0, ov)
        for alpha, beta in x_classes(params, v, i, c):
            yield G, K, triple_subgroup(G, params, v, alpha, beta * ov)


@pytest.mark.parametrize(
    "source", corpus_groups() + ALL_METACYCLIC,
    ids=lambda s: f"fast{s}" if isinstance(s, tuple) else s.name)
def test_coset_orbits_match_reference(source):
    """coset_orbits, read off the conjugation table, gives the loop
    reference's js and [E:K] on the engine's triples of a corpus group or
    the fast path's (K, H) pairs of a presentation, for every coprime q."""
    for G, K, H in _coset_cases(source):
        for q in (2, 3, 4, 5, 7, 9):
            if gcd(q, G.order) != 1:
                continue
            assert coset_orbits(G, K, H, q) == coset_orbits_expected(G, K, H, q)


def test_coset_choice_independence():
    """Every generator coset C gives, through ec_idempotent, the idempotent
    of its orbit under N_G(H), and distinct orbits distinct idempotents: so
    coset_orbits' least coset per orbit is no choice at all.  Exhaustive
    over the engine's triples of the corpus and the fast path's (K, H)
    pairs of every presentation, over two coprime q each."""
    cases = 0
    for source in corpus_groups() + ALL_METACYCLIC:
        for G, K, H in _coset_cases(source):
            n, gen, e = cyclic_quotient_data(G, K, H)
            mults = {int(e[G.m[G.m[G.inv_np[g], gen], g]])
                     for g in normalizer(G, H).members}
            for q in [q for q in (2, 3, 5, 7, 11) if gcd(q, G.order) == 1][:2]:
                F = make_field(q)
                js, ind = coset_orbits(G, K, H, q)
                key = {C: ec_idempotent(G, F, K, H, C.rep, ind).tobytes()
                       for C in generator_cosets(n, q)}
                for C in key:  # the m·C, m over a group, are the orbit of C
                    orbit = {CyclotomicCoset(n, tuple(sorted(m * u % n
                                                             for u in C.members)))
                             for m in mults}
                    assert {key[D] for D in orbit} == {key[C]}
                assert len(set(key.values())) == len(js)
                cases += 1
    assert cases > 200


def test_coset_orbits_cached_per_class_mod_n():
    """coset_orbits gives q and q + n one cached (js, ind), q + n adding no
    cache entry; a q' in another class mod n gets the loop reference's own
    answer; and a caller that mutates the returned js does not reach the
    cache."""
    others = 0
    for source in corpus_groups() + ALL_METACYCLIC:
        for G, K, H in _coset_cases(source):
            n = K.order // H.order
            for q in (q for q in (2, 3, 5, 7) if gcd(q, n) == 1):
                js, ind = coset_orbits(G, K, H, q)
                js.append(-1)
                cached = len(G._cache)
                got = coset_orbits(G, K, H, q + n)
                assert len(G._cache) == cached
                assert got == coset_orbits_expected(G, K, H, q)
                units = [u for u in range(n) if gcd(u, n) == 1 and u != q % n]
                if units:
                    assert coset_orbits(G, K, H, units[0]) == \
                        coset_orbits_expected(G, K, H, units[0])
                    others += 1
    assert others > 100


# q = p^a in {2, 3, 4, 5, 7, 8, 9, 11, 13}, as (p, a)
CACHE_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1))


def _shared_groups():
    """One object per corpus group and per ALL_METACYCLIC presentation, with
    the paths that run on it: the engine always, and the fast path when
    params.group() is that object."""
    out = {}
    for G in corpus_groups() + [MetacyclicParams(*t).group() for t in ALL_METACYCLIC]:
        fast = "params" in G.meta and MetacyclicParams(*G.meta["params"]).group() is G
        out[id(G)] = G, ("engine", "fast") if fast else ("engine",)
    return list(out.values())


def _components(path, G, F):
    """(d, l, j, triple key, idempotent coefficients) of each component,
    in the order the path returns them."""
    _, descriptors = (decompose(G, F) if path == "engine" else
                      metacyclic_decompose(MetacyclicParams(*G.meta["params"]), F))
    return [(dsc.d, dsc.l, dsc.j, dsc.triple.key(), dsc.idempotent.coeffs.tolist())
            for dsc in descriptors]


@pytest.mark.parametrize("shared", _shared_groups(), ids=lambda s: s[0].name)
def test_group_caches_match_fresh_groups(shared, monkeypatch):
    """One group object serves both paths over every coprime q of CACHE_FIELDS,
    in a seeded shuffled order of (q, path), so each run finds what the
    runs before it left in G._cache; each result equals, component by
    component, the one from a fresh group object and a fresh field, built
    past the lru caches of the constructors."""
    G, paths = shared
    runs = [(pa, path) for pa in CACHE_FIELDS if G.order % pa[0] for path in paths]
    random.Random(G.order).shuffle(runs)
    warm = [_components(path, G, make_field(*pa)) for pa, path in runs]
    monkeypatch.setattr(metacyclic, "metacyclic_group", metacyclic_group.__wrapped__)
    for (pa, path), got in zip(runs, warm):
        fresh = FiniteGroup(G.m, labels=G.labels, name=G.name, meta=G.meta)
        assert got == _components(path, fresh, make_field.__wrapped__(*pa))


@pytest.mark.parametrize("tup", [(3, 6, 0, 2), (4, 4, 2, 3), (4, 8, 0, 3)],
                         ids=lambda t: f"M{t}")
def test_fast_path_class_choice_independence(tup):
    """Every member (alpha, beta) of a class that x_classes groups gives the
    same triple_components idempotents as the least member it keeps.  These
    presentations have classes of two members; none in ALL_METACYCLIC has."""
    params = MetacyclicParams(*tup)
    G = params.group()
    moved = 0
    for q in [q for q in PRIMES if params.order % q][:2]:
        F = make_field(q)
        for v, i, c in normal_triples(params):
            ov = o_v(params, v)
            K = triple_subgroup(G, params, 1, 0, ov)
            N = triple_subgroup(G, params, v, i, c)

            def keys(alpha, beta):
                H = triple_subgroup(G, params, v, alpha, beta * ov)
                return sorted(d.idempotent.key()
                              for d in triple_components(G, F, Triple(N=N, D=H, A=K)))

            reps = x_classes(params, v, i, c)
            for alpha, beta in x_triples(params, v, i, c):
                rep, = [(a, b) for a, b in reps
                        if conjugate_in_g(params, v, alpha, beta, a, b)]
                if rep != (alpha, beta):
                    moved += 1
                    assert keys(alpha, beta) == keys(*rep)
    assert moved


def frozen(G, q):
    s, _ = decompose(G, make_field(q))
    return s.components


def test_frozen_decompositions():
    # every value independently confirmed by the center-splitting oracle
    assert frozen(S3, 5) == {(1, 1): 2, (2, 1): 1}
    assert frozen(S3, 7) == {(1, 1): 2, (2, 1): 1}
    assert frozen(D8, 3) == {(1, 1): 4, (2, 1): 1}
    assert frozen(Q8, 3) == {(1, 1): 4, (2, 1): 1}
    assert frozen(metacyclic_group(12, 1, 0, 1), 13) == {(1, 1): 12}
    assert frozen(metacyclic_group(5, 4, 0, 2), 3) == \
        {(1, 1): 2, (1, 2): 1, (4, 1): 1}
    assert frozen(metacyclic_group(16, 4, 0, 3), 5) == \
        {(1, 1): 8, (2, 1): 2, (2, 2): 2, (4, 2): 1}


def test_a4_decomposition(a4):
    # F_5[A4] = F_5 + F_25 + M_3(F_5): dims 1 + 2 + 9 = 12
    assert frozen(a4, 5) == {(1, 1): 1, (1, 2): 1, (3, 1): 1}
    # q = 7 = 1 mod 3 splits the cube roots: three linear components
    assert frozen(a4, 7) == {(1, 1): 3, (3, 1): 1}


def test_decompose_over_extension_base_field():
    # F_9[G] for G of order 20; 9 = 3^2
    G = metacyclic_group(5, 4, 0, 2)
    s, d = decompose(G, make_field(3, 2))
    assert s.dimension() == 20
    assert sum(x.idempotent.coeffs.any() for x in d) == len(d)
    # ord_5(9) = 2, halved vs F_3 splitting behavior for the faithful part
    assert s.components == {(1, 1): 4, (4, 1): 1}


def test_validation_runs_and_passes():
    s, d = decompose(D8, make_field(5))
    F = make_field(5)
    for x in d:
        assert is_idempotent(D8, F, x.idempotent.coeffs)
        assert is_central(D8, x.idempotent.coeffs)
    total = F.sum_rows([x.idempotent.coeffs for x in d])
    assert np.array_equal(total, basis_vector(D8, 0))


def test_decompose_refuses_to_skip_validation():
    with pytest.raises(ValueError):
        decompose(D8, make_field(5), validate=False)


@pytest.mark.parametrize("entry", ["decompose", "metacyclic_decompose"])
def test_library_entry_points_validate(entry, monkeypatch):
    """The engine and the fast path both run _validate: with 2e in place of
    the first idempotent e, each raises InvariantViolation("idempotent").
    The fast path reaches ec_idempotent through triple_components."""
    real = idempotents.ec_idempotent
    calls = []
    F = make_field(5)

    def double_first(*args):
        e = real(*args)
        calls.append(e)
        if len(calls) > 1:
            return e
        return F.mul_np[2, e]

    monkeypatch.setattr(idempotents, "ec_idempotent", double_first)
    with pytest.raises(InvariantViolation) as raised:
        if entry == "decompose":
            decompose(S3, F)
        else:
            metacyclic_decompose(MetacyclicParams(3, 2, 0, 2), F)
    assert calls
    assert raised.value.invariant == "idempotent"
    assert raised.value.witness == {"component": 0}


def _corrupted(invariant, monkeypatch):
    """Descriptors of F_5[S3], dimensions [4, 1, 1], with one fault by hand
    that only the named invariant catches, and the witness it must carry.
    With ranks checked against d²l, a sum other than 1 passes every earlier
    check only if a rank is wrong: for sum_to_one, ds[1] claims l = 2 and
    every rank reads 2."""
    F = make_field(5)
    _, ds = decompose(S3, F)
    e0, e1 = ds[0].idempotent.coeffs, ds[1].idempotent.coeffs
    e0_plus_e1 = F.add_np[e0, e1]

    def with_e0(coeffs):
        e = AlgebraElement(np.array(coeffs, dtype=np.int16))
        return [dataclasses.replace(ds[0], idempotent=e)] + ds[1:]

    cases = {
        "dimension_sum": (ds[1:], {"got": 2, "expected": 6}),
        "nonzero": (with_e0([0] * 6), {"component": 0}),
        "idempotent": (with_e0(F.mul_np[2, e0]), {"component": 0}),
        # (1 + b)/2, b = index 1
        "central": (with_e0([3, 3, 0, 0, 0, 0]), {"component": 0}),
        "ideal_dimension": (with_e0(e0_plus_e1),
                            {"component": 0, "got": ds[0].dim + ds[1].dim,
                             "expected": ds[0].dim}),
        "orthogonal": ([ds[1], ds[1], ds[0]], {"components": (0, 1)}),
        "sum_to_one": ([ds[0], dataclasses.replace(ds[1], l=2)],
                       {"sum": to_str(S3, F, e0_plus_e1)}),
    }
    if invariant == "sum_to_one":
        monkeypatch.setattr(idempotents, "ideal_dimension", lambda G, F, c: 2)
    return F, cases[invariant]


def _verdict(check, G, F, descriptors):
    """(invariant, witness) of the InvariantViolation check raises, or None."""
    try:
        check(G, F, descriptors)
    except InvariantViolation as exc:
        return exc.invariant, exc.witness
    return None


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_validate_matches_full_loop_reference(G):
    """_validate, which skips the pairwise loop when the idempotents sum to
    1, gives the verdict and witness of the full loop on corrupted
    decompositions of G over two corpus primes."""
    for q in [p for p in PRIMES if G.order % p][:2]:
        F = make_field(q)
        _, ds = decompose(G, F)
        first, last = ds[0], ds[-1]
        e_first, e_last = first.idempotent.coeffs, last.idempotent.coeffs
        e_merged = AlgebraElement(F.add_np[e_first, e_last])
        merged = dataclasses.replace(first, d=1, l=first.dim + last.dim, idempotent=e_merged)
        cases = {
            "intact": ds,
            "duplicated": [last] + ds,
            # q more copies add 0 to the sum but break the dimension count
            "duplicated q-fold": ds + [first] * q,
            "dropped": ds[1:],
            "merged": [merged] + ds[1:-1],
            "scaled": [dataclasses.replace(
                first, idempotent=AlgebraElement(F.mul_np[2, e_first]))] + ds[1:],
        }
        # one component replaced by a copy of another of the same dimension:
        # the dimensions still add up to |G|, the sum is no longer 1
        same = [(i, j) for i in range(len(ds)) for j in range(i + 1, len(ds))
                if ds[i].dim == ds[j].dim]
        if same:
            i, j = same[0]
            cases["replaced"] = ds[:j] + [ds[i]] + ds[j + 1:]
        outside = [g for g in range(G.order)
                   if (G.m[g] != G.m[:, g]).any()]  # not central
        if outside:
            x = np.zeros(G.order, dtype=np.int16)
            x[outside[0]] = 1
            cases["non-central"] = ds[:-1] + [dataclasses.replace(
                last, idempotent=AlgebraElement(x))]
        # the component over half of |G| moved second, which leaves the
        # decomposition intact; then e_j → −e_j and e_big → e_big + 2e_j
        # keep the sum 1 and every rank, so only e_big's product catches
        # them: for odd q neither is idempotent, and the full loop names
        # the earlier of the two
        big = [dsc for dsc in ds if 2 * dsc.dim > G.order]
        flips = {}
        if big and q % 2 and len(ds) > 2:
            others = [dsc for dsc in ds if dsc is not big[0]]
            cases["reordered"] = reordered = [others[0], big[0]] + others[1:]
            for j, where in ((0, "before"), (len(ds) - 1, "after")):
                e_j = reordered[j].idempotent.coeffs
                flipped = list(reordered)
                flipped[j] = dataclasses.replace(
                    reordered[j], idempotent=AlgebraElement(F.neg_np[e_j]))
                flipped[1] = dataclasses.replace(big[0], idempotent=AlgebraElement(
                    F.add_np[big[0].idempotent.coeffs, F.mul_np[2, e_j]]))
                cases[f"sign-flip {where}"] = flipped
                flips[f"sign-flip {where}"] = ("idempotent", {"component": min(j, 1)})
        for name, descriptors in cases.items():
            want = _verdict(validate_reference, G, F, descriptors)
            assert _verdict(_validate, G, F, descriptors) == want, (q, name)
            assert (want is None) == (name in ("intact", "merged", "reordered")), (q, name)
            assert want == flips.get(name, want), (q, name)


def test_summarize_names_corruptions_of_random_groups():
    """summarize raises the invariant each corruption breaks, with its
    witness, on seeded random groups over each q in {2, 3, 5, 7} coprime to
    |G|:
      - zeroing the last nonzero coefficient of component i, at g, leaves e
        non-central if the class of g has more than one element (`central`),
        and central but not idempotent if g is central (`idempotent`);
      - swapping the idempotents of two components whose ideals differ in
        dimension d^2·l gives `ideal_dimension` at the first of them;
      - dropping the last component or repeating the first leaves the
        dimensions summing to other than |G| (`dimension_sum`)."""
    seen = set()
    for G in random_metabelian_groups(12, seed=5):
        for q in [q for q in (2, 3, 5, 7) if G.order % q]:
            F = make_field(q)
            _, ds = decompose(G, F)
            cases = []
            for i, dsc in enumerate(ds):
                e = dsc.idempotent.coeffs.copy()
                g = np.flatnonzero(e)[-1]
                e[g] = 0
                zeroed = dataclasses.replace(dsc, idempotent=AlgebraElement(e))
                central = (G.m[g] == G.m[:, g]).all()
                cases.append((ds[:i] + [zeroed] + ds[i + 1:],
                              "idempotent" if central else "central", {"component": i}))
            pairs = [(i, j) for i in range(len(ds)) for j in range(i + 1, len(ds))
                     if ds[i].dim != ds[j].dim]
            if pairs:
                i, j = pairs[0]
                swapped = list(ds)
                swapped[i] = dataclasses.replace(ds[i], idempotent=ds[j].idempotent)
                swapped[j] = dataclasses.replace(ds[j], idempotent=ds[i].idempotent)
                cases.append((swapped, "ideal_dimension", {
                    "component": i, "got": ds[j].dim, "expected": ds[i].dim}))
            cases.append((ds[:-1], "dimension_sum",
                          {"got": G.order - ds[-1].dim, "expected": G.order}))
            cases.append((ds + ds[:1], "dimension_sum",
                          {"got": G.order + ds[0].dim, "expected": G.order}))
            for descriptors, invariant, witness in cases:
                with pytest.raises(InvariantViolation) as raised:
                    summarize(G, F, descriptors)
                assert (raised.value.invariant, raised.value.witness) == \
                    (invariant, witness), (G.name, q)
                seen.add(invariant)
    assert seen == {"central", "idempotent", "ideal_dimension", "dimension_sum"}


def test_complement_rank_needs_its_product():
    """(e0 + 2e1, 4e1, e2) over F_5[S3], e0 the component of dimension 4:
    the direct ranks of the last two, the complement rank
    |G| − dim F_q[G](1 − e) of the first and the sum all read as for
    (e0, e1, e2), yet the first two are not idempotent (the direct rank of
    the first is 5).  So _validate keeps the product e·e of a component
    over half of |G|, and names component 0 as the full loop does."""
    F = make_field(5)
    _, ds = decompose(S3, F)
    assert [dsc.dim for dsc in ds] == [4, 1, 1]
    e0, e1, e2 = (dsc.idempotent.coeffs for dsc in ds)
    f0, f1 = F.add_np[e0, F.mul_np[2, e1]], F.mul_np[4, e1]
    rest = F.neg_np[f0]
    rest[0] = F.add_np[1, rest[0]]
    assert S3.order - ideal_dimension(S3, F, rest) == 4
    assert ideal_dimension(S3, F, f1) == ideal_dimension(S3, F, e2) == 1
    assert ideal_dimension(S3, F, f0) == 5
    assert np.array_equal(F.sum_rows([f0, f1, e2]), basis_vector(S3, 0))
    assert not is_idempotent(S3, F, f0) and not is_idempotent(S3, F, f1)
    corrupted = [dataclasses.replace(dsc, idempotent=AlgebraElement(f))
                 for dsc, f in zip(ds, (f0, f1, e2))]
    want = ("idempotent", {"component": 0})
    assert _verdict(validate_reference, S3, F, corrupted) == want
    assert _verdict(_validate, S3, F, corrupted) == want


def test_intact_decomposition_costs_at_most_one_product(monkeypatch):
    """The ranks, their sum and the sum of the idempotents certify an
    intact decomposition (Cochran's theorem, _validate's docstring): it
    takes one product e·e, for the component over half of |G| when there
    is one, and none otherwise, as for all 41 components of Z_3^4/F_2.
    Over every corpus group and two primes."""
    calls = []
    product = idempotents._central_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(idempotents, "_central_product", counted)
    cases = [(G, q) for G in corpus_groups() for q in [p for p in PRIMES if G.order % p][:2]]
    for G, q in cases + [(elementary_abelian(3, 4), 2)]:
        calls.clear()
        _, ds = decompose(G, make_field(q))
        assert len(calls) == any(2 * dsc.dim > G.order for dsc in ds), (G.name, q)
    assert len(ds) == 41 and calls == []


@pytest.mark.parametrize("invariant", ["dimension_sum", "nonzero", "idempotent",
                                       "central", "ideal_dimension", "orthogonal",
                                       "sum_to_one"])
def test_validate_names_each_violated_invariant(invariant, monkeypatch):
    F, (descriptors, witness) = _corrupted(invariant, monkeypatch)
    with pytest.raises(InvariantViolation) as exc:
        _validate(S3, F, descriptors)
    assert exc.value.invariant == invariant
    assert exc.value.witness == witness


def test_not_semisimple_and_not_metabelian(s4):
    with pytest.raises(NotSemisimple):
        decompose(S3, make_field(3))
    with pytest.raises(NotSemisimple):
        decompose(D8, make_field(2))
    with pytest.raises(NotMetabelian):
        decompose(s4, make_field(5))


def test_summary_format():
    s, _ = decompose(Q8, make_field(3))
    assert s.format() == "F_3^(4) + M_2(F_3)"
    s2, _ = decompose(metacyclic_group(5, 4, 0, 2), make_field(3))
    assert s2.format() == "F_3^(2) + F_3^2 + M_4(F_3)"


def test_trace_factor_choice_independence(monkeypatch):
    """The idempotent set and summary do not depend on which primitive n-th
    root of unity zeta the cyclotomic traces belong to (criterion 9 style:
    read the traces at u·k for a random unit u mod n, which are those of
    zeta^u, drawn once per field object and n, as the trace memo is kept,
    over two fields per corpus group).  A unit outside <q> gives a zeta in
    another orbit."""
    rng = random.Random(1311)
    picked_other = 0
    traces, chosen = BaseField.cyclotomic_traces, {}

    def another_root(F, n):
        nonlocal picked_other
        if (F, n) not in chosen:
            tr = traces(F, n)
            u = rng.choice([u for u in range(n) if gcd(u, n) == 1])
            picked_other += u not in {pow(F.q, i, n) for i in range(n)}
            chosen[F, n] = tuple(tr[u * k % n] for k in range(n))
        return chosen[F, n]

    for G in corpus_groups():
        for q in [p for p in PRIMES if G.order % p][:2]:
            base_summary, base = decompose(G, BaseField(q))
            base_set = sorted(d.idempotent.key() for d in base)
            with monkeypatch.context() as m:
                m.setattr(BaseField, "cyclotomic_traces", another_root)
                for _ in range(2):
                    summary, descs = decompose(G, BaseField(q))
                    assert summary.components == base_summary.components
                    assert sorted(d.idempotent.key() for d in descs) == base_set, \
                        (G.name, q)
    assert picked_other > 0
