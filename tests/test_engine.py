import dataclasses
import random
from math import gcd

import pytest

from conftest import (
    ALL_METACYCLIC,
    PRIMES,
    corpus_groups,
    coset_orbits_reference,
    elementary_abelian,
    lattice,
)
from grpalg import field
from grpalg.algebra import GroupAlgebra
from grpalg.errors import (
    InternalInconsistency,
    InvariantViolation,
    NotMetabelian,
    NotSemisimple,
)
from grpalg.field import BaseField, factor_polynomial, make_field, poly_trim
from grpalg.groups import (
    Subgroup,
    conjugate_subgroup,
    core,
    d2_group,
    maximal_abelian_over_derived,
    metacyclic_group,
    normal_subgroups,
    subgroup_closure,
)
from grpalg.idempotents import (
    CyclotomicCoset,
    WedderburnSummary,
    _validate,
    coset_orbits,
    cyclic_quotient_data,
    d_classes,
    decompose,
    ec_idempotent,
    epsilon_idempotent,
    generator_cosets,
    shoda_triples,
)
from grpalg.metacyclic import (
    MetacyclicParams,
    g_ov_subgroup,
    metacyclic_decompose,
    normal_triples,
    o_v,
    params_of,
    triple_subgroup,
    x_classes,
)

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


@pytest.mark.parametrize("G", corpus_groups() + [elementary_abelian(3, 3)],
                         ids=lambda G: G.name)
def test_d_classes_match_lattice_filter(G):
    """The character kernels kept for each N are the lattice filter
    N <= D <= A, A/D cyclic, core_G(D) = N, split into G-conjugacy classes."""
    subs = lattice(G)
    for N in normal_subgroups(G):
        A = maximal_abelian_over_derived(G, N)
        classes = d_classes(G, N, A)
        want = sorted(D.members for D in subs
                      if N <= D <= A and core(G, D).members == N.members
                      and any(subgroup_closure(G, D.members + (a,)).members
                              == A.members for a in A.members))
        assert sorted(D.members for cls in classes for D in cls) == want
        for cls in classes:
            assert {D.members for D in cls} == {
                conjugate_subgroup(G, cls[0], g).members for g in range(G.order)}


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
    # epsilon for K = <a>, H = 1, C = {1,2}: 3^{-1} sum tr(zeta^e(g)) g^{-1}
    # tr: F_25 -> F_5, tr(1) = 2, tr(zeta) = tr(zeta^2) = -1 = 4
    # => 2*(2 + 4a + 4a^2) = 4 + 3a + 3a^2
    A = GroupAlgebra(S3, make_field(5))
    K = subgroup_closure(S3, [2])
    H = Subgroup(S3, (0,))
    C = generator_cosets(3, 5)[0]
    eps = epsilon_idempotent(A, K, H, C)
    assert list(eps.coeffs) == [4, 0, 3, 0, 3, 0]
    assert eps.is_idempotent()
    # it is already central in F_5[S3]: e_C = epsilon here
    _, E = coset_orbits(S3, K, H, 5)
    e = ec_idempotent(A, K, H, C, E)
    assert e.key() == eps.key()
    # over F_7 the coset C = {1} is not -C, and a * eps = zeta * eps pins
    # the g^{-1} in the sum: with g it would be zeta^{-1} * eps
    A7 = GroupAlgebra(S3, make_field(7))
    eps7 = epsilon_idempotent(A7, K, H, generator_cosets(3, 7)[0])
    zeta = make_field(7).cyclotomic_traces(3)[1]
    assert A7.basis(2) * eps7 == eps7.scale(zeta)


def ec_idempotent_reference(A, K, H, C):
    """The sum of the distinct conjugates x^-1·epsilon·x over all of G, each
    a product with basis elements."""
    eps = epsilon_idempotent(A, K, H, C)
    seen = set()
    total = A.zero()
    for x in range(A.group.order):
        c = A.basis(int(A.group.inv_np[x])) * eps * A.basis(x)
        if c.key() not in seen:
            seen.add(c.key())
            total = total + c
    return total


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_ec_idempotent_matches_all_conjugate_sum(G):
    """The sum over a transversal of E equals the deduplicated sum over all
    of G, for the engine's triples and the fast path's (K, H), two fields
    per group."""
    for q in [q for q in PRIMES if G.order % q][:2]:
        A = GroupAlgebra(G, make_field(q))
        for tr in shoda_triples(G):
            reps, E = coset_orbits(G, tr.A, tr.D, q)
            for C in reps:
                assert ec_idempotent(A, tr.A, tr.D, C, E) == \
                    ec_idempotent_reference(A, tr.A, tr.D, C)
        if "params" in G.meta:
            _, descriptors = metacyclic_decompose(params_of(G), make_field(q))
            for dsc in descriptors:  # in the algebra of params_of(G).group()
                assert dsc.idempotent == ec_idempotent_reference(
                    dsc.idempotent.algebra, dsc.triple.A, dsc.triple.D, dsc.coset)


def test_ec_idempotent_repeated_conjugate_raises():
    # E = G centralizes epsilon here; a smaller E repeats a conjugate
    A = GroupAlgebra(S3, make_field(5))
    K = subgroup_closure(S3, [2])
    H = Subgroup(S3, (0,))
    C = generator_cosets(3, 5)[0]
    with pytest.raises(InternalInconsistency, match="repeats another"):
        ec_idempotent(A, K, H, C, K)


def test_ec_idempotent_names_the_first_repeating_conjugate():
    # epsilon is central, so over the trivial E every conjugate repeats the
    # first; the witness is the first transversal element that repeats
    A = GroupAlgebra(S3, make_field(5))
    K = subgroup_closure(S3, [2])
    C = generator_cosets(3, 5)[0]
    with pytest.raises(InternalInconsistency, match="^conjugate by 1 repeats another"):
        ec_idempotent(A, K, Subgroup(S3, (0,)), C, Subgroup(S3, (0,)))


def test_coset_orbit_stabilizer_s3():
    K = subgroup_closure(S3, [2])
    H = Subgroup(S3, (0,))
    reps, E = coset_orbits(S3, K, H, 5)
    # conjugation by b maps C -> 2C = C, so everything is stable: E = G
    assert E.order == 6
    assert len(reps) == 1
    # q = 7: cosets mod 3 are {1} and {2}; b swaps them, so only K = <a>
    # stabilizes and the two cosets form one orbit
    reps7, E7 = coset_orbits(S3, K, H, 7)
    assert len(reps7) == 1 and E7.order == 3


def _fast_path_pairs(tup):
    """The (K, H) pairs metacyclic_decompose passes to coset_orbits."""
    params = MetacyclicParams(*tup)
    G = params.group()
    for v, i, c in normal_triples(params):
        ov = o_v(params, v)
        K = g_ov_subgroup(G, params, ov)
        for alpha, beta in x_classes(params, v, i, c):
            yield G, K, triple_subgroup(G, params, v, alpha, beta * ov)


@pytest.mark.parametrize(
    "source", corpus_groups() + ALL_METACYCLIC,
    ids=lambda s: f"fast{s}" if isinstance(s, tuple) else s.name)
def test_coset_orbits_match_reference(source):
    """The one-gather coset_orbits gives the loop reference's (reps, E) on
    the engine's triples of a corpus group or the fast path's (K, H) pairs
    of a presentation, for every coprime q, deterministically and with two
    generators seeded alike, which must also draw the same numbers."""
    if isinstance(source, tuple):
        cases = _fast_path_pairs(source)
    else:
        cases = [(source, tr.A, tr.D) for tr in shoda_triples(source)]
    for G, K, H in cases:
        for q in (2, 3, 4, 5, 7, 9):
            if gcd(q, G.order) != 1:
                continue
            assert coset_orbits(G, K, H, q) == coset_orbits_reference(G, K, H, q)
            for seed in (0, 4, 6):  # 0 moves some pick off the least coset
                r1, r2 = random.Random(seed), random.Random(seed)
                assert coset_orbits(G, K, H, q, rng=r1) == \
                    coset_orbits_reference(G, K, H, q, rng=r2)
                assert r1.getstate() == r2.getstate()


def test_both_engines_draw_cosets_with_rng():
    """decompose and metacyclic_decompose pass their rng on to the coset
    pick: with Random(0) some component of M(16,4,0,3) over F_5 carries a
    coset that is not the least of its orbit, and the idempotents match
    those of the deterministic run."""
    G, F = metacyclic_group(16, 4, 0, 3), make_field(5)
    expected = sorted(d.idempotent.key() for d in decompose(G, F)[1])
    for run in (decompose, lambda G, F, rng: metacyclic_decompose(params_of(G), F, rng=rng)):
        ds = run(G, F, rng=random.Random(0))[1]
        assert sorted(d.idempotent.key() for d in ds) == expected
        assert any(d.coset not in coset_orbits(G, d.triple.A, d.triple.D, F.q)[0]
                   for d in ds)


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
    s, d = decompose(D8, make_field(5), validate=True)
    total = None
    for x in d:
        assert x.idempotent.is_idempotent()
        assert x.idempotent.is_central()
        total = x.idempotent if total is None else total + x.idempotent
    A = GroupAlgebra(D8, make_field(5))
    assert total.key() == A.one().key()


def _corrupted(invariant):
    """A decomposition of F_5[S3] with one fault by hand, that only the named
    invariant catches, with the witness it must carry."""
    A = GroupAlgebra(S3, make_field(5))
    summary, ds = decompose(S3, make_field(5))
    e0, e1 = ds[0].idempotent, ds[1].idempotent
    with_e0 = lambda e: [dataclasses.replace(ds[0], idempotent=e)] + ds[1:]  # noqa: E731
    half_one_plus_b = A.element([3, 3, 0, 0, 0, 0])  # (1 + b)/2, b = index 1
    cases = {
        "dimension_sum": (WedderburnSummary(6, 5, {(1, 1): 2}), ds,
                          {"got": 2, "expected": 6}),
        "nonzero": (summary, with_e0(A.zero()), {"component": 0}),
        "idempotent": (summary, with_e0(e0.scale(2)), {"component": 0}),
        "central": (summary, with_e0(half_one_plus_b), {"component": 0}),
        "ideal_dimension": (summary, with_e0(e0 + e1),
                            {"component": 0, "got": ds[0].dim + ds[1].dim,
                             "expected": ds[0].dim}),
        "orthogonal": (summary, [ds[0]] + ds, {"components": (0, 1)}),
        "sum_to_one": (summary, ds[:-1], {"sum": (e0 + e1).to_str()}),
    }
    return A, cases[invariant]


@pytest.mark.parametrize("invariant", ["dimension_sum", "nonzero", "idempotent",
                                       "central", "ideal_dimension", "orthogonal",
                                       "sum_to_one"])
def test_validate_names_each_violated_invariant(invariant):
    A, (summary, descriptors, witness) = _corrupted(invariant)
    with pytest.raises(InvariantViolation) as exc:
        _validate(A, summary, descriptors)
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
    """The idempotent set and summary do not depend on which irreducible
    factor of Phi_n the cyclotomic traces come from (criterion 9 style:
    draw a random factor on every call, over two fields per corpus group)."""
    rng = random.Random(1311)
    picked_other = 0
    choose = field._cyclotomic_factor

    def random_factor(F, n):
        nonlocal picked_other
        phi = poly_trim([F.from_int(c) for c in field._int_cyclotomic(n)])
        f0 = list(rng.choice(factor_polynomial(F, phi)))
        picked_other += f0 != choose(F, n)
        return f0

    for G in corpus_groups():
        for q in [p for p in PRIMES if G.order % p][:2]:
            base_summary, base = decompose(G, BaseField(q), validate=False)
            base_set = sorted(d.idempotent.key() for d in base)
            with monkeypatch.context() as m:
                m.setattr(field, "_cyclotomic_factor", random_factor)
                for _ in range(2):
                    summary, descs = decompose(G, BaseField(q), validate=False)
                    assert summary.components == base_summary.components
                    assert sorted(d.idempotent.key() for d in descs) == base_set, \
                        (G.name, q)
    assert picked_other > 0
