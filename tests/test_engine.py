import dataclasses
import random
from math import gcd

import pytest

from conftest import (
    ALL_METACYCLIC,
    PRIMES,
    conjugate_subgroup,
    corpus_groups,
    coset_orbits_reference,
    direct_product,
    elementary_abelian,
    lattice,
    normal_subgroups,
    random_metabelian_groups,
    relabeled,
    shoda_triples_reference,
    validate_reference,
)
from grpalg import field, idempotents
from grpalg.algebra import GroupAlgebra
from grpalg.errors import (
    InternalInconsistency,
    InvariantViolation,
    NotMetabelian,
    NotSemisimple,
)
from grpalg.field import BaseField, factor_polynomial, make_field, poly_trim
from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    core,
    d2_group,
    maximal_abelian_over_derived,
    metacyclic_group,
    normalizer,
    subgroup_closure,
)
from grpalg.idempotents import (
    CyclotomicCoset,
    Triple,
    WedderburnSummary,
    _kernel_conjugates,
    _validate,
    coset_orbits,
    cyclic_quotient_data,
    d_classes,
    decompose,
    ec_idempotent,
    epsilon_idempotent,
    generator_cosets,
    shoda_triples,
    triple_components,
)
from grpalg.metacyclic import (
    MetacyclicParams,
    conjugate_in_g,
    g_ov_subgroup,
    metacyclic_decompose,
    normal_triples,
    o_v,
    params_of,
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


@pytest.mark.parametrize("G", corpus_groups() + [elementary_abelian(3, 3)],
                         ids=lambda G: G.name)
def test_d_classes_match_lattice_filter(G):
    """The character kernels kept for each N are the lattice filter
    N <= D <= A, A/D cyclic, core_G(D) = N, split into G-conjugacy classes."""
    subs = lattice(G)
    for N in normal_subgroups(G):
        A = maximal_abelian_over_derived(G, N)
        classes = d_classes(G, N, _kernel_conjugates(G, N, A))
        want = sorted(D.members for D in subs
                      if N <= D <= A and core(G, D).members == N.members
                      and any(subgroup_closure(G, D.members + (a,)).members
                              == A.members for a in A.members))
        assert sorted(D.members for cls in classes for D in cls) == want
        for cls in classes:
            assert {D.members for D in cls} == {
                conjugate_subgroup(G, cls[0], g).members for g in range(G.order)}


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
        return [(t.N.members, t.D.members, t.A.members) for t in triples]

    assert members(shoda_triples(G)) == members(shoda_triples_reference(G))


@pytest.mark.parametrize("G", TRIPLE_GROUPS, ids=lambda G: G.name)
def test_shoda_triples_build_each_pair_once(G, monkeypatch):
    """Each (N, A_N) pair's character kernels are built once, and serve
    both the cores found from it and its D-classes."""
    calls = []

    def counting(G, N, A):
        calls.append((N.members, A.members))
        return kernel_conjugates(G, N, A)

    kernel_conjugates = idempotents._kernel_conjugates
    monkeypatch.setattr(idempotents, "_kernel_conjugates", counting)
    shoda_triples(FiniteGroup(G.m, name=G.name))  # a fresh, uncached copy
    assert calls and len(calls) == len(set(calls))


def test_z3_5_decomposes():
    """Z_3^5 has 2664 normal subgroups and 122 q-classes over F_2."""
    G = elementary_abelian(3, 5)
    _, descriptors = decompose(G, make_field(2), validate=True)
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
        K = g_ov_subgroup(G, params, ov)
        for alpha, beta in x_classes(params, v, i, c):
            yield G, K, triple_subgroup(G, params, v, alpha, beta * ov)


@pytest.mark.parametrize(
    "source", corpus_groups() + ALL_METACYCLIC,
    ids=lambda s: f"fast{s}" if isinstance(s, tuple) else s.name)
def test_coset_orbits_match_reference(source):
    """The one-gather coset_orbits gives the loop reference's (reps, E) on
    the engine's triples of a corpus group or the fast path's (K, H) pairs
    of a presentation, for every coprime q."""
    for G, K, H in _coset_cases(source):
        for q in (2, 3, 4, 5, 7, 9):
            if gcd(q, G.order) != 1:
                continue
            assert coset_orbits(G, K, H, q) == coset_orbits_reference(G, K, H, q)


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
                A = GroupAlgebra(G, make_field(q))
                reps, E = coset_orbits(G, K, H, q)
                key = {C: ec_idempotent(A, K, H, C, E).key()
                       for C in generator_cosets(n, q)}
                for C in key:  # the m·C, m over a group, are the orbit of C
                    orbit = {CyclotomicCoset(n, tuple(sorted(m * u % n
                                                             for u in C.members)))
                             for m in mults}
                    assert {key[D] for D in orbit} == {key[C]}
                assert len(set(key.values())) == len(reps)
                cases += 1
    assert cases > 200


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
        A = GroupAlgebra(G, make_field(q))
        for v, i, c in normal_triples(params):
            ov = o_v(params, v)
            K = g_ov_subgroup(G, params, ov)
            N = triple_subgroup(G, params, v, i, c)

            def keys(alpha, beta):
                H = triple_subgroup(G, params, v, alpha, beta * ov)
                return sorted(d.idempotent.key()
                              for d in triple_components(A, Triple(N=N, D=H, A=K)))

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


def _verdict(check, A, summary, descriptors):
    """(invariant, witness) of the InvariantViolation check raises, or None."""
    try:
        check(A, summary, descriptors)
    except InvariantViolation as exc:
        return exc.invariant, exc.witness
    return None


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_validate_matches_full_loop_reference(G):
    """_validate, which skips the pairwise loop when the idempotents sum to
    1 and their ideals to |G|, gives the verdict and witness of the full
    loop on corrupted decompositions of G over two corpus primes."""
    for q in [p for p in PRIMES if G.order % p][:2]:
        A = GroupAlgebra(G, make_field(q))
        summary, ds = decompose(G, A.field, validate=False)
        first, last = ds[0], ds[-1]
        merged = dataclasses.replace(first, d=1, l=first.dim + last.dim,
                                     idempotent=first.idempotent + last.idempotent)
        cases = {
            "intact": ds,
            "duplicated": [last] + ds,
            # q more copies add 0 to the sum but break the dimension count
            "duplicated q-fold": ds + [first] * q,
            "dropped": ds[1:],
            "merged": [merged] + ds[1:-1],
            "scaled": [dataclasses.replace(first, idempotent=first.idempotent.scale(2))]
            + ds[1:],
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
            x = A.zero().coeffs.copy()
            x[outside[0]] = 1
            cases["non-central"] = ds[:-1] + [dataclasses.replace(
                last, idempotent=A.element(x))]
        for name, descriptors in cases.items():
            want = _verdict(validate_reference, A, summary, descriptors)
            assert _verdict(_validate, A, summary, descriptors) == want, (q, name)
            assert (want is None) == (name in ("intact", "merged")), (q, name)


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
