import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
from conftest import (
    PRIMES,
    a4_group,
    basis_vector,
    center_split_reference,
    class_sums,
    corpus_grid,
    corpus_groups,
    elementary_abelian,
    full_product,
    is_central,
    is_idempotent,
    random_metabelian_groups,
    relabeled,
)
from grpalg.algebra import to_str
from grpalg import field, oracle
from grpalg.errors import InternalInconsistency, NotSemisimple
from grpalg.field import make_field
from grpalg.groups import (
    FiniteGroup,
    class_structure,
    d1_group,
    d2_group,
    metacyclic_group,
)
from grpalg.idempotents import decompose
from grpalg.metacyclic import MetacyclicParams, metacyclic_decompose
from grpalg.oracle import center_split, q_class_count, q_classes

S3 = metacyclic_group(3, 2, 0, 2)
# F_4, F_9 and F_25 as (p, a)
EXTENSIONS = ((2, 2), (3, 2), (5, 2))


def keys(elements):
    return sorted(e.key() for e in elements)


def array_keys(arrays):
    """keys() of coefficient vectors, such as center_split_reference's."""
    return sorted(tuple(c.tolist()) for c in arrays)


def test_q_class_count_examples():
    assert q_class_count(S3, 5) == 3
    assert q_class_count(d2_group(1), 3) == 5          # Q8: cubing fixes all
    Z12 = metacyclic_group(12, 1, 0, 1)
    assert q_class_count(Z12, 13) == 12                # q = 1 mod exponent
    assert q_class_count(Z12, 5) == 8
    with pytest.raises(NotSemisimple):
        q_class_count(S3, 3)


def test_center_split_refuses_non_semisimple():
    with pytest.raises(NotSemisimple):
        center_split(S3, make_field(3))


def test_trivial_group():
    G = FiniteGroup([[0]])
    ids = center_split(G, make_field(5))
    assert len(ids) == 1 and list(ids[0].coeffs) == [1]


def test_f2_c3_hand_values():
    # F_2[C3] splits as F_2 + F_4: idempotents 1+a+a^2 and a+a^2
    C3 = metacyclic_group(3, 1, 0, 1)
    ids = center_split(C3, make_field(2))
    assert sorted(e.key() for e in ids) == [(0, 1, 1), (1, 1, 1)]


def test_center_split_properties():
    for G, q in [(S3, 5), (metacyclic_group(4, 2, 0, 3), 3),
                 (d2_group(2), 3), (metacyclic_group(9, 3, 0, 4), 7)]:
        F = make_field(q)
        ids = center_split(G, F)
        assert len(ids) == q_class_count(G, q)
        es = [e.coeffs for e in ids]
        for i, e in enumerate(es):
            assert e.any()
            assert is_idempotent(G, F, e)
            assert is_central(G, e)
            for f in es[i + 1:]:
                assert not full_product(G, F, e, f).any()
                assert not full_product(G, F, f, e).any()
        assert np.array_equal(F.sum_rows(es), basis_vector(G, 0))


def test_engine_idempotents_equal_oracle_elements():
    """decompose and center_split of the same G and F: each engine
    idempotent has the coefficients of its oracle twin, and the two sets
    are equal."""
    for G, q in [(S3, 5), (metacyclic_group(4, 2, 0, 3), 3), (d2_group(2), 3),
                 (a4_group(), 7)]:
        F = make_field(q)
        engine = [d.idempotent for d in decompose(G, F)[1]]
        twins = {e.key(): e for e in center_split(G, F)}
        assert len(twins) == len(engine)
        for e in engine:
            twin = twins[e.key()]
            assert np.array_equal(e.coeffs, twin.coeffs)
        assert {e.key() for e in engine} == set(twins)


def test_same_field_by_another_cache_key_gives_equal_elements():
    """make_field(5), make_field(5, 1) and make_field(p=5) are three
    lru_cache keys and three BaseField objects of one field; the engine's
    idempotents over one have the coefficients, and print as, center_split's
    blocks over another."""
    fields = [make_field(5), make_field(5, 1), make_field(p=5)]
    assert len({id(F) for F in fields}) == 3
    engine = [d.idempotent for d in decompose(S3, fields[0])[1]]
    for F in fields[1:]:
        blocks = center_split(S3, F)
        assert {e.key() for e in blocks} == {e.key() for e in engine}
        assert ({to_str(S3, F, e.coeffs) for e in blocks}
                == {to_str(S3, fields[0], e.coeffs) for e in engine})


def test_repeated_minimal_polynomial_factor_not_semisimple(monkeypatch):
    # past the gcd(q, |G|) check, the class sum C of the transpositions of
    # S3, the first q-class sum past 1, has C² = 3 + 3·(the 3-cycles) = 0
    # over F_3: its minimal polynomial x² has the one root 0 in F_3
    monkeypatch.setattr(oracle, "gcd", lambda a, b: 1)
    monkeypatch.setattr(conftest, "gcd", lambda a, b: 1)
    for split in (center_split, center_split_reference):
        with pytest.raises(NotSemisimple,
                           match=r"^minimal polynomial \[0, 0, 1\] \(low degree first\) "
                                 r"has fewer than 2 distinct roots in F_3$"):
            split(S3, make_field(3))


def split_rounds(monkeypatch):
    """Record, for each sum center_split's split takes, the number of
    minimal polynomials the kernel had computed before it; the last entry
    is the total.  Returns the list."""
    calls, rounds = [], []
    inner_mp, inner_split = field._minimal_polynomial, oracle.split_fixed

    def counted(*args):
        calls.append(args)
        return inner_mp(*args)

    def split(F, sums, start, count):
        def taken():
            for s in sums:
                rounds.append(len(calls))
                yield s
        out = inner_split(F, taken(), start, count)
        rounds.append(len(calls))
        return out

    monkeypatch.setattr(field, "_minimal_polynomial", counted)
    monkeypatch.setattr(oracle, "split_fixed", split)
    return rounds


def test_early_stop_fires(monkeypatch):
    # M(53,2,0,52) over F_3 has 28 classes and 3 q-classes: the identity
    # acts by a scalar, the next q-class sum splits 1 into the 3 blocks by
    # one minimal polynomial, and the split stops before the third sum
    G, F = metacyclic_group(53, 2, 0, 52), make_field(3)
    rounds = split_rounds(monkeypatch)
    ids = center_split(G, F)
    assert rounds == [0, 0, 1]
    assert len(ids) == q_class_count(G, 3) == 3
    assert keys(ids) == array_keys(center_split_reference(G, F))


def test_early_stop_cannot_fire_on_unsplit_class_sum(monkeypatch):
    # Z_3^3 over F_2 has 14 q-classes: the fifth q-class sum acts by a
    # scalar on every block, no minimal polynomial is taken, yet the split
    # must go on; it stops after the ninth sum, 5 before the last
    G, F = elementary_abelian(3, 3), make_field(2)
    rounds = split_rounds(monkeypatch)
    ids = center_split(G, F)
    assert np.diff(rounds).tolist() == [0, 1, 2, 1, 0, 5, 3, 0, 1]
    assert len(ids) == q_class_count(G, 2) == 14
    assert keys(ids) == array_keys(center_split_reference(G, F))


def test_blocks_not_summing_to_one_is_inconsistent(monkeypatch):
    # drop one block of the kernel's result: the rest no longer sum to 1
    inner = oracle.split_fixed
    monkeypatch.setattr(oracle, "split_fixed", lambda *args: inner(*args)[:-1])
    with pytest.raises(InternalInconsistency, match="^center blocks sum to "):
        center_split(S3, make_field(5))


def test_split_stops_only_at_count():
    # the identity of F_5[Z_4] alone acts by a scalar: with no other sum
    # the split cannot reach the 4 primitive idempotents
    F = make_field(5)
    one = np.array([1, 0, 0, 0], dtype=np.int16)
    with pytest.raises(InternalInconsistency, match="^split into 1 blocks, not 4$"):
        field.split_fixed(F, [np.array([[0, 1, 2, 3]])], one, 4)
    x = np.array([[3, 0, 1, 2]])  # (x·w)[l] = w[l - 1]
    blocks = field.split_fixed(F, [x], one, 4)
    assert len(blocks) == 4
    with pytest.raises(InternalInconsistency, match="^split into 4 blocks, not 3$"):
        field.split_fixed(F, [x], one, 3)


def test_center_split_deterministic():
    a = [e.key() for e in center_split(S3, make_field(7))]
    b = [e.key() for e in center_split(S3, make_field(7))]
    assert a == b


def test_oracle_matches_engine_spot():
    for G, q in [(S3, 5), (d2_group(1), 3)]:
        F = make_field(q)
        _, descs = decompose(G, F)
        assert sorted(d.idempotent.key() for d in descs) == \
            sorted(e.key() for e in center_split(G, F))


def test_non_metabelian_still_splits(s4):
    # the oracle has no metabelian requirement: F_5[S4] has 5 components
    ids = center_split(s4, make_field(5))
    assert len(ids) == q_class_count(s4, 5) == 5


def test_oracle_over_extension_field():
    G = metacyclic_group(5, 4, 0, 2)
    F = make_field(3, 2)
    ids = center_split(G, F)
    assert len(ids) == q_class_count(G, 9)
    _, descs = decompose(G, F)
    assert sorted(d.idempotent.key() for d in descs) == \
        sorted(e.key() for e in ids)


def test_l_multiset_is_q_class_orbit_sizes():
    """Brauer's permutation lemma (oracle.q_classes): on every corpus pair
    the multiset of the engine's l is that of the q-class orbit sizes."""
    for G, q in corpus_grid():
        sizes = sorted(np.bincount(q_classes(G, q)).tolist())
        assert sorted(d.l for d in decompose(G, make_field(q))[1]) == sizes, (G.name, q)


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_center_split_matches_reference(G):
    fields = [make_field(q) for q in PRIMES if G.order % q]
    fields += [make_field(p, a) for p, a in EXTENSIONS if G.order % p]
    for F in fields:
        assert keys(center_split(G, F)) == array_keys(center_split_reference(G, F))


def test_center_split_matches_reference_relabeled_and_non_metabelian(s4):
    A4 = FiniteGroup(relabeled(a4_group().m, random.Random(6))[0], name="A4'")
    for G in (A4, s4):
        for F in (make_field(5), make_field(7), make_field(5, 2)):
            assert keys(center_split(G, F)) == array_keys(center_split_reference(G, F))


@pytest.mark.parametrize("G", [S3, a4_group(), metacyclic_group(16, 4, 8, 5), d1_group(2)],
                         ids=lambda G: G.name)
def test_class_mul_matches_product(G):
    """C_i · C_j in class coordinates, the field sum of the rows w[idx[x]]
    over the x in C_i, as center_split takes it, equals the product of the
    two class sums at every h, read back at the class representatives."""
    class_of, reps, idx = class_structure(G)
    for F in (make_field(5), make_field(2, 2)):  # no coprimality needed
        sums = class_sums(G)
        for i, zi in enumerate(sums):
            for j, zj in enumerate(sums):
                w = np.zeros(reps.size, dtype=np.int16)
                w[j] = 1
                got = F.sum_rows(w[idx[class_of == i]])
                prod = full_product(G, F, zi, zj)
                assert np.array_equal(prod, prod[reps][class_of])  # central
                assert np.array_equal(got, prod[reps])


def test_engine_and_oracle_build_class_structure_once():
    """decompose (through _validate), then center_split and q_class_count,
    on one group: the class structure is written to the group's cache once
    and every later reader gets that same tuple."""
    class Writes(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    writes = []
    G = FiniteGroup(metacyclic_group(7, 3, 0, 2).m, name="M21")
    G._cache = Writes()
    F = make_field(2)
    decompose(G, F)
    built = G._cache["class_structure"]
    center_split(G, F)
    q_class_count(G, 2)
    assert writes.count("class_structure") == 1
    assert class_structure(G) is built


# F_2, F_3, F_4, F_5, F_7 and F_9 as (p, a)
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2))


@st.composite
def presentations(draw):
    """A valid (n, t, k, r) of order n*t <= 60 and a field F_{p^a} with p
    coprime to it."""
    n = draw(st.integers(1, 30))
    t = draw(st.integers(1, 60 // n))
    r = draw(st.sampled_from([r for r in range(n) if pow(r, t, n) == 1 % n]))
    k = draw(st.sampled_from([k for k in range(n) if k * (r - 1) % n == 0]))
    field = draw(st.sampled_from([(p, a) for p, a in FIELDS if gcd(p, n * t) == 1]))
    return (n, t, k, r), field


def assert_paths_agree(params, field):
    """The oracle, decompose (validated), the fast path and q_class_count
    agree on M(n, t, k, r) over F_{p^a}, field = (p, a), and the multiset
    of the l of each path's components is that of the q-class orbit sizes
    (oracle.q_classes)."""
    G = metacyclic_group(*params)
    F = make_field(*field)
    oracle = keys(center_split(G, F))
    if G.order <= 24:  # the |G|-coordinate reference is the slow part
        assert oracle == array_keys(center_split_reference(G, F))
    engine = decompose(G, F)[1]
    fast = metacyclic_decompose(MetacyclicParams(*params), F)[1]
    sizes = sorted(np.bincount(q_classes(G, F.q)).tolist())
    for descriptors in (engine, fast):
        assert oracle == keys(d.idempotent for d in descriptors)
        assert sorted(d.l for d in descriptors) == sizes
    assert len(oracle) == q_class_count(G, F.q)


@settings(max_examples=30, deadline=None)
@given(presentations())
@example(((1, 27, 0, 0), (2, 2)))
@example(((7, 7, 1, 1), (2, 2)))
def test_paths_agree_on_random_presentations(case):
    assert_paths_agree(*case)


@pytest.mark.parametrize("params", [(1, 27, 0, 0), (27, 1, 0, 1), (3, 9, 1, 1),
                                    (1, 49, 0, 0), (7, 7, 1, 1), (1, 81, 0, 0)])
def test_paths_agree_where_f4_splitting_stalled(params):
    """Cases over F_4 where the Frobenius of F_2 swaps the two factors of
    Phi_27 and of Phi_81, which a factor route with a fixed candidate order
    took minutes to split.  All three paths must agree, and fast."""
    assert_paths_agree(params, (2, 2))


@pytest.mark.parametrize("G", random_metabelian_groups(12, seed=2011),
                         ids=lambda G: G.name)
def test_oracle_on_random_metabelian_products(G):
    """The seeded random direct products, relabeled: the oracle against the
    engine and q_class_count over the first two fields coprime to |G|."""
    fields = [f for f in FIELDS if gcd(f[0], G.order) == 1][:2]
    for field in fields:
        F = make_field(*field)
        oracle = keys(center_split(G, F))
        assert oracle == keys(d.idempotent for d in decompose(G, F)[1])
        assert len(oracle) == q_class_count(G, F.q)
