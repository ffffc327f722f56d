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
from grpalg.field import BaseField, make_field
from grpalg.groups import (
    FiniteGroup,
    class_structure,
    d1_group,
    d2_group,
    metacyclic_group,
)
from grpalg.idempotents import decompose
from grpalg.metacyclic import MetacyclicParams, metacyclic_decompose
from grpalg.oracle import center_split, q_class_count

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
    # past the gcd(q, |G|) check, the class sum of the transpositions of
    # S3 over F_3 squares to 0, so its minimal polynomial x^2 is not
    # squarefree
    monkeypatch.setattr(oracle, "gcd", lambda a, b: 1)
    monkeypatch.setattr(conftest, "gcd", lambda a, b: 1)
    for split in (center_split, center_split_reference):
        with pytest.raises(NotSemisimple,
                           match="^class sum has a repeated minimal-polynomial factor$"):
            split(S3, make_field(3))


def count_minimal_polynomials(monkeypatch):
    calls = []
    inner = oracle._minimal_polynomial

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(oracle, "_minimal_polynomial", counted)
    return calls


def test_early_stop_fires(monkeypatch):
    # M(53,2,0,52) over F_3 has 28 classes and 3 blocks; the full split
    # takes 80 minimal polynomials, the block degrees reach 28 after 5
    G, F = metacyclic_group(53, 2, 0, 52), make_field(3)
    calls = count_minimal_polynomials(monkeypatch)
    ids = center_split(G, F)
    assert len(calls) <= 5
    assert keys(ids) == array_keys(center_split_reference(G, F))


def test_early_stop_cannot_fire_on_unsplit_class_sum(monkeypatch):
    # Z_3 x Z_3 over F_2, g = (0, 1) and g^-1 = (0, 2) in classes 1 and 2:
    # the class sum of g leaves Ze = F_2 x F_4 (d = 1) and a block with
    # d = 2, so sum d = 3 < 9 classes; the class sum of g^-1 splits
    # neither block, yet the split must go on to 5 blocks
    G, F = elementary_abelian(3, 2), make_field(2)
    class_of, reps, idx = class_structure(G)
    calls = count_minimal_polynomials(monkeypatch)
    ids = center_split(G, F)
    # the rows of idx for class i, x in C_i, are what the split multiplies by
    blocks_at = [sum(1 for c in calls if np.array_equal(c[1], idx[class_of == i]))
                 for i in range(reps.size)]
    assert blocks_at[:4] == [1, 1, 2, 2]
    assert len(ids) == q_class_count(G, 2) == 5
    assert keys(ids) == array_keys(center_split_reference(G, F))


def test_center_split_factors_each_minimal_polynomial_once(monkeypatch):
    # Z_3^4 over F_2: the split asks for 992 factorizations of 3 distinct
    # minimal polynomials, and the field's memo runs the distinct-degree
    # loop once for each of them
    counts = {"factor": 0, "distinct_degree": 0}

    def counted(name, inner):
        def wrapper(*args):
            counts[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(oracle, "factor_polynomial",
                        counted("factor", oracle.factor_polynomial))
    monkeypatch.setattr(field, "_distinct_degree",
                        counted("distinct_degree", field._distinct_degree))
    F = BaseField(2)
    ids = center_split(elementary_abelian(3, 4), F)
    assert counts == {"factor": 992, "distinct_degree": 3}
    assert len(F._factors) == 3
    assert keys(ids) == keys(center_split(elementary_abelian(3, 4), make_field(2)))


def test_blocks_not_summing_to_one_is_inconsistent(monkeypatch):
    # drop one CRT piece of every split: the blocks no longer sum to 1
    factor = oracle.factor_polynomial

    def all_but_last(F, f):
        factors = factor(F, f)
        return factors[:-1] if len(factors) > 1 else factors

    monkeypatch.setattr(oracle, "factor_polynomial", all_but_last)
    with pytest.raises(InternalInconsistency, match="^center blocks sum to "):
        center_split(S3, make_field(5))


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
    agree on M(n, t, k, r) over F_{p^a}, field = (p, a)."""
    G = metacyclic_group(*params)
    F = make_field(*field)
    oracle = keys(center_split(G, F))
    if G.order <= 24:  # the |G|-coordinate reference is the slow part
        assert oracle == array_keys(center_split_reference(G, F))
    assert oracle == keys(d.idempotent for d in decompose(G, F)[1])
    fast = metacyclic_decompose(MetacyclicParams(*params), F)[1]
    assert oracle == keys(d.idempotent for d in fast)
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
    """Over F_4 the F_2-trace of a splitting candidate can separate two
    factors only on a structured set of candidates (the Frobenius of F_2
    swaps the two factors of Phi_27 and of Phi_81), which a fixed candidate
    order can miss for minutes.  All three paths must agree, and fast."""
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
