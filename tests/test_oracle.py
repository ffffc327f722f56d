import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import (
    PRIMES,
    a4_group,
    center_split_reference,
    class_sums,
    corpus_groups,
    relabeled,
)
from grpalg.algebra import GroupAlgebra
from grpalg import oracle
from grpalg.errors import NotSemisimple
from grpalg.field import make_field
from grpalg.groups import FiniteGroup, d1_group, d2_group, metacyclic_group
from grpalg.idempotents import decompose
from grpalg.metacyclic import MetacyclicParams, metacyclic_decompose
from grpalg.oracle import center_split, class_structure, q_class_count

S3 = metacyclic_group(3, 2, 0, 2)
# F_4, F_9 and F_25 as (p, a)
EXTENSIONS = ((2, 2), (3, 2), (5, 2))


def keys(elements):
    return sorted(e.key() for e in elements)


def test_q_class_count_examples():
    assert q_class_count(S3, 5) == 3
    assert q_class_count(d2_group(1), 3) == 5          # Q8: cubing fixes all
    Z12 = metacyclic_group(12, 1, 0, 1)
    assert q_class_count(Z12, 13) == 12                # q = 1 mod exponent
    assert q_class_count(Z12, 5) == 8
    with pytest.raises(NotSemisimple):
        q_class_count(S3, 3)


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
        A = GroupAlgebra(G, F)
        ids = center_split(G, F)
        assert len(ids) == q_class_count(G, q)
        total = A.zero()
        for i, e in enumerate(ids):
            assert not e.is_zero()
            assert e.is_idempotent()
            assert e.is_central()
            for f in ids[i + 1:]:
                assert (e * f).is_zero() and (f * e).is_zero()
            total = total + e
        assert total.key() == A.one().key()


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
        assert keys(center_split(G, F)) == keys(center_split_reference(G, F))


def test_center_split_matches_reference_relabeled_and_non_metabelian(s4):
    A4 = FiniteGroup(relabeled(a4_group().m, random.Random(6)), name="A4'")
    for G in (A4, s4):
        for F in (make_field(5), make_field(7), make_field(5, 2)):
            assert keys(center_split(G, F)) == keys(center_split_reference(G, F))


@pytest.mark.parametrize("G", [S3, a4_group(), metacyclic_group(16, 4, 8, 5), d1_group(2)],
                         ids=lambda G: G.name)
def test_class_mul_matches_product(G):
    """C_i · C_j in class coordinates, the field sum of the rows of
    w[idx[i]], equals the AlgebraElement product of the two class sums,
    read back at the class representatives."""
    class_of, idx = class_structure(G)
    reps = [int(np.flatnonzero(class_of == i)[0]) for i in range(len(idx))]
    for F in (make_field(5), make_field(2, 2)):  # no coprimality needed
        sums = class_sums(GroupAlgebra(G, F))
        for i, zi in enumerate(sums):
            for j, zj in enumerate(sums):
                w = np.zeros(len(idx), dtype=np.int16)
                w[j] = 1
                got = F.sum_rows(w[idx[i]])
                prod = (zi * zj).coeffs
                assert np.array_equal(prod, prod[reps][class_of])  # central
                assert np.array_equal(got, prod[reps])


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


@settings(max_examples=6, deadline=None)
@given(presentations())
def test_paths_agree_on_random_presentations(case):
    params, field = case
    G = metacyclic_group(*params)
    F = make_field(*field)
    oracle = keys(center_split(G, F))
    assert oracle == keys(center_split_reference(G, F))
    assert oracle == keys(d.idempotent for d in decompose(G, F)[1])
    fast = metacyclic_decompose(MetacyclicParams(*params), F)[1]
    assert oracle == keys(d.idempotent for d in fast)
    assert len(oracle) == q_class_count(G, F.q)
