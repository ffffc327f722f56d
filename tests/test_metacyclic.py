import pytest

from conftest import (
    ALL_METACYCLIC,
    conjugate_in_g,
    conjugate_subgroup,
    core,
    core_closed_form,
    normal_subgroups,
    x_triples_reference,
)
from grpalg import metacyclic
from grpalg.errors import BadPresentation, NotSemisimple
from grpalg.field import make_field
from grpalg.idempotents import decompose
from grpalg.metacyclic import (
    MetacyclicParams,
    metacyclic_decompose,
    normal_triples,
    o_v,
    triple_subgroup,
    x_classes,
    x_triples,
)

def test_params_validation():
    with pytest.raises(BadPresentation):
        MetacyclicParams(5, 2, 0, 3)
    with pytest.raises(BadPresentation):
        MetacyclicParams(4, 2, 1, 3)
    p = MetacyclicParams(4, 2, 0, 3)
    assert p.order == 8


def test_o_v():
    p = MetacyclicParams(4, 2, 0, 3)
    assert o_v(p, 1) == 1
    assert o_v(p, 4) == 2          # ord_4(3) = 2
    assert o_v(p, 2) == 1          # r odd
    p2 = MetacyclicParams(9, 3, 0, 4)
    assert o_v(p2, 9) == 3 and o_v(p2, 3) == 1


def test_normal_triples_d8():
    p = MetacyclicParams(4, 2, 0, 3)
    trs = set(normal_triples(p))
    assert {(1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 1, 1), (4, 0, 2)} <= trs
    assert len(trs) == 6
    G = p.group()
    # (1,0,2) -> <a>; (4,0,2) -> trivial
    assert triple_subgroup(G, p, 1, 0, 2).order == 4
    assert triple_subgroup(G, p, 4, 0, 2).order == 1
    assert triple_subgroup(G, p, 1, 0, 1).order == 8


@pytest.mark.parametrize("tup", ALL_METACYCLIC)
def test_normal_triples_match_brute_force(tup):
    p = MetacyclicParams(*tup)
    G = p.group()
    generated = {triple_subgroup(G, p, *t).members for t in normal_triples(p)}
    brute = {N.members for N in normal_subgroups(G)}
    assert generated == brute
    # the triple-generated subgroups are pairwise distinct
    assert len(generated) == len(normal_triples(p))
    # |H_{v,i,c}| = nt/(vc)
    for (v, i, c) in normal_triples(p):
        assert triple_subgroup(G, p, v, i, c).order == p.order // (v * c)


def test_abelian_case_degenerates():
    p = MetacyclicParams(6, 2, 0, 1)  # Z_6 x Z_2
    G = p.group()
    assert len(normal_triples(p)) == len(normal_subgroups(G))


@pytest.mark.parametrize("tup", ALL_METACYCLIC)
def test_conjugacy_law(tup):
    # H_{v,a1,b1*o_v} ~ H_{v,a2,b2*o_v} iff b1 = b2 and a1 = a2 r^j (mod v)
    p = MetacyclicParams(*tup)
    G = p.group()
    for (v, i, c) in normal_triples(p):
        xt = x_triples(p, v, i, c)
        ov = o_v(p, v)
        for (a1, b1) in xt:
            H1 = triple_subgroup(G, p, v, a1, b1 * ov)
            for (a2, b2) in xt:
                H2 = triple_subgroup(G, p, v, a2, b2 * ov)
                conj = any(
                    conjugate_subgroup(G, H2, g).members == H1.members
                    for g in range(G.order))
                assert conj == conjugate_in_g(p, v, a1, b1, a2, b2), \
                    (tup, v, i, c, (a1, b1), (a2, b2))


@pytest.mark.parametrize("tup", ALL_METACYCLIC)
def test_core_formula(tup):
    p = MetacyclicParams(*tup)
    G = p.group()
    for (v, i, c) in normal_triples(p):
        ov = o_v(p, v)
        for (alpha, beta) in x_triples(p, v, i, c):
            H = triple_subgroup(G, p, v, alpha, beta * ov)
            predicted = core_closed_form(G, p, v, alpha, beta)
            assert predicted.members == core(G, H).members, \
                (tup, v, alpha, beta)


def test_x_triples_match_reference():
    """x_triples' three tests give the theorem's X_{v,i,c}, all of whose
    conditions x_triples_reference checks, on every normal triple of every
    valid presentation with n <= 24 and t <= 8."""
    triples = 0
    for n in range(1, 25):
        for t in range(1, 9):
            for k in range(n):
                for r in range(n):
                    try:
                        p = MetacyclicParams(n, t, k, r)
                    except BadPresentation:
                        continue
                    for v, i, c in normal_triples(p):
                        assert x_triples(p, v, i, c) == x_triples_reference(p, v, i, c), \
                            ((n, t, k, r), (v, i, c))
                        triples += 1
    assert triples == 35609


def test_x_classes_d8_trivial_n():
    p = MetacyclicParams(4, 2, 0, 3)
    # N = trivial: (4,0,2); the only class is (alpha=0, beta=1) -> H = <a^4> = 1
    cls = x_classes(p, 4, 0, 2)
    assert cls == [(0, 1)]
    G = p.group()
    K = triple_subgroup(G, p, 1, 0, o_v(p, 4))
    assert K.order == 4  # <a, b^2> = <a>
    assert triple_subgroup(G, p, 4, 0, 2).order == 1


def test_x_classes_singletons_when_r_trivial():
    p = MetacyclicParams(6, 2, 0, 1)
    for (v, i, c) in normal_triples(p):
        # r = 1: the ~ relation collapses to equality of alpha
        xt = x_triples(p, v, i, c)
        assert sorted(x_classes(p, v, i, c)) == sorted(xt)


@pytest.mark.parametrize("tup", ALL_METACYCLIC)
def test_fast_path_matches_engine(tup):
    p = MetacyclicParams(*tup)
    G = p.group()
    qs = [q for q in (3, 5, 7, 11, 13) if p.order % q][:2]
    for q in qs:
        F = make_field(q)
        s1, d1 = decompose(G, F)
        s2, d2 = metacyclic_decompose(p, F)
        assert s1.components == s2.components
        assert sorted(x.idempotent.key() for x in d1) == \
            sorted(x.idempotent.key() for x in d2)


def test_cyclic_tuple_reduces_to_abelian():
    p = MetacyclicParams(6, 1, 0, 1)  # Z_6
    s, _ = metacyclic_decompose(p, make_field(5))
    # orbits of units: F_5[Z6] = F_5^2 + F_25^2
    assert s.components == {(1, 1): 2, (1, 2): 2}


def test_fast_path_refuses_non_semisimple_before_building_the_group(monkeypatch):
    def unexpected(*args):
        raise AssertionError("metacyclic_group called")

    monkeypatch.setattr(metacyclic, "metacyclic_group", unexpected)
    with pytest.raises(NotSemisimple):
        metacyclic_decompose(MetacyclicParams(4, 2, 0, 3), make_field(2))
