import pytest

from conftest import d1_normal_subgroup_list, is_normal, normal_subgroups
from grpalg.errors import EvenQ, NoClosedForm
from grpalg.families import d1_closed_form, d2_closed_form, lambda_of
from grpalg.field import make_field, mult_order
from grpalg.groups import d1_group, d2_group
from grpalg.idempotents import decompose

GRID_Q = (3, 5, 7, 13)


def test_lambda_of():
    assert lambda_of(5) == 2      # 5 - 1 = 4
    assert lambda_of(3) == 2      # 3 + 1 = 4
    assert lambda_of(7) == 3      # 7 + 1 = 8
    assert lambda_of(13) == 2     # 13 - 1 = 12 = 4*3
    assert lambda_of(17) == 4
    assert lambda_of(31) == 5
    with pytest.raises(EvenQ):
        lambda_of(4)
    with pytest.raises(ValueError):
        lambda_of(1)    # q - 1 = 0 has no 2-adic valuation


def test_order_formula_above_lambda():
    # ord_{2^g}(q) = 2^{g-lambda} for g >= lambda + 1
    for q in GRID_Q:
        lam = lambda_of(q)
        for g in range(lam + 1, 9):
            assert mult_order(1 << g, q) == 1 << (g - lam), (q, g)


def test_spot_values():
    assert d1_closed_form(2, 5).components == {(1, 1): 8, (2, 1): 2}
    assert d2_closed_form(2, 3).components == {(1, 1): 4, (1, 2): 2, (2, 2): 1}
    # exact evaluation of the m >= lambda+2 display at (m=4, q=5)
    assert d1_closed_form(4, 5).components == {(1, 1): 16, (1, 2): 8, (2, 4): 2}


def test_closed_forms_reject_m_below_1():
    """m < 1 is a ValueError for every q; NoClosedForm is kept for m = 1
    with q = 3 (mod 4), where the group exists."""
    for form in (d1_closed_form, d2_closed_form):
        for m, q in [(0, 3), (0, 5), (-1, 7)]:
            with pytest.raises(ValueError, match="^m must be >= 1$") as exc:
                form(m, q)
            assert not isinstance(exc.value, NoClosedForm)
        with pytest.raises(NoClosedForm):
            form(1, 3)


def test_dimension_identity():
    for q in GRID_Q:
        for m in range(2, 8):
            for form in (d1_closed_form, d2_closed_form):
                amap = form(m, q).components
                assert sum(d * d * l * mult
                           for (d, l), mult in amap.items()) == 1 << (m + 2)
                assert all(mult > 0 for mult in amap.values())


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", GRID_Q)
def test_closed_forms_match_engine(m, q):
    F = make_field(q)
    s1, _ = decompose(d1_group(m), F)
    assert s1.components == d1_closed_form(m, q).components
    s2, _ = decompose(d2_group(m), F)
    assert s2.components == d2_closed_form(m, q).components


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", GRID_Q)
def test_aut_closed_forms_match_engine(m, q):
    F = make_field(q)
    s1, _ = decompose(d1_group(m), F)
    assert s1.aut() == d1_closed_form(m, q).aut()
    s2, _ = decompose(d2_group(m), F)
    assert s2.aut() == d2_closed_form(m, q).aut()


def test_aut_structure_spot_values():
    # D1(2) over F_5: S_8 + (SL_2(F_5)^(2) . S_2)
    assert d1_closed_form(2, 5).aut() == "S_8 + ((SL_2(F_5))^(2) . S_2)"
    # D2(2) over F_3: S_4 + (Z_2^(2) . S_2) + (SL_2(F_9) . Z_2)
    assert d2_closed_form(2, 3).aut() == (
        "S_4 + ((Z_2)^(2) . S_2) + (SL_2(F_3^2) . Z_2)")


def test_h_lambda_term_for_large_m():
    # m >= lambda+2 produces the block
    # (SL_2(F_{q^{2^{m-lambda}}}) . Z_{2^{m-lambda}})^(2^{lambda-1}) . S_{2^{lambda-1}}
    # at m = 5, q = 3 (lambda = 2): l = 2^3 and multiplicity 2^1
    blocks = d1_closed_form(5, 3).aut().split(" + ")
    assert "(((SL_2(F_3^8) . Z_8))^(2) . S_2)" in blocks


def test_pure_symmetric_for_split_abelian_like():
    # all components (1,1): the aut term is a single symmetric group
    from grpalg.idempotents import WedderburnSummary
    s = WedderburnSummary(order=4, q=5, components={(1, 1): 4})
    assert s.aut() == "S_4"
    # F_5[1] = F_5: every piece of the one block is trivial
    one = WedderburnSummary(order=1, q=5, components={(1, 1): 1})
    assert one.aut() == "1"


@pytest.mark.parametrize("m", [2, 3])
def test_d1_normal_subgroup_list(m):
    listed = d1_normal_subgroup_list(m)
    listed_sets = {tuple(H.members.tolist()) for H in listed}
    assert len(listed_sets) == len(listed)
    G = d1_group(m)
    for H in listed:
        assert is_normal(G, H)
        assert H.order > 1
    brute = {tuple(N.members.tolist()) for N in normal_subgroups(G) if N.order > 1}
    assert listed_sets == brute


def test_closed_form_guards():
    with pytest.raises(EvenQ):
        d1_closed_form(3, 4)
    with pytest.raises(ValueError):
        d1_closed_form(1, 3)   # m >= 2 required on the q = -1 branch
    with pytest.raises(ValueError):
        d1_normal_subgroup_list(1)
