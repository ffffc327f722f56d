import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rank_reference
from grpalg.algebra import GroupAlgebra, _rank
from grpalg.errors import MixedContext
from grpalg.field import make_field
from grpalg.groups import conjugacy_classes, metacyclic_group

S3 = metacyclic_group(3, 2, 0, 2)
F5 = make_field(5)
A = GroupAlgebra(S3, F5)

el6 = st.lists(st.integers(0, 4), min_size=6, max_size=6).map(
    lambda c: A.element(c))


@settings(max_examples=50, deadline=None)
@given(el6, el6, el6)
def test_ring_axioms(x, y, z):
    assert (x + y).key() == (y + x).key()
    assert ((x + y) + z).key() == (x + (y + z)).key()
    assert ((x * y) * z).key() == (x * (y * z)).key()
    assert (x * (y + z)).key() == (x * y + x * z).key()
    assert ((y + z) * x).key() == (y * x + z * x).key()
    assert (x - x).is_zero()
    assert (x * A.one()).key() == x.key() == (A.one() * x).key()


def test_basis_multiplication_matches_table():
    for g in range(6):
        for h in range(6):
            assert (A.basis(g) * A.basis(h)).key() == \
                A.basis(int(S3.m[g, h])).key()


def test_noncommutative():
    # a*b != b*a in S3 (indices: a = 2, b = 1)
    assert (A.basis(2) * A.basis(1)).key() != (A.basis(1) * A.basis(2)).key()


def test_conjugate_permutes_coefficients():
    x = A.element([1, 2, 3, 4, 0, 1])
    for g in range(6):
        c = x.conjugate(g)
        assert (A.basis(int(S3.inv_np[g])) * x * A.basis(g)).key() == c.key()


def test_class_sums_central():
    for cls in conjugacy_classes(S3):
        c = np.zeros(6, dtype=np.int16)
        c[list(cls)] = 1
        z = A.element(c)
        assert z.is_central()
        for g in range(6):
            assert (A.basis(g) * z).key() == (z * A.basis(g)).key()


def test_central_detection():
    assert A.one().is_central()
    assert not A.basis(1).is_central()


def test_mixed_context_rejected():
    B = GroupAlgebra(S3, make_field(7))
    with pytest.raises(MixedContext):
        A.one() + B.one()
    C = GroupAlgebra(metacyclic_group(4, 2, 0, 3), F5)
    with pytest.raises(MixedContext):
        A.one() * C.one()


def test_idempotent_predicates():
    one = A.one()
    assert one.is_idempotent() and not one.is_zero()
    # averaging idempotent over <a>: (1 + a + a^2)/3, 3^{-1} = 2 mod 5
    e = A.element([2, 0, 2, 0, 2, 0])
    assert e.is_idempotent()
    assert e.is_central()
    f = one - e
    assert f.is_idempotent()
    assert e.is_orthogonal_to(f)
    assert not e.is_orthogonal_to(one)


def test_ideal_dimension():
    assert A.ideal_dimension(A.one()) == 6
    e = A.element([2, 0, 2, 0, 2, 0])  # cuts F_5[S3/C3] = F_5[C2], dim 2
    assert A.ideal_dimension(e) == 2
    assert A.ideal_dimension(A.zero()) == 0


def test_element_validation():
    with pytest.raises(ValueError):
        A.element([1, 2, 3])
    with pytest.raises(ValueError):
        A.element([7, 0, 0, 0, 0, 0])


def test_to_str():
    assert A.zero().to_str() == "0"
    assert A.one().to_str() == "1"
    x = A.element([0, 0, 3, 1, 0, 0])
    assert x.to_str() == "3*a + a*b"


def test_extension_base_field_coefficients():
    F9 = make_field(3, 2)
    B = GroupAlgebra(metacyclic_group(5, 4, 0, 2), F9)
    x = B.basis(1)
    y = x.scale(5)  # index 5 = (2,1) = 2 + x
    assert (y + y).key() != y.key()
    assert (B.one() * y).key() == y.key()
    assert "(2,1)*" in y.to_str()


def _combinations(F, coef, base):
    """Rows sum_j coef[i, j] * base[j] over F, through the field tables."""
    out = np.zeros((coef.shape[0], base.shape[1]), dtype=np.int16)
    for j in range(base.shape[0]):
        out = F.add_np[out, F.mul_np[coef[:, j][:, None], base[j]]]
    return out


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2)])
def test_rank_matches_reference(p, a):
    """_rank against row-at-a-time elimination, on random matrices of rank
    at most k built as combinations of k random rows, some with zero
    columns and repeated rows."""
    F = make_field(p, a)
    rng = np.random.default_rng(1000 * p + a)
    deficient = 0
    for _ in range(40):
        nr, nc = rng.integers(1, 24, size=2)
        k = int(rng.integers(0, min(nr, nc) + 2))
        base = rng.integers(0, F.q, size=(k, nc)).astype(np.int16)
        rows = _combinations(F, rng.integers(0, F.q, size=(nr, k)), base)
        if rng.random() < 0.3:
            rows[:, rng.integers(0, nc)] = 0
        if rng.random() < 0.3:
            rows = np.concatenate([rows, rows[::2]])
        want = rank_reference(F, rows)
        assert _rank(F, rows) == want
        deficient += want < min(rows.shape)
    assert deficient >= 10


def test_ideal_dimension_matches_products():
    """The gathered rows of ideal_dimension are the products g*e."""
    rng = np.random.default_rng(3)
    for G, q in [(S3, 5), (metacyclic_group(4, 2, 2, 3), 3),
                 (metacyclic_group(7, 3, 0, 2), 2)]:
        B = GroupAlgebra(G, make_field(q))
        for e in [B.one(), B.zero(), B.element(rng.integers(0, q, G.order))]:
            rows = np.stack([(B.basis(g) * e).coeffs for g in range(G.order)])
            assert B.ideal_dimension(e) == rank_reference(B.field, rows)
