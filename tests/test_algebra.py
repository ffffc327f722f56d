import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    basis_vector,
    conjugacy_classes,
    convolution_reference,
    elementary_abelian,
    full_product,
    is_central,
    is_idempotent,
    is_normal,
    rank_reference,
)
from grpalg import algebra
from grpalg.algebra import (
    QUOTIENT_MIN_SUPPORT,
    _coset_representatives,
    _rank,
    ideal_dimension,
    to_str,
)
from grpalg.field import make_field
from grpalg.groups import (
    class_structure,
    d2_group,
    metacyclic_group,
    subgroup_closure,
)
from grpalg import idempotents
from grpalg.idempotents import _central_product, decompose

S3 = metacyclic_group(3, 2, 0, 2)
F5 = make_field(5)


def vector(coeffs):
    """The coefficient vector with the field indices `coeffs`."""
    return np.array(coeffs, dtype=np.int16)


def test_basis_multiplication_matches_table():
    for g in range(6):
        for h in range(6):
            gh = full_product(S3, F5, basis_vector(S3, g), basis_vector(S3, h))
            assert np.array_equal(gh, basis_vector(S3, int(S3.m[g, h])))


def test_noncommutative():
    # a*b != b*a in S3 (indices: a = 2, b = 1)
    a, b = basis_vector(S3, 2), basis_vector(S3, 1)
    assert not np.array_equal(full_product(S3, F5, a, b), full_product(S3, F5, b, a))


def test_class_sums_central():
    for cls in conjugacy_classes(S3):
        c = np.zeros(6, dtype=np.int16)
        c[list(cls)] = 1
        assert is_central(S3, c)
        for g in range(6):
            assert np.array_equal(full_product(S3, F5, basis_vector(S3, g), c),
                                  full_product(S3, F5, c, basis_vector(S3, g)))


def test_central_detection():
    assert is_central(S3, basis_vector(S3, 0))
    assert not is_central(S3, basis_vector(S3, 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([S3, metacyclic_group(4, 2, 0, 3), metacyclic_group(7, 3, 0, 2)]),
       st.data())
def test_is_central_matches_class_loop(G, data):
    # an element constant on classes, then one coefficient maybe changed
    classes = conjugacy_classes(G)
    values = data.draw(st.lists(st.integers(0, 4), min_size=len(classes),
                                max_size=len(classes)))
    c = np.zeros(G.order, dtype=np.int16)
    for cls, v in zip(classes, values):
        c[list(cls)] = v
    c[data.draw(st.integers(0, G.order - 1))] = data.draw(st.integers(0, 4))
    assert is_central(G, c) == all(len(set(c[list(cls)].tolist())) == 1
                                   for cls in classes)


def test_idempotent_predicates():
    one = basis_vector(S3, 0)
    assert is_idempotent(S3, F5, one) and one.any()
    # averaging idempotent over <a>: (1 + a + a^2)/3, 3^{-1} = 2 mod 5
    e = vector([2, 0, 2, 0, 2, 0])
    assert is_idempotent(S3, F5, e)
    assert is_central(S3, e)
    f = F5.add_np[one, F5.neg_np[e]]  # 1 - e
    assert is_idempotent(S3, F5, f)
    assert not full_product(S3, F5, e, f).any()
    assert not full_product(S3, F5, f, e).any()
    assert full_product(S3, F5, e, one).any()
    assert full_product(S3, F5, one, e).any()


def test_ideal_dimension():
    assert ideal_dimension(S3, F5, basis_vector(S3, 0)) == 6
    e = vector([2, 0, 2, 0, 2, 0])  # cuts F_5[S3/C3] = F_5[C2], dim 2
    assert ideal_dimension(S3, F5, e) == 2
    assert ideal_dimension(S3, F5, vector([0] * 6)) == 0


def test_to_str():
    assert to_str(S3, F5, vector([0] * 6)) == "0"
    assert to_str(S3, F5, basis_vector(S3, 0)) == "1"
    assert to_str(S3, F5, vector([0, 0, 3, 1, 0, 0])) == "3*a + a*b"


def test_extension_base_field_coefficients():
    F9 = make_field(3, 2)
    M5 = metacyclic_group(5, 4, 0, 2)
    y = F9.mul_np[5, basis_vector(M5, 1)]  # index 5 = (2,1) = 2 + x
    assert not np.array_equal(F9.add_np[y, y], y)
    assert np.array_equal(full_product(M5, F9, basis_vector(M5, 0), y), y)
    assert "(2,1)*" in to_str(M5, F9, y)


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


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2)])
def test_rank_skips_empty_column_blocks(p, a):
    """_rank against row-at-a-time elimination on wide matrices whose
    nonzero columns are separated by runs of zero columns around the
    64-column block _rank tests at once, so pivots fall on both sides of
    block edges, and after the last pivot."""
    F = make_field(p, a)
    rng = np.random.default_rng(7000 + 10 * p + a)
    for _ in range(40):
        gaps = rng.choice([1, 2, 63, 64, 65, 66, 130], size=int(rng.integers(1, 8)))
        live = np.cumsum(gaps) - 1
        nc = int(live[-1]) + 1 + int(rng.choice([0, 1, 64, 100]))
        nr = int(rng.integers(1, 12))
        k = int(rng.integers(1, min(nr, live.size) + 1))
        base = np.zeros((k, nc), dtype=np.int16)
        base[:, live] = rng.integers(0, F.q, size=(k, live.size))
        rows = _combinations(F, rng.integers(0, F.q, size=(nr, k)), base)
        assert _rank(F, rows) == rank_reference(F, rows)


def test_ideal_dimension_matches_products():
    """The gathered rows of ideal_dimension are the products g*e."""
    rng = np.random.default_rng(3)
    for G, q in [(S3, 5), (metacyclic_group(4, 2, 2, 3), 3),
                 (metacyclic_group(7, 3, 0, 2), 2)]:
        F = make_field(q)
        for c in [basis_vector(G, 0), np.zeros(G.order, dtype=np.int16),
                  rng.integers(0, q, G.order).astype(np.int16)]:
            rows = np.stack([full_product(G, F, basis_vector(G, g), c)
                             for g in range(G.order)])
            assert ideal_dimension(G, F, c) == rank_reference(F, rows)


def _on(rng, q, n, members, sparse):
    """A random coefficient vector supported inside `members`: nonzero on
    all of them, or on a random part of them when `sparse`."""
    c = np.zeros(n, dtype=np.int16)
    c[members] = rng.integers(1, q, len(members))
    if sparse:
        c[members] *= rng.random(len(members)) < 0.5
    return c


M37 = metacyclic_group(37, 4, 0, 6)                 # a^i b^j is 4*i + j
D37 = [4 * i + j for i in range(37) for j in (0, 2)]  # <a, b^2>, index 2


def test_ideal_dimension_on_subgroup_support():
    """ideal_dimension eliminates one block over the subgroup S generated
    by the support and multiplies by [G:S]; it must equal the rank of all
    products g*e.  Supports: the normal <a> of M(7,3,0,2); the non-normal,
    non-abelian <a^3, b> = S_3 of M(9,2,0,8) = D_9; {a^3, b}, not a
    subgroup itself, which generates that S_3; and <a, b^2> = D_37 of
    M(37,4,0,6), of order 74 > QUOTIENT_MIN_SUPPORT, so the stabilizer
    quotient runs (on random elements the stabilizer is trivial)."""
    rng = np.random.default_rng(18)
    M7, D9 = metacyclic_group(7, 3, 0, 2), metacyclic_group(9, 2, 0, 8)
    a7 = [3 * i for i in range(7)]                  # a^i b^j is i*t + j
    s3 = [2 * i + j for i in (0, 3, 6) for j in (0, 1)]
    assert not is_normal(D9, subgroup_closure(D9, s3))
    assert subgroup_closure(D9, [6, 1]).members == tuple(s3)
    for G, members in [(M7, a7), (D9, s3), (D9, [6, 1]), (M37, D37)]:
        for p, a in [(2, 1), (3, 1), (2, 2)]:
            F = make_field(p, a)
            for sparse in (False, True, True):
                c = _on(rng, F.q, G.order, members, sparse)
                rows = np.stack([full_product(G, F, basis_vector(G, g), c)
                                 for g in range(G.order)])
                assert ideal_dimension(G, F, c) == rank_reference(F, rows)


def test_ideal_dimension_of_large_support_builds_no_closure(monkeypatch):
    """A support of more than |G|/2 elements lies in no proper subgroup, so
    ideal_dimension takes S = G without building the closure, and still
    equals the rank of all products g*e."""
    rng = np.random.default_rng(7)
    monkeypatch.setattr(algebra, "subgroup_closure", None)
    for G, q in [(S3, 5), (metacyclic_group(4, 2, 2, 3), 3), (M37, 2)]:
        F = make_field(q)
        c = np.zeros(G.order, dtype=np.int16)
        c[rng.choice(G.order, G.order // 2 + 1, replace=False)] = 1
        rows = np.stack([full_product(G, F, basis_vector(G, g), c)
                         for g in range(G.order)])
        assert ideal_dimension(G, F, c) == rank_reference(F, rows)


def test_ideal_dimension_with_nontrivial_stabilizer():
    """Elements supported on S = <a, τ> = D_37 of G = M(37,4,0,6), τ = b^2,
    with |S| = 74 > QUOTIENT_MIN_SUPPORT, each against the rank of all
    products g*e:
      - central elements, constant on the classes of G inside S: their
        stabilizer is normal in G;
      - random on the double cosets K s K of K = <τ>, which is normal in
        neither S nor G: the stabilizer holds K, so rows and columns are
        constant on left cosets of a non-normal subgroup;
      - over F_149, u(1 + τ) and (1 + τ)u with u = a − ζ, ζ of order 37:
        invariant under K on one side only.  The cosets of K on that side
        are represented by the rotations R = <a>, and F_q[R]·u misses the
        character a ↦ ζ that u·τ = τ·ū reaches, so a one-sided stabilizer
        would give 2·36 = 72 where the ideal has dimension 74."""
    rng = np.random.default_rng(26)
    G, S, K = M37, D37, [0, 2]
    assert subgroup_closure(G, S).members == tuple(S) and len(S) > QUOTIENT_MIN_SUPPORT
    assert not is_normal(G, subgroup_closure(G, K))
    classes = [c for c in conjugacy_classes(G) if c[0] in S]
    double = sorted({tuple(np.unique(G.m[np.ix_(K, G.m[s, K])])) for s in S})
    assert sum(map(len, classes)) == sum(map(len, double)) == len(S)
    cases = []
    for p, a in [(2, 1), (3, 1), (2, 2)]:
        F = make_field(p, a)
        for parts in (classes, double):
            for _ in range(2):
                c = np.zeros(G.order, dtype=np.int16)
                for part in parts:
                    c[list(part)] = rng.integers(1, F.q)
                cases.append((F, c, None))
                if parts is double:
                    # K-double cosets are unions of cosets sK: at most 37 representatives
                    assert len(_coset_representatives(G, c, np.array(S))) <= 37
    F = make_field(149)
    zeta = next(z for z in range(2, 149) if pow(z, 37, 149) == 1)
    u = vector([149 - zeta, 0, 0, 0, 1] + [0] * (G.order - 5))
    one_tau = vector([1, 0, 1] + [0] * (G.order - 3))
    rotations = np.array(S[::2])
    for c in (full_product(G, F, u, one_tau), full_product(G, F, one_tau, u)):
        one_sided = c[G.m[np.ix_(G.inv_np[rotations], rotations)]]
        assert 2 * _rank(F, one_sided) == 72
        cases.append((F, c, 74))
    for F, c, want in cases:
        rows = np.stack([full_product(G, F, basis_vector(G, g), c)
                         for g in range(G.order)])
        got = ideal_dimension(G, F, c)
        assert got == rank_reference(F, rows)
        assert want in (None, got)


def _one_minus(F, e):
    """The coefficients of 1 − e."""
    rest = F.neg_np[e]
    rest[0] = F.add_np[1, rest[0]]
    return rest


def test_ideal_dimension_of_descriptors_matches_full_gather():
    """Every primitive central idempotent e of F_2[M(31,5,0,2)], F_2[Z_3^4]
    and F_5[M(43,2,0,42)] against the rank of the full |G|x|G| gather of
    the rows g*e, as ideal_dimension(e) and as |G| − ideal_dimension(1 − e),
    the route _validate takes when d^2·l is more than |G|/2.  All three
    groups have order above QUOTIENT_MIN_SUPPORT, so supports that generate
    G take the stabilizer quotient: every component of Z_3^4, the linear
    ones of the other two."""
    for G, q in [(metacyclic_group(31, 5, 0, 2), 2), (elementary_abelian(3, 4), 2),
                 (metacyclic_group(43, 2, 0, 42), 5)]:
        F = make_field(q)
        _, descriptors = decompose(G, F)
        assert G.order > QUOTIENT_MIN_SUPPORT
        for d in descriptors:
            e = d.idempotent.coeffs
            full = _rank(F, e[G.m[G.inv_np]])
            assert ideal_dimension(G, F, e) == full, (G.name, d)
            assert G.order - ideal_dimension(G, F, _one_minus(F, e)) == full, (G.name, d)


def test_quotient_reaches_rank_with_small_blocks(monkeypatch):
    """On F_2[M(73,9,0,2)] the linear components (the trivial one among
    them) are supported on all 657 elements, with the derived subgroup <a>
    of order 73 in their stabilizer: _rank sees at most a 9x9 block, not
    657x657."""
    G = metacyclic_group(73, 9, 0, 2)
    F = make_field(2)
    _, descriptors = decompose(G, F)
    shapes = []

    def recording(F, rows):
        shapes.append(rows.shape)
        return _rank(F, rows)

    monkeypatch.setattr(algebra, "_rank", recording)
    linear = [d for d in descriptors if d.d == 1]
    assert sorted(d.l for d in linear) == [1, 2, 6]
    for d in linear:
        assert ideal_dimension(G, F, d.idempotent.coeffs) == d.l
    assert len(shapes) == 3
    assert all(r == c <= 9 for r, c in shapes), shapes


# F_2, F_3, F_4, F_5, F_7 and F_9 as (p, a)
PRODUCT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


def _supports(rng, q, n):
    """Coefficient vectors with no support, one support element (the last
    and a random one), a sparse and a full support."""
    out = [np.zeros(n, dtype=np.int16)]
    for g in (n - 1, int(rng.integers(n))):
        x = np.zeros(n, dtype=np.int16)
        x[g] = rng.integers(1, q)
        out.append(x)
    sparse = rng.integers(0, q, n) * (rng.random(n) < 0.3)
    out += [sparse.astype(np.int16), rng.integers(1, q, n).astype(np.int16)]
    return out


@pytest.mark.parametrize("p,a", PRODUCT_FIELDS)
def test_product_matches_convolution(p, a, monkeypatch):
    """The class-coordinate product of _validate, E·W at the class
    representatives for central E and W, against the pairwise definition
    at the representatives, for class functions with random, zero, sparse
    and full coordinates.  Each product is taken with PRODUCT_BLOCK set to
    1, 2 and 3 as well, so the supports of these small groups cross block
    boundaries."""
    F = make_field(p, a)
    rng = np.random.default_rng(10 * p + a)
    blocks = (1, 2, 3, idempotents.PRODUCT_BLOCK)
    for G in (S3, metacyclic_group(4, 2, 0, 3), d2_group(1), metacyclic_group(7, 3, 0, 2)):
        class_of, reps, idx = class_structure(G)
        classes = _supports(rng, F.q, reps.size)
        for u in classes:
            for w in classes:
                want = convolution_reference(G, F, u[class_of], w[class_of])
                for block in blocks:
                    monkeypatch.setattr(idempotents, "PRODUCT_BLOCK", block)
                    got = _central_product(F, idx, u[class_of], w)
                    assert np.array_equal(got, want[reps]), block


@pytest.mark.parametrize("p,a", PRODUCT_FIELDS)
def test_sum_rows_matches_fold(p, a):
    """BaseField.sum_rows against a left-to-right fold through add_np, on
    even and odd numbers of rows; no rows sum to zeros, and the sum of one
    row is a copy of it."""
    F = make_field(p, a)
    rng = np.random.default_rng(100 * p + a)
    assert np.array_equal(F.sum_rows(np.zeros((0, 5), dtype=np.int16)), np.zeros(5))
    for nrows in (1, 2, 3, 4, 5, 7, 8, 31, 64):
        rows = rng.integers(0, F.q, size=(nrows, 5)).astype(np.int16)
        before = rows.copy()
        want = rows[0].copy()
        for row in rows[1:]:
            want = F.add_np[want, row]
        got = F.sum_rows(rows)
        assert got.dtype == np.int16 and np.array_equal(got, want), nrows
        got[:] = 0
        assert np.array_equal(rows, before)
