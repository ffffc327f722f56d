"""Independent verification of the decomposition: split the center of
F_q[G] into primitive idempotents by plain linear algebra (minimal
polynomials of class sums, factorization, CRT interpolation), and count
the expected number of components from q-classes of conjugacy classes.

The split runs in class coordinates, the classical class-matrix route of
Dixon (Numer. Math. 1967) and Schneider (1990): a central element w has one
coordinate per conjugacy class, and the product C_i·w with a class sum is
F.sum_rows(w[idx[i]]), one gather through an index array built once per
group (class_structure) and one field sum.  A CRT block is one sum_rows of
the powers C_i^j·e scaled by the interpolating polynomial's coefficients.
Only the final blocks are lifted to |G| coordinates.  The oracle shares
with the engine only the group table, `conjugacy_classes` with its
`class_index`, the field tables with `BaseField.sum_rows` and the
squarefree `factor_polynomial`; it uses none of the engine's subgroups,
triples or group-algebra products.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .algebra import AlgebraElement, GroupAlgebra
from .errors import NotSemisimple
from .field import (
    BaseField,
    factor_polynomial,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .groups import FiniteGroup, class_index, conjugacy_classes


def q_class_count(G: FiniteGroup, q: int) -> int:
    """Number of orbits of conjugacy classes under class(g) -> class(g^q):
    the number of simple components of F_q[G] when gcd(q,|G|) = 1."""
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    classes = conjugacy_classes(G)
    step = class_index(G)[G.power(np.array([c[0] for c in classes]), q)].tolist()
    seen = set()
    count = 0
    for i in range(len(classes)):
        if i in seen:
            continue
        count += 1
        j = i
        while j not in seen:
            seen.add(j)
            j = step[j]
    return count


def class_structure(G: FiniteGroup):
    """(class_of, idx) for the center of F_q[G] in class coordinates, built
    once per group.  A central W has one coordinate w[l] per class, W(g) =
    w[class_of[g]].  Since (C_i·W)(z) = Σ_{x∈C_i} W(x⁻¹z), the product
    with the class sum C_i at the representative z_l of class l is the sum
    over the rows of w[idx[i]][:, l], where idx[i] = class_of[x⁻¹ z_l] is a
    |C_i| × k array."""
    if "class_structure" not in G._cache:
        classes = conjugacy_classes(G)
        class_of = class_index(G)
        reps = [cls[0] for cls in classes]
        idx = [class_of[G.m[np.ix_(G.inv_np[list(cls)], reps)]] for cls in classes]
        G._cache["class_structure"] = (class_of, idx)
    return G._cache["class_structure"]


def _minimal_polynomial(F, idx_i, e):
    """Minimal polynomial of multiplication by the class sum C_i on the
    ideal generated by the central idempotent e (all in class coordinates);
    also returns the power list [e, C_i e, C_i² e, ...] so that polynomials
    can be evaluated at C_i cheaply.

    Gauss-Jordan over the power rows with tracked combinations: each basis
    row is fully reduced against the others, so the first power that
    single-pass-reduces to zero yields the (monic) dependency directly.
    """
    nmax = len(e) + 1
    powers = [e]
    basis = {}  # pivot column -> (reduced row, combo over power indices)
    deg = 0
    while True:
        v = powers[-1].copy()
        combo = np.zeros(nmax, dtype=np.int16)
        combo[deg] = 1
        for piv, (br, bc) in basis.items():
            c = int(v[piv])
            if c:
                v = F.add_np[v, F.neg_np[F.mul_np[c, br]]]
                combo = F.add_np[combo, F.neg_np[F.mul_np[c, bc]]]
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return poly_trim([int(c) for c in combo]), powers
        piv = int(nz[0])
        inv = F.inv(int(v[piv]))
        v = F.mul_np[inv, v]
        combo = F.mul_np[inv, combo]
        for p2, (br, bc) in list(basis.items()):
            c = int(br[piv])
            if c:
                basis[p2] = (F.add_np[br, F.neg_np[F.mul_np[c, v]]],
                             F.add_np[bc, F.neg_np[F.mul_np[c, combo]]])
        basis[piv] = (v, combo)
        powers.append(F.sum_rows(powers[-1][idx_i]))  # C_i · powers[-1]
        deg += 1


def center_split(G: FiniteGroup, F: BaseField):
    """Primitive idempotents of the center of F_q[G], found by refining
    blocks with CRT interpolation idempotents of class-sum minimal
    polynomials, in class coordinates.  Returned as elements of F_q[G],
    sorted by coefficient tuple."""
    q = F.q
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    class_of, idx = class_structure(G)
    one = np.zeros(len(idx), dtype=np.int16)
    one[class_of[0]] = 1
    blocks = [one]
    for idx_i in idx:
        refined = []
        for e in blocks:
            mp, powers = _minimal_polynomial(F, idx_i, e)
            mp = poly_scale(F, F.inv(mp[-1]), mp)
            try:
                factors = factor_polynomial(F, mp)
            except ValueError:  # mp is monic of degree >= 1: not squarefree
                raise NotSemisimple(
                    "class sum has a repeated minimal-polynomial factor") from None
            if len(factors) == 1:
                refined.append(e)
                continue
            for h in factors:
                # u = (mp/h) * inv(mp/h mod h); u(C_i)*e is the h-block piece
                comp = poly_divmod(F, mp, list(h))[0]
                comp_mod = poly_mod(F, comp, list(h))
                inv = _poly_inverse_mod(F, comp_mod, list(h))
                u = np.array(poly_mod(F, poly_mul(F, comp, inv), mp))
                refined.append(F.sum_rows(F.mul_np[u[:, None], np.array(powers[:u.size])]))
        blocks = refined
    A = GroupAlgebra(G, F)
    return sorted((AlgebraElement(A, b[class_of]) for b in blocks),
                  key=lambda e: e.key())


def _poly_inverse_mod(F, f, m):
    """Inverse of f modulo m (coprime), by extended Euclid."""
    r0, r1 = poly_trim(list(m)), poly_trim(list(f))
    t0, t1 = [], [F.one]
    while r1:
        qq, rem = poly_divmod(F, r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, poly_sub(F, t0, poly_mul(F, qq, t1))
    if len(r0) != 1:
        raise NotSemisimple("minimal-polynomial factors are not coprime")
    return poly_scale(F, F.inv(r0[0]), t0)
