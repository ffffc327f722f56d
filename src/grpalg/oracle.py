"""Independent verification of the decomposition: split the center of
F_q[G] into primitive idempotents by plain linear algebra (minimal
polynomials of class sums, factorization, CRT interpolation), and count
the expected number of components from q-classes of conjugacy classes.

The split runs in class coordinates, the classical class-matrix route of
Dixon (Numer. Math. 1967) and Schneider (1990): a central element w has one
coordinate per conjugacy class, and the product C_i·w with a class sum is
F.sum_rows(w[idx[x]]) over the x in C_i, one gather through the index
array of groups.class_structure and one field sum.  A CRT block is one
sum_rows of the powers C_i^j·e scaled by the interpolating polynomial's
coefficients.  The split stops early, before the next class sum, once
lower bounds on the block dimensions add up to the class count k, which
certifies every block primitive (proof in center_split); it never reads
q_class_count, which stays the independent count.  Only the final blocks
are lifted to |G| coordinates.  The oracle shares class_structure with
the engine's checks (idempotents._validate), and with the whole engine the
group table and the field tables with BaseField.sum_rows; it shares
nothing with the engine's constructions: no subgroup, triple, trace or
idempotent formula.  factor_polynomial memoizes on the field, so a minimal
polynomial met again, in this split or in another group's over the same
field, is factored once.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .algebra import AlgebraElement
from .errors import InternalInconsistency, NotSemisimple
from .field import (
    BaseField,
    factor_polynomial,
    poly_deg,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .groups import FiniteGroup, class_structure


def q_class_count(G: FiniteGroup, q: int) -> int:
    """Number of orbits of conjugacy classes under class(g) -> class(g^q):
    the number of simple components of F_q[G] when gcd(q,|G|) = 1."""
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    class_of, reps, _ = class_structure(G)
    step = class_of[G.power(reps, q)].tolist()
    seen = set()
    count = 0
    for i in range(reps.size):
        if i in seen:
            continue
        count += 1
        j = i
        while j not in seen:
            seen.add(j)
            j = step[j]
    return count


def _minimal_polynomial(F, idx_i, e):
    """Minimal polynomial of multiplication by the class sum C_i on the
    ideal generated by the central idempotent e (all in class coordinates);
    also returns the power list [e, C_i e, C_i² e, ...] so that polynomials
    can be evaluated at C_i cheaply.

    Elimination over the power rows with tracked combinations, in one
    pass: each new power is reduced against the stored rows in insertion
    order, and every stored row is zero at the pivots of the rows stored
    before it, so a reduced power is zero at every pivot.  The first power
    that reduces to zero yields the dependency directly, monic because its
    combination has 1 at its own index and the stored combinations live
    below it.
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
            return combo[:deg + 1].tolist(), powers
        piv = int(nz[0])
        inv = F.inv(int(v[piv]))
        v = F.mul_np[inv, v]
        combo = F.mul_np[inv, combo]
        basis[piv] = (v, combo)
        powers.append(F.sum_rows(powers[-1][idx_i]))  # C_i · powers[-1]
        deg += 1


def center_split(G: FiniteGroup, F: BaseField):
    """Primitive idempotents of the center Z of F_q[G], found by refining
    blocks with CRT interpolation idempotents of class-sum minimal
    polynomials, in class coordinates.  Returned as elements of F_q[G],
    sorted by coefficient tuple.

    Each block e carries a lower bound d on dim_{F_q} Ze: 1 for the start
    block 1, deg h for the CRT piece of an irreducible factor h, and
    max(d, deg mp) when the minimal polynomial mp of a class sum on Ze is
    irreducible.  Before each class sum the split stops once Σ d = k, the
    number of classes.  This certifies every block primitive:
      - d is the dimension of a subfield of Ze: F_q·e for the start block,
        else F_q[C_i e] ≅ F_q[x]/(f) for the irreducible minimal
        polynomial f (h or mp) of C_i on Ze, so d ≤ dim Ze;
      - the blocks are orthogonal idempotents summing to 1, so
        Σ dim Ze = dim Z = k;
      - so Σ d = k forces each Ze to be that subfield, a field, and a
        field has no idempotents but 0 and 1.
    The full split could therefore split no block further, and the result
    is the same.  The premise Σ e = 1 is checked on the way out
    (InternalInconsistency otherwise)."""
    q = F.q
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    class_of, reps, idx = class_structure(G)
    one = np.zeros(reps.size, dtype=np.int16)
    one[class_of[0]] = 1
    blocks = [(one, 1)]  # (e, d): d <= dim Ze
    for i in range(reps.size):
        if sum(d for _, d in blocks) == reps.size:
            break  # every Ze is a field: each e is primitive
        idx_i = idx[class_of == i]  # C_i·W at reps[l] is Σ_{x in C_i} w[idx_i[x, l]]
        refined = []
        for e, d in blocks:
            mp, powers = _minimal_polynomial(F, idx_i, e)
            try:
                factors = factor_polynomial(F, mp)
            except ValueError:  # mp is monic of degree >= 1: not squarefree
                raise NotSemisimple(
                    "class sum has a repeated minimal-polynomial factor") from None
            if len(factors) == 1:
                refined.append((e, max(d, poly_deg(mp))))
                continue
            for h in factors:
                # u = (mp/h) * inv(mp/h mod h), of degree < deg mp as
                # deg inv < deg h; u(C_i)*e is the h-block piece
                comp = poly_divmod(F, mp, list(h))[0]
                comp_mod = poly_mod(F, comp, list(h))
                inv = _poly_inverse_mod(F, comp_mod, list(h))
                u = np.array(poly_mul(F, comp, inv))
                refined.append((F.sum_rows(F.mul_np[u[:, None], np.array(powers[:u.size])]),
                                poly_deg(h)))
        blocks = refined
    blocks = np.array([e for e, _ in blocks])
    total = F.sum_rows(blocks)
    if not np.array_equal(total, one):
        raise InternalInconsistency(
            f"center blocks sum to {total.tolist()} in class coordinates, not 1")
    return sorted((AlgebraElement(b[class_of]) for b in blocks),
                  key=lambda e: e.key())


def _poly_inverse_mod(F, f, m):
    """Inverse of f modulo m (coprime), by extended Euclid."""
    r0, r1 = poly_trim(list(m)), poly_trim(list(f))
    t0, t1 = [], [1]
    while r1:
        qq, rem = poly_divmod(F, r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, poly_sub(F, t0, poly_mul(F, qq, t1))
    if len(r0) != 1:
        raise NotSemisimple("minimal-polynomial factors are not coprime")
    return poly_scale(F, F.inv(r0[0]), t0)
