"""The group algebra F_q[G] as arrays and functions of (G, F): an element
is a coefficient vector indexed by group elements, with coefficients
stored as base-field indices in a numpy int16 array.  An AlgebraElement
is the read-only record of an idempotent: its coeffs and key();
to_str(G, F, coeffs) writes an element out.  Products of central elements
are taken in class coordinates (groups.class_structure, in
idempotents._validate and the oracle); no general product is needed.  The
dimension ideal_dimension(G, F, c) of an ideal F_q[G]·e is [G:S] times the
rank of one |S|×|S| block, S the subgroup that the support of e generates.
When |S| exceeds QUOTIENT_MIN_SUPPORT the block shrinks to one row and one
column per left coset of K, the two-sided stabilizer of e in S.  The block
is read through the group table, and the rank elimination clears each
pivot column in all remaining rows at once.
"""

from __future__ import annotations

import numpy as np

from .field import BaseField
from .groups import FiniteGroup, subgroup_closure

# Supports of at most this many elements keep the |S|×|S| block: it is the
# width of the column block _rank tests at once, and below it the gathers
# that find the stabilizer cost more than the smaller block saves.
QUOTIENT_MIN_SUPPORT = 64
STABILIZER_BLOCK = 64  # candidates per stabilizer test: 64·|S| cells at a time


def ideal_dimension(G: FiniteGroup, F: BaseField, c: np.ndarray) -> int:
    """dim_{F_q} of the left ideal F_q[G]·e, e the element with
    coefficients c: the span of the rows g·e whose h-coefficient is
    e[g⁻¹h]; for central e, the two-sided ideal.

    Let S be the subgroup generated by the support of e: G when the
    support exceeds |G|/2, the most a proper subgroup holds.  Row g is
    supported on the left coset gS, since e[g⁻¹h] ≠ 0 puts g⁻¹h in S.
    So the |G|×|G| matrix is block-diagonal over the left cosets of S.
    For g = xs and h = xt with s, t in S, entry (g, h) is e[s⁻¹t]: the
    block of the coset xS is B[s, t] = e[s⁻¹t] with rows and columns
    relabeled by s ↦ xs.  The rank is [G:S]·rank(B), for every e.

    When |S| > QUOTIENT_MIN_SUPPORT, B shrinks further.  Let K be the k
    in S with e[sk] = e[s] = e[ks] for every s in S.  Each of the two
    conditions holds on a subgroup (e[sk₁k₂] = e[sk₁] = e[s], and
    e[sk⁻¹] = e[sk⁻¹·k]; the same on the left), so K is one, and s = 1
    puts it inside {k : e[k] = e[1]}.  Then B[s, tk] = e[s⁻¹t·k] =
    e[s⁻¹t] and B[sk, t] = e[k⁻¹·s⁻¹t] = e[s⁻¹t]: rows and columns are
    constant on the left cosets of K.  With R one representative per
    coset and P the |S|×|R| 0/1 matrix of coset membership,
    B = P·B[R, R]·Pᵀ, and P has full column rank, so rank(B) =
    rank(B[R, R]), an [S:K]-square block, for every e."""
    support = np.flatnonzero(c)
    S = (np.arange(G.order) if 2 * support.size > G.order
         else subgroup_closure(G, support.tolist()).members)
    reps = _coset_representatives(G, c, S) if S.size > QUOTIENT_MIN_SUPPORT else S
    # B[R, R] = e[r⁻¹r']: the table rows r⁻¹, their columns R, then e on
    # those |R|×|R| entries (faster than one two-axis gather)
    block = c.take(G.m[G.inv_np.take(reps)].take(reps, axis=1))
    return G.order // S.size * _rank(F, block)


class AlgebraElement:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    def key(self):
        return tuple(int(c) for c in self.coeffs)


def to_str(G: FiniteGroup, F: BaseField, coeffs: np.ndarray) -> str:
    """The element of F_q[G] with coefficients coeffs, as a sum of labels."""
    parts = []
    for g in np.nonzero(coeffs)[0]:
        c = int(coeffs[g])
        lab = G.labels[g]
        if c == 1:
            parts.append(lab)
        elif F.a == 1:
            parts.append(f"{c}*{lab}")
        else:
            parts.append("(" + ",".join(map(str, F.coeffs_of(c))) + f")*{lab}")
    return " + ".join(parts) if parts else "0"


def _coset_representatives(G, c, S):
    """One element of each left coset sK of S, K the two-sided stabilizer
    {k in S : c[sk] = c[s] = c[ks] for all s in S} of the coefficient
    vector c supported in S (see ideal_dimension): the least member of
    each coset."""
    on_S = c[S]
    cand = S[on_S == c[0]]
    least = S  # per s, the least member of sK found so far
    for k in np.split(cand, range(STABILIZER_BLOCK, cand.size, STABILIZER_BLOCK)):
        right = G.m.take(k, axis=1)[S]                 # s·k
        left = G.m[k].take(S, axis=1)                  # k·s
        in_K = ((c.take(right) == on_S[:, None]).all(axis=0)
                & (c.take(left) == on_S).all(axis=1))
        least = np.minimum(least, right[:, in_K].min(axis=1, initial=G.order))
    return np.unique(least)


def _rank(F, rows: np.ndarray) -> int:
    """Rank over F_q of a matrix of field indices, by Gaussian elimination
    through the field tables; each pivot clears its column in every row
    below it with one gather.  The next pivot column is found 64 columns
    at a time, so the columns past the last pivot cost one test a block."""
    rows = rows.copy()
    nr, nc = rows.shape
    add, mul, neg, inv = F.add_np, F.mul_np, F.neg_np, F.inv_np
    rank = col = 0
    while rank < nr and col < nc:
        live = rows[rank:, col:col + 64].any(axis=0)
        if not live.any():
            col += 64
            continue
        col += int(live.argmax())
        piv = rank + np.flatnonzero(rows[rank:, col])[0]
        rows[[rank, piv]] = rows[[piv, rank]]
        pr = mul[inv[rows[rank, col]], rows[rank, col:]]
        below = rank + 1 + np.flatnonzero(rows[rank + 1:, col])
        if below.size:
            rows[below, col:] = add[rows[below, col:],
                                    mul[neg[rows[below, col]][:, None], pr]]
        rank += 1
        col += 1
    return rank
