"""The group algebra F_q[G]: elements are coefficient vectors indexed by
group elements, with coefficients stored as base-field indices in a numpy
int16 array.  Multiplication distributes one row of the group table per
left-hand support element; since each row of the table is a permutation
this never collides, so the convolution can be done with fancy indexing.
Conjugation and the rows g·e of an ideal are single gathers through the
group table, and the rank elimination is row-parallel: each pivot clears
its column in all remaining rows at once.
"""

from __future__ import annotations

import numpy as np

from .errors import MixedContext
from .field import BaseField
from .groups import FiniteGroup, conjugacy_classes


class GroupAlgebra:
    def __init__(self, group: FiniteGroup, field: BaseField):
        self.group = group
        self.field = field
        self.q = field.q

    def zero(self):
        return AlgebraElement(self, np.zeros(self.group.order, dtype=np.int16))

    def one(self):
        c = np.zeros(self.group.order, dtype=np.int16)
        c[0] = 1
        return AlgebraElement(self, c)

    def basis(self, g: int):
        c = np.zeros(self.group.order, dtype=np.int16)
        c[g] = 1
        return AlgebraElement(self, c)

    def element(self, coeffs):
        c = np.asarray(coeffs, dtype=np.int16)
        if c.shape != (self.group.order,):
            raise ValueError("coefficient vector has wrong length")
        if c.min() < 0 or c.max() >= self.q:
            raise ValueError("coefficient index out of field range")
        return AlgebraElement(self, c.copy())

    def ideal_dimension(self, e: "AlgebraElement") -> int:
        """dim_{F_q} of the two-sided ideal F_q[G]·e for central e (as a left
        ideal: the span of {g·e}, whose h-coefficient is e[g^-1 h])."""
        G = self.group
        return _rank(self.field, e.coeffs[G.m[G.inv_np]])

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebra)
            and self.group is other.group
            and self.field is other.field
        )

    def __hash__(self):
        return hash((id(self.group), id(self.field)))

    def __repr__(self):
        return f"F_{self.q}[{self.group.name}]"


class AlgebraElement:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other):
        if self.algebra != other.algebra:
            raise MixedContext(
                f"cannot combine elements of {self.algebra!r} and {other.algebra!r}")

    def __add__(self, other):
        self._check(other)
        F = self.algebra.field
        return AlgebraElement(self.algebra, F.add_np[self.coeffs, other.coeffs])

    def __sub__(self, other):
        self._check(other)
        F = self.algebra.field
        return AlgebraElement(self.algebra,
                              F.add_np[self.coeffs, F.neg_np[other.coeffs]])

    def __neg__(self):
        F = self.algebra.field
        return AlgebraElement(self.algebra, F.neg_np[self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.algebra.field
        M = self.algebra.group.m
        at, mt = F.add_np, F.mul_np
        x, y = self.coeffs, other.coeffs
        res = np.zeros_like(x)
        for g in np.nonzero(x)[0]:
            res[M[g]] = at[res[M[g]], mt[x[g], y]]
        return AlgebraElement(self.algebra, res)

    def scale(self, c: int):
        F = self.algebra.field
        return AlgebraElement(self.algebra, F.mul_np[c, self.coeffs])

    def conjugate(self, x: int):
        """x^{-1} * self * x."""
        G = self.algebra.group
        # coefficient of h in x^-1 c x is c[x h x^-1]
        return AlgebraElement(self.algebra, self.coeffs[G.m[G.m[x], G.inv_np[x]]])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_idempotent(self) -> bool:
        return np.array_equal((self * self).coeffs, self.coeffs)

    def is_central(self) -> bool:
        G = self.algebra.group
        # central iff coefficients are constant on conjugacy classes
        c = self.coeffs
        for cls in conjugacy_classes(G):
            if len(cls) > 1 and not (c[list(cls)] == c[cls[0]]).all():
                return False
        return True

    def is_orthogonal_to(self, other) -> bool:
        return (self * other).is_zero() and (other * self).is_zero()

    def key(self):
        return tuple(int(c) for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((id(self.algebra.group), self.key()))

    def to_str(self) -> str:
        F = self.algebra.field
        G = self.algebra.group
        parts = []
        for g in np.nonzero(self.coeffs)[0]:
            c = int(self.coeffs[g])
            lab = G.labels[g]
            if c == 1:
                parts.append(lab)
            elif F.a == 1:
                parts.append(f"{c}*{lab}")
            else:
                parts.append("(" + ",".join(map(str, F.coeffs_of(c))) + f")*{lab}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.to_str()}>"


def _rank(F, rows: np.ndarray) -> int:
    """Rank over F_q of a matrix of field indices, by Gaussian elimination
    through the field tables; each pivot clears its column in every row
    below it with one gather."""
    rows = rows.copy()
    nr, nc = rows.shape
    add, mul, neg, inv = F.add_np, F.mul_np, F.neg_np, F.inv_t
    rank = 0
    for col in range(nc):
        nz = np.flatnonzero(rows[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        rows[[rank, piv]] = rows[[piv, rank]]
        pr = mul[inv[rows[rank, col]], rows[rank, col:]]
        below = rank + 1 + np.flatnonzero(rows[rank + 1:, col])
        if below.size:
            rows[below, col:] = add[rows[below, col:],
                                    mul[neg[rows[below, col]][:, None], pr]]
        rank += 1
        if rank == nr:
            break
    return rank
