"""The group algebra F_q[G]: elements are coefficient vectors indexed by
group elements, with coefficients stored as base-field indices in a numpy
int16 array.  GroupAlgebra.product is the one product kernel: for each
block of at most PRODUCT_BLOCK support elements g of x, one gather of
y[g⁻¹h] through the group table, scaled by x[g], and one BaseField.sum_rows;
`at` evaluates it only at chosen h, such as the class representatives when
x and y are central.  The rows g·e of an ideal are one gather, and the
rank elimination clears each pivot column in all remaining rows at once.
"""

from __future__ import annotations

import numpy as np

from .errors import MixedContext
from .field import BaseField
from .groups import FiniteGroup, class_index

PRODUCT_BLOCK = 256  # support rows per gather: 256·|G| int16 at most


class GroupAlgebra:
    def __init__(self, group: FiniteGroup, field: BaseField):
        self.group = group
        self.field = field
        self.q = field.q

    def zero(self):
        return AlgebraElement(self, np.zeros(self.group.order, dtype=np.int16))

    def one(self):
        return self.basis(0)

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

    def product(self, x: np.ndarray, y: np.ndarray, at=None) -> np.ndarray:
        """The coefficients (x·y)(h) = Σ_g x[g]·y[g⁻¹h] of the product of two
        coefficient vectors, at every h or only at the elements `at`."""
        G, F = self.group, self.field
        support = np.flatnonzero(x)
        parts = []
        for g in np.split(support, range(PRODUCT_BLOCK, support.size, PRODUCT_BLOCK)):
            cols = G.m[G.inv_np[g]] if at is None else G.m[np.ix_(G.inv_np[g], at)]
            parts.append(F.sum_rows(F.mul_np[x[g][:, None], y[cols]]))
        return F.sum_rows(parts)

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
        return AlgebraElement(self.algebra,
                              self.algebra.product(self.coeffs, other.coeffs))

    def scale(self, c: int):
        F = self.algebra.field
        return AlgebraElement(self.algebra, F.mul_np[c, self.coeffs])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_idempotent(self) -> bool:
        return np.array_equal((self * self).coeffs, self.coeffs)

    def is_central(self) -> bool:
        # central iff the coefficients are constant on conjugacy classes:
        # w keeps one coefficient per class, read back through class_of
        class_of = class_index(self.algebra.group)
        c = self.coeffs
        w = np.empty_like(c)
        w[class_of] = c
        return np.array_equal(w[class_of], c)

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
