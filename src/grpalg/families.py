"""Closed-form Wedderburn data for two families of 2-groups of order
2^{m+2}: the family built from Z_{2^m} x Z_2 x Z_2 with a single nontrivial
commutator (d1_group) and the metacyclic family <a, b | a^{2^{m+1}} = 1,
b^2 = a^2, b^{-1} a b = a^{2^m + 1}> (d2_group).

Everything here is a function of m and the 2-adic valuation lambda of
q -+ 1; the closed forms return a WedderburnSummary, the same result type
as the engine and the metacyclic fast path, checked to account for the
full dimension 2^{m+2}.
"""

from __future__ import annotations

from .errors import EvenQ, InternalInconsistency, NoClosedForm
from .idempotents import WedderburnSummary


def lambda_of(q: int) -> int:
    """2-adic valuation of q - 1 when q = 1 (mod 4), of q + 1 when
    q = 3 (mod 4); always >= 2."""
    if q % 2 == 0:
        raise EvenQ(f"q = {q} is even")
    if q < 3:
        raise ValueError(f"q = {q} is not an odd prime power")
    target = q - 1 if q % 4 == 1 else q + 1
    lam = 0
    while target % 2 == 0:
        target //= 2
        lam += 1
    if lam < 2:
        raise InternalInconsistency(f"valuation {lam} < 2 for q = {q}")
    return lam


def _checked(amap: dict, m: int, q: int) -> WedderburnSummary:
    out = WedderburnSummary(1 << (m + 2), q, {k: v for k, v in amap.items() if v > 0})
    if out.dimension() != out.order:
        raise InternalInconsistency(
            f"closed form sums to dimension {out.dimension()}, expected {out.order}")
    return out


def d1_closed_form(m: int, q: int) -> WedderburnSummary:
    """The Wedderburn table of F_q[d1_group(m)], of order 2^{m+2}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = lambda_of(q)
    if q % 4 == 1:
        if m <= lam:
            amap = {(1, 1): 1 << (m + 1), (2, 1): 1 << (m - 1)}
        elif m == lam + 1:
            amap = {(1, 1): 1 << (m + 1), (2, 2): 1 << (m - 2)}
        else:
            amap = {(1, 1): 1 << (lam + 2)}
            for a in range(lam + 1, m):
                amap[(1, 1 << (a - lam))] = 1 << (lam + 1)
            amap[(2, 1 << (m - lam))] = 1 << (lam - 1)
    else:
        if m < 2:
            raise NoClosedForm("m must be >= 2 when q = 3 (mod 4)")
        if m <= lam + 1:
            amap = {(1, 1): 8, (1, 2): (1 << m) - 4, (2, 2): 1 << (m - 2)}
        elif m == lam + 2:
            amap = {(1, 1): 8, (1, 2): (1 << m) - 4, (2, 4): 1 << (m - 3)}
        else:
            amap = {(1, 1): 8, (1, 2): (1 << (lam + 2)) - 4}
            for a in range(lam + 2, m):
                amap[(1, 1 << (a - lam))] = 1 << (lam + 1)
            amap[(2, 1 << (m - lam))] = 1 << (lam - 1)
    return _checked(amap, m, q)


def d2_closed_form(m: int, q: int) -> WedderburnSummary:
    """The Wedderburn table of F_q[d2_group(m)], of order 2^{m+2}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = lambda_of(q)
    if q % 4 == 1:
        if m <= lam:
            amap = {(1, 1): 1 << (m + 1), (2, 1): 1 << (m - 1)}
        else:
            amap = {(1, 1): 1 << (lam + 1)}
            for a in range(lam + 1, m + 1):
                amap[(1, 1 << (a - lam))] = 1 << lam
            amap[(2, 1 << (m - lam))] = 1 << (lam - 1)
    else:
        if m < 2:
            raise NoClosedForm("m must be >= 2 when q = 3 (mod 4)")
        if m <= lam + 1:
            amap = {(1, 1): 4, (1, 2): (1 << m) - 2, (2, 2): 1 << (m - 2)}
        else:
            amap = {(1, 1): 4, (1, 2): (1 << (lam + 1)) - 2}
            for a in range(lam + 2, m + 1):
                amap[(1, 1 << (a - lam))] = 1 << lam
            amap[(2, 1 << (m - lam))] = 1 << (lam - 1)
    return _checked(amap, m, q)
