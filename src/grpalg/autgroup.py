"""The automorphism group of a semisimple group algebra, written out from its
Wedderburn components: each isotypic block M_d(F_{q^l})^(m) contributes
(SL_d(F_{q^l}) . Z_l)^(m) . S_m, with the trivial pieces SL_1, Z_1, S_1 and
^(1) dropped; the blocks are joined by " + ", and "1" is the trivial group.
"""

from __future__ import annotations


def block_aut(d, q, l, mult) -> str:
    """(SL_d(F_{q^l}) . Z_l)^(mult) . S_mult, or "" when every piece is
    trivial."""
    fld = f"F_{q}^{l}" if l > 1 else f"F_{q}"
    pieces = ([f"SL_{d}({fld})"] if d != 1 else []) + ([f"Z_{l}"] if l > 1 else [])
    out = " . ".join(pieces)
    if len(pieces) == 2:
        out = f"({out})"
    if out and mult not in (0, 1):
        out = f"({out})^({mult})"
    if mult > 1:
        out = f"({out} . S_{mult})" if out else f"S_{mult}"
    return out if mult else ""


def aut_description(summary) -> str:
    """Automorphism group of the algebra described by a WedderburnSummary."""
    blocks = [block_aut(d, summary.q, l, m) for (d, l), m in summary.sorted_items()]
    return " + ".join(b for b in blocks if b) or "1"
