"""Independent verification of the decomposition: split the center of
F_q[G] into primitive idempotents by plain linear algebra, and count the
expected components, and their degrees l, from the q-classes of
conjugacy classes.

The split runs in q-class coordinates.  A central element w has one
coordinate per conjugacy class, and the product of w with a class sum
C_i is F.sum_rows(w[idx[x]]) over the x in C_i, one gather through the
index array of groups.class_structure and one field sum: the classical
class-matrix route of Dixon (Numer. Math. 1967) and Schneider (1990).
The q-class sums T_o, the sums of the orbits o of C -> C^(q), span the
part of the center that z -> z^q fixes, which is F_q^r for r the number of
q-classes and has the same primitive idempotents as the center (proof in
center_split).  So the split reads each T_o at one class of each q-class,
and field.split_fixed refines the identity by the T_o in q-class order
until r blocks certify themselves primitive; no polynomial is factored.
The walk over the q-classes (q_classes) is the one q_class_count and the
(d, l) check of cli.verify read too.  Only the final blocks are lifted to
|G| coordinates.  The oracle shares class_structure with the engine's
checks (idempotents._validate), and with the whole engine the group
table, the field tables and the field's linear algebra; it shares
nothing with the engine's constructions: no subgroup, triple, trace or
idempotent formula.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .algebra import AlgebraElement
from .errors import InternalInconsistency, NotSemisimple
from .field import BaseField, orbit_labels, split_fixed
from .groups import FiniteGroup, class_structure


def q_classes(G: FiniteGroup, q: int) -> np.ndarray:
    """The q-class of each conjugacy class (in the class order of
    groups.class_structure): the orbits of C -> C^(q), the class of the
    q-th powers, numbered by least class.  NotSemisimple unless
    gcd(q, |G|) = 1, when C -> C^(q) is a permutation.

    The number of q-classes is the number of simple components of F_q[G],
    and the multiset of their sizes is the multiset of the components' l.
    Proof (Brauer's permutation lemma, Isaacs, Character Theory of Finite
    Groups, Thm 6.32): let sigma act on the classes as C -> C^(q) and on
    the absolutely irreducible characters by the Frobenius, so that
    chi^sigma(g) = chi(g^q).  The character table X is invertible, as
    p does not divide |G|, and P·X = X·Q for the two permutation matrices
    P and Q.  So P and Q are similar, every power of sigma fixes as many
    classes as characters, and, since the fixed-point counts of all powers
    of sigma determine the multiset of its orbit sizes, the two actions
    have the same orbit sizes.  A component M_d(F_{q^l}) is one orbit of
    l characters."""
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    class_of, reps, _ = class_structure(G)
    return orbit_labels(class_of[G.power(reps, q)].tolist())


def q_class_count(G: FiniteGroup, q: int) -> int:
    """Number of q-classes: the number of simple components of F_q[G]
    when gcd(q, |G|) = 1."""
    return int(q_classes(G, q).max()) + 1


def center_split(G: FiniteGroup, F: BaseField):
    """Primitive idempotents of the center Z of F_q[G], from field.split_fixed
    on the q-class sums, in q-class coordinates.  Returned as elements of
    F_q[G], sorted by coefficient tuple.

    In the semisimple case C^q = C^(q) in Z for every class sum C of a
    class of g, C^(q) the class sum of g^q:
      - every central character over the algebraic closure of F_q has
        omega_chi(C) = |C|·chi(g)/chi(1);
      - chi(g)^q = chi(g^q) in characteristic p, summing the eigenvalues
        of rho(g);
      - |C| and chi(1) lie in F_p^×, so omega_chi(C)^q = omega_chi(C^(q));
      - and the omega_chi separate the points of Z over the closure.
    So z -> z^q, additive and fixing F_q, maps sum a_C·C to
    sum a_C·C^(q), and fixes exactly the span Z^sigma of the q-class sums
    T_o.  Z is a product of fields F_{q^l}, on each of which z -> z^q is
    the Frobenius with fixed field F_q; so Z^sigma = F_q^r, r the number
    of q-classes, and its primitive idempotents are those of Z.  An element
    of Z^sigma is constant on each q-class, so one coordinate per q-class
    suffices, read at its least class, and T_o·w is a gather over the
    rows of idx for the x in T_o.  The split starts from 1 and stops at r
    blocks.  The premise that the blocks sum to 1 is checked on the way
    out (InternalInconsistency otherwise)."""
    labels = q_classes(G, F.q)
    class_of, _, idx = class_structure(G)
    of = labels[class_of]  # the q-class of each element
    at = np.unique(labels, return_index=True)[1]  # the least class of each q-class
    one = np.zeros(at.size, dtype=np.int16)
    one[of[0]] = 1
    members = np.split(np.argsort(of, kind="stable"), np.cumsum(np.bincount(of))[:-1])
    blocks = split_fixed(F, (labels[idx[np.ix_(x, at)]] for x in members), one, at.size)
    total = F.sum_rows(blocks)
    if not np.array_equal(total, one):
        raise InternalInconsistency(
            f"center blocks sum to {total.tolist()} in q-class coordinates, not 1")
    return sorted((AlgebraElement(b[of]) for b in blocks), key=lambda e: e.key())
