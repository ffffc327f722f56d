"""Primitive central idempotents and the Wedderburn decomposition of a
semisimple metabelian group algebra F_q[G].

The pipeline enumerates triples (N, D, A), working in G itself with no
quotient group and no subgroup lattice (shoda_triples):
- N runs over a closure of cores in G of character kernels: from N = 1,
  the cores of the kernels of the linear characters of A/N join until no
  new one appears; that gives every kernel of an irreducible character of
  G, and only those carry triples;
- A is grown from G'N so that A/N is a maximal abelian subgroup of G/N
  containing (G/N)' (groups.maximal_abelian_over_derived);
- D runs over the kernels of the linear characters of A/N, so that A/D is
  cyclic, keeping those whose core in G is N, one per G-conjugacy class.
Each (N, A) pair and its character kernels are built once and serve both
the closure and the D-classes.
Let m(g) be the multiplier by which g in N_G(D) acts on the cyclic
quotient A/D of order n (A contains G', so it is normal), read for all of
N_G(D) in one gather over the int32 table G.m.  Each triple, together with
an orbit of the units mod n under M = <q>·m(N_G(D)), yields one primitive
central idempotent e_C, C = j·<q> for the least unit j of the orbit, as a
sum of conjugates of a trace-twisted coset sum, one per coset of the
stabilizer E = {g : m(g) in <q>}, and one component M_{[G:A]}(F_{q^l}),
l = o/[E:A] for o the order of q mod n.
Every choice (the element that joins A next, the D of a class, the coset
of an orbit) is the least one; the idempotents do not depend on it.
What does not involve q is computed once per group object and kept in
G._cache: the triples, each (A, D)'s N_G(D) and multipliers, and each
stabilizer E's transversal and conjugation gather.  The orbits and E
depend on q only through q mod n, as <q> is the subgroup of the units
mod n that q mod n generates, and are cached per (A, D, q mod n); so a
group shared by several q, or by the engine and the fast path, reuses
them.
triple_components is the per-triple step; the metacyclic fast path
feeds it its own triples.
The engine, the fast path and the checks take (G, F) and compute on int16
coefficient arrays; triple_components wraps each idempotent as the
read-only AlgebraElement a descriptor holds.  _validate checks them: each
is nonzero, central and spans an ideal of its claimed dimension d²l, and
with the dimensions adding up to |G| and the sum 1 those ranks prove every
idempotency and orthogonality (Cochran's theorem), so an intact answer
takes one product e·e at most.  Its products of central elements run in
class coordinates (groups.class_structure, which the oracle reads too).
WedderburnSummary is the result type of the engine, the fast path and the
closed forms (families), and the one writer of its table, its algebra and
its automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .algebra import AlgebraElement, ideal_dimension, to_str
from .errors import (
    InternalInconsistency,
    InvariantViolation,
    NotMetabelian,
    NotSemisimple,
)
from .field import BaseField, mult_order, prime_factors
from .groups import (
    FiniteGroup,
    Subgroup,
    class_structure,
    is_metabelian,
    mask,
    maximal_abelian_over_derived,
    normalizer,
    powers,
    transversal,
)

PRODUCT_BLOCK = 256  # support rows per gather in _central_product: 256·k int32 at most


# ---------------------------------------------------------------------------
# Cyclic quotient bookkeeping
# ---------------------------------------------------------------------------

def cyclic_quotient_data(G: FiniteGroup, K: Subgroup, H: Subgroup):
    """For H normal in K with K/H cyclic of order n: returns (n, gen, e)
    where gen is the least element of K whose order modulo H is n, and e
    maps each k in K to the discrete log of kH base gen (an int32 array
    over G, -1 outside K).  Cached per (K, H).

    kH has order n iff (kH)^(n/p) != H for every prime p | n; those powers
    are taken for all of K at once."""
    key = ("cyclic_quotient", K.members, H.members)
    if key in G._cache:
        return G._cache[key]
    n = K.order // H.order
    in_h = mask(G, H)
    ks = np.array(K.members)
    ok = np.ones(ks.size, dtype=bool)
    for p in prime_factors(n):
        ok &= ~in_h[G.power(ks, n // p)]
    if not ok.any():
        raise InternalInconsistency(f"quotient of order {n} is not cyclic")
    gen = int(ks[ok.argmax()])
    e = np.full(G.order, -1, dtype=np.int32)
    e[G.m[np.ix_(powers(G, gen)[:n], H.members)]] = np.arange(n)[:, None]
    G._cache[key] = out = (n, gen, e)
    return out


# ---------------------------------------------------------------------------
# Orbits of generator cosets under the normalizer action
# ---------------------------------------------------------------------------

def coset_orbits(G: FiniteGroup, K: Subgroup, H: Subgroup, q: int):
    """The orbits of the q-cyclotomic generator cosets C = j·<q> of the
    cyclic K/H of order n under N_G(H), where g acts by its multiplier m(g):
    g^{-1}·gen·g lies in gen^{m(g)} H.  The m(g) and <q> are subgroups of
    the units mod n, so the orbits are those of the units under
    M = <q>·m(N_G(H)), and every coset has the stabilizer
    E = {g in N_G(H) : m(g) in <q>}.  K must contain G', so that it is
    normal and N_G(H) ∩ N_G(K) = N_G(H); the engine's A contains G'N and
    the fast path's <a, b^{o_v}> contains <a> ⊇ G'.  Returns (js, E), js
    a fresh list of the least unit of each orbit in increasing order
    (js = [0] for n = 1, as gcd(0, 1) = 1).

    Cached on G: N_G(H) and its multipliers per (K, H), as they do not
    involve q, and (js, E) per (K, H, q mod n), as <q> is the subgroup of
    the units mod n that q mod n generates.  Equal stabilizers are one
    object, keyed by their members, as are ec_idempotent's conjugators."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    key = ("coset_orbits", K.members, H.members, q % n)
    if key not in G._cache:
        if ("multipliers", K.members, H.members) not in G._cache:
            acting = np.flatnonzero(mask(G, normalizer(G, H))).astype(np.int32)
            x = G.m[G.m[G.inv_np[acting], gen], acting]  # g^-1 gen g
            if not mask(G, K)[x].all():
                raise InternalInconsistency("normalizer element does not stabilize K")
            G._cache["multipliers", K.members, H.members] = acting, e[x]
        acting, mult = G._cache["multipliers", K.members, H.members]
        in_q = np.zeros(n, dtype=bool)
        in_q[[pow(q, i, n) for i in range(mult_order(n, q))]] = True
        M = np.unique(np.flatnonzero(in_q)[:, None] * np.unique(mult) % n)
        js, seen = [], set()
        for u in range(n):
            if gcd(u, n) == 1 and u not in seen:
                js.append(u)
                seen.update((u * M % n).tolist())
        E = Subgroup(G, acting[in_q[mult]].tolist())
        G._cache[key] = tuple(js), G._cache.setdefault(("stabilizer", E.members), E)
    js, E = G._cache[key]
    return list(js), E


# ---------------------------------------------------------------------------
# Idempotents
# ---------------------------------------------------------------------------

def epsilon_idempotent(G: FiniteGroup, F: BaseField, K: Subgroup, H: Subgroup, j: int):
    """The coefficients of the trace-twisted coset-sum idempotent of (K, H)
    and the generator coset C = j·<q> of Z/[K:H]:
        |K|^{-1} * sum_{g in K} tr(zeta^{j*e(g)}) * g^{-1},
    zeta a primitive [K:H]-th root of unity; every member of C gives it."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    tr = F.cyclotomic_traces(n)
    kinv = F.inv(F.from_int(K.order))
    coeffs = np.zeros(G.order, dtype=np.int16)
    ks = np.array(K.members)
    coeffs[G.inv_np[ks]] = np.array(tr)[j * e[ks] % n]
    return F.mul_np[kinv, coeffs]


def ec_idempotent(G: FiniteGroup, F: BaseField, K: Subgroup, H: Subgroup,
                  j: int, E: Subgroup):
    """The coefficients of e_C(G, K, H) for C = j·<q>: the sum of the
    G-conjugates of the (K, H, j) idempotent, one per right coset of its
    centralizer E, the g in N_G(H) whose multiplier lies in <q>
    (coset_orbits); row i of one gather is the conjugate x_i^-1·eps·x_i,
    coefficients eps[x_i h x_i^-1].  The x_i and the gather's index array
    do not involve K, H or F, and are cached on G per E."""
    if ("conjugators", E.members) not in G._cache:
        xs = np.array(transversal(G, E))
        G._cache["conjugators", E.members] = xs, G.m[G.m[xs], G.inv_np[xs][:, None]]
    xs, conjugators = G._cache["conjugators", E.members]
    rows = epsilon_idempotent(G, F, K, H, j)[conjugators]
    # one void scalar per row: np.unique(rows, axis=0) builds a field per column
    as_bytes = rows.view(f"V{rows.itemsize * G.order}")[:, 0]
    _, first, which = np.unique(as_bytes, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[which] != np.arange(xs.size))
    if repeats.size:
        raise InternalInconsistency(
            f"conjugate by {xs[repeats[0]]} repeats another: the stabilizer of C "
            f"is not the centralizer of the (K, H, C) idempotent")
    return F.sum_rows(rows)


# ---------------------------------------------------------------------------
# Triples (N, D, A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triple:
    N: Subgroup
    D: Subgroup
    A: Subgroup

    def key(self):
        return (self.N.order, self.N.members, self.D.order, self.D.members)


def _characters(G: FiniteGroup, N: Subgroup, A: Subgroup):
    """The linear characters of the abelian group A/N as (elems, values):
    values[c, i] in Z/[A:N] is the value of character c at elems[i], and
    elems runs over A.  Built from the trivial character of N by extending
    along the least element g outside the subgroup B built so far: if g has
    order k modulo B, each character of B has k extensions to B<g>, one per
    solution v of k*v = chi(g^k) mod [A:N]."""
    e = A.order // N.order
    elems = np.array(N.members)
    values = np.zeros((1, elems.size), dtype=np.int64)
    in_b = mask(G, N)
    pos = np.zeros(G.order, dtype=np.int64)
    for g in A.members:
        if in_b[g]:
            continue
        col = G.m[:, g].tolist()
        gs, x = [0], g
        while not in_b[x]:
            gs.append(x)
            x = col[x]
        k = len(gs)  # x = g^k lies in B
        pos[elems] = np.arange(elems.size)
        v = values[:, pos[x]] // k
        v = (v[:, None] + np.arange(k) * (e // k)).reshape(-1)
        values = np.repeat(values, k, axis=0)[:, None, :] \
            + (v[:, None] * np.arange(k))[:, :, None]
        values = values.reshape(v.size, -1) % e
        elems = G.m[np.ix_(gs, elems)].reshape(-1)  # coset g^j B in row j
        in_b[elems] = True
    return elems, values


def _kernel_conjugates(G: FiniteGroup, N: Subgroup, A: Subgroup):
    """(elems, conjugates): elems runs over A, and conjugates[j, d, i] says
    whether elems[i] lies in D_d^t for D_d the d-th distinct kernel of the
    linear characters of A/N and t the j-th element of transversal(G, A).
    A contains G' and [D, A] <= N <= D, so A is normal and normalizes each
    D.  t = 1 comes first: conjugates[0] are the kernels, and
    conjugates.all(axis=0) their cores in G."""
    elems, values = _characters(G, N, A)
    kernels = np.array(list({row.tobytes(): row for row in values == 0}.values()))
    pos = np.zeros(G.order, dtype=np.int64)
    pos[elems] = np.arange(elems.size)
    conjugates = np.stack([kernels[:, pos[G.m[G.m[t, elems], G.inv_np[t]]]]
                           for t in transversal(G, A)])
    return elems, conjugates


def d_classes(G: FiniteGroup, N: Subgroup, kernels):
    """The subgroups D with N <= D <= A, A/D cyclic and core_G(D) = N, as
    a list of G-conjugacy classes, each sorted by members: the kernels of
    the linear characters of A/N whose core is N.  kernels is
    _kernel_conjugates(G, N, A)."""
    elems, conjugates = kernels
    classes = {}
    for d in np.flatnonzero(conjugates.all(axis=0).sum(axis=1) == N.order):
        key = min(row.tobytes() for row in conjugates[:, d])
        D = Subgroup(G, elems[conjugates[0, d]].tolist())
        classes.setdefault(key, []).append(D)
    return [sorted(c, key=lambda D: D.members) for c in classes.values()]


def shoda_triples(G: FiniteGroup):
    """All triples (N, D, A), one per G-conjugacy class of D, sorted by
    (|N|, N, |D|, D) and cached on G.  A is
    maximal_abelian_over_derived(G, N), D the least of each class of
    d_classes(G, N, ...), and N runs over a closure: starting from N = 1,
    each new N yields its pair (N, A_N) and the cores core_G(D) of the
    kernels D of the linear characters of A_N/N, which join as new N until
    none is new.  Each pair and its kernels are built once and serve both
    the closure and the D-classes.

    Why this suffices: a triple's N is the kernel of the irreducible
    lambda^G, as (A, D) is a strong Shoda pair.  Let chi be irreducible
    with kernel N, A1 = A for N = 1 and M = N ∩ A1.  A1 contains G', so it
    is normal, and by Clifford's theorem M = core_G(ker mu) for a linear
    constituent mu of chi on A1: M is a core of the pair of 1.
    [N, G] <= N ∩ G' <= M, so N/M is central in G/M and N <= A_M, as
    A_M/M is maximal abelian in G/M.  Clifford's theorem on A_M gives
    N = core_G(ker nu) with M <= N <= ker nu for a constituent nu of chi
    on A_M, which is linear on the abelian A_M/M: N is a core of the pair
    of M, which the closure expands."""
    if "shoda_triples" in G._cache:
        return G._cache["shoda_triples"]
    pairs = {}  # N -> (A_N, _kernel_conjugates(G, N, A_N))
    todo = [Subgroup(G, (0,))]
    while todo:
        N = todo.pop()
        if N in pairs:
            continue
        A = maximal_abelian_over_derived(G, N)
        pairs[N] = A, _kernel_conjugates(G, N, A)
        elems, conjugates = pairs[N][1]
        todo += [Subgroup(G, elems[c].tolist()) for c in conjugates.all(axis=0)]
    out = [Triple(N, cls[0], A) for N, (A, kernels) in pairs.items()
           for cls in d_classes(G, N, kernels)]
    out = tuple(sorted(out, key=Triple.key))
    G._cache["shoda_triples"] = out
    return out


# ---------------------------------------------------------------------------
# Decomposition driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentDescriptor:
    """The component M_d(F_{q^l}) of F_q[G] with primitive central
    idempotent e_C(G, triple.A, triple.D), C = j·<q> the least unit j of its
    orbit under <q>·m(N_G(D)) (coset_orbits)."""
    d: int
    l: int
    idempotent: object
    triple: Triple
    j: int

    @property
    def dim(self):
        return self.d * self.d * self.l


def triple_components(G: FiniteGroup, F: BaseField, tr: Triple):
    """The components of one triple, one per orbit of generator cosets
    (coset_orbits), all M_d(F_{q^l}) with d = [G:A] and l = o/[E:A], o the
    order of q mod n = [A:D] and E the stabilizer of every coset."""
    js, E = coset_orbits(G, tr.A, tr.D, F.q)
    if not set(tr.A.members) <= set(E.members):
        raise InternalInconsistency("A not contained in the coset stabilizer")
    n = tr.A.order // tr.D.order
    ord_q = mult_order(n, F.q)
    ind = E.order // tr.A.order
    if E.order % tr.A.order or ord_q % ind:
        raise InternalInconsistency(
            f"stabilizer index {E.order}/{tr.A.order} does not divide ord({F.q}) mod {n}")
    d, l = G.order // tr.A.order, ord_q // ind
    return [ComponentDescriptor(
        d, l, AlgebraElement(ec_idempotent(G, F, tr.A, tr.D, j, E)), tr, j)
        for j in js]


@dataclass
class WedderburnSummary:
    """The Wedderburn table {(d, l): multiplicity} of F_q[G] for |G| = order,
    with its three written forms: table(), format() for the algebra and
    aut() for its automorphism group."""
    order: int
    q: int
    components: dict  # (d, l) -> multiplicity

    def dimension(self):
        return sum(d * d * l * m for (d, l), m in self.components.items())

    def sorted_items(self):
        return sorted(self.components.items())

    def _field(self, l):
        return f"F_{self.q}^{l}" if l > 1 else f"F_{self.q}"

    def table(self):
        """[(d, l, multiplicity), ...], sorted by (d, l)."""
        return "[" + ", ".join(f"({d}, {l}, {m})"
                               for (d, l), m in self.sorted_items()) + "]"

    def format(self):
        """The algebra: M_d(F_{q^l})^(m) per block, with M_1 and ^(1)
        dropped, joined by " + "."""
        parts = []
        for (d, l), m in self.sorted_items():
            mat = self._field(l) if d == 1 else f"M_{d}({self._field(l)})"
            parts.append(mat if m == 1 else f"{mat}^({m})")
        return " + ".join(parts)

    def aut(self):
        """The automorphism group of the algebra: each block
        M_d(F_{q^l})^(m) contributes (SL_d(F_{q^l}) . Z_l)^(m) . S_m, with
        the trivial pieces SL_1, Z_1, S_1 and ^(1) dropped; the blocks are
        joined by " + ", and "1" is the trivial group."""
        blocks = []
        for (d, l), m in self.sorted_items():
            pieces = ([f"SL_{d}({self._field(l)})"] if d != 1 else []) \
                + ([f"Z_{l}"] if l > 1 else [])
            out = " . ".join(pieces)
            if len(pieces) == 2:
                out = f"({out})"
            if m > 1:
                out = f"(({out})^({m}) . S_{m})" if out else f"S_{m}"
            if out:
                blocks.append(out)
        return " + ".join(blocks) or "1"


def decompose(G: FiniteGroup, F: BaseField, validate=True):
    """Primitive central idempotents and Wedderburn components of F_q[G].

    Returns (WedderburnSummary, [ComponentDescriptor]).  Raises NotSemisimple
    if gcd(q, |G|) != 1 and NotMetabelian if G is not metabelian.  The
    idempotents are always checked to be nonzero, idempotent, central,
    pairwise orthogonal, and to sum to 1, and the dimensions to add to |G|
    (InvariantViolation otherwise).  `validate` stays only because
    perfbench/run.py passes validate=True; any other value is a ValueError.
    """
    if validate is not True:
        raise ValueError("decompose always validates; validate must be True")
    if gcd(F.q, G.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {G.order}) != 1")
    if not is_metabelian(G):
        raise NotMetabelian(f"{G.name} is not metabelian")
    descriptors = [dsc for tr in shoda_triples(G) for dsc in triple_components(G, F, tr)]
    return summarize(G, F, descriptors)


def summarize(G: FiniteGroup, F: BaseField, descriptors):
    """(WedderburnSummary, descriptors) for the components of F_q[G], after
    the invariant suite of _validate has passed on the descriptors alone."""
    components = {}
    for dsc in descriptors:
        key = (dsc.d, dsc.l)
        components[key] = components.get(key, 0) + 1
    _validate(G, F, descriptors)
    return WedderburnSummary(order=G.order, q=F.q,
                             components=components), descriptors


def _central_product(F: BaseField, idx, e, w):
    """E·W in class coordinates, for central E and W: E has coefficients e
    and W the class coordinates w, and idx is class_structure(G)[2], so
    (E·W)(reps[l]) = Σ_x e[x]·w[idx[x, l]], summed over the x with e[x] != 0,
    PRODUCT_BLOCK rows of idx at a time."""
    x = np.flatnonzero(e)
    return F.sum_rows([F.sum_rows(F.mul_np[e[b][:, None], w.take(idx[b])])
                       for b in np.split(x, range(PRODUCT_BLOCK, x.size, PRODUCT_BLOCK))])


def _validate(G: FiniteGroup, F: BaseField, descriptors):
    """Raise InvariantViolation unless the descriptors' idempotents are
    nonzero, central, idempotent and pairwise orthogonal, sum to 1, and
    span ideals of dimension d²l that add up to |G|.  The verdict and
    witness are those of the full loop, conftest.validate_reference.

    An intact decomposition needs no product e·e but one.  Let A_i be
    right multiplication by e_i on V = F_q[G]; its rank is dim F_q[G]·e_i.
    If Σ A_i = A_{Σe_i} = I and Σ rank A_i = dim V, then V = ⊕ im A_i, as
    v = Σ A_i v; and A_j v = Σ_i A_i A_j v, read in that direct sum, gives
    A_i A_j v = 0 (i ≠ j) and A_j A_j v = A_j v (Cochran's theorem in its
    linear-algebra form: Anderson and Styan, 1982).  At v = 1 that reads
    e_j·e_i = 0 and e_j·e_j = e_j.  So once each rank equals its claimed
    d²l, the claims add up to |G| and the idempotents sum to 1, every one
    is idempotent and every pair orthogonal.

    The one exception: a component with 2·d²l > |G| (at most one, as the
    dimensions add up to |G|) reads its rank as |G| − dim F_q[G](1 − e),
    the smaller rank.  That is dim F_q[G]·e only when e·e = e, where
    F_q[G] = F_q[G]e ⊕ F_q[G](1 − e); so its product is checked first.
    Without it, (e0 + 2e1, −e1, e2) over F_5[S_3], e0 the component of
    dimension 4, would pass: every rank and the sum read as for
    (e0, e1, e2).

    On a failure the products run after all, to name what the full loop
    names first: an e_j·e_j ≠ e_j at an earlier component (or at the
    component itself, for a rank), and for a sum other than 1 every
    component's, then the pairs, then the sum.  Central elements are known
    by their class coordinates w = e[reps], so these are products in those
    coordinates."""
    def fail(name, witness):
        raise InvariantViolation(name, witness)

    dimension = sum(dsc.dim for dsc in descriptors)
    if dimension != G.order:
        fail("dimension_sum", {"got": dimension, "expected": G.order})
    class_of, reps, idx = class_structure(G)
    es = [dsc.idempotent.coeffs for dsc in descriptors]
    ws = [e[reps] for e in es]

    def idempotent(j):
        return np.array_equal(_central_product(F, idx, es[j], ws[j]), ws[j])

    def check_idempotent(stop):
        for j in range(stop):
            if not idempotent(j):
                fail("idempotent", {"component": j})

    for i, (dsc, e, w) in enumerate(zip(descriptors, es, ws)):
        if not e.any():
            check_idempotent(i)
            fail("nonzero", {"component": i})
        if not np.array_equal(w[class_of], e):  # constant on each class
            check_idempotent(i)
            fail("central", {"component": i})
        if 2 * dsc.dim > G.order:
            if not idempotent(i):
                check_idempotent(i)
                fail("idempotent", {"component": i})
            rest = F.neg_np[e]
            rest[0] = F.add_np[1, rest[0]]
            dim = G.order - ideal_dimension(G, F, rest)
        else:
            dim = ideal_dimension(G, F, e)
        if dim != dsc.dim:
            check_idempotent(i + 1)
            fail("ideal_dimension", {"component": i, "got": dim, "expected": dsc.dim})
    total = F.sum_rows(es)
    if total[0] == 1 and not total[1:].any():
        return
    check_idempotent(len(es))
    # e_j·e_i = e_i·e_j for central idempotents: one product a pair
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if _central_product(F, idx, es[i], ws[j]).any():
                fail("orthogonal", {"components": (i, j)})
    fail("sum_to_one", {"sum": to_str(G, F, total)})
