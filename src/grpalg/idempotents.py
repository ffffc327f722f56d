"""Primitive central idempotents and the Wedderburn decomposition of a
semisimple metabelian group algebra F_q[G].

The pipeline enumerates triples (N, D, A), working in G itself with no
quotient group and no subgroup lattice:
- N runs over the normal subgroups of G (groups.normal_subgroups);
- A is grown from G'N so that A/N is a maximal abelian subgroup of G/N
  containing (G/N)' (groups.maximal_abelian_over_derived);
- D runs over the kernels of the linear characters of A/N, so that A/D is
  cyclic, keeping those whose core in G is N, one per G-conjugacy class.
Each triple, together with an orbit of q-cyclotomic generator cosets
modulo [A:D], yields one primitive central idempotent as a sum of
conjugates of a trace-twisted coset sum, one per coset of the orbit's
stabilizer E, and one matrix component M_d(F_{q^l}).
The orbits and E come from one gather over the int32 table G.m of the
multipliers by which N_G(D) ∩ N_G(A) acts on the cyclic quotient A/D.
triple_components is that per-triple step; the metacyclic fast path
feeds it its own triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .algebra import AlgebraElement, GroupAlgebra
from .errors import (
    InternalInconsistency,
    InvariantViolation,
    NotCyclicQuotient,
    NotMetabelian,
    NotSemisimple,
)
from .field import BaseField, mult_order, prime_factors
from .groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    is_metabelian,
    mask,
    maximal_abelian_over_derived,
    normal_subgroups,
    normalizer,
    powers,
    transversal,
)


# ---------------------------------------------------------------------------
# q-cyclotomic cosets of generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclotomicCoset:
    modulus: int
    members: tuple

    @property
    def rep(self):
        return min(self.members)

    def __repr__(self):
        return f"C_{self.modulus}{set(self.members)}"


def generator_cosets(n: int, q: int):
    """The q-cyclotomic cosets of the generators of Z/n: the orbits of the
    units mod n under multiplication by q, sorted by least member.  For
    n = 1 the single coset {0}."""
    if n == 1:
        return [CyclotomicCoset(1, (0,))]
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    seen = set()
    out = []
    for u in units:
        if u in seen:
            continue
        orbit = []
        v = u
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = v * q % n
        out.append(CyclotomicCoset(n, tuple(sorted(orbit))))
    return sorted(out, key=lambda c: c.rep)


# ---------------------------------------------------------------------------
# Cyclic quotient bookkeeping
# ---------------------------------------------------------------------------

def cyclic_quotient_data(G: FiniteGroup, K: Subgroup, H: Subgroup):
    """For H normal in K with K/H cyclic of order n: returns (n, gen, e)
    where gen is the least element of K whose order modulo H is n, and e
    maps each k in K to the discrete log of kH base gen (an int array over
    G, -1 outside K).  Cached per (K, H).

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
        raise NotCyclicQuotient(f"quotient of order {n} is not cyclic")
    gen = int(ks[ok.argmax()])
    e = np.full(G.order, -1)
    e[G.m[np.ix_(powers(G, gen)[:n], H.members)]] = np.arange(n)[:, None]
    G._cache[key] = out = (n, gen, e)
    return out


# ---------------------------------------------------------------------------
# Orbits of generator cosets under the normalizer action
# ---------------------------------------------------------------------------

def coset_orbits(G: FiniteGroup, K: Subgroup, H: Subgroup, q: int, rng=None):
    """Orbits of the q-cyclotomic generator cosets mod n = [K:H] under the
    action of N_G(H) ∩ N_G(K): g acts by C -> m·C where g^{-1}·gen·g lies in
    the coset gen^m H.  Returns (reps, E) with one coset per orbit (the
    least, or a random one with rng) and the common stabilizer subgroup E
    (checked independent of the coset).  The m(g) form a group, so the orbit
    of C_i is read off img[:, i], the indices of the cosets m·C_i."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    cosets = generator_cosets(n, q)
    acting = np.flatnonzero(mask(G, normalizer(G, H)) & mask(G, normalizer(G, K)))
    x = G.m[G.m[G.inv_np[acting], gen], acting]  # g^-1 gen g
    if not mask(G, K)[x].all():
        raise InternalInconsistency("normalizer element does not stabilize K")
    mult = e[x]
    mults = np.flatnonzero(np.bincount(mult, minlength=n))  # without repeats
    label = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(cosets):
        label[list(c.members)] = i
    img = label[mults[:, None] * [c.rep for c in cosets] % n]
    stab = img == np.arange(len(cosets))
    if not (stab == stab[:, :1]).all():
        raise InternalInconsistency("coset stabilizer varies across generator cosets")
    E = Subgroup(G, acting[label[mult * cosets[0].rep % n] == 0].tolist())
    leaders = np.flatnonzero(img.min(axis=0) == np.arange(len(cosets)))
    if rng is not None:  # one draw per orbit, in the order of their least cosets
        orbits = (np.unique(img[:, i]) for i in leaders)
        leaders = sorted(orbit[rng.randrange(orbit.size)] for orbit in orbits)
    return [cosets[i] for i in leaders], E


# ---------------------------------------------------------------------------
# Idempotents
# ---------------------------------------------------------------------------

def epsilon_idempotent(A: GroupAlgebra, K: Subgroup, H: Subgroup,
                       C: CyclotomicCoset):
    """The trace-twisted coset-sum idempotent attached to (K, H) and the
    generator coset C of Z/[K:H]:
        |K|^{-1} * sum_{g in K} tr(zeta^{j*e(g)}) * g^{-1},
    j any member of C, zeta a primitive [K:H]-th root of unity."""
    G, F = A.group, A.field
    n, gen, e = cyclic_quotient_data(G, K, H)
    if C.modulus != n:
        raise ValueError(f"coset modulus {C.modulus} != [K:H] = {n}")
    j = C.rep
    tr = F.cyclotomic_traces(n)
    kinv = F.inv(F.from_int(K.order % F.p))
    coeffs = np.zeros(G.order, dtype=np.int16)
    ks = np.array(K.members)
    coeffs[G.inv_np[ks]] = np.array(tr)[j * e[ks] % n]
    return A.element(F.mul_np[kinv, coeffs])


def ec_idempotent(A: GroupAlgebra, K: Subgroup, H: Subgroup,
                  C: CyclotomicCoset, E: Subgroup):
    """Sum of the G-conjugates of the (K, H, C) idempotent, one per right
    coset of its centralizer E, the stabilizer of C from coset_orbits; row i
    of one gather is the conjugate x_i^-1·eps·x_i, coefficients eps[x_i h x_i^-1]."""
    G = A.group
    xs = np.array(transversal(G, E))
    rows = epsilon_idempotent(A, K, H, C).coeffs[G.m[G.m[xs], G.inv_np[xs][:, None]]]
    # one void scalar per row: np.unique(rows, axis=0) builds a field per column
    as_bytes = rows.view(f"V{rows.itemsize * G.order}")[:, 0]
    _, first, which = np.unique(as_bytes, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[which] != np.arange(xs.size))
    if repeats.size:
        raise InternalInconsistency(
            f"conjugate by {xs[repeats[0]]} repeats another: the stabilizer of C "
            f"is not the centralizer of the (K, H, C) idempotent")
    return AlgebraElement(A, A.field.sum_rows(rows))


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


def d_classes(G: FiniteGroup, N: Subgroup, A: Subgroup):
    """The subgroups D with N <= D <= A, A/D cyclic and core_G(D) = N, as
    a list of G-conjugacy classes, each sorted by members.

    The D with A/D cyclic are the kernels of the linear characters of A/N.
    A contains G', so it is normal; being abelian, it fixes every D by
    conjugation.  Cores and conjugates therefore need only a transversal
    of A in G."""
    elems, values = _characters(G, N, A)
    kernels = np.array(list({row.tobytes(): row for row in values == 0}.values()))
    pos = np.zeros(G.order, dtype=np.int64)
    pos[elems] = np.arange(elems.size)
    # conjugates[j, d, i]: whether elems[i] lies in D_d^t, t the j-th coset rep
    conjugates = np.stack([kernels[:, pos[G.m[G.m[t, elems], G.inv_np[t]]]]
                           for t in transversal(G, A)])
    classes = {}
    for d in np.flatnonzero(conjugates.all(axis=0).sum(axis=1) == N.order):
        key = min(row.tobytes() for row in conjugates[:, d])
        classes.setdefault(key, []).append(Subgroup(G, elems[kernels[d]].tolist()))
    return [sorted(c, key=lambda D: D.members) for c in classes.values()]


def shoda_triples(G: FiniteGroup, rng=None):
    """All triples (N, D, A), one per G-conjugacy class of D, sorted by
    (|N|, N, |D|, D).  A is maximal_abelian_over_derived(G, N) and D runs
    over d_classes(G, N, A); the least D of each class is taken, or a
    random one with rng.  Cached on G when rng is None."""
    if rng is None and "shoda_triples" in G._cache:
        return G._cache["shoda_triples"]
    out = []
    for N in normal_subgroups(G):
        A = maximal_abelian_over_derived(G, N, rng=rng)
        for cls in d_classes(G, N, A):
            D = cls[0] if rng is None else cls[rng.randrange(len(cls))]
            out.append(Triple(N, D, A))
    out = tuple(sorted(out, key=Triple.key))
    if rng is None:
        G._cache["shoda_triples"] = out
    return out


def component_params(G: FiniteGroup, tr: Triple, E: Subgroup, q: int):
    """Matrix size d and extension degree l of the component attached to a
    triple and its coset-orbit stabilizer E."""
    d = G.order // tr.A.order
    n = tr.A.order // tr.D.order
    if not tr.A.member_set <= E.member_set:
        raise InternalInconsistency("A not contained in the coset stabilizer")
    ord_q = mult_order(n, q)
    ind = E.order // tr.A.order
    if E.order % tr.A.order or ord_q % ind:
        raise InternalInconsistency(
            f"stabilizer index {E.order}/{tr.A.order} does not divide ord({q}) mod {n}")
    return d, ord_q // ind


# ---------------------------------------------------------------------------
# Decomposition driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentDescriptor:
    d: int
    l: int
    idempotent: object
    triple: Triple
    coset: CyclotomicCoset

    @property
    def dim(self):
        return self.d * self.d * self.l


def triple_components(A: GroupAlgebra, tr: Triple, rng=None):
    """The components of one triple, one per orbit of generator cosets
    (coset_orbits), all with the (d, l) of the orbits' stabilizer E."""
    G = A.group
    reps, E = coset_orbits(G, tr.A, tr.D, A.q, rng=rng)
    d, l = component_params(G, tr, E, A.q)
    return [ComponentDescriptor(d, l, ec_idempotent(A, tr.A, tr.D, C, E), tr, C)
            for C in reps]


@dataclass
class WedderburnSummary:
    order: int
    q: int
    components: dict  # (d, l) -> multiplicity

    def dimension(self):
        return sum(d * d * l * m for (d, l), m in self.components.items())

    def sorted_items(self):
        return sorted(self.components.items())

    def format(self):
        parts = []
        for (d, l), m in self.sorted_items():
            core_s = f"F_{self.q}^{l}" if l > 1 else f"F_{self.q}"
            mat = core_s if d == 1 else f"M_{d}({core_s})"
            parts.append(mat if m == 1 else f"{mat}^({m})")
        return " + ".join(parts)


def decompose(G: FiniteGroup, F: BaseField, rng=None, validate=True):
    """Primitive central idempotents and Wedderburn components of F_q[G].

    Returns (WedderburnSummary, [ComponentDescriptor]).  Raises NotSemisimple
    if gcd(q, |G|) != 1 and NotMetabelian if G is not metabelian.  With
    validate=True the idempotents are checked to be nonzero, idempotent,
    central, pairwise orthogonal, and to sum to 1, and the dimensions to add
    to |G| (InvariantViolation otherwise).
    """
    if gcd(F.q, G.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {G.order}) != 1")
    if not is_metabelian(G):
        raise NotMetabelian(f"{G.name} is not metabelian")
    A = GroupAlgebra(G, F)
    descriptors = [dsc for tr in shoda_triples(G, rng=rng)
                   for dsc in triple_components(A, tr, rng)]
    return summarize(A, descriptors, validate)


def summarize(A: GroupAlgebra, descriptors, validate=True):
    """(WedderburnSummary, descriptors) for the components found in A; with
    validate=True the invariant suite of _validate runs first."""
    components = {}
    for dsc in descriptors:
        key = (dsc.d, dsc.l)
        components[key] = components.get(key, 0) + 1
    summary = WedderburnSummary(order=A.group.order, q=A.q, components=components)
    if validate:
        _validate(A, summary, descriptors)
    return summary, descriptors


def _validate(A: GroupAlgebra, summary, descriptors):
    def fail(name, witness):
        raise InvariantViolation(name, witness)

    if summary.dimension() != A.group.order:
        fail("dimension_sum", {"got": summary.dimension(),
                               "expected": A.group.order})
    # a central element is known by its class-representative coefficients,
    # so once e is central, e·e and e_i·e_j are evaluated only there
    reps = [cls[0] for cls in conjugacy_classes(A.group)]
    es = [dsc.idempotent.coeffs for dsc in descriptors]
    for i, dsc in enumerate(descriptors):
        e = dsc.idempotent
        if e.is_zero():
            fail("nonzero", {"component": i})
        if not e.is_central():
            fail("central", {"component": i})
        if not np.array_equal(A.product(es[i], es[i], at=reps), es[i][reps]):
            fail("idempotent", {"component": i})
        dim = A.ideal_dimension(e)
        if dim != dsc.dim:
            fail("ideal_dimension", {"component": i, "got": dim,
                                     "expected": dsc.dim})
    # e_j·e_i = e_i·e_j for central idempotents: one product a pair
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if A.product(es[i], es[j], at=reps).any():
                fail("orthogonal", {"components": (i, j)})
    total = AlgebraElement(A, A.field.sum_rows(es))
    if total != A.one():
        fail("sum_to_one", {"sum": total.to_str()})
