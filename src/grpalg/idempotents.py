"""Primitive central idempotents and the Wedderburn decomposition of a
semisimple metabelian group algebra F_q[G].

The pipeline: enumerate triples (N, D, A) where N is normal in G, A/N is a
chosen maximal abelian subgroup of G/N containing (G/N)', and D/N runs over
subgroups of A/N with cyclic quotient A/D whose core in G/N is trivial,
deduplicated up to conjugacy in G/N.  Each triple, together with an orbit
of q-cyclotomic generator cosets modulo [A:D], yields one primitive central
idempotent as a sum of conjugates of a trace-twisted coset sum, and one
matrix component M_d(F_{q^l}).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .algebra import GroupAlgebra
from .errors import (
    InternalInconsistency,
    InvariantViolation,
    NotCyclicQuotient,
    NotMetabelian,
    NotSemisimple,
)
from .field import FieldTower, mult_order
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    conjugate_subgroup,
    core,
    is_metabelian,
    maximal_abelian_over_derived,
    normal_subgroups,
    normalizer,
    quotient,
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
    where gen is the least element of K whose coset generates K/H and
    e maps each k in K to the discrete log of kH base gen."""
    KH = quotient_in(G, K, H)
    n = KH.order
    gen_bar = None
    for c in range(KH.order):
        if KH.element_order(c) == n:
            gen_bar = c
            break
    if gen_bar is None:
        raise NotCyclicQuotient(f"quotient of order {n} is not cyclic")
    log = {0: 0}
    cur = 0
    for j in range(1, n):
        cur = KH.table[cur][gen_bar]
        log[cur] = j
    emb = _embed_map(G, K, H)
    e = {k: log[emb[k]] for k in K.members}
    gen = min(k for k in K.members if e[k] == 1 % n)
    return n, gen, e


def quotient_in(G: FiniteGroup, K: Subgroup, H: Subgroup):
    """The quotient K/H as a standalone group (K realized as a group first)."""
    Ksub = _as_group(G, K)
    Hin = Subgroup(Ksub, [Ksub.meta["inv_index"][h] for h in H.members])
    return quotient(Ksub, Hin)


def _as_group(G: FiniteGroup, K: Subgroup) -> FiniteGroup:
    key = ("as_group", K.members)
    if key in G._cache:
        return G._cache[key]
    if K.order == G.order:
        G.meta.setdefault("inv_index", {g: g for g in range(G.order)})
        G._cache[key] = G
        return G
    idx = {g: i for i, g in enumerate(K.members)}
    table = [[idx[G.table[a][b]] for b in K.members] for a in K.members]
    # identity 0 is K.members[0] since members are sorted and contain 0
    sub = FiniteGroup(table, labels=[G.labels[g] for g in K.members],
                      name=f"{G.name}|{K.order}")
    sub.meta["inv_index"] = idx
    sub.meta["fwd_index"] = K.members
    G._cache[key] = sub
    return sub


def _embed_map(G, K, H):
    key = ("embed_map", K.members, H.members)
    if key in G._cache:
        return G._cache[key]
    Ksub = _as_group(G, K)
    KH = quotient_in(G, K, H)
    inv = Ksub.meta["inv_index"]
    out = {k: KH.push(inv[k]) for k in K.members}
    G._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Orbits of generator cosets under the normalizer action
# ---------------------------------------------------------------------------

def coset_orbits(G: FiniteGroup, K: Subgroup, H: Subgroup, q: int, rng=None):
    """Orbits of the q-cyclotomic generator cosets mod n = [K:H] under the
    action of N_G(H) ∩ N_G(K): g acts by C -> m·C where g^{-1}·gen·g lies in
    the coset gen^m H.  Returns (reps, E) with one coset per orbit and the
    common stabilizer subgroup E (checked independent of the coset)."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    cosets = generator_cosets(n, q)
    NH = normalizer(G, H)
    NK = normalizer(G, K)
    acting = sorted(NH.member_set & NK.member_set)
    mults = set()
    for g in acting:
        x = G.conj(gen, g)
        if x not in K.member_set:
            raise InternalInconsistency("normalizer element does not stabilize K")
        mults.add((e[x] % n) if n > 1 else 1)
    by_members = {c.members: c for c in cosets}
    orbits = []
    seen = set()
    stab_sets = []
    for c in cosets:
        if c.members in seen:
            continue
        orbit = {c.members}
        frontier = [c.members]
        while frontier:
            nf = []
            for mem in frontier:
                for m in mults:
                    img = tuple(sorted((m * u) % n for u in mem))
                    if img not in orbit:
                        orbit.add(img)
                        nf.append(img)
            frontier = nf
        seen |= orbit
        orbits.append(sorted(orbit))
    # stabilizer of each coset; must be the same subgroup for all cosets
    E_members = None
    for c in cosets:
        stab = [g for g in acting
                if n == 1 or tuple(sorted((e[G.conj(gen, g)] * u) % n
                                          for u in c.members)) == c.members]
        if E_members is None:
            E_members = stab
        elif E_members != stab:
            raise InternalInconsistency(
                "coset stabilizer varies across generator cosets")
    E = Subgroup(G, E_members)
    reps = []
    for orbit in orbits:
        if rng is None:
            pick = min(orbit, key=lambda mem: min(mem))
        else:
            pick = orbit[rng.randrange(len(orbit))]
        reps.append(by_members[pick])
    reps.sort(key=lambda c: c.rep)
    return reps, E


# ---------------------------------------------------------------------------
# Idempotents
# ---------------------------------------------------------------------------

def epsilon_idempotent(A: GroupAlgebra, K: Subgroup, H: Subgroup,
                       C: CyclotomicCoset):
    """The trace-twisted coset-sum idempotent attached to (K, H) and the
    generator coset C of Z/[K:H]:
        |K|^{-1} * sum_{g in K} tr(zeta^{j*e(g)}) * g^{-1},
    j any member of C, zeta a primitive [K:H]-th root of unity."""
    G, tower = A.group, A.tower
    F = tower.base
    n, gen, e = cyclic_quotient_data(G, K, H)
    if C.modulus != n:
        raise ValueError(f"coset modulus {C.modulus} != [K:H] = {n}")
    j = C.rep
    tr = tower.cyclotomic_traces(n)
    kinv = F.inv(F.from_int(K.order % F.p))
    coeffs = np.zeros(G.order, dtype=np.int16)
    for g in K.members:
        coeffs[G.inv[g]] = F.add(coeffs[G.inv[g]], tr[j * e[g] % n])
    coeffs = F.mul_np[kinv, coeffs]
    return A.element(coeffs)


def ec_idempotent(A: GroupAlgebra, K: Subgroup, H: Subgroup,
                  C: CyclotomicCoset):
    """Sum of the distinct G-conjugates of the (K, H, C) idempotent."""
    eps = epsilon_idempotent(A, K, H, C)
    seen = set()
    total = A.zero()
    for x in range(A.group.order):
        c = eps.conjugate(x)
        k = c.key()
        if k not in seen:
            seen.add(k)
            total = total + c
    return total


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


def shoda_triples(G: FiniteGroup, rng=None):
    """All triples (N, D, A), deduplicated up to conjugacy in G/N, sorted by
    (|N|, N, |D|, D).  A/N is the chosen maximal abelian subgroup of G/N
    containing its derived subgroup (see maximal_abelian_over_derived)."""
    out = []
    for N in normal_subgroups(G):
        Q = quotient(G, N)
        Abar = maximal_abelian_over_derived(Q, rng=rng)
        subs, _ = all_subgroups(Q if isinstance(Q, FiniteGroup) else Q.group)
        amem = Abar.member_set
        cands = []
        for Dbar in subs:
            if not Dbar.member_set <= amem:
                continue
            try:
                cyclic_quotient_data(
                    Q if isinstance(Q, FiniteGroup) else Q.group, Abar, Dbar)
            except NotCyclicQuotient:
                continue
            Qg = Q if isinstance(Q, FiniteGroup) else Q.group
            if core(Qg, Dbar).order != 1:
                continue
            cands.append(Dbar)
        # dedup up to conjugacy in G/N
        Qg = Q if isinstance(Q, FiniteGroup) else Q.group
        orbits = {}
        for Dbar in cands:
            conjs = tuple(sorted(
                {conjugate_subgroup(Qg, Dbar, g).members for g in range(Qg.order)}))
            orbits.setdefault(conjs, []).append(Dbar)
        for conjs, reps in sorted(orbits.items()):
            if rng is None:
                pick = min(reps, key=lambda D: D.members)
            else:
                by_mem = {D.members: D for D in reps}
                all_in_orbit = [by_mem.get(m, Subgroup(Qg, m)) for m in conjs]
                pick = all_in_orbit[rng.randrange(len(all_in_orbit))]
            D = Q.pull_back_subgroup(pick)
            A = Q.pull_back_subgroup(Abar)
            out.append(Triple(N, D, A))
    out.sort(key=lambda tr: tr.key())
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


def decompose(G: FiniteGroup, tower: FieldTower, rng=None, validate=True):
    """Primitive central idempotents and Wedderburn components of F_q[G].

    Returns (WedderburnSummary, [ComponentDescriptor]).  Raises NotSemisimple
    if gcd(q, |G|) != 1 and NotMetabelian if G is not metabelian.  With
    validate=True the idempotents are checked to be nonzero, idempotent,
    central, pairwise orthogonal, and to sum to 1, and the dimensions to add
    to |G| (InvariantViolation otherwise).
    """
    q = tower.q
    if gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd({q}, {G.order}) != 1")
    if not is_metabelian(G):
        raise NotMetabelian(f"{G.name} is not metabelian")
    A = GroupAlgebra(G, tower)
    descriptors = []
    for tr in shoda_triples(G, rng=rng):
        reps, E = coset_orbits(G, tr.A, tr.D, q, rng=rng)
        d, l = component_params(G, tr, E, q)
        for C in reps:
            e = ec_idempotent(A, tr.A, tr.D, C)
            descriptors.append(ComponentDescriptor(d, l, e, tr, C))
    components = {}
    for dsc in descriptors:
        key = (dsc.d, dsc.l)
        components[key] = components.get(key, 0) + 1
    summary = WedderburnSummary(order=G.order, q=q, components=components)
    if validate:
        _validate(A, summary, descriptors)
    return summary, descriptors


def _validate(A: GroupAlgebra, summary, descriptors):
    def fail(name, witness):
        raise InvariantViolation(name, witness)

    if summary.dimension() != A.group.order:
        fail("dimension_sum", {"got": summary.dimension(),
                               "expected": A.group.order})
    total = A.zero()
    for i, dsc in enumerate(descriptors):
        e = dsc.idempotent
        if e.is_zero():
            fail("nonzero", {"component": i})
        if not e.is_idempotent():
            fail("idempotent", {"component": i})
        if not e.is_central():
            fail("central", {"component": i})
        dim = A.ideal_dimension(e)
        if dim != dsc.dim:
            fail("ideal_dimension", {"component": i, "got": dim,
                                     "expected": dsc.dim})
        total = total + e
    for i in range(len(descriptors)):
        for j in range(i + 1, len(descriptors)):
            if not descriptors[i].idempotent.is_orthogonal_to(
                    descriptors[j].idempotent):
                fail("orthogonal", {"components": (i, j)})
    if total != A.one():
        fail("sum_to_one", {"sum": total.to_str()})
