"""Finite groups as explicit multiplication tables, plus the subgroup
machinery the engine needs, all computed inside G itself: closures,
normality, the normal subgroups (products of normal closures of conjugacy
classes), conjugacy, cores, centralizers/normalizers, and the subgroups A
over a normal N with A/N maximal abelian over (G/N)'.  No quotient group
and no subgroup lattice is ever built.  Also constructors for the group
families the package cares about (metacyclic presentations and two
2-group families given by normal forms) and the Cayley-table text format.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadPresentation,
    CapExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotMetabelian,
)

# normal_subgroups raises CapExceeded past this many normal subgroups
SUBGROUP_CAP = 512


class FiniteGroup:
    """A group on {0, ..., n-1} given by its full multiplication table.
    Index 0 must be the identity."""

    def __init__(self, table, labels=None, name=None, meta=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square and nonempty")
        self.order = n
        self.table = table
        self.m = np.array(table, dtype=np.int32)
        if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
            raise NoIdentity("index 0 does not act as a two-sided identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0:
                    inv[i] = j
                    break
            if inv[i] is None or table[inv[i]][i] != 0:
                raise NoInverse(f"element {i} has no two-sided inverse")
        self.inv = tuple(inv)
        self._check_associative()
        self.labels = tuple(labels) if labels else tuple(f"g{i}" for i in range(n))
        self.name = name or f"G{n}"
        self.meta = dict(meta or {})
        self._cache = {}

    def _check_associative(self):
        m = self.m
        # (i*j)*k vs i*(j*k), row-chunked to bound memory
        for i in range(self.order):
            lhs = m[m[i]]          # lhs[j, k] = (i*j)*k
            rhs = m[i][m]          # rhs[j, k] = i*(j*k)
            if not np.array_equal(lhs, rhs):
                j, k = map(int, np.argwhere(lhs != rhs)[0])
                raise NotAssociative(f"({i}*{j})*{k} != {i}*({j}*{k})")

    def conj(self, g, x):
        """x^{-1} g x."""
        t = self.table
        return t[t[self.inv[x]][g]][x]

    def element_order(self, g):
        return len(powers(self, g))

    def power(self, g, e):
        gs = powers(self, g)
        return gs[e % len(gs)]

    def __repr__(self):
        return f"<{self.name}, order {self.order}>"


class Subgroup:
    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        self.order = len(self.members)

    def __contains__(self, g):
        return g in self.member_set

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __le__(self, other):
        return self.member_set <= other.member_set

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.name})"


def subgroup_closure(G: FiniteGroup, gens) -> Subgroup:
    seen = {0}
    frontier = [0]
    gens = [g for g in gens]
    t = G.table
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = t[h][g]
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return Subgroup(G, seen)


def is_normal(G, H: Subgroup) -> bool:
    t, inv = G.table, G.inv
    for x in range(G.order):
        for h in H.members:
            if t[t[inv[x]][h]][x] not in H.member_set:
                return False
    return True


def normal_subgroups(G):
    """Every normal subgroup of G, sorted by (order, members).

    Each one is a product of normal closures of conjugacy classes, so the
    list is the closure of those under products N·C with one class closure
    C at a time.  Raises CapExceeded past SUBGROUP_CAP subgroups.
    """
    if "normal_subgroups" in G._cache:
        return G._cache["normal_subgroups"]
    atoms = {}
    for cls in conjugacy_classes(G):
        C = subgroup_closure(G, cls)
        atoms.setdefault(C.members, C)
    atom_of = np.concatenate([[i] * C.order for i, C in enumerate(atoms.values())])
    atom_elems = np.concatenate([C.members for C in atoms.values()])
    xs = np.arange(G.order)
    trivial = Subgroup(G, (0,))
    found = {mask(G, trivial).tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for N in frontier:
            # x and y lie in the same coset of N iff label[x] == label[y]
            label = G.m[np.array(N.members)[:, None], xs].min(axis=0)
            hit = np.zeros((len(atoms), G.order), dtype=bool)
            hit[atom_of, label[atom_elems]] = True
            for row in hit[:, label]:  # row i: the product of N and atom i
                key = row.tobytes()
                if key not in found:
                    if len(found) >= SUBGROUP_CAP:
                        raise CapExceeded(
                            f"more than {SUBGROUP_CAP} normal subgroups in group "
                            f"of order {G.order}")
                    found[key] = H = Subgroup(G, np.flatnonzero(row).tolist())
                    nxt.append(H)
        frontier = nxt
    out = sorted(found.values(), key=lambda H: (H.order, H.members))
    G._cache["normal_subgroups"] = out
    return out


def derived_subgroup(G) -> Subgroup:
    if "derived" in G._cache:
        return G._cache["derived"]
    M, inv = G.m, np.asarray(G.inv)
    ys = np.arange(G.order)
    comms = np.zeros(G.order, dtype=bool)
    for x in range(G.order):
        comms[M[M[M[inv[x], inv], x], ys]] = True  # [x, y] = x^-1 y^-1 x y
    H = subgroup_closure(G, np.flatnonzero(comms).tolist())
    G._cache["derived"] = H
    return H


def center(G) -> Subgroup:
    t = G.table
    zs = [g for g in range(G.order) if all(t[g][x] == t[x][g] for x in range(G.order))]
    return Subgroup(G, zs)


def centralizer(G, H: Subgroup) -> Subgroup:
    t = G.table
    zs = [g for g in range(G.order) if all(t[g][h] == t[h][g] for h in H.members)]
    return Subgroup(G, zs)


def normalizer(G, H: Subgroup) -> Subgroup:
    t, inv = G.table, G.inv
    mem = H.member_set
    ns = []
    for g in range(G.order):
        if all(t[t[inv[g]][h]][g] in mem for h in H.members):
            ns.append(g)
    return Subgroup(G, ns)


def core(G, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H (intersection of conjugates)."""
    t, inv = G.table, G.inv
    acc = set(H.members)
    for g in range(G.order):
        acc &= {t[t[inv[g]][h]][g] for h in H.members}
        if len(acc) == 1:
            break
    return Subgroup(G, acc)


def conjugate_subgroup(G, H: Subgroup, g) -> Subgroup:
    t, inv = G.table, G.inv
    return Subgroup(G, (t[t[inv[g]][h]][g] for h in H.members))


def is_abelian_subgroup(G, H: Subgroup) -> bool:
    t = G.table
    return all(t[a][b] == t[b][a] for a in H.members for b in H.members)


def is_metabelian(G) -> bool:
    if "metabelian" not in G._cache:
        G._cache["metabelian"] = is_abelian_subgroup(G, derived_subgroup(G))
    return G._cache["metabelian"]


def conjugacy_classes(G):
    if "classes" in G._cache:
        return G._cache["classes"]
    M, inv = G.m, np.asarray(G.inv)
    xs = np.arange(G.order)
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for g in range(G.order):
        if seen[g]:
            continue
        cls = np.unique(M[M[inv, g], xs])  # x^-1 g x for every x
        seen[cls] = True
        classes.append(tuple(cls.tolist()))
    G._cache["classes"] = classes
    return classes


# ---------------------------------------------------------------------------
# Abelian subgroups over a normal subgroup
# ---------------------------------------------------------------------------

def mask(G, H: Subgroup):
    """Membership of H as a boolean array over the elements of G."""
    out = np.zeros(G.order, dtype=bool)
    out[list(H.members)] = True
    return out


def powers(G, g):
    """[1, g, g^2, ...] up to the order of g."""
    out, x = [0], g
    while x != 0:
        out.append(x)
        x = G.table[x][g]
    return out


def transversal(G, H: Subgroup):
    """The least element of each right coset Hg, in increasing order."""
    covered = np.zeros(G.order, dtype=bool)
    out = []
    for g in range(G.order):
        if not covered[g]:
            out.append(g)
            covered[G.m[list(H.members), g]] = True
    return out


def maximal_abelian_over_derived(G, N: Subgroup, rng=None) -> Subgroup:
    """A subgroup A of G containing G'N with A/N abelian, maximal among
    such: A/N is a maximal abelian subgroup of G/N containing (G/N)'.

    Grown from G'N one element at a time: g joins when [g, b] lies in N for
    every b already in A.  The least such g, or a random one with rng; any
    inclusion-maximal result serves the decomposition.
    """
    if not is_metabelian(G):
        raise NotMetabelian(f"derived subgroup of {G.name} is not abelian")
    M, inv = G.m, np.asarray(G.inv)
    in_n = mask(G, N)
    members = np.unique(M[np.ix_(derived_subgroup(G).members, N.members)])
    in_a = np.zeros(G.order, dtype=bool)
    in_a[members] = True
    # [x, b] = x^-1 b^-1 x b for x outside A (rows) and b in A (columns)
    x, b = np.flatnonzero(~in_a)[:, None], members[None, :]
    comm = M[M[M[inv[x], inv[b]], x], b]
    cands = x[in_n[comm].all(axis=1), 0]
    while cands.size:
        g = int(cands[0] if rng is None else cands[rng.randrange(cands.size)])
        members = np.unique(M[np.ix_(members, powers(G, g))])
        in_a[members] = True
        cands = cands[~in_a[cands] & in_n[M[M[M[inv[cands], inv[g]], cands], g]]]
    return Subgroup(G, members.tolist())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def metacyclic_group(n: int, t: int, k: int, r: int) -> FiniteGroup:
    """<a, b | a^n = 1, b^t = a^k, b^{-1} a b = a^r>, order n*t.
    Element index i*t + j stands for a^i b^j."""
    if n < 1 or t < 1:
        raise BadPresentation("n and t must be positive")
    r %= n
    k %= n
    if pow(r, t, n) != 1:
        raise BadPresentation(f"r^t = {pow(r, t, n)} mod {n}, expected 1")
    if k * (r - 1) % n != 0:
        raise BadPresentation(f"k(r-1) = {k * (r - 1) % n} mod {n}, expected 0")
    order = n * t
    table = [[0] * order for _ in range(order)]
    # b^{-1} a b = a^r gives b^{j} a = a^{r^{-j}} b^{j}
    rinv = pow(r, -1, n) if n > 1 else 0
    ripow = [pow(rinv, j, n) if n > 1 else 0 for j in range(t)]
    for i1 in range(n):
        for j1 in range(t):
            row = table[i1 * t + j1]
            for i2 in range(n):
                for j2 in range(t):
                    j = j1 + j2
                    i = (i1 + i2 * ripow[j1] + k * (j // t)) % n
                    row[i2 * t + j2] = i * t + (j % t)
    labels = []
    for i in range(n):
        for j in range(t):
            parts = []
            if i:
                parts.append("a" if i == 1 else f"a^{i}")
            if j:
                parts.append("b" if j == 1 else f"b^{j}")
            labels.append("*".join(parts) if parts else "1")
    G = FiniteGroup(table, labels=labels, name=f"M({n},{t},{k},{r})",
                    meta={"family": "metacyclic", "params": (n, t, k % n, r % n)})
    return G


@lru_cache(maxsize=None)
def d1_group(m: int) -> FiniteGroup:
    """Order 2^{m+2} group generated by t, x, y with t of order 2^m, x and y
    of order 2, x and y commuting with t, and yx = xy t^{2^{m-1}}.
    Element index c*4 + e*2 + f stands for t^c x^e y^f."""
    if m < 1:
        raise BadPresentation("m must be >= 1")
    n = 1 << m
    half = n >> 1
    order = 4 * n
    table = [[0] * order for _ in range(order)]
    for c1 in range(n):
        for e1 in range(2):
            for f1 in range(2):
                row = table[c1 * 4 + e1 * 2 + f1]
                for c2 in range(n):
                    for e2 in range(2):
                        for f2 in range(2):
                            c = (c1 + c2 + f1 * e2 * half) % n
                            row[c2 * 4 + e2 * 2 + f2] = (
                                c * 4 + ((e1 + e2) % 2) * 2 + (f1 + f2) % 2)
    labels = []
    for c in range(n):
        for e in range(2):
            for f in range(2):
                parts = []
                if c:
                    parts.append("t" if c == 1 else f"t^{c}")
                if e:
                    parts.append("x")
                if f:
                    parts.append("y")
                labels.append("*".join(parts) if parts else "1")
    return FiniteGroup(table, labels=labels, name=f"D1({m})",
                       meta={"family": "d1", "m": m})


def d1_index(m: int, c: int, e: int, f: int) -> int:
    return (c % (1 << m)) * 4 + (e % 2) * 2 + (f % 2)


@lru_cache(maxsize=None)
def d2_group(m: int) -> FiniteGroup:
    """Order 2^{m+2} group <a, b | a^{2^{m+1}} = 1, b^2 = a^2,
    b^{-1} a b = a^{2^m + 1}>."""
    if m < 1:
        raise BadPresentation("m must be >= 1")
    G = metacyclic_group(1 << (m + 1), 2, 2, (1 << m) + 1)
    return FiniteGroup(G.table, labels=G.labels, name=f"D2({m})",
                       meta={"family": "d2", "m": m,
                             "params": G.meta["params"]})


# ---------------------------------------------------------------------------
# Cayley-table text format
# ---------------------------------------------------------------------------

def parse_cayley(text: str) -> FiniteGroup:
    """Parse the plain-text table format: a line `order N`, then N rows of N
    whitespace-separated indices, then optional `label I NAME` lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("order"):
        raise ValueError("expected first line 'order N'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError("malformed order line") from exc
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:1 + n]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise ValueError(f"bad table row: {ln!r}")
        table.append(row)
    labels = [f"g{i}" for i in range(n)]
    for ln in lines[1 + n:]:
        toks = ln.split(None, 2)
        if toks[0] != "label" or len(toks) != 3:
            raise ValueError(f"bad trailing line: {ln!r}")
        idx = int(toks[1])
        if not (0 <= idx < n):
            raise ValueError(f"label index out of range: {ln!r}")
        labels[idx] = toks[2]
    return FiniteGroup(table, labels=labels, name=f"cayley{n}")


def format_cayley(G: FiniteGroup) -> str:
    out = [f"order {G.order}"]
    for row in G.table:
        out.append(" ".join(map(str, row)))
    for i, lab in enumerate(G.labels):
        if lab != f"g{i}":
            out.append(f"label {i} {lab}")
    return "\n".join(out) + "\n"
