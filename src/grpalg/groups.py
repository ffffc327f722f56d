"""Finite groups as explicit multiplication tables, plus the subgroup
machinery needed downstream: closures, normality, quotients, conjugacy,
cores, centralizers/normalizers, and constructors for the group families
the package cares about (metacyclic presentations and two 2-group
families given by normal forms).
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

    def mul(self, i, j):
        return self.table[i][j]

    def conj(self, g, x):
        """x^{-1} g x."""
        t = self.table
        return t[t[self.inv[x]][g]][x]

    def element_order(self, g):
        k, acc = 1, g
        while acc != 0:
            acc = self.table[acc][g]
            k += 1
        return k

    def power(self, g, e):
        e %= self.element_order(g)
        acc = 0
        for _ in range(e):
            acc = self.table[acc][g]
        return acc

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


def trivial_subgroup(G):
    return Subgroup(G, (0,))


def full_subgroup(G):
    return Subgroup(G, range(G.order))


def all_subgroups(G: FiniteGroup, cap: int = SUBGROUP_CAP):
    """Every subgroup of G, sorted by (order, members).

    Built by closing the cyclic subgroups under joins with cyclic subgroups.
    Raises CapExceeded if the count passes `cap`.
    """
    key = ("all_subgroups", cap)
    if key in G._cache:
        return G._cache[key]
    cyclic = {}
    for g in range(G.order):
        H = subgroup_closure(G, [g])
        cyclic.setdefault(H.members, (H, g))
    found = {m: [g] for m, (H, g) in cyclic.items()}
    frontier = list(found)
    while frontier:
        nxt = []
        for mem in frontier:
            gens = found[mem]
            for cm, (C, cg) in cyclic.items():
                if cm == mem or set(cm) <= set(mem):
                    continue
                J = subgroup_closure(G, gens + [cg])
                if J.members not in found:
                    found[J.members] = gens + [cg]
                    nxt.append(J.members)
                    if len(found) > cap:
                        raise CapExceeded(
                            f"more than {cap} subgroups in group of order {G.order}")
        frontier = nxt
    subs = sorted((Subgroup(G, m) for m in found), key=lambda H: (H.order, H.members))
    gens_of = {m: tuple(g) for m, g in found.items()}
    G._cache[key] = (subs, gens_of)
    return subs, gens_of


def is_normal(G, H: Subgroup) -> bool:
    t, inv = G.table, G.inv
    for x in range(G.order):
        for h in H.members:
            if t[t[inv[x]][h]][x] not in H.member_set:
                return False
    return True


def normal_subgroups(G, cap: int = SUBGROUP_CAP):
    key = ("normal_subgroups", cap)
    if key in G._cache:
        return G._cache[key]
    subs, _ = all_subgroups(G, cap)
    out = [H for H in subs if is_normal(G, H)]
    G._cache[key] = out
    return out


def derived_subgroup(G) -> Subgroup:
    if "derived" in G._cache:
        return G._cache["derived"]
    t, inv = G.table, G.inv
    comms = set()
    for x in range(G.order):
        for y in range(G.order):
            comms.add(t[t[t[inv[x]][inv[y]]][x]][y])
    H = subgroup_closure(G, comms)
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
    D = derived_subgroup(G)
    return is_abelian_subgroup(G, D)


def conjugacy_classes(G):
    if "classes" in G._cache:
        return G._cache["classes"]
    seen = [False] * G.order
    classes = []
    for g in range(G.order):
        if seen[g]:
            continue
        cls = sorted({G.conj(g, x) for x in range(G.order)})
        for h in cls:
            seen[h] = True
        classes.append(tuple(cls))
    G._cache["classes"] = classes
    return classes


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

class QuotientGroup(FiniteGroup):
    """G/N with cosets ordered by their least representative (identity coset
    first). push maps parent elements to coset indices; pull_back gives the
    least representative of a coset."""

    def __init__(self, parent: FiniteGroup, N: Subgroup):
        t = parent.table
        coset_of = [None] * parent.order
        reps = []
        for g in range(parent.order):
            if coset_of[g] is None:
                idx = len(reps)
                reps.append(g)
                for h in N.members:
                    coset_of[t[g][h]] = idx
        order = len(reps)
        table = [[coset_of[t[reps[i]][reps[j]]] for j in range(order)] for i in range(order)]
        self.parent_group = parent
        self.kernel = N
        self._push = tuple(coset_of)
        self._reps = tuple(reps)
        super().__init__(
            table,
            labels=[parent.labels[r] + "N" for r in reps],
            name=f"{parent.name}/N{N.order}",
        )

    def push(self, g):
        return self._push[g]

    def pull_back(self, c):
        return self._reps[c]

    def push_subgroup(self, H: Subgroup) -> Subgroup:
        return Subgroup(self, {self._push[h] for h in H.members})

    def pull_back_subgroup(self, Hbar: Subgroup) -> Subgroup:
        mem = Hbar.member_set
        return Subgroup(self.parent_group,
                        (g for g in range(self.parent_group.order)
                         if self._push[g] in mem))


def quotient(G: FiniteGroup, N: Subgroup):
    """G/N.  For N trivial returns G itself (with identity push/pull)."""
    key = ("quotient", N.members)
    if key in G._cache:
        return G._cache[key]
    if N.order == 1:
        Q = _IdentityQuotient(G)
    else:
        if not is_normal(G, N):
            raise ValueError("subgroup is not normal")
        Q = QuotientGroup(G, N)
    G._cache[key] = Q
    return Q


class _IdentityQuotient:
    """Thin wrapper presenting G as G/1 without rebuilding tables."""

    def __init__(self, G):
        self.group = G

    def __getattr__(self, name):
        return getattr(self.group, name)

    def push(self, g):
        return g

    def pull_back(self, c):
        return c

    def push_subgroup(self, H):
        return H

    def pull_back_subgroup(self, Hbar):
        return Subgroup(self.group, Hbar.members)

    @property
    def parent_group(self):
        return self.group

    @property
    def _cache(self):
        return self.group._cache


def maximal_abelian_over_derived(Q, rng=None) -> Subgroup:
    """A subgroup of Q that is abelian, contains Q', and is maximal among
    such.  Deterministically the one of largest order with lex-least member
    tuple; with rng, a random choice among the maximal-order candidates."""
    cands = maximal_abelian_candidates(Q)
    if rng is not None:
        return cands[rng.randrange(len(cands))]
    return cands[0]


def maximal_abelian_candidates(Q):
    key = "max_abelian_candidates"
    if key in Q._cache:
        return Q._cache[key]
    D = derived_subgroup(Q if isinstance(Q, FiniteGroup) else Q.group)
    if not is_abelian_subgroup(Q, D):
        raise NotMetabelian(f"derived subgroup of {Q.name} is not abelian")
    subs, _ = all_subgroups(Q if isinstance(Q, FiniteGroup) else Q.group)
    dmem = D.member_set
    ab = [H for H in subs if dmem <= H.member_set and is_abelian_subgroup(Q, H)]
    # maximal under inclusion
    maximal = [H for H in ab
               if not any(H.member_set < K.member_set for K in ab)]
    best = max(H.order for H in maximal)
    cands = sorted((H for H in maximal if H.order == best), key=lambda H: H.members)
    Q._cache[key] = cands
    return cands


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
