"""Finite groups as explicit multiplication tables, plus the subgroup
machinery the engine needs, all computed inside G itself: closures,
conjugacy, normalizers, and the subgroups A over a normal N with A/N
maximal abelian over (G/N)'.  No quotient group and no subgroup lattice is
ever built: the engine takes its normal subgroups from character kernels,
whose cores it reads off their conjugates (idempotents.shoda_triples).
Also constructors for the group families the package cares about
(metacyclic presentations and two 2-group families given by normal forms)
and the parser of the Cayley-table text format.

A table is the one int32 array `m`, checked with array operations: shape,
range, identity and inverses directly, associativity by Light's test over
a greedy generating set (about log2|G| pairs of |G| x |G| gathers instead
of |G|).  The constructors broadcast their normal-form product formulas
into int32 arrays; the helpers are array expressions over `m`, and the
walks (powers, closures) read one column of `m` as a list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import (
    BadPresentation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotMetabelian,
)

# the largest |G| whose table may be built: a 64 MB int32 table
MAX_GROUP_ORDER = 4096


def _check_order(order, shown=None):
    """ValueError, before any table is allocated, when |G| = order is past
    MAX_GROUP_ORDER; `shown` is how the message writes the order."""
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {shown or order} exceeds the limit "
                         f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")


def check_family_order(m):
    """BadPresentation for m < 1, and _check_order for the order-2^{m+2}
    families d1_group and d2_group, with no 2^m-bit shift for a huge m."""
    if m < 1:
        raise BadPresentation("m must be >= 1")
    _check_order(1 << min(max(m + 2, 0), 64), f"2^{m + 2}")


class FiniteGroup:
    """A group on {0, ..., n-1} given by its full multiplication table.
    Index 0 must be the identity.

    The table is the int32 array `m`, m[g, h] = g*h, and `inv_np` the
    int32 array of inverses; no per-element Python objects besides the
    `labels` strings are kept."""

    def __init__(self, table, labels=None, name=None, meta=None):
        try:
            m = np.asarray(table)
        except ValueError as exc:  # ragged rows
            raise ValueError("multiplication table must be square and nonempty") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("multiplication table must be square and nonempty")
        if m.dtype.kind not in "iu":
            raise ValueError("multiplication table entries must be integers")
        n = m.shape[0]
        if m.min() < 0 or m.max() >= n:
            raise ValueError(f"multiplication table entries must lie in 0..{n - 1}")
        m = m.astype(np.int32, copy=False)
        xs = np.arange(n)
        if (m[0] != xs).any() or (m[:, 0] != xs).any():
            raise NoIdentity("index 0 does not act as a two-sided identity")
        inv = (m == 0).argmax(axis=1)  # the least j with i*j = 0
        bad = (m[xs, inv] != 0) | (m[inv, xs] != 0)
        if bad.any():
            raise NoInverse(f"element {int(bad.argmax())} has no two-sided inverse")
        witness = associativity_witness(m)
        if witness is not None:
            x, a, y = witness
            raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")
        labels = tuple(f"g{i}" for i in range(n)) if labels is None else tuple(labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        self.order = n
        self.m = m
        self.inv_np = inv.astype(np.int32)
        self.labels = labels
        self.name = name or f"G{n}"
        self.meta = dict(meta or {})
        self._cache = {}

    def power(self, g, e):
        """g^e for e >= 0 by repeated squaring, elementwise when g is an
        array."""
        x = np.asarray(g)
        out = np.zeros_like(x)
        while e:
            if e & 1:
                out = self.m[out, x]
            x = self.m[x, x]
            e >>= 1
        return out if np.ndim(out) else int(out)

    def __repr__(self):
        return f"<{self.name}, order {self.order}>"


def _closure(m, elems):
    """(gens, covered): `covered` is the closure of {0} under right
    multiplication by `elems` in the table m, and `gens` the elements that
    were not covered when reached.  A BFS over one column of m, read as a
    list, per element of gens; the table m need not be associative."""
    covered, gens, cols = {0}, [], []
    for a in elems:
        if a in covered:
            continue
        gens.append(int(a))
        cols.append(m[:, a].tolist())
        frontier = list(covered)  # the new column applies to all of it
        while frontier:
            nxt = []
            for h in frontier:
                for col in cols:
                    x = col[h]
                    if x not in covered:
                        covered.add(x)
                        nxt.append(x)
            frontier = nxt
    return gens, covered


def generators(m, members):
    """Elements of `members` whose left-normed products ((a1*a2)*a3)...
    cover `members`, picked greedily, least uncovered element first.  For a
    subgroup of a group that is a generating set of at most log2 of its
    order elements; the table m need not be associative."""
    return _closure(m, members)[0]


def associativity_witness(m):
    """None if the table m, with two-sided identity 0, is associative;
    otherwise some (x, a, y) with (x*a)*y != x*(a*y).

    Light's test: the a with (x*a)*y = x*(a*y) for all x, y include the
    identity and are closed under products, so it suffices to check a over
    generators of the table, one pair of n x n gathers each, taken 256 rows
    at a time so that the gathers stay small next to the table."""
    for a in generators(m, range(len(m))):
        for x0 in range(0, len(m), 256):
            rows = m[x0:x0 + 256]
            lhs = m[rows[:, a]]   # lhs[x, y] = (x*a)*y
            rhs = rows[:, m[a]]   # rhs[x, y] = x*(a*y)
            if not np.array_equal(lhs, rhs):
                x, y = map(int, np.argwhere(lhs != rhs)[0])
                return x0 + x, a, y
    return None


class Subgroup:
    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.order = len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.name})"


def subgroup_closure(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by gens; a long list of gens costs one
    membership test per element already reached."""
    return Subgroup(G, _closure(G.m, gens)[1])


def derived_subgroup(G) -> Subgroup:
    """G' = <[x, y] : x in X, y in G> for a generating set X of G, with
    [x, y] = x^-1 y^-1 x y, the commutators taken in one gather.

    The right side H lies in G'.  It is normal: [x, y]^g = [x, g]^-1
    [x, yg], a product of generators of H.  Modulo H every x in X commutes
    with every y, so G/H is generated by central elements and is abelian,
    which puts G' inside H."""
    if "derived" in G._cache:
        return G._cache["derived"]
    M, inv = G.m, G.inv_np
    xs = np.array(generators(M, range(G.order)), dtype=np.int64)[:, None]
    comms = M[M[M[inv[xs], inv[None, :]], xs], np.arange(G.order)[None, :]]
    H = subgroup_closure(G, np.unique(comms).tolist())
    G._cache["derived"] = H
    return H


def normalizer(G, H: Subgroup) -> Subgroup:
    """The g in G with g^-1 s g in H for every s in generators of H; as
    conjugation by g is a homomorphism, that puts g^-1 H g inside H."""
    s = generators(G.m, H.members)
    conj = G.m[G.m[np.ix_(G.inv_np, s)], np.arange(G.order)[:, None]]
    return Subgroup(G, np.flatnonzero(mask(G, H)[conj].all(axis=1)).tolist())


def is_metabelian(G) -> bool:
    if "metabelian" not in G._cache:
        h = derived_subgroup(G).members
        sub = G.m[np.ix_(h, h)]
        G._cache["metabelian"] = np.array_equal(sub, sub.T)
    return G._cache["metabelian"]


def class_structure(G):
    """(class_of, reps, idx), the conjugacy classes of G in class
    coordinates, built once per group.  class_of is the int32 array of each
    element's class index, the classes ordered by least member, and reps
    the least member of each class.  A central W has one coordinate w[l] per
    class, W(g) = w[class_of[g]], and idx[x, l] = class_of[x⁻¹·reps[l]] is
    the |G| × k array that multiplies central elements in those coordinates:
    (U·W)(reps[l]) = Σ_x U(x)·W(x⁻¹·reps[l]) = Σ_x U(x)·w[idx[x, l]]."""
    if "class_structure" in G._cache:
        return G._cache["class_structure"]
    M, inv = G.m, G.inv_np
    xs = np.arange(G.order)
    class_of = np.full(G.order, -1, dtype=np.int32)
    reps = []
    for g in range(G.order):
        if class_of[g] < 0:
            class_of[M[M[inv, g], xs]] = len(reps)  # x^-1 g x for every x
            reps.append(g)
    reps = np.array(reps)
    G._cache["class_structure"] = out = (class_of, reps, class_of[M.take(reps, axis=1)[inv]])
    return out


# ---------------------------------------------------------------------------
# Abelian subgroups over a normal subgroup
# ---------------------------------------------------------------------------

def mask(G, H: Subgroup):
    """Membership of H as a boolean array over the elements of G."""
    out = np.zeros(G.order, dtype=bool)
    out[list(H.members)] = True
    return out


def powers(G, g):
    """[1, g, g^2, ...] up to the order of g, walking column g of G.m."""
    col = G.m[:, g].tolist()
    out, x = [0], g
    while x != 0:
        out.append(x)
        x = col[x]
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


def maximal_abelian_over_derived(G, N: Subgroup) -> Subgroup:
    """A subgroup A of G containing G'N with A/N abelian, maximal among
    such: A/N is a maximal abelian subgroup of G/N containing (G/N)'.

    Grown from G'N one element at a time: g joins when [g, b] lies in N for
    every b already in A.  The least such g joins; any inclusion-maximal
    result serves the decomposition.
    """
    if not is_metabelian(G):
        raise NotMetabelian(f"derived subgroup of {G.name} is not abelian")
    M, inv = G.m, G.inv_np
    in_n = mask(G, N)
    members = np.unique(M[np.ix_(derived_subgroup(G).members, N.members)])
    in_a = np.zeros(G.order, dtype=bool)
    in_a[members] = True
    # [x, b] = x^-1 b^-1 x b for x outside A (rows) and b generating A
    # (columns): [x, b1] and [x, b2] in the normal N put [x, b1·b2] in N
    x = np.flatnonzero(~in_a)[:, None]
    b = np.array(generators(M, members), dtype=np.int64)
    comm = M[M[M[inv[x], inv[b]], x], b]
    cands = x[in_n[comm].all(axis=1), 0]
    while cands.size:
        g = int(cands[0])
        members = np.unique(M[np.ix_(members, powers(G, g))])
        in_a[members] = True
        cands = cands[~in_a[cands] & in_n[M[M[M[inv[cands], inv[g]], cands], g]]]
    return Subgroup(G, members.tolist())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _word_labels(*letters):
    """Labels of the normal-form words g1^x1 * g2^x2 * ... for letters
    (g1, n1), (g2, n2), ..., 0 <= xi < ni, in index order (the last
    exponent runs fastest): g for exponent 1, g^x above, "1" for the
    identity."""
    return ["*".join(g if x == 1 else f"{g}^{x}"
                     for (g, _), x in zip(letters, xs) if x) or "1"
            for xs in product(*(range(n) for _, n in letters))]


@lru_cache(maxsize=None)
def metacyclic_group(n: int, t: int, k: int, r: int) -> FiniteGroup:
    """<a, b | a^n = 1, b^t = a^k, b^{-1} a b = a^r>, order n*t.
    Element index i*t + j stands for a^i b^j."""
    table, labels = _metacyclic_table(n, t, k, r)
    k, r = k % n, r % n
    return FiniteGroup(table, labels=labels, name=f"M({n},{t},{k},{r})",
                       meta={"family": "metacyclic", "params": (n, t, k, r)})


def check_presentation(n, t, k, r):
    """BadPresentation unless n, t >= 1, r^t = 1 and k(r-1) = 0 (mod n)."""
    if n < 1 or t < 1:
        raise BadPresentation("n and t must be positive")
    if pow(r, t, n) != 1 % n:
        raise BadPresentation(f"r^t = {pow(r, t, n)} mod {n}, expected 1")
    if k * (r - 1) % n != 0:
        raise BadPresentation(f"k(r-1) = {k * (r - 1) % n} mod {n}, expected 0")


def _metacyclic_table(n, t, k, r):
    """(table, labels) of metacyclic_group(n, t, k, r), after the checks
    that the presentation is valid and its order within MAX_GROUP_ORDER."""
    check_presentation(n, t, k, r)
    _check_order(n * t)
    r %= n
    k %= n
    order = n * t
    # b^{-1} a b = a^r gives b^{j} a = a^{r^{-j}} b^{j}, so
    # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2 r^-j1 + k [j1 + j2 >= t]) b^(j1 + j2 mod t)
    rinv = pow(r, -1, n)
    ripow = np.array([pow(rinv, j, n) for j in range(t)], dtype=np.int32)
    i1, j1, i2, j2 = np.ix_(*(np.arange(x, dtype=np.int32) for x in (n, t, n, t)))
    j = j1 + j2
    # one full-size sum; below 2n^2, so int32 for n < 32768
    table = i2 * ripow[j1] + (i1 + k * (j // t))
    table %= n
    table *= t
    table += j % t
    table = table.reshape(order, order)
    return table, _word_labels(("a", n), ("b", t))


@lru_cache(maxsize=None)
def d1_group(m: int) -> FiniteGroup:
    """Order 2^{m+2} group generated by t, x, y with t of order 2^m, x and y
    of order 2, x and y commuting with t, and yx = xy t^{2^{m-1}}.
    Element index c*4 + e*2 + f stands for t^c x^e y^f."""
    check_family_order(m)
    n = 1 << m
    half = n >> 1
    order = 4 * n
    c1, e1, f1, c2, e2, f2 = np.ix_(*(np.arange(x, dtype=np.int32)
                                      for x in (n, 2, 2, n, 2, 2)))
    c = c1 + c2 + f1 * e2 * half  # a quarter of the table, int32
    c %= n
    c *= 4
    table = (c + ((e1 + e2) % 2 * 2 + (f1 + f2) % 2)).reshape(order, order)
    return FiniteGroup(table, labels=_word_labels(("t", n), ("x", 2), ("y", 2)),
                       name=f"D1({m})", meta={"family": "d1", "m": m})


@lru_cache(maxsize=None)
def d2_group(m: int) -> FiniteGroup:
    """Order 2^{m+2} group <a, b | a^{2^{m+1}} = 1, b^2 = a^2,
    b^{-1} a b = a^{2^m + 1}>."""
    check_family_order(m)
    params = (1 << (m + 1), 2, 2, (1 << m) + 1)
    table, labels = _metacyclic_table(*params)
    return FiniteGroup(table, labels=labels, name=f"D2({m})",
                       meta={"family": "d2", "m": m, "params": params})


# ---------------------------------------------------------------------------
# Cayley-table text format
# ---------------------------------------------------------------------------

def parse_cayley(text: str) -> FiniteGroup:
    """Parse the plain-text table format: a line of exactly the two tokens
    `order N`, N >= 1, then N rows of N whitespace-separated indices, then
    optional `label I NAME` lines; `#` comments and blank lines are
    skipped.  A malformed file raises ValueError; a bad row or label line
    is quoted in the message."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("order"):
        raise ValueError("expected first line 'order N'")
    toks = lines[0].split()
    try:
        n = int(toks[1]) if len(toks) == 2 and toks[0] == "order" else 0
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("malformed order line")
    _check_order(n)
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:1 + n]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"bad table row: {ln!r}") from None
        if len(row) != n:
            raise ValueError(f"bad table row: {ln!r}")
        table.append(row)
    labels = [f"g{i}" for i in range(n)]
    for ln in lines[1 + n:]:
        toks = ln.split(None, 2)
        if toks[0] != "label" or len(toks) != 3:
            raise ValueError(f"bad trailing line: {ln!r}")
        try:
            idx = int(toks[1])
        except ValueError:
            raise ValueError(f"bad label index: {ln!r}") from None
        if not (0 <= idx < n):
            raise ValueError(f"label index out of range: {ln!r}")
        labels[idx] = toks[2]
    return FiniteGroup(np.array(table), labels=labels, name=f"cayley{n}")
