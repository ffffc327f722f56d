import itertools
import random
from dataclasses import dataclass
from math import gcd, prod

import numpy as np
import pytest

from grpalg.algebra import ideal_dimension, to_str
from grpalg.errors import (
    InternalInconsistency,
    InvariantViolation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotSemisimple,
)
from grpalg.field import prime_factors
from grpalg.groups import (
    FiniteGroup,
    Subgroup,
    class_structure,
    d1_group,
    d2_group,
    mask,
    maximal_abelian_over_derived,
    metacyclic_group,
    subgroup_closure,
)
from grpalg.idempotents import (
    Triple,
    _kernel_conjugates,
    cyclic_quotient_data,
    d_classes,
)
from grpalg.metacyclic import alpha_orbit, element_index, o_v

PRIMES = (3, 5, 7, 11, 13)

# Tables FiniteGroup refuses (not a square integer table, or not a group),
# with the error and the whole message it raises.
# The order-5 loop has identity 0 and x*x = 0 for every x, but no group of
# order 5 is all involutions.
BAD_TABLES = {
    "ragged": ([[0, 1], [1]], ValueError,
               "multiplication table must be square and nonempty"),
    "not_square": ([[0, 1]], ValueError,
                   "multiplication table must be square and nonempty"),
    "empty": (np.zeros((0, 0), dtype=np.int32), ValueError,
              "multiplication table must be square and nonempty"),
    "not_integer": ([[0.0, 1.0], [1.0, 0.0]], ValueError,
                    "multiplication table entries must be integers"),
    "out_of_range": ([[0, 1], [1, 2]], ValueError,
                     "multiplication table entries must lie in 0..1"),
    "negative": ([[0, 1], [1, -1]], ValueError,
                 "multiplication table entries must lie in 0..1"),
    "no_identity": ([[1, 0], [0, 1]], NoIdentity,
                    "index 0 does not act as a two-sided identity"),
    "no_inverse": ([[0, 1, 2], [1, 1, 1], [2, 1, 1]], NoInverse,
                   "element 1 has no two-sided inverse"),
    "one_sided_inverse": ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], NoInverse,
                          "element 1 has no two-sided inverse"),
    "non_associative": ([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]], NotAssociative, "(1*1)*2 != 1*(1*2)"),
}

METACYCLIC_TUPLES = [
    (4, 2, 0, 3), (5, 4, 0, 2), (7, 3, 0, 2),
    (9, 3, 0, 4), (8, 2, 0, 3), (16, 4, 0, 3),
]

# the corpus presentations plus d2_group(m), m = 1..4, as (n, t, k, r)
ALL_METACYCLIC = METACYCLIC_TUPLES + [(1 << (m + 1), 2, 2, (1 << m) + 1)
                                      for m in (1, 2, 3, 4)]


def perm_group(perms, name):
    """Group from a list of permutation tuples (identity must sort first)."""
    ident = tuple(range(len(perms[0])))
    perms = sorted(set(perms), key=lambda p: (p != ident, p))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms[0])
    table = [[idx[tuple(p[r[i]] for i in range(n))] for r in perms]
             for p in perms]
    return FiniteGroup(table, name=name)


def a4_group():
    perms = [p for p in itertools.permutations(range(4))
             if sum(1 for i in range(4) for j in range(i) if p[j] > p[i]) % 2 == 0]
    return perm_group(perms, "A4")


def s4_group():
    return perm_group(list(itertools.permutations(range(4))), "S4")


def elementary_abelian(p, k):
    """Z_p^k from its Cayley table, elements in lexicographic digit order:
    element i is the vector of base-p digits of i, and the table is built
    one digit at a time, adding that digit of all pairs mod p."""
    i = np.arange(p ** k, dtype=np.int32)
    table = np.zeros((i.size, i.size), dtype=np.int32)
    for w in p ** np.arange(k, dtype=np.int32):
        digit = i // w % p
        table += (digit[:, None] + digit) % p * w
    return FiniteGroup(table, name=f"Z{p}^{k}")


def conjugacy_classes(G):
    """The conjugacy classes of G as sorted tuples, in the class order of
    groups.class_structure (by least member)."""
    class_of, reps, _ = class_structure(G)
    return [tuple(np.flatnonzero(class_of == l).tolist()) for l in range(reps.size)]


def lattice(G):
    """Every subgroup of G by brute force, sorted by (order, members): the
    closure of the cyclic subgroups under joins with one cyclic subgroup
    at a time.  A reference for the engine's lattice-free enumerations."""
    cyclic = {}
    for g in range(G.order):
        cyclic.setdefault(frozenset(subgroup_closure(G, [g]).members.tolist()), g)
    found = {frozenset((0,)): []}
    frontier = list(found)
    while frontier:
        nxt = []
        for mem in frontier:
            for cm, g in cyclic.items():
                if cm <= mem:
                    continue
                J = frozenset(subgroup_closure(G, found[mem] + [g]).members.tolist())
                if J not in found:
                    found[J] = found[mem] + [g]
                    nxt.append(J)
        frontier = nxt
    return sorted((Subgroup(G, sorted(m)) for m in found),
                  key=lambda H: (H.order, H.members.tolist()))


def normal_subgroups(G):
    """Every normal subgroup of G, sorted by (order, members), cached on G.

    Each one is a product of normal closures of conjugacy classes, so the
    list is the closure of those under products N·C with one class closure
    C at a time.  The reference for the lattice-free shoda_triples."""
    if "normal_subgroups" in G._cache:
        return G._cache["normal_subgroups"]
    atoms = {}
    for cls in conjugacy_classes(G):
        C = subgroup_closure(G, cls)
        atoms.setdefault(tuple(C.members.tolist()), C)
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
            label = G.m[N.members[:, None], xs].min(axis=0)
            hit = np.zeros((len(atoms), G.order), dtype=bool)
            hit[atom_of, label[atom_elems]] = True
            for row in hit[:, label]:  # row i: the product of N and atom i
                key = row.tobytes()
                if key not in found:
                    found[key] = H = Subgroup(G, np.flatnonzero(row).tolist())
                    nxt.append(H)
        frontier = nxt
    out = sorted(found.values(), key=lambda H: (H.order, H.members.tolist()))
    G._cache["normal_subgroups"] = out
    return out


def shoda_triples_reference(G):
    """shoda_triples with N over every normal subgroup of G: the reference
    for its character-kernel route."""
    out = []
    for N in normal_subgroups(G):
        A = maximal_abelian_over_derived(G, N)
        out += [Triple(N, cls[0], A)
                for cls in d_classes(G, N, A, _kernel_conjugates(G, N, A))]
    return tuple(sorted(out, key=Triple.key))


def center(G):
    return centralizer(G, Subgroup(G, range(G.order)))


def centralizer(G, H):
    h = H.members
    return Subgroup(G, np.flatnonzero((G.m[:, h] == G.m[h].T).all(axis=1)).tolist())


def core(G, H):
    """Largest normal subgroup of G inside H, by explicit search: the h in
    H with x^-1 h x in H for every x in G."""
    h = H.members
    conj = G.m[G.m[np.ix_(G.inv_np, h)], np.arange(G.order)[:, None]]
    return Subgroup(G, h[mask(G, H)[conj].all(axis=0)].tolist())


def conjugate_subgroup(G, H, g):
    """g^-1 H g."""
    return Subgroup(G, G.m[G.m[G.inv_np[g], H.members], g])


def normalizer(G, H):
    """N_G(H) by brute force: the g in G with g^-1·h·g in H for every
    member h of H, one |G| x |H| gather."""
    h = H.members
    conj = G.m[G.m[np.ix_(G.inv_np, h)], np.arange(G.order)[:, None]]
    return Subgroup(G, np.flatnonzero(mask(G, H)[conj].all(axis=1)))


def is_normal(G, H):
    return normalizer(G, H).order == G.order


def format_cayley(G):
    """G in the Cayley-table text format that groups.parse_cayley reads:
    `order N`, the N rows of the table, then a `label I NAME` line for each
    label other than the default gI."""
    out = [f"order {G.order}"]
    for row in G.m.tolist():
        out.append(" ".join(map(str, row)))
    for i, lab in enumerate(G.labels):
        if lab != f"g{i}":
            out.append(f"label {i} {lab}")
    return "\n".join(out) + "\n"


def direct_product(G1, G2, name):
    """G1 x G2, the pair (g1, g2) at index g1·|G2| + g2."""
    n2 = G2.order
    m = G1.m[:, None, :, None] * n2 + G2.m[None, :, None, :]
    return FiniteGroup(m.reshape(G1.order * n2, -1), name=name)


# small metacyclic presentations for the random products, by name
SMALL_METACYCLIC = {
    "Z2": (2, 1, 0, 1), "Z3": (3, 1, 0, 1), "Z4": (4, 1, 0, 1),
    "Z2^2": (2, 2, 0, 1), "S3": (3, 2, 0, 2), "D8": (4, 2, 0, 3),
    "Q8": (4, 2, 2, 3), "Z6": (6, 1, 0, 1), "D10": (5, 2, 0, 4),
    "Z3:Z4": (3, 4, 0, 2), "M(7,3,0,2)": (7, 3, 0, 2),
}


def random_metabelian_groups(count, seed, max_order=64):
    """`count` seeded random metabelian Cayley tables: direct products of
    two small metacyclic groups, of order at most max_order, with their
    non-identity elements relabeled at random."""
    rng = random.Random(seed)
    names = sorted(SMALL_METACYCLIC)
    out = []
    while len(out) < count:
        a, b = rng.choice(names), rng.choice(names)
        G1, G2 = (metacyclic_group(*SMALL_METACYCLIC[x]) for x in (a, b))
        if G1.order * G2.order > max_order:
            continue
        m, _ = relabeled(direct_product(G1, G2, "").m, rng)
        out.append(FiniteGroup(m, name=f"{a}x{b}#{len(out)}"))
    return out


def validate_reference(G, F, descriptors):
    """_validate with every product run on every input: each e·e = e
    before each component's rank, and the pairwise orthogonality loop.  It
    is the reference for the rank-count lemma (Cochran's theorem, in
    _validate's docstring) that lets _validate skip both, and so for its
    verdicts and witnesses.  Its ranks are all direct, ideal_dimension(e),
    never |G| − dim F_q[G](1 − e); its products are full_product and its
    centrality test is_central, both by the definition, so it shares no
    class structure with _validate."""
    def fail(name, witness):
        raise InvariantViolation(name, witness)

    dimension = sum(dsc.dim for dsc in descriptors)
    if dimension != G.order:
        fail("dimension_sum", {"got": dimension, "expected": G.order})
    es = [dsc.idempotent.coeffs for dsc in descriptors]
    for i, dsc in enumerate(descriptors):
        e = es[i]
        if not e.any():
            fail("nonzero", {"component": i})
        if not is_central(G, e):
            fail("central", {"component": i})
        if not is_idempotent(G, F, e):
            fail("idempotent", {"component": i})
        dim = ideal_dimension(G, F, e)
        if dim != dsc.dim:
            fail("ideal_dimension", {"component": i, "got": dim,
                                     "expected": dsc.dim})
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if full_product(G, F, es[i], es[j]).any():
                fail("orthogonal", {"components": (i, j)})
    total = F.sum_rows(es)
    if not np.array_equal(total, basis_vector(G, 0)):
        fail("sum_to_one", {"sum": to_str(G, F, total)})


def int_cyclotomic(n: int) -> list:
    """Phi_n over Z, low degree first: prod_{d | n} (x^d - 1)^mu(n/d), the
    factors with mu = -1 applied last as exact divisions."""
    times, over = [], []
    for d in range(1, n + 1):
        if n % d:
            continue
        ells = prime_factors(n // d)
        if prod(ells) == n // d:  # squarefree, so mu(n/d) = (-1)^len(ells)
            (over if len(ells) % 2 else times).append(d)
    f = [1]
    for d in times:
        g = [0] * (len(f) + d)
        for i, c in enumerate(f):
            g[i] -= c
            g[i + d] += c
        f = g
    for d in over:
        # h (x^d - 1) = f  <=>  h_i = f_{i+d} + h_{i+d}, top coefficient first
        h = [0] * len(f)
        for i in range(len(f) - d - 1, -1, -1):
            h[i] = f[i + d] + h[i + d]
        f = h[:len(f) - d]
    return f


def monic_polynomials(p, s):
    """Every monic polynomial of degree s over F_p, as a tuple of ints mod p,
    low degree first."""
    return [(*rest, 1) for rest in itertools.product(range(p), repeat=s)]


def irreducibles_reference(p, s):
    """The monic irreducibles of degree s >= 1 over F_p, as a set of tuples,
    low degree first, by a sieve: every monic of degree s that is not a
    product g·h of monics of degrees k and s - k, 1 <= k <= s/2, each
    product one integer convolution mod p.  The reference for
    field.is_irreducible, which is Ben-Or's test."""
    products = {tuple(int(c) for c in np.convolve(g, h) % p)
                for k in range(1, s // 2 + 1)
                for g in monic_polynomials(p, k) for h in monic_polynomials(p, s - k)}
    return set(monic_polynomials(p, s)) - products


# ---------------------------------------------------------------------------
# Loop references for the array kernels of grpalg.groups and grpalg.algebra
# ---------------------------------------------------------------------------

def conj(G, g, x):
    """x^-1 g x, read from G.m entry by entry."""
    return int(G.m[G.m[G.inv_np[x], g], x])


def full_associativity_witness(m):
    """The first (x, y, z) with (x*y)*z != x*(y*z), checking every x: the
    reference for Light's test."""
    for x in range(len(m)):
        lhs = m[m[x]]      # lhs[y, z] = (x*y)*z
        rhs = m[x][m]      # rhs[y, z] = x*(y*z)
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return x, y, z
    return None


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
    n = 1 the single coset {0}, as gcd(0, 1) = 1."""
    units = [u for u in range(n) if gcd(u, n) == 1]
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


def coset_orbits_reference(G, K, H, q):
    """coset_orbits by closure loops over coset objects: each orbit of
    q-cyclotomic generator cosets grown by BFS under the set of
    multipliers, and the stabilizer of each coset found element by element
    and asserted equal for every coset.  Returns (js, E) with js the least
    member of the least coset of each orbit."""
    n, gen, e = cyclic_quotient_data(G, K, H)
    cosets = generator_cosets(n, q)
    NH = normalizer(G, H)
    NK = normalizer(G, K)
    acting = sorted(set(NH.members.tolist()) & set(NK.members.tolist()))
    mults = set()
    for g in acting:
        x = conj(G, gen, g)
        assert x in K.members.tolist()
        mults.add(int(e[x]))
    by_members = {c.members: c for c in cosets}
    orbits = []
    seen = set()
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
    E_members = None
    for c in cosets:
        stab = [g for g in acting
                if tuple(sorted(int(e[conj(G, gen, g)]) * u % n for u in c.members))
                == c.members]
        assert E_members is None or E_members == stab
        E_members = stab
    reps = sorted((by_members[min(orbit, key=min)] for orbit in orbits),
                  key=lambda c: c.rep)
    return [c.rep for c in reps], Subgroup(G, E_members)


def convolution_reference(G, F, x, y):
    """The coefficients of x·y in F_q[G] by the definition: for every
    pair (g, k), the scalar x[g]·y[k] is added to the coefficient of g·k."""
    out = [0] * G.order
    for g in range(G.order):
        for k in range(G.order):
            h = int(G.m[g, k])
            out[h] = int(F.add_np[out[h], F.mul_np[x[g], y[k]]])
    return np.array(out, dtype=np.int16)


def full_product(G, F, x, y):
    """All of x·y = Σ_g x[g]·(g·y), for coefficient vectors x and y of
    F_q[G]: row g of one gather through the group table holds the
    coefficients y[g⁻¹h] of g·y, scaled by x[g], over the support of x."""
    g = np.flatnonzero(x)
    return F.sum_rows(F.mul_np[x[g][:, None], y.take(G.m[G.inv_np[g]])])


def basis_vector(G, g):
    """The coefficient vector of the group element g in F_q[G]."""
    c = np.zeros(G.order, dtype=np.int16)
    c[g] = 1
    return c


def is_idempotent(G, F, c):
    """e·e = e for the element e of F_q[G] with the coefficient vector c."""
    return np.array_equal(full_product(G, F, c, c), c)


def is_central(G, c):
    """Whether the coefficient vector c over G is central, by the
    definition: x⁻¹·c·x = c for every x, so c[x⁻¹gx] = c[g] for every x
    and g; no class structure is read."""
    conj = G.m[G.m[G.inv_np], np.arange(G.order)[:, None]]  # [x, g] = x⁻¹gx
    return bool((c[conj] == c).all())


def add_table_reference(p, a):
    """The addition table of F_{p^a}, indices i = sum c_k p^k, built digit
    by digit: four q x q int16 passes for each of the a digits."""
    q = p ** a
    idx = np.arange(q, dtype=np.int16)
    add = np.zeros((q, q), dtype=np.int16)
    for k in range(a):
        digit = idx // p ** k % p
        add += (digit[:, None] + digit[None, :]) % p * p ** k
    return add


def rank_reference(F, rows):
    """Rank over F_q by Gauss-Jordan elimination one row at a time."""
    rows = rows.copy()
    nr, nc = rows.shape
    add, mul, neg, inv = F.add_np, F.mul_np, F.neg_np, F.inv_np
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r, col]:
                piv = r
                break
        if piv is None:
            continue
        rows[[rank, piv]] = rows[[piv, rank]]
        pr = mul[inv[rows[rank, col]], rows[rank]]
        for r in range(nr):
            if r != rank and rows[r, col]:
                rows[r] = add[rows[r], neg[mul[rows[r, col], pr]]]
        rows[rank] = pr
        rank += 1
        if rank == nr:
            break
    return rank


def metacyclic_table_loop(n, t, k, r):
    """The table of metacyclic_group(n, t, k, r), entry by entry."""
    r %= n
    k %= n
    rinv = pow(r, -1, n) if n > 1 else 0
    ripow = [pow(rinv, j, n) if n > 1 else 0 for j in range(t)]
    table = [[0] * (n * t) for _ in range(n * t)]
    for i1 in range(n):
        for j1 in range(t):
            row = table[i1 * t + j1]
            for i2 in range(n):
                for j2 in range(t):
                    j = j1 + j2
                    i = (i1 + i2 * ripow[j1] + k * (j // t)) % n
                    row[i2 * t + j2] = i * t + (j % t)
    return table


def x_triples_reference(params, v, i, c):
    """X_{v,i,c} by every condition of the metacyclic theorem, as stated:
    the (alpha, beta) with beta*o_v | c, alpha*(c/(beta*o_v)) = i (mod v),
    beta = c*gcd(alpha*(r-1), v) / (v*o_v), gcd(v, alpha, beta) = 1,
    v | r^{o_v} - 1, o_v*beta | t and v | k + alpha*t/(o_v*beta)."""
    n, t, k, r = params.n, params.t, params.k, params.r
    ov = o_v(params, v)
    if (pow(r, ov, v) - 1) % v:
        return []
    out = []
    for alpha in range(v):
        g = gcd(alpha * (r - 1), v)  # gcd(0, v) = v
        num = c * g
        if num % (v * ov):
            continue
        beta = num // (v * ov)
        if beta <= 0 or c % (beta * ov):
            continue
        if (alpha * (c // (beta * ov)) - i) % v:
            continue
        if gcd(gcd(v, alpha), beta) != 1:
            continue
        if t % (ov * beta):
            continue
        if (k + alpha * (t // (ov * beta))) % v:
            continue
        out.append((alpha, beta))
    return out


def conjugate_in_g(params, v, a1, b1, a2, b2):
    """Conjugacy criterion for H_{v,a1,b1*o_v} vs H_{v,a2,b2*o_v}:
    conjugate iff b1 = b2 and a1 = a2 * r^j (mod v) for some j."""
    return b1 == b2 and alpha_orbit(params, v, a1) == alpha_orbit(params, v, a2)


def core_closed_form(G, params, u, alpha, beta):
    """core of H_{u,alpha,beta*o_u} as <a^u, a^{alpha*delta/(beta*o_u)} b^delta>
    with delta = beta*u*o_u / g, g = gcd(alpha*(r-1), u) (gcd(0, u) = u).
    For (alpha, beta) in X_{u,i,c}, beta*o_u = c*g/u, so delta = c and
    alpha*delta/(beta*o_u) = alpha*u/g = i (mod u): the core of each D is
    N = H_{u,i,c}, the N the fast path uses."""
    r = params.r
    ou = o_v(params, u)
    g = gcd(alpha * (r - 1), u)
    delta = beta * u * ou // g
    i = alpha * delta // (beta * ou)
    return subgroup_closure(G, [element_index(params, u, 0),
                                element_index(params, i, delta)])


def d1_index(m, c, e, f):
    """The index of t^c x^e y^f in d1_group(m)."""
    return (c % (1 << m)) * 4 + (e % 2) * 2 + (f % 2)


def d1_normal_subgroup_list(m):
    """The non-identity normal subgroups of d1_group(m), by generator data:
      (i)   <t^{2^a}, x>, <t^{2^a}, y>, <t^{2^a}, xy>, <t^{2^a}, x, y>
            for 0 <= a <= m-1;
      (ii)  <t^{2^b} x>, <t^{2^b} y>, <t^{2^{m-1}}, t^{2^b} xy>,
            <t^{2^{m-1}}, x, t^{2^b} y>, <t^{2^{m-1}}, t^{2^b} x, y>,
            <t^{2^b} x, t^{2^b} y> for 0 <= b <= m-2;
      (iii) <t^{2^c}> for 0 <= c <= m-1.
    Asserted distinct and normal; sorted by (order, members)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    G = d1_group(m)

    def el(c, e, f):
        return d1_index(m, c, e, f)

    zc = 1 << (m - 1)  # exponent of the commutator t^{2^{m-1}}
    gens_list = []
    for a in range(m):
        p = 1 << a
        gens_list += [[el(p, 0, 0), el(0, 1, 0)],
                      [el(p, 0, 0), el(0, 0, 1)],
                      [el(p, 0, 0), el(0, 1, 1)],
                      [el(p, 0, 0), el(0, 1, 0), el(0, 0, 1)]]
    for b in range(m - 1):
        p = 1 << b
        gens_list += [[el(p, 1, 0)],
                      [el(p, 0, 1)],
                      [el(zc, 0, 0), el(p, 1, 1)],
                      [el(zc, 0, 0), el(0, 1, 0), el(p, 0, 1)],
                      [el(zc, 0, 0), el(p, 1, 0), el(0, 0, 1)],
                      [el(p, 1, 0), el(p, 0, 1)]]
    for c in range(m):
        gens_list.append([el(1 << c, 0, 0)])
    out = {}
    for gens in gens_list:
        H = subgroup_closure(G, gens)
        if tuple(H.members.tolist()) in out:
            raise InternalInconsistency(f"duplicate listed subgroup {H.members.tolist()}")
        if not is_normal(G, H):
            raise InternalInconsistency(f"listed subgroup not normal: {gens}")
        out[tuple(H.members.tolist())] = H
    return sorted(out.values(), key=lambda H: (H.order, H.members.tolist()))


def d1_table_loop(m):
    """The table of d1_group(m), entry by entry."""
    n = 1 << m
    half = n >> 1
    table = [[0] * (4 * n) for _ in range(4 * n)]
    for c1, e1, f1 in itertools.product(range(n), range(2), range(2)):
        row = table[c1 * 4 + e1 * 2 + f1]
        for c2, e2, f2 in itertools.product(range(n), range(2), range(2)):
            c = (c1 + c2 + f1 * e2 * half) % n
            row[c2 * 4 + e2 * 2 + f2] = c * 4 + ((e1 + e2) % 2) * 2 + (f1 + f2) % 2
    return table


def random_loop(n, rng):
    """A random Latin square of order n (rows drawn one at a time as random
    perfect matchings of columns to unused symbols), normalized so that
    row 0 and column 0 read 0, 1, ..., n-1."""
    rows = []
    for _ in range(n):
        free = [set(range(n)) - {row[c] for row in rows} for c in range(n)]
        col_of = {}  # symbol -> column

        def augment(c, seen):
            syms = list(free[c])
            rng.shuffle(syms)
            for s in syms:
                if s not in seen:
                    seen.add(s)
                    if s not in col_of or augment(col_of[s], seen):
                        col_of[s] = c
                        return True
            return False

        for c in rng.sample(range(n), n):
            augment(c, set())
        row = [0] * n
        for s, c in col_of.items():
            row[c] = s
        rows.append(row)
    L = np.array(rows)
    L = L[:, np.argsort(L[0])]      # row 0 becomes the identity
    return L[np.argsort(L[:, 0])]   # column 0 becomes the identity


def relabeled(m, rng):
    """(m', perm): m with its non-identity elements relabeled at random,
    element g of m becoming perm[g] of m'."""
    perm = np.array([0] + rng.sample(range(1, len(m)), len(m) - 1))
    out = np.empty_like(m)
    out[np.ix_(perm, perm)] = perm[m]
    return out, perm


# ---------------------------------------------------------------------------
# The oracle in |G| coordinates: the reference for grpalg.oracle.center_split
# ---------------------------------------------------------------------------

def class_sums(G):
    """The coefficient vectors of the conjugacy-class sums of F_q[G], in
    class order."""
    out = []
    for cls in conjugacy_classes(G):
        c = np.zeros(G.order, dtype=np.int16)
        c[list(cls)] = 1
        out.append(c)
    return out


def _minimal_polynomial_reference(G, F, z, e):
    """Minimal polynomial of multiplication by z on F_q[G]·e, by Gauss-Jordan
    over the powers [e, ze, z²e, ...] in |G| coordinates; also returns the
    powers."""
    nmax = G.order + 1
    powers = [e]
    basis = {}  # pivot column -> (reduced row, combo over power indices)
    deg = 0
    while True:
        v = powers[-1].copy()
        combo = np.zeros(nmax, dtype=np.int16)
        combo[deg] = 1
        for piv, (br, bc) in basis.items():
            c = int(v[piv])
            if c:
                v = F.add_np[v, F.neg_np[F.mul_np[c, br]]]
                combo = F.add_np[combo, F.neg_np[F.mul_np[c, bc]]]
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return combo[:np.flatnonzero(combo)[-1] + 1], powers
        piv = int(nz[0])
        inv = F.inv(int(v[piv]))
        v = F.mul_np[inv, v]
        combo = F.mul_np[inv, combo]
        for p2, (br, bc) in list(basis.items()):
            c = int(br[piv])
            if c:
                basis[p2] = (F.add_np[br, F.neg_np[F.mul_np[c, v]]],
                             F.add_np[bc, F.neg_np[F.mul_np[c, combo]]])
        basis[piv] = (v, combo)
        powers.append(full_product(G, F, powers[-1], z))
        deg += 1


def q_class_sums(G, q):
    """The q-class sums of F_q[G] as coefficient vectors: the sums over the
    orbits of C -> C^(q) on conjugacy classes, C^(q) the class of the q-th
    powers (each taken as q products), in the order of least member."""
    classes = conjugacy_classes(G)
    where = {g: i for i, cls in enumerate(classes) for g in cls}
    seen, out = set(), []
    for i in range(len(classes)):
        orbit, j = [], i
        while j not in seen:
            seen.add(j)
            orbit += classes[j]
            power = 0
            for _ in range(q):
                power = int(G.m[power, classes[j][0]])
            j = where[power]
        if orbit:
            c = np.zeros(G.order, dtype=np.int16)
            c[orbit] = 1
            out.append(c)
    return out


def _poly_value(F, f, c):
    """f(c) by Horner's rule, one table lookup at a time."""
    out = 0
    for a in reversed(f):
        out = F.add_np[F.mul_np[out, c], a]
    return out


def center_split_reference(G, F):
    """center_split computed in the full |G|-dimensional algebra, every
    power a product of coefficient vectors at every h: each block is
    refined by every q-class sum z in turn, with no early stop, into the
    pieces L_c(z)·e for the roots c of the minimal polynomial of z on the
    block, found by trying every element of F_q, L_c the Lagrange
    polynomial prod_{c' != c} (x - c')/(c - c') built one linear factor at
    a time: times (x - c') is a shift plus a table product by -c'.  The
    blocks' coefficient vectors, sorted as tuples."""
    if gcd(F.q, G.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {G.order}) != 1")
    blocks = [basis_vector(G, 0)]
    for z in q_class_sums(G, F.q):
        refined = []
        for e in blocks:
            mp, powers = _minimal_polynomial_reference(G, F, z, e)
            mp = F.mul_np[F.inv(int(mp[-1])), mp]
            roots = [c for c in range(F.q) if _poly_value(F, mp, c) == 0]
            if len(roots) < len(mp) - 1:
                raise NotSemisimple(f"minimal polynomial {mp.tolist()} (low degree first) "
                                    f"has fewer than {len(mp) - 1} distinct roots in F_{F.q}")
            for c in roots:
                lagrange = np.ones(1, dtype=np.int16)
                for other in roots:
                    if other != c:
                        shifted = np.concatenate([[0], lagrange])
                        times = np.concatenate([F.mul_np[F.neg_np[other], lagrange], [0]])
                        scale = F.inv(int(F.add_np[c, F.neg_np[other]]))
                        lagrange = F.mul_np[scale, F.add_np[shifted, times]]
                acc = np.zeros(G.order, dtype=np.int16)
                for i, a in enumerate(lagrange):
                    acc = F.add_np[acc, F.mul_np[a, powers[i]]]
                refined.append(acc)
        blocks = refined
    return sorted(blocks, key=lambda b: b.tolist())


def corpus_groups():
    out = [
        metacyclic_group(3, 2, 0, 2),   # S3
        metacyclic_group(4, 2, 0, 3),   # D8
        d2_group(1),                    # Q8
        a4_group(),
        metacyclic_group(12, 1, 0, 1),  # Z_12
    ]
    out += [metacyclic_group(*t) for t in METACYCLIC_TUPLES]
    for m in (2, 3, 4):
        out.append(d1_group(m))
        out.append(d2_group(m))
    return out


def corpus_grid():
    for G in corpus_groups():
        for q in PRIMES:
            if G.order % q:
                yield G, q


@pytest.fixture(scope="session")
def a4():
    return a4_group()


@pytest.fixture(scope="session")
def s4():
    return s4_group()
