"""Fast-path decomposition for metacyclic groups
G = <a, b | a^n = 1, b^t = a^k, b^{-1} a b = a^r>.

The normal subgroups, the relevant pairs (K, H), and their conjugacy
classes are produced arithmetically from the parameters (n, t, k, r)
instead of by searching the subgroups of G; each triple then goes through
the generic engine's per-triple step, idempotents.triple_components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import GroupAlgebra
from .errors import InternalInconsistency, NotSemisimple
from .field import BaseField, mult_order
from .groups import (FiniteGroup, Subgroup, check_presentation, metacyclic_group,
                     subgroup_closure)
from .idempotents import Triple, summarize, triple_components


@dataclass(frozen=True)
class MetacyclicParams:
    n: int
    t: int
    k: int
    r: int

    def __post_init__(self):
        check_presentation(self.n, self.t, self.k, self.r)

    @property
    def order(self):
        return self.n * self.t

    def group(self) -> FiniteGroup:
        return metacyclic_group(self.n, self.t, self.k % self.n, self.r % self.n)


def params_of(G: FiniteGroup) -> MetacyclicParams:
    p = G.meta.get("params")
    if p is None or G.meta.get("family") not in ("metacyclic", "d2"):
        raise ValueError(f"{G.name} carries no metacyclic presentation")
    return MetacyclicParams(*p)


def o_v(params: MetacyclicParams, v: int) -> int:
    """ord_v(r), with ord_1 = 1."""
    return mult_order(v, params.r)


def divisors(n: int):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def normal_triples(params: MetacyclicParams):
    """All (v, i, c) with v|n, c|t, 0 <= i < v, v | k + i*t/c, ord_v(r) | c,
    v | i(r-1); these index the normal subgroups <a^v, a^i b^c>."""
    n, t, k, r = params.n, params.t, params.k, params.r
    out = []
    for v in divisors(n):
        ov = o_v(params, v)
        for c in divisors(t):
            if c % ov:
                continue
            tc = t // c
            for i in range(v):
                if (k + i * tc) % v == 0 and (i * (r - 1)) % v == 0:
                    out.append((v, i, c))
    return out


def element_index(params: MetacyclicParams, i: int, j: int) -> int:
    """Index of a^i b^j, allowing j in [0, t] (b^t folds to a^k)."""
    n, t, k = params.n, params.t, params.k
    i += k * (j // t)
    j %= t
    return (i % n) * t + j


def triple_subgroup(G: FiniteGroup, params: MetacyclicParams,
                    v: int, i: int, c: int) -> Subgroup:
    """H_{v,i,c} = <a^v, a^i b^c> as an explicit subgroup."""
    g1 = element_index(params, v, 0)
    g2 = element_index(params, i, c)
    H = subgroup_closure(G, [g1, g2])
    expected = params.order // (v * c)
    if H.order != expected:
        raise InternalInconsistency(
            f"|H_({v},{i},{c})| = {H.order}, expected {expected}")
    return H


def g_ov_subgroup(G: FiniteGroup, params: MetacyclicParams, ov: int) -> Subgroup:
    """G_{o_v} = <a, b^{o_v}>."""
    return subgroup_closure(
        G, [element_index(params, 1, 0), element_index(params, 0, ov)])


def x_triples(params: MetacyclicParams, v: int, i: int, c: int):
    """The set X_{v,i,c}: pairs (alpha, beta) with
      beta*o_v | c,  alpha*(c/(beta*o_v)) = i (mod v),
      beta = c*gcd(alpha*(r-1), v) / (v*o_v),  gcd(v, alpha, beta) = 1,
      v | r^{o_v} - 1,  o_v*beta | t,  v | k + alpha*t/(o_v*beta)."""
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


def x_classes(params: MetacyclicParams, v: int, i: int, c: int):
    """The least member of each class of X_{v,i,c} modulo the relation
    (alpha1, beta) ~ (alpha2, beta) iff alpha1 = alpha2 * r^j (mod v)."""
    triples = x_triples(params, v, i, c)
    r = params.r
    ov = o_v(params, v)
    classes = {}
    for alpha, beta in triples:
        orbit = tuple(sorted({alpha * pow(r, j, v) % v for j in range(ov)}))
        classes.setdefault((beta, orbit), []).append((alpha, beta))
    return [min(mem) for _, mem in sorted(classes.items())]


def conjugate_in_g(params: MetacyclicParams, v: int,
                   a1: int, b1: int, a2: int, b2: int) -> bool:
    """Conjugacy criterion for H_{v,a1,b1*o_v} vs H_{v,a2,b2*o_v}:
    conjugate iff b1 = b2 and a1 = a2 * r^j (mod v) for some j."""
    if b1 != b2:
        return False
    r, ov = params.r, o_v(params, v)
    return any((a2 * pow(r, j, v)) % v == a1 % v for j in range(ov))


def core_closed_form(G: FiniteGroup, params: MetacyclicParams,
                     u: int, alpha: int, beta: int) -> Subgroup:
    """core of H_{u,alpha,beta*o_u} as <a^u, a^{alpha*delta/(beta*o_u)} b^delta>
    with delta = beta*u*o_u / gcd(alpha*(r-1), u) (gcd(0, u) = u)."""
    r = params.r
    ou = o_v(params, u)
    g = gcd(alpha * (r - 1), u)
    delta = beta * u * ou // g
    i = alpha * delta // (beta * ou)
    return subgroup_closure(G, [element_index(params, u, 0),
                                element_index(params, i, delta)])


def metacyclic_decompose(params: MetacyclicParams, F: BaseField, validate=True):
    """Wedderburn decomposition of F_q[G] for metacyclic G, driven by the
    parameter arithmetic above; returns the same (summary, descriptors)
    shape as the generic engine."""
    if gcd(F.q, params.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {params.order}) != 1")
    G = params.group()
    A = GroupAlgebra(G, F)
    descriptors = []
    for v, i, c in normal_triples(params):
        ov = o_v(params, v)
        K = g_ov_subgroup(G, params, ov)
        N = triple_subgroup(G, params, v, i, c)
        for alpha, beta in x_classes(params, v, i, c):
            H = triple_subgroup(G, params, v, alpha, beta * ov)
            descriptors += triple_components(A, Triple(N=N, D=H, A=K))
    return summarize(A, descriptors, validate)
