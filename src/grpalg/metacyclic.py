"""Fast-path decomposition for metacyclic groups
G = <a, b | a^n = 1, b^t = a^k, b^{-1} a b = a^r>.

Everything a subgroup search would find comes from the parameters
(n, t, k, r) instead: the normal subgroups N = H_{v,i,c} = <a^v, a^i b^c>
(normal_triples), for each the set X_{v,i,c} (x_triples), and its
conjugacy classes, one per <r>-orbit of alpha mod v (x_classes).  Each
class (alpha, beta) gives the triple N, D = H_{v,alpha,beta*o_v},
A = G_{o_v} = <a, b^{o_v}>, which goes through the generic engine's
per-triple step, idempotents.triple_components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
    """H_{v,i,c} = <a^v, a^i b^c> as an explicit subgroup, cached on G
    per (params, v, i, c) once its order is checked."""
    key = ("triple_subgroup", params, v, i, c)
    if key not in G._cache:
        g1 = element_index(params, v, 0)
        g2 = element_index(params, i, c)
        H = subgroup_closure(G, [g1, g2])
        expected = params.order // (v * c)
        if H.order != expected:
            raise InternalInconsistency(
                f"|H_({v},{i},{c})| = {H.order}, expected {expected}")
        G._cache[key] = H
    return G._cache[key]


def x_triples(params: MetacyclicParams, v: int, i: int, c: int):
    """The set X_{v,i,c} of a normal triple (v, i, c): the (alpha, beta),
    0 <= alpha < v, with g = gcd(alpha*(r-1), v) (gcd(0, v) = v) and
      beta = c*g / (v*o_v) an integer,  alpha*v/g = i (mod v),
      gcd(v, alpha, beta) = 1.
    The theorem's other conditions follow from these and from (v, i, c):
      v | r^{o_v} - 1, since o_v = ord_v(r);
      o_v*beta | t, since c/(beta*o_v) = v/g is an integer and c | t;
      v | k + alpha*t/(o_v*beta), since alpha*t/(o_v*beta)
        = (alpha*v/g)(t/c) = i*t/c (mod v) and v | k + i*t/c."""
    v_ov = v * o_v(params, v)
    out = []
    for alpha in range(v):
        g = gcd(alpha * (params.r - 1), v)
        beta, rem = divmod(c * g, v_ov)
        if not rem and (alpha * (v // g) - i) % v == 0 and gcd(gcd(v, alpha), beta) == 1:
            out.append((alpha, beta))
    return out


def alpha_orbit(params: MetacyclicParams, v: int, alpha: int):
    """The <r>-orbit of alpha mod v, sorted: H_{v,a1,beta*o_v} and
    H_{v,a2,beta*o_v} are conjugate in G iff a1 and a2 share it."""
    r = params.r
    return tuple(sorted({alpha * pow(r, j, v) % v for j in range(o_v(params, v))}))


def x_classes(params: MetacyclicParams, v: int, i: int, c: int):
    """The least member of each conjugacy class of X_{v,i,c}: (alpha1, beta1)
    and (alpha2, beta2) are conjugate iff beta1 = beta2 and alpha1, alpha2
    share their <r>-orbit mod v (alpha_orbit)."""
    classes = {}
    for alpha, beta in x_triples(params, v, i, c):
        classes.setdefault((beta, alpha_orbit(params, v, alpha)), []).append((alpha, beta))
    return [min(mem) for _, mem in sorted(classes.items())]


def metacyclic_decompose(params: MetacyclicParams, F: BaseField):
    """Wedderburn decomposition of F_q[G] for metacyclic G, driven by the
    parameter arithmetic above; returns the same (summary, descriptors)
    shape as the generic engine.  The A of every triple with N = H_{v,i,c}
    is G_{o_v} = <a, b^{o_v}> = H_{1,0,o_v}, built once per o_v."""
    if gcd(F.q, params.order) != 1:
        raise NotSemisimple(f"gcd({F.q}, {params.order}) != 1")
    G = params.group()
    G_ov = {ov: triple_subgroup(G, params, 1, 0, ov)
            for ov in {o_v(params, v) for v in divisors(params.n)}}
    descriptors = []
    for v, i, c in normal_triples(params):
        ov = o_v(params, v)
        N = triple_subgroup(G, params, v, i, c)
        for alpha, beta in x_classes(params, v, i, c):
            H = triple_subgroup(G, params, v, alpha, beta * ov)
            descriptors += triple_components(G, F, Triple(N=N, D=H, A=G_ov[ov]))
    return summarize(G, F, descriptors)
