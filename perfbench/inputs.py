"""Input pools, group constructors, the timed op kinds and the checks on their
outputs.

Every input is a group specification plus a base field F_{p^a}.  Groups are
built here from the package's public constructors (metacyclic presentations,
the d1/d2 families) or from Cayley tables that this file writes out itself
(A4, elementary abelian 3-groups), so the benchmark does not depend on the
test suite or the scripts directory.

Outputs are compared in a canonical labeling: Cayley-table groups are
relabeled by the seed, and their idempotent coefficient vectors are mapped
back before they are compared or hashed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

PRIMES = (3, 5, 7, 11, 13)
METACYCLIC_TUPLES = (
    (4, 2, 0, 3), (5, 4, 0, 2), (7, 3, 0, 2),
    (9, 3, 0, 4), (8, 2, 0, 3), (16, 4, 0, 3),
)

DECOMPOSE, FASTPATH, VERIFY = "decompose", "fastpath", "verify"
CAYLEY = ("a4", "z3")  # group kinds given by a Cayley table written here


@dataclass(frozen=True)
class Input:
    """A group specification over F_{p^a}.

    group is ("metacyclic", n, t, k, r), ("d1", m), ("d2", m), ("a4",) or
    ("z3", k) for the elementary abelian group Z_3^k.
    """
    group: tuple
    p: int
    a: int = 1

    @property
    def q(self):
        return self.p ** self.a

    @property
    def order(self):
        kind, *args = self.group
        if kind == "metacyclic":
            return args[0] * args[1]
        if kind in ("d1", "d2"):
            return 1 << (args[0] + 2)
        return 12 if kind == "a4" else 3 ** args[0]

    @property
    def name(self):
        kind, *args = self.group
        if kind == "metacyclic":
            return "M(%d,%d,%d,%d)" % tuple(args)
        if kind in ("d1", "d2"):
            return f"{kind.upper()}({args[0]})"
        return "A4" if kind == "a4" else f"Z3^{args[0]}"

    @property
    def id(self):
        return f"{self.name}@F{self.q}"

    @property
    def params(self):
        """(n, t, k, r) of a metacyclic presentation, or None."""
        kind, *args = self.group
        if kind == "metacyclic":
            return tuple(args)
        if kind == "d2":
            m = args[0]
            return (1 << (m + 1), 2, 2, (1 << m) + 1)
        return None

    def kinds(self):
        return (DECOMPOSE, FASTPATH, VERIFY) if self.params else (DECOMPOSE, VERIFY)


def corpus_pool():
    """The acceptance grid: 17 group entries (D8 is listed twice, as
    M(4,2,0,3) is both the named D8 and the first metacyclic tuple) times
    every coprime q in PRIMES, 78 pairs."""
    groups = [("metacyclic", 3, 2, 0, 2), ("metacyclic", 4, 2, 0, 3), ("d2", 1),
              ("a4",), ("metacyclic", 12, 1, 0, 1)]
    groups += [("metacyclic", *t) for t in METACYCLIC_TUPLES]
    groups += [(fam, m) for m in (2, 3, 4) for fam in ("d1", "d2")]
    return [inp for g in groups for q in PRIMES
            if (inp := Input(g, q)).order % q]


# Dihedral-type groups with a large ord_n(q), then prime-power base fields.
FIELD_COLD_POOL = [
    Input(("metacyclic", 43, 2, 0, 42), 5),
    Input(("metacyclic", 47, 2, 0, 46), 5),
    Input(("metacyclic", 53, 2, 0, 52), 3),
    Input(("metacyclic", 7, 3, 0, 2), 2, 8),
    Input(("metacyclic", 11, 5, 0, 3), 3, 5),
]

# |G| = 81..657 over F_2, where extensions are cheap.
LARGE_POOL = [
    Input(("metacyclic", 73, 9, 0, 2), 2),
    Input(("metacyclic", 91, 3, 0, 9), 2),
    Input(("metacyclic", 31, 5, 0, 2), 2),
    Input(("z3", 4), 2),
]

# In scope (abelian, coprime) but rejected by the subgroup-lattice cap.
SCOPE = Input(("z3", 5), 2)

# Small stand-ins used by selftest.py.
TINY_POOLS = {
    "corpus": [Input(("metacyclic", 3, 2, 0, 2), 5), Input(("a4",), 5),
               Input(("metacyclic", 3, 2, 0, 2), 7)],
    "cold": [Input(("metacyclic", 7, 3, 0, 2), 2, 2), Input(("z3", 2), 2)],
}


# ---------------------------------------------------------------------------
# Cayley tables and relabeling
# ---------------------------------------------------------------------------

def canonical_table(spec):
    kind, *args = spec
    if kind == "a4":
        perms = [p for p in itertools.permutations(range(4))
                 if sum(p[j] > p[i] for i in range(4) for j in range(i)) % 2 == 0]
        idx = {p: i for i, p in enumerate(perms)}  # identity sorts first
        return [[idx[tuple(p[r[i]] for i in range(4))] for r in perms]
                for p in perms]
    if kind == "z3":
        k = args[0]
        digits = list(itertools.product(range(3), repeat=k))
        idx = {d: i for i, d in enumerate(digits)}
        return [[idx[tuple((x + y) % 3 for x, y in zip(a, b))] for b in digits]
                for a in digits]
    raise ValueError(f"no Cayley table for {spec}")


def relabeling(seed, inp):
    """Permutation of the element labels (identity fixed at 0); the identity
    permutation for seed 0."""
    perm = list(range(inp.order))
    if seed:
        rest = perm[1:]
        random.Random(f"{seed}/{inp.name}").shuffle(rest)
        perm[1:] = rest
    return perm


def relabeled_table(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        new_row = out[perm[a]]
        for b in range(n):
            new_row[perm[b]] = perm[row[b]]
    return out


class SeededInputs:
    """The seed-dependent part of a run's inputs: relabeled Cayley tables."""

    def __init__(self, seed, inputs):
        self.tables, self.perms = {}, {}
        for inp in inputs:
            if inp.group[0] in CAYLEY and inp.name not in self.tables:
                perm = relabeling(seed, inp)
                self.perms[inp.name] = perm
                self.tables[inp.name] = relabeled_table(canonical_table(inp.group), perm)

    def build_group(self, lib, inp):
        """Construct the group through the package's public constructors."""
        kind, *args = inp.group
        groups = lib.groups
        if kind == "metacyclic":
            return groups.metacyclic_group(*args)
        if kind == "d1":
            return groups.d1_group(*args)
        if kind == "d2":
            return groups.d2_group(*args)
        return groups.FiniteGroup(self.tables[inp.name], name=inp.name)

    def canonical_keys(self, inp, elements):
        """Sorted coefficient tuples of the elements, in the canonical
        labeling."""
        keys = [e.key() for e in elements]
        perm = self.perms.get(inp.name)
        if perm is not None:
            keys = [tuple(k[perm[g]] for g in range(len(k))) for k in keys]
        return sorted(keys)


# ---------------------------------------------------------------------------
# Outputs and checks
# ---------------------------------------------------------------------------

def keys_sha256(keys):
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


def summary_items(summary):
    return [[list(dl), m] for dl, m in summary.sorted_items()]


def load_digests():
    return json.loads(DIGESTS.read_text())


def check_input(outs, digest):
    """Failure reason (or None) for each op kind that ran on one input.

    outs maps an op kind to ("ok", output) or ("error", message); outputs are
    dicts with "keys" (canonical sorted idempotent coefficient tuples) and
    either "summary" (engine and fast path) or "count" (oracle q-class
    count).  Each op must match the other paths and, unless digest is None,
    the recorded digest.
    """
    reasons = {}
    ok = {k: v[1] for k, v in outs.items() if v[0] == "ok"}
    for kind, (status, out) in outs.items():
        if status != "ok":
            reasons[kind] = out
            continue
        problems = []
        if digest is not None:
            if keys_sha256(out["keys"]) != digest["keys_sha256"]:
                problems.append("idempotents differ from the recorded digest")
            if "summary" in out and out["summary"] != digest["summary"]:
                problems.append("summary differs from the recorded digest")
        for other, oout in ok.items():
            if other != kind and oout["keys"] != out["keys"]:
                problems.append(f"idempotents differ from {other}")
        if "summary" in out:
            for other, oout in ok.items():
                if other != kind and "summary" in oout and oout["summary"] != out["summary"]:
                    problems.append(f"summary differs from {other}")
        if "count" in out and out["count"] != len(out["keys"]):
            problems.append(f"q_class_count {out['count']} != {len(out['keys'])} blocks")
        reasons[kind] = "; ".join(problems) or None
    return reasons
