"""Acceptance gate: one test per criterion, each printing a single
CRITERION n: PASS/FAIL line (run with -s or look at captured output).
All comparisons are exact; there are no tolerances anywhere."""

import random
import time

import numpy as np

from conftest import (
    ALL_METACYCLIC,
    PRIMES,
    basis_vector,
    conjugate_in_g,
    conjugate_subgroup,
    core,
    core_closed_form,
    corpus_grid,
    corpus_groups,
    d1_normal_subgroup_list,
    full_product,
    is_central,
    is_idempotent,
    normal_subgroups,
    relabeled,
)
from grpalg.algebra import ideal_dimension
from grpalg.families import d1_closed_form, d2_closed_form
from grpalg.field import make_field
from grpalg.groups import (
    FiniteGroup,
    d1_group,
    d2_group,
)
from grpalg.idempotents import decompose
from grpalg.metacyclic import (
    MetacyclicParams,
    metacyclic_decompose,
    normal_triples,
    o_v,
    triple_subgroup,
    x_triples,
)
from grpalg.oracle import center_split, q_class_count

_cache = {}


def grid_results():
    """decompose over the whole corpus grid, once; returns
    {(group, q): (summary, descriptors, elapsed)}."""
    if _cache:
        return _cache
    for G, q in corpus_grid():
        t0 = time.time()
        summary, descriptors = decompose(G, make_field(q))
        _cache[(G, q)] = (summary, descriptors, time.time() - t0)
    return _cache


def report(n, ok, detail=""):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_invariant_suite():
    t0 = time.time()
    results = grid_results()
    bad = []
    for (G, q), (summary, descriptors, _) in results.items():
        F = make_field(q)
        es = [d.idempotent.coeffs for d in descriptors]
        for e in es:
            if not e.any() or not is_idempotent(G, F, e) or not is_central(G, e):
                bad.append((G.name, q, "idempotent/central"))
        total = F.sum_rows(es)
        if not np.array_equal(total, basis_vector(G, 0)):
            bad.append((G.name, q, "sum != 1"))
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                if (full_product(G, F, es[i], es[j]).any()
                        or full_product(G, F, es[j], es[i]).any()):
                    bad.append((G.name, q, f"not orthogonal ({i},{j})"))
    elapsed = time.time() - t0
    entries = len(results)
    ok = not bad and elapsed < 60.0
    report(1, ok, f"{entries} grid entries, all idempotents exact, "
                  f"{elapsed:.1f}s (< 60s)" if ok else f"{bad[:3]} {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    bad = []
    for (G, q), (summary, descriptors, _) in grid_results().items():
        F = make_field(q)
        engine = sorted(d.idempotent.key() for d in descriptors)
        oracle = sorted(e.key() for e in center_split(G, F))
        if engine != oracle or len(oracle) != q_class_count(G, q):
            bad.append((G.name, q))
    report(2, not bad,
           f"engine set == center_split set == q_class_count on all "
           f"{len(grid_results())} entries" if not bad else str(bad))


def test_criterion_3_dimension_identity():
    bad = []
    for (G, q), (summary, descriptors, _) in grid_results().items():
        if summary.dimension() != G.order:
            bad.append((G.name, q, "sum"))
            continue
        F = make_field(q)
        for d in descriptors:
            if ideal_dimension(G, F, d.idempotent.coeffs) != d.d * d.d * d.l:
                bad.append((G.name, q, (d.d, d.l)))
    report(3, not bad,
           "sum(a*d^2*l) = |G| and per-component ideal rank = d^2*l everywhere"
           if not bad else str(bad[:3]))


def test_criterion_4_fast_path_agreement():
    bad = []
    for tup in ALL_METACYCLIC:
        params = MetacyclicParams(*tup)
        G = params.group()
        for q in PRIMES:
            if params.order % q == 0:
                continue
            F = make_field(q)
            s1, d1 = decompose(G, F)
            s2, d2 = metacyclic_decompose(params, F)
            if s1.components != s2.components or \
                    sorted(x.idempotent.key() for x in d1) != \
                    sorted(x.idempotent.key() for x in d2):
                bad.append((tup, q))
    report(4, not bad,
           f"metacyclic_decompose == decompose on {len(ALL_METACYCLIC)} "
           f"tuples x coprime primes" if not bad else str(bad))


def test_criterion_5_closed_form_regression():
    bad = []
    for m in (2, 3, 4):
        for q in (3, 5, 7, 13):
            s1, _ = decompose(d1_group(m), make_field(q))
            if s1.components != d1_closed_form(m, q).components:
                bad.append(("d1", m, q))
            s2, _ = decompose(d2_group(m), make_field(q))
            if s2.components != d2_closed_form(m, q).components:
                bad.append(("d2", m, q))
    spot1 = d1_closed_form(2, 5).components == {(1, 1): 8, (2, 1): 2}
    spot2 = d2_closed_form(2, 3).components == {(1, 1): 4, (1, 2): 2, (2, 2): 1}
    ok = not bad and spot1 and spot2
    report(5, ok, "closed forms match engine on m in {2,3,4} x q in {3,5,7,13}"
           if ok else f"{bad} spot1={spot1} spot2={spot2}")


def test_criterion_6_normal_subgroup_closed_forms():
    bad = []
    for tup in ALL_METACYCLIC:
        params = MetacyclicParams(*tup)
        G = params.group()
        generated = {triple_subgroup(G, params, *t).members
                     for t in normal_triples(params)}
        brute = {N.members for N in normal_subgroups(G)}
        if generated != brute:
            bad.append(tup)
    for m in (2, 3):
        listed = {H.members for H in d1_normal_subgroup_list(m)}
        brute = {N.members for N in normal_subgroups(d1_group(m))
                 if N.order > 1}
        if listed != brute:
            bad.append(("d1", m))
    report(6, not bad,
           "triple-generated normal subgroups = brute force (metacyclic + d1)"
           if not bad else str(bad))


def test_criterion_7_conjugacy_and_core_laws():
    bad = []
    for tup in ALL_METACYCLIC:
        params = MetacyclicParams(*tup)
        G = params.group()
        for (v, i, c) in normal_triples(params):
            ov = o_v(params, v)
            xt = x_triples(params, v, i, c)
            subs = {ab: triple_subgroup(G, params, v, ab[0], ab[1] * ov)
                    for ab in xt}
            for a1, b1 in xt:
                H1 = subs[(a1, b1)]
                predicted_core = core_closed_form(G, params, v, a1, b1)
                if predicted_core.members != core(G, H1).members:
                    bad.append(("core", tup, v, a1, b1))
                for a2, b2 in xt:
                    H2 = subs[(a2, b2)]
                    found = any(
                        conjugate_subgroup(G, H2, g).members == H1.members
                        for g in range(G.order))
                    if found != conjugate_in_g(params, v, a1, b1, a2, b2):
                        bad.append(("conj", tup, v, (a1, b1), (a2, b2)))
    report(7, not bad,
           "conjugacy criterion and core formula hold on the metacyclic corpus"
           if not bad else str(bad[:3]))


def test_criterion_8_aut_term_agreement():
    bad = []
    for m in (2, 3, 4):
        for q in (3, 5, 7, 13):
            s1, _ = decompose(d1_group(m), make_field(q))
            if s1.aut() != d1_closed_form(m, q).aut():
                bad.append(("d1", m, q))
            s2, _ = decompose(d2_group(m), make_field(q))
            if s2.aut() != d2_closed_form(m, q).aut():
                bad.append(("d2", m, q))
    # the large-m block (SL_2 . Z)^(2^{lambda-1}) . S_{2^{lambda-1}} at m=5, q=3
    # lambda(3) = 2, so l = 2^(m - lambda) = 8 and the multiplicity is 2
    m, q = 5, 3
    s, _ = decompose(d1_group(m), make_field(q))
    t = s.aut()
    h_block = "(((SL_2(F_3^8) . Z_8))^(2) . S_2)"
    found = h_block in t.split(" + ")
    ok = not bad and t == d1_closed_form(m, q).aut() and found
    report(8, ok, "aut terms equal incl. the m=5, q=3 block"
           if ok else f"{bad} h_block={'ok' if found else 'missing'}")


def test_criterion_9_choice_independence():
    """Each relabeling of G makes the engine's least-element choices (the
    element that joins A, the D of a class, the coset of an orbit) pick
    other subgroups and cosets; mapped back, e[g] = e'[perm[g]], the
    idempotents and components are those of G itself."""
    bad = []
    trials = 20
    for G in corpus_groups():
        q = next(p for p in PRIMES if G.order % p)
        F = make_field(q)
        base_summary, base_desc = decompose(G, F)
        base_set = sorted(d.idempotent.key() for d in base_desc)
        for trial in range(trials):
            m, perm = relabeled(G.m, random.Random(10_000 + trial))
            s, descs = decompose(FiniteGroup(m, name=G.name), F)
            keys = sorted(tuple(d.idempotent.coeffs[perm].tolist()) for d in descs)
            if s.components != base_summary.components or keys != base_set:
                bad.append((G.name, q, trial))
                break
    report(9, not bad,
           f"{trials} random relabelings per corpus group: identical "
           f"idempotent sets and alpha maps" if not bad else str(bad))
