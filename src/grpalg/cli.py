"""Command-line driver.

Subcommands:
  decompose    Wedderburn table + automorphism term for one group algebra
  idempotents  decompose plus the idempotent coefficient vectors
  verify       full invariant suite + oracle comparison (exit 0 on pass)
  compare      generic engine vs specialized paths, diffing summaries
  families     sweep the closed-form families over an (m, q) grid

Exit codes: 0 ok, 2 parse error, 3 not semisimple, 4 not metabelian,
5 invariant violation, 6 discrepancy between paths.
Reports are flat `key = value` lines (grammar in docs/report-format.md).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .autgroup import aut_description
from .errors import (
    GrpalgError,
    InvariantViolation,
    NotMetabelian,
    NotPrime,
    NotSemisimple,
)
from .families import (
    d1_aut_closed_form,
    d1_closed_form,
    d2_aut_closed_form,
    d2_closed_form,
    lambda_of,
)
from .field import MAX_BASE_ORDER, make_field, prime_factors
from .groups import (
    check_family_order,
    d1_group,
    d2_group,
    metacyclic_group,
    parse_cayley,
)
from .idempotents import decompose
from .metacyclic import metacyclic_decompose, params_of
from .oracle import center_split, q_class_count

# family name -> (group constructor, closed-form components, closed-form aut)
FAMILIES = {
    "d1": (d1_group, d1_closed_form, d1_aut_closed_form),
    "d2": (d2_group, d2_closed_form, d2_aut_closed_form),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="grpalg",
        description="Wedderburn decomposition of semisimple metabelian "
                    "group algebras F_q[G]")
    ap.add_argument("--version", action="version", version=f"grpalg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("decompose", "idempotents", "verify", "compare"):
        p = sub.add_parser(name)
        _group_flags(p)
        _field_flags(p)
        _common_flags(p)
    fam = sub.add_parser("families")
    fam.add_argument("--family", choices=["d1", "d2", "both"], default="both")
    fam.add_argument("--m", type=int, nargs="+", default=[2, 3, 4])
    fam.add_argument("--q", type=int, nargs="+", default=[3, 5, 7, 13])
    _common_flags(fam)
    return ap


def _group_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--metacyclic", type=int, nargs=4, metavar=("N", "T", "K", "R"))
    g.add_argument("--d1", type=int, metavar="M")
    g.add_argument("--d2", type=int, metavar="M")
    g.add_argument("--cayley", metavar="PATH")


def _field_flags(p):
    p.add_argument("--p", type=int, required=True, help="field characteristic")
    p.add_argument("--a", type=int, default=1, help="field degree (q = p^a)")


def _common_flags(p):
    p.add_argument("--out", metavar="PATH", help="write the report here as well")
    p.add_argument("--emit-idempotents", action="store_true")


def make_group(args):
    if args.metacyclic:
        n, t, k, r = args.metacyclic
        return metacyclic_group(n, t, k, r)
    if args.d1 is not None:
        return d1_group(args.d1)
    if args.d2 is not None:
        return d2_group(args.d2)
    with open(args.cayley) as fh:
        return parse_cayley(fh.read())


class Report:
    def __init__(self):
        self.lines = []

    def put(self, key, value):
        self.lines.append(f"{key} = {value}")

    def dump(self, out_path=None):
        text = "\n".join(self.lines) + "\n"
        sys.stdout.write(text)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)


def _format_components(components):
    """[(d, l, multiplicity), ...] for a {(d, l): multiplicity} dict."""
    return "[" + ", ".join(f"({d}, {l}, {m})"
                           for (d, l), m in sorted(components.items())) + "]"


def _emit_summary(rep, prefix, summary):
    rep.put(f"{prefix}.order", summary.order)
    rep.put(f"{prefix}.q", summary.q)
    rep.put(f"{prefix}.components", _format_components(summary.components))
    rep.put(f"{prefix}.algebra", summary.format())
    rep.put(f"{prefix}.aut", aut_description(summary))


def _emit_idempotents(rep, prefix, descriptors):
    for i, dsc in enumerate(sorted(descriptors,
                                   key=lambda d: d.idempotent.key())):
        rep.put(f"{prefix}.idempotent.{i}.d", dsc.d)
        rep.put(f"{prefix}.idempotent.{i}.l", dsc.l)
        rep.put(f"{prefix}.idempotent.{i}.coeffs",
                "[" + ", ".join(map(str, dsc.idempotent.key())) + "]")


def _start(args, command):
    """The group, the field, and a report headed by the group and command."""
    G = make_group(args)
    F = make_field(args.p, args.a)
    rep = Report()
    rep.put("group", G.name)
    rep.put("command", command)
    return G, F, rep


def cmd_decompose(args, emit_idem):
    G, F, rep = _start(args, "idempotents" if emit_idem else "decompose")
    summary, descriptors = decompose(G, F)
    _emit_summary(rep, "wedderburn", summary)
    if emit_idem or args.emit_idempotents:
        _emit_idempotents(rep, "wedderburn", descriptors)
    rep.dump(args.out)
    return 0


def cmd_verify(args):
    G, F, rep = _start(args, "verify")
    summary, descriptors = decompose(G, F, validate=True)
    _emit_summary(rep, "wedderburn", summary)
    engine_set = sorted(d.idempotent.key() for d in descriptors)
    oracle_set = sorted(e.key() for e in center_split(G, F))
    n_qc = q_class_count(G, F.q)
    rep.put("oracle.count", len(oracle_set))
    rep.put("oracle.q_class_count", n_qc)
    ok = engine_set == oracle_set and len(oracle_set) == n_qc
    rep.put("oracle.match", "yes" if ok else "no")
    if args.emit_idempotents:
        _emit_idempotents(rep, "wedderburn", descriptors)
    rep.dump(args.out)
    return 0 if ok else 6


def cmd_compare(args):
    G, F, rep = _start(args, "compare")
    summary, descriptors = decompose(G, F)
    _emit_summary(rep, "generic", summary)
    mismatches = []
    fam = G.meta.get("family")
    if fam in ("metacyclic", "d2"):
        params = params_of(G)
        msum, mdesc = metacyclic_decompose(params, F)
        _emit_summary(rep, "metacyclic", msum)
        same = (msum.components == summary.components and
                sorted(d.idempotent.key() for d in mdesc)
                == sorted(d.idempotent.key() for d in descriptors))
        rep.put("metacyclic.match", "yes" if same else "no")
        if not same:
            mismatches.append("metacyclic")
    m = G.meta.get("m")
    if fam in FAMILIES and m is not None and m >= 2:
        cf = FAMILIES[fam][1](m, F.q)
        rep.put("closed_form.components", _format_components(cf))
        same = cf == summary.components
        rep.put("closed_form.match", "yes" if same else "no")
        if not same:
            mismatches.append("closed_form")
    rep.dump(args.out)
    return 6 if mismatches else 0


def _field_of_order(q):
    """F_q for a prime power q = p^a; NotPrime for any other q, and
    ValueError past MAX_BASE_ORDER before q is factored."""
    if q > MAX_BASE_ORDER:
        raise ValueError(f"base field order {q} exceeds cap {MAX_BASE_ORDER}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, a = primes[0], 1
    while p ** a < q:
        a += 1
    return make_field(p, a)


def cmd_families(args):
    rep = Report()
    rep.put("command", "families")
    fams = list(FAMILIES) if args.family == "both" else [args.family]
    bad = False
    for fam in fams:
        group_of, closed_form, aut_closed_form = FAMILIES[fam]
        for m in args.m:
            check_family_order(m)  # before the closed forms, which loop to m
            for q in args.q:
                try:
                    cf = closed_form(m, q)
                except GrpalgError as exc:
                    rep.put(f"{fam}.{m}.{q}.error", type(exc).__name__)
                    bad = True
                    continue
                F = _field_of_order(q)  # before the group is built
                rep.put(f"{fam}.{m}.{q}.lambda", lambda_of(q))
                rep.put(f"{fam}.{m}.{q}.components", _format_components(cf))
                rep.put(f"{fam}.{m}.{q}.aut", aut_closed_form(m, q))
                summary, _ = decompose(group_of(m), F)
                same = summary.components == cf
                rep.put(f"{fam}.{m}.{q}.engine_match", "yes" if same else "no")
                if not same:
                    bad = True
    rep.dump(args.out)
    return 6 if bad else 0


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on parse error and 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command == "decompose":
            return cmd_decompose(args, emit_idem=False)
        if args.command == "idempotents":
            return cmd_decompose(args, emit_idem=True)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "families":
            return cmd_families(args)
        return 2
    except NotSemisimple as exc:
        print(f"error: not semisimple: {exc}", file=sys.stderr)
        return 3
    except NotMetabelian as exc:
        print(f"error: not metabelian: {exc}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"error: invariant '{exc.invariant}' violated: {exc.witness}",
              file=sys.stderr)
        return 5
    except (GrpalgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
