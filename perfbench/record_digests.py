#!/usr/bin/env python3
"""Record digests.json: for every benchmark input, a hash of the sorted
idempotent coefficient tuples (canonical labeling) and the sorted
Wedderburn summary.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_digests.py

An input is recorded only when the engine, the metacyclic fast path (where
it applies), the oracle and q_class_count all agree on it.  Primitive
central idempotents are canonical, so the digests hold across correct
implementations.
"""

import json
import sys

import hostclock
import inputs
import run
from inputs import DECOMPOSE


def main():
    run.cap_threads()
    lib = run.load_grpalg()
    pool = (inputs.corpus_pool() + inputs.FIELD_COLD_POOL + inputs.LARGE_POOL
            + [inp for tiny in inputs.TINY_POOLS.values() for inp in tiny])
    unique = list({inp.id: inp for inp in pool}.values())
    seeded = inputs.SeededInputs(0, unique)
    bench = run.Bench(lib, unique, seeded, {}, False, hostclock.HostClock())
    digests = {}
    for idx, inp in enumerate(unique):
        bench.clear_caches()
        outs = {}
        for kind in inp.kinds():
            rec = bench._timed(idx, kind, inp, lambda: lib.field.make_field(inp.p, inp.a),
                               lambda: seeded.build_group(lib, inp))
            if rec.error is not None:
                sys.exit(f"{inp.id} {kind}: {rec.error}")
            outs[kind] = ("ok", rec.output)
        reasons = inputs.check_input(outs, None)
        disagree = {k: r for k, r in reasons.items() if r}
        if disagree:
            sys.exit(f"{inp.id}: paths disagree: {disagree}")
        out = outs[DECOMPOSE][1]
        digests[inp.id] = {"summary": out["summary"],
                           "keys_sha256": inputs.keys_sha256(out["keys"])}
        print(f"{inp.id:<24} {len(out['keys']):4d} idempotents", flush=True)
    inputs.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
