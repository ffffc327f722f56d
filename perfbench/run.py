#!/usr/bin/env python3
"""Benchmark for grpalg: exact Wedderburn decompositions and their oracle.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

It imports the package from ./src (never an installed copy), runs one
workload in this single process with numeric libraries capped at nproc
threads, checks every output, and prints a context line followed by one
JSON result line.  It exits with code 2, printing no result, when ./src is
missing or the arguments are invalid.

Workloads (each seed runs the whole pool; the seed relabels the elements
of the Cayley-table groups and shuffles the order of cold ops; seed 0 keeps
the recorded order and labels):

  corpus      The acceptance grid, 78 (group, q) pairs with |G| <= 64, run
              warm as a library sweep: one tower per q and one group object
              per group, shared by all ops of a sweep.  Dominated by
              group-algebra products in validation and the oracle.
  field_cold  Cold ops whose cost is the field layer: dihedral-type groups
              with a large ord_n(q) (extension arithmetic) and two groups
              over F_{2^8} and F_{3^5} (the F_{p^a} table build).
  large       Cold ops on |G| = 81..657 over F_2, where the subgroup lattice
              and the |G|-sized products dominate.

Op kinds: decompose (idempotents.decompose(G, F, validate=True)), fastpath
(metacyclic.metacyclic_decompose(params, F), metacyclic inputs only) and
verify (oracle.center_split plus oracle.q_class_count).  A cold op clears
the make_field / metacyclic_group / d1_group / d2_group caches first and
builds its field tower and group inside the timed region.  Every op is
checked against the other paths and against digests recorded at the seed
commit (digests.json).  Each pass ends with one scope op, decompose(Z_3^5,
F_2): in scope but rejected by the subgroup cap at the seed commit.  It
counts in attempted/failed and failed_frac and in no latency.

A run sets up SETUP_REPS times (a fresh import of grpalg plus, for corpus,
the sweep's towers and groups); setup_s is the median.  It then runs whole
passes over the pool, starting another only while the projected end stays
within --seconds (always at least one).  With --trace 1 it runs one
untraced pass and then one traced pass of the same ops and reports the
per-layer metrics of spans.py instead of the end-to-end ones.

End-to-end times are host-normalized seconds (hostclock.py): each latency
is scaled by the speed of the host sampled while it ran, because a shared
host drifts by tens of percent within minutes.  The context line carries
the same metrics unnormalized.  Per-layer self times are plain seconds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import hostclock
import inputs
import spans
from inputs import DECOMPOSE, FASTPATH, VERIFY

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("errors", "field", "groups", "algebra", "idempotents", "metacyclic", "oracle")
WORKLOADS = {
    "corpus": inputs.corpus_pool(),
    "field_cold": inputs.FIELD_COLD_POOL,
    "large": inputs.LARGE_POOL,
}
WARM = {"corpus"}
SETUP_REPS = 9
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "decompose_p50_s": "s", "fastpath_p50_s": "s",
    "verify_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
}
perf_counter = time.perf_counter


class SetupError(Exception):
    """The checkout cannot be benchmarked (no ./src/grpalg)."""


def cap_threads():
    cap = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def load_grpalg():
    """Import grpalg afresh from ./src; a namespace of its modules."""
    if not (SRC / "grpalg" / "__init__.py").is_file():
        raise SetupError(f"{SRC / 'grpalg'} not found")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "grpalg" or m.startswith("grpalg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("grpalg")
    if Path(pkg.__file__).resolve().parent != SRC / "grpalg":
        raise SetupError(f"grpalg imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"grpalg.{m}") for m in MODULES})


class Record:
    """One op: its latency over [t0, t1] (sampler time excluded), its
    host-normalized latency, its output and why it failed, if it did."""
    __slots__ = ("idx", "kind", "t0", "t1", "latency", "norm", "output", "error",
                 "reason", "scope")

    def __init__(self, idx, kind, span, output, error, scope=False):
        self.idx, self.kind = idx, kind
        self.t0, self.t1, self.latency = span
        self.norm = None
        self.output, self.error, self.scope = output, error, scope
        self.reason = error


class Bench:
    """One workload's inputs bound to one import of the package."""

    def __init__(self, lib, pool, seeded, digests, warm, clock):
        self.lib, self.pool, self.seeded = lib, pool, seeded
        self.digests, self.warm, self.clock = digests, warm, clock
        # the lru-cached constructors, taken before any tracing wrapper
        self.caches = [lib.field.make_field, lib.groups.metacyclic_group,
                       lib.groups.d1_group, lib.groups.d2_group]
        self.tracer = None
        self.other_s = 0.0
        self.known_defect = getattr(lib.errors, "CapExceeded", None)

    # -- state -------------------------------------------------------------
    def clear_caches(self):
        for fn in self.caches:
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
                if fn.cache_info().currsize:
                    raise RuntimeError(f"{fn.__name__} cache not empty after clear")

    def build_shared(self):
        """Towers and groups shared by the ops of one warm sweep."""
        towers = {q: self.lib.field.make_field(q) for q in sorted({i.q for i in self.pool})}
        groups = {}
        for inp in self.pool:
            if inp.name not in groups:
                groups[inp.name] = self.seeded.build_group(self.lib, inp)
        return towers, groups

    def order(self, rng):
        """Op order of one pass.  A warm sweep keeps the library order (group
        by group, q ascending): which op pays for filling a shared cache
        depends on the order, so shuffling would move latencies between
        ops.  Cold ops are independent of each other and are shuffled."""
        ops = [(idx, kind) for idx, inp in enumerate(self.pool) for kind in inp.kinds()]
        if rng and not self.warm:
            rng.shuffle(ops)
        return ops

    # -- ops ---------------------------------------------------------------
    def _call(self, kind, inp, tower, group):
        lib = self.lib
        F = tower()
        if kind == FASTPATH:
            params = lib.metacyclic.MetacyclicParams(*inp.params)
            return lib.metacyclic.metacyclic_decompose(params, F)
        G = group()
        if kind == DECOMPOSE:
            return lib.idempotents.decompose(G, F, validate=True)
        return lib.oracle.center_split(G, F), lib.oracle.q_class_count(G, F.q)

    def _output(self, kind, inp, raw):
        if kind == VERIFY:
            blocks, count = raw
            return {"keys": self.seeded.canonical_keys(inp, blocks), "count": count}
        summary, descriptors = raw
        return {"keys": self.seeded.canonical_keys(inp, [d.idempotent for d in descriptors]),
                "summary": inputs.summary_items(summary)}

    def _timed(self, idx, kind, inp, tower, group):
        gc.collect()
        tracer = self.tracer
        covered = tracer.covered_s if tracer else 0.0
        with hostclock.Stopwatch(self.clock) as watch:
            try:
                raw = self._call(kind, inp, tower, group)
                error = None
            except Exception as exc:  # a failed op is reported, not fatal
                raw = None
                error = "".join(traceback.format_exception_only(type(exc), exc)).strip()[:300]
        if tracer:
            self.other_s += watch.span[2] - (tracer.covered_s - covered)
        output = self._output(kind, inp, raw) if error is None else None
        return Record(idx, kind, watch.span, output, error)

    def _scope_op(self):
        """decompose(Z_3^5, F_2), cold and untraced; see module docstring."""
        self.clear_caches()
        inp = inputs.SCOPE
        lib = self.lib
        if self.tracer:
            self.tracer.enabled = False
        try:
            G = self.seeded.build_group(lib, inp)
            F = lib.field.make_field(inp.p, inp.a)
            error = None
            with hostclock.Stopwatch(self.clock) as watch:
                try:
                    _, descriptors = lib.idempotents.decompose(G, F, validate=True)
                except Exception as exc:  # only the known cap defect keeps the run correct
                    error = f"{type(exc).__name__}: {exc}"
                    ok = self.known_defect is not None and isinstance(exc, self.known_defect)
            if error is None:
                count = lib.oracle.q_class_count(G, F.q)
                ok = count == len(descriptors)
                if not ok:
                    error = f"{len(descriptors)} idempotents, q_class_count {count}"
            return Record(-1, DECOMPOSE, watch.span, None, error, scope=True), ok
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def run_pass(self, order):
        """All ops of one pass, then the scope op; (records, correct)."""
        records = []
        if self.warm:
            self.clear_caches()
            towers, groups = self.build_shared()
            for idx, kind in order:
                inp = self.pool[idx]
                records.append(self._timed(idx, kind, inp, lambda: towers[inp.q],
                                           lambda: groups[inp.name]))
        else:
            lib = self.lib
            for idx, kind in order:
                inp = self.pool[idx]
                self.clear_caches()
                records.append(self._timed(
                    idx, kind, inp, lambda: lib.field.make_field(inp.p, inp.a),
                    lambda: self.seeded.build_group(lib, inp)))
        correct = self.check(records)
        scope, scope_correct = self._scope_op()
        records.append(scope)
        return records, correct and scope_correct

    def check(self, records):
        by_idx = {}
        for rec in records:
            status = ("ok", rec.output) if rec.error is None else ("error", rec.error)
            by_idx.setdefault(rec.idx, {})[rec.kind] = status
        for rec in records:
            inp = self.pool[rec.idx]
            digest = self.digests.get(inp.id)
            if digest is None:
                rec.reason = f"no recorded digest for {inp.id}"
                continue
            rec.reason = inputs.check_input(by_idx[rec.idx], digest)[rec.kind]
        return all(rec.reason is None for rec in records)


def median_or_none(values):
    return statistics.median(values) if values else None


def pass_wall(records, attr="norm"):
    """Sum of the timed op latencies of one pass (the scope op excluded)."""
    return sum(getattr(r, attr) for r in records if not r.scope)


def end_to_end(setup_s, passes, attr):
    """End-to-end metric values from the records' `attr` latencies."""
    timed = [[r for r in recs if not r.scope and r.reason is None] for recs, _ in passes]
    lat = {k: [getattr(r, attr) for recs in timed for r in recs if r.kind == k]
           for k in (DECOMPOSE, FASTPATH, VERIFY)}
    every = [x for v in lat.values() for x in v]
    attempted = sum(len(recs) for recs, _ in passes)
    failed = sum(r.reason is not None for recs, _ in passes for r in recs)
    values = {
        "setup_s": setup_s,
        "wall_s": median_or_none([pass_wall(recs, attr) for recs, _ in passes]),
        "decompose_p50_s": median_or_none(lat[DECOMPOSE]),
        "fastpath_p50_s": median_or_none(lat[FASTPATH]),
        "verify_p50_s": median_or_none(lat[VERIFY]),
        "op_p90_s": statistics.quantiles(every, n=10)[-1] if len(every) > 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }
    samples = {k: len(v) for k, v in lat.items()}
    samples["op_p90_s"] = len(every)
    return values, samples


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines():
    return sum(1 for path in sorted((SRC / "grpalg").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def measure(workload, seed, seconds, trace, pool=None, cap=None):
    """Run one workload; returns (result, context)."""
    pool = list(pool if pool is not None else WORKLOADS[workload])
    seeded = inputs.SeededInputs(seed, pool + [inputs.SCOPE])
    digests = inputs.load_digests()
    warm = workload in WARM
    importlib.import_module("numpy")  # a dependency, not part of the set-up measured
    rng = random.Random(seed) if seed else None
    passes, setups = [], []
    with hostclock.HostClock() as clock:
        for _ in range(SETUP_REPS):
            gc.collect()
            with hostclock.Stopwatch(clock) as watch:
                lib = load_grpalg()
                bench = Bench(lib, pool, seeded, digests, warm, clock)
                if warm:
                    bench.build_shared()
            setups.append(watch.span)
        bench.clear_caches()
        gc.collect()
        gc.freeze()  # keeps the collection before each op short
        t_start = perf_counter()
        if trace:
            order = bench.order(rng)
            passes.append(bench.run_pass(order))
            tracer = bench.tracer = spans.Tracer(clock).install(lib)
            try:
                passes.append(bench.run_pass(order))
            finally:
                tracer.uninstall()
                bench.tracer = None
        else:
            while True:
                passes.append(bench.run_pass(bench.order(rng)))
                elapsed = perf_counter() - t_start
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
        measured_s = perf_counter() - t_start
        time.sleep(hostclock.WINDOW)  # host-speed samples after the last op
    gc.unfreeze()

    records = [r for recs, _ in passes for r in recs]
    for r in records:
        r.norm = clock.normalize(r.latency, r.t0, r.t1)
    setup_s = statistics.median(clock.normalize(lat, t0, t1) for t0, t1, lat in setups)
    raw_setup_s = statistics.median(lat for _, _, lat in setups)
    if trace:
        raw_walls = [pass_wall(recs, "latency") for recs, _ in passes]
        norm_walls = [pass_wall(recs) for recs, _ in passes]
        # the traced pass's share spent in tracing, from host-normalized walls
        overhead_s = raw_walls[1] * (1 - norm_walls[0] / norm_walls[1])
        metrics = tracer.metrics(raw_walls[1], bench.other_s, overhead_s)
        samples, raw = None, None
        extra = {"trace_missing": tracer.missing}
    else:
        values, samples = end_to_end(setup_s, passes, "norm")
        raw, _ = end_to_end(raw_setup_s, passes, "latency")
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        extra = {}

    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "samples": samples,
        "pass_wall_s": [pass_wall(recs, "latency") for recs, _ in passes],
        "measured_s": measured_s,
        "unnormalized": raw,
        "host_samples": len(clock.durations),
        "host_kernel_median_s": statistics.median(clock.durations),
        "nproc": len(os.sched_getaffinity(0)), "thread_cap": cap, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "src_grpalg_nonblank_lines": src_lines(),
        "inputs": [inp.id for inp in pool],
        "failures": [{"op": r.kind, "input": inputs.SCOPE.id if r.scope else pool[r.idx].id,
                      "scope": r.scope, "reason": r.reason}
                     for r in records if r.reason is not None][:20],
        **extra,
    }
    result = {
        "correct": all(ok for _, ok in passes),
        "attempted": len(records),
        "failed": sum(r.reason is not None for r in records),
        "metrics": metrics,
    }
    return result, context


def parse_args(argv):
    ap = argparse.ArgumentParser(description="grpalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    cap = cap_threads()
    try:
        result, context = measure(args.workload, args.seed, args.seconds, args.trace, cap=cap)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
