#!/usr/bin/env python3
"""Self-test of the benchmark: run every workload of BENCHMARK.json on a
tiny input pool, untraced and traced, and check that the result has every
metric named there, with its unit and a numeric value, and that every op
other than the scope op passed its checks.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py
"""

import json
import math
import sys

import inputs
import run


def check(name, trace, result, want):
    problems = []
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for metric, unit in want.items():
        entry = got.get(metric)
        if entry is None:
            continue
        if entry["unit"] != unit:
            problems.append(f"{metric}: unit {entry['unit']!r}, expected {unit!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric}: value {value!r} is not a finite number")
    if not result["correct"]:
        problems.append("outputs not correct")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    json.dumps(result, allow_nan=False)
    return [f"{name} --trace {trace}: {p}" for p in problems]


def main():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if set(names) != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(run.WORKLOADS)}")
    cap = run.cap_threads()
    for name in names:
        pool = inputs.TINY_POOLS["corpus" if name in run.WARM else "cold"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            result, context = run.measure(name, 1, 1, trace, pool=pool, cap=cap)
            found = check(name, trace, result, want)
            if any(not f["scope"] for f in context["failures"]):
                found.append(f"{name} --trace {trace}: failures {context['failures']}")
            problems += found
            print(f"{name:<10} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {'ok' if not found else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
