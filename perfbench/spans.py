"""Per-layer tracing for the traced benchmark run.

The tracer wraps the package's functions from outside: it replaces module
attributes and class methods with timing wrappers for the length of one
traced pass and restores them afterwards.  A name imported into several
modules (all_subgroups into idempotents, coset_orbits into metacyclic,
factor_polynomial into oracle, ...) is patched in every one of them, so
every call site is covered.

Spans nest through a stack; a span's self time is its duration minus the
time covered by the spans it caused.  Spans are aggregated in memory by
name (self seconds and calls); the counters are taken at the same
boundaries.  A patch target that no longer exists, or a counter whose
inputs changed shape, is skipped and listed in `missing`, so a later
refactor shows up in the context line instead of breaking the run.
"""

from __future__ import annotations

import time

perf_counter = time.perf_counter


def _subgroup_count(tracer, fn, G, *args, **kwargs):
    # a lattice is enumerated when the group has not cached one yet
    cache = getattr(G, "_cache", None)
    fresh = cache is not None and not any(
        isinstance(k, tuple) and k[:1] == ("all_subgroups",) for k in cache)
    result = fn(G, *args, **kwargs)
    if cache is None:
        tracer.unavailable("groups.subgroups_enumerated")
    elif fresh:
        tracer.add_safely("groups.subgroups_enumerated", lambda: len(result[0]))
    return result


def _triple_count(tracer, fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    tracer.add_safely("idempotents.triples", lambda: len(result))
    return result


def _mul_count(tracer, fn, x, y):
    # The seed kernel does one row update of width |G| per nonzero
    # coefficient of the left operand; bytes_computed counts the
    # coefficients those updates produce.
    row_ops = tracer.add_safely(
        "algebra.mul.row_ops", lambda: int((x.coeffs != 0).sum()) * x.coeffs.shape[0])
    if row_ops is not None:
        tracer.add_safely("algebra.mul.bytes_computed", lambda: row_ops * x.coeffs.itemsize)
    return fn(x, y)


def _rank_cells(tracer, fn, algebra, e):
    tracer.add_safely("algebra.rank_cells", lambda: algebra.group.order ** 2)
    return fn(algebra, e)


def _call_count(name):
    def hook(tracer, fn, *args, **kwargs):
        tracer.add(name, 1)
        return fn(*args, **kwargs)
    return hook


def _extension_count(tracer, fn, *args, **kwargs):
    # ExtField(base, s): args are (self, base, s)
    tracer.add("field.extensions_built", 1)
    tracer.add_safely("field.extension_degree_sum", lambda: int(args[2]))
    return fn(*args, **kwargs)


# span name -> (patch targets as (module, dotted attribute), counting hook)
SPANS = {
    "field.make_field": ([("field", "make_field")], None),
    "field.root_of_unity": ([("field", "FieldTower.root_of_unity")], None),
    "field.factor_polynomial": ([("field", "factor_polynomial"),
                                 ("oracle", "factor_polynomial")], None),
    "groups.build": ([("groups", "FiniteGroup.__init__"),
                      ("groups", "metacyclic_group"),
                      ("metacyclic", "metacyclic_group"),
                      ("groups", "d1_group"), ("groups", "d2_group")], None),
    "groups.all_subgroups": ([("groups", "all_subgroups"),
                              ("idempotents", "all_subgroups")], _subgroup_count),
    "groups.normal_subgroups": ([("groups", "normal_subgroups"),
                                 ("idempotents", "normal_subgroups")], None),
    "groups.quotient": ([("groups", "quotient"), ("idempotents", "quotient")], None),
    "groups.normalizer": ([("groups", "normalizer"),
                           ("idempotents", "normalizer")], None),
    "groups.core": ([("groups", "core"), ("idempotents", "core")], None),
    "idempotents.decompose": ([("idempotents", "decompose")], None),
    "idempotents.shoda_triples": ([("idempotents", "shoda_triples")], _triple_count),
    "idempotents.coset_orbits": ([("idempotents", "coset_orbits"),
                                  ("metacyclic", "coset_orbits")], None),
    "idempotents.cyclic_quotient_data": ([("idempotents", "cyclic_quotient_data")], None),
    "idempotents.epsilon_idempotent": ([("idempotents", "epsilon_idempotent")], None),
    "idempotents.ec_idempotent": ([("idempotents", "ec_idempotent"),
                                   ("metacyclic", "ec_idempotent")], None),
    "algebra.mul": ([("algebra", "AlgebraElement.__mul__")], _mul_count),
    "algebra.is_central": ([("algebra", "AlgebraElement.is_central")], None),
    "algebra.is_orthogonal_to": ([("algebra", "AlgebraElement.is_orthogonal_to")], None),
    "algebra.ideal_dimension": ([("algebra", "GroupAlgebra.ideal_dimension")], _rank_cells),
    "metacyclic.metacyclic_decompose": ([("metacyclic", "metacyclic_decompose")], None),
    "oracle.center_split": ([("oracle", "center_split")], None),
    "oracle.q_class_count": ([("oracle", "q_class_count")], None),
}

# counter name -> patch target; counts calls without opening a span
COUNTERS = {
    "algebra.conjugate.calls": ("algebra", "AlgebraElement.conjugate"),
    "oracle.blocks": ("oracle", "_minimal_polynomial"),
}

# extension fields built, and the sum of their degrees
EXTENSIONS = ("field", "ExtField.__init__")

# Reported per-layer metrics: name -> unit.
SELF_TIMES = [name for name in SPANS if name not in ("algebra.is_orthogonal_to",)]
CALL_COUNTS = ["field.factor_polynomial", "algebra.mul", "algebra.is_orthogonal_to"]
COUNTS = ["field.extensions_built", "field.extension_degree_sum",
          "groups.subgroups_enumerated", "idempotents.triples",
          "algebra.mul.row_ops", "algebra.rank_cells",
          "algebra.conjugate.calls", "oracle.blocks"]
METRICS = {f"{n}.self_s": "s" for n in SELF_TIMES}
METRICS.update({f"{n}.calls": "count" for n in CALL_COUNTS})
METRICS.update({n: "count" for n in COUNTS})
METRICS["algebra.mul.bytes_computed"] = "bytes"
METRICS["idempotents.triples_per_subgroup"] = "ratio"
METRICS.update({"trace.wall_s": "s", "trace.other_s": "s", "trace.overhead_s": "s"})


def _resolve(lib, module, dotted):
    """(owner, attribute, original) or None when the target is gone."""
    owner = getattr(lib, module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Aggregates spans and counters.  clock.spent is the running total of
    time that belongs to no span (the host-speed sampler); spans leave it
    out of their durations."""

    def __init__(self, clock):
        self.clock = clock
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.stack = []        # time covered by children of each open span
        self.covered_s = 0.0   # total duration of root spans
        self.enabled = True
        self.missing = []
        self._undo = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def add_safely(self, name, compute):
        """Add compute() to a counter; a counter whose inputs changed shape
        in the package is listed as unavailable instead of failing the run."""
        try:
            n = compute()
        except (AttributeError, TypeError, IndexError, KeyError):
            self.unavailable(name)
            return None
        self.add(name, n)
        return n

    def unavailable(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def _span(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, clock = tracer.stack, tracer.clock
            stack.append(0.0)
            spent = clock.spent
            t0 = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, *args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (clock.spent - spent)
                child = stack.pop()
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dt - child
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if stack:
                    stack[-1] += dt
                else:
                    tracer.covered_s += dt
        return wrapper

    def _counter(self, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return hook(tracer, fn, *args, **kwargs)
        return wrapper

    def _patch(self, lib, module, dotted, make):
        target = _resolve(lib, module, dotted)
        if target is None:
            self.unavailable(f"{module}.{dotted}")
            return
        owner, attr, original = target
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self, lib):
        for name, (targets, hook) in SPANS.items():
            for module, dotted in targets:
                self._patch(lib, module, dotted,
                            lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name, (module, dotted) in COUNTERS.items():
            self._patch(lib, module, dotted,
                        lambda fn, name=name: self._counter(fn, _call_count(name)))
        self._patch(lib, *EXTENSIONS, lambda fn: self._counter(fn, _extension_count))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s, other_s, overhead_s):
        out = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name in COUNTS + ["algebra.mul.bytes_computed"]:
            out[name] = self.counts.get(name, 0)
        enumerated = self.counts.get("groups.subgroups_enumerated", 0)
        out["idempotents.triples_per_subgroup"] = (
            self.counts.get("idempotents.triples", 0) / max(enumerated, 1))
        out["trace.wall_s"] = wall_s
        out["trace.other_s"] = other_s
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}
