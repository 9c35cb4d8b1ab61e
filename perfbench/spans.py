"""In-memory spans around robustkit's layer calls, and the per-layer metrics.

The program is not edited: each layer function is replaced, in the module
that calls it, by a wrapper that records a span (name, wall start/end, CPU
start/end, parent span, instance seed, attributes). `Tracer.installed()`
restores the originals on exit, so untraced code runs exactly as shipped.
Span names are `<defining module>.<function>`; the first part is the layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

LAYERS = ("experiments", "scenarios", "lp", "bounds", "problems")
KS = (1, 2, 3)

# (calling module, attribute): every call site of a layer function that the
# grid pipeline reaches. Solves are wrapped where scenarios and bounds call
# them and where row generation re-solves inside lp itself.
SITES = (
    ("experiments", "run_grid"),
    ("experiments", "_instance_metrics"),
    ("experiments", "generate_instance"),
    ("experiments", "midpoint_scenario"),
    ("experiments", "fixed_scenario_guarantee"),
    ("experiments", "construct_lp_scenario"),
    ("experiments", "nominal_solve"),
    ("experiments", "upper_bound"),
    ("experiments", "lower_bound"),
    ("experiments", "maxmin_certificate"),
    ("experiments", "exact_minmax"),
    ("scenarios", "solve_lp"),
    ("scenarios", "solve_lp_with_rows"),
    ("lp", "solve_lp"),
    ("bounds", "solve_lp"),
    ("bounds", "nominal_solve"),
    ("bounds", "upper_bound"),
)

INSTANCE = "experiments._instance_metrics"
GRID = "experiments.run_grid"
CONSTRUCT = "scenarios.construct_lp_scenario"
SOLVE = "lp.solve_lp"
MAXMIN = "bounds.maxmin_certificate"


def _solve_attrs(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": len(lp.constraints), "cols": int(lp.n_vars), "pivots": int(result.iterations)}


def _k_attrs(args, kwargs, result):
    return {"k": int(args[2] if len(args) > 2 else kwargs["k"])}


ATTRS = {
    SOLVE: _solve_attrs,
    CONSTRUCT: _k_attrs,
    "scenarios.fixed_scenario_guarantee": _k_attrs,
}


class Tracer:
    """Collects spans in memory; `outputs` keeps each instance's metric values."""

    def __init__(self):
        self.spans = []  # [name, start, end, cpu_start, cpu_end, parent, instance, attrs]
        self.outputs = []  # (instance seed, error or None, {metric key: value})
        self.missing = []  # call sites this robustkit version does not have
        self._stack = []
        self._instance = None

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._instance
            if name == INSTANCE:
                self._instance = args[0][5]  # the task tuple's instance seed
            rec = [name, time.perf_counter(), 0.0, time.process_time(), 0.0, stack[-1] if stack else -1, self._instance, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[4] = time.process_time()
                stack.pop()
                self._instance = outer
            if attrs is not None:
                rec[7] = attrs(args, kwargs, result)
            if name == INSTANCE:
                self.outputs.append((rec[6], result[2], result[3]))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for modname, attr in SITES:
                module = importlib.import_module(f"robustkit.{modname}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(module, attr, self._wrap(name, fn))
                patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def write(self, path, t0):
        """One JSON line per span, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, s, e, cs, ce, parent, inst, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": s - t0, "end": e - t0, "cpu": ce - cs, "parent": parent, "instance": inst}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, instances, cpu=False):
    """Per-instance layer figures from one traced pass.

    Timings are ms per instance (CPU ms with cpu=True); LP counters are
    per instance, except lp.rows.k* which is the mean row count of the last
    LP each construction solved. Also returns each layer's self time per
    instance and its share: self time over the time inside run_grid.
    """
    dur = [(r[4] - r[3]) if cpu else (r[2] - r[1]) for r in spans]
    child = [0.0] * len(spans)
    for i, r in enumerate(spans):
        if r[5] >= 0:
            child[r[5]] += dur[i]
    self_t = {layer: 0.0 for layer in LAYERS}
    stage = {}
    for i, r in enumerate(spans):
        name = r[0]
        self_t[name.split(".", 1)[0]] += dur[i] - child[i]
        stage[name] = stage.get(name, 0.0) + dur[i]
    total = stage.get(GRID, 0.0)

    construct = {k: 0.0 for k in KS}
    construct_self = 0.0
    certify = 0.0
    for i, r in enumerate(spans):
        if r[0] == CONSTRUCT:
            construct[r[7]["k"]] += dur[i]
            construct_self += dur[i] - child[i]
        elif r[0] in ("bounds.upper_bound", "bounds.lower_bound") and r[5] >= 0 and spans[r[5]][0] == INSTANCE:
            certify += dur[i]

    # LP counters, attributed to the construction (by k) or max-min LP above each solve
    solves = {k: 0 for k in KS}
    pivots = {k: 0 for k in KS}
    last_rows = {}  # construct span index -> rows of its last solve
    pivots_mm = 0
    cells = 0
    for r in spans:
        if r[0] != SOLVE or r[7] is None:
            continue
        a = r[7]
        cells += a["pivots"] * (a["rows"] + 1) * (a["cols"] + 1)
        p = r[5]
        while p >= 0 and spans[p][0] not in (CONSTRUCT, MAXMIN):
            p = spans[p][5]
        if p < 0:
            continue
        if spans[p][0] == MAXMIN:
            pivots_mm += a["pivots"]
        else:
            k = spans[p][7]["k"]
            solves[k] += 1
            pivots[k] += a["pivots"]
            last_rows[p] = a["rows"]
    rows = {k: [n for p, n in last_rows.items() if spans[p][7]["k"] == k] for k in KS}

    per = 1000.0 / instances
    m = {
        "experiments.self_ms": (self_t["experiments"] - stage.get("experiments.generate_instance", 0.0)) * per,
        "experiments.generate_ms": stage.get("experiments.generate_instance", 0.0) * per,
        "scenarios.guarantee_ms": stage.get("scenarios.fixed_scenario_guarantee", 0.0) * per,
        "scenarios.construct_self_ms": construct_self * per,
        "lp.solve_ms": stage.get(SOLVE, 0.0) * per,
        "bounds.exact_ms": stage.get("bounds.exact_minmax", 0.0) * per,
        "bounds.maxmin_ms": stage.get(MAXMIN, 0.0) * per,
        "bounds.certify_ms": certify * per,
        "problems.nominal_ms": stage.get("problems.nominal_solve", 0.0) * per,
    }
    for k in KS:
        m[f"scenarios.construct_ms.k{k}"] = construct[k] * per
    layers = {layer: {"self_ms": self_t[layer] * per, "share": self_t[layer] / total if total > 0 else 0.0} for layer in LAYERS}
    if cpu:
        return m, layers
    for k in KS:
        m[f"lp.solves.k{k}"] = solves[k] / instances
        m[f"lp.pivots.k{k}"] = pivots[k] / instances
        m[f"lp.rows.k{k}"] = sum(rows[k]) / len(rows[k]) if rows[k] else 0.0
    m["lp.pivots.mm"] = pivots_mm / instances
    m["lp.cells_pivoted"] = cells / instances
    m["trace.spans"] = len(spans) / instances
    return m, layers
