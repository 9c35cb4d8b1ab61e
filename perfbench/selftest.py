"""Self-test: two traced runs of a short slice of each workload must agree.

    python3 perfbench/selftest.py

LP counters, per-instance values and grid aggregates have to be identical
between the two runs, pass the ordering invariants, and (for full
requests) match reference.json. Exits 1 on any difference.
"""

import sys

from spans import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, grid_values, instance_values, invariant_problems, load_reference, request_problems

SLICE = {"small-eager": (4, None), "large-lazy": (1, None), "mid-pool": (1, 4)}  # (requests, instances per request)
COUNTERS = ("lp.solves.", "lp.pivots.", "lp.rows.", "lp.cells_pivoted", "trace.spans")


def traced_slice(experiments, reference, w, requests, instances):
    tracer = Tracer()
    problems, aggregates = [], []
    with tracer.installed():
        for master in w.order(0)[:requests]:
            result = experiments.run_grid(w.grid(master, instances), workers=1)
            aggregates.append(grid_values(result)[0])
            if instances is None:
                problems += request_problems(w, reference, master, result)
            elif result.failures:
                problems.append(f"failed instances {result.failures}")
    values = []
    for inst, error, out in tracer.outputs:
        v = instance_values(out)
        problems += ([error] if error else []) + invariant_problems(w, v)
        values.append((inst, v))
    count = len(tracer.outputs)
    counters = {k: v for k, v in layer_metrics(tracer.spans, count)[0].items() if k.startswith(COUNTERS)}
    return counters, values, aggregates, problems


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from robustkit import experiments

    reference = load_reference()
    ok = True
    for name, (requests, instances) in SLICE.items():
        w = WORKLOADS[name]
        first = traced_slice(experiments, reference, w, requests, instances)
        second = traced_slice(experiments, reference, w, requests, instances)
        checks = {
            "LP counters identical": first[0] == second[0],
            "instance values identical": first[1] == second[1],
            "grid aggregates identical": first[2] == second[2],
            "outputs correct": not first[3] and not second[3],
            "LP counters nonzero": all(first[0][f"lp.pivots.k{k}"] > 0 for k in (1, 2, 3)),
        }
        for what, passed in checks.items():
            print(f"{name}: {what}: {'PASS' if passed else 'FAIL'}")
            ok &= passed
        if first[3] or second[3]:
            print(f"{name}: problems: {(first[3] + second[3])[:5]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
