"""robustkit benchmark: certification latency and grid throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 it warms up, then sends
requests in a closed loop (one caller, next request after the previous
reply) for S seconds and reports the end-to-end metrics; set-up time is
the median of five fresh processes that import robustkit and certify one
warm-up instance. With --trace 1 it runs a fixed slice of the workload's
requests untraced, then again with a span around every layer call, and
reports per-layer metrics. Every result is checked (see workloads.py).
The last stdout line is the JSON result; details and spans go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibrate import REF_KERNEL_S, Calibrator
from workloads import HERE, ROOT, WARMUP_MASTER, WORKLOADS, instance_values, invariant_problems, load_reference, request_problems

OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5


class Run:
    """Requests sent, problems found and host-speed samples, for both modes."""

    def __init__(self, w, reference):
        self.w = w
        self.reference = reference
        self.cal = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def request(self, experiments, master, workers, instances=None):
        """One run_grid call; returns (start, end, CPU s incl. reaped children)."""
        self.cal.maybe_sample()
        count = self.w.instances if instances is None else instances
        grid = self.w.grid(master, count)
        self.attempted += count
        c0, k0 = _cpu(), self.cal.thread_cpu_s
        start = time.perf_counter()
        try:
            if workers > 1:
                with self.cal.sampling():
                    result = experiments.run_grid(grid, workers=workers)
            else:
                result = experiments.run_grid(grid, workers=workers)
        except Exception as exc:  # a broken request is a failure, not a crash
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        end = time.perf_counter()
        cpu = _cpu() - c0 - (self.cal.thread_cpu_s - k0)
        if result is not None:
            problems = request_problems(self.w, self.reference, master, result) if count == self.w.instances else []
        if problems:
            self.failed += count
            self.problems.append({"master": master, "problems": problems})
        return start, end, cpu

    def scaled(self, reqs):
        """Wall seconds of each request at the reference host speed."""
        return [(e - s) * self.cal.factor(s, e) for s, e, _ in reqs]


def _cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(w, experiments, run, order, seconds):
    """Closed loop over the pool in the seed's order, for `seconds` and at
    least one full pass.

    Each pool request's times are averaged first and the metrics taken over
    the pool, so a partial last pass does not change the instance mix.
    """
    reqs, masters = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(reqs) < len(order):
        masters.append(order[len(reqs) % len(order)])
        reqs.append(run.request(experiments, masters[-1], w.workers))
    run.cal.sample()
    scaled = _per_master(masters, run.scaled(reqs), w.instances)
    raw = _per_master(masters, [e - s for s, e, _ in reqs], w.instances)
    cpu = _per_master(masters, [c for _, _, c in reqs], w.instances)
    p90 = scaled[min(len(scaled) - 1, int(0.9 * len(scaled)))]
    above = sum(1 for x in scaled if x > p90)
    metrics = {
        "instances_per_s": 1.0 / statistics.fmean(scaled),
        "instance_ms_p50": 1000.0 * statistics.median(scaled),
    }
    detail = {
        "requests": len(reqs),
        "elapsed_s": time.perf_counter() - start,
        "raw_instances_per_s": 1.0 / statistics.fmean(raw),
        "raw_instance_ms_p50": 1000.0 * statistics.median(raw),
        "cpu_instances_per_s": 1.0 / statistics.fmean(cpu),
        "cpu_instance_ms_p50": 1000.0 * statistics.median(cpu),
        "host_speed": _speed(run.cal),
        "request_log": [[m, s - start, e - start, c] for m, (s, e, c) in zip(masters, reqs)],
        "kernel_log": [[t - start, k] for t, k in zip(run.cal.times, run.cal.kernel_s)],
        # a percentile is reported only with at least ten samples above it
        "instance_ms_p90": 1000.0 * p90 if above >= 10 else None,
        "samples_above_p90": above,
    }
    return metrics, detail


def _per_master(masters, values, instances):
    """Sorted seconds per instance of each pool request, averaged over its repeats."""
    by = {}
    for m, v in zip(masters, values):
        by.setdefault(m, []).append(v / instances)
    return sorted(statistics.fmean(v) for v in by.values())


def _speed(cal):
    """Reference kernel time over measured kernel time: 1.0 is the reference host."""
    speeds = sorted(REF_KERNEL_S / k for k in cal.kernel_s)
    return {"median": statistics.median(speeds), "min": speeds[0], "max": speeds[-1], "samples": len(speeds)}


def peak_rss_mb(w):
    """Own peak RSS, plus each pool worker's peak for pooled workloads.

    Read before any set-up probe runs, so the children are the pool's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if w.workers > 1 else 0
    return (own + w.workers * child) / 1024.0


def setup_samples(w, cal):
    """Fresh processes that import robustkit and certify one warm-up instance."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), w.name], env=env, capture_output=True, text=True, timeout=170, cwd=ROOT
        )
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample.update(start=start, end=end, raw_s=end - start)
        samples.append(sample)
    cal.sample()
    for sample in samples:
        sample["scaled_s"] = sample["raw_s"] * cal.factor(sample.pop("start"), sample.pop("end"))
    return samples


def traced(w, experiments, run, order, seed):
    """Fixed slice untraced, then traced; per-layer metrics from the spans."""
    from spans import Tracer, layer_metrics

    masters = order[: w.trace_requests]
    untraced = [run.request(experiments, m, 1) for m in masters]
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        traced_reqs = [run.request(experiments, m, 1) for m in masters]
    pool = [run.request(experiments, masters[0], w.workers)] if w.workers > 1 else []
    run.cal.sample()
    for inst, error, out in tracer.outputs:
        problems = ([error] if error else []) + invariant_problems(w, instance_values(out))
        if problems:
            run.problems.append({"instance_seed": inst, "problems": problems})
            run.failed += 1

    instances = len(masters) * w.instances
    factor = statistics.median(run.cal.factor(s, e) for s, e, _ in traced_reqs)
    raw_ms, layers = layer_metrics(tracer.spans, instances)
    cpu_ms, cpu_layers = layer_metrics(tracer.spans, instances, cpu=True)
    metrics = {k: v * factor if k.endswith("_ms") or "_ms." in k else v for k, v in raw_ms.items()}
    if pool:
        # CPU the call used over the worker time it had. Both come from the
        # same call, so host drift cancels; serial and pooled passes 15 s
        # apart did not (their ratio read 0.9-1.2).
        start, end, cpu = pool[0]
        metrics["experiments.pool_efficiency"] = cpu / (w.workers * (end - start))
    else:
        busy = sum(r[2] - r[1] for r in tracer.spans if r[0] == "experiments._instance_metrics")
        grid = sum(r[2] - r[1] for r in tracer.spans if r[0] == "experiments.run_grid")
        metrics["experiments.pool_efficiency"] = busy / grid
    metrics["trace.overhead_frac"] = sum(run.scaled(traced_reqs)) / sum(run.scaled(untraced)) - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_path, t0)
    detail = {
        "traced_instances": instances,
        "untraced_raw_s": sum(e - s for s, e, _ in untraced),
        "traced_raw_s": sum(e - s for s, e, _ in traced_reqs),
        "pool_raw_s": sum(e - s for s, e, _ in pool),
        "host_speed": _speed(run.cal),
        "layers": layers,
        "layers_cpu": cpu_layers,
        "raw_ms": {k: v for k, v in raw_ms.items() if k.endswith("_ms") or "_ms." in k},
        "cpu_ms": cpu_ms,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "unwrapped_sites": tracer.missing,
    }
    return metrics, detail


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "robustkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no robustkit source under {src}")
    sys.path.insert(0, str(src))
    import numpy
    from robustkit import experiments
    reference = load_reference()

    t0 = time.perf_counter()
    warm = experiments.run_grid(w.grid(WARMUP_MASTER, instances=1), workers=1)
    warmup_s = time.perf_counter() - t0
    if warm.failures:
        sys.exit(f"perfbench: warm-up instance failed: {warm.failures}")

    run = Run(w, reference)
    order = w.order(args.seed)
    if args.trace:
        metrics, detail = traced(w, experiments, run, order, args.seed)
    else:
        metrics, detail = measure(w, experiments, run, order, args.seconds)
        metrics["peak_rss_mb"] = peak_rss_mb(w)
        samples = setup_samples(w, run.cal)
        metrics["setup_s"] = statistics.median(s["scaled_s"] for s in samples)
        detail["setup_samples"] = samples

    failed = min(run.failed, run.attempted)  # a request and its instances may both be counted
    detail.update(
        workload=w.name,
        seed=args.seed,
        trace=args.trace,
        warmup_s=warmup_s,
        attempted=run.attempted,
        failed=failed,
        failed_frac=failed / run.attempted,
        problems=run.problems[:20],
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
    )
    units = declared_units(args.trace)
    if units.keys() != metrics.keys():
        sys.exit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=1)
    print("perfbench:", json.dumps({k: v for k, v in detail.items() if not k.endswith("_log")}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not run.problems,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
