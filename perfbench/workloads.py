"""Workload definitions and the output checks shared by the benchmark scripts.

Each workload draws its requests from a fixed pool of grid master seeds
whose outputs are recorded in reference.json (see record_reference.py);
the run's --seed only fixes the order in which the pool is visited. A
request is one `run_grid` call on a one-cell grid.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# robustkit.core.EPS_CMP when the reference was recorded; kept here so the
# check does not loosen if the program's constant changes.
EPS_CMP = 1e-6
KS = (1, 2, 3)
WARMUP_MASTER = 0  # outside every pool


@dataclass(frozen=True)
class Workload:
    name: str
    cell: tuple  # (n, p, N)
    instances: int  # instances per request (run_grid call)
    workers: int
    pool: int  # master seeds 1..pool
    trace_requests: int  # requests in the fixed traced slice

    def grid(self, master, instances=None):
        from robustkit import experiments

        count = self.instances if instances is None else instances
        return experiments.ExperimentGrid(cells=[self.cell], instance_count=count, master_seed=master, ks=KS)

    def order(self, seed):
        """The seed's visiting order over the pool; a run cycles through it."""
        return random.Random(seed).sample(range(1, self.pool + 1), self.pool)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-eager", (10, 3, 10), instances=1, workers=1, pool=256, trace_requests=128),
        Workload("large-lazy", (30, 9, 100), instances=1, workers=1, pool=8, trace_requests=6),
        Workload("mid-pool", (20, 6, 50), instances=32, workers=2, pool=2, trace_requests=1),
    )
}


def key(metric, method, k):
    return f"{metric}/{method}/{'' if k is None else k}"


# Values the LP and enumeration define uniquely; ub/lb of the LP scenario are
# left out because an alternate optimal vertex may move them. opt exists only
# where the grid's exact budget allows enumeration; the reference records which.
UNIQUE_KEYS = [key(m, fam, k) for m, fam in (("apriori", "mid"), ("apriori", "lp")) for k in KS] + [key("lb", "mm", None), key("opt", "exact", None)]
CERTIFIED_KEYS = {key(m, fam, k) for fam, ks in (("mid", (None,)), ("lp", KS), ("mm", (None,))) for m in ("ub", "lb", "aposteriori") for k in ks}


def _close(a, b):
    return abs(a - b) <= EPS_CMP * max(1.0, abs(b))


def invariant_problems(w, v):
    """Ordering invariants on one instance's values (or on a grid's means)."""
    out = []

    def le(a, b, what):
        x, y = v.get(a), v.get(b) if isinstance(b, str) else b
        if x is None or y is None:
            return
        tol = EPS_CMP * max(1.0, abs(y)) if math.isfinite(y) else 0.0
        if not x <= y + tol:
            out.append(f"{what}: {a}={x} > {y}")

    mm = key("lb", "mm", None)
    for fam, ks in (("mid", (None,)), ("lp", KS), ("mm", (None,))):
        for k in ks:
            le(key("lb", fam, k), key("ub", fam, k), "lb <= ub")
            le(key("lb", fam, k), mm, "lb <= mm")
    n_scen = w.cell[2]
    for k in KS:
        lp = key("apriori", "lp", k)
        le(lp, key("apriori", "mid", k), "1/t* <= midpoint guarantee")
        le(lp, float(n_scen), "1/t* <= N")
        if k > 1:
            le(lp, key("apriori", "lp", k - 1), "1/t* non-increasing in k")
    opt = key("opt", "exact", None)
    if opt in v:
        le(mm, opt, "mm <= opt")
        for fam, ks in (("mid", (None,)), ("lp", KS), ("mm", (None,))):
            for k in ks:
                le(opt, key("ub", fam, k), "opt <= ub")
    return out


def instance_values(out):
    """An `_instance_metrics` value dict, keyed like the reference."""
    return {key(*mk): float(val) for mk, val in out.items()}


def grid_values(result):
    return {key(r.metric, r.method, r.k): float(r.value) for r in result.rows}, {key(r.metric, r.method, r.k): r.instances for r in result.rows}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def request_problems(w, reference, master, result):
    """Everything wrong with one run_grid result; empty when it is correct."""
    out = [f"{cell}: {count} failed instances" for cell, count in result.failures.items()]
    values, counts = grid_values(result)
    ref = reference["workloads"][w.name]["values"][str(master)]
    missing = (CERTIFIED_KEYS | ref.keys()) - values.keys()
    if missing:
        out.append(f"missing aggregates {sorted(missing)}")
    short = sorted(k for k, c in counts.items() if c != w.instances)
    if short:
        out.append(f"aggregates over fewer than {w.instances} instances: {short}")
    out += invariant_problems(w, values)
    for k in ref:
        if k in values and not _close(values[k], ref[k]):
            out.append(f"{k}={values[k]!r} differs from reference {ref[k]!r}")
    return out
