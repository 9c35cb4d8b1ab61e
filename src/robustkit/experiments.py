"""Reproducible experiment harness: instance generation, grid runs, CSV.

Instances draw integer item costs uniformly i.i.d. from {0, ..., 100}.
The generator is SplitMix64, a named counter-based 64-bit generator whose
whole stream is pinned down by a handful of multiply-xor-shift constants,
so a reimplementation in any language can match it bit for bit. Integers
in range come from masked rejection sampling (never modulo): draw the low
bits of the next output and reject values above the range. Output k of
the stream is _mix64(seed + k * gamma), so generate_instance mixes whole
batches of counters as uint64 arrays and keeps the accepted draws in
order. _mix64 and this batched stream define the generator; the tests
hold a scalar SplitMix64, one draw at a time, as the reference the
batches must match.
Per-instance seeds are derived from (master_seed, n, p, N, instance_id),
which makes every instance independent of worker scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import EPS_CMP, ConvexWeights, InvariantError, UncertaintySet, _integer, cost_scale, ratio_or_inf
from .problems import Selection
from .scenarios import construct_lp_scenario, fixed_scenario_guarantee, midpoint_scenario
from .bounds import MAX_ENUMERATION, certify, exact_minmax, maxmin_certificate

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
COST_MAX = 100  # item costs are drawn from {0, ..., COST_MAX}


def _mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood's constants), on an int or a uint64 array."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *fields: int) -> int:
    """Stable 64-bit seed from a master seed and integer coordinates.

    seed = mix64(master), then for each field f in order:
    seed = mix64(seed XOR ((f + 1) * golden-gamma mod 2^64)).
    """
    seed = _mix64(master_seed)
    for f in fields:
        seed = _mix64(seed ^ (((int(f) + 1) * _GOLDEN) & _MASK64))
    return seed


def generate_instance(n: int, p: int, N: int, seed: int) -> Tuple[UncertaintySet, Selection]:
    """Seeded random selection instance: N scenarios of n costs in {0..100}.

    Costs are drawn row-major (scenario by scenario, item by item), so
    identical (parameters, seed) give the identical instance everywhere.
    """
    spec = Selection(n=n, p=p)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    needed = N * n
    mask = (1 << COST_MAX.bit_length()) - 1
    kept = np.empty(0, dtype=np.uint64)
    drawn = 0
    while len(kept) < needed:
        # expected draws for the missing values plus about three standard deviations
        missing = needed - len(kept)
        batch = missing * (mask + 1) // (COST_MAX + 1) + 4 * math.isqrt(missing) + 4
        counters = np.arange(drawn + 1, drawn + batch + 1, dtype=np.uint64)
        draws = _mix64((seed & _MASK64) + counters * _GOLDEN) & mask
        kept = np.concatenate((kept, draws[draws <= COST_MAX]))
        drawn += batch
    return UncertaintySet(kept[:needed].reshape(N, n).astype(float)), spec


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------

MetricKey = Tuple[str, str, Optional[int]]  # (metric, method, k)


@dataclass
class ExperimentGrid:
    """Which cells to run, how many instances per cell, and which k and exact optima to compute."""

    cells: List[Tuple[int, int, int]]  # (n, p, N)
    instance_count: int = 1000
    master_seed: int = 0
    ks: Tuple[int, ...] = (1, 2, 3)
    exact_budget: int = 2_000_000  # skip exact optima above this many subsets (at most MAX_ENUMERATION)

    def __post_init__(self):
        self.instance_count = _integer(self.instance_count, "instance_count")
        self.master_seed = _integer(self.master_seed, "master_seed")
        self.exact_budget = _integer(self.exact_budget, "exact_budget")
        self.ks = tuple(_integer(k, "subset size k") for k in self.ks or ())
        if self.instance_count < 1:
            raise ValueError("instance_count must be >= 1")
        self.cells = [tuple(cell) for cell in self.cells or ()]
        if not self.cells:
            raise ValueError("the grid declares no cells")
        if not self.ks:  # the LP family runs at each k, so no k would drop it
            raise ValueError("need at least one subset size k")
        if any(k < 1 for k in self.ks):
            raise ValueError("subset sizes must be >= 1")
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError(f"subset sizes must be strictly increasing, got {self.ks}")
        for i, cell in enumerate(self.cells):
            if len(cell) != 3:
                raise ValueError(f"cell {cell} is not an (n, p, N) triple")
            n, p, N = self.cells[i] = tuple(_integer(v, f"entry of cell {cell}") for v in cell)
            Selection(n=n, p=p)  # validates 1 <= p <= n
            if N < 1:
                raise ValueError(f"cell ({n},{p},{N}): N must be >= 1")
            if p < self.ks[0]:  # the LP family runs only at k <= p
                raise ValueError(f"cell ({n},{p},{N}): p={p} is below every subset size in ks {self.ks}")
            if (n, p, N) in self.cells[:i]:  # it would write each of its CSV rows twice
                raise ValueError(f"cell ({n},{p},{N}) is repeated")
        if self.exact_budget < 0:
            raise ValueError(f"exact_budget must be >= 0, got {self.exact_budget}")
        if self.exact_budget > MAX_ENUMERATION:
            raise ValueError(f"exact_budget {self.exact_budget} exceeds the enumeration cap {MAX_ENUMERATION}")


@dataclass
class AggregateRow:
    n: int
    p: int
    N: int
    metric: str
    method: str
    k: Optional[int]
    value: float
    stderr: float
    instances: int
    runtime_ms: float


@dataclass
class GridResult:
    rows: List[AggregateRow] = field(default_factory=list)
    failures: Dict[Tuple[int, int, int], int] = field(default_factory=dict)  # per-cell counts
    errors: List[Tuple[Tuple[int, int, int], int, int, str]] = field(default_factory=list)  # (cell, id, seed, message)

    def value(self, n, p, N, metric, method, k=None) -> float:
        for row in self.rows:
            if (row.n, row.p, row.N, row.metric, row.method, row.k) == (n, p, N, metric, method, k):
                return row.value
        raise KeyError(f"no aggregate for {(n, p, N, metric, method, k)}")


METRICS = ("apriori", "aposteriori", "ub", "lb", "opt")
METHODS = ("mid", "lp", "mm", "exact")  # the method families, each timed as one stage


def _row_rank(key: MetricKey) -> Tuple[int, int, int]:
    """A cell's CSV rows run by metric, then method, then k (None when a family has one row)."""
    metric, method, k = key
    return METRICS.index(metric), METHODS.index(method), k or 0


def _record(out, method, k, ub, lb) -> None:
    out[("ub", method, k)] = ub
    out[("lb", method, k)] = lb
    out[("aposteriori", method, k)] = ratio_or_inf(ub, lb)


def _instance_metrics(task) -> Tuple[int, int, Optional[str], Dict[MetricKey, float], Dict[str, float]]:
    """Compute every metric of one instance.

    Runs the midpoint, the LP scenario at each valid k and the max-min
    hull scenario, each certified by bounds.certify, then the exact optimum
    when with_opt is set, and checks the results against _spot_check.
    Returns (cell_index, instance_id, error, values, timings), timings in
    seconds per method family (mid, lp, mm and exact); on a domain error
    the message is set and the value dict is empty. The message starts
    with the stage that raised it: generate, mid, lp k=K, mm or exact. A
    broken invariant is not a domain error: InvariantError, from certify
    or _spot_check, propagates, naming the cell, instance id and seed.
    """
    cell_index, instance_id, n, p, N, seed, ks_valid, with_opt = task
    timings: Dict[str, float] = {}
    stage = "generate"
    try:
        u, spec = generate_instance(n, p, N, seed)
        out: Dict[MetricKey, float] = {}

        stage = "mid"
        start = time.perf_counter()
        mid = midpoint_scenario(u)
        for k in ks_valid:
            out[("apriori", "mid", k)] = fixed_scenario_guarantee(u, spec, k, mid)
        _record(out, "mid", None, *certify(u, spec, mid, ConvexWeights.uniform(N)))
        timings["mid"] = time.perf_counter() - start

        start = time.perf_counter()
        prev = None  # each k's LP starts from the rows binding at the previous k's optimum
        for k in ks_valid:
            stage = f"lp k={k}"
            t_star, scen, lam = construct_lp_scenario(u, spec, k, start=prev)
            prev = k, t_star, scen
            out[("apriori", "lp", k)] = 1.0 / t_star
            _record(out, "lp", k, *certify(u, spec, scen, lam))
        timings["lp"] = time.perf_counter() - start

        stage = "mm"
        start = time.perf_counter()
        lam_mm = maxmin_certificate(u, spec)[1]
        _record(out, "mm", None, *certify(u, spec, lam_mm.combine(u), lam_mm))
        timings["mm"] = time.perf_counter() - start

        if with_opt:
            stage = "exact"
            start = time.perf_counter()
            out[("opt", "exact", None)] = exact_minmax(u, spec)[0]
            timings["exact"] = time.perf_counter() - start

        _spot_check(out, ks_valid, EPS_CMP * cost_scale(u))
        return cell_index, instance_id, None, out, timings
    except InvariantError as exc:
        raise InvariantError(f"cell {(n, p, N)} instance {instance_id} seed {seed}: {exc}") from exc
    except Exception as exc:  # recorded and excluded, never aborts the grid
        return cell_index, instance_id, f"{stage}: {type(exc).__name__}: {exc}", {}, timings


def _require(holds: bool, invariant: str, detail: str) -> None:
    if not holds:
        raise InvariantError(f"{invariant} violated: {detail}")


def _spot_check(out, ks_valid, cost_tol):
    """Invariants across families and k; cheap enough to run on every instance.

    For the midpoint, the LP scenario at each k and the max-min scenario:
    lb <= mm, and lb <= opt <= ub when the exact optimum was computed
    (certify has already raised on lb > ub within each family), each
    within cost_tol, the tolerance certify uses: EPS_CMP * cost_scale(u).
    The a-priori guarantee 1/t* is at most the midpoint's and
    non-increasing in k, within EPS_CMP, as the ratio has no unit;
    construct_lp_scenario has already raised on 1/t* > N. out must hold
    every metric of the instance; a missing one raises KeyError rather
    than skip its checks. Raises InvariantError naming the broken
    invariant; plain raises, so the checks also run under python -O.
    """
    mm = out[("lb", "mm", None)]
    opt = out.get(("opt", "exact", None))
    for method, k in [("mid", None)] + [("lp", k) for k in ks_valid] + [("mm", None)]:
        lb, ub = out[("lb", method, k)], out[("ub", method, k)]
        _require(lb <= mm + cost_tol, "lb <= mm", f"{method} k={k} lb={lb} mm={mm}")
        if opt is not None:
            _require(lb <= opt + cost_tol, "lb <= opt", f"{method} k={k} lb={lb} opt={opt}")
            _require(ub >= opt - cost_tol, "opt <= ub", f"{method} k={k} ub={ub} opt={opt}")
    prev = None
    for k in ks_valid:
        pre_lp, pre_mid = out[("apriori", "lp", k)], out[("apriori", "mid", k)]
        _require(pre_lp <= pre_mid + EPS_CMP, "1/t* <= midpoint guarantee", f"k={k} 1/t*={pre_lp} midpoint={pre_mid}")
        if prev is not None:
            _require(pre_lp <= prev + EPS_CMP, "1/t* non-increasing in k", f"k={k} 1/t*={pre_lp} > {prev}")
        prev = pre_lp


def _outcomes(tasks, workers: int):
    """_instance_metrics of each task in task order; only a pool imports multiprocessing."""
    if workers == 1:
        yield from map(_instance_metrics, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_instance_metrics, tasks, chunksize=16)


def run_grid(
    grid: ExperimentGrid,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> GridResult:
    """Run every cell of the grid and aggregate per-metric means.

    Instances are independent tasks, run in process or on a pool of
    workers; results come back in task order and are aggregated in id
    order, so the output is identical for any worker count. Instances
    with a domain error are excluded, counted per cell and listed in
    errors; an InvariantError aborts the grid.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")

    tasks = []
    for cell_index, (n, p, N) in enumerate(grid.cells):
        # the valid k and whether opt runs are decided once per cell
        ks_valid = tuple(k for k in grid.ks if k <= p)
        with_opt = math.comb(n, p) <= grid.exact_budget
        for instance_id in range(grid.instance_count):
            seed = derive_seed(grid.master_seed, n, p, N, instance_id)
            tasks.append((cell_index, instance_id, n, p, N, seed, ks_valid, with_opt))

    outcomes = []
    for outcome in _outcomes(tasks, workers):
        outcomes.append(outcome)
        if progress and len(outcomes) % 100 == 0:
            progress(f"{len(outcomes)}/{len(tasks)} instances")

    # both maps yield in task order, and the tasks run cell by cell in
    # ascending id, so each cell's outcomes are one slice in id order
    result = GridResult()
    for cell_index, (n, p, N) in enumerate(grid.cells):
        cell = slice(cell_index * grid.instance_count, (cell_index + 1) * grid.instance_count)
        errors = [((n, p, N), o[1], task[5], o[2]) for task, o in zip(tasks[cell], outcomes[cell]) if o[2] is not None]
        if errors:
            result.failures[(n, p, N)] = len(errors)
            result.errors += errors
        good = [o for o in outcomes[cell] if o[2] is None]
        if not good:
            continue
        family_time: Dict[str, float] = {}
        for o in good:
            for fam, secs in o[4].items():
                family_time[fam] = family_time.get(fam, 0.0) + secs
        # every good instance records the same keys: _spot_check raises on a
        # missing one. One (keys x instances) matrix is reduced row by row; a
        # C-contiguous row sums pairwise as the 1-D array would, to the bit
        keys = sorted(good[0][3], key=_row_rank)
        values = np.array([[o[3][key] for o in good] for key in keys])
        means = values.mean(axis=1)
        stderrs = values.std(axis=1, ddof=1) / math.sqrt(len(good)) if len(good) > 1 else np.zeros(len(keys))
        for (metric, method, k), mean, stderr in zip(keys, means.tolist(), stderrs.tolist()):
            runtime_ms = 1000.0 * family_time[method] / len(good)
            result.rows.append(
                AggregateRow(n=n, p=p, N=N, metric=metric, method=method, k=k, value=mean, stderr=stderr, instances=len(good), runtime_ms=runtime_ms)
            )
    return result


CSV_HEADER = "n,p,N,metric,method,k,value,stderr,instances,runtime_ms"


def _fmt6(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(v, ".6g")


def emit_csv(result: GridResult, include_runtime: bool = False) -> str:
    """Render aggregates as CSV, one row per (cell, metric, method, k).

    Rows follow grid order, then metric, method and k (_row_rank). Values
    carry 6 significant digits. runtime_ms is the mean wall-clock milliseconds
    per non-excluded instance of the cell spent in the row's method family
    (mid, lp, mm or exact, the whole family's stage, all k included), so
    every row of a family in a cell reads the same. Runtimes are not
    reproducible run to run; the column is left empty unless explicitly
    requested, keeping default output byte-identical for a fixed grid and
    seed regardless of worker count.
    """
    lines = [CSV_HEADER]
    for row in result.rows:
        runtime = format(row.runtime_ms, ".3f") if include_runtime else ""
        lines.append(
            ",".join(
                [
                    str(row.n),
                    str(row.p),
                    str(row.N),
                    row.metric,
                    row.method,
                    "" if row.k is None else str(row.k),
                    _fmt6(row.value),
                    _fmt6(row.stderr),
                    str(row.instances),
                    runtime,
                ]
            )
        )
    return "\n".join(lines) + "\n"
