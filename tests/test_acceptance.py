"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The statistical criteria share one 1000-instance run of the
(n=10, p=3, N=10) cell; the determinism criterion repeats it with a
different worker count.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import robustkit as rk
from robustkit.experiments import derive_seed
from test_lp import brute_force_vertex_max, eager_t_star, random_bounded_lp

pytestmark = pytest.mark.acceptance

GRID_SEED = 1
GRID_CELL = (10, 3, 10)
GRID_INSTANCES = 1000


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="session")
def reference_grid_run():
    grid = rk.ExperimentGrid(cells=[GRID_CELL], instance_count=GRID_INSTANCES, master_seed=GRID_SEED)
    started = time.perf_counter()
    result = rk.run_grid(grid, workers=2)
    elapsed = time.perf_counter() - started
    assert not result.failures
    return result, rk.emit_csv(result), elapsed


def test_criterion_1_table1_worked_example(table1):
    with criterion("1 (worked example, exact)"):
        started = time.perf_counter()
        u, spec = table1

        mid = rk.midpoint_scenario(u)
        assert np.abs(mid.values - np.array([11 / 3, 5.0, 13 / 3, 16 / 3])).max() <= 1e-9

        lam_mid = rk.ConvexWeights.uniform(3)
        x_mid = rk.nominal_solve(spec, mid)
        lb_mid = rk.lower_bound(u, mid, lam_mid, x_mid)
        ub_mid = rk.upper_bound(u, x_mid)
        assert lb_mid == pytest.approx(8.0, abs=1e-6)
        assert ub_mid == pytest.approx(12.0, abs=1e-6)
        assert ub_mid / lb_mid == pytest.approx(1.50, abs=1e-6)

        t_star, scen_k1, _ = rk.construct_lp_scenario(u, spec, 1)
        assert 1.0 / t_star == pytest.approx(1.33, abs=0.01)

        # the rounded reference scenario stays feasible at the returned t*
        printed = np.array([3.75, 6.88, 6.75, 5.50])
        for i in range(u.n_scenarios):
            for j in range(u.n_items):
                assert t_star * u.costs[i, j] <= printed[j] + 0.01
        x_printed = rk.nominal_solve(spec, rk.Scenario(printed))
        lb_printed = x_printed.cost(printed)
        ub_printed = rk.upper_bound(u, x_printed)
        assert lb_printed == pytest.approx(9.25, abs=0.01)
        assert ub_printed == pytest.approx(10.0, abs=0.01)
        assert ub_printed / lb_printed == pytest.approx(1.08, abs=0.01)

        t2, scen_k2, _ = rk.construct_lp_scenario(u, spec, 2)
        assert t2 == pytest.approx(1.0, abs=1e-6)
        x_k2 = rk.nominal_solve(spec, scen_k2)
        assert rk.upper_bound(u, x_k2) == pytest.approx(10.0, abs=1e-6)

        opt, solution = rk.exact_minmax(u, spec)
        assert opt == pytest.approx(10.0, abs=1e-9)
        assert solution.selected == (0, 3)

        assert time.perf_counter() - started < 1.0


def test_criterion_2_apriori_reproduction(reference_grid_run):
    with criterion("2 (a-priori bounds, 1000 instances)"):
        result, _, elapsed = reference_grid_run
        n, p, N = GRID_CELL
        targets = [
            ("mid", 1, 2.45),
            ("mid", 2, 2.13),
            ("lp", 1, 1.79),
            ("lp", 3, 1.53),
        ]
        for method, k, target in targets:
            value = result.value(n, p, N, "apriori", method, k)
            print(f"  {method}-{k}-pre mean={value:.4f} target={target}±0.05")
            assert abs(value - target) <= 0.05
        assert elapsed < 300.0


def test_criterion_3_posterior_reproduction(reference_grid_run):
    with criterion("3 (a-posteriori bounds and bound levels)"):
        result, _, elapsed = reference_grid_run
        n, p, N = GRID_CELL
        targets = [
            ("aposteriori", "mid", None, 1.66, 0.05),
            ("aposteriori", "lp", 1, 1.39, 0.05),
            ("aposteriori", "mm", None, 1.34, 0.05),
            ("opt", "exact", None, 170.4, 3.0),
            ("ub", "mid", None, 199.3, 4.0),
            ("lb", "mid", None, 120.3, 3.0),
            ("lb", "mm", None, 151.2, 3.0),
        ]
        for metric, method, k, target, tol in targets:
            value = result.value(n, p, N, metric, method, k)
            print(f"  {metric}/{method}/{k} mean={value:.4f} target={target}±{tol}")
            assert abs(value - target) <= tol
        assert elapsed < 600.0


def test_criterion_4_guarantee_properties():
    with criterion("4 (guarantee property suite, 500 instances)"):
        rng = rk.SplitMix64(20240817)
        violations = 0
        for trial in range(500):
            n = 4 + rng.randint_upto(8)  # 4..12
            p = 1 + rng.randint_upto(min(5, n - 1))
            N = 1 + rng.randint_upto(7)
            seed = derive_seed(42, n, p, N, trial)
            u, spec = rk.generate_instance(n, p, N, seed)
            mid = rk.midpoint_scenario(u)
            lam_mid = rk.ConvexWeights.uniform(N)
            ks = [k for k in (1, 2, 3) if k <= p]

            opt, _ = rk.exact_minmax(u, spec)
            tol = rk.EPS_CMP * max(1.0, opt)

            # (a) guarantee validity for every scenario method
            x_mid = rk.nominal_solve(spec, mid)
            ub_mid = rk.upper_bound(u, x_mid)
            if not ub_mid <= N * opt + tol:
                violations += 1
            x_wc = rk.nominal_solve(spec, rk.worstcase_scenario(u))
            if not rk.upper_bound(u, x_wc) <= rk.worstcase_apriori_bound(u, spec) * opt + tol:
                violations += 1

            mm = rk.maxmin_certificate(u, spec)[0]
            lb_mid = rk.lower_bound(u, mid, lam_mid, x_mid)
            if not lb_mid <= mm + rk.EPS_CMP:
                violations += 1
            if not (mm <= opt + tol and opt <= ub_mid + tol):
                violations += 1

            previous = math.inf
            for k in ks:
                t_star, scen, lam = rk.construct_lp_scenario(u, spec, k)
                guarantee = 1.0 / t_star
                x_lp = rk.nominal_solve(spec, scen)
                ub_lp = rk.upper_bound(u, x_lp)
                lb_lp = rk.lower_bound(u, scen, lam, x_lp)
                # (a) continued
                if not ub_lp <= guarantee * opt + tol:
                    violations += 1
                # (b) sandwich against the fixed-midpoint guarantee
                mid_guarantee = rk.fixed_scenario_guarantee(u, mid, k)
                if not (guarantee <= mid_guarantee + rk.EPS_CMP and mid_guarantee <= N + rk.EPS_CMP):
                    violations += 1
                # (c) monotone in k
                if not guarantee <= previous + rk.EPS_CMP:
                    violations += 1
                previous = guarantee
                # (d) bound ordering
                if not (lb_lp <= mm + rk.EPS_CMP and opt <= ub_lp + tol):
                    violations += 1
        assert violations == 0


def test_criterion_5_lp_engine():
    with criterion("5 (LP engine correctness)"):
        rng = np.random.default_rng(515151)
        solved = 0
        for _ in range(200):
            lp, _ = random_bounded_lp(rng, max_vars=6, max_rows=8)
            sol = rk.solve_lp(lp)
            ref = brute_force_vertex_max(lp)
            if ref is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            assert abs(sol.objective - ref) <= 1e-7 * max(1.0, abs(ref))
            solved += 1
        assert solved >= 100

        # statuses on LPs that are infeasible or unbounded by construction
        for _ in range(20):
            n = int(rng.integers(1, 5))
            infeasible = rk.LinearProgram(objective=rng.uniform(-1, 1, n))
            coeffs = np.zeros(n)
            coeffs[0] = 1.0
            infeasible.add_constraint(coeffs, rk.LE, -1.0)  # x0 <= -1 with x0 >= 0
            assert rk.solve_lp(infeasible).status == "infeasible"

            unbounded = rk.LinearProgram(objective=np.abs(rng.uniform(0.1, 1, n)))
            assert rk.solve_lp(unbounded).status == "unbounded"

        # row generation vs one solve of the fully materialized program
        for trial in range(100):
            n = int(rng.integers(2, 11))
            N = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(2, n) + 1))
            u, spec = rk.generate_instance(n, max(k, n // 2), N, seed=derive_seed(99, n, k, N, trial))
            t_eager = eager_t_star(u, k)
            t_lazy, _, _ = rk.construct_lp_scenario(u, spec, k)
            assert abs(t_eager - t_lazy) <= 1e-7


# SHA-256 of the reference CSV lines whose values the LP and enumeration
# define uniquely: every apriori row, every */mid row, lb/mm and opt/exact.
# The LP scenario's ub/lb/aposteriori rows and ub/mm may move when a new
# pivoting rule lands an LP on an alternate optimal vertex.
UNIQUE_ROWS_SHA256 = "cf70e9adadbfa0c8e5637cd923756e2a9bc3c8a9a784169a6d39a3de3f22846a"


def test_uniquely_defined_rows_are_pinned(reference_grid_run):
    _, csv_text, _ = reference_grid_run
    unique = []
    for line in csv_text.splitlines()[1:]:
        metric, method = line.split(",")[3:5]
        if metric == "apriori" or method == "mid" or (metric, method) in {("lb", "mm"), ("opt", "exact")}:
            unique.append(line + "\n")
    assert len(unique) == 11
    assert hashlib.sha256("".join(unique).encode()).hexdigest() == UNIQUE_ROWS_SHA256


def test_criterion_6_worker_determinism(reference_grid_run):
    with criterion("6 (byte-identical CSV across worker counts)"):
        _, csv_two_workers, _ = reference_grid_run
        grid = rk.ExperimentGrid(cells=[GRID_CELL], instance_count=GRID_INSTANCES, master_seed=GRID_SEED)
        serial = rk.emit_csv(rk.run_grid(grid, workers=1))
        assert serial.encode() == csv_two_workers.encode()
