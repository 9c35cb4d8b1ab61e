import csv
import io
import itertools
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustkit as rk
from robustkit import experiments as experiments_module
from robustkit.experiments import InvariantError, SplitMix64, _mix64, _spot_check, derive_seed


class TestSplitMix64:
    def test_canonical_stream(self):
        # reference test vector for the SplitMix64 algorithm
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_zero_first_output(self):
        assert SplitMix64(0).next_u64() == 16294208416658607535

    def test_rejection_sampling_range(self):
        rng = SplitMix64(99)
        draws = [rng.randint_upto(100) for _ in range(5000)]
        assert min(draws) >= 0 and max(draws) <= 100
        assert all(isinstance(d, int) for d in draws)

    def test_mean_of_uniform_draws(self):
        rng = SplitMix64(1)
        draws = [rng.randint_upto(100) for _ in range(10_000)]
        assert 48.0 <= sum(draws) / len(draws) <= 52.0

    def test_small_bound(self):
        rng = SplitMix64(5)
        assert {rng.randint_upto(1) for _ in range(100)} == {0, 1}
        assert all(rng.randint_upto(0) == 0 for _ in range(10))

    def test_mix64_is_pure(self):
        assert _mix64(42) == _mix64(42)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 10, 3, 10, 0) == derive_seed(7, 10, 3, 10, 0)

    def test_sensitive_to_every_field(self):
        base = derive_seed(7, 10, 3, 10, 0)
        assert derive_seed(8, 10, 3, 10, 0) != base
        assert derive_seed(7, 11, 3, 10, 0) != base
        assert derive_seed(7, 10, 4, 10, 0) != base
        assert derive_seed(7, 10, 3, 11, 0) != base
        assert derive_seed(7, 10, 3, 10, 1) != base


class TestGenerateInstance:
    def test_deterministic(self):
        a, _ = rk.generate_instance(4, 2, 3, seed=12)
        b, _ = rk.generate_instance(4, 2, 3, seed=12)
        assert np.array_equal(a.costs, b.costs)

    def test_range_and_integrality(self):
        u, spec = rk.generate_instance(10, 3, 5, seed=7)
        assert (spec.n, spec.p) == (10, 3)
        assert u.costs.shape == (5, 10)
        assert np.all(u.costs >= 0) and np.all(u.costs <= 100)
        assert np.array_equal(u.costs, np.round(u.costs))

    def test_different_seeds_differ(self):
        a, _ = rk.generate_instance(10, 3, 5, seed=1)
        b, _ = rk.generate_instance(10, 3, 5, seed=2)
        assert not np.array_equal(a.costs, b.costs)

    def test_sample_mean(self):
        total, count = 0.0, 0
        for instance_id in range(100):
            u, _ = rk.generate_instance(10, 3, 10, seed=derive_seed(1, 10, 3, 10, instance_id))
            total += u.costs.sum()
            count += u.costs.size
        assert 48.0 <= total / count <= 52.0

    @staticmethod
    def scalar_reference(n, N, seed):
        rng = SplitMix64(seed)
        costs = [[rng.randint_upto(experiments_module.COST_MAX) for _ in range(n)] for _ in range(N)]
        return np.array(costs, dtype=float)

    @pytest.mark.parametrize(
        "n, p, N, seed",
        [(1, 1, 1, 0), (4, 2, 3, 12), (10, 3, 10, 7), (20, 6, 50, 2**64 - 1), (30, 9, 100, 123456789)],
    )
    def test_batches_match_scalar_stream(self, n, p, N, seed):
        u, spec = rk.generate_instance(n, p, N, seed)
        assert (spec.n, spec.p) == (n, p)
        assert np.array_equal(u.costs, self.scalar_reference(n, N, seed))

    @pytest.mark.parametrize("cost_max", [0, 1, 64, 127])
    def test_every_mask_and_the_top_up(self, monkeypatch, cost_max):
        # one value per instance: at cost_max 64 about half the draws are
        # rejected, so a few seeds in a thousand need a second batch
        monkeypatch.setattr(experiments_module, "COST_MAX", cost_max)
        mixes = []
        real = experiments_module._mix64
        monkeypatch.setattr(experiments_module, "_mix64", lambda z: mixes.append(1) or real(z))
        topped_up = 0
        for seed in range(1000):
            mixes.clear()
            u, _ = rk.generate_instance(1, 1, 1, seed)
            topped_up += len(mixes) > 1
            assert np.array_equal(u.costs, self.scalar_reference(1, 1, seed))
        for seed in (5, 2**63):
            u, _ = rk.generate_instance(7, 3, 6, seed)
            assert np.array_equal(u.costs, self.scalar_reference(7, 6, seed))
        assert (topped_up > 0) == (cost_max == 64)


class TestRunGrid:
    def test_single_scenario_cell_ratios_are_one(self):
        grid = rk.ExperimentGrid(cells=[(4, 2, 1)], instance_count=5, master_seed=3)
        result = rk.run_grid(grid)
        for metric in ("aposteriori",):
            for method, k in (("mid", None), ("lp", 1), ("lp", 2), ("mm", None)):
                assert result.value(4, 2, 1, metric, method, k) == pytest.approx(1.0, abs=1e-9)
        for method, k in (("mid", 1), ("mid", 2), ("lp", 1), ("lp", 2)):
            assert result.value(4, 2, 1, "apriori", method, k) == pytest.approx(1.0, abs=1e-9)

    def test_aggregates_match_direct_computation(self):
        grid = rk.ExperimentGrid(cells=[(6, 3, 4)], instance_count=3, master_seed=17, ks=(1, 2))
        result = rk.run_grid(grid)
        mids, opts = [], []
        for instance_id in range(3):
            u, spec = rk.generate_instance(6, 3, 4, seed=derive_seed(17, 6, 3, 4, instance_id))
            mid = rk.midpoint_scenario(u)
            x = rk.nominal_solve(spec, mid)
            ub = rk.upper_bound(u, x)
            lb = rk.lower_bound(u, mid, rk.ConvexWeights.uniform(4), x)
            mids.append(ub / lb)
            opts.append(rk.exact_minmax(u, spec)[0])
        assert result.value(6, 3, 4, "aposteriori", "mid") == pytest.approx(float(np.mean(mids)), abs=1e-12)
        assert result.value(6, 3, 4, "opt", "exact") == pytest.approx(float(np.mean(opts)), abs=1e-12)
        row = next(r for r in result.rows if r.metric == "opt")
        assert row.instances == 3
        assert row.stderr == pytest.approx(float(np.std(opts, ddof=1) / math.sqrt(3)), abs=1e-12)

    def test_ks_trimmed_to_p(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=2, master_seed=5)
        result = rk.run_grid(grid)
        keys = {(r.metric, r.method, r.k) for r in result.rows}
        assert ("apriori", "lp", 3) not in keys
        assert ("apriori", "lp", 2) in keys

    def test_subset_size_above_three(self):
        grid = rk.ExperimentGrid(cells=[(10, 5, 10)], instance_count=3, master_seed=4, ks=(4,))
        result = rk.run_grid(grid)
        assert result.failures == {}
        assert result.rows and all(r.instances == 3 for r in result.rows)
        assert result.value(10, 5, 10, "apriori", "lp", 4) <= result.value(10, 5, 10, "apriori", "mid", 4)

    def test_runtime_is_mean_ms_per_instance_and_family(self, monkeypatch):
        # every family stage reads the clock twice, so each lasts exactly 1 s
        ticks = itertools.count(0.0)
        monkeypatch.setattr("robustkit.experiments.time.perf_counter", lambda: next(ticks))
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=3, master_seed=31)
        result = rk.run_grid(grid, workers=1)
        assert result.rows
        assert all(r.runtime_ms == 1000.0 for r in result.rows)

    def test_exact_budget_skips_opt(self):
        grid = rk.ExperimentGrid(cells=[(10, 3, 2)], instance_count=2, master_seed=5, exact_budget=10)
        result = rk.run_grid(grid)
        assert all(r.metric != "opt" for r in result.rows)

    def test_worker_counts_agree(self):
        grid = rk.ExperimentGrid(cells=[(6, 3, 3), (5, 2, 2)], instance_count=8, master_seed=23)
        serial = rk.emit_csv(rk.run_grid(grid, workers=1))
        parallel = rk.emit_csv(rk.run_grid(grid, workers=2))
        assert serial == parallel

    def test_cells_match_one_cell_grids(self):
        # a cell's rows depend on its own instances only, wherever it sits in the grid
        cells = [(5, 2, 3), (6, 3, 4), (4, 2, 2)]
        whole = rk.emit_csv(rk.run_grid(rk.ExperimentGrid(cells=cells, instance_count=4, master_seed=11)))
        parts = [rk.emit_csv(rk.run_grid(rk.ExperimentGrid(cells=[cell], instance_count=4, master_seed=11))) for cell in cells]
        assert whole == experiments_module.CSV_HEADER + "\n" + "".join(part.split("\n", 1)[1] for part in parts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_counted_and_excluded(self, monkeypatch, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they are forked")
        calls = {"count": 0}
        real = rk.scenarios.fixed_scenario_guarantee

        def flaky(u, c, k):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("synthetic failure")
            return real(u, c, k)

        monkeypatch.setattr("robustkit.experiments.fixed_scenario_guarantee", flaky)
        grid = rk.ExperimentGrid(cells=[(5, 2, 2)], instance_count=3, master_seed=2)
        result = rk.run_grid(grid, workers=workers)
        assert result.failures == {(5, 2, 2): 1}
        assert result.errors == [((5, 2, 2), 0, derive_seed(2, 5, 2, 2, 0), "RuntimeError: synthetic failure")]
        assert all(r.instances == 2 for r in result.rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invariant_error_fails_the_grid(self, monkeypatch, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they are forked")
        monkeypatch.setattr("robustkit.experiments.upper_bound", lambda u, x: 0.0)
        grid = rk.ExperimentGrid(cells=[(5, 2, 2)], instance_count=3, master_seed=2)
        seed = derive_seed(2, 5, 2, 2, 0)
        with pytest.raises(InvariantError, match=rf"cell \(5, 2, 2\) instance 0 seed {seed}: lb <= ub violated"):
            rk.run_grid(grid, workers=workers)


class TestEmitCsv:
    def test_empty_grid_gives_header_only(self):
        grid = rk.ExperimentGrid(cells=[], instance_count=1)
        text = rk.emit_csv(rk.run_grid(grid))
        assert text == "n,p,N,metric,method,k,value,stderr,instances,runtime_ms\n"

    def test_round_trip(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=4, master_seed=31)
        result = rk.run_grid(grid)
        text = rk.emit_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(result.rows)
        rebuilt = [rk.emit_csv(result).splitlines()[i + 1] for i in range(len(rows))]
        for parsed, line in zip(rows, rebuilt):
            joined = ",".join(
                [
                    parsed["n"],
                    parsed["p"],
                    parsed["N"],
                    parsed["metric"],
                    parsed["method"],
                    parsed["k"],
                    parsed["value"],
                    parsed["stderr"],
                    parsed["instances"],
                    parsed["runtime_ms"],
                ]
            )
            assert joined == line

    def test_six_significant_digits(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=2, master_seed=31)
        text = rk.emit_csv(rk.run_grid(grid))
        for line in text.splitlines()[1:]:
            value = line.split(",")[6]
            assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 7

    def test_runtime_column_opt_in(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=2, master_seed=31)
        result = rk.run_grid(grid)
        silent = rk.emit_csv(result)
        timed = rk.emit_csv(result, include_runtime=True)
        assert all(line.endswith(",") for line in silent.splitlines()[1:])
        assert any(not line.endswith(",") for line in timed.splitlines()[1:])


class TestGridValidation:
    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            rk.ExperimentGrid(cells=[(3, 4, 2)])
        with pytest.raises(ValueError, match="N must be"):
            rk.ExperimentGrid(cells=[(3, 2, 0)])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            rk.ExperimentGrid(cells=[(3, 2, 1)], instance_count=0)

    def test_rejects_descending_ks(self):
        # the spot check compares 1/t* across ascending k
        with pytest.raises(ValueError, match="strictly increasing"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], ks=(3, 1))

    def test_rejects_repeated_ks(self):
        # a repeated k would write each of its CSV rows twice
        with pytest.raises(ValueError, match="strictly increasing"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], ks=(1, 1))

    def test_rejects_empty_ks(self):
        # with no k the grid would write no lp rows at all
        with pytest.raises(ValueError, match="at least one subset size"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], ks=())

    def test_rejects_exact_budget_above_the_enumeration_cap(self):
        # C(30, 15) is under this budget but over the cap, so the exact
        # search would refuse every instance and drop all its other metrics
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            rk.ExperimentGrid(cells=[(30, 15, 2)], instance_count=1, exact_budget=10**9)
        grid = rk.ExperimentGrid(cells=[(4, 2, 2)], instance_count=1, exact_budget=rk.bounds.MAX_ENUMERATION)
        assert rk.run_grid(grid).failures == {}


# every metric of one instance at ks (1, 2) and N = 10, mutually consistent
CONSISTENT = {
    ("apriori", "mid", 1): 2.0,
    ("apriori", "mid", 2): 1.8,
    ("apriori", "lp", 1): 1.5,
    ("apriori", "lp", 2): 1.4,
    ("aposteriori", "mid", None): 2.2,
    ("aposteriori", "lp", 1): 2.0 / 1.2,
    ("aposteriori", "lp", 2): 2.1 / 1.3,
    ("aposteriori", "mm", None): 1.9 / 1.5,
    ("ub", "mid", None): 2.2,
    ("ub", "lp", 1): 2.0,
    ("ub", "lp", 2): 2.1,
    ("ub", "mm", None): 1.9,
    ("lb", "mid", None): 1.0,
    ("lb", "lp", 1): 1.2,
    ("lb", "lp", 2): 1.3,
    ("lb", "mm", None): 1.5,
    ("opt", "exact", None): 1.8,
}
WITHOUT_OPT = {key: v for key, v in CONSISTENT.items() if key[0] != "opt"}


class TestSpotCheck:
    @pytest.mark.parametrize(
        "key, value, invariant",
        [
            (("lb", "mid", None), 3.0, "lb <= ub"),
            (("lb", "mid", None), 1.6, "lb <= mm"),
            (("lb", "lp", 1), 1.6, "lb <= mm"),
            (("apriori", "lp", 1), 2.5, "1/t* <= min(midpoint guarantee, N)"),
            (("apriori", "lp", 2), 1.6, "1/t* non-increasing in k"),
            (("lb", "mm", None), 1.9, "lb <= opt"),  # mm <= opt
            (("ub", "lp", 2), 1.7, "opt <= ub"),
            (("opt", "exact", None), 0.9, "lb <= opt"),
            # each family is held to its own ub, and mm's ub to opt
            (("ub", "lp", 1), 1.1, "lb <= ub"),
            (("ub", "mm", None), 1.4, "lb <= ub"),
            (("ub", "mm", None), 1.7, "opt <= ub"),
        ],
    )
    def test_each_invariant_is_named(self, key, value, invariant):
        with pytest.raises(InvariantError, match="^" + re.escape(f"{invariant} violated")):
            _spot_check({**CONSISTENT, key: value}, (1, 2), 10)

    def test_lp_lb_above_its_ub_without_opt(self):
        # below mm and with no exact optimum, only lb <= ub itself catches it
        with pytest.raises(InvariantError, match=r"^lb <= ub violated: lp k=1"):
            _spot_check({**WITHOUT_OPT, ("ub", "lp", 1): 1.1}, (1, 2), 10)

    def test_consistent_values_pass(self):
        _spot_check(CONSISTENT, (1, 2), 10)
        _spot_check(WITHOUT_OPT, (1, 2), 10)

    @pytest.mark.parametrize("key", [key for key in CONSISTENT if key[0] in ("apriori", "ub", "lb")])
    def test_missing_metric_raises(self, key):
        with pytest.raises(KeyError):
            _spot_check({k: v for k, v in CONSISTENT.items() if k != key}, (1, 2), 10)

    def test_raises_under_python_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        bad = {**CONSISTENT, ("lb", "mid", None): 3.0}
        code = (
            "import sys\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "from robustkit.experiments import _spot_check\n"
            f"_spot_check({bad!r}, (1, 2), 10)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "InvariantError: lb <= ub violated" in proc.stderr
