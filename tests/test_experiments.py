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
from robustkit.experiments import AggregateRow, InvariantError, _mix64, _spot_check, derive_seed
from splitmix64 import SplitMix64


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

    def test_rejects_no_scenarios(self):
        with pytest.raises(ValueError, match="N must be >= 1, got 0"):
            rk.generate_instance(10, 3, 0, seed=1)

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


def _weakest_vertex(u, spec):
    """(value, weights) of the scenario with the smallest nominal minimum, for selection."""
    nominal = np.sort(u.costs, axis=1)[:, : spec.p].sum(axis=1)
    i = int(np.argmin(nominal))
    return float(nominal[i]), rk.ConvexWeights(np.eye(len(nominal))[i])


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
            lb = rk.certify(u, spec, mid, rk.ConvexWeights.uniform(4))[1]
            mids.append(ub / lb)
            opts.append(rk.exact_minmax(u, spec)[0])
        assert result.value(6, 3, 4, "aposteriori", "mid") == pytest.approx(float(np.mean(mids)), abs=1e-12)
        assert result.value(6, 3, 4, "opt", "exact") == pytest.approx(float(np.mean(opts)), abs=1e-12)
        with pytest.raises(KeyError, match=r"no aggregate for \(6, 3, 4, 'lp', 'exact', None\)"):
            result.value(6, 3, 4, "lp", "exact")
        row = next(r for r in result.rows if r.metric == "opt")
        assert row.instances == 3
        assert row.stderr == pytest.approx(float(np.std(opts, ddof=1) / math.sqrt(3)), abs=1e-12)

    def test_maxmin_bounds_are_certified(self):
        # the max-min LP's value V and the exact nominal minimum of its hull
        # scenario differ in the last bits here; the grid records certify's
        u, spec = rk.generate_instance(20, 6, 50, derive_seed(1, 20, 6, 50, 0))
        value, lam = rk.maxmin_certificate(u, spec)
        ub, lb = rk.certify(u, spec, lam.combine(u), lam)
        assert lb != value
        result = rk.run_grid(rk.ExperimentGrid(cells=[(20, 6, 50)], instance_count=1, master_seed=1))
        assert (result.value(20, 6, 50, "ub", "mm"), result.value(20, 6, 50, "lb", "mm")) == (ub, lb)

    def test_ks_trimmed_to_p(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=2, master_seed=5)
        result = rk.run_grid(grid)
        keys = {(r.metric, r.method, r.k) for r in result.rows}
        assert ("apriori", "lp", 3) not in keys
        assert ("apriori", "lp", 2) in keys

    def test_row_sequence_is_pinned(self):
        # metric, then method (mid, lp, mm, exact), then k: the CSV's row order
        with_opt = rk.run_grid(rk.ExperimentGrid(cells=[(6, 3, 3)], instance_count=2, master_seed=7))
        assert [(r.metric, r.method, r.k) for r in with_opt.rows] == [
            ("apriori", "mid", 1), ("apriori", "mid", 2), ("apriori", "mid", 3),
            ("apriori", "lp", 1), ("apriori", "lp", 2), ("apriori", "lp", 3),
            ("aposteriori", "mid", None),
            ("aposteriori", "lp", 1), ("aposteriori", "lp", 2), ("aposteriori", "lp", 3),
            ("aposteriori", "mm", None),
            ("ub", "mid", None), ("ub", "lp", 1), ("ub", "lp", 2), ("ub", "lp", 3), ("ub", "mm", None),
            ("lb", "mid", None), ("lb", "lp", 1), ("lb", "lp", 2), ("lb", "lp", 3), ("lb", "mm", None),
            ("opt", "exact", None),
        ]
        grid = rk.ExperimentGrid(cells=[(10, 3, 4)], instance_count=2, master_seed=7, ks=(1, 3), exact_budget=100)
        assert math.comb(10, 3) > grid.exact_budget
        without_opt = rk.run_grid(grid)
        assert [(r.metric, r.method, r.k) for r in without_opt.rows] == [
            ("apriori", "mid", 1), ("apriori", "mid", 3), ("apriori", "lp", 1), ("apriori", "lp", 3),
            ("aposteriori", "mid", None), ("aposteriori", "lp", 1), ("aposteriori", "lp", 3), ("aposteriori", "mm", None),
            ("ub", "mid", None), ("ub", "lp", 1), ("ub", "lp", 3), ("ub", "mm", None),
            ("lb", "mid", None), ("lb", "lp", 1), ("lb", "lp", 3), ("lb", "mm", None),
        ]

    def test_each_k_starts_from_the_previous_k_with_unseeded_t_star(self, monkeypatch):
        calls = []
        real = rk.scenarios.construct_lp_scenario

        def recording(u, spec, k, start=None):
            calls.append((k, None if start is None else start[0]))
            return real(u, spec, k, start=start)

        monkeypatch.setattr("robustkit.experiments.construct_lp_scenario", recording)
        grid = rk.ExperimentGrid(cells=[(12, 4, 8)], instance_count=4, master_seed=9, ks=(1, 3, 4))
        result = rk.run_grid(grid)
        assert calls == [(1, None), (3, 1), (4, 3)] * 4
        for k in grid.ks:
            unseeded = [1.0 / real(*rk.generate_instance(12, 4, 8, derive_seed(9, 12, 4, 8, i)), k)[0] for i in range(4)]
            assert result.value(12, 4, 8, "apriori", "lp", k) == pytest.approx(float(np.mean(unseeded)), rel=1e-9, abs=0)

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
        with pytest.raises(ValueError, match="workers must be >= 1"):
            rk.run_grid(grid, workers=0)

    def test_serial_run_never_loads_the_process_pool(self):
        # in a fresh interpreter: the test session itself has loaded multiprocessing
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys\n"
            "import robustkit, robustkit.cli\n"
            "result = robustkit.run_grid(robustkit.ExperimentGrid(cells=[(10, 3, 10)], instance_count=1, master_seed=1))\n"
            "assert result.rows and not result.errors, result.errors\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

        def flaky(u, spec, k, c):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("synthetic failure")
            return real(u, spec, k, c)

        monkeypatch.setattr("robustkit.experiments.fixed_scenario_guarantee", flaky)
        grid = rk.ExperimentGrid(cells=[(5, 2, 2)], instance_count=3, master_seed=2)
        result = rk.run_grid(grid, workers=workers)
        assert result.failures == {(5, 2, 2): 1}
        assert result.errors == [((5, 2, 2), 0, derive_seed(2, 5, 2, 2, 0), "mid: RuntimeError: synthetic failure")]
        assert all(r.instances == 2 for r in result.rows)

    def test_failure_names_its_stage(self, monkeypatch):
        # the first LP to pass the cap is the k = 1 scenario LP's first solve
        monkeypatch.setattr("robustkit.lp._pivot_cap", lambda T: 1)
        result = rk.run_grid(rk.ExperimentGrid(cells=[(10, 3, 10)], instance_count=1, master_seed=1))
        seed = derive_seed(1, 10, 3, 10, 0)
        assert result.errors == [((10, 3, 10), 0, seed, "lp k=1: LpError: dual simplex exceeded 1 pivots")]
        assert result.failures == {(10, 3, 10): 1} and not result.rows

    @pytest.mark.parametrize(
        "workers, patched, caught",
        [
            (1, "mm", "lb <= mm violated: mid"),
            (2, "mm", "lb <= mm violated: mid"),
            (1, "ub", "lb <= ub violated: lb="),
            (2, "ub", "lb <= ub violated: lb="),
        ],
        ids=["1", "2", "1-certify", "2-certify"],
    )
    def test_invariant_error_fails_the_grid(self, monkeypatch, workers, patched, caught):
        # a max-min certificate on the weakest single scenario passes certify
        # but sits below the midpoint's lb, which _spot_check catches; a zero
        # bounds.upper_bound reaches every family through certify, which
        # raises at the first, the midpoint
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they are forked")
        if patched == "mm":
            monkeypatch.setattr("robustkit.experiments.maxmin_certificate", _weakest_vertex)
        else:
            monkeypatch.setattr("robustkit.bounds.upper_bound", lambda u, x: 0.0)
        grid = rk.ExperimentGrid(cells=[(5, 2, 2)], instance_count=3, master_seed=2)
        seed = derive_seed(2, 5, 2, 2, 0)
        with pytest.raises(InvariantError, match=rf"cell \(5, 2, 2\) instance 0 seed {seed}: {caught}"):
            rk.run_grid(grid, workers=workers)


class TestEmitCsv:
    def test_empty_grid_gives_header_only(self):
        text = rk.emit_csv(rk.GridResult())
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
        # an a-posteriori ratio over a lower bound of 0 is inf
        row = AggregateRow(5, 2, 3, "aposteriori", "mid", None, math.inf, math.inf, 2, 0.0)
        assert rk.emit_csv(rk.GridResult(rows=[row])).splitlines()[1] == "5,2,3,aposteriori,mid,,inf,inf,2,"

    def test_runtime_column_opt_in(self):
        grid = rk.ExperimentGrid(cells=[(5, 2, 3)], instance_count=2, master_seed=31)
        result = rk.run_grid(grid)
        silent = rk.emit_csv(result)
        timed = rk.emit_csv(result, include_runtime=True)
        assert all(line.endswith(",") for line in silent.splitlines()[1:])
        assert any(not line.endswith(",") for line in timed.splitlines()[1:])


class TestGridValidation:
    def test_rejects_no_cells(self):
        # a grid without cells would run nothing and write a bare CSV header
        for cells in ([], None):
            with pytest.raises(ValueError, match="no cells"):
                rk.ExperimentGrid(cells=cells)

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

    def test_rejects_repeated_cell(self):
        # a repeated cell would write each of its CSV rows twice, and its failure count once
        with pytest.raises(ValueError, match=r"cell \(6,2,3\) is repeated"):
            rk.ExperimentGrid(cells=[(6, 2, 3), (10, 3, 10), (6, 2, 3)])

    def test_rejects_empty_ks(self):
        # with no k the grid would write no lp rows at all
        with pytest.raises(ValueError, match="at least one subset size"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], ks=())

    def test_rejects_ks_below_one(self):
        # require_k refuses k = 0, so every instance of the grid would fail
        with pytest.raises(ValueError, match="subset sizes must be >= 1"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], ks=(0, 1))

    def test_rejects_cell_with_p_below_every_k(self):
        # that cell's grid would write no lp and no apriori rows at all
        with pytest.raises(ValueError, match=r"cell \(10,3,10\): p=3 is below every subset size"):
            rk.ExperimentGrid(cells=[(20, 6, 50), (10, 3, 10)], ks=(4, 5))
        assert rk.ExperimentGrid(cells=[(10, 3, 10)], ks=(3, 4)).ks == (3, 4)

    def test_rejects_negative_exact_budget(self):
        # no subset count is below it, so every opt row would be dropped
        with pytest.raises(ValueError, match="exact_budget must be >= 0, got -1"):
            rk.ExperimentGrid(cells=[(10, 3, 10)], exact_budget=-1)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"cells": [(10.0, 3, 10)]}, r"entry of cell \(10\.0, 3, 10\) must be an integer"),
            ({"cells": [(10, 3, 10.0)]}, r"entry of cell \(10, 3, 10\.0\) must be an integer"),
            ({"cells": [(10, 3, 10)], "ks": (1.5, 2)}, "subset size k must be an integer, got 1.5"),
            ({"cells": [(10, 3, 10)], "instance_count": 2.5}, "instance_count must be an integer, got 2.5"),
            ({"cells": [(4, 2, 2)], "instance_count": 1, "master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
            ({"cells": [(10, 3)]}, r"cell \(10, 3\) is not an \(n, p, N\) triple"),
        ],
    )
    def test_rejects_values_that_are_not_integers(self, fields, match):
        # each once ran: math.comb raised, or every instance was excluded with a TypeError
        with pytest.raises(ValueError, match=match):
            rk.ExperimentGrid(**fields)

    def test_integer_types_become_python_ints(self):
        grid = rk.ExperimentGrid(
            cells=[np.array([10, 3, 10])], ks=[np.int64(1), 2], exact_budget=np.int32(100), master_seed=np.int64(7)
        )
        assert grid.cells == [(10, 3, 10)] and grid.ks == (1, 2) and grid.exact_budget == 100 and grid.master_seed == 7
        assert all(type(v) is int for v in (*grid.cells[0], *grid.ks, grid.exact_budget, grid.master_seed))

    def test_rejects_exact_budget_above_the_enumeration_cap(self):
        # C(30, 15) is under this budget but over the cap, so the exact
        # search would refuse every instance and drop all its other metrics
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            rk.ExperimentGrid(cells=[(30, 15, 2)], instance_count=1, exact_budget=10**9)
        grid = rk.ExperimentGrid(cells=[(4, 2, 2)], instance_count=1, exact_budget=rk.bounds.MAX_ENUMERATION)
        assert rk.run_grid(grid).failures == {}


# every metric of one instance at ks (1, 2), mutually consistent
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
            # certify raises on lb > ub for every family; here a mid lb
            # above its ub is also above mm
            (("lb", "mid", None), 3.0, "lb <= mm"),
            (("lb", "mid", None), 1.6, "lb <= mm"),
            (("lb", "lp", 1), 1.6, "lb <= mm"),
            (("apriori", "lp", 1), 2.5, "1/t* <= midpoint guarantee"),
            (("apriori", "lp", 2), 1.6, "1/t* non-increasing in k"),
            (("lb", "mm", None), 1.9, "lb <= opt"),  # mm <= opt
            (("ub", "lp", 2), 1.7, "opt <= ub"),
            (("opt", "exact", None), 0.9, "lb <= opt"),
            # an ub below its lb is also below opt
            (("ub", "lp", 1), 1.1, "opt <= ub"),
            (("ub", "mm", None), 1.7, "opt <= ub"),
        ],
    )
    def test_each_invariant_is_named(self, key, value, invariant):
        with pytest.raises(InvariantError, match="^" + re.escape(f"{invariant} violated")):
            _spot_check({**CONSISTENT, key: value}, (1, 2), rk.EPS_CMP)

    def test_consistent_values_pass(self):
        _spot_check(CONSISTENT, (1, 2), rk.EPS_CMP)
        _spot_check(WITHOUT_OPT, (1, 2), rk.EPS_CMP)

    @pytest.mark.parametrize("key", [key for key in CONSISTENT if key[0] in ("apriori", "ub", "lb")])
    def test_missing_metric_raises(self, key):
        with pytest.raises(KeyError):
            _spot_check({k: v for k, v in CONSISTENT.items() if k != key}, (1, 2), rk.EPS_CMP)

    @pytest.mark.parametrize(
        "alpha, factor, raises",
        [(1.0, 1 - 1e-14, False), (1.0, 0.99, True), (1e9, 1 - 1e-14, False), (1e-9, 0.99, True)],
        ids=["rounding-at-unit", "violation-at-unit", "rounding-at-1e9", "violation-at-1e-9"],
    )
    def test_cost_comparisons_scale_with_the_costs(self, monkeypatch, alpha, factor, raises):
        # the max-min lb is put just below the largest other lb; a rounding
        # gap of 1e-14 relative passes and a 1% violation raises, whatever
        # the cost unit (an absolute tolerance raised on the first at 1e9
        # and passed the second at 1e-9)
        generate, real_certify, lbs = rk.generate_instance, rk.certify, []

        def scaled(*args):
            u, spec = generate(*args)
            return rk.UncertaintySet(alpha * u.costs), spec

        def certify(u, spec, c, lam):
            ub, lb = real_certify(u, spec, c, lam)
            lbs.append(lb)
            return (ub, max(lbs[:-1]) * factor) if len(lbs) == 4 else (ub, lb)  # mid, lp k=1, 2, then mm

        monkeypatch.setattr(experiments_module, "generate_instance", scaled)
        monkeypatch.setattr(experiments_module, "certify", certify)
        task = (0, 0, 10, 3, 10, derive_seed(1, 10, 3, 10, 0), (1, 2), False)
        if raises:
            with pytest.raises(InvariantError, match="lb <= mm violated"):
                experiments_module._instance_metrics(task)
        else:
            assert experiments_module._instance_metrics(task)[2] is None

    def test_raises_under_python_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        bad = {**CONSISTENT, ("lb", "lp", 1): 1.6}
        code = (
            "import sys\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "from robustkit.experiments import _spot_check\n"
            f"_spot_check({bad!r}, (1, 2), {rk.EPS_CMP!r})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "InvariantError: lb <= mm violated" in proc.stderr
