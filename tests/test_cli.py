import subprocess
import sys

import numpy as np
import pytest

import robustkit as rk
from robustkit.cli import _num, _parse_grid_spec, _vec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def table1_file(tmp_path, table1_text):
    path = tmp_path / "table1.txt"
    path.write_text(table1_text)
    return str(path)


class TestGen:
    def test_writes_deterministic_files(self, capsys, tmp_path):
        out_dir = tmp_path / "a"
        code, out, _ = run_cli(capsys, "gen", "--n", "10", "--p", "3", "--N", "5", "--count", "2", "--seed", "1", "--out-dir", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("inst_*.txt"))
        assert len(files) == 2
        assert all(line.startswith("wrote=") for line in out.strip().splitlines())

        # regenerate into a second directory: byte-identical content
        out_dir_b = tmp_path / "b"
        code, _, _ = run_cli(capsys, "gen", "--n", "10", "--p", "3", "--N", "5", "--count", "2", "--seed", "1", "--out-dir", str(out_dir_b))
        assert code == 0
        for f in files:
            assert f.read_bytes() == (out_dir_b / f.name).read_bytes()

        u, spec = rk.parse_instance(files[0].read_text())
        assert (spec.n, spec.p) == (10, 3)
        assert u.n_scenarios == 5

    def test_writes_the_instances_of_the_grid_cell_with_that_seed(self, capsys, tmp_path):
        # an experiment with --seed 9 runs exactly these instances in its cell (5, 2, 2)
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--p", "2", "--N", "2", "--seed", "9", "--count", "2", "--out-dir", str(tmp_path))
        assert code == 0
        files = sorted(tmp_path.glob("inst_*.txt"))
        assert len(files) == 2
        for i, f in enumerate(files):
            u, spec = rk.parse_instance(f.read_text())
            expected, expected_spec = rk.generate_instance(5, 2, 2, rk.derive_seed(9, 5, 2, 2, i))
            assert np.array_equal(u.costs, expected.costs)
            assert spec == expected_spec

    def test_refused_parameters_create_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--p", "5", "--N", "2", "--out-dir", str(out_dir))
        assert code == 1
        assert out == "" and "p must be in [1, n=3]" in err
        assert not out_dir.exists()

    def test_zero_n_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--n", "0", "--p", "1", "--N", "1", "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--n", "4"])
        assert excinfo.value.code == 2


class TestConstruct:
    def test_lp_k1(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "construct", "--in", table1_file, "--method", "lp", "--k", "1")
        assert code == 0
        pairs = kv(out)
        assert float(pairs["apriori"]) == pytest.approx(1.333333, abs=0.01)
        assert float(pairs["t_star"]) == pytest.approx(0.75, abs=0.01)
        scenario = [float(v) for v in pairs["scenario"].split(",")]
        assert scenario == pytest.approx([3.75, 6.875, 6.75, 5.5], abs=0.01)
        lam = [float(v) for v in pairs["lambda"].split(",")]
        assert sum(lam) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "construct", "--in", table1_file, "--method", "midpoint")
        assert code == 0
        pairs = kv(out)
        scenario = [float(v) for v in pairs["scenario"].split(",")]
        assert scenario == pytest.approx([11 / 3, 5.0, 13 / 3, 16 / 3], abs=1e-6)
        assert float(pairs["apriori"]) == pytest.approx(27 / 13, abs=1e-6)

    def test_worstcase(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "construct", "--in", table1_file, "--method", "worstcase")
        assert code == 0
        pairs = kv(out)
        assert [float(v) for v in pairs["scenario"].split(",")] == [5.0, 8.0, 9.0, 7.0]
        assert float(pairs["apriori"]) == 2.0
        assert "lambda" not in pairs

    def test_infeasible_k_exits_1(self, capsys, table1_file, monkeypatch):
        solves = []
        monkeypatch.setattr("robustkit.scenarios.solve_lp", lambda *args: solves.append(args))
        code, _, err = run_cli(capsys, "construct", "--in", table1_file, "--method", "lp", "--k", "3")
        assert code == 1
        assert "cardinality" in err
        assert solves == []  # refused before any LP runs

    def test_lp_k2_prints_the_chained_scenario(self, capsys, tmp_path):
        # construct and bounds at k = 2 report the LP started from k = 1, as
        # the grid solves it; on this instance the unseeded k = 2 scenario
        # differs by about 1e-12, and the nominal solution's tie rule keeps
        # that from moving ub
        u, spec = rk.generate_instance(20, 6, 50, rk.derive_seed(1, 20, 6, 50, 19))
        path = tmp_path / "inst.txt"
        path.write_text(rk.serialize_instance(u, spec))
        t1, s1, _ = rk.construct_lp_scenario(u, spec, 1)
        t2, s2, lam2 = rk.construct_lp_scenario(u, spec, 2, start=(1, t1, s1))
        code, out, _ = run_cli(capsys, "construct", "--in", str(path), "--method", "lp", "--k", "2")
        assert code == 0
        pairs = kv(out)
        assert (pairs["t_star"], pairs["scenario"], pairs["lambda"]) == (_num(t2), _vec(s2), _vec(lam2.lam))
        code, out, _ = run_cli(capsys, "bounds", "--in", str(path), "--method", "lp", "--k", "2")
        assert code == 0
        ub = rk.upper_bound(u, rk.nominal_solve(spec, s2))
        assert kv(out)["ub"] == _num(ub)
        assert rk.upper_bound(u, rk.nominal_solve(spec, rk.construct_lp_scenario(u, spec, 2)[1])) == ub

    def test_midpoint_infeasible_k_exits_1(self, capsys, table1_file):
        code, out, err = run_cli(capsys, "construct", "--in", table1_file, "--method", "midpoint", "--k", "3")
        assert code == 1
        assert "cardinality" in err
        assert "apriori" not in out

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--in", "/nonexistent", "--method", "midpoint")
        assert code == 1
        assert "error" in err


class TestBounds:
    def test_midpoint(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "bounds", "--in", table1_file, "--method", "midpoint")
        assert code == 0
        pairs = kv(out)
        assert float(pairs["lb"]) == pytest.approx(8.0)
        assert float(pairs["ub"]) == pytest.approx(12.0)
        assert float(pairs["aposteriori"]) == pytest.approx(1.50, abs=1e-6)

    def test_lp_k2_with_exact(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "bounds", "--in", table1_file, "--method", "lp", "--k", "2", "--with-exact")
        assert code == 0
        pairs = kv(out)
        assert float(pairs["apriori"]) == pytest.approx(1.0, abs=1e-6)
        assert float(pairs["opt"]) == pytest.approx(10.0)
        assert pairs["opt_solution"] == "0,3"

    def test_midpoint_infeasible_k_exits_1(self, capsys, table1_file):
        code, out, err = run_cli(capsys, "bounds", "--in", table1_file, "--method", "midpoint", "--k", "3")
        assert code == 1
        assert "cardinality" in err
        assert "apriori" not in out

    def test_with_maxmin(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "bounds", "--in", table1_file, "--method", "midpoint", "--with-maxmin")
        assert code == 0
        assert float(kv(out)["maxmin_lb"]) == pytest.approx(10.0)

    def test_worstcase_reports_no_lower_bound(self, capsys, table1_file):
        code, out, _ = run_cli(capsys, "bounds", "--in", table1_file, "--method", "worstcase")
        assert code == 0
        pairs = kv(out)
        assert "lb" not in pairs and "aposteriori" not in pairs
        # x(worst case) is items {1, 4}; its worst scenario value is 10
        assert float(pairs["ub"]) == pytest.approx(10.0)
        assert float(pairs["apriori"]) == 2.0

    @pytest.mark.parametrize("alpha", [1e-9, 1e9])
    def test_lp_apriori_does_not_depend_on_the_cost_unit(self, capsys, tmp_path, alpha):
        u, spec = rk.generate_instance(10, 3, 10, rk.derive_seed(5, 10, 3, 10, 1))
        apriori = []
        for scale in (1.0, alpha):
            path = tmp_path / f"scaled-{scale}.txt"
            path.write_text(rk.serialize_instance(rk.UncertaintySet(scale * u.costs), spec))
            code, out, _ = run_cli(capsys, "bounds", "--in", str(path), "--method", "lp", "--k", "2")
            assert code == 0
            apriori.append(kv(out)["apriori"])
        assert apriori == ["1.66005034"] * 2

    @pytest.mark.parametrize("method", ["midpoint", "lp"])
    def test_crossed_bounds_exit_1(self, capsys, table1_file, monkeypatch, method):
        monkeypatch.setattr("robustkit.bounds.upper_bound", lambda u, x: 0.0)
        code, out, err = run_cli(capsys, "bounds", "--in", table1_file, "--method", method)
        assert code == 1
        assert "lb <= ub violated" in err
        assert out == ""

    def test_oversized_exact_exits_3(self, capsys, tmp_path):
        u, spec = rk.generate_instance(40, 20, 2, seed=4)
        path = tmp_path / "big.txt"
        path.write_text(rk.serialize_instance(u, spec))
        code, _, err = run_cli(capsys, "bounds", "--in", str(path), "--method", "midpoint", "--with-exact")
        assert code == 3
        assert "exceed" in err


@pytest.mark.parametrize(
    "command, method, keys",
    [
        ("construct", "midpoint", "method k apriori scenario lambda"),
        ("construct", "worstcase", "method apriori scenario"),
        ("construct", "lp", "method k t_star apriori scenario lambda"),
        ("bounds", "midpoint", "method k apriori lb ub aposteriori maxmin_lb opt opt_solution"),
        ("bounds", "worstcase", "method apriori ub maxmin_lb opt opt_solution"),
        ("bounds", "lp", "method k apriori lb ub aposteriori maxmin_lb opt opt_solution"),
    ],
)
def test_printed_keys_in_order(capsys, table1_file, command, method, keys):
    extra = ("--with-maxmin", "--with-exact") if command == "bounds" else ()
    code, out, _ = run_cli(capsys, command, "--in", table1_file, "--method", method, *extra)
    assert code == 0
    assert [line.partition("=")[0] for line in out.splitlines()] == keys.split()


@pytest.mark.parametrize("command", ["construct", "bounds"])
def test_worstcase_k_above_p_exits_1(capsys, tmp_path, command):
    # the worst case reads no k, but a k no solution has is refused for every method
    u, spec = rk.generate_instance(10, 3, 10, rk.derive_seed(1, 10, 3, 10, 0))
    path = tmp_path / "inst.txt"
    path.write_text(rk.serialize_instance(u, spec))
    code, out, err = run_cli(capsys, command, "--in", str(path), "--method", "worstcase", "--k", "9")
    assert code == 1
    assert "cardinality" in err
    assert "apriori" not in out


class TestExperiment:
    def test_single_cell_inline(self, capsys, tmp_path):
        out_csv = tmp_path / "results.csv"
        code, out, _ = run_cli(
            capsys, "experiment", "--grid-spec", "cell 5 2 3; count 1; ks 1 2", "--seed", "3", "--out", str(out_csv)
        )
        assert code == 0
        assert f"wrote={out_csv}" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "n,p,N,metric,method,k,value,stderr,instances,runtime_ms"
        metrics = {tuple(line.split(",")[3:5]) for line in lines[1:]}
        assert ("apriori", "mid") in metrics
        assert ("aposteriori", "mm") in metrics
        assert ("opt", "exact") in metrics

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "experiment", "--grid-spec", "cell 6 3 4; count 3", "--seed", "11", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_file_and_worker_counts(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.txt"
        grid_file.write_text("# tiny grid\ncount 2\nks 1\ncell 5 2 2\n")
        csvs = []
        for workers in ("1", "2"):
            csvs.append(tmp_path / f"r{workers}.csv")
            code, _, _ = run_cli(capsys, "experiment", "--grid-spec", str(grid_file), "--seed", "8", "--workers", workers, "--out", str(csvs[-1]))
            assert code == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    def test_grid_spec_defaults_come_from_the_dataclass(self):
        assert _parse_grid_spec("cell 4 2 2", 5) == rk.ExperimentGrid(cells=[(4, 2, 2)], master_seed=5)
        grid = _parse_grid_spec("cell 4 2 2; count 7; ks 1; exact_budget 9", 5)
        assert (grid.instance_count, grid.ks, grid.exact_budget) == (7, (1,), 9)
        with pytest.raises(ValueError, match="unknown directive 'methods mid'"):
            _parse_grid_spec("cell 4 2 2; methods mid", 5)

    def test_exact_budget_above_the_enumeration_cap_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(
            capsys, "experiment", "--grid-spec", "cell 4 2 2; count 1; exact_budget 1000000000", "--out", str(out_csv)
        )
        assert code == 1
        assert "exact_budget 1000000000 exceeds the enumeration cap" in err
        assert not out_csv.exists()

    def test_failed_instance_reported_with_seed(self, capsys, tmp_path, monkeypatch):
        def failing(u, spec, k, c):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("robustkit.experiments.fixed_scenario_guarantee", failing)
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(
            capsys, "experiment", "--grid-spec", "cell 4 2 2; count 1", "--seed", "3", "--out", str(out_csv)
        )
        assert code == 1  # every instance failed
        seed = rk.derive_seed(3, 4, 2, 2, 0)
        assert f"cell (4, 2, 2) instance 0 seed {seed}: excluded, mid: RuntimeError: synthetic failure" in err

    @pytest.mark.parametrize("ks", ["3 1", "1 1"])
    def test_unordered_ks_exit_1(self, capsys, tmp_path, ks):
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", f"cell 10 3 10; count 3; ks {ks}", "--seed", "1", "--out", str(out_csv))
        assert code == 1
        assert "strictly increasing" in err
        assert not out_csv.exists()

    def test_repeated_cell_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", "cell 6 2 3; cell 6 2 3; count 2", "--seed", "1", "--out", str(out_csv))
        assert code == 1
        assert "cell (6,2,3) is repeated" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("directive", ["count 3", "ks 1 2", "exact_budget 100"])
    def test_repeated_directive_exits_1(self, capsys, tmp_path, directive):
        out_csv = tmp_path / "x.csv"
        spec = f"cell 6 2 3; {directive}; {directive}"
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", spec, "--seed", "1", "--out", str(out_csv))
        assert code == 1
        assert f"error: grid spec line 3: repeated directive {directive.split()[0]!r}" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unusable_out_exits_1_before_any_instance(self, capsys, tmp_path, where):
        out = tmp_path / where
        code, out_text, err = run_cli(capsys, "experiment", "--grid-spec", "cell 10 3 10; count 100", "--seed", "1", "--out", str(out))
        assert code == 1
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1  # no progress line
        assert out_text == ""
        assert list(tmp_path.iterdir()) == []

    def test_empty_ks_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", "cell 10 3 10; count 3; ks", "--seed", "1", "--out", str(out_csv))
        assert code == 1
        assert "at least one subset size" in err
        assert not out_csv.exists()

    def test_cell_with_p_below_every_k_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", "cell 10 3 10; count 3; ks 4 5", "--seed", "1", "--out", str(out_csv))
        assert code == 1
        assert "cell (10,3,10): p=3 is below every subset size in ks (4, 5)" in err
        assert not out_csv.exists()

    def test_negative_exact_budget_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "experiment", "--grid-spec", "cell 10 3 10; count 3; exact_budget -1", "--seed", "1", "--out", str(out_csv)
        )
        assert code == 1
        assert "exact_budget must be >= 0, got -1" in err
        assert not out_csv.exists()

    def test_empty_grid_spec_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--grid-spec", "count 5", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "no cells" in err


class TestConsoleScript:
    def test_entry_point_runs(self, table1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "robustkit.cli", "construct", "--in", table1_file, "--method", "midpoint"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "apriori=" in proc.stdout
