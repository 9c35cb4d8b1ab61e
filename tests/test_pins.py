"""Every pinned output, by md5: the grid CSVs, the CLI outputs and the demos.

Each entry runs its commands through robustkit.cli.main, or its demo
through runpy, in this process, and pins the md5 of the bytes it writes:
a CSV, or the captured stdout. An entry marked optimized must write the
same bytes under python -O; one `python -O tests/test_pins.py DIR`
subprocess runs all of them and prints one "name md5" line per entry.
The cross-checks inside an entry (equal CSVs at one and two workers, an
equal apriori line at every cost unit, an equal solution in both exact
arithmetics) raise PinError, which python -O does not strip.

An entry's md5 changes only with an intended output change, and that
change records the old and the new output.
"""

import contextlib
import hashlib
import io
import os
import runpy
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import robustkit as rk
from robustkit.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# a 5-edge DAG, its longest s-t path 3 edges, its fewest hops 2
PATH = """\
problem shortestpath
edges 5
edge 0 0 1
edge 1 1 3
edge 2 0 2
edge 3 2 3
edge 4 1 2
source 0
sink 3
"""

# more scenarios than edges, so the worst case's guarantee min(N, |X|) reads |X|
PATH_DAG = PATH + """\
N 6
c 4 1 2 6 1
c 1 5 3 2 2
c 3 3 5 1 4
c 2 4 1 3 5
c 5 2 4 2 1
c 1 1 3 4 2
"""

# the DAG plus edge 2 -> 1: the longest simple s-t path still has 3 edges
PATH_CYCLIC = """\
problem shortestpath
edges 6
edge 0 0 1
edge 1 1 3
edge 2 0 2
edge 3 2 3
edge 4 1 2
edge 5 2 1
source 0
sink 3
N 7
c 4 1 2 6 1 3
c 1 5 3 2 2 1
c 3 3 5 1 4 2
c 2 4 1 3 5 4
c 5 2 4 2 1 1
c 1 1 3 4 2 5
c 2 3 1 5 3 2
"""


class PinError(Exception):
    """A cross-check inside an entry failed."""


def check(ok, message):
    if not ok:
        raise PinError(message)


def cli(*argv):
    """stdout of `robustkit argv`, which must exit 0."""
    argv = [str(arg) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    check(code == 0, f"robustkit {' '.join(argv)} exited {code}")
    return out.getvalue()


def experiment(tmp, spec, workers):
    out = tmp / f"grid-{workers}.csv"
    cli("experiment", "--grid-spec", spec, "--seed", 1, "--workers", workers, "--out", out)
    return out.read_text(encoding="utf-8")


def grid(spec):
    return lambda tmp: experiment(tmp, spec, workers=2)


def grid_at_both_worker_counts(spec):
    def run(tmp):
        csv = experiment(tmp, spec, workers=2)
        check(csv == experiment(tmp, spec, workers=1), "--workers 1 and --workers 2 wrote different CSVs")
        return csv

    return run


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def lines_starting(text, prefix):
    return [line for line in text.splitlines() if line.startswith(prefix)]


def across_cost_units(prefix, alphas, *args):
    """`bounds args` on the (10,3,10) instance of the CLI pins with its costs times each alpha.

    Returns the output at the first alpha; the line starting with prefix is the same at every alpha.
    """

    def run(tmp):
        u, spec = rk.generate_instance(10, 3, 10, rk.derive_seed(5, 10, 3, 10, 1))
        outs = []
        for alpha in alphas:
            inst = write(tmp / f"costs-{alpha}.txt", rk.serialize_instance(rk.UncertaintySet(alpha * u.costs), spec))
            outs.append(cli("bounds", "--in", inst, *args))
            check(lines_starting(outs[-1], prefix) == lines_starting(outs[0], prefix), f"{prefix} at costs times {alpha} differs from times {alphas[0]}")
        return outs[0]

    return run


def generated_instance(tmp):
    cli("gen", "--n", 10, "--p", 3, "--N", 10, "--seed", 1, "--out-dir", tmp)
    return tmp / "inst_000.txt"


def construct(tmp):
    return cli("construct", "--in", generated_instance(tmp), "--method", "lp", "--k", 3)


def bounds(tmp):
    return cli("bounds", "--in", generated_instance(tmp), "--method", "lp", "--k", 2, "--with-maxmin", "--with-exact")


def maxmin(tmp):
    cli("gen", "--n", 20, "--p", 6, "--N", 50, "--count", 3, "--seed", 1, "--out-dir", tmp / "mm-20-6-50")
    cli("gen", "--n", 8, "--p", 4, "--N", 5, "--count", 3, "--seed", 11, "--out-dir", tmp / "mm-8-4-5")
    instances = sorted((tmp / "mm-20-6-50").glob("inst_*.txt")) + sorted((tmp / "mm-8-4-5").glob("inst_*.txt"))
    return "".join(cli("bounds", "--in", inst, "--method", method, "--k", 2, "--with-maxmin", "--with-exact") for inst in instances for method in ("midpoint", "lp", "worstcase"))


def path(tmp):
    inst = write(tmp / "path.txt", PATH + "N 3\nc 4 1 2 6 1\nc 1 5 3 2 2\nc 3 3 5 1 4\n")
    runs = [["--method", "midpoint", "--k", 1, "--with-exact"], ["--method", "lp", "--k", 1, "--with-exact"], ["--method", "lp", "--k", 2]]
    return "".join(cli("bounds", "--in", inst, *args) for args in runs)


def path_worstcase(tmp):
    instances = [write(tmp / "path-dag.txt", PATH_DAG), write(tmp / "path-cyclic.txt", PATH_CYCLIC)]
    return "".join(cli("bounds", "--in", inst, "--method", "worstcase", "--k", 1, "--with-exact") for inst in instances)


@dataclass(frozen=True)
class Pin:
    name: str
    run: Callable[[Path], str]  # writes its files under the given directory and returns the pinned text
    md5: str
    optimized: bool  # also run under python -O, which must give the same bytes


def demo(name, md5):
    """Entry demo-name: the stdout of demos/name.py, whose asserts run on the plain side."""

    def run(tmp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
        return out.getvalue()

    return Pin(f"demo-{name}", run, md5, True)


PINS = [
    Pin("large", grid("cell 30 9 100; count 8"), "bc062152009081847710c4aa4ce56544", True),
    Pin("gap", grid("cell 400 5 9; cell 10 3 10; count 4; ks 1 3"), "bddf211db5531947a824c0e5ec0da382", True),
    Pin("paper", grid("cell 10 3 10; cell 20 6 50; cell 30 9 100; count 40"), "e4abf5c2c6612cac8063185239c45ace", False),
    Pin("workers-opt", grid_at_both_worker_counts("cell 20 6 50; cell 10 3 10; count 32"), "f3e3fa2c8b008945a08cc958bbd46112", False),
    Pin("workers-budget", grid_at_both_worker_counts("cell 10 3 10; cell 6 2 3; count 16; ks 1 3; exact_budget 100"), "e0cf86220eba4b8528bad91acbe82cfa", False),
    Pin("construct", construct, "d2e039f60704540e30ff9257b107c14b", True),
    Pin("bounds", bounds, "5c5352edc1031b43c2a9832286fa79e6", True),
    # the a-priori guarantee does not depend on the cost unit
    Pin("cost-unit", across_cost_units("apriori=", [1.0, 1e-9, 1e9], "--method", "lp", "--k", 2), "df2f26114374ef09d30a6bbbd3492bc7", True),
    # the exact search in float64 on half costs and in int16 on integer costs chooses the same solution
    Pin("exact-half", across_cost_units("opt_solution=", [0.5, 1.0], "--method", "lp", "--k", 2, "--with-exact"), "cd2ec5c4c688cc0fb7b52bb7b3c3f2fe", True),
    Pin("maxmin", maxmin, "c63ffd5cf05180ae4af92e5b6213864a", True),
    Pin("path", path, "ca7ddf5dd6e645c71cd20f782440fbfb", True),
    Pin("path-worstcase", path_worstcase, "d0faee1a7fa898f3e1ef3624b7c83eb7", True),
    demo("01_worked_example", "3e14474e60c45f5a3aea3b640aa62bf6"),
    demo("02_scenario_guarantees", "781c6633c72cff532bb1687c96c665a3"),
    demo("03_bound_certificates", "032243efb3c6d962d9b794c6c5674ddd"),
    demo("04_experiment_grid", "e4b9d8fcaa6e63ca7380ea0d1d1a6676"),
    demo("05_paper_claims", "18d8038b8015801349645da7af7f2610"),
    demo("06_guarantee_at_k_equal_p", "2ec21e20585721c995175bd3c3d2711f"),
]


def md5_of(pin, tmp):
    tmp.mkdir(parents=True, exist_ok=True)
    return hashlib.md5(pin.run(tmp).encode("utf-8")).hexdigest()


def pinned(name, got, want):
    return f"{name}: md5 {got}, pinned {want}"


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pinned_output(pin, tmp_path):
    got = md5_of(pin, tmp_path)
    assert got == pin.md5, pinned(pin.name, got, pin.md5)


@pytest.fixture(scope="module")
def optimized_md5s(tmp_path_factory):
    src = Path(rk.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path_factory.mktemp("optimized")
    proc = subprocess.run([sys.executable, "-O", __file__, str(out)], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


OPTIMIZED = [pin for pin in PINS if pin.optimized]


@pytest.mark.parametrize("pin", OPTIMIZED, ids=[pin.name for pin in OPTIMIZED])
def test_pinned_output_under_python_optimize(pin, optimized_md5s):
    got = optimized_md5s.get(pin.name, "missing")
    assert got == pin.md5, pinned(pin.name + " under python -O", got, pin.md5)


def test_every_demo_is_pinned():
    demos = {f"demo-{path.stem}" for path in DEMOS.glob("*.py")}
    entries = {pin.name for pin in PINS if pin.name.startswith("demo-")}
    assert entries == demos, f"demos without an entry: {sorted(demos - entries)}; entries without a demo: {sorted(entries - demos)}"


if __name__ == "__main__":
    # python -O tests/test_pins.py DIR: one "name md5" line per optimized entry, its files under DIR/name
    if not sys.flags.optimize:
        sys.exit("run under python -O")
    for pin in PINS:
        if pin.optimized:
            try:
                print(pin.name, md5_of(pin, Path(sys.argv[1]) / pin.name), flush=True)
            except Exception as exc:
                print(pin.name, f"{type(exc).__name__}: {exc}", flush=True)
