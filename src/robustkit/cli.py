"""Command-line interface.

Subcommands: gen (write random instances), construct (build a scenario and
report its guarantee), bounds (certify bounds for an instance), experiment
(run a grid and write CSV). Results go to standard output as key=value
lines; diagnostics and progress go to standard error. Exit codes: 0
success, 1 domain error, 2 usage error, 3 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    BudgetError,
    aposteriori_report,
    exact_minmax,
    maxmin_certificate,
    upper_bound,
)
from .core import ConvexWeights, parse_instance, serialize_instance
from .experiments import ExperimentGrid, derive_seed, emit_csv, generate_instance, run_grid
from .problems import nominal_solve, validate_k
from .scenarios import (
    construct_lp_scenario,
    fixed_scenario_guarantee,
    midpoint_scenario,
    worstcase_apriori_bound,
    worstcase_scenario,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _num(v) -> str:
    return format(float(v), ".9g")


def _vec(values) -> str:
    return ",".join(_num(v) for v in values)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _read_instance(path: str):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def cmd_gen(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for instance_id in range(args.count):
        seed = derive_seed(args.seed, args.n, args.p, args.N, instance_id)
        u, spec = generate_instance(args.n, args.p, args.N, seed)
        path = os.path.join(args.out_dir, f"inst_{instance_id:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(u, spec))
        print(f"wrote={path}")
    return EXIT_OK


def cmd_construct(args) -> int:
    u, spec = _read_instance(getattr(args, "in"))
    lines = [f"method={args.method}"]
    if args.method == "midpoint":
        if not validate_k(spec, args.k):
            raise ValueError(f"k={args.k} exceeds the minimum solution cardinality of the problem")
        scen = midpoint_scenario(u)
        lines.append(f"k={args.k}")
        lines.append(f"apriori={_num(fixed_scenario_guarantee(u, scen, args.k))}")
        lines.append(f"scenario={_vec(scen.values)}")
        lines.append(f"lambda={_vec(ConvexWeights.uniform(u.n_scenarios).lam)}")
    elif args.method == "worstcase":
        scen = worstcase_scenario(u)
        lines.append(f"apriori={_num(worstcase_apriori_bound(u, spec))}")
        lines.append(f"scenario={_vec(scen.values)}")
    else:
        t_star, scen, lam = construct_lp_scenario(u, spec, args.k)
        lines.append(f"k={args.k}")
        lines.append(f"t_star={_num(t_star)}")
        lines.append(f"apriori={_num(1.0 / t_star)}")
        lines.append(f"scenario={_vec(scen.values)}")
        lines.append(f"lambda={_vec(lam.lam)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(args) -> int:
    u, spec = _read_instance(getattr(args, "in"))
    lines = [f"method={args.method}"]
    if args.method == "worstcase":
        # no hull certificate for the element-wise worst case, so no lower
        # bound or a-posteriori ratio is reported for it
        scen = worstcase_scenario(u)
        x = nominal_solve(spec, scen)
        lines.append(f"apriori={_num(worstcase_apriori_bound(u, spec))}")
        lines.append(f"ub={_num(upper_bound(u, x))}")
    else:
        if args.method == "midpoint":
            scen = midpoint_scenario(u)
            lam = ConvexWeights.uniform(u.n_scenarios)
            report = aposteriori_report(u, spec, scen, lam, k=args.k)
        else:
            t_star, scen, lam = construct_lp_scenario(u, spec, args.k)
            report = aposteriori_report(u, spec, scen, lam, k=args.k, apriori=1.0 / t_star)
        lines.append(f"k={report.k_used}")
        lines.append(f"apriori={_num(report.apriori)}")
        lines.append(f"lb={_num(report.lb)}")
        lines.append(f"ub={_num(report.ub)}")
        lines.append(f"aposteriori={_num(report.aposteriori)}")
    if args.with_maxmin:
        lines.append(f"maxmin_lb={_num(maxmin_certificate(u, spec)[0])}")
    if args.with_exact:
        opt, solution = exact_minmax(u, spec)
        lines.append(f"opt={_num(opt)}")
        lines.append(f"opt_solution={','.join(str(j) for j in solution.selected)}")
    print("\n".join(lines))
    return EXIT_OK


def _parse_grid_spec(arg: str, master_seed: int) -> ExperimentGrid:
    if os.path.isfile(arg):
        text = Path(arg).read_text(encoding="utf-8")
    else:
        text = arg.replace(";", "\n")
    cells = []
    options = {}  # directives given; the rest keep the ExperimentGrid defaults
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "cell" and len(toks) == 4:
                cells.append((int(toks[1]), int(toks[2]), int(toks[3])))
            elif toks[0] == "count" and len(toks) == 2:
                options["instance_count"] = int(toks[1])
            elif toks[0] == "ks":
                options["ks"] = tuple(int(t) for t in toks[1:])
            elif toks[0] == "methods":
                options["methods"] = tuple(toks[1:])
            elif toks[0] == "exact_budget" and len(toks) == 2:
                options["exact_budget"] = int(toks[1])
            else:
                raise ValueError(f"grid spec line {lineno}: unknown directive {line!r}")
        except ValueError as exc:
            raise ValueError(f"grid spec line {lineno}: {exc}") from exc
    if not cells:
        raise ValueError("grid spec declares no cells")
    return ExperimentGrid(cells=cells, master_seed=master_seed, **options)


def cmd_experiment(args) -> int:
    grid = _parse_grid_spec(args.grid_spec, args.seed)
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("ROBUSTKIT_WORKERS", "1"))
    result = run_grid(
        grid,
        workers=workers,
        dump_dir=args.dump_dir,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    text = emit_csv(result, include_runtime=args.with_runtimes)
    Path(args.out).write_text(text, encoding="utf-8")
    for cell, instance_id, seed, message in result.errors:
        print(f"cell {cell} instance {instance_id} seed {seed}: excluded, {message}", file=sys.stderr)
    print(f"wrote={args.out}")
    all_failed = not result.rows
    return EXIT_DOMAIN if all_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustkit",
        description="Representative scenarios and bound certificates for min-max robust combinatorial optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write random selection instances")
    gen.add_argument("--n", type=_positive_int, required=True, help="item count")
    gen.add_argument("--p", type=_positive_int, required=True, help="items to select")
    gen.add_argument("--N", type=_positive_int, required=True, help="scenario count")
    gen.add_argument("--count", type=_positive_int, default=1, help="instances to write")
    gen.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed")
    gen.add_argument("--out-dir", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    construct = sub.add_parser("construct", help="build a representative scenario")
    construct.add_argument("--in", required=True, help="instance file")
    construct.add_argument("--method", choices=("midpoint", "worstcase", "lp"), required=True)
    construct.add_argument("--k", type=_positive_int, default=1, help="subset size for the guarantee")
    construct.set_defaults(func=cmd_construct)

    bounds = sub.add_parser("bounds", help="certify bounds for an instance")
    bounds.add_argument("--in", required=True, help="instance file")
    bounds.add_argument("--method", choices=("midpoint", "worstcase", "lp"), required=True)
    bounds.add_argument("--k", type=_positive_int, default=1, help="subset size for the guarantee")
    bounds.add_argument("--with-maxmin", action="store_true", help="also report the hull max-min lower bound")
    bounds.add_argument("--with-exact", action="store_true", help="also report the exact optimum (may refuse)")
    bounds.set_defaults(func=cmd_bounds)

    experiment = sub.add_parser("experiment", help="run an experiment grid, write CSV")
    experiment.add_argument("--grid-spec", required=True, help="grid file or inline spec ('cell 10 3 10; count 100')")
    experiment.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed")
    experiment.add_argument("--out", required=True, help="CSV output path")
    experiment.add_argument("--workers", type=_positive_int, default=None, help="parallel workers (default $ROBUSTKIT_WORKERS or 1)")
    experiment.add_argument("--dump-dir", default=None, help="also write every generated instance here")
    experiment.add_argument("--with-runtimes", action="store_true", help="fill the runtime_ms column (not byte-reproducible)")
    experiment.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
