"""Record the reference values the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every pool request of each workload once through `run_grid` and
stores the values that the LP and enumeration define uniquely (see
workloads.UNIQUE_KEYS) in perfbench/reference.json. Re-record only for a
change that is meant to alter these values, and say why where it lands.
"""

import json
import platform
import sys

from workloads import EPS_CMP, REFERENCE, ROOT, UNIQUE_KEYS, WORKLOADS, grid_values, invariant_problems


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from robustkit import experiments

    names = sys.argv[1:] or list(WORKLOADS)
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference.update(eps_cmp=EPS_CMP, python=platform.python_version(), numpy=numpy.__version__)
    for name in names:
        w = WORKLOADS[name]
        values = {}
        for master in range(1, w.pool + 1):
            result = experiments.run_grid(w.grid(master), workers=w.workers)
            got, _ = grid_values(result)
            problems = invariant_problems(w, got)
            if result.failures or problems:
                sys.exit(f"{name} master {master}: {result.failures} {problems}")
            values[str(master)] = {k: got[k] for k in UNIQUE_KEYS if k in got}
            print(name, master, file=sys.stderr)
        reference["workloads"][name] = {"cell": list(w.cell), "instances": w.instances, "values": values}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_format(reference))


def _format(reference):
    """Stable JSON with one line per recorded request."""
    head = {k: v for k, v in reference.items() if k != "workloads"}
    lines = ["{", *(f" {json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(head.items())), ' "workloads": {']
    for i, (name, wl) in enumerate(sorted(reference["workloads"].items())):
        lines.append(f'  {json.dumps(name)}: {{"cell": {json.dumps(wl["cell"])}, "instances": {wl["instances"]}, "values": {{')
        items = sorted(wl["values"].items(), key=lambda kv: int(kv[0]))
        for j, (master, vals) in enumerate(items):
            lines.append(f"   {json.dumps(master)}: {json.dumps(vals, sort_keys=True)}" + ("," if j < len(items) - 1 else ""))
        lines.append("  }}" + ("," if i < len(reference["workloads"]) - 1 else ""))
    return "\n".join(lines + [" }", "}", ""])


if __name__ == "__main__":
    main()
