"""One set-up sample: import robustkit and certify one warm-up instance.

Run as `python3 perfbench/probe.py WORKLOAD` with robustkit importable; the
caller times the whole process. Prints one JSON line with the parts.
"""

import json
import sys
import time

from workloads import WARMUP_MASTER, WORKLOADS


def main():
    w = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    from robustkit import experiments

    t1 = time.perf_counter()
    result = experiments.run_grid(w.grid(WARMUP_MASTER, instances=1), workers=1)
    t2 = time.perf_counter()
    if result.failures:
        sys.exit(f"warm-up instance failed: {result.failures}")
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "cpu_s": time.process_time()}))


if __name__ == "__main__":
    main()
