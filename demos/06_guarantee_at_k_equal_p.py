"""The a-priori guarantee at every subset size k up to p.

Every selection has exactly p items, so the k = p rows,
t * c^i(x) <= c(x) for every solution x, are the strongest rows the
guarantee LP can use, and row generation reaches them with the same
separation oracle as at k = 3. The grid drops each k above a cell's p,
so `ks 1..9` runs each paper cell to its own p.

For 40 instances of each paper cell (10,3,10), (20,6,50) and (30,9,100),
seed 1, without exact optima, this prints the per-cell means of
apriori/lp and apriori/mid and the improvement 1 - lp/mid at each k,
and the mean upper bound ub/lp of the LP scenario's nominal solution.
The guarantee keeps tightening up to k = p, and the improvement over the
midpoint stays near 20%. The upper bound does not follow it: a tighter
guarantee certifies more, it does not choose a better solution, and
ub/lp at k = p is above its k = 3 value at (20,6,50) and below it at
(30,9,100).
"""

import robustkit as rk

CELLS = [(10, 3, 10), (20, 6, 50), (30, 9, 100)]
KS = tuple(range(1, 10))

grid = rk.ExperimentGrid(cells=CELLS, instance_count=40, master_seed=1, ks=KS, exact_budget=0)
result = rk.run_grid(grid, workers=2)
if result.failures:
    raise SystemExit(f"failed instances per cell: {result.failures}")

for n, p, N in CELLS:
    print(f"cell {(n, p, N)}")
    print("  k   apriori/lp  apriori/mid  1 - lp/mid      ub/lp")
    for k in KS[:p]:
        lp, mid = result.value(n, p, N, "apriori", "lp", k), result.value(n, p, N, "apriori", "mid", k)
        ub = result.value(n, p, N, "ub", "lp", k)
        print(f"  {k}   {lp:10.4f}  {mid:11.4f}  {100 * (1.0 - lp / mid):9.1f}%  {ub:9.2f}")
