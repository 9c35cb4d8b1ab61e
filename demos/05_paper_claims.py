"""The abstract's headline figure: the LP scenario improves the midpoint's
a-priori guarantee "by around 20%".

The abstract does not say how the figure is aggregated. Here it is
1 - mean(apriori/lp) / mean(apriori/mid) per (cell, k): the ratio of the
per-cell means that the experiment CSV reports, over 40 instances of each
paper cell (10,3,10), (20,6,50) and (30,9,100) at k = 1, 2, 3, seed 1,
without exact optima. The check reads "around 20%" as every figure in
[15%, 30%] and their mean in [18%, 24%]. It fails by SystemExit, not
assert, so it also holds under python -O.
"""

import robustkit as rk

CELLS = [(10, 3, 10), (20, 6, 50), (30, 9, 100)]
KS = (1, 2, 3)
EACH, MEAN = (0.15, 0.30), (0.18, 0.24)

grid = rk.ExperimentGrid(cells=CELLS, instance_count=40, master_seed=1, ks=KS, exact_budget=0)
result = rk.run_grid(grid, workers=2)
if result.failures:
    raise SystemExit(f"failed instances per cell: {result.failures}")

print("improvement of the LP's a-priori guarantee over the midpoint's, 1 - LP/mid")
print("cell          " + "".join(f"     k={k}" for k in KS))
figures = []
for cell in CELLS:
    row = [1.0 - result.value(*cell, "apriori", "lp", k) / result.value(*cell, "apriori", "mid", k) for k in KS]
    figures += row
    print(f"{str(cell):14s}" + "".join(f"{100 * f:7.1f}%" for f in row))
mean = sum(figures) / len(figures)
print(f"mean over cells and k: {100 * mean:.1f}%")

if not all(EACH[0] <= f <= EACH[1] for f in figures):
    raise SystemExit(f"a figure lies outside [{EACH[0]:.0%}, {EACH[1]:.0%}]")
if not MEAN[0] <= mean <= MEAN[1]:
    raise SystemExit(f"the mean {mean:.1%} lies outside [{MEAN[0]:.0%}, {MEAN[1]:.0%}]")
print(f'every figure in [{EACH[0]:.0%}, {EACH[1]:.0%}] and the mean in [{MEAN[0]:.0%}, {MEAN[1]:.0%}]: "around 20%" holds')
