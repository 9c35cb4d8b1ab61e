"""A complete walkthrough on a small selection instance.

Three cost scenarios over four items, choose two, minimize the worst case.
We build all three representative scenarios, compare their guarantees, and
check them against the exact optimum.
"""

import numpy as np

import robustkit as rk

costs = np.array(
    [
        [5, 5, 3, 3],
        [3, 8, 9, 7],
        [3, 2, 1, 6],
    ],
    dtype=float,
)
u = rk.UncertaintySet(costs)
spec = rk.Selection(n=4, p=2)

print("scenario costs:")
print(u.costs)

# --- the midpoint scenario: average cost per item -------------------------
mid = rk.midpoint_scenario(u)
print("\nmidpoint scenario:", np.round(mid, 2))

x_mid = rk.nominal_solve(spec, mid)
print("its nominal solution picks items:", x_mid)

ub, lb = rk.certify(u, spec, mid, rk.ConvexWeights.uniform(u.n_scenarios))
print(f"bounds from the midpoint: LB={lb:g}  UB={ub:g}  ratio={rk.ratio_or_inf(ub, lb):.2f}")
print(f"a-priori guarantee with k=1 (before solving): {rk.fixed_scenario_guarantee(u, spec, 1, mid):.3f}")

# --- the element-wise worst case ------------------------------------------
wc = rk.worstcase_scenario(u)
print("\nworst-case scenario:", wc)
print("guarantee min(N, |X|):", rk.worstcase_apriori_bound(u, spec))
x_wc = rk.nominal_solve(spec, wc)
print("its solution:", x_wc, "with worst-case value", rk.upper_bound(u, x_wc))

# --- the LP-constructed scenario -------------------------------------------
for k in (1, 2):
    t_star, scen, lam = rk.construct_lp_scenario(u, spec, k)
    ub, lb = rk.certify(u, spec, scen, lam)
    print(f"\nLP scenario with k={k}: {np.round(scen, 3)}")
    print(f"  hull weights: {np.round(lam.lam, 3)}")
    print(f"  a-priori guarantee 1/t* = {1 / t_star:.3f}")
    print(f"  LB={lb:g}  UB={ub:g}  ratio={ub / lb:.3f}")

# With k=2 the guarantee is exactly 1: the solution is provably optimal
# before we even evaluate it. The exhaustive solver agrees:
opt, solution = rk.exact_minmax(u, spec)
print(f"\nexact optimum: {opt:g} at items {solution}")

# --- instances are plain text files ----------------------------------------
print("\nthe same instance as a file:")
print(rk.serialize_instance(u, spec))
