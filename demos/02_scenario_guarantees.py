"""How approximation guarantees tighten as the subset size k grows.

The guarantee LP constrains t on all item subsets of size k; larger k
admits more scenarios and therefore better (smaller) guarantees, at the
price of more constraint rows. The same LP with the scenario held fixed
sharpens the guarantee of the midpoint scenario without optimizing it.
"""

import numpy as np

import robustkit as rk

u, spec = rk.generate_instance(n=12, p=4, N=8, seed=7)
mid = rk.midpoint_scenario(u)

print(f"instance: n={spec.n}, p={spec.p}, N={u.n_scenarios}")
print(f"plain scenario-count guarantee: N = {u.n_scenarios}\n")

print("k   midpoint-fixed   LP-optimized")
for k in (1, 2, 3):
    mid_guarantee = rk.fixed_scenario_guarantee(u, spec, k, mid)
    t_star, scen, lam = rk.construct_lp_scenario(u, spec, k)
    print(f"{k}   {mid_guarantee:14.4f} {1 / t_star:14.4f}")

# The separation oracle behind the LP: given (c, t), it finds the most
# violated subset constraint by collecting the k smallest margins per
# scenario, or reports that none is violated.
t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
print("\nat the LP optimum no subset constraint is violated:",
      rk.separation_oracle(u, spec, 2, scen, t_star))

too_ambitious = min(1.0, t_star * 1.05)
hit = rk.separation_oracle(u, spec, 2, scen, too_ambitious)
print(f"asking for a slightly larger t = {too_ambitious:.4f} finds a violation:", hit)

# Element-wise worst case: dominates every scenario, so its fixed guarantee
# is always exactly 1 -- but it lies outside the hull of the scenarios, so
# it cannot certify a lower bound.
wc = rk.worstcase_scenario(u)
print("\nworst-case scenario fixed guarantee:", rk.fixed_scenario_guarantee(u, spec, 2, wc))
print("worst-case a-priori bound min(N, |X|):", rk.worstcase_apriori_bound(u, spec))
