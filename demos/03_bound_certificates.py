"""The full sandwich of bounds on one random instance.

Every hull scenario certifies a lower bound through its nominal optimum;
the best such bound over the whole hull comes from a compact dual LP.
Upper bounds come from evaluating any solution against all scenarios.
At desk scale the exact optimum sits verifiably in between.
"""

import numpy as np

import robustkit as rk

u, spec = rk.generate_instance(n=10, p=3, N=10, seed=2024)

mid = rk.midpoint_scenario(u)
lam_mid = rk.ConvexWeights.uniform(u.n_scenarios)
x_mid = rk.nominal_solve(spec, mid)
lb_mid = rk.lower_bound(u, spec, mid, lam_mid)
ub_mid = rk.upper_bound(u, x_mid)

t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
x_lp = rk.nominal_solve(spec, scen)
lb_lp = rk.lower_bound(u, spec, scen, lam)
ub_lp = rk.upper_bound(u, x_lp)

mm = rk.maxmin_certificate(u, spec)[0]
opt, x_opt = rk.exact_minmax(u, spec)

print(f"instance: n={spec.n}, p={spec.p}, N={u.n_scenarios}\n")
print(f"midpoint lower bound        {lb_mid:8.2f}")
print(f"LP-scenario lower bound     {lb_lp:8.2f}")
print(f"hull max-min lower bound    {mm:8.2f}   (never below the two above)")
print(f"exact optimum               {opt:8.2f}   at items {x_opt.selected}")
print(f"LP-scenario upper bound     {ub_lp:8.2f}")
print(f"midpoint upper bound        {ub_mid:8.2f}")

assert lb_mid <= mm + 1e-6 and lb_lp <= mm + 1e-6
assert mm <= opt + 1e-6 <= min(ub_mid, ub_lp) + 1e-6

# The ratio view: what each method can promise vs what it delivered here.
mid_report = rk.aposteriori_report(u, spec, mid, lam_mid, k=2, apriori=rk.fixed_scenario_guarantee(u, mid, 2))
lp_report = rk.aposteriori_report(u, spec, scen, lam, k=2, apriori=1.0 / t_star)
print(f"\nmidpoint:    promised <= {mid_report.apriori:.3f} x optimum, delivered {mid_report.aposteriori:.3f}")
print(f"LP scenario: promised <= {lp_report.apriori:.3f} x optimum, delivered {lp_report.aposteriori:.3f}")
print(f"true gaps:   midpoint {ub_mid / opt:.3f}, LP {ub_lp / opt:.3f}")

# Refusing bad certificates: the element-wise worst case is outside the
# hull, so no lower bound can be claimed from it.
wc = rk.worstcase_scenario(u)
try:
    rk.lower_bound(u, spec, wc, lam_mid)
except ValueError as exc:
    print(f"\nworst-case scenario rejected as a lower-bound source: {exc}")
