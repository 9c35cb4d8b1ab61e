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
ub_mid, lb_mid = rk.certify(u, spec, mid, lam_mid)

t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
ub_lp, lb_lp = rk.certify(u, spec, scen, lam)

mm = rk.maxmin_certificate(u, spec)[0]
opt, x_opt = rk.exact_minmax(u, spec)

print(f"instance: n={spec.n}, p={spec.p}, N={u.n_scenarios}\n")
print(f"midpoint lower bound        {lb_mid:8.2f}")
print(f"LP-scenario lower bound     {lb_lp:8.2f}")
print(f"hull max-min lower bound    {mm:8.2f}   (never below the two above)")
print(f"exact optimum               {opt:8.2f}   at items {x_opt}")
print(f"LP-scenario upper bound     {ub_lp:8.2f}")
print(f"midpoint upper bound        {ub_mid:8.2f}")

assert lb_mid <= mm + 1e-6 and lb_lp <= mm + 1e-6
assert mm <= opt + 1e-6 <= min(ub_mid, ub_lp) + 1e-6

# The ratio view: what each method can promise vs what it delivered here.
print(f"\nmidpoint:    promised <= {rk.fixed_scenario_guarantee(u, spec, 2, mid):.3f} x optimum, delivered {rk.ratio_or_inf(ub_mid, lb_mid):.3f}")
print(f"LP scenario: promised <= {1.0 / t_star:.3f} x optimum, delivered {rk.ratio_or_inf(ub_lp, lb_lp):.3f}")
print(f"true gaps:   midpoint {ub_mid / opt:.3f}, LP {ub_lp / opt:.3f}")

# Refusing bad certificates: the element-wise worst case is outside the
# hull, so no lower bound can be claimed from it.
wc = rk.worstcase_scenario(u)
try:
    rk.certify(u, spec, wc, lam_mid)
except ValueError as exc:
    print(f"\nworst-case scenario rejected as a lower-bound source: {exc}")
