"""Cross-checks against scipy's HiGHS, an LP solver that shares no code with
robustkit's simplex. Test-only: skipped where scipy is not installed."""

import numpy as np
import pytest

import robustkit as rk
from robustkit.experiments import derive_seed
from test_lp import eager_scenario_lp

linprog = pytest.importorskip("scipy.optimize").linprog

CELL = (20, 6, 50)


def highs_max(lp):
    """Optimal objective of a robustkit LinearProgram (max sense) by HiGHS."""
    le = [(a, rhs) for a, rel, rhs in lp.constraints if rel == rk.LE]
    eq = [(a, rhs) for a, rel, rhs in lp.constraints if rel == rk.EQ]
    res = linprog(
        -lp.objective,
        A_ub=np.array([a for a, _ in le]) if le else None,
        b_ub=np.array([rhs for _, rhs in le]) if le else None,
        A_eq=np.array([a for a, _ in eq]) if eq else None,
        b_eq=np.array([rhs for _, rhs in eq]) if eq else None,
        bounds=[(None if lo == -np.inf else lo, None if up == np.inf else up) for lo, up in zip(lp.lower, lp.upper)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def cell_instances(count=2):
    n, p, N = CELL
    return [rk.generate_instance(n, p, N, derive_seed(7, n, p, N, i)) for i in range(count)]


@pytest.mark.parametrize("k", [1, 2])
def test_construction_t_star_matches_highs(k):
    for u, spec in cell_instances():
        t_star, _, _ = rk.construct_lp_scenario(u, spec, k)
        assert abs(t_star - highs_max(eager_scenario_lp(u, k))) <= 1e-9


def test_construction_t_star_beyond_k3_matches_highs():
    n, p, N = 10, 5, 10
    for i in range(3):
        u, spec = rk.generate_instance(n, p, N, derive_seed(7, n, p, N, i))
        t_star, _, _ = rk.construct_lp_scenario(u, spec, 4)
        assert abs(t_star - highs_max(eager_scenario_lp(u, 4))) <= 1e-9


def test_maxmin_certificate_matches_highs():
    for u, spec in cell_instances():
        value, lam = rk.maxmin_certificate(u, spec)
        # the weights attain the value: the p cheapest items of their scenario
        assert np.sort(lam.combine(u))[: spec.p].sum() == pytest.approx(value, rel=1e-9)
        n_scen, n_items = u.costs.shape
        # max p*mu - sum nu  s.t.  mu - nu_j <= sum_i lam_i c^i_j, lam in the simplex
        lp = rk.LinearProgram(
            objective=np.concatenate([np.zeros(n_scen), [float(spec.p)], -np.ones(n_items)]),
            lower=np.concatenate([np.zeros(n_scen), [-np.inf], np.zeros(n_items)]),
        )
        for j in range(n_items):
            lp.add_constraint(np.concatenate([-u.costs[:, j], [1.0], -np.eye(n_items)[j]]), rk.LE, 0.0)
        lp.add_constraint(np.concatenate([np.ones(n_scen), [0.0], np.zeros(n_items)]), rk.EQ, 1.0)
        reference = highs_max(lp)
        assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))
