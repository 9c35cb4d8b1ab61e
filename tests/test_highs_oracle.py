"""Cross-checks against scipy's HiGHS, an LP solver that shares no code with
robustkit's simplex. Test-only: skipped where scipy is not installed."""

import numpy as np
import pytest

import robustkit as rk
from robustkit.experiments import derive_seed
from test_lp import eager_scenario_lp

linprog = pytest.importorskip("scipy.optimize").linprog

CELL = (20, 6, 50)


def highs(lp, bounds=(0, None)):
    """scipy's linprog result for max lp.objective . x over lp's rows, as a minimization.

    The variables are nonnegative, as in solve_lp, unless `bounds` (in
    linprog's terms) says otherwise.
    """
    le = [(a, rhs) for a, rel, rhs in lp.constraints if rel == rk.LE]
    eq = [(a, rhs) for a, rel, rhs in lp.constraints if rel == rk.EQ]
    return linprog(
        -lp.objective,
        A_ub=np.array([a for a, _ in le]) if le else None,
        b_ub=np.array([rhs for _, rhs in le]) if le else None,
        A_eq=np.array([a for a, _ in eq]) if eq else None,
        b_eq=np.array([rhs for _, rhs in eq]) if eq else None,
        bounds=bounds,
        method="highs",
    )


def highs_max(lp, bounds=(0, None)):
    """Optimal objective of a robustkit LinearProgram (max sense) by HiGHS."""
    res = highs(lp, bounds)
    assert res.status == 0, res.message
    return -float(res.fun)


def highs_status(lp):
    """(status, objective) by HiGHS, in solve_lp's terms."""
    res = highs(lp)
    assert res.status in (0, 2, 3), res.message
    if res.status == 0:
        return "optimal", -float(res.fun)
    return ("infeasible" if res.status == 2 else "unbounded"), None


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
        # max p*mu - sum nu  s.t.  mu - nu_j <= sum_i lam_i c^i_j, lam in the simplex;
        # mu is one free column here, where robustkit splits it in two
        lp = rk.LinearProgram(objective=np.concatenate([np.zeros(n_scen), [float(spec.p)], -np.ones(n_items)]))
        for j in range(n_items):
            lp.add_constraint(np.concatenate([-u.costs[:, j], [1.0], -np.eye(n_items)[j]]), rk.LE, 0.0)
        lp.add_constraint(np.concatenate([np.ones(n_scen), [0.0], np.zeros(n_items)]), rk.EQ, 1.0)
        reference = highs_max(lp, [(0, None)] * n_scen + [(None, None)] + [(0, None)] * n_items)
        assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


def random_general_lp(rng):
    """An LP of the shapes that vertex enumeration cannot check.

    It is drawn over variables x that are nonnegative, free, bounded above
    only or boxed, and written in solve_lp's standard form over y >= 0:
    x = y, x = y+ - y- (two columns), x = up - y, or x = lo + y with the
    row y <= up - lo. Rows are <= or == with right-hand sides of either
    sign; some equalities repeat an earlier one scaled (redundant) or
    shifted (contradictory). A "min" draw negates the objective.
    """
    n = int(rng.integers(1, 7))
    kind = rng.integers(0, 4, n)  # 0: [0, inf), 1: free, 2: (-inf, up], 3: [lo, up]
    lower = np.where(kind == 0, 0.0, np.where(kind == 3, rng.uniform(-3, 0, n), -np.inf))
    upper = np.where(kind == 2, rng.uniform(-1, 3, n), np.where(kind == 3, lower + rng.uniform(0.5, 4, n), np.inf))
    anchor = np.where(np.isfinite(lower), lower, np.minimum(upper, 0.0) - 1.0) + rng.uniform(0, 0.5, n)
    objective = rng.uniform(-2, 2, n)
    if rng.choice(["max", "min"]) == "min":
        objective = -objective
    columns = []  # x = offset + M y, one column of M per column of y
    for j, e in enumerate(np.eye(n)):
        columns += [e, -e] if kind[j] == 1 else [-e if kind[j] == 2 else e]
    M = np.array(columns).T
    offset = np.where(kind == 2, upper, np.where(kind == 3, lower, 0.0))
    lp = rk.LinearProgram(objective=objective @ M)

    def add(coeffs, rel, rhs):  # the row coeffs . x rel rhs, over y
        lp.add_constraint(coeffs @ M, rel, rhs - float(coeffs @ offset))

    equalities = []
    for _ in range(int(rng.integers(0, 9))):
        coeffs = rng.normal(size=n)
        draw = rng.random()
        if draw < 0.3:
            equalities.append((coeffs, float(coeffs @ anchor)))
            add(coeffs, rk.EQ, equalities[-1][1])
        elif draw < 0.4 and equalities:
            coeffs, rhs = equalities[int(rng.integers(len(equalities)))]
            scale = rng.uniform(-3, 3)
            shift = 0.0 if rng.random() < 0.7 else rng.uniform(0.5, 2)
            add(scale * coeffs, rk.EQ, scale * rhs + shift)
        else:
            add(coeffs, rk.LE, float(coeffs @ anchor) + rng.normal())
    for j in np.flatnonzero(kind == 3):
        lp.add_constraint(M[j], rk.LE, upper[j] - lower[j])
    return lp


def test_general_lps_match_highs():
    rng = np.random.default_rng(2024)
    statuses = []
    for _ in range(300):
        lp = random_general_lp(rng)
        sol = rk.solve_lp(lp)
        status, reference = highs_status(lp)
        assert sol.status == status
        statuses.append(status)
        if status == "optimal":
            assert abs(sol.objective - reference) <= 1e-7 * max(1.0, abs(reference))
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 20, statuses
