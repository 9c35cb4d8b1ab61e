"""Cross-checks against scipy's HiGHS, an LP solver that shares no code with
robustkit's simplex. Test-only: skipped where scipy is not installed."""

import itertools

import numpy as np
import pytest

import robustkit as rk
from robustkit.experiments import derive_seed
from test_lp import outcome

linprog = pytest.importorskip("scipy.optimize").linprog
sparse = pytest.importorskip("scipy.sparse")

CELL = (20, 6, 50)


def eager_scenario_lp(u, k):
    """The guarantee LP in its hull form, with all N * C(n, k) subset rows materialized.

    Over [t, lam_1..lam_N] >= 0 it maximizes t subject to the simplex row
    sum lam = 1 (two opposite rows), t <= 1 and t * a(i, S) <= sum_m lam_m
    a(m, S) for every (i, S). This is the formulation before the
    substitution mu = lam / t, so it shares no row with scenario_lp's
    covering form. Its objective t is positive, so solve_lp refuses it:
    only HiGHS solves it.
    """
    N = u.n_scenarios
    head = np.zeros((3, 1 + N))
    head[0, 1:], head[1, 1:], head[2, 0] = 1.0, -1.0, 1.0
    rows = []
    for subset in itertools.combinations(range(u.n_items), k):
        sums = u.costs[:, subset].sum(axis=1)
        for i in range(N):
            rows.append(np.concatenate(([sums[i]], -sums)))
    return rk.LinearProgram(np.eye(1 + N)[0], np.vstack([head] + rows), np.concatenate(([1.0, -1.0, 1.0], np.zeros(len(rows)))))


def highs(lp, bounds=(0, None)):
    """scipy's linprog result for max lp.objective . x over lp's rows, as a minimization.

    The variables are nonnegative, as in solve_lp, unless `bounds` (in
    linprog's terms) says otherwise.
    """
    rows = len(lp.rhs) > 0
    return linprog(
        -lp.objective,
        A_ub=lp.constraints if rows else None,
        b_ub=lp.rhs if rows else None,
        bounds=bounds,
        method="highs",
    )


def highs_max(lp, bounds=(0, None)):
    """Optimal objective of a robustkit LinearProgram (max sense) by HiGHS."""
    res = highs(lp, bounds)
    assert res.status == 0, res.message
    return -float(res.fun)


def highs_outcome(lp):
    """(outcome, objective) by HiGHS, in the terms of test_lp.outcome."""
    res = highs(lp)
    assert res.status in (0, 2), res.message
    return ("optimal", -float(res.fun)) if res.status == 0 else ("infeasible", None)


def cell_instances(count=2):
    n, p, N = CELL
    return [rk.generate_instance(n, p, N, derive_seed(7, n, p, N, i)) for i in range(count)]


@pytest.mark.parametrize("k", [1, 2])
def test_construction_t_star_matches_highs(k):
    for u, spec in cell_instances():
        t_star, _, _ = rk.construct_lp_scenario(u, spec, k)
        assert abs(t_star - highs_max(eager_scenario_lp(u, k))) <= 1e-9


def test_construction_t_star_beyond_k3_matches_highs():
    # (8,4,5) at k = p = 4: HiGHS solves all N * C(8, 4) = 350 rows, the
    # ones of every solution, and the oracle finds no cut at the optimum
    for n, p, N, k in [(10, 5, 10, 4), (8, 4, 5, 4)]:
        for i in range(3):
            u, spec = rk.generate_instance(n, p, N, derive_seed(7, n, p, N, i))
            t_star, scenario, _ = rk.construct_lp_scenario(u, spec, k)
            assert abs(t_star - highs_max(eager_scenario_lp(u, k))) <= 1e-9
            assert rk.separation_oracle(u, spec, k, scenario, t_star) is None


def test_zero_cost_corners_match_the_hull_form():
    # the covering form leaves out the rows of a scenario or an item without
    # cost, where a(i, S) = 0; the hull form keeps them
    base = np.array([[3.0, 1.0, 4.0, 2.0, 6.0], [2.0, 5.0, 1.0, 3.0, 2.0], [4.0, 2.0, 2.0, 5.0, 1.0]])
    for zero in range(4):
        costs = base.copy()
        if zero < 3:
            costs[zero] = 0.0
        else:
            costs[:, 1] = 0.0
        u, spec = rk.UncertaintySet(costs), rk.Selection(n=5, p=3)
        for k in (1, 2, 3):
            assert abs(rk.construct_lp_scenario(u, spec, k)[0] - highs_max(eager_scenario_lp(u, k))) <= 1e-9


def compact_t_star(u, k):
    """t* of the guarantee LP by HiGHS, in a compact form that needs no subset rows.

    The k smallest values of v = c - t * c^i sum to at least 0 exactly
    when some free mu_i and nu_ij >= 0 satisfy mu_i - nu_ij <= v_j and
    k * mu_i - sum_j nu_ij >= 0 (LP duality). The variables are
    [t, lam, mu, nu], one row per (i, j), per i, and the simplex row.
    """
    N, n = u.costs.shape
    head = np.zeros((N * n, 1 + 2 * N))  # row i * n + j, over [t, lam, mu]
    head[:, 0] = u.costs.ravel()
    head[:, 1 : 1 + N] = -np.tile(u.costs.T, (N, 1))
    head[:, 1 + N :] = np.repeat(np.eye(N), n, axis=0)
    pair = sparse.hstack([sparse.csr_matrix(head), -sparse.identity(N * n)])
    total = sparse.hstack([sparse.csr_matrix((N, 1 + N)), -k * sparse.identity(N), sparse.kron(sparse.identity(N), np.ones((1, n)))])
    width = 1 + 2 * N + N * n
    res = linprog(
        -np.eye(width)[0],
        A_ub=sparse.vstack([pair, total]).tocsr(),
        b_ub=np.zeros(N * n + N),
        A_eq=np.concatenate([[0.0], np.ones(N), np.zeros(width - 1 - N)])[None, :],
        b_eq=[1.0],
        bounds=[(0, 1)] + [(0, None)] * N + [(None, None)] * N + [(0, None)] * (N * n),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def test_compact_t_star_matches_the_eager_lp():
    for u, _ in cell_instances(1):
        for k in (1, 2):
            assert abs(compact_t_star(u, k) - highs_max(eager_scenario_lp(u, k))) <= 1e-9


# the paper cells, both shapes with n > N + 1, and a gap in ks
@pytest.mark.parametrize(
    "cell, ks",
    [((10, 3, 10), (1, 2, 3)), ((20, 6, 50), (1, 2, 3)), ((30, 9, 100), (1, 2, 3)), ((400, 5, 9), (1, 2, 3)), ((40, 3, 5), (1, 2, 3)), ((20, 6, 50), (1, 3))],
)
def test_seeded_construction_t_star_matches_unseeded_and_highs(cell, ks, monkeypatch):
    base, scenario_lp = [], rk.scenarios.scenario_lp
    monkeypatch.setattr("robustkit.scenarios.scenario_lp", lambda u, rows: base.append(scenario_lp(u, rows)) or base[-1])
    for i in range(2):
        u, spec = rk.generate_instance(*cell, derive_seed(7, *cell, i))
        start = None
        for k in ks:
            t_star, scenario, _ = rk.construct_lp_scenario(u, spec, k, start=start)
            if start is not None:
                assert base[-1].rhs.size  # the solve at k is seeded
            start = k, t_star, scenario
            assert t_star == pytest.approx(rk.construct_lp_scenario(u, spec, k)[0], rel=1e-9, abs=0)
            assert abs(t_star - compact_t_star(u, k)) <= 1e-9


def test_maxmin_certificate_matches_highs():
    for u, spec in cell_instances():
        value, lam = rk.maxmin_certificate(u, spec)
        # the weights attain the value: the p cheapest items of their scenario
        assert np.sort(lam.combine(u))[: spec.p].sum() == pytest.approx(value, rel=1e-9)
        n_scen, n_items = u.costs.shape
        # max p*mu - sum nu  s.t.  mu - nu_j <= sum_i lam_i c^i_j, lam in the simplex;
        # mu is free here, where robustkit keeps it nonnegative
        rows = [np.concatenate([-u.costs[:, j], [1.0], -np.eye(n_items)[j]]) for j in range(n_items)]
        simplex = np.concatenate([np.ones(n_scen), [0.0], np.zeros(n_items)])
        rows += [simplex, -simplex]  # sum lam == 1, as two opposite rows
        rhs = np.concatenate([np.zeros(n_items), [1.0, -1.0]])
        lp = rk.LinearProgram(np.concatenate([np.zeros(n_scen), [float(spec.p)], -np.ones(n_items)]), rows, rhs)
        reference = highs_max(lp, [(0, None)] * n_scen + [(None, None)] + [(0, None)] * n_items)
        assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


def highs_minmax_relaxation(u, spec):
    """The selection min-max LP relaxation by HiGHS: min z s.t. c^i . x <= z, 0 <= x <= 1, sum x = p.

    By LP duality it equals the max-min value, from the other side of the
    duality and in another form than maxmin_certificate's.
    """
    n_scen, n_items = u.costs.shape
    res = linprog(
        np.eye(1 + n_items)[0],
        A_ub=np.hstack([-np.ones((n_scen, 1)), u.costs]),
        b_ub=np.zeros(n_scen),
        A_eq=np.concatenate([[0.0], np.ones(n_items)])[None, :],
        b_eq=[float(spec.p)],
        bounds=[(None, None)] + [(0, 1)] * n_items,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def test_maxmin_with_p_minus_one_items_without_cost_matches_highs():
    rng = np.random.default_rng(12)
    for p in (2, 3, 4):
        costs = rng.integers(0, 101, size=(4, 7)).astype(float)
        costs[:, rng.choice(7, p - 1, replace=False)] = 0.0
        u, spec = rk.UncertaintySet(costs), rk.Selection(n=7, p=p)
        value = rk.maxmin_certificate(u, spec)[0]
        assert value > 0.0
        assert value == pytest.approx(highs_minmax_relaxation(u, spec), rel=1e-9)


def random_general_lp(rng):
    """An LP of the shapes that vertex enumeration cannot check.

    It is drawn over variables x that are nonnegative, free, bounded above
    only or boxed, and written in solve_lp's standard form over y >= 0:
    x = y, x = y+ - y- (two columns), x = up - y, or x = lo + y with the
    row y <= up - lo. Rows are <= or == with right-hand sides of either
    sign, an == row written as two opposite <= rows; some equalities
    repeat an earlier one scaled (redundant) or shifted (contradictory).
    The objective over y is <= 0, as solve_lp requires: x's entry is <= 0
    where x = y or x = lo + y, >= 0 where x = up - y, and 0 for a free x,
    whose two columns would otherwise price in opposite signs.
    """
    n = int(rng.integers(1, 7))
    kind = rng.integers(0, 4, n)  # 0: [0, inf), 1: free, 2: (-inf, up], 3: [lo, up]
    lower = np.where(kind == 0, 0.0, np.where(kind == 3, rng.uniform(-3, 0, n), -np.inf))
    upper = np.where(kind == 2, rng.uniform(-1, 3, n), np.where(kind == 3, lower + rng.uniform(0.5, 4, n), np.inf))
    anchor = np.where(np.isfinite(lower), lower, np.minimum(upper, 0.0) - 1.0) + rng.uniform(0, 0.5, n)
    objective = rng.uniform(0, 2, n) * np.select([kind == 1, kind == 2], [0.0, 1.0], -1.0)
    columns = []  # x = offset + M y, one column of M per column of y
    for j, e in enumerate(np.eye(n)):
        columns += [e, -e] if kind[j] == 1 else [-e if kind[j] == 2 else e]
    M = np.array(columns).T
    offset = np.where(kind == 2, upper, np.where(kind == 3, lower, 0.0))
    rows, bounds = [], []

    def add(coeffs, bound, is_eq):  # the row coeffs . x <= bound (== if is_eq), over y
        rows.append(coeffs @ M)
        bounds.append(bound - float(coeffs @ offset))
        if is_eq:
            rows.append(-rows[-1])
            bounds.append(-bounds[-1])

    equalities = []
    for _ in range(int(rng.integers(0, 9))):
        coeffs = rng.normal(size=n)
        draw = rng.random()
        if draw < 0.3:
            equalities.append((coeffs, float(coeffs @ anchor)))
            add(coeffs, equalities[-1][1], True)
        elif draw < 0.4 and equalities:
            coeffs, rhs = equalities[int(rng.integers(len(equalities)))]
            scale = rng.uniform(-3, 3)
            shift = 0.0 if rng.random() < 0.7 else rng.uniform(0.5, 2)
            add(scale * coeffs, scale * rhs + shift, True)
        else:
            add(coeffs, float(coeffs @ anchor) + rng.normal(), False)
    for j in np.flatnonzero(kind == 3):  # y_j <= up - lo, a row over y already
        rows.append(M[j])
        bounds.append(upper[j] - lower[j])
    return rk.LinearProgram(objective @ M, np.reshape(rows, (-1, M.shape[1])), bounds)


def test_general_lps_match_highs():
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(300):
        lp = random_general_lp(rng)
        want, reference = highs_outcome(lp)
        assert outcome(lp) == want
        outcomes.append(want)
        if want == "optimal":
            assert abs(rk.solve_lp(lp).objective - reference) <= 1e-7 * max(1.0, abs(reference))
    assert min(outcomes.count(s) for s in ("optimal", "infeasible")) >= 20, outcomes
