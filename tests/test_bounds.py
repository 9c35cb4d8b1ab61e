import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from robustkit import bounds as bounds_module
from robustkit.bounds import BudgetError


def brute_force_minmax(u, spec):
    """No-pruning reference: evaluate every feasible subset.

    Per-scenario sums are accumulated item by item in ascending midpoint
    order (index breaking ties), the order exact_minmax documents, so the
    values agree bit for bit with fractional costs too.
    """
    mid = u.costs.mean(axis=0)
    best = None
    for combo in itertools.combinations(range(spec.n), spec.p):
        ordered = sorted(combo, key=lambda j: (mid[j], j))
        value = float(np.cumsum(u.costs[:, ordered], axis=1)[:, -1].max())
        if best is None or (value, combo) < best:
            best = (value, combo)
    return best


def vectorized_brute_force(u, spec):
    """Every subset at once; for integer costs, where summation order is exact."""
    combos = np.array(list(itertools.combinations(range(spec.n), spec.p)))
    acc = np.zeros((u.n_scenarios, combos.shape[0]))
    for t in range(spec.p):
        acc += u.costs[:, combos[:, t]]
    values = acc.max(axis=0)
    best = int(np.argmin(values))  # first minimum: combinations come in lexicographic order
    return float(values[best]), tuple(int(j) for j in combos[best])


def tie_heavy_selection(data):
    n = data.draw(st.integers(1, 9), label="n")
    p = data.draw(st.integers(1, n), label="p")
    n_scen = data.draw(st.integers(1, 5), label="N")
    flat = data.draw(st.lists(st.integers(0, 3), min_size=n * n_scen, max_size=n * n_scen), label="costs")
    return np.array(flat, dtype=float).reshape(n_scen, n), rk.Selection(n=n, p=p)


def simplex_grid(n_parts, steps):
    if n_parts == 1:
        yield (steps,)
        return
    for head in range(steps + 1):
        for rest in simplex_grid(n_parts - 1, steps - head):
            yield (head,) + rest


class TestUpperBound:
    def test_table1_midpoint_solution(self, table1):
        u, _ = table1
        assert rk.upper_bound(u, rk.BinarySolution((0, 2))) == 12.0  # max(8, 12, 4)

    def test_table1_lp_solution(self, table1):
        u, _ = table1
        assert rk.upper_bound(u, rk.BinarySolution((0, 3))) == 10.0

    def test_zero_costs(self):
        u = rk.UncertaintySet(np.zeros((2, 3)))
        assert rk.upper_bound(u, rk.BinarySolution((0, 1))) == 0.0


class TestLowerBound:
    def test_table1_midpoint(self, table1):
        u, _ = table1
        mid = rk.midpoint_scenario(u)
        lam = rk.ConvexWeights.uniform(3)
        assert rk.lower_bound(u, mid, lam, rk.BinarySolution((0, 2))) == pytest.approx(8.0)

    def test_table1_lp_scenario(self, table1):
        u, spec = table1
        _, scen, lam = rk.construct_lp_scenario(u, spec, 1)
        x = rk.nominal_solve(spec, scen)
        assert rk.lower_bound(u, scen, lam, x) == pytest.approx(9.25, abs=1e-6)

    def test_single_scenario_equals_nominal_optimum(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        c = u.scenario(0)
        x = rk.nominal_solve(spec, c)
        lb = rk.lower_bound(u, c, rk.ConvexWeights.unit(1, 0), x)
        assert lb == 4.0  # 1 + 3

    def test_rejects_cost_vector_of_wrong_length(self, table1):
        u, _ = table1
        with pytest.raises(ValueError, match="cost vector has length 1, expected 4"):
            rk.lower_bound(u, [0.0], rk.ConvexWeights.uniform(3), rk.BinarySolution((0,)))

    def test_rejects_nan_scenario(self, table1):
        # a NaN hull gap compares False against any tolerance
        u, _ = table1
        with pytest.raises(ValueError, match="convex hull"):
            rk.lower_bound(u, [np.nan, 1.0, 1.0, 1.0], rk.ConvexWeights.uniform(3), rk.BinarySolution((1,)))

    def test_rejects_uncertified_scenario(self, table1):
        u, _ = table1
        wc = rk.worstcase_scenario(u)
        lam = rk.ConvexWeights.uniform(3)  # does not reproduce the worst case
        with pytest.raises(ValueError, match="convex hull"):
            rk.lower_bound(u, wc, lam, rk.BinarySolution((0, 1)))


class TestAposterioriReport:
    def test_table1_midpoint(self, table1):
        u, spec = table1
        report = rk.aposteriori_report(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(3), k=1)
        assert report.lb == pytest.approx(8.0)
        assert report.ub == pytest.approx(12.0)
        assert report.aposteriori == pytest.approx(1.50, abs=1e-9)
        assert report.apriori == pytest.approx(27 / 13, abs=1e-6)
        assert report.scenario_provenance == "midpoint"

    def test_table1_lp_k1(self, table1):
        u, spec = table1
        t_star, scen, lam = rk.construct_lp_scenario(u, spec, 1)
        report = rk.aposteriori_report(u, spec, scen, lam, apriori=1.0 / t_star)
        assert report.aposteriori == pytest.approx(10.0 / 9.25, abs=0.001)
        assert report.aposteriori == pytest.approx(1.08, abs=0.01)
        assert report.k_used == 1

    def test_single_scenario_ratio_is_one(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        report = rk.aposteriori_report(u, spec, u.scenario(0), rk.ConvexWeights.unit(1, 0), k=1)
        assert report.aposteriori == pytest.approx(1.0)

    def test_k_above_solution_cardinality_refused(self, table1):
        u, spec = table1  # p = 2
        with pytest.raises(ValueError, match="cardinality"):
            rk.aposteriori_report(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(3), k=3)

    def test_aposteriori_never_exceeds_apriori(self):
        rng = np.random.default_rng(555)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            n_scen = int(rng.integers(2, 6))
            u = rk.UncertaintySet(rng.integers(0, 101, size=(n_scen, n)).astype(float))
            spec = rk.Selection(n=n, p=3)
            mid_report = rk.aposteriori_report(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(n_scen), k=2)
            assert mid_report.aposteriori <= mid_report.apriori + rk.EPS_CMP
            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            lp_report = rk.aposteriori_report(u, spec, scen, lam, apriori=1.0 / t_star)
            assert lp_report.aposteriori <= lp_report.apriori + rk.EPS_CMP


class TestMaxMin:
    def test_table1_reaches_opt(self, table1):
        u, spec = table1
        # oracle: at weights (0,1,0) the hull scenario is row 2 and its
        # nominal optimum is 10; the bound also cannot exceed OPT = 10
        c2 = u.costs[1]
        nominal_at_c2 = min(sum(c2[list(combo)]) for combo in itertools.combinations(range(4), 2))
        assert nominal_at_c2 == 10.0
        opt, _ = rk.exact_minmax(u, spec)
        value = rk.maxmin_certificate(u, spec)[0]
        assert value == pytest.approx(10.0, abs=1e-9)
        assert value <= opt + 1e-9

    def test_single_scenario(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        x = rk.nominal_solve(spec, u.scenario(0))
        assert rk.maxmin_certificate(u, spec)[0] == pytest.approx(x.cost(u.costs[0]))

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(808)
        u = rk.UncertaintySet(rng.integers(0, 101, size=(4, 8)).astype(float))
        spec = rk.Selection(n=8, p=3)
        grid_best = 0.0
        for comp in simplex_grid(4, 50):  # simplex grid of step 0.02
            lam = np.array(comp) / 50.0
            values = lam @ u.costs
            grid_best = max(grid_best, float(np.sort(values)[:3].sum()))
        value = rk.maxmin_certificate(u, spec)[0]
        opt, _ = rk.exact_minmax(u, spec)
        assert value >= grid_best - 1e-6  # grid is a lower bound on the LP optimum
        assert value <= opt + 1e-6

    def test_dominates_hull_scenario_bounds(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            u = rk.UncertaintySet(rng.integers(0, 101, size=(5, 7)).astype(float))
            spec = rk.Selection(n=7, p=3)
            value = rk.maxmin_certificate(u, spec)[0]
            mid = rk.midpoint_scenario(u)
            xatmid = rk.nominal_solve(spec, mid)
            assert rk.lower_bound(u, mid, rk.ConvexWeights.uniform(5), xatmid) <= value + 1e-6
            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            xatlp = rk.nominal_solve(spec, scen)
            assert rk.lower_bound(u, scen, lam, xatlp) <= value + 1e-6

    def test_rejects_shortest_path(self):
        spec = rk.ShortestPath(edges=((0, 1), (1, 2)), source=0, sink=2)
        u = rk.UncertaintySet(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="selection"):
            rk.maxmin_certificate(u, spec)

    def test_weights_certify_the_bound(self, table1):
        u, spec = table1
        value, lam = rk.maxmin_certificate(u, spec)
        scenario = rk.Scenario(lam.combine(u))
        x = rk.nominal_solve(spec, scenario)
        assert x.cost(scenario.values) == pytest.approx(value, abs=1e-8)


class TestExactMinMax:
    def test_table1(self, table1):
        u, spec = table1
        opt, solution = rk.exact_minmax(u, spec)
        assert opt == 10.0
        assert solution.selected == (0, 3)  # items 1 and 4

    def test_single_scenario_reduces_to_nominal(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        opt, solution = rk.exact_minmax(u, spec)
        x = rk.nominal_solve(spec, u.scenario(0))
        assert opt == x.cost(u.costs[0])
        assert solution == x

    def test_matches_no_pruning_reference(self):
        u, spec = rk.generate_instance(16, 6, 8, seed=321)
        opt, solution = rk.exact_minmax(u, spec)
        ref_value, ref_combo = brute_force_minmax(u, spec)
        assert opt == ref_value
        assert solution.selected == ref_combo

    def test_lexicographic_tie_break(self):
        # both pairs reach the same worst case; (0, 1) must win
        u = rk.UncertaintySet(np.array([[1.0, 1.0, 1.0, 1.0]]))
        opt, solution = rk.exact_minmax(u, rk.Selection(n=4, p=2))
        assert opt == 2.0
        assert solution.selected == (0, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tie_heavy_matches_brute_force(self, data):
        costs, spec = tie_heavy_selection(data)
        u = rk.UncertaintySet(costs)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution.selected) == brute_force_minmax(u, spec)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fractional_costs_match_brute_force(self, data):
        # sums of sevenths round differently in different orders, so the
        # completion bound must not prune a completion that ties the incumbent
        costs, spec = tie_heavy_selection(data)
        u = rk.UncertaintySet(costs / 7)
        opt, solution = rk.exact_minmax(u, spec)
        ref_value, ref_combo = brute_force_minmax(u, spec)
        assert opt == ref_value
        assert solution.selected == ref_combo

    def test_incumbent_valued_in_search_order(self):
        # the midpoint incumbent (0, 1, 2, 3) is optimal; its sum in index
        # order is one ulp below its sum in midpoint order
        u = rk.UncertaintySet(
            np.array([[3, 3, 3, 1, 3], [3, 0, 1, 2, 2], [2, 0, 1, 0, 3], [0, 1, 3, 2, 2], [1, 3, 2, 2, 1]]) / 7
        )
        spec = rk.Selection(n=5, p=4)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution.selected) == brute_force_minmax(u, spec)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_mid_pool_cell_matches_vectorized_brute_force(self, seed):
        u, spec = rk.generate_instance(20, 6, 50, seed=seed)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution.selected) == vectorized_brute_force(u, spec)

    def test_deep_instances_need_no_recursion(self):
        # the search stack grows with n, far beyond Python's recursion limit
        assert rk.exact_minmax(rk.UncertaintySet(np.ones((2, 1500))), rk.Selection(1500, 2)) == (
            2.0,
            rk.BinarySolution((0, 1)),
        )
        assert rk.exact_minmax(rk.UncertaintySet(np.ones((2, 1500))), rk.Selection(1500, 1500)) == (
            1500.0,
            rk.BinarySolution(tuple(range(1500))),
        )

    @pytest.mark.parametrize("n_scen", [2, 8])
    def test_deep_instances_stay_small(self, n_scen):
        # the bound table holds only the reachable band of missing counts,
        # and every block stays within the block budget
        u = rk.UncertaintySet(np.ones((n_scen, 1500)))
        tracemalloc.start()
        try:
            for p in (2, 1500):
                assert rk.exact_minmax(u, rk.Selection(1500, p))[0] == float(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_one_node_blocks_agree(self, data, fractional):
        # with a budget of one cell every block is one node and the beam is
        # one wide; ties must still resolve to the same subset
        costs, spec = tie_heavy_selection(data)
        u = rk.UncertaintySet(costs / 7 if fractional else costs)
        opt, solution = rk.exact_minmax(u, spec)
        with mock.patch.object(bounds_module, "_BLOCK_CELLS", 1):
            assert rk.exact_minmax(u, spec) == (opt, solution)

    @pytest.mark.parametrize("block_cells", [1, 1 << 12])
    def test_mid_pool_cell_with_small_blocks(self, monkeypatch, block_cells):
        monkeypatch.setattr(bounds_module, "_BLOCK_CELLS", block_cells)
        u, spec = rk.generate_instance(20, 6, 50, seed=5)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution.selected) == vectorized_brute_force(u, spec)

    def test_budget_refusal(self):
        u = rk.UncertaintySet(np.ones((1, 40)))
        with pytest.raises(BudgetError, match="exceed"):
            rk.exact_minmax(u, rk.Selection(n=40, p=20))

    def test_path_budget_crossed_mid_walk(self, monkeypatch):
        # four s-t paths; the cap of 2 is crossed at the third, after two evaluations
        spec = rk.ShortestPath(
            edges=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (1, 2)), source=0, sink=3
        )
        u = rk.UncertaintySet(np.ones((1, 6)))
        assert len(list(rk.enumerate_solutions(spec))) == 4
        evaluated = []
        real = bounds_module.upper_bound

        def counting(u_, x):
            evaluated.append(x.selected)
            return real(u_, x)

        monkeypatch.setattr(bounds_module, "upper_bound", counting)
        monkeypatch.setattr(bounds_module, "MAX_ENUMERATION", 2)
        with pytest.raises(BudgetError, match="more than 2"):
            rk.exact_minmax(u, spec)
        assert len(evaluated) == 2
        monkeypatch.setattr(bounds_module, "MAX_ENUMERATION", 4)
        assert rk.exact_minmax(u, spec) == (1.0, rk.BinarySolution((4,)))

    def test_shortest_path(self):
        spec = rk.ShortestPath(edges=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3)), source=0, sink=3)
        u = rk.UncertaintySet(np.array([[1.0, 1.0, 9.0, 9.0, 5.0], [9.0, 9.0, 1.0, 1.0, 5.0]]))
        opt, solution = rk.exact_minmax(u, spec)
        # oracle: path values are max(2,18)=18, max(18,2)=18, max(5,5)=5
        assert opt == 5.0
        assert solution.selected == (4,)

    @pytest.mark.slow
    def test_pruning_matches_reference_at_scale(self):
        u, spec = rk.generate_instance(30, 9, 10, seed=11)
        opt, solution = rk.exact_minmax(u, spec)
        ref_value, ref_combo = brute_force_minmax(u, spec)
        assert opt == ref_value
        assert solution.selected == ref_combo


class TestSandwich:
    def test_bounds_order_on_random_instances(self):
        rng = np.random.default_rng(9001)
        for _ in range(15):
            n = int(rng.integers(5, 11))
            n_scen = int(rng.integers(1, 7))
            u = rk.UncertaintySet(rng.integers(0, 101, size=(n_scen, n)).astype(float))
            spec = rk.Selection(n=n, p=3)
            opt, _ = rk.exact_minmax(u, spec)
            mm = rk.maxmin_certificate(u, spec)[0]

            mid = rk.midpoint_scenario(u)
            lam_mid = rk.ConvexWeights.uniform(n_scen)
            x_mid = rk.nominal_solve(spec, mid)
            lb_mid = rk.lower_bound(u, mid, lam_mid, x_mid)
            ub_mid = rk.upper_bound(u, x_mid)

            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            x_lp = rk.nominal_solve(spec, scen)
            lb_lp = rk.lower_bound(u, scen, lam, x_lp)
            ub_lp = rk.upper_bound(u, x_lp)

            eps = rk.EPS_CMP
            assert lb_mid <= mm + eps and lb_lp <= mm + eps
            assert mm <= opt + eps * max(1.0, opt)
            assert opt <= ub_mid + eps and opt <= ub_lp + eps

            # guarantee validity for all three scenario methods
            assert ub_mid <= n_scen * opt + eps * max(1.0, opt)
            assert ub_lp <= (1.0 / t_star) * opt + eps * max(1.0, opt)
            x_wc = rk.nominal_solve(spec, rk.worstcase_scenario(u))
            assert rk.upper_bound(u, x_wc) <= rk.worstcase_apriori_bound(u, spec) * opt + eps * max(1.0, opt)


@pytest.mark.parametrize(
    "call",
    [
        lambda u, spec: rk.construct_lp_scenario(u, spec, 2),
        rk.worstcase_apriori_bound,
        rk.maxmin_certificate,
        rk.exact_minmax,
    ],
    ids=["construct_lp_scenario", "worstcase_apriori_bound", "maxmin_certificate", "exact_minmax"],
)
def test_spec_of_the_wrong_size_is_refused(call):
    u, _ = rk.generate_instance(10, 3, 4, seed=1)
    with pytest.raises(ValueError, match="spec has n=4 but uncertainty set has 10 items"):
        call(u, rk.Selection(4, 2))
