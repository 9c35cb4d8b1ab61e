import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from conftest import COST_SCALES, paper_cell_instances
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
    """No-pruning reference for integer costs, where every sum is exact in int32.

    Every subset is a prefix of p - r items followed by r = min(p, 5)
    items after the prefix's last. The sums of all r-subsets of items
    s..n-1, in lexicographic order, are built once per s from s = n down,
    by S(s, k) = [c_s + S(s+1, k-1) | S(s+1, k)]. Each prefix, in
    lexicographic order, adds its sum to its table, so the subsets come in
    lexicographic order and the first minimum of the worst case over
    scenarios takes value ties to the smallest tuple.
    """
    costs = u.costs.astype(np.int32)
    n, p, r = spec.n, spec.p, min(spec.p, 5)
    assert np.array_equal(costs, u.costs) and p * int(costs.max(initial=0)) < 2**31
    level = [np.zeros((u.n_scenarios, 1), np.int32)] + [np.zeros((u.n_scenarios, 0), np.int32)] * r  # S(n, 0..r)
    tables = {}
    for s in range(n - 1, p - r - 1, -1):
        level = level[:1] + [np.concatenate((costs[:, s, None] + level[k - 1], level[k]), axis=1) for k in range(1, r + 1)]
        tables[s] = level[r]
    best = (math.inf,)
    for prefix in itertools.combinations(range(n - r), p - r):
        s = prefix[-1] + 1 if prefix else 0
        values = (tables[s] + costs[:, list(prefix)].sum(axis=1, dtype=np.int32)[:, None]).max(axis=0)
        b = int(values.argmin())  # first minimum
        if values[b] < best[0]:
            best = (int(values[b]), prefix, s, b)
    value, prefix, s, b = best
    return float(value), prefix + next(itertools.islice(itertools.combinations(range(s, n), r), b, None))


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
        assert rk.upper_bound(u, (0, 2)) == 12.0  # max(8, 12, 4)

    def test_table1_lp_solution(self, table1):
        u, _ = table1
        assert rk.upper_bound(u, (0, 3)) == 10.0

    def test_zero_costs(self):
        u = rk.UncertaintySet(np.zeros((2, 3)))
        assert rk.upper_bound(u, (0, 1)) == 0.0

    def test_empty_selection(self, table1):
        u, _ = table1
        assert rk.upper_bound(u, ()) == 0.0

    def test_sums_the_indexed_items_in_any_order(self):
        u = rk.UncertaintySet(np.array([[5.0, 8, 9, 7]]))
        assert rk.upper_bound(u, (0, 3)) == rk.upper_bound(u, (3, 0)) == 12.0

    def test_refuses_repeated_index(self, table1):
        # numpy would count item 1 twice
        with pytest.raises(ValueError, match="distinct and nonnegative"):
            rk.upper_bound(table1[0], (1, 1))

    def test_refuses_negative_index(self, table1):
        # numpy would wrap -1 around to the last item
        with pytest.raises(ValueError, match="distinct and nonnegative"):
            rk.upper_bound(table1[0], (-1, 0))


class TestLowerBound:
    """certify's lb: the nominal minimum of a scenario the weights certify inside the hull."""

    def test_table1_midpoint(self, table1):
        u, spec = table1
        mid = rk.midpoint_scenario(u)
        lam = rk.ConvexWeights.uniform(3)
        assert rk.certify(u, spec, mid, lam)[1] == pytest.approx(8.0)

    def test_table1_lp_scenario(self, table1):
        u, spec = table1
        _, scen, lam = rk.construct_lp_scenario(u, spec, 1)
        assert rk.certify(u, spec, scen, lam)[1] == pytest.approx(9.25, abs=1e-6)

    def test_single_scenario_equals_nominal_optimum(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        lb = rk.certify(u, spec, u.costs[0], rk.ConvexWeights([1.0]))[1]
        assert lb == 4.0  # 1 + 3

    def test_rejects_cost_vector_of_wrong_length(self, table1):
        u, spec = table1
        with pytest.raises(ValueError, match="cost vector has length 1, expected 4"):
            rk.certify(u, spec, [0.0], rk.ConvexWeights.uniform(3))

    def test_rejects_nan_scenario(self, table1):
        # refused as a cost vector, before the hull check reads it
        u, spec = table1
        with pytest.raises(ValueError, match="finite"):
            rk.certify(u, spec, [np.nan, 1.0, 1.0, 1.0], rk.ConvexWeights.uniform(3))

    def test_rejects_uncertified_scenario(self, table1, monkeypatch):
        u, spec = table1
        wc = rk.worstcase_scenario(u)
        lam = rk.ConvexWeights.uniform(3)  # does not reproduce the worst case
        solves = []
        monkeypatch.setattr(bounds_module, "nominal_solve", lambda spec_, c: solves.append(c))
        with pytest.raises(ValueError, match="convex hull"):
            rk.certify(u, spec, wc, lam)
        assert solves == []  # refused before the nominal solve

    def test_rejects_weights_of_wrong_length(self, table1, monkeypatch):
        u, spec = table1
        solves = []
        monkeypatch.setattr(bounds_module, "nominal_solve", lambda spec_, c: solves.append(c))
        with pytest.raises(ValueError, match="weights have length 2, expected 3, one per scenario"):
            rk.certify(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(2))
        assert solves == []  # refused before the nominal solve


class TestAposterioriReport:
    """The a-posteriori certificate of one hull scenario: certify's (ub, lb), from one nominal solve."""

    def test_table1_midpoint(self, table1):
        u, spec = table1
        ub, lb = rk.certify(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(3))
        assert lb == pytest.approx(8.0)
        assert ub == pytest.approx(12.0)
        assert rk.ratio_or_inf(ub, lb) == pytest.approx(1.50, abs=1e-9)

    def test_table1_lp_k1(self, table1):
        u, spec = table1
        _, scen, lam = rk.construct_lp_scenario(u, spec, 1)
        ub, lb = rk.certify(u, spec, scen, lam)
        assert ub / lb == pytest.approx(10.0 / 9.25, abs=0.001)
        assert ub / lb == pytest.approx(1.08, abs=0.01)

    def test_single_scenario_ratio_is_one(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        ub, lb = rk.certify(u, spec, u.costs[0], rk.ConvexWeights([1.0]))
        assert ub == lb == 4.0

    def test_plain_vector_reports_as_its_scenario(self, table1):
        u, spec = table1
        lam = rk.ConvexWeights.uniform(3)
        mid = rk.midpoint_scenario(u)
        assert rk.certify(u, spec, mid.tolist(), lam) == rk.certify(u, spec, mid, lam)
        _, scen, lam = rk.construct_lp_scenario(u, spec, 2)
        assert rk.certify(u, spec, scen.tolist(), lam) == rk.certify(u, spec, scen, lam)

    @pytest.mark.parametrize("alpha", COST_SCALES + [1e12])
    def test_the_hull_check_does_not_depend_on_the_cost_unit(self, alpha):
        # with fractional costs the midpoint misses lam @ costs by rounding
        # that grows with the costs; the worst case misses the hull by far more
        rng = np.random.default_rng(8)
        for u, spec in paper_cell_instances(1):
            fractional = rk.UncertaintySet(u.costs * rng.random(u.costs.shape))
            scaled = rk.UncertaintySet(alpha * fractional.costs)
            lam = rk.ConvexWeights.uniform(u.n_scenarios)
            expected = rk.certify(fractional, spec, rk.midpoint_scenario(fractional), lam)
            got = rk.certify(scaled, spec, rk.midpoint_scenario(scaled), lam)
            assert got == pytest.approx(tuple(alpha * bound for bound in expected), rel=1e-12, abs=0)
            with pytest.raises(ValueError, match="convex hull"):
                rk.certify(scaled, spec, rk.worstcase_scenario(scaled), lam)

    def test_path_report_solves_once_and_keeps_lower_bound(self, monkeypatch):
        # the 4-vertex, 5-edge, N = 3 instance of the `path` pin in test_pins.py
        spec = rk.ShortestPath(edges=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), source=0, sink=3)
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 2.0, 6.0, 1.0], [1.0, 5.0, 3.0, 2.0, 2.0], [3.0, 3.0, 5.0, 1.0, 4.0]]))
        cases = [(rk.midpoint_scenario(u), rk.ConvexWeights.uniform(3))]
        for k in (1, 2):
            cases.append(rk.construct_lp_scenario(u, spec, k)[1:])
        # the nominal minimum over all three s-t paths, with no Dijkstra
        paths = list(rk.enumerate_solutions(spec))
        expected = [min(float(np.asarray(scen)[list(x)].sum()) for x in paths) for scen, _ in cases]
        assert [round(lb, 8) for lb in expected] == [5.66666667, 5.59440559, 5.54347826]
        solves = []
        real = bounds_module.nominal_solve
        monkeypatch.setattr(bounds_module, "nominal_solve", lambda spec_, c: solves.append(c) or real(spec_, c))
        certified = [rk.certify(u, spec, scen, lam) for scen, lam in cases]
        assert len(solves) == len(cases)  # one Dijkstra per certificate
        assert [lb for _, lb in certified] == expected
        with pytest.raises(ValueError, match="convex hull"):  # the hull check still refuses, before any solve
            rk.certify(u, spec, rk.worstcase_scenario(u), rk.ConvexWeights.uniform(3))
        assert len(solves) == len(cases)

    @pytest.mark.parametrize("problem", ["selection", "path"])
    def test_crossed_bounds_raise_invariant_error(self, table1, monkeypatch, problem):
        if problem == "selection":
            u, spec = table1
        else:
            spec = rk.ShortestPath(edges=((0, 1), (1, 2), (0, 2)), source=0, sink=2)
            u = rk.UncertaintySet(np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 5.0]]))
        monkeypatch.setattr("robustkit.bounds.upper_bound", lambda u_, x: 0.0)
        with pytest.raises(rk.InvariantError, match=r"^lb <= ub violated: lb=\S+ ub=0\.0$"):
            rk.certify(u, spec, rk.midpoint_scenario(u), rk.ConvexWeights.uniform(u.n_scenarios))

    def test_aposteriori_never_exceeds_apriori(self):
        rng = np.random.default_rng(555)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            n_scen = int(rng.integers(2, 6))
            u = rk.UncertaintySet(rng.integers(0, 101, size=(n_scen, n)).astype(float))
            spec = rk.Selection(n=n, p=3)
            mid = rk.midpoint_scenario(u)
            ub, lb = rk.certify(u, spec, mid, rk.ConvexWeights.uniform(n_scen))
            assert rk.ratio_or_inf(ub, lb) <= rk.fixed_scenario_guarantee(u, spec, 2, mid) + rk.EPS_CMP
            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            ub, lb = rk.certify(u, spec, scen, lam)
            assert rk.ratio_or_inf(ub, lb) <= 1.0 / t_star + rk.EPS_CMP


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
        x = rk.nominal_solve(spec, u.costs[0])
        assert rk.maxmin_certificate(u, spec)[0] == pytest.approx(float(u.costs[0][list(x)].sum()))

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
            assert rk.certify(u, spec, mid, rk.ConvexWeights.uniform(5))[1] <= value + 1e-6
            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            assert rk.certify(u, spec, scen, lam)[1] <= value + 1e-6

    def test_rejects_shortest_path(self):
        spec = rk.ShortestPath(edges=((0, 1), (1, 2)), source=0, sink=2)
        u = rk.UncertaintySet(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="selection"):
            rk.maxmin_certificate(u, spec)

    def test_weights_certify_the_bound(self, table1):
        u, spec = table1
        value, lam = rk.maxmin_certificate(u, spec)
        scenario = lam.combine(u)
        x = rk.nominal_solve(spec, scenario)
        assert float(np.asarray(scenario)[list(x)].sum()) == pytest.approx(value, abs=1e-8)


class TestMaxMinMetamorphic:
    """The max-min value under changes of the instance that leave it, or its scale, unchanged."""

    def test_permuting_scenarios_permutes_the_weights(self):
        rng = np.random.default_rng(3)
        for u, spec in paper_cell_instances(2):
            value, lam = rk.maxmin_certificate(u, spec)
            perm = rng.permutation(u.n_scenarios)
            got, lam_perm = rk.maxmin_certificate(rk.UncertaintySet(u.costs[perm]), spec)
            assert got == pytest.approx(value, rel=1e-12, abs=0)
            assert np.abs(lam_perm.lam - lam.lam[perm]).max() <= 1e-9

    def test_permuting_items(self):
        rng = np.random.default_rng(4)
        for u, spec in paper_cell_instances(2):
            value = rk.maxmin_certificate(u, spec)[0]
            perm = rng.permutation(u.n_items)
            assert rk.maxmin_certificate(rk.UncertaintySet(u.costs[:, perm]), spec)[0] == pytest.approx(value, rel=1e-12, abs=0)

    def test_appending_a_copy_of_a_scenario(self):
        for i, (u, spec) in enumerate(paper_cell_instances(2)):
            value = rk.maxmin_certificate(u, spec)[0]
            copy = i % u.n_scenarios
            grown = rk.UncertaintySet(np.vstack([u.costs, u.costs[copy : copy + 1]]))
            assert rk.maxmin_certificate(grown, spec)[0] == pytest.approx(value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", COST_SCALES)
    def test_scaling_the_costs_scales_the_value(self, alpha):
        # V, and the (ub, lb) that certify gives its hull scenario
        for u, spec in paper_cell_instances(2):
            value, lam = rk.maxmin_certificate(u, spec)
            bounds = rk.certify(u, spec, lam.combine(u), lam)
            scaled = rk.UncertaintySet(alpha * u.costs)
            got, lam = rk.maxmin_certificate(scaled, spec)
            assert got == pytest.approx(alpha * value, rel=1e-12, abs=0)
            expected = tuple(alpha * bound for bound in bounds)
            assert rk.certify(scaled, spec, lam.combine(scaled), lam) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_p_items_without_cost_give_zero(self):
        # V = 0: the homogenized LP has no solution, and no LP is built
        costs = np.array([[3.0, 0.0, 4.0, 0.0, 6.0], [2.0, 0.0, 1.0, 0.0, 2.0], [4.0, 0.0, 2.0, 0.0, 1.0]])
        with mock.patch.object(bounds_module, "solve_lp", side_effect=AssertionError("an LP was built")):
            value, lam = rk.maxmin_certificate(rk.UncertaintySet(costs), rk.Selection(n=5, p=2))
        assert value == 0.0 and np.array_equal(lam.lam, [1.0, 0.0, 0.0])
        value, lam = rk.maxmin_certificate(rk.UncertaintySet(np.zeros((2, 3))), rk.Selection(n=3, p=1))
        assert value == 0.0 and np.array_equal(lam.lam, [1.0, 0.0])
        # one item fewer without cost: V > 0
        assert rk.maxmin_certificate(rk.UncertaintySet(costs), rk.Selection(n=5, p=3))[0] > 0.0

    def test_weights_certify_the_value_at_the_paper_cells(self):
        # the sum of the p smallest entries of the hull scenario lam . C is V
        for u, spec in paper_cell_instances(3):
            value, lam = rk.maxmin_certificate(u, spec)
            assert np.sort(lam.lam @ u.costs)[: spec.p].sum() == pytest.approx(value, rel=1e-12, abs=0)


class TestExactMinMax:
    def test_table1(self, table1):
        u, spec = table1
        opt, solution = rk.exact_minmax(u, spec)
        assert opt == 10.0
        assert solution == (0, 3)  # items 1 and 4

    def test_single_scenario_reduces_to_nominal(self):
        u = rk.UncertaintySet(np.array([[4.0, 1.0, 3.0]]))
        spec = rk.Selection(n=3, p=2)
        opt, solution = rk.exact_minmax(u, spec)
        x = rk.nominal_solve(spec, u.costs[0])
        assert opt == float(u.costs[0][list(x)].sum())
        assert solution == x

    def test_matches_no_pruning_reference(self):
        u, spec = rk.generate_instance(16, 6, 8, seed=321)
        opt, solution = rk.exact_minmax(u, spec)
        ref_value, ref_combo = brute_force_minmax(u, spec)
        assert opt == ref_value
        assert solution == ref_combo

    def test_lexicographic_tie_break(self):
        # both pairs reach the same worst case; (0, 1) must win
        u = rk.UncertaintySet(np.array([[1.0, 1.0, 1.0, 1.0]]))
        opt, solution = rk.exact_minmax(u, rk.Selection(n=4, p=2))
        assert opt == 2.0
        assert solution == (0, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tie_heavy_matches_brute_force(self, data):
        costs, spec = tie_heavy_selection(data)
        u = rk.UncertaintySet(costs)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution) == brute_force_minmax(u, spec)

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
        assert solution == ref_combo

    def test_incumbent_valued_in_search_order(self):
        # the midpoint incumbent (0, 1, 2, 3) is optimal; its sum in index
        # order is one ulp below its sum in midpoint order
        u = rk.UncertaintySet(
            np.array([[3, 3, 3, 1, 3], [3, 0, 1, 2, 2], [2, 0, 1, 0, 3], [0, 1, 3, 2, 2], [1, 3, 2, 2, 1]]) / 7
        )
        spec = rk.Selection(n=5, p=4)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution) == brute_force_minmax(u, spec)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_mid_pool_cell_matches_vectorized_brute_force(self, seed):
        u, spec = rk.generate_instance(20, 6, 50, seed=seed)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution) == vectorized_brute_force(u, spec)

    def test_deep_instances_need_no_recursion(self):
        # the search stack grows with n, far beyond Python's recursion limit
        assert rk.exact_minmax(rk.UncertaintySet(np.ones((2, 1500))), rk.Selection(1500, 2)) == (
            2.0,
            (0, 1),
        )
        assert rk.exact_minmax(rk.UncertaintySet(np.ones((2, 1500))), rk.Selection(1500, 1500)) == (
            1500.0,
            tuple(range(1500)),
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
        # one wide; ties must still resolve to the same subset, also when
        # every popped block is filtered again, not only after the incumbent
        # improved
        costs, spec = tie_heavy_selection(data)
        u = rk.UncertaintySet(costs / 7 if fractional else costs)
        opt, solution = rk.exact_minmax(u, spec)
        with mock.patch.object(bounds_module, "_BLOCK_CELLS", 1):
            assert rk.exact_minmax(u, spec) == (opt, solution)
            with mock.patch.object(bounds_module, "_refilter", lambda cut, pushed: True):
                assert rk.exact_minmax(u, spec) == (opt, solution)

    @pytest.mark.parametrize("block_cells", [1, 1 << 12])
    def test_mid_pool_cell_with_small_blocks(self, monkeypatch, block_cells):
        monkeypatch.setattr(bounds_module, "_BLOCK_CELLS", block_cells)
        u, spec = rk.generate_instance(20, 6, 50, seed=5)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution) == vectorized_brute_force(u, spec)

    @staticmethod
    def search_dtypes(monkeypatch):
        """The dtypes of the cuts the search compares blocks with, one per pop."""
        dtypes, refilter = [], bounds_module._refilter
        monkeypatch.setattr(bounds_module, "_refilter", lambda cut, pushed: dtypes.append(cut.dtype) or refilter(cut, pushed))
        return dtypes

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha, dtype", [(1.0, np.int16), (0.5, np.float64), (2.0**20, np.float64)])
    def test_scaling_by_a_power_of_two_scales_the_optimum(self, monkeypatch, seed, alpha, dtype):
        # integer costs up to 100 search in int16; halves are fractional, and
        # at 2**20 p * max cost is far above 2**14, so both search in float64,
        # where scaling by a power of two is exact
        u, spec = rk.generate_instance(20, 6, 50, seed=seed)
        opt, solution = rk.exact_minmax(u, spec)
        dtypes = self.search_dtypes(monkeypatch)
        assert rk.exact_minmax(rk.UncertaintySet(alpha * u.costs), spec) == (alpha * opt, solution)
        assert dtypes and set(dtypes) == {np.dtype(dtype)}

    @pytest.mark.parametrize("n, p, N", [(10, 4, 6), (12, 8, 5)])
    @pytest.mark.parametrize("offset, dtype", [(-1, np.int16), (0, np.float64)])
    def test_integer_costs_at_the_int16_limit(self, monkeypatch, n, p, N, offset, dtype):
        # p * max cost just below 2**14 keeps every intermediate, sentinel
        # included, below 2**15; at 2**14 the search falls back to float64.
        # Small blocks keep the beam from seeing every leaf, so the search runs
        monkeypatch.setattr(bounds_module, "_BLOCK_CELLS", 1 << 8)
        top = 2**14 // p + offset
        rng = np.random.default_rng(n * p)
        for costs in (rng.integers(0, top + 1, (N, n)), rng.integers(top - 1, top + 1, (N, n))):
            costs[0, 0] = top
            u, spec = rk.UncertaintySet(costs.astype(float)), rk.Selection(n=n, p=p)
            dtypes = self.search_dtypes(monkeypatch)
            opt, solution = rk.exact_minmax(u, spec)
            assert (opt, solution) == vectorized_brute_force(u, spec)
            assert dtypes and set(dtypes) == {np.dtype(dtype)}

    @pytest.mark.parametrize("alpha", [1.0, 1 / 7], ids=["integer", "sevenths"])
    def test_refiltering_every_pop_agrees_at_the_mid_pool_cell(self, monkeypatch, alpha):
        u, spec = rk.generate_instance(20, 6, 50, seed=6)
        u = rk.UncertaintySet(alpha * u.costs)
        skipped, refilter = [], bounds_module._refilter
        monkeypatch.setattr(bounds_module, "_refilter", lambda cut, pushed: refilter(cut, pushed) or skipped.append(1))
        opt, solution = rk.exact_minmax(u, spec)
        assert skipped  # the skip is taken
        monkeypatch.setattr(bounds_module, "_refilter", lambda cut, pushed: True)
        assert rk.exact_minmax(u, spec) == (opt, solution)

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
            evaluated.append(x)
            return real(u_, x)

        monkeypatch.setattr(bounds_module, "upper_bound", counting)
        monkeypatch.setattr(bounds_module, "MAX_ENUMERATION", 2)
        with pytest.raises(BudgetError, match="more than 2"):
            rk.exact_minmax(u, spec)
        assert len(evaluated) == 2
        monkeypatch.setattr(bounds_module, "MAX_ENUMERATION", 4)
        assert rk.exact_minmax(u, spec) == (1.0, (4,))

    def test_shortest_path(self):
        spec = rk.ShortestPath(edges=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3)), source=0, sink=3)
        u = rk.UncertaintySet(np.array([[1.0, 1.0, 9.0, 9.0, 5.0], [9.0, 9.0, 1.0, 1.0, 5.0]]))
        opt, solution = rk.exact_minmax(u, spec)
        # oracle: path values are max(2,18)=18, max(18,2)=18, max(5,5)=5
        assert opt == 5.0
        assert solution == (4,)

    def test_pruning_matches_reference_at_scale(self):
        # every one of the C(30, 9) = 14307150 subsets, without pruning
        u, spec = rk.generate_instance(30, 9, 10, seed=11)
        opt, solution = rk.exact_minmax(u, spec)
        assert (opt, solution) == vectorized_brute_force(u, spec)


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
            lb_mid = rk.certify(u, spec, mid, lam_mid)[1]
            ub_mid = rk.upper_bound(u, x_mid)

            t_star, scen, lam = rk.construct_lp_scenario(u, spec, 2)
            x_lp = rk.nominal_solve(spec, scen)
            lb_lp = rk.certify(u, spec, scen, lam)[1]
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
