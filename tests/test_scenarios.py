import dataclasses
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from conftest import COST_SCALES, paper_cell_instances
from test_lp import eager_t_star

uncertainty_sets = st.lists(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=6),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1).map(
    lambda rows: rk.UncertaintySet(np.array(rows, dtype=float))
)


def every_item(u):
    """The selection of all items: require_k accepts k = 1..n, the range a test without a problem runs over."""
    return rk.Selection(n=u.n_items, p=u.n_items)


def exhaustive_guarantee(u, values, k):
    """Reference for fixed_scenario_guarantee: enumerate all subset ratios."""
    best_t = 1.0
    for i in range(u.n_scenarios):
        for subset in itertools.combinations(range(u.n_items), k):
            den = float(u.costs[i, list(subset)].sum())
            if den <= 0:
                continue
            best_t = min(best_t, float(values[list(subset)].sum()) / den)
    return math.inf if best_t <= 0 else 1.0 / best_t


def exhaustive_most_violated(u, values, t, k):
    """Reference for the separation oracle: check every (i, S) pair."""
    best = (-math.inf, None, None)
    for i in range(u.n_scenarios):
        for subset in itertools.combinations(range(u.n_items), k):
            violation = t * float(u.costs[i, list(subset)].sum()) - float(values[list(subset)].sum())
            if violation > best[0]:
                best = (violation, i, subset)
    return best


class TestMidpoint:
    def test_table1(self, table1):
        u, _ = table1
        mid = rk.midpoint_scenario(u)
        assert np.allclose(mid, [11 / 3, 5.0, 13 / 3, 16 / 3], atol=1e-9)

    def test_single_scenario_identity(self):
        u = rk.UncertaintySet(np.array([[4.0, 0.0, 2.0]]))
        assert np.array_equal(rk.midpoint_scenario(u), u.costs[0])

    def test_symmetry(self):
        u = rk.UncertaintySet(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.array_equal(rk.midpoint_scenario(u), [1.0, 1.0])


class TestWorstCase:
    def test_table1_column_max(self, table1):
        u, _ = table1
        # oracle: column-wise max computed by hand over the fixture rows
        ref = np.max(u.costs, axis=0)
        wc = rk.worstcase_scenario(u)
        assert np.array_equal(wc, ref)
        assert np.array_equal(wc, [5.0, 8.0, 9.0, 7.0])

    def test_single_scenario_identity(self):
        u = rk.UncertaintySet(np.array([[4.0, 0.0, 2.0]]))
        assert np.array_equal(rk.worstcase_scenario(u), u.costs[0])

    @settings(max_examples=40, deadline=None)
    @given(u=uncertainty_sets)
    def test_dominates_every_row(self, u):
        wc = rk.worstcase_scenario(u)
        assert np.all(wc >= u.costs - 1e-12)


class TestWorstCaseAprioriBound:
    def test_table1(self, table1):
        u, spec = table1
        assert rk.worstcase_apriori_bound(u, spec) == 2  # min(N=3, |X|=2)

    def test_large_scenario_count(self):
        u = rk.UncertaintySet(np.ones((100, 10)))
        assert rk.worstcase_apriori_bound(u, rk.Selection(n=10, p=3)) == 3

    def test_small_scenario_count(self):
        u = rk.UncertaintySet(np.ones((2, 10)))
        assert rk.worstcase_apriori_bound(u, rk.Selection(n=10, p=3)) == 2


class TestSeparationOracle:
    def test_worked_violation(self, table1):
        u, spec = table1
        mid = rk.midpoint_scenario(u)
        # oracle: check all 12 (i, j) pairs explicitly
        violation, i, subset = exhaustive_most_violated(u, mid, 0.5, 1)
        assert (i, subset) == (1, (2,)) and violation == pytest.approx(0.5 * 9 - 13 / 3)
        assert rk.separation_oracle(u, spec, 1, mid, 0.5) == (1, (2,))

    def test_worstcase_never_violated(self, table1):
        u, spec = table1
        assert rk.separation_oracle(u, spec, 1, rk.worstcase_scenario(u), 1.0) is None
        assert rk.separation_oracle(u, spec, 2, rk.worstcase_scenario(u), 1.0) is None

    def test_second_row_feasible_at_one(self, table1):
        u, spec = table1
        # oracle: all 6 pairs per scenario, consistent with t* = 1 at k = 2
        violation, _, _ = exhaustive_most_violated(u, u.costs[1], 1.0, 2)
        assert violation <= 0
        assert rk.separation_oracle(u, spec, 2, u.costs[1], 1.0) is None

    def test_rejects_bad_arguments(self, table1):
        u, spec = table1
        with pytest.raises(ValueError):
            rk.separation_oracle(u, spec, 1, rk.midpoint_scenario(u), 0.0)
        with pytest.raises(ValueError):
            rk.separation_oracle(u, spec, 0, rk.midpoint_scenario(u), 1.0)
        with pytest.raises(ValueError, match="minimum solution cardinality"):
            rk.separation_oracle(u, spec, u.n_items + 1, rk.midpoint_scenario(u), 1.0)

    def test_rejects_cost_vector_of_wrong_length(self, table1):
        u, spec = table1
        with pytest.raises(ValueError, match="cost vector has length 1, expected 4"):
            rk.separation_oracle(u, spec, 1, [1.0], 1.0)

    def test_rejects_non_finite_cost_or_t(self, table1):
        # a NaN violation compares False against EPS_CUT, which would read as "no violated row"
        u, spec = table1
        c = rk.midpoint_scenario(u)
        with pytest.raises(ValueError, match="cost vector must be finite"):
            rk.separation_oracle(u, spec, 2, [np.nan, 1.0, 1.0, 1.0], 1.0)
        for t in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="t must be positive and finite"):
                rk.separation_oracle(u, spec, 2, c, t)

    def test_vectorized_oracle_equals_per_scenario_loop_on_ties(self):
        from robustkit.scenarios import _most_violated

        def loop_reference(costs, values, t, k):
            # one scenario at a time; strict > keeps the first scenario on ties
            best = (-math.inf, -1, ())
            for i in range(costs.shape[0]):
                vals = values - t * costs[i]
                idx = np.lexsort((np.arange(vals.shape[0]), vals))[:k]
                violation = -float(vals[idx].sum())
                if violation > best[0]:
                    best = (violation, i, tuple(sorted(int(j) for j in idx)))
            return best

        rng = np.random.default_rng(606)
        for _ in range(500):
            n_scen, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            costs = rng.integers(0, 6, size=(n_scen, n)).astype(float)
            values = rng.integers(0, 6, size=n).astype(float)
            t = float(rng.choice([0.25, 0.5, 1.0]))
            k = int(rng.integers(1, n + 1))
            assert _most_violated(costs, values, t, k) == loop_reference(costs, values, t, k)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_partition_oracle_equals_full_argsort(self, data):
        from robustkit.scenarios import _most_violated

        def argsort_reference(costs, values, t, k):
            vals = values - t * costs
            idx = np.argsort(vals, axis=1, kind="stable")[:, :k]
            violations = -np.take_along_axis(vals, idx, axis=1).sum(axis=1)
            i = int(np.argmax(violations))
            return float(violations[i]), i, tuple(sorted(int(j) for j in idx[i]))

        n = data.draw(st.integers(1, 9), label="n")
        n_scen = data.draw(st.integers(1, 6), label="N")
        grid = st.lists(st.integers(0, 5), min_size=n, max_size=n)
        costs = np.array(data.draw(st.lists(grid, min_size=n_scen, max_size=n_scen), label="costs"), dtype=float)
        values = np.array(data.draw(grid, label="values"), dtype=float)
        if data.draw(st.booleans(), label="sevenths"):
            costs, values = costs / 7, values / 7
        if data.draw(st.booleans(), label="hull scenario"):
            # inexact sums, where a different summation order shows
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="weights seed"))
            values = rng.dirichlet(np.ones(n_scen)) @ costs
        t = data.draw(st.sampled_from([0.25, 0.5, 1.0]), label="t")
        k = data.draw(st.integers(1, n), label="k")
        violation, i, subset = _most_violated(costs, values, t, k)
        ref_violation, ref_i, ref_subset = argsort_reference(costs, values, t, k)
        assert violation.hex() == ref_violation.hex()
        assert (i, subset) == (ref_i, ref_subset)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_oracle_equals_exhaustive_check_on_ties(self, data):
        # integer costs and a dyadic t make every sum exact, so ties are
        # real ties: the first (i, S) in scenario-then-lexicographic order wins
        from robustkit.scenarios import _most_violated, _smallest_sums

        n = data.draw(st.integers(1, 7), label="n")
        n_scen = data.draw(st.integers(1, 5), label="N")
        grid = st.lists(st.integers(0, 5), min_size=n, max_size=n)
        u = rk.UncertaintySet(np.array(data.draw(st.lists(grid, min_size=n_scen, max_size=n_scen), label="costs"), dtype=float))
        values = np.array(data.draw(grid, label="values"), dtype=float)
        t = data.draw(st.sampled_from([0.25, 0.5, 1.0]), label="t")
        k = data.draw(st.integers(1, n), label="k")
        violation, i, subset = _most_violated(u.costs, values, t, k)
        ref_violation, ref_i, ref_subset = exhaustive_most_violated(u, values, t, k)
        assert (i, subset) == (ref_i, ref_subset)
        assert abs(violation - ref_violation) <= 1e-12
        # the kernel: each scenario's sum is the exhaustive minimum over its |S| = k rows
        vals, sums = _smallest_sums(u.costs, values, t, k)
        assert np.array_equal(vals, values - t * u.costs)
        assert sums.tolist() == [-exhaustive_most_violated(rk.UncertaintySet(row[None]), values, t, k)[0] for row in u.costs]

    @settings(max_examples=40, deadline=None)
    @given(u=uncertainty_sets, t=st.floats(min_value=0.05, max_value=1.0), k=st.integers(min_value=1, max_value=2))
    def test_none_iff_exhaustive_check_clears(self, u, t, k):
        if u.n_items < k:
            return
        mid = rk.midpoint_scenario(u)
        got = rk.separation_oracle(u, every_item(u), k, mid, t)
        violation, _, _ = exhaustive_most_violated(u, mid, t, k)
        if got is None:
            assert violation <= rk.EPS_CUT
        else:
            i, subset = got
            actual = t * float(u.costs[i, list(subset)].sum()) - float(mid[list(subset)].sum())
            assert actual == pytest.approx(violation, abs=1e-9)
            assert violation > rk.EPS_CUT


class TestConstructLpScenario:
    def test_table1_k1(self, table1):
        u, spec = table1
        t_star, scen, lam = rk.construct_lp_scenario(u, spec, 1)
        assert 1.0 / t_star == pytest.approx(4.0 / 3.0, abs=0.01)
        # the rounded reference scenario must stay feasible at the returned t*
        printed = np.array([3.75, 6.88, 6.75, 5.50])
        _, i, subset = exhaustive_most_violated(u, printed, t_star - 0.01, 1)
        worst = (t_star - 0.01) * u.costs[i, list(subset)].sum() - printed[list(subset)].sum()
        assert worst <= 0.01
        # bounds induced by the returned scenario
        x = rk.nominal_solve(spec, scen)
        assert rk.certify(u, spec, scen, lam)[1] == pytest.approx(9.25, abs=1e-6)
        assert rk.upper_bound(u, x) == pytest.approx(10.0, abs=1e-9)

    def test_table1_k2(self, table1):
        u, spec = table1
        t_star, scen, _ = rk.construct_lp_scenario(u, spec, 2)
        assert t_star == pytest.approx(1.0, abs=1e-6)
        x = rk.nominal_solve(spec, scen)
        assert rk.upper_bound(u, x) == pytest.approx(10.0, abs=1e-9)

    def test_single_scenario(self):
        u = rk.UncertaintySet(np.array([[3.0, 1.0, 2.0]]))
        t_star, scen, lam = rk.construct_lp_scenario(u, rk.Selection(n=3, p=2), 1)
        assert t_star == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(scen, u.costs[0])
        assert np.allclose(lam.lam, [1.0])

    def test_invalid_k(self, table1):
        u, spec = table1
        with pytest.raises(ValueError, match="cardinality"):
            rk.construct_lp_scenario(u, spec, 3)  # exceeds p = 2
        with pytest.raises(ValueError, match="cardinality"):
            rk.construct_lp_scenario(u, spec, 4)

    @pytest.mark.parametrize("cell", [(10, 3, 10), (4, 2, 3)])
    def test_guarantee_below_one_is_refused(self, cell, monkeypatch):
        # a halved mu doubles t*, so 1/t*, below 2 at every k here, would
        # read below 1: the self-violation check refuses it
        u, spec = rk.generate_instance(*cell, rk.derive_seed(1, *cell, 0))
        ks = range(1, spec.p + 1)
        assert all(1.0 / rk.construct_lp_scenario(u, spec, k)[0] < 2.0 for k in ks)
        solve_lp = rk.scenarios.solve_lp

        def halved(lp, source):
            solution = solve_lp(lp, source)
            return dataclasses.replace(solution, x=0.5 * solution.x)

        monkeypatch.setattr("robustkit.scenarios.solve_lp", halved)
        for k in ks:
            with pytest.raises(rk.LpError, match="violates its own constraints"):
                rk.construct_lp_scenario(u, spec, k)

    def test_guarantee_above_the_scenario_count_is_refused(self, monkeypatch):
        # mu times N + 1 divides t* by N + 1 and leaves the rows satisfied:
        # only the scenario-count check refuses it
        u, spec = rk.generate_instance(10, 3, 10, rk.derive_seed(1, 10, 3, 10, 0))
        solve_lp = rk.scenarios.solve_lp

        def grown(lp, source):
            solution = solve_lp(lp, source)
            return dataclasses.replace(solution, x=(u.n_scenarios + 1) * solution.x)

        monkeypatch.setattr("robustkit.scenarios.solve_lp", grown)
        for k in (1, 2, 3):
            with pytest.raises(rk.LpError, match="exceeds the scenario count"):
                rk.construct_lp_scenario(u, spec, k)

    def test_start_from_k_or_above_is_refused(self, table1):
        u, spec = table1
        start = (2, *rk.construct_lp_scenario(u, spec, 2)[:2])
        for k in (1, 2):
            with pytest.raises(ValueError, match=f"construction at 1 <= k < {k}, got k=2"):
                rk.construct_lp_scenario(u, spec, k, start=start)
        # below k = 1 there is no construction: 0 would seed every scenario
        # and -1 none, so both are refused before any solve
        u, spec = rk.generate_instance(10, 3, 10, rk.derive_seed(5, 10, 3, 10, 0))
        t1, c1, _ = rk.construct_lp_scenario(u, spec, 1)
        for k_prev in (0, -1):
            with mock.patch.object(rk.scenarios, "solve_lp") as solve:
                with pytest.raises(ValueError, match=f"construction at 1 <= k < 2, got k={k_prev}"):
                    rk.construct_lp_scenario(u, spec, 2, start=(k_prev, t1, c1))
            solve.assert_not_called()
        # a start's scenario passes the one check of every cost vector
        with pytest.raises(ValueError, match="cost vector must be nonnegative"):
            rk.construct_lp_scenario(u, spec, 2, start=(1, 1.0, -rk.midpoint_scenario(u)))

    def test_start_seeds_its_binding_rows_grown_to_k(self, monkeypatch):
        u, spec = rk.generate_instance(8, 4, 5, 11)
        t1, scen1, _ = rk.construct_lp_scenario(u, spec, 1)
        unseeded = rk.construct_lp_scenario(u, spec, 3)[0]
        seeds, scenario_lp = [], rk.scenarios.scenario_lp
        monkeypatch.setattr("robustkit.scenarios.scenario_lp", lambda u, rows: seeds.append(list(rows)) or scenario_lp(u, rows))
        t3, _, _ = rk.construct_lp_scenario(u, spec, 3, start=(1, t1, scen1))
        assert t3 == pytest.approx(unseeded, rel=1e-9)
        seeded = seeds[0]
        # one row per scenario that binds at the k = 1 optimum, found by enumeration
        vals = scen1 - t1 * u.costs
        tol = rk.EPS_FEAS * scen1.max()
        binding = [i for i in range(5) if vals[i].min() <= tol]
        assert seeded and [i for i, _ in seeded] == binding
        # each is the most violated 3-row of its scenario
        for i, subset in seeded:
            assert len(subset) == 3 and u.costs[i, list(subset)].sum() > 0
            best = min(vals[i, list(S)].sum() for S in itertools.combinations(range(8), 3))
            assert vals[i, list(subset)].sum() == pytest.approx(best, abs=1e-12)

    @staticmethod
    def extended_rows_reference(u, k_prev, t, c, k):
        """_extended_rows written with one stable argsort of every row, the slack read through take_along_axis."""
        values = np.asarray(c, dtype=float)
        vals = values - t * u.costs
        order = np.argsort(vals, axis=1, kind="stable")
        slack = np.take_along_axis(vals, order[:, :k_prev], axis=1).sum(axis=1)
        scen = np.flatnonzero(slack <= rk.EPS_FEAS * float(values.max()))
        grown = np.sort(order[scen, :k], axis=1)
        own = u.costs[scen[:, None], grown].sum(axis=1)
        return [(int(i), tuple(S.tolist())) for i, S, a in zip(scen, grown, own) if a > 0.0]

    def test_extended_rows_equal_the_full_argsort_reference(self):
        # the binding test reads the kernel's sums and only binding rows are
        # argsorted: the rows must be exactly those of the full argsort
        starts = []
        for u, spec in tie_heavy_instances()[::2]:
            for k_prev in (1, 2):
                starts.append((u, k_prev, *rk.construct_lp_scenario(u, spec, k_prev)[:2]))
        costs = np.array([[3.0, 1.0, 4.0, 2.0, 6.0], [0.0, 0.0, 0.0, 0.0, 0.0], [4.0, 2.0, 2.0, 5.0, 1.0]])
        u = rk.UncertaintySet(costs)
        t1, zeroed, _ = rk.construct_lp_scenario(u, rk.Selection(n=5, p=3), 1)
        zeroed = np.where(np.arange(5) == 0, 0.0, zeroed)  # scenario 1, without cost, binds: its rows are left out
        starts.append((u, 1, t1, zeroed))
        rng = np.random.default_rng(36)
        for _ in range(200):  # exact integer sums, so many scenarios tie at the threshold
            n_scen, n = int(rng.integers(1, 6)), int(rng.integers(3, 8))
            u = rk.UncertaintySet(rng.integers(0, 4, size=(n_scen, n)).astype(float))
            starts.append((u, int(rng.integers(1, 3)), float(rng.choice([0.25, 0.5, 1.0])), rng.integers(0, 4, size=n).astype(float)))
        seeded = 0
        for u, k_prev, t, c in starts:
            for k in range(k_prev + 1, min(k_prev + 2, u.n_items) + 1):
                rows = rk.scenarios._extended_rows(u, k_prev, t, c, k)
                assert rows == self.extended_rows_reference(u, k_prev, t, c, k)
                seeded += len(rows)
        assert seeded > len(starts)

    @pytest.mark.parametrize("cell", [(10, 3, 10), (20, 6, 50), (40, 3, 5)])
    def test_start_rebuilt_from_its_optimum_seeds_the_same_solve(self, cell, monkeypatch):
        # the seed reads (k, t*, c) alone: a start rebuilt from them gives
        # the same t*, scenario bits, pivots and rounds
        solutions, solve_lp = [], rk.scenarios.solve_lp
        monkeypatch.setattr("robustkit.scenarios.solve_lp", lambda lp, source: solutions.append(solve_lp(lp, source)) or solutions[-1])
        u, spec = rk.generate_instance(*cell, rk.derive_seed(5, *cell, 0))
        t1, scen1, _ = rk.construct_lp_scenario(u, spec, 1)
        runs = []
        for start in ((1, t1, scen1), (1, float(t1), np.array(scen1.tolist()))):
            t_star, scen, _ = rk.construct_lp_scenario(u, spec, 3, start=start)
            runs.append((t_star, scen.tobytes(), solutions[-1].iterations, solutions[-1].rounds))
        assert runs[0] == runs[1]

    @staticmethod
    def k1_seed(u, spec, monkeypatch):
        """The rows a k = 1 construction puts into its base LP, and the construction."""
        seeds, scenario_lp = [], rk.scenarios.scenario_lp
        monkeypatch.setattr("robustkit.scenarios.scenario_lp", lambda u, rows: seeds.append(list(rows)) or scenario_lp(u, rows))
        result = rk.construct_lp_scenario(u, spec, 1)
        return seeds[0], result

    @pytest.mark.parametrize("cell", [(10, 3, 10), (20, 6, 50), (30, 9, 100)])
    def test_k1_seed_needs_no_generated_row_when_n_is_at_most_n_scenarios_plus_1(self, cell, monkeypatch):
        rounds, solve_lp = [], rk.scenarios.solve_lp
        monkeypatch.setattr("robustkit.scenarios.solve_lp", lambda lp, source: rounds.append(solve_lp(lp, source)) or rounds[-1])
        for instance_id in range(3):
            u, spec = rk.generate_instance(*cell, rk.derive_seed(5, *cell, instance_id))
            t_star, scen, _ = rk.construct_lp_scenario(u, spec, 1)
            assert rounds[-1].rounds == 0
            assert 1.0 / t_star == pytest.approx(rk.fixed_scenario_guarantee(u, spec, 1, scen), rel=1e-9)

    @pytest.mark.parametrize("cell", [(400, 5, 9), (40, 3, 5)])
    def test_k1_seed_keeps_the_n_scenarios_plus_1_smallest_ratios_in_item_order(self, cell, monkeypatch):
        n, _, N = cell
        for instance_id in range(3):
            u, spec = rk.generate_instance(*cell, rk.derive_seed(5, *cell, instance_id))
            seed, _ = self.k1_seed(u, spec, monkeypatch)
            worst, mid = u.costs.max(axis=0), u.costs.mean(axis=0)
            ranked = sorted((j for j in range(n) if worst[j] > 0), key=lambda j: (mid[j] / worst[j], j))
            assert len(ranked) > N + 1
            assert seed == [(int(np.argmax(u.costs[:, j])), (j,)) for j in sorted(ranked[: N + 1])]

    def test_k1_seed_leaves_out_items_without_cost(self, monkeypatch):
        costs = np.array([[3.0, 0.0, 5.0, 0.0], [4.0, 0.0, 5.0, 1.0], [1.0, 0.0, 2.0, 0.0]])
        u, spec = rk.UncertaintySet(costs), rk.Selection(n=4, p=2)
        seed, (t_star, scen, _) = self.k1_seed(u, spec, monkeypatch)
        # item 2 ties between scenarios 0 and 1: the smallest one
        assert seed == [(1, (0,)), (0, (2,)), (1, (3,))]
        assert 1.0 / t_star == pytest.approx(rk.fixed_scenario_guarantee(u, spec, 1, scen), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 9, 12])
    def test_subset_rows_equal_the_per_row_sums(self, k):
        # k >= 8 reaches numpy's pairwise summation; each row of a batch must
        # still be the bits of its own sums and of the row built alone, as
        # the row source builds its cut
        rng = np.random.default_rng(k)
        u = rk.UncertaintySet(rng.uniform(0, 100, (7, 15)) / 7)
        rows = [(int(rng.integers(7)), tuple(sorted(rng.choice(15, k, replace=False).tolist()))) for _ in range(6)]
        got = rk.scenarios._subset_rows(u, rows)
        for row, (i, subset) in zip(got, rows):
            sums = u.costs[:, list(subset)].sum(axis=1)
            assert row.tobytes() == (-sums / sums[i]).tobytes()
            assert row.tobytes() == rk.scenarios._subset_rows(u, [(i, subset)])[0].tobytes()
        assert rk.scenarios._subset_rows(u, []).shape == (0, 7)

    @staticmethod
    def record_cuts(monkeypatch):
        """Lists that gather each row the row source returns and each _most_violated result."""
        generated, cuts = [], []
        solve_lp, most_violated = rk.scenarios.solve_lp, rk.scenarios._most_violated

        def recording_solve_lp(lp, source):
            def recording_source(x):
                row = source(x)
                if row is not None:
                    generated.append(row[0])
                return row

            return solve_lp(lp, recording_source)

        monkeypatch.setattr("robustkit.scenarios.solve_lp", recording_solve_lp)
        monkeypatch.setattr("robustkit.scenarios._most_violated", lambda *a: cuts.append(most_violated(*a)) or cuts[-1])
        return generated, cuts

    @staticmethod
    def assert_cuts_are_subset_rows(u, generated, cuts):
        # the row source's last call finds no cut; the post-solve self-check
        # makes one more; each generated row has the bits _subset_rows gives
        # the (i, S) of its _most_violated call
        assert len(generated) == len(cuts) - 2 and cuts[-2][0] <= rk.EPS_CUT * rk.core.cost_scale(u)
        for row, (violation, i, subset) in zip(generated, cuts):
            assert violation > rk.EPS_CUT * rk.core.cost_scale(u)
            assert row.tobytes() == rk.scenarios._subset_rows(u, [(i, subset)])[0].tobytes()

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_generated_rows_equal_subset_rows(self, k, monkeypatch):
        u, spec = rk.generate_instance(20, 9, 12, 3)
        generated, cuts = self.record_cuts(monkeypatch)
        rk.construct_lp_scenario(u, spec, k)
        assert generated
        self.assert_cuts_are_subset_rows(u, generated, cuts)

    @pytest.mark.parametrize("cell", [(10, 3, 10), (20, 6, 50), (30, 9, 100)])
    def test_chained_cuts_equal_subset_rows_at_the_paper_cells(self, cell, monkeypatch):
        # the row source builds its one cut with _subset_rows, as the seeded
        # rows are built; on the grid's k chain each cut is that of the
        # (i, S) its _most_violated call found
        generated, cuts = self.record_cuts(monkeypatch)
        rounds = 0
        for instance_id in range(2):
            u, spec = rk.generate_instance(*cell, rk.derive_seed(5, *cell, instance_id))
            start = None
            for k in (1, 2, 3):
                start = (k, *rk.construct_lp_scenario(u, spec, k, start=start)[:2])
                self.assert_cuts_are_subset_rows(u, generated, cuts)
                rounds += len(generated)
                del generated[:], cuts[:]
        assert rounds > 0

    def test_scenario_is_hull_combination(self, table1):
        u, spec = table1
        for k in (1, 2):
            _, scen, lam = rk.construct_lp_scenario(u, spec, k)
            assert np.abs(scen - lam.lam @ u.costs).max() <= rk.EPS_CMP
            assert lam.lam.sum() == pytest.approx(1.0, abs=rk.EPS_FEAS)

    def test_all_zero_costs(self):
        u = rk.UncertaintySet(np.zeros((3, 4)))
        t_star, scen, _ = rk.construct_lp_scenario(u, rk.Selection(n=4, p=2), 2)
        assert t_star == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(scen, np.zeros(4))

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_scenario_without_cost(self, zero):
        # its rows have a(i, S) = 0 and are left out; as scenario 0 it is
        # also where the first cut is taken, at t = 1
        costs = np.array([[3.0, 1.0, 4.0, 2.0, 6.0], [2.0, 5.0, 1.0, 3.0, 2.0], [4.0, 2.0, 2.0, 5.0, 1.0]])
        costs[zero] = 0.0
        u, spec = rk.UncertaintySet(costs), rk.Selection(n=5, p=3)
        start = None
        for k in (1, 2, 3):
            t_star, scen, lam = rk.construct_lp_scenario(u, spec, k)
            assert t_star == pytest.approx(eager_t_star(u, k), abs=1e-9)
            assert rk.construct_lp_scenario(u, spec, k, start=start)[0] == pytest.approx(t_star, rel=1e-12)
            start = k, t_star, scen
            assert exhaustive_most_violated(u, scen, t_star, k)[0] <= rk.EPS_CMP
            assert 1.0 / t_star == pytest.approx(rk.fixed_scenario_guarantee(u, spec, k, scen), rel=1e-9)
        # a zero-cost scenario seeds no row, even from a start where it binds
        t1, scen1, _ = rk.construct_lp_scenario(u, spec, 1)
        zeroed = scen1.copy()
        zeroed[0] = 0.0
        seeded = rk.scenarios._extended_rows(u, 1, t1, zeroed, 2)
        assert seeded and zero not in [i for i, _ in seeded]
        assert rk.construct_lp_scenario(u, spec, 2, start=(1, t1, zeroed))[0] == pytest.approx(eager_t_star(u, 2), abs=1e-9)

    def test_item_without_cost(self):
        # item 1 costs nothing anywhere: no k = 1 row, and it joins larger
        # subsets at no cost
        costs = np.array([[3.0, 0.0, 4.0, 2.0], [2.0, 0.0, 1.0, 3.0], [4.0, 0.0, 2.0, 5.0]])
        u, spec = rk.UncertaintySet(costs), rk.Selection(n=4, p=3)
        start = None
        for k in (1, 2, 3):
            t_star, scen, _ = rk.construct_lp_scenario(u, spec, k, start=start)
            start = k, t_star, scen
            assert t_star == pytest.approx(eager_t_star(u, k), abs=1e-9)
            assert exhaustive_most_violated(u, scen, t_star, k)[0] <= rk.EPS_CMP

    def test_guarantee_sandwich_and_monotonicity(self):
        rng = np.random.default_rng(31337)
        for _ in range(15):
            n = int(rng.integers(4, 10))
            n_scen = int(rng.integers(1, 7))
            u = rk.UncertaintySet(rng.integers(0, 101, size=(n_scen, n)).astype(float))
            p = int(rng.integers(3, n + 1))
            spec = rk.Selection(n=n, p=p)
            mid = rk.midpoint_scenario(u)
            previous = math.inf
            for k in (1, 2, 3):
                t_star, _, _ = rk.construct_lp_scenario(u, spec, k)
                lp_pre = 1.0 / t_star
                mid_pre = rk.fixed_scenario_guarantee(u, spec, k, mid)
                assert lp_pre <= mid_pre + rk.EPS_CMP
                assert mid_pre <= u.n_scenarios + rk.EPS_CMP
                assert lp_pre <= previous + rk.EPS_CMP  # non-increasing in k
                previous = lp_pre


def tie_heavy_instances():
    """Four instances each of five cells with costs floor(c / 34), in {0, 1, 2}, so that many subset sums tie."""
    cells = [(10, 3, 10), (20, 6, 50), (30, 9, 100), (12, 3, 20), (8, 4, 5)]
    instances = [rk.generate_instance(*cell, rk.derive_seed(5, *cell, i)) for cell in cells for i in range(4)]
    return [(rk.UncertaintySet(np.floor(u.costs / 34)), spec) for u, spec in instances]


class TestConstructLpScenarioMetamorphic:
    """1/t* under changes of the instance that leave it unchanged: t* is a ratio of costs."""

    @staticmethod
    def guarantees(u, spec):
        """1/t* at k = 1, 2, 3, single-k and then chained as the grid runs them."""
        single = [1.0 / rk.construct_lp_scenario(u, spec, k)[0] for k in (1, 2, 3)]
        chained, start = [], None
        for k in (1, 2, 3):
            start = (k, *rk.construct_lp_scenario(u, spec, k, start=start)[:2])
            chained.append(1.0 / start[1])
        return single + chained

    @classmethod
    def scale_free(cls, u, spec):
        """guarantees, then the midpoint's guarantee at k = 1, 2, 3."""
        mid = rk.midpoint_scenario(u)
        return cls.guarantees(u, spec) + [rk.fixed_scenario_guarantee(u, spec, k, mid) for k in (1, 2, 3)]

    @pytest.fixture(scope="class")
    def at_unit_scale(self):
        """(u, spec, scale_free, max-min V) of the paper cells and of tie-heavy costs."""
        instances = paper_cell_instances(2) + tie_heavy_instances()
        return [(u, spec, self.scale_free(u, spec), rk.maxmin_certificate(u, spec)[0]) for u, spec in instances]

    @pytest.mark.parametrize("alpha", COST_SCALES)
    def test_scaling_the_costs_keeps_the_guarantees(self, alpha, at_unit_scale):
        # not the LP scenario's ub and lb: on tie-heavy costs the optimal vertex, and so the scenario, may move with the unit
        for u, spec, expected, value in at_unit_scale:
            scaled = rk.UncertaintySet(alpha * u.costs)
            assert self.scale_free(scaled, spec) == pytest.approx(expected, rel=1e-9, abs=0)
            assert rk.maxmin_certificate(scaled, spec)[0] == pytest.approx(alpha * value, rel=1e-9, abs=0)

    @pytest.mark.parametrize("alpha", COST_SCALES)
    def test_the_oracle_clears_the_scaled_optimum(self, alpha):
        # the oracle stops on the scaled costs' rounding, as the construction does
        for u, spec in paper_cell_instances(1):
            scaled = rk.UncertaintySet(alpha * u.costs)
            for k in (1, 2, 3):
                t_star, scen, _ = rk.construct_lp_scenario(scaled, spec, k)
                assert rk.separation_oracle(scaled, spec, k, scen, t_star) is None

    def test_permuting_scenarios_or_items(self):
        rng = np.random.default_rng(6)
        for u, spec in paper_cell_instances(2):
            expected = self.guarantees(u, spec)
            for costs in (u.costs[rng.permutation(u.n_scenarios)], u.costs[:, rng.permutation(u.n_items)]):
                assert self.guarantees(rk.UncertaintySet(costs), spec) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_appending_a_copy_of_a_scenario(self):
        for i, (u, spec) in enumerate(paper_cell_instances(2)):
            copy = i % u.n_scenarios
            grown = rk.UncertaintySet(np.vstack([u.costs, u.costs[copy : copy + 1]]))
            assert self.guarantees(grown, spec) == pytest.approx(self.guarantees(u, spec), rel=1e-9, abs=0)


class TestFixedScenarioGuarantee:
    def test_table1_midpoint_k1(self, table1):
        u, spec = table1
        mid = rk.midpoint_scenario(u)
        ref = exhaustive_guarantee(u, mid, 1)  # enumerates all 12 ratios
        got = rk.fixed_scenario_guarantee(u, spec, 1, mid)
        assert ref == pytest.approx(27 / 13, abs=1e-12)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_worstcase_is_one(self, table1):
        u, spec = table1
        for k in (1, 2):
            assert rk.fixed_scenario_guarantee(u, spec, k, rk.worstcase_scenario(u)) == 1.0

    def test_single_scenario_identity(self):
        u = rk.UncertaintySet(np.array([[2.0, 3.0]]))
        assert rk.fixed_scenario_guarantee(u, every_item(u), 1, u.costs[0]) == 1.0
        assert rk.fixed_scenario_guarantee(u, every_item(u), 2, u.costs[0]) == 1.0

    def test_rejects_cost_vector_of_wrong_length(self, table1):
        u, spec = table1
        with pytest.raises(ValueError, match="cost vector has length 1, expected 4"):
            rk.fixed_scenario_guarantee(u, spec, 1, [50.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_cost_vector(self, table1, bad):
        u, spec = table1
        with pytest.raises(ValueError, match="cost vector must be finite"):
            rk.fixed_scenario_guarantee(u, spec, 2, [bad, 1.0, 1.0, 1.0])

    def test_infinite_when_scenario_misses_support(self):
        u = rk.UncertaintySet(np.array([[1.0, 5.0]]))
        zero_there = [1.0, 0.0]
        assert rk.fixed_scenario_guarantee(u, every_item(u), 1, zero_there) == math.inf

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            n_scen = int(rng.integers(1, 6))
            u = rk.UncertaintySet(rng.integers(0, 101, size=(n_scen, n)).astype(float))
            mid = rk.midpoint_scenario(u)
            for k in (1, 2):
                if k > n:
                    continue
                ref = exhaustive_guarantee(u, mid, k)
                got = rk.fixed_scenario_guarantee(u, every_item(u), k, mid)
                if math.isinf(ref):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(ref, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(u=uncertainty_sets)
    def test_worstcase_always_one(self, u):
        assert rk.fixed_scenario_guarantee(u, every_item(u), 1, rk.worstcase_scenario(u)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_enumeration_on_tie_heavy_hull_scenarios(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        n_scen = data.draw(st.integers(1, 5), label="N")
        rows = data.draw(
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=n_scen, max_size=n_scen),
            label="costs",
        )
        costs = np.array(rows, dtype=float)
        if data.draw(st.booleans(), label="fractional"):
            costs = costs / 7
        u = rk.UncertaintySet(costs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="weights seed"))
        lam = rng.dirichlet(np.ones(n_scen))
        if n_scen > 1 and data.draw(st.booleans(), label="on a face"):
            lam[data.draw(st.integers(0, n_scen - 1), label="zeroed")] = 0.0
            lam = lam / lam.sum()
        values = lam @ u.costs
        k = data.draw(st.integers(1, min(n, 4)), label="k")
        ref = exhaustive_guarantee(u, values, k)
        got = rk.fixed_scenario_guarantee(u, every_item(u), k, values)
        if math.isinf(ref):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(ref, rel=1e-12)

    def test_stalled_iteration_raises(self, table1, monkeypatch):
        # an oracle that keeps reporting the same violated row would pin t
        calls = itertools.count()

        def stuck(costs, values, t, k):
            assert next(calls) < 10, "the iteration did not stop"
            return 1.0, 0, (0,)

        monkeypatch.setattr("robustkit.scenarios._most_violated", stuck)
        u, spec = table1
        with pytest.raises(rk.LpError, match="stalled"):
            rk.fixed_scenario_guarantee(u, spec, 1, rk.midpoint_scenario(u))


def k_check_instances():
    """(u, spec) pairs with a k above |x| but not above the item count, which an item-count check lets through.

    Selection(5, 2): at k = 3 the midpoint's guarantee would read 1.4667, below
    its solution's true ub/opt of 1.6. The path DAG has five edges but its
    fewest hops is 2.
    """
    selection = np.array([[4, 8, 9, 2, 4], [2, 6, 6, 8, 8], [9, 9, 8, 1, 0], [4, 3, 8, 7, 4]], dtype=float)
    path = rk.ShortestPath(edges=((0, 1), (1, 3), (0, 2), (2, 4), (4, 3)), source=0, sink=3)
    path_costs = np.array([[3, 1, 2, 2, 1], [1, 4, 2, 1, 3], [2, 2, 5, 1, 1]], dtype=float)
    return [(rk.UncertaintySet(selection), rk.Selection(n=5, p=2)), (rk.UncertaintySet(path_costs), path)]


def test_the_k_above_p_guarantee_is_not_a_bound():
    u, spec = k_check_instances()[0]
    mid = rk.midpoint_scenario(u)
    ratio = rk.upper_bound(u, rk.nominal_solve(spec, mid)) / rk.exact_minmax(u, spec)[0]
    assert exhaustive_guarantee(u, mid, 3) == pytest.approx(22 / 15) and ratio == pytest.approx(1.6)


@pytest.mark.parametrize("instance", k_check_instances(), ids=["selection", "path"])
@pytest.mark.parametrize(
    "call",
    [
        lambda u, spec, k: rk.construct_lp_scenario(u, spec, k),
        lambda u, spec, k: rk.fixed_scenario_guarantee(u, spec, k, rk.midpoint_scenario(u)),
        lambda u, spec, k: rk.separation_oracle(u, spec, k, rk.midpoint_scenario(u), 0.5),
    ],
    ids=["construct_lp_scenario", "fixed_scenario_guarantee", "separation_oracle"],
)
def test_every_guarantee_accepts_exactly_the_k_require_k_accepts(instance, call):
    u, spec = instance
    for k in range(u.n_items + 2):
        try:
            rk.problems.require_k(spec, k)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                call(u, spec, k)
        else:
            call(u, spec, k)
