import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkit as rk
from robustkit import lp as lp_module
from robustkit.core import EPS_CUT
from robustkit.experiments import derive_seed, generate_instance
from robustkit.lp import LpError


def brute_force_vertex_max(lp):
    """Reference optimum by enumerating basic solutions.

    Intersects every n-subset of the constraint hyperplanes and those of
    x_j >= 0; valid whenever the feasible region is a polytope. Returns
    None when no vertex is feasible.
    """
    n = lp.n_vars
    A = np.vstack([lp.constraints, -np.eye(n)])
    b = np.concatenate([lp.rhs, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(len(b)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        lhs = A @ x
        if np.all(lhs <= b + 1e-7):
            value = float(lp.objective @ x)
            if best is None or value > best:
                best = value
    return best


def with_rows(lp, rows):
    """lp with the rows (coeffs, rhs), each coeffs . x <= rhs, appended."""
    return rk.LinearProgram(
        lp.objective,
        np.vstack([lp.constraints] + [coeffs for coeffs, _ in rows]),
        np.concatenate([lp.rhs, [rhs for _, rhs in rows]]),
    )


def eager_scenario_lp(u, k):
    """The guarantee LP in its hull form, with all N * C(n, k) subset rows materialized.

    Over [t, lam_1..lam_N] >= 0 it maximizes t subject to the simplex row
    sum lam = 1 (two opposite rows), t <= 1 and t * a(i, S) <= sum_m lam_m
    a(m, S) for every (i, S). This is the formulation before the
    substitution mu = lam / t, so it shares no row with scenario_lp's
    covering form, and solve_lp reaches it through primal pivots.
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


def eager_t_star(u, k):
    """Reference t*: one plain solve of the fully materialized LP."""
    return float(rk.solve_lp(eager_scenario_lp(u, k)).x[0])


def outcome(lp, row_source=None):
    """"optimal" if solve_lp returns, else the outcome its LpError names: "infeasible" or "unbounded"."""
    try:
        rk.solve_lp(lp, row_source)
    except LpError as exc:
        word = str(exc).partition(":")[0]
        if word not in ("infeasible", "unbounded"):
            raise
        return word
    return "optimal"


def slack_tableau(A, b, d):
    """max -d.x s.t. A x + s = b from the slack basis: dual feasible when d >= 0."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n : n + m], T[:m, -1] = A, np.eye(m), b
    T[-1, :n] = d
    return T, list(range(n, n + m))


def reference_append_row(T, basis, row, rhs):
    """The row append written out on its own, which `_add_row` must match bit for bit."""
    m, width = T.shape[0] - 1, T.shape[1]
    out = np.zeros((m + 2, width + 1))
    out[:m, : width - 1] = T[:m, :-1]
    out[:m, -1] = T[:m, -1]
    out[-1, : width - 1] = T[-1, :-1]
    out[-1, -1] = T[-1, -1]
    new = out[m]
    new[: row.shape[0]] = row
    new[width - 1] = 1.0
    new[-1] = rhs
    new -= new[basis] @ out[:m]
    basis.append(width - 1)
    return out


def random_bounded_lp(rng, max_vars=6, max_rows=8):
    """A random LP inside the box 0 <= x <= upper, and upper.

    Its first n rows are the box's upper rows; the rest are random rows
    that the box point upper / 2 satisfies, or equalities through a random
    point of the box, each written as two opposite rows.
    """
    n = int(rng.integers(1, max_vars + 1))
    objective = rng.uniform(-2, 2, n)
    upper = rng.uniform(0.5, 4.0, n)
    rows, rhs = list(np.eye(n)), list(upper)
    for _ in range(int(rng.integers(0, max_rows - 1))):
        coeffs = rng.uniform(-2, 2, n)
        if rng.random() < 0.25:
            anchor = rng.uniform(0, 1, n) * upper
            rows += [coeffs, -coeffs]
            rhs += [float(coeffs @ anchor), -float(coeffs @ anchor)]
        else:
            slackroom = abs(float(rng.normal()))
            rows.append(coeffs)
            rhs.append(float(coeffs @ (upper * 0.5)) + slackroom)
    return rk.LinearProgram(objective, np.array(rows), rhs), upper


class TestSolveLpBasics:
    def test_single_upper_constraint(self):
        sol = rk.solve_lp(rk.LinearProgram([1.0], [[1.0]], [5.0]))
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_infeasible_via_bounds(self):
        lp = rk.LinearProgram([1.0], [[-1.0], [1.0]], [-2.0, 1.0])  # x >= 2 and x <= 1
        assert outcome(lp) == "infeasible"

    def test_unbounded(self):
        assert outcome(rk.LinearProgram([1.0], np.zeros((0, 1)), [])) == "unbounded"

    def test_degenerate_equalities(self):
        # x0 + x1 == 1 and the redundant 2 x0 + 2 x1 == 2, each as two opposite rows
        lp = rk.LinearProgram([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]], [1.0, -1.0, 2.0, -2.0])
        assert rk.solve_lp(lp).objective == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_equalities(self):
        # x0 + x1 == 1 and x0 + x1 == 2, each as two opposite rows
        lp = rk.LinearProgram([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0, 2.0, -2.0])
        assert outcome(lp) == "infeasible"

    def test_table1_scenario_lp(self, table1):
        u, _ = table1
        sol = rk.solve_lp(eager_scenario_lp(u, 1))
        assert 1.0 / sol.objective == pytest.approx(4.0 / 3.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="shapes"):  # an rhs too short
            rk.LinearProgram([1.0], [[1.0], [2.0]], [0.0])
        with pytest.raises(ValueError, match="shapes"):  # an rhs too long
            rk.LinearProgram([1.0], [[1.0]], [0.0, 1.0])
        assert [f.name for f in dataclasses.fields(rk.LinearProgram)] == ["objective", "constraints", "rhs"]
        with pytest.raises(ValueError, match="shapes"):  # rows too narrow
            rk.LinearProgram([1.0, 2.0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="shapes"):  # a row that is not a matrix
            rk.LinearProgram([1.0], [1.0], [0.0])
        lp = rk.LinearProgram([1.0, 1.0], np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError, match=r"\(2,\) finite coefficients"):
            rk.solve_lp(lp, lambda x: (np.array([1.0]), 0.0))

    def test_solution_is_an_optimum(self):
        # a solve returns an optimum or raises, so every field is required
        fields = dataclasses.fields(rk.LpSolution)
        assert [f.name for f in fields] == ["x", "objective", "iterations", "rounds"]
        assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients and rhs must be finite"):
            rk.LinearProgram([1.0], [[bad]], [1.0])
        with pytest.raises(ValueError, match="coefficients and rhs must be finite"):
            rk.LinearProgram([1.0], [[1.0]], [bad])
        lp = rk.LinearProgram([1.0], np.eye(1), [2.0])
        with pytest.raises(ValueError, match="finite coefficients and a finite rhs"):
            rk.solve_lp(lp, lambda x: (np.array([bad]), 1.0))
        with pytest.raises(ValueError, match="finite coefficients and a finite rhs"):
            rk.solve_lp(lp, lambda x: (np.array([1.0]), bad))


class TestAgainstVertexEnumeration:
    def test_random_bounded_lps(self):
        rng = np.random.default_rng(4242)
        checked = 0
        for _ in range(60):
            lp, _ = random_bounded_lp(rng, max_vars=4, max_rows=6)
            got = outcome(lp)
            ref = brute_force_vertex_max(lp)
            if ref is None:
                assert got == "infeasible"
                continue
            assert got == "optimal"
            assert rk.solve_lp(lp).objective == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))
            checked += 1
        assert checked >= 30


class TestDeterminism:
    def test_identical_runs(self):
        lp, _ = random_bounded_lp(np.random.default_rng(11))
        twin, _ = random_bounded_lp(np.random.default_rng(11))  # built apart from lp
        a = rk.solve_lp(lp)
        b = rk.solve_lp(twin)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)


class TestFeasibilityOfReportedOptimum:
    def test_constraints_hold_within_eps(self, table1):
        u, _ = table1
        for k in (1, 2):
            lp = eager_scenario_lp(u, k)
            sol = rk.solve_lp(lp)
            x = sol.x
            assert np.all(lp.constraints @ x <= lp.rhs + 1e-9)
            assert abs(float(lp.objective @ x) - sol.objective) <= 1e-9 * (1 + abs(sol.objective))


def first_violated_source(rows):
    """Row source returning the first of rows that x violates by more than 1e-9."""

    def source(x):
        for coeffs, rhs in rows:
            if float(coeffs @ x) > rhs + 1e-9:
                return coeffs, rhs
        return None

    return source


class TestRowGeneration:
    def test_silent_source_equals_plain_solve(self):
        rng = np.random.default_rng(5)
        lp, _ = random_bounded_lp(rng)
        plain = rk.solve_lp(lp)
        lazy = rk.solve_lp(lp, lambda x: None)
        assert lazy.iterations == plain.iterations
        assert lazy.objective == pytest.approx(plain.objective, abs=1e-12)

    def test_table1_k2_lazy_matches_eager(self, table1):
        u, spec = table1
        t_eager = eager_t_star(u, 2)
        t_lazy, _, _ = rk.construct_lp_scenario(u, spec, 2)
        assert t_eager == pytest.approx(1.0, abs=1e-9)
        assert t_lazy == pytest.approx(t_eager, abs=1e-7)

    def test_random_scenario_lps_agree(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            n = int(rng.integers(3, 9))
            n_scen = int(rng.integers(2, 6))
            costs = rng.integers(0, 101, size=(n_scen, n)).astype(float)
            u = rk.UncertaintySet(costs)
            spec = rk.Selection(n=n, p=max(2, n // 2))
            t_eager = eager_t_star(u, 2)
            t_lazy, _, _ = rk.construct_lp_scenario(u, spec, 2)
            assert abs(t_eager - t_lazy) <= 1e-7

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_tie_heavy_warm_start_matches_eager(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        n_scen = data.draw(st.integers(1, 5), label="N")
        k = data.draw(st.integers(1, min(3, n)), label="k")
        flat = data.draw(st.lists(st.integers(0, 5), min_size=n * n_scen, max_size=n * n_scen), label="costs")
        u = rk.UncertaintySet(np.array(flat, dtype=float).reshape(n_scen, n))
        spec = rk.Selection(n=n, p=max(k, n // 2))
        t_lazy, _, lam = rk.construct_lp_scenario(u, spec, k)
        assert abs(t_lazy - eager_t_star(u, k)) <= 1e-7
        for subset in itertools.combinations(range(n), k):
            sums = u.costs[:, subset].sum(axis=1)
            assert np.all(t_lazy * sums <= float(lam.lam @ sums) + EPS_CUT)

    def test_random_warm_start_matches_plain_solve(self):
        rng = np.random.default_rng(9090)
        outcomes = set()
        for _ in range(80):
            lp, upper = random_bounded_lp(rng, max_vars=5, max_rows=5)
            hidden = []
            for _ in range(int(rng.integers(1, 6))):
                coeffs = rng.uniform(-2, 2, lp.n_vars)
                hidden.append((coeffs, float(coeffs @ (upper * rng.uniform(0, 1, lp.n_vars)))))
            full = with_rows(lp, hidden)
            plain = outcome(full)
            assert outcome(lp, first_violated_source(hidden)) == plain
            outcomes.add(plain)
            if plain == "optimal":
                want = rk.solve_lp(full).objective
                assert rk.solve_lp(lp, first_violated_source(hidden)).objective == pytest.approx(want, abs=1e-7 * max(1.0, abs(want)))
        assert outcomes == {"optimal", "infeasible"}

    def test_dual_simplex_keeps_reduced_costs_optimal(self):
        # max -d.x s.t. A x + s = b from the slack basis: dual feasible (d >= 0)
        # but primal infeasible wherever b < 0
        rng = np.random.default_rng(31)
        outcomes = set()
        for _ in range(60):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = rng.uniform(-2, 2, (m, n))
            b = rng.uniform(-3, 3, m)
            d = rng.uniform(0, 2, n)
            T, basis = slack_tableau(A, b, d)
            plain = rk.LinearProgram(-d, A, b)
            got = outcome(plain)
            outcomes.add(got)
            if got == "infeasible":
                with pytest.raises(LpError, match="^infeasible"):
                    lp_module._dual_simplex(T, basis)
                continue
            lp_module._dual_simplex(T, basis)
            assert np.all(T[-1, :-1] >= -1e-9) and np.all(T[:-1, -1] >= -1e-9)
            assert T[-1, -1] == pytest.approx(rk.solve_lp(plain).objective, abs=1e-9)
        assert outcomes == {"optimal", "infeasible"}

    def test_infeasible_source_row(self):
        lp = rk.LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [2.0, 2.0, 3.0])
        before = [a.copy() for a in (lp.constraints, lp.rhs)]
        cut = (np.array([-1.0, -1.0]), -5.0)  # x0 + x1 >= 5
        assert outcome(with_rows(lp, [cut])) == "infeasible"
        calls = []

        def source(x):
            calls.append(x)
            return first_violated_source([cut])(x)

        assert outcome(lp, source) == "infeasible" and len(calls) == 1  # one round, then the proof
        # the caller's LP is left alone, value for value
        for got, want in zip((lp.constraints, lp.rhs), before):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_stalling_source_raises(self):
        lp = rk.LinearProgram([1.0], np.eye(1), [1.0])

        def satisfied_row(_x):
            return np.array([1.0]), 5.0  # never violated

        with pytest.raises(LpError, match="satisfies"):
            rk.solve_lp(lp, satisfied_row)

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_MAX_ROUNDS", 3)
        lp = rk.LinearProgram([1.0], np.eye(1), [10.0])

        def endless(x):
            return np.array([1.0]), float(x[0]) - 1.0

        with pytest.raises(LpError, match="3 rounds"):
            rk.solve_lp(lp, endless)


def beale_lp():
    """Beale's LP, on which Dantzig pricing with these tie-breaks cycles."""
    A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    return rk.LinearProgram([0.75, -20.0, 0.5, -6.0], A, [0.0, 0.0, 1.0])


def beale_dual_tableau():
    """The dual of Beale's LP, max -b.y s.t. -A^T y <= -c, from the slack basis.

    Its reduced costs b are optimal and the rows of x1 and x3 infeasible,
    so the dual simplex runs Beale's primal pivots in mirror image.
    """
    lp = beale_lp()
    A, b = lp.constraints, lp.rhs
    m, n = A.shape
    T = np.zeros((n + 1, m + n + 1))
    T[:n, :m], T[:n, m : m + n], T[:n, -1] = -A.T, np.eye(n), -lp.objective
    T[-1, :m] = b
    return T, list(range(m, m + n))


class TestAntiCycling:
    def test_beale_lp_terminates(self):
        assert rk.solve_lp(beale_lp()).objective == pytest.approx(1.25, abs=1e-12)

    def test_beale_lp_cycles_without_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 10**9)
        with pytest.raises(LpError, match="exceeded .* pivots"):
            rk.solve_lp(beale_lp())

    def test_dual_of_beale_terminates(self):
        T, basis = beale_dual_tableau()
        lp_module._dual_simplex(T, basis)
        assert np.all(T[:-1, -1] >= -1e-9) and np.all(T[-1, :-1] >= -1e-9)
        assert T[-1, -1] == pytest.approx(-1.25, abs=1e-12)

    def test_dual_of_beale_cycles_without_dual_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 10**9)
        monkeypatch.setattr(lp_module, "_pivot_cap", lambda T: 1_000)
        T, basis = beale_dual_tableau()
        with pytest.raises(LpError, match="exceeded 1000 pivots"):
            lp_module._dual_simplex(T, basis)


def dual_pivots(T, basis):
    """The dual simplex's pivot count on T, or "infeasible" when it proves the rows infeasible."""
    try:
        return lp_module._dual_simplex(T, basis)
    except LpError as exc:
        if not str(exc).startswith("infeasible"):
            raise
        return "infeasible"


class TestTableauSteps:
    def test_in_place_append_matches_reallocating_append(self):
        # each append, and the dual pivots after it, must give the
        # reference's tableau and basis, byte for byte
        rng = np.random.default_rng(47)
        optimal = 0
        while optimal < 100:
            m, n = int(rng.integers(1, 16)), int(rng.integers(1, 40))
            T, basis = slack_tableau(rng.uniform(-2, 2, (m, n)), rng.uniform(-3, 3, m), rng.uniform(0, 2, n))
            if dual_pivots(T, basis) == "infeasible":
                continue
            optimal += 1
            appends = int(rng.integers(1, 5))
            rng.integers(0, 4), rng.integers(0, 4)  # two unused draws; the rows drawn below follow them
            grown, ref_basis = T, list(basis)
            for _ in range(appends):
                row, rhs = rng.uniform(-2, 2, n), float(rng.uniform(-3, 3))
                T = reference_append_row(T, ref_basis, row, rhs)
                grown = lp_module._add_row(grown, basis, row, rhs)
                assert grown.shape == T.shape and grown.tobytes() == T.tobytes() and basis == ref_basis
                assert dual_pivots(grown, basis) == dual_pivots(T, ref_basis)
                assert grown.tobytes() == T.tobytes() and basis == ref_basis

    def test_primal_simplex_refuses_nan_rhs(self):
        T = np.array([[1.0, 1.0, 0.0, np.nan], [1.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(LpError, match="non-finite right-hand side"):
            lp_module._run_simplex(T, [1, 2])

    def test_dual_simplex_refuses_nan_rhs(self):
        # the NaN row's basic variable is a slack, which no later check reads
        T = np.array([[1.0, 1.0, 0.0, np.nan], [1.0, 0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(LpError, match="non-finite right-hand side"):
            lp_module._dual_simplex(T, [1, 2])


class TestPivotCounts:
    """Pivot and round counts on fixed instances, summed over three ids.

    The counts are deterministic, so a pricing regression shows here
    whatever the timing noise. Ceilings sit about 10% (pivots) and 5%
    (rounds) above the counts under Dantzig pricing with the Bland
    fallback, as they were with the scenario LP in its hull form over
    [t, lam]; Bland's rule alone took 238/285/346 and 377 max-min pivots
    at (20,6,50), and 621/838/770 and 1361 at (30,9,100). The covering
    form takes fewer pivots, all of them dual.
    """

    CEILINGS = {
        # cell: (pivots for k = 1, 2, 3 and max-min, rounds for k = 1, 2, 3)
        (20, 6, 50): ((215, 277, 318, 152), (48, 74, 83)),
        (30, 9, 100): ((504, 787, 710, 341), (78, 131, 137)),
    }
    # the exact counts there and at (10,3,10); k = 1 starts from its
    # dominating rows (n <= N + 1 here, so all of them) and needs no
    # generated row
    EXACT = {
        (10, 3, 10): ([25, 37, 32, 45], [0, 23, 22]),
        (20, 6, 50): ([108, 223, 253, 141], [0, 70, 79]),
        (30, 9, 100): ([161, 610, 565, 313], [0, 126, 130]),
    }

    # the grid's path, where each k >= 2 starts from the previous k's
    # binding rows; k = 1 and max-min are solved as above
    EXACT_SEEDED = {
        (10, 3, 10): ([25, 39, 16, 45], [0, 15, 4]),
        (20, 6, 50): ([108, 168, 205, 141], [0, 32, 47]),
        (30, 9, 100): ([161, 339, 283, 313], [0, 44, 50]),
    }

    @staticmethod
    def counts(cell, monkeypatch, seeded=False):
        solutions = []

        def recording_solve_lp(lp, row_source=None):
            solutions.append(rk.solve_lp(lp, row_source))
            return solutions[-1]

        monkeypatch.setattr("robustkit.scenarios.solve_lp", recording_solve_lp)
        monkeypatch.setattr("robustkit.bounds.solve_lp", recording_solve_lp)
        pivots, rounds = [0, 0, 0, 0], [0, 0, 0]
        for instance_id in range(3):
            u, spec = generate_instance(*cell, derive_seed(5, *cell, instance_id))
            start = None
            for k in (1, 2, 3):
                t_star, scenario, _ = rk.construct_lp_scenario(u, spec, k, start=start)
                start = (t_star, scenario) if seeded else None
                pivots[k - 1] += solutions[-1].iterations
                rounds[k - 1] += solutions[-1].rounds
            rk.maxmin_certificate(u, spec)
            pivots[3] += solutions[-1].iterations
            assert solutions[-1].rounds == 0
        return pivots, rounds

    @pytest.mark.parametrize("cell", sorted(CEILINGS))
    def test_counts_stay_below_ceilings(self, cell, monkeypatch):
        pivots, rounds = self.counts(cell, monkeypatch)
        pivot_ceilings, round_ceilings = self.CEILINGS[cell]
        assert all(got <= cap for got, cap in zip(pivots, pivot_ceilings)), pivots
        assert all(got <= cap for got, cap in zip(rounds, round_ceilings)), rounds

    @pytest.mark.parametrize("cell", sorted(EXACT))
    def test_exact_counts(self, cell, monkeypatch):
        assert self.counts(cell, monkeypatch) == self.EXACT[cell]

    @pytest.mark.parametrize("cell", sorted(EXACT_SEEDED))
    def test_exact_seeded_counts(self, cell, monkeypatch):
        assert self.counts(cell, monkeypatch, seeded=True) == self.EXACT_SEEDED[cell]

    @pytest.mark.parametrize("cell", sorted(EXACT_SEEDED))
    def test_scenario_lp_takes_no_primal_pivot(self, cell, monkeypatch):
        # the covering LP's slack basis is dual feasible, and every appended
        # row keeps it so: the dual simplex alone solves it
        primal, run_simplex = [], lp_module._run_simplex
        monkeypatch.setattr(lp_module, "_run_simplex", lambda T, basis: primal.append(run_simplex(T, basis)) or primal[-1])
        for instance_id in range(3):
            u, spec = generate_instance(*cell, derive_seed(5, *cell, instance_id))
            start = None
            for k in (1, 2, 3):
                start = rk.construct_lp_scenario(u, spec, k, start=start)[:2]
        assert primal and not any(primal)
