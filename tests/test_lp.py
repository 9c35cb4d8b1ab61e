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
from robustkit.scenarios import scenario_lp


def brute_force_vertex_max(lp):
    """Reference optimum by enumerating basic solutions.

    Intersects every n-subset of the constraint hyperplanes and those of
    x_j >= 0; valid whenever the feasible region is a polytope. Returns
    None when no vertex is feasible.
    """
    n = lp.n_vars
    A, b, is_eq = [], [], []
    for coeffs, rel, rhs in lp.constraints:
        A.append(np.asarray(coeffs, dtype=float))
        b.append(rhs)
        is_eq.append(rel == rk.EQ)
    for j in range(n):
        A.append(-np.eye(n)[j])
        b.append(0.0)
        is_eq.append(False)
    A = np.array(A)
    b = np.array(b)
    is_eq = np.array(is_eq)
    best = None
    for combo in itertools.combinations(range(len(b)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        lhs = A @ x
        if np.all(lhs <= b + 1e-7) and np.all(np.abs(lhs[is_eq] - b[is_eq]) <= 1e-7):
            value = float(lp.objective @ x)
            if best is None or value > best:
                best = value
    return best


def eager_scenario_lp(u, k):
    """The guarantee LP with all N * C(n, k) subset rows materialized."""
    lp = scenario_lp(u)
    for subset in itertools.combinations(range(u.n_items), k):
        sums = u.costs[:, subset].sum(axis=1)
        for i in range(u.n_scenarios):
            row = np.zeros(1 + u.n_scenarios)
            row[0] = sums[i]
            row[1:] = -sums
            lp.add_constraint(row, rk.LE, 0.0)
    return lp


def eager_t_star(u, k):
    """Reference t*: one plain solve of the fully materialized LP."""
    sol = rk.solve_lp(eager_scenario_lp(u, k))
    assert sol.status == "optimal"
    return float(sol.x[0])


def slack_tableau(A, b, d):
    """max -d.x s.t. A x + s = b from the slack basis: dual feasible when d >= 0."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n : n + m], T[:m, -1] = A, np.eye(m), b
    T[-1, :n] = d
    return T, list(range(n, n + m))


def reference_append_row(T, basis, row, rhs):
    """The reallocating row append that the in-place one must match bit for bit."""
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


def upper_rows(upper):
    """The rows x_j <= upper_j."""
    return [(row, rk.LE, float(up)) for row, up in zip(np.eye(len(upper)), upper)]


def random_bounded_lp(rng, max_vars=6, max_rows=8):
    """A random LP inside the box 0 <= x <= upper, and upper.

    Its first n rows are the box's upper rows; the rest are random rows
    that the box point upper / 2, or a random point of the box, satisfies.
    """
    n = int(rng.integers(1, max_vars + 1))
    objective = rng.uniform(-2, 2, n)
    upper = rng.uniform(0.5, 4.0, n)
    lp = rk.LinearProgram(objective=objective, constraints=upper_rows(upper))
    for _ in range(int(rng.integers(0, max_rows - 1))):
        coeffs = rng.uniform(-2, 2, n)
        if rng.random() < 0.25:
            anchor = rng.uniform(0, 1, n) * upper
            lp.add_constraint(coeffs, rk.EQ, float(coeffs @ anchor))
        else:
            slackroom = abs(float(rng.normal()))
            lp.add_constraint(coeffs, rk.LE, float(coeffs @ (upper * 0.5)) + slackroom)
    return lp, upper


class TestSolveLpBasics:
    def test_single_upper_constraint(self):
        lp = rk.LinearProgram(objective=[1.0])
        lp.add_constraint([1.0], rk.LE, 5.0)
        sol = rk.solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_infeasible_via_bounds(self):
        lp = rk.LinearProgram(objective=[1.0])
        lp.add_constraint([-1.0], rk.LE, -2.0)  # x >= 2
        lp.add_constraint([1.0], rk.LE, 1.0)
        assert rk.solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        assert rk.solve_lp(rk.LinearProgram(objective=[1.0])).status == "unbounded"

    def test_degenerate_equalities(self):
        lp = rk.LinearProgram(objective=[1.0, 1.0])
        lp.add_constraint([1.0, 1.0], rk.EQ, 1.0)
        lp.add_constraint([2.0, 2.0], rk.EQ, 2.0)  # redundant row
        sol = rk.solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_equalities(self):
        lp = rk.LinearProgram(objective=[1.0, 1.0])
        lp.add_constraint([1.0, 1.0], rk.EQ, 1.0)
        lp.add_constraint([1.0, 1.0], rk.EQ, 2.0)
        assert rk.solve_lp(lp).status == "infeasible"

    def test_table1_scenario_lp(self, table1):
        u, _ = table1
        sol = rk.solve_lp(eager_scenario_lp(u, 1))
        assert sol.status == "optimal"
        assert 1.0 / sol.objective == pytest.approx(4.0 / 3.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="relation"):
            rk.LinearProgram(objective=[1.0], constraints=[(np.array([1.0]), ">=", 0.0)])
        with pytest.raises(ValueError, match="rhs"):
            rk.LinearProgram(objective=[1.0], constraints=[(np.array([1.0]), rk.LE, np.inf)])
        with pytest.raises(ValueError, match="coefficients"):
            rk.LinearProgram(objective=[1.0, 2.0], constraints=[(np.array([1.0]), rk.LE, 0.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            rk.LinearProgram(objective=[1.0], constraints=[(np.array([bad]), rk.LE, 1.0)])
        lp = rk.LinearProgram(objective=[1.0], constraints=upper_rows([2.0]))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            lp.add_constraint([bad], rk.LE, 1.0)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            rk.solve_lp(lp, lambda x: (np.array([bad]), rk.LE, 1.0))


class TestAgainstVertexEnumeration:
    def test_random_bounded_lps(self):
        rng = np.random.default_rng(4242)
        checked = 0
        for _ in range(60):
            lp, _ = random_bounded_lp(rng, max_vars=4, max_rows=6)
            sol = rk.solve_lp(lp)
            ref = brute_force_vertex_max(lp)
            if ref is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))
            checked += 1
        assert checked >= 30


class TestDeterminism:
    def test_identical_runs(self):
        lp, _ = random_bounded_lp(np.random.default_rng(11))
        twin, _ = random_bounded_lp(np.random.default_rng(11))  # built apart from lp
        a = rk.solve_lp(lp)
        b = rk.solve_lp(twin)
        assert a.status == b.status
        assert a.iterations == b.iterations
        if a.status == "optimal":
            assert np.array_equal(a.x, b.x)


class TestFeasibilityOfReportedOptimum:
    def test_constraints_hold_within_eps(self, table1):
        u, _ = table1
        for k in (1, 2):
            lp = eager_scenario_lp(u, k)
            sol = rk.solve_lp(lp)
            x = sol.x
            for coeffs, rel, rhs in lp.constraints:
                lhs = float(coeffs @ x)
                if rel == rk.LE:
                    assert lhs <= rhs + 1e-9
                else:
                    assert abs(lhs - rhs) <= 1e-9
            assert abs(float(lp.objective @ x) - sol.objective) <= 1e-9 * (1 + abs(sol.objective))


def first_violated_source(rows):
    """Row source returning the first of rows that x violates by more than 1e-9."""

    def source(x):
        for coeffs, rel, rhs in rows:
            if float(coeffs @ x) > rhs + 1e-9:
                return coeffs, rel, rhs
        return None

    return source


class TestRowGeneration:
    def test_silent_source_equals_plain_solve(self):
        rng = np.random.default_rng(5)
        lp, _ = random_bounded_lp(rng)
        plain = rk.solve_lp(lp)
        lazy = rk.solve_lp(lp, lambda x: None)
        assert plain.status == lazy.status
        assert lazy.iterations == plain.iterations
        if plain.status == "optimal":
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
        statuses = set()
        for _ in range(80):
            lp, upper = random_bounded_lp(rng, max_vars=5, max_rows=5)
            hidden = []
            for _ in range(int(rng.integers(1, 6))):
                coeffs = rng.uniform(-2, 2, lp.n_vars)
                hidden.append((coeffs, rk.LE, float(coeffs @ (upper * rng.uniform(0, 1, lp.n_vars)))))
            full = rk.LinearProgram(lp.objective, lp.constraints + hidden)
            plain = rk.solve_lp(full)
            warm = rk.solve_lp(lp, first_violated_source(hidden))
            assert warm.status == plain.status
            statuses.add(plain.status)
            if plain.status == "optimal":
                assert warm.objective == pytest.approx(plain.objective, abs=1e-7 * max(1.0, abs(plain.objective)))
        assert statuses == {"optimal", "infeasible"}

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
            status, _ = lp_module._dual_simplex(T, T.shape[1], basis, 10_000)
            lp = rk.LinearProgram(objective=-d)
            for i in range(m):
                lp.add_constraint(A[i], rk.LE, b[i])
            plain = rk.solve_lp(lp)
            assert status == plain.status
            outcomes.add(status)
            if status == "optimal":
                assert np.all(T[-1, :-1] >= -1e-9) and np.all(T[:-1, -1] >= -1e-9)
                assert T[-1, -1] == pytest.approx(plain.objective, abs=1e-9)
        assert outcomes == {"optimal", "infeasible"}

    def test_infeasible_source_row(self):
        lp = rk.LinearProgram(objective=[1.0, 1.0], constraints=upper_rows([2.0, 2.0]))
        lp.add_constraint([1.0, 1.0], rk.LE, 3.0)
        cut = (np.array([-1.0, -1.0]), rk.LE, -5.0)  # x0 + x1 >= 5
        assert rk.solve_lp(rk.LinearProgram(lp.objective, lp.constraints + [cut])).status == "infeasible"
        sol = rk.solve_lp(lp, first_violated_source([cut]))
        assert sol.status == "infeasible"
        assert len(lp.constraints) == 3  # the caller's LP is left alone

    def test_stalling_source_raises(self):
        lp = rk.LinearProgram(objective=[1.0], constraints=upper_rows([1.0]))

        def satisfied_row(_x):
            return np.array([1.0]), rk.LE, 5.0  # never violated

        with pytest.raises(LpError, match="satisfies"):
            rk.solve_lp(lp, satisfied_row)

    def test_equality_source_row_rejected(self):
        lp = rk.LinearProgram(objective=[1.0], constraints=upper_rows([1.0]))
        with pytest.raises(ValueError, match="<="):
            rk.solve_lp(lp, lambda x: (np.array([1.0]), rk.EQ, 0.5))

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_MAX_ROUNDS", 3)
        lp = rk.LinearProgram(objective=[1.0], constraints=upper_rows([10.0]))

        def endless(x):
            return np.array([1.0]), rk.LE, float(x[0]) - 1.0

        with pytest.raises(LpError, match="3 rounds"):
            rk.solve_lp(lp, endless)


def beale_lp():
    """Beale's LP, on which Dantzig pricing with these tie-breaks cycles."""
    lp = rk.LinearProgram(objective=[0.75, -20.0, 0.5, -6.0])
    lp.add_constraint([0.25, -8.0, -1.0, 9.0], rk.LE, 0.0)
    lp.add_constraint([0.5, -12.0, -0.5, 3.0], rk.LE, 0.0)
    lp.add_constraint([0.0, 0.0, 1.0, 0.0], rk.LE, 1.0)
    return lp


def beale_dual_tableau():
    """The dual of Beale's LP, max -b.y s.t. -A^T y <= -c, from the slack basis.

    Its reduced costs b are optimal and the rows of x1 and x3 infeasible,
    so the dual simplex runs Beale's primal pivots in mirror image.
    """
    lp = beale_lp()
    A = np.array([coeffs for coeffs, _, _ in lp.constraints])
    b = np.array([rhs for _, _, rhs in lp.constraints])
    m, n = A.shape
    T = np.zeros((n + 1, m + n + 1))
    T[:n, :m], T[:n, m : m + n], T[:n, -1] = -A.T, np.eye(n), -lp.objective
    T[-1, :m] = b
    return T, list(range(m, m + n))


class TestAntiCycling:
    def test_beale_lp_terminates(self):
        sol = rk.solve_lp(beale_lp())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.25, abs=1e-12)

    def test_beale_lp_cycles_without_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 10**9)
        with pytest.raises(LpError, match="exceeded .* pivots"):
            rk.solve_lp(beale_lp())

    def test_dual_of_beale_terminates(self):
        T, basis = beale_dual_tableau()
        status, _ = lp_module._dual_simplex(T, T.shape[1], basis, 1_000)
        assert status == "optimal"
        assert np.all(T[:-1, -1] >= -1e-9) and np.all(T[-1, :-1] >= -1e-9)
        assert T[-1, -1] == pytest.approx(-1.25, abs=1e-12)

    def test_dual_of_beale_cycles_without_dual_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 10**9)
        T, basis = beale_dual_tableau()
        with pytest.raises(LpError, match="exceeded .* pivots"):
            lp_module._dual_simplex(T, T.shape[1], basis, 1_000)


class TestTableauSteps:
    def test_in_place_append_matches_reallocating_append(self):
        # the buffer is wider than the tableau before every append but the
        # last, so eliminating over its whole width would be caught here; the
        # dual pivots after each append update whole buffer rows, so a spare
        # column they touched (0 / -p = -0.0) and an append then failed to
        # reset would show in the bytes
        rng = np.random.default_rng(47)
        optimal = 0
        while optimal < 100:
            m, n = int(rng.integers(1, 16)), int(rng.integers(1, 40))
            T, basis = slack_tableau(rng.uniform(-2, 2, (m, n)), rng.uniform(-3, 3, m), rng.uniform(0, 2, n))
            if lp_module._dual_simplex(T, T.shape[1], basis, 10_000)[0] != "optimal":
                continue
            optimal += 1
            appends = int(rng.integers(1, 5))
            buf = np.zeros((m + 1 + appends + int(rng.integers(0, 4)), T.shape[1] + appends + int(rng.integers(0, 4))))
            buf[: m + 1, : T.shape[1]] = T
            width, ref_basis = T.shape[1], list(basis)
            for _ in range(appends):
                row, rhs = rng.uniform(-2, 2, n), float(rng.uniform(-3, 3))
                T = reference_append_row(T, ref_basis, row, rhs)
                rows = lp_module._add_row(buf, width, basis, row, rhs)
                width += 1
                assert rows.shape[0] == T.shape[0] and rows[:, :width].tobytes() == T.tobytes()
                assert basis == ref_basis
                expected = lp_module._dual_simplex(T, T.shape[1], ref_basis, 10_000)
                assert lp_module._dual_simplex(rows, width, basis, 10_000) == expected
                assert rows[:, :width].tobytes() == T.tobytes() and basis == ref_basis

    def test_primal_simplex_refuses_nan_rhs(self):
        T = np.array([[1.0, 1.0, 0.0, np.nan], [1.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(LpError, match="non-finite right-hand side"):
            lp_module._run_simplex(T, T.shape[1], [1, 2], 1_000)

    def test_dual_simplex_refuses_nan_rhs(self):
        # the NaN row's basic variable is a slack, which no later check reads
        T = np.array([[1.0, 1.0, 0.0, np.nan], [1.0, 0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(LpError, match="non-finite right-hand side"):
            lp_module._dual_simplex(T, T.shape[1], [1, 2], 1_000)


class TestPivotCounts:
    """Pivot and round counts on fixed instances, summed over three ids.

    The counts are deterministic, so a pricing regression shows here
    whatever the timing noise. Ceilings sit about 10% (pivots) and 5%
    (rounds) above the counts under Dantzig pricing with the Bland
    fallback; Bland's rule alone took 238/285/346 and 377 max-min pivots
    at (20,6,50), and 621/838/770 and 1361 at (30,9,100).
    """

    CEILINGS = {
        # cell: (pivots for k = 1, 2, 3 and max-min, rounds for k = 1, 2, 3)
        (20, 6, 50): ((215, 277, 318, 152), (48, 74, 83)),
        (30, 9, 100): ((504, 787, 710, 341), (78, 131, 137)),
    }
    # the exact counts there, whose solves outgrow the tableau buffer
    # several times
    EXACT = {
        (20, 6, 50): ([195, 252, 289, 138], [46, 70, 79]),
        (30, 9, 100): ([458, 715, 645, 310], [74, 125, 130]),
    }

    @staticmethod
    def counts(cell, monkeypatch):
        solutions = []

        def recording_solve_lp(lp, row_source=None):
            solutions.append(rk.solve_lp(lp, row_source))
            return solutions[-1]

        monkeypatch.setattr("robustkit.scenarios.solve_lp", recording_solve_lp)
        monkeypatch.setattr("robustkit.bounds.solve_lp", recording_solve_lp)
        pivots, rounds = [0, 0, 0, 0], [0, 0, 0]
        for instance_id in range(3):
            u, spec = generate_instance(*cell, derive_seed(5, *cell, instance_id))
            for k in (1, 2, 3):
                rk.construct_lp_scenario(u, spec, k)
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

    def test_equality_slacks_stay_fixed(self, monkeypatch):
        # Phase 1 leaves the two slacks of the simplex row at 0; clearing the
        # nonbasic one keeps it from re-entering in degenerate pivots, which
        # without the clearing raise the pivots to 57/54/53/45.
        assert self.counts((10, 3, 10), monkeypatch) == ([53, 51, 45, 42], [22, 23, 22])
