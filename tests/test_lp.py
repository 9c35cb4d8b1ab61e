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
    x_j >= 0. With x >= 0 the feasible region has a vertex whenever it is
    nonempty, and an objective <= 0 is bounded above, so the optimum is at
    a vertex. Returns None when no vertex is feasible.
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


def eager_covering_lp(u, k):
    """The guarantee LP in covering form, with every subset row materialized.

    Over mu_1..mu_N >= 0 it maximizes -sum mu subject to
    -sum_m mu_m a(m, S) / a(i, S) <= -1 for every (i, S) with a(i, S) > 0,
    the rows written here from the subset sums, apart from scenarios.py.
    """
    rows = []
    for subset in itertools.combinations(range(u.n_items), k):
        sums = u.costs[:, subset].sum(axis=1)
        rows += [-sums / sums[i] for i in range(u.n_scenarios) if sums[i] > 0]
    return rk.LinearProgram(-np.ones(u.n_scenarios), np.reshape(rows, (-1, u.n_scenarios)), -np.ones(len(rows)))


def eager_t_star(u, k):
    """Reference t*: one plain solve of the covering LP, 1 / sum mu*; 1 when no row is left."""
    lp = eager_covering_lp(u, k)
    return -1.0 / rk.solve_lp(lp).objective if len(lp.rhs) else 1.0


def outcome(lp, row_source=None):
    """"optimal" if solve_lp returns, else "infeasible" when its LpError says so."""
    try:
        rk.solve_lp(lp, row_source)
    except LpError as exc:
        if not str(exc).startswith("infeasible"):
            raise
        return "infeasible"
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


def reference_pivot(T, basis, row, col):
    """`_pivot` with the rank-1 update as numpy's broadcast product, the reference the BLAS update must match."""
    prow = T[row]
    prow /= prow[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= colv[:, None] * prow
    basis[row] = col


def random_lp(rng, max_vars=6, max_rows=8):
    """A random LP with an objective <= 0 and right-hand sides of either sign, and a point x >= 0.

    The objective's entries are negative or, one in five, 0. Each row has
    coefficients of either sign and passes the point with a random slack,
    negative one time in four, so some draws are infeasible; one row in
    four is an equality through the point, written as two opposite rows.
    With a right-hand side >= 0 throughout, x = 0 would be optimal.
    """
    n = int(rng.integers(1, max_vars + 1))
    objective = np.where(rng.random(n) < 0.2, 0.0, -rng.uniform(0.1, 2, n))
    point = rng.uniform(0, 3, n)
    rows, rhs = [], []
    for _ in range(int(rng.integers(1, max_rows))):
        coeffs = rng.uniform(-2, 2, n)
        if rng.random() < 0.25:
            rows += [coeffs, -coeffs]
            rhs += [float(coeffs @ point), -float(coeffs @ point)]
        else:
            rows.append(coeffs)
            slack = abs(float(rng.normal()))
            rhs.append(float(coeffs @ point) + (slack if rng.random() < 0.75 else -slack))
    return rk.LinearProgram(objective, np.array(rows), rhs), point


class TestSolveLpBasics:
    def test_single_upper_constraint(self):
        # min x0 + 2 x1 s.t. x0 <= 5 and x0 + x1 >= 7: the upper row binds
        sol = rk.solve_lp(rk.LinearProgram([-1.0, -2.0], [[1.0, 0.0], [-1.0, -1.0]], [5.0, -7.0]))
        assert sol.objective == pytest.approx(-9.0, abs=1e-9)
        assert np.allclose(sol.x, [5.0, 2.0], atol=1e-9)

    def test_infeasible_via_bounds(self):
        lp = rk.LinearProgram([-1.0], [[-1.0], [1.0]], [-2.0, 1.0])  # x >= 2 and x <= 1
        assert outcome(lp) == "infeasible"

    def test_unbounded(self):
        # max x without rows is unbounded; an objective with a positive entry
        # is refused before any pivot, NaN included, while c <= 0 is bounded by 0
        for objective in ([1.0], [-1.0, 1e-300], [np.nan]):
            with pytest.raises(ValueError, match="objective <= 0"):
                rk.solve_lp(rk.LinearProgram(objective, np.zeros((0, len(objective))), []))
        sol = rk.solve_lp(rk.LinearProgram([-1.0, 0.0], np.zeros((0, 2)), []))
        assert sol.objective == 0.0 and np.array_equal(sol.x, [0.0, 0.0])

    def test_degenerate_equalities(self):
        # x0 + x1 == 1 and the redundant 2 x0 + 2 x1 == 2, each as two opposite rows
        lp = rk.LinearProgram([-1.0, -1.0], [[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]], [1.0, -1.0, 2.0, -2.0])
        assert rk.solve_lp(lp).objective == pytest.approx(-1.0, abs=1e-9)

    def test_contradictory_equalities(self):
        # x0 + x1 == 1 and x0 + x1 == 2, each as two opposite rows
        lp = rk.LinearProgram([-1.0, -1.0], [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0, 2.0, -2.0])
        assert outcome(lp) == "infeasible"

    def test_table1_scenario_lp(self, table1):
        u, _ = table1
        sol = rk.solve_lp(eager_covering_lp(u, 1))
        assert -sol.objective == pytest.approx(4.0 / 3.0, abs=0.01)  # 1 / t* = sum mu*

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
        with pytest.raises(ValueError, match="objective must be a nonempty vector"):
            rk.LinearProgram([], np.zeros((0, 0)), [])
        lp = rk.LinearProgram([-1.0, -1.0], np.eye(2), [1.0, 1.0])
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
        lp = rk.LinearProgram([-1.0], np.eye(1), [2.0])
        with pytest.raises(ValueError, match="finite coefficients and a finite rhs"):
            rk.solve_lp(lp, lambda x: (np.array([bad]), 1.0))
        with pytest.raises(ValueError, match="finite coefficients and a finite rhs"):
            rk.solve_lp(lp, lambda x: (np.array([1.0]), bad))


class TestAgainstVertexEnumeration:
    def test_random_bounded_lps(self):
        rng = np.random.default_rng(4242)
        checked = infeasible = 0
        for _ in range(60):
            lp, _ = random_lp(rng, max_vars=4, max_rows=6)
            got = outcome(lp)
            ref = brute_force_vertex_max(lp)
            if ref is None:
                assert got == "infeasible"
                infeasible += 1
                continue
            assert got == "optimal"
            assert rk.solve_lp(lp).objective == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))
            checked += ref < -1e-6  # x = 0 is not optimal
        assert checked >= 30 and infeasible >= 5


class TestDeterminism:
    def test_identical_runs(self):
        lp, _ = random_lp(np.random.default_rng(11))
        twin, _ = random_lp(np.random.default_rng(11))  # built apart from lp
        a = rk.solve_lp(lp)
        b = rk.solve_lp(twin)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)


class TestFeasibilityOfReportedOptimum:
    def test_constraints_hold_within_eps(self, table1):
        u, _ = table1
        for k in (1, 2):
            lp = eager_covering_lp(u, k)
            sol = rk.solve_lp(lp)
            x = sol.x
            assert np.all(lp.constraints @ x <= lp.rhs + 1e-9)
            assert abs(float(lp.objective @ x) - sol.objective) <= 1e-9 * (1 + abs(sol.objective))

    # max -x subject to -x <= -1: the slack basis, x = 0, violates the row
    AT_LEAST_ONE = rk.LinearProgram(np.array([-1.0]), np.array([[-1.0]]), np.array([-1.0]))

    def test_unpivoted_infeasible_basis_is_refused(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_dual_simplex", lambda T, basis: 0)
        with pytest.raises(rk.LpError, match="constraint 0 violated"):
            rk.solve_lp(self.AT_LEAST_ONE)

    def test_non_finite_solution_is_refused(self, monkeypatch):
        def nan_basic(T, basis):
            basis[0], T[0, -1] = 0, np.nan  # x basic in row 0 at NaN
            return 0

        monkeypatch.setattr(lp_module, "_dual_simplex", nan_basic)
        with pytest.raises(rk.LpError, match="solution has non-finite values"):
            rk.solve_lp(self.AT_LEAST_ONE)

    def test_violated_generated_row_is_refused_at_the_end(self, monkeypatch):
        # the dual simplex stops pivoting after the first appended row, so
        # the cut x >= 2, row 1 after the one base row, stays violated; the
        # source, having returned it, accepts the same point, and the check
        # at the end names the row
        real, solves, seen = lp_module._dual_simplex, [], []

        def pivots_only_the_base_rows(T, basis):
            solves.append(len(basis))
            return real(T, basis) if len(solves) == 1 else 0

        monkeypatch.setattr(lp_module, "_dual_simplex", pivots_only_the_base_rows)

        def once(x):
            seen.append(x.copy())
            return (np.array([-1.0]), -2.0) if len(seen) == 1 else None

        with pytest.raises(rk.LpError, match=r"constraint 1 violated: -1\.0 > -2\.0"):
            rk.solve_lp(self.AT_LEAST_ONE, once)
        assert solves == [1, 2] and [x.tolist() for x in seen] == [[1.0], [1.0]]

    def test_rows_are_checked_once_over_base_and_generated_rows(self, monkeypatch):
        u, _ = generate_instance(10, 3, 10, derive_seed(5, 10, 3, 10, 0))
        full = eager_covering_lp(u, 2)
        lp = rk.LinearProgram(full.objective, full.constraints[:2], full.rhs[:2])
        checked, check = [], lp_module._check_feasible
        monkeypatch.setattr(lp_module, "_check_feasible", lambda x, A, b: checked.append((x, A, b)) or check(x, A, b))
        sol = rk.solve_lp(lp, first_violated_source(list(zip(full.constraints, full.rhs))))
        assert sol.rounds > 1 and len(checked) == 1
        x, A, b = checked[0]
        assert x is sol.x and A.shape == (len(lp.rhs) + sol.rounds, u.n_scenarios) and b.shape == (len(A),)
        assert A[: len(lp.rhs)].tobytes() == lp.constraints.tobytes() and b[: len(lp.rhs)].tobytes() == lp.rhs.tobytes()


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
        lp, _ = random_lp(rng)
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
            lp, point = random_lp(rng, max_vars=5, max_rows=5)
            hidden = []
            for _ in range(int(rng.integers(1, 6))):
                coeffs = rng.uniform(-2, 2, lp.n_vars)
                hidden.append((coeffs, float(coeffs @ (point * rng.uniform(0, 2, lp.n_vars)))))
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
        lp = rk.LinearProgram([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [2.0, 2.0, 3.0])
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
        lp = rk.LinearProgram([-1.0], np.eye(1), [1.0])

        def satisfied_row(_x):
            return np.array([1.0]), 5.0  # never violated

        with pytest.raises(LpError, match="satisfies"):
            rk.solve_lp(lp, satisfied_row)

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_MAX_ROUNDS", 3)
        lp = rk.LinearProgram([-1.0], -np.eye(1), [-1.0])  # min x s.t. x >= 1

        def endless(x):
            return np.array([-1.0]), -float(x[0]) - 1.0  # x >= x + 1

        with pytest.raises(LpError, match="3 rounds"):
            rk.solve_lp(lp, endless)


def beale_dual_lp():
    """The dual of Beale's LP, max -b.y s.t. -A^T y <= -c over y >= 0.

    Beale's LP, max c.x s.t. A x <= b, is the one on which Dantzig pricing
    cycles (Chvatal, ch. 3); its optimum is 1.25. Its dual's objective -b
    is <= 0, so solve_lp takes it. At the slack basis the reduced costs b
    are optimal and the rows of x1 and x3 infeasible, so the dual simplex
    runs Beale's primal pivots in mirror image.
    """
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    return rk.LinearProgram(-np.array([0.0, 0.0, 1.0]), -A.T, -np.array([0.75, -20.0, 0.5, -6.0]))


def beale_dual_tableau():
    """beale_dual_lp's tableau at the slack basis, as solve_lp builds it."""
    lp = beale_dual_lp()
    return slack_tableau(lp.constraints, lp.rhs, -lp.objective)


class TestAntiCycling:
    def test_beale_lp_terminates(self):
        assert rk.solve_lp(beale_dual_lp()).objective == pytest.approx(-1.25, abs=1e-12)

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

    @pytest.mark.parametrize("shape", [(12, 25), (21, 71), (31, 163), (45, 150)])
    def test_pivot_matches_the_broadcast_update(self, shape):
        # each cell of the update is one product, so the BLAS product must
        # round it as the broadcast one does; only the sign of a zero may
        # differ (0 * -a is +0 from dgemm and -0 from numpy), which
        # np.array_equal ignores. Small integers make exact zeros, and half
        # of them are -0
        rng = np.random.default_rng(shape[0])
        for _ in range(20):
            T = rng.integers(-3, 4, shape).astype(float)
            T[(T == 0) & (rng.random(shape) < 0.5)] = -0.0
            row, col = int(rng.integers(shape[0] - 1)), int(rng.integers(shape[1] - 1))
            T[row, col] = -float(rng.integers(1, 4))  # the dual simplex pivots on a negative entry
            basis = list(range(shape[1] - shape[0], shape[1] - 1))
            ref, ref_basis = T.copy(), list(basis)
            lp_module._pivot(T, basis, row, col)
            reference_pivot(ref, ref_basis, row, col)
            assert np.array_equal(T, ref) and basis == ref_basis

    def test_dual_simplex_refuses_nan_rhs(self):
        # the NaN row's basic variable is a slack, which no later check reads
        T = np.array([[1.0, 1.0, 0.0, np.nan], [1.0, 0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(LpError, match="non-finite right-hand side"):
            lp_module._dual_simplex(T, [1, 2])


def grid_solves(cell, monkeypatch, seeded=False):
    """Every LP solution of the grid's LPs on derive_seed(5, ...) ids 0-2 of cell, as (k or "mm", solution).

    Each instance solves the scenario LP at k = 1, 2, 3, seeded from the
    previous k's optimum when seeded (the grid's path), then the max-min LP.
    """
    solutions = []

    def recording_solve_lp(lp, row_source=None):
        solutions.append(rk.solve_lp(lp, row_source))
        return solutions[-1]

    monkeypatch.setattr("robustkit.scenarios.solve_lp", recording_solve_lp)
    monkeypatch.setattr("robustkit.bounds.solve_lp", recording_solve_lp)
    solves = []
    for instance_id in range(3):
        u, spec = generate_instance(*cell, derive_seed(5, *cell, instance_id))
        start = None
        for k in (1, 2, 3):
            t_star, scenario, _ = rk.construct_lp_scenario(u, spec, k, start=start)
            start = (k, t_star, scenario) if seeded else None
            solves.append((k, solutions[-1]))
        rk.maxmin_certificate(u, spec)
        solves.append(("mm", solutions[-1]))
    return solves


@pytest.mark.parametrize("cell", [(10, 3, 10), (20, 6, 50), (30, 9, 100)])
def test_grid_solves_match_the_broadcast_pivot(cell, monkeypatch):
    # the whole pivot sequence, not just the values, must be the reference's
    def fingerprint(solves):
        return [(key, sol.x.tobytes(), sol.iterations, sol.rounds) for key, sol in solves]

    shipped = fingerprint(grid_solves(cell, monkeypatch, seeded=True))
    monkeypatch.setattr(lp_module, "_pivot", reference_pivot)
    assert fingerprint(grid_solves(cell, monkeypatch, seeded=True)) == shipped


class TestPivotCounts:
    """Pivot and round counts on fixed instances, summed over three ids.

    The counts are deterministic, so a pricing regression shows here
    whatever the timing noise. Ceilings sit about 10% (pivots) and 5%
    (rounds) above the counts of an earlier solver, which took primal
    pivots under Dantzig pricing with the Bland fallback, with the
    scenario LP in its hull form over [t, lam] and the max-min LP over
    the simplex row pair; Bland's rule alone took 238/285/346 and 377
    max-min pivots at (20,6,50), and 621/838/770 and 1361 at (30,9,100).
    The covering scenario LP and the homogenized max-min LP take fewer
    pivots, all of them dual.
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
        (10, 3, 10): ([25, 37, 32, 30], [0, 23, 22]),
        (20, 6, 50): ([108, 223, 253, 110], [0, 70, 79]),
        (30, 9, 100): ([161, 610, 565, 183], [0, 126, 130]),
    }

    # the grid's path, where each k >= 2 starts from the previous k's
    # optimum, each scenario binding there seeding its most violated
    # k-row; k = 1 and max-min are solved as above
    EXACT_SEEDED = {
        (10, 3, 10): ([25, 37, 16, 30], [0, 14, 4]),
        (20, 6, 50): ([108, 174, 201, 110], [0, 30, 46]),
        (30, 9, 100): ([161, 335, 303, 183], [0, 44, 51]),
    }

    @staticmethod
    def counts(cell, monkeypatch, seeded=False):
        pivots, rounds = [0, 0, 0, 0], [0, 0, 0]
        for key, sol in grid_solves(cell, monkeypatch, seeded):
            if key == "mm":
                pivots[3] += sol.iterations
                assert sol.rounds == 0
            else:
                pivots[key - 1] += sol.iterations
                rounds[key - 1] += sol.rounds
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
