"""Self-contained dense-tableau simplex solver.

Two-phase method (no Big-M: large constants interact badly with cost
magnitudes). The entering column follows Dantzig's rule, the most
negative reduced cost; after a streak of degenerate pivots it switches
to Bland's rule until a pivot makes progress, which rules out cycling
(Chvatal, *Linear Programming*, 1983, ch. 3). Every tie goes to the
smallest index, so the solves are deterministic: identical input yields
the identical pivot sequence. Built for the desk-scale programs produced
by scenario construction and the max-min bound; there is deliberately no
sparse algebra or integer support.

Row generation is warm-started: `solve_lp(lp, row_source)` keeps the
optimal tableau, appends each violated row written in the current basis
with a fresh basic slack, and restores primal feasibility with dual
simplex pivots, which keep the reduced costs optimal (Chvatal, ch. 10).
The dual leaving row is the most infeasible one, with the same fallback
to the smallest basic index (the dual Bland rule) after a streak of
dual-degenerate pivots. No solve restarts from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import EPS_CUT, EPS_FEAS

LE = "<="
EQ = "=="

_PIVOT_TOL = 1e-9
# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
_DEGENERATE_STREAK = 50


class LpError(RuntimeError):
    """Numerical failure inside the solver; never a silent wrong answer."""


@dataclass
class LinearProgram:
    """max (or min) objective . x subject to rows of <= / == constraints.

    Default variable bounds are [0, +inf); lower bounds may be any finite
    value or -inf, upper bounds any finite value or +inf.
    """

    objective: np.ndarray
    sense: str = "max"
    constraints: List[Tuple[np.ndarray, str, float]] = field(default_factory=list)
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size < 1:
            raise ValueError("objective must be a nonempty vector")
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = self.n_vars
        self.lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)) or np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ValueError("bounds must be finite, -inf (lower) or +inf (upper)")
        normalized = []
        for coeffs, rel, rhs in self.constraints:
            normalized.append(self._check_row(coeffs, rel, rhs))
        self.constraints = normalized

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    def _check_row(self, coeffs, rel, rhs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_vars,):
            raise ValueError(f"constraint has {coeffs.shape} coefficients, expected ({self.n_vars},)")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        if rel not in (LE, EQ):
            raise ValueError(f"relation must be {LE!r} or {EQ!r}, got {rel!r}")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ValueError("rhs must be finite")
        return coeffs, rel, rhs

    def add_constraint(self, coeffs, rel: str, rhs: float) -> None:
        self.constraints.append(self._check_row(coeffs, rel, rhs))

    def copy(self) -> "LinearProgram":
        return LinearProgram(
            objective=self.objective.copy(),
            sense=self.sense,
            constraints=[(a.copy(), rel, rhs) for a, rel, rhs in self.constraints],
            lower=self.lower.copy(),
            upper=self.upper.copy(),
        )


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0  # primal plus dual simplex pivots over the whole call
    rounds: int = 0  # rows the row source appended


RowSource = Callable[[np.ndarray], Optional[Tuple[np.ndarray, str, float]]]

# Row generation gives up after this many appended rows.
_MAX_ROUNDS = 100_000


def _pivot(T: np.ndarray, basis: List[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _pivot_cap(T: np.ndarray) -> int:
    return 10_000 + 200 * (T.shape[0] + T.shape[1] - 2)


def _run_simplex(T: np.ndarray, basis: List[int], max_iter: int) -> Tuple[str, int]:
    """Pivot the tableau to optimality (max sense, z-c objective row).

    The entering column has the most negative reduced cost, ties going to
    the smallest column; after _DEGENERATE_STREAK consecutive degenerate
    pivots it is the smallest improving column (Bland) until a pivot moves
    the basic solution. The leaving row has the minimum ratio, ties going
    to the smallest basic index.
    """
    m = len(basis)
    iterations = 0
    streak = 0  # consecutive degenerate pivots
    while True:
        obj = T[-1, :-1]
        col = int(np.argmin(obj))  # a NaN reduced cost is the argmin
        if not obj[col] < -_PIVOT_TOL:
            # optimality certificate: no nonbasic variable has an improving
            # reduced cost beyond tolerance, and none is NaN
            if not np.all(np.isfinite(obj)):
                raise LpError("non-finite reduced costs")
            return "optimal", iterations
        if streak >= _DEGENERATE_STREAK:
            col = int(np.argmax(obj < -_PIVOT_TOL))  # Bland: smallest improving index
        colvals = T[:m, col]
        positive = colvals > _PIVOT_TOL
        if not positive.any():
            return "unbounded", iterations
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / colvals[positive]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        row = int(min(ties, key=lambda r: basis[r]))  # smallest basic index leaves
        _pivot(T, basis, row, col)
        streak = streak + 1 if best <= _PIVOT_TOL else 0
        iterations += 1
        if iterations > max_iter:
            raise LpError(f"simplex exceeded {max_iter} pivots")


def _dual_simplex(T: np.ndarray, basis: List[int], max_iter: int) -> Tuple[str, int]:
    """Pivot a tableau with optimal reduced costs back to primal feasibility.

    The leaving row is the most infeasible one (rhs furthest below
    -_PIVOT_TOL), ties going to the smallest basic index; after
    _DEGENERATE_STREAK consecutive dual-degenerate pivots (entering ratio
    0) it is the infeasible row with the smallest basic index (the dual
    Bland rule) until a pivot moves the objective. The entering column
    minimizes reduced cost over minus the row's entry among the row's
    negative entries, ties going to the smallest column, which keeps every
    reduced cost nonnegative. A leaving row without a negative entry
    proves the rows infeasible.
    """
    iterations = 0
    streak = 0  # consecutive dual-degenerate pivots
    while True:
        rhs = T[:-1, -1]
        infeasible = np.nonzero(rhs < -_PIVOT_TOL)[0]
        if infeasible.size == 0:
            return "optimal", iterations
        if streak < _DEGENERATE_STREAK:
            infeasible = infeasible[rhs[infeasible] == rhs[infeasible].min()]
        row = int(min(infeasible, key=lambda r: basis[r]))
        rowvals = T[row, :-1]
        negative = rowvals < -_PIVOT_TOL
        if not negative.any():
            return "infeasible", iterations
        ratios = np.full(rowvals.shape[0], np.inf)
        ratios[negative] = T[-1, :-1][negative] / -rowvals[negative]
        col = int(np.argmin(ratios))  # first minimum: smallest column
        streak = streak + 1 if ratios[col] <= _PIVOT_TOL else 0
        _pivot(T, basis, row, col)
        iterations += 1
        if iterations > max_iter:
            raise LpError(f"dual simplex exceeded {max_iter} pivots")


def _append_row(T: np.ndarray, basis: List[int], row: np.ndarray, rhs: float) -> np.ndarray:
    """T plus the row `row . y + s = rhs` for a fresh slack s, made basic.

    The row is written in the current basis by eliminating every basic
    column, so it reads s = rhs - (nonbasic terms) and the reduced costs
    are unchanged. Returns the grown tableau and appends s to basis.
    """
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


def _standardize(lp: LinearProgram):
    """Rewrite as max c.y, A y rel b, y >= 0.

    Returns (c, rows, P, offsets) with x = offsets + P @ y, where each
    column of P holds one +-1, or None when the bounds alone are
    infeasible. A row a.x rel r becomes (a @ P) y rel r - a.offsets.
    """
    if np.any(lp.upper < lp.lower):
        return None
    columns = []  # (variable, sign) of each y column
    offsets = np.zeros(lp.n_vars)
    extra_rows = []  # upper-bound rows in y space
    for j in range(lp.n_vars):
        lo, up = lp.lower[j], lp.upper[j]
        if lo == -np.inf and up == np.inf:
            columns += [(j, 1.0), (j, -1.0)]
        elif lo == -np.inf:
            # mirror: x = up - y
            offsets[j] = up
            columns.append((j, -1.0))
        else:
            offsets[j] = lo
            if up != np.inf:
                extra_rows.append((len(columns), up - lo))
            columns.append((j, 1.0))
    P = np.zeros((lp.n_vars, len(columns)))
    for col, (j, sign) in enumerate(columns):
        P[j, col] = sign

    rows = [(coeffs @ P, rel, rhs - float(coeffs @ offsets)) for coeffs, rel, rhs in lp.constraints]
    for col, ub in extra_rows:
        row = np.zeros(len(columns))
        row[col] = 1.0
        rows.append((row, LE, ub))

    c = lp.objective @ P
    if lp.sense == "min":
        c = -c
    return c, rows, P, offsets


def solve_lp(lp: LinearProgram, row_source: Optional[RowSource] = None) -> LpSolution:
    """Two-phase dense simplex; deterministic; raises LpError on numerical failure.

    With row_source the LP is solved by row generation. After each optimum
    the source is called with the primal values and returns a "<=" row
    the point violates, or None when all of its implicit rows hold. The
    row is appended to the optimal tableau and dual simplex pivots restore
    feasibility, so the result is the optimum over the LP's rows plus
    every row the source returned (or "infeasible" if those rows exclude
    every point). The caller's LP is not modified. A source that returns
    a row the point satisfies, or more than _MAX_ROUNDS rows, raises
    LpError. iterations counts every primal and dual pivot, rounds every
    row the source returned.
    """
    std = _standardize(lp)
    if std is None:
        return LpSolution(status="infeasible")
    c, rows, P, offsets = std
    n_std = c.shape[0]
    m = len(rows)

    # normalize rhs >= 0; classify rows
    A = np.zeros((m, n_std))
    b = np.zeros(m)
    kinds = []  # 'le' (slack basic), 'ge' (surplus + artificial), 'eq' (artificial)
    for i, (row, rel, rhs) in enumerate(rows):
        if rhs < 0:
            row, rhs = -row, -rhs
            rel = {LE: "ge", EQ: "eq"}[rel]
        else:
            rel = {LE: "le", EQ: "eq"}[rel]
        A[i] = row
        b[i] = rhs
        kinds.append(rel)

    n_le = sum(1 for k in kinds if k == "le")
    n_ge = sum(1 for k in kinds if k == "ge")
    n_art = sum(1 for k in kinds if k in ("ge", "eq"))
    total = n_std + n_le + n_ge + n_art

    T = np.zeros((m + 1, total + 1))
    T[:m, :n_std] = A
    T[:m, -1] = b
    basis = [0] * m
    slack_at = n_std
    art_at = n_std + n_le + n_ge
    for i, kind in enumerate(kinds):
        if kind == "le":
            T[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        elif kind == "ge":
            T[i, slack_at] = -1.0
            slack_at += 1
            T[i, art_at] = 1.0
            basis[i] = art_at
            art_at += 1
        else:
            T[i, art_at] = 1.0
            basis[i] = art_at
            art_at += 1

    max_iter = _pivot_cap(T)
    iterations = 0

    art_start = n_std + n_le + n_ge
    if n_art:
        # Phase 1: maximize -sum(artificials); z-c row has +1 on artificials
        T[-1, :] = 0.0
        T[-1, art_start:total] = 1.0
        for i in range(m):
            if basis[i] >= art_start:
                T[-1] -= T[i]
        status, its = _run_simplex(T, basis, max_iter)
        iterations += its
        if status != "optimal":  # the phase 1 objective is bounded by 0
            raise LpError(f"phase 1 reported {status}")
        scale = max(1.0, float(np.abs(b).max()))
        if T[-1, -1] < -EPS_CUT * scale:
            return LpSolution(status="infeasible", iterations=iterations)
        # drive remaining artificials out of the basis, dropping redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= art_start:
                candidates = np.nonzero(np.abs(T[i, :art_start]) > _PIVOT_TOL)[0]
                if candidates.size:
                    _pivot(T, basis, i, int(candidates[0]))
                else:
                    keep[i] = False
        if not keep.all():
            T = np.vstack([T[:m][keep], T[-1:]])
            basis = [bv for i, bv in enumerate(basis) if keep[i]]
            m = len(basis)
        T = np.delete(T, np.s_[art_start:total], axis=1)
        total = art_start

    # Phase 2 objective row
    c_full = np.zeros(total + 1)
    c_full[:n_std] = c
    T[-1, :] = -c_full
    for i in range(m):
        coef = T[-1, basis[i]]
        if coef != 0.0:
            T[-1] -= coef * T[i]
    status, its = _run_simplex(T, basis, max_iter)
    iterations += its
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)

    # base rows plus generated rows, as arrays that grow by one row per round
    A = np.array([coeffs for coeffs, _, _ in lp.constraints]).reshape(-1, lp.n_vars)
    b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)
    eq = np.array([rel == EQ for _, rel, _ in lp.constraints], dtype=bool)
    amax = np.abs(A).max(axis=1, initial=0.0)
    rounds = 0
    while True:
        x = offsets + P @ _primal(T, basis, n_std)
        _check_feasible(x, lp.lower, lp.upper, A, b, eq, amax)
        source_row = None if row_source is None else row_source(x)
        if source_row is None:
            return LpSolution(status="optimal", x=x, objective=float(lp.objective @ x), iterations=iterations, rounds=rounds)
        if rounds == _MAX_ROUNDS:
            raise LpError(f"row generation did not terminate within {_MAX_ROUNDS} rounds")
        coeffs, rel, rhs = source_row
        if rel != LE:
            raise ValueError(f"row_source must return {LE!r} rows, got {rel!r}")
        coeffs, _, rhs = lp._check_row(coeffs, rel, rhs)
        if not float(coeffs @ x) > rhs:
            raise LpError("row_source returned a constraint the current point satisfies")
        A = np.vstack([A, coeffs])
        b = np.append(b, rhs)
        eq = np.append(eq, False)
        amax = np.append(amax, np.abs(coeffs).max())
        rounds += 1
        T = _append_row(T, basis, coeffs @ P, rhs - float(coeffs @ offsets))
        max_iter = _pivot_cap(T)
        status, its = _dual_simplex(T, basis, max_iter)
        iterations += its
        if status == "infeasible":
            return LpSolution(status="infeasible", iterations=iterations, rounds=rounds)
        # the reduced costs stayed optimal; this certifies them (normally 0 pivots)
        status, its = _run_simplex(T, basis, max_iter)
        iterations += its
        if status == "unbounded":
            return LpSolution(status="unbounded", iterations=iterations, rounds=rounds)


def _primal(T: np.ndarray, basis: List[int], n_std: int) -> np.ndarray:
    """Values of the standardized variables y at the tableau's basic solution."""
    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:-1, -1]
    return np.maximum(y[:n_std], 0.0)


def _check_feasible(x, lo, up, A, b, eq, amax) -> None:
    """Surface accumulated round-off as an error instead of a wrong answer.

    x must lie within the bounds [lo, up] and satisfy the rows A x <= b
    (A x == b where eq), up to EPS_FEAS scaled by the row's magnitude;
    amax holds each row's largest absolute coefficient.
    """
    if not np.all(np.isfinite(x)):
        raise LpError("solution has non-finite values")
    xmag = float(np.abs(x).max()) if x.size else 0.0
    tol = EPS_FEAS * np.maximum(max(1.0, xmag), np.where(np.isfinite(lo), np.abs(lo), 1.0))
    below, above = np.nonzero(x < lo - tol)[0], np.nonzero(x > up + tol)[0]
    if below.size:
        j = below[0]
        raise LpError(f"variable {j} violates its lower bound: {x[j]} < {lo[j]}")
    if above.size:
        j = above[0]
        raise LpError(f"variable {j} violates its upper bound: {x[j]} > {up[j]}")
    lhs = A @ x
    scale = np.maximum(np.maximum(1.0, np.abs(b)), amax * max(1.0, xmag))
    excess = np.where(eq, np.abs(lhs - b), lhs - b)
    violated = np.nonzero(excess > EPS_FEAS * scale)[0]
    if violated.size:
        idx = violated[0]
        relation = "!=" if eq[idx] else ">"
        raise LpError(f"constraint {idx} violated: {lhs[idx]} {relation} {b[idx]}")
