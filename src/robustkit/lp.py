"""Self-contained dense-tableau dual simplex solver.

It solves the textbook standard form, max c . x subject to x >= 0 and
A x <= b, for an objective c <= 0; A is one (m, n) matrix and b an (m,)
vector. Every row is a <= row: a caller writes an equality as two
opposite rows, an upper limit as a row and a free variable as the
difference of two nonnegative columns. With c <= 0 the objective is
at most 0, so feasible rows always have an optimum; a caller whose
objective has a positive part homogenizes it first, as the scenario LP
and the max-min LP do.

Every solve starts from the slack basis of the tableau [A | I | b], where
each row has its own basic slack. Its reduced costs -c are nonnegative,
so the dual simplex pivots it to an optimal basis or proves the rows
infeasible (Chvatal, *Linear Programming*, 1983, ch. 10). There is no
primal simplex, no artificial variable and no Big-M constant.

The leaving row is the most infeasible one; after a streak of
dual-degenerate pivots it is the infeasible row with the smallest basic
index (the dual Bland rule) until a pivot makes progress, which rules out
cycling. Every tie goes to the smallest index, so the solves are
deterministic: identical input yields the identical pivot sequence.
Each pivot's rank-1 update is one `np.dot` of a column by a row, a BLAS
dgemm with inner dimension 1, faster here than numpy's broadcast product,
which `@` is slower than: each cell is one rounded product either way, so
only the signs of zeros may differ, and no pivot decision reads them.
Built for the desk-scale programs produced by scenario construction and
the max-min bound; there is deliberately no sparse algebra or integer
support.

Row generation is warm-started: `solve_lp(lp, row_source)` keeps the
optimal tableau, appends each violated row written in the current basis
with a fresh basic slack, and restores primal feasibility with the same
dual simplex, which keeps the reduced costs optimal. No solve restarts
from scratch. The tableau is always exactly (rows + 1) x (columns + 1):
a generated row is copied into a tableau one row and one column larger.

A solve ends one of two ways: it returns the optimum, or it raises
LpError, whose message names the outcome: "infeasible" when a leaving
row has no negative entry, or the numerical failure (a pivot cap, a
non-finite value, a violated row) that stopped it. Only the returned
point is checked against the rows, every base and generated row; the
points a row source sees are finite, but not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import EPS_FEAS

_PIVOT_TOL = 1e-9
# Consecutive degenerate pivots after which the leaving row falls back to the dual Bland rule.
_DEGENERATE_STREAK = 50


class LpError(RuntimeError):
    """A solve without an optimum: infeasible rows or a numerical failure; never a silent wrong answer."""


@dataclass
class LinearProgram:
    """max objective . x subject to x >= 0 and constraints @ x <= rhs; an equality is two opposite rows.

    solve_lp refuses an objective with a positive entry; such an LP can
    still be built, as a reference for another solver.
    """

    objective: np.ndarray
    constraints: np.ndarray  # (m, n_vars)
    rhs: np.ndarray  # (m,)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size < 1:
            raise ValueError("objective must be a nonempty vector")
        self.constraints, self.rhs = np.asarray(self.constraints, dtype=float), np.asarray(self.rhs, dtype=float)
        shapes, m = (self.constraints.shape, self.rhs.shape), self.rhs.size
        if shapes != ((m, self.n_vars), (m,)):
            raise ValueError(f"constraints and rhs have shapes {shapes}, expected {((m, self.n_vars), (m,))}")
        if not (np.isfinite(self.constraints).all() and np.isfinite(self.rhs).all()):
            raise ValueError("coefficients and rhs must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int  # dual simplex pivots over the whole call
    rounds: int  # rows the row source appended


RowSource = Callable[[np.ndarray], Optional[Tuple[np.ndarray, float]]]  # (coeffs, rhs): coeffs . x <= rhs

# Row generation gives up after this many appended rows.
_MAX_ROUNDS = 100_000


def _pivot(T: np.ndarray, basis: List[int], row: int, col: int) -> None:
    # the pivot column comes out exact: p / p = 1 and x - x * 1 = +0
    prow = T[row]
    prow /= prow[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    # np.dot, not @ (slower here): a dgemm with inner dimension 1 rounds each cell
    # as colv[:, None] * prow does; only zero signs may differ (0 * -a gives +0)
    T -= np.dot(colv[:, None], prow[None, :])
    basis[row] = col


def _pivot_cap(T: np.ndarray) -> int:
    return 10_000 + 200 * (sum(T.shape) - 2)


def _first_basic(rows: np.ndarray, basis: List[int]) -> int:
    """The row of `rows` whose basic variable has the smallest index."""
    return int(rows[0]) if rows.size == 1 else min(rows.tolist(), key=basis.__getitem__)


def _dual_simplex(T: np.ndarray, basis: List[int]) -> int:
    """Pivot a tableau T with optimal reduced costs back to primal feasibility; returns the pivot count.

    The leaving row is the most infeasible one (rhs furthest below
    -_PIVOT_TOL), ties going to the smallest basic index; after
    _DEGENERATE_STREAK consecutive dual-degenerate pivots (entering ratio
    0) it is the infeasible row with the smallest basic index (the dual
    Bland rule) until a pivot moves the objective. The entering column
    minimizes reduced cost over minus the row's entry among the row's
    negative entries, ties going to the smallest column, which keeps every
    reduced cost nonnegative; it is found as the first maximum of reduced
    cost over the entry, since x / -y is exactly -(x / y). A leaving row
    without a negative entry proves the rows infeasible.
    """
    iterations, cap = 0, _pivot_cap(T)
    streak = 0  # consecutive dual-degenerate pivots
    obj, rhs = T[-1, :-1], T[:-1, -1]  # views that follow the pivots
    ratios = np.empty(T.shape[1] - 1)
    while True:
        low = rhs.min(initial=0.0)  # NaN if any rhs is
        if not -np.inf < low < -_PIVOT_TOL:
            if not np.isfinite(rhs).all():
                raise LpError("non-finite right-hand side")
            return iterations
        row = _first_basic((rhs == low if streak < _DEGENERATE_STREAK else rhs < -_PIVOT_TOL).nonzero()[0], basis)
        rowvals = T[row, :-1]
        ratios.fill(-np.inf)
        np.divide(obj, rowvals, out=ratios, where=rowvals < -_PIVOT_TOL)
        col = int(ratios.argmax())  # first maximum: smallest column
        if ratios[col] == -np.inf:  # no negative entry
            raise LpError(f"infeasible: leaving row {row} has no negative entry")
        streak = streak + 1 if ratios[col] >= -_PIVOT_TOL else 0
        _pivot(T, basis, row, col)
        iterations += 1
        if iterations > cap:
            raise LpError(f"dual simplex exceeded {cap} pivots")


def _add_row(T: np.ndarray, basis: List[int], row: np.ndarray, rhs: float) -> np.ndarray:
    """T grown by the row `row . y + s = rhs` for a fresh slack s, made basic.

    The new row goes above the objective row and the column of s left of
    the rhs column. The row is written in the current basis by eliminating
    every basic column, so it reads s = rhs - (nonbasic terms) and the
    reduced costs are unchanged. Appends s to basis.
    """
    m, width = len(basis), T.shape[1]
    out = np.zeros((m + 2, width + 1))
    out[:m, : width - 1], out[:m, -1] = T[:m, :-1], T[:m, -1]
    out[-1, : width - 1], out[-1, -1] = T[-1, :-1], T[-1, -1]
    new = out[m]
    new[: row.shape[0]] = row
    new[-2:] = 1.0, rhs
    new -= new[basis] @ out[:m]
    basis.append(width - 1)
    return out


def solve_lp(lp: LinearProgram, row_source: Optional[RowSource] = None) -> LpSolution:
    """Dense dual simplex; deterministic; returns the optimum or raises LpError.

    The objective must be <= 0 in every entry, or ValueError is raised:
    then the slack basis is dual feasible, and dual simplex pivots from it
    reach the optimum. Rows that no x >= 0 satisfies raise LpError, whose
    message starts with "infeasible"; a numerical failure raises LpError
    too.

    With row_source the LP is solved by row generation. After each optimum
    the source is called with the primal values and returns a row
    (coeffs, rhs), meaning coeffs . x <= rhs, that the point violates, or
    None when all of its implicit rows hold. The row is appended to the
    optimal tableau and dual simplex pivots restore feasibility, so the
    result is the optimum over the LP's rows plus every row the source
    returned (LpError "infeasible" if those rows exclude every point). The
    caller's LP is not modified. A source that returns a row the point
    satisfies, or more than _MAX_ROUNDS rows, raises LpError. iterations
    counts every pivot, rounds every row the source returned. The point
    returned is checked once against every base and then generated row;
    a violated one raises LpError naming its index in that order.
    """
    if not (lp.objective <= 0.0).all():
        raise ValueError("solve_lp needs an objective <= 0 in every entry")
    n = lp.n_vars
    base = len(lp.rhs)

    # [A | I | b]: every row has a basic slack, and the reduced costs -c are
    # nonnegative there
    T = np.zeros((base + 1, n + base + 1))
    T[:base, :n], T[:base, n:-1], T[:base, -1] = lp.constraints, np.eye(base), lp.rhs
    T[-1, :n] = -lp.objective
    basis = list(range(n, n + base))
    iterations = _dual_simplex(T, basis)

    rows, rhss = [], []  # the generated rows, for the check at the end
    while True:
        y = np.zeros(T.shape[1] - 1)  # the variables, then the slacks
        y[basis] = T[:-1, -1]
        x = np.maximum(y[:n], 0.0)
        source_row = None if row_source is None else row_source(x)
        if source_row is None:
            _check_feasible(x, np.concatenate((lp.constraints, np.reshape(rows, (-1, n)))), np.concatenate((lp.rhs, rhss)))
            return LpSolution(x, float(lp.objective @ x), iterations, len(rows))
        if len(rows) == _MAX_ROUNDS:
            raise LpError(f"row generation did not terminate within {_MAX_ROUNDS} rounds")
        coeffs, rhs = np.asarray(source_row[0], dtype=float), float(source_row[1])
        if coeffs.shape != (n,) or not (np.isfinite(coeffs).all() and math.isfinite(rhs)):
            raise ValueError(f"row_source must return ({n},) finite coefficients and a finite rhs, got {coeffs.shape}")
        if not float(coeffs @ x) > rhs:
            raise LpError("row_source returned a constraint the current point satisfies")
        rows.append(coeffs)
        rhss.append(rhs)
        T = _add_row(T, basis, coeffs, rhs)
        iterations += _dual_simplex(T, basis)


def _check_feasible(x, A, b) -> None:
    """Surface accumulated round-off as an error instead of a wrong answer.

    Runs once per solve, on the returned point, over every base and
    generated row. x must satisfy A x <= b up to EPS_FEAS times each row's
    max(1, |b|, max |coefficient| * max(1, max |x|)): relative, floored at
    EPS_FEAS, which both LPs meet at any cost scale as their rows are cost
    ratios or rescaled costs. x >= 0 holds by construction.
    """
    if not np.isfinite(x).all():
        raise LpError("solution has non-finite values")
    xscale = max(1.0, float(np.abs(x).max()))
    amax = np.abs(A).max(axis=1, initial=0.0)
    lhs = A @ x
    violated = lhs - b > EPS_FEAS * np.maximum(np.maximum(1.0, np.abs(b)), amax * xscale)
    if violated.any():
        idx = violated.argmax()
        raise LpError(f"constraint {idx} violated: {lhs[idx]} > {b[idx]}")
