"""Self-contained dense-tableau simplex solver.

It solves the textbook standard form, max c . x subject to x >= 0 and
rows A x <= b or A x == b; a caller writes an upper limit as a row and a
free variable as the difference of two nonnegative columns.

Every solve starts from the slack basis of the tableau [A | I | b]: each
row is a <= row with its own basic slack, and an == row is written as
two opposite <= rows. Phase 1 is the dual simplex under a zero
objective, for which every basis is dual feasible, so it reaches a
feasible basis or proves the rows infeasible (Chvatal, *Linear
Programming*, 1983, ch. 10). The slacks of an == row can only be 0; each
one that left the basis has its column cleared, which fixes it at 0.
Phase 2 installs the objective and runs the primal simplex. There are no
artificial variables and no Big-M constant.

The primal entering column follows Dantzig's rule, the most negative
reduced cost; after a streak of degenerate pivots it switches to Bland's
rule until a pivot makes progress, which rules out cycling (Chvatal,
ch. 3). The dual leaving row is the most infeasible one, with the same
fallback to the smallest basic index (the dual Bland rule) after a
streak of dual-degenerate pivots. Every tie goes to the smallest index,
so the solves are deterministic: identical input yields the identical
pivot sequence. Built for the desk-scale programs produced by scenario
construction and the max-min bound; there is deliberately no sparse
algebra or integer support.

Row generation is warm-started: `solve_lp(lp, row_source)` keeps the
optimal tableau, appends each violated row written in the current basis
with a fresh basic slack, and restores primal feasibility with the same
dual simplex, which keeps the reduced costs optimal. No solve restarts
from scratch. The tableau lives in a buffer that doubles when full, so
each generated row is appended in place. A pivot updates whole buffer
rows, which are contiguous: the spare columns right of the tableau hold
zeros, pricing never reads them, and a column is set in full when a
generated row brings it into the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import EPS_FEAS

LE = "<="
EQ = "=="

_PIVOT_TOL = 1e-9
# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
_DEGENERATE_STREAK = 50


class LpError(RuntimeError):
    """Numerical failure inside the solver; never a silent wrong answer."""


@dataclass
class LinearProgram:
    """max objective . x subject to x >= 0 and rows of <= / == constraints."""

    objective: np.ndarray
    constraints: List[Tuple[np.ndarray, str, float]] = field(default_factory=list)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size < 1:
            raise ValueError("objective must be a nonempty vector")
        self.constraints = [self._check_row(*row) for row in self.constraints]

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
    # the pivot column comes out exact: p / p = 1 and x - x * 1 = +0; the
    # update is elementwise, so spare columns in T change no tableau bit
    prow = T[row]
    prow /= prow[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= colv[:, None] * prow
    basis[row] = col


def _pivot_cap(T: np.ndarray, width: int) -> int:
    return 10_000 + 200 * (T.shape[0] + width - 2)


def _first_basic(rows: np.ndarray, basis: List[int]) -> int:
    """The row of `rows` whose basic variable has the smallest index."""
    return int(rows[0]) if rows.size == 1 else min(rows.tolist(), key=basis.__getitem__)


def _run_simplex(T: np.ndarray, width: int, basis: List[int], max_iter: int) -> Tuple[str, int]:
    """Pivot the tableau T[:, :width] to optimality (max sense, z-c objective row).

    The entering column has the most negative reduced cost, ties going to
    the smallest column; after _DEGENERATE_STREAK consecutive degenerate
    pivots it is the smallest improving column (Bland) until a pivot moves
    the basic solution. The leaving row has the minimum ratio, ties going
    to the smallest basic index.
    """
    m = len(basis)
    iterations = 0
    streak = 0  # consecutive degenerate pivots
    obj, rhs = T[-1, : width - 1], T[:m, width - 1]  # views that follow the pivots
    while True:
        col = int(obj.argmin())  # a NaN reduced cost is the argmin
        if not obj[col] < -_PIVOT_TOL:
            # optimality certificate: no nonbasic variable has an improving
            # reduced cost beyond tolerance, and none is NaN
            if not np.isfinite(obj).all():
                raise LpError("non-finite reduced costs")
            if not np.isfinite(rhs).all():
                raise LpError("non-finite right-hand side")
            return "optimal", iterations
        if streak >= _DEGENERATE_STREAK:
            col = int((obj < -_PIVOT_TOL).argmax())  # Bland: smallest improving index
        colvals = T[:m, col]
        ratios = np.divide(rhs, colvals, out=np.full(m, np.inf), where=colvals > _PIVOT_TOL)
        best = ratios.min(initial=np.inf)  # NaN if a ratio is
        if not -np.inf < best < np.inf:  # no positive entry, or a non-finite rhs
            if not np.isfinite(rhs).all():
                raise LpError("non-finite right-hand side")
            return "unbounded", iterations
        _pivot(T, basis, _first_basic((ratios == best).nonzero()[0], basis), col)
        streak = streak + 1 if best <= _PIVOT_TOL else 0
        iterations += 1
        if iterations > max_iter:
            raise LpError(f"simplex exceeded {max_iter} pivots")


def _dual_simplex(T: np.ndarray, width: int, basis: List[int], max_iter: int) -> Tuple[str, int]:
    """Pivot a tableau T[:, :width] with optimal reduced costs back to primal feasibility.

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
    obj, rhs = T[-1, : width - 1], T[:-1, width - 1]  # views that follow the pivots
    while True:
        low = rhs.min(initial=0.0)  # NaN if any rhs is
        if not -np.inf < low < -_PIVOT_TOL:
            if not np.isfinite(rhs).all():
                raise LpError("non-finite right-hand side")
            return "optimal", iterations
        row = _first_basic((rhs == low if streak < _DEGENERATE_STREAK else rhs < -_PIVOT_TOL).nonzero()[0], basis)
        rowvals = T[row, : width - 1]
        ratios = np.divide(obj, -rowvals, out=np.full(rowvals.shape[0], np.inf), where=rowvals < -_PIVOT_TOL)
        col = int(ratios.argmin())  # first minimum: smallest column
        if ratios[col] == np.inf:  # no negative entry
            return "infeasible", iterations
        streak = streak + 1 if ratios[col] <= _PIVOT_TOL else 0
        _pivot(T, basis, row, col)
        iterations += 1
        if iterations > max_iter:
            raise LpError(f"dual simplex exceeded {max_iter} pivots")


def _add_row(buf: np.ndarray, width: int, basis: List[int], row: np.ndarray, rhs: float) -> np.ndarray:
    """Add the row `row . y + s = rhs` for a fresh slack s, made basic.

    The tableau is buf[:m + 1, :width] with m = len(basis), and buf must
    have a spare row and column. The objective row moves down a row and
    the rhs column right a column; the new row and its slack take the
    freed row and column. The row is written in the current basis by
    eliminating every basic column, so it reads s = rhs - (nonbasic terms)
    and the reduced costs are unchanged. Appends s to basis and returns
    buf[:m + 2], whose first width + 1 columns are the grown tableau.
    """
    m = len(basis)
    buf[m + 1, :width] = buf[m, :width]
    buf[: m + 2, width] = buf[: m + 2, width - 1]
    buf[: m + 2, width - 1] = 0.0
    new = buf[m, : width + 1]
    new[: row.shape[0]] = row
    new[row.shape[0] :] = 0.0
    new[width - 1] = 1.0
    new[width] = rhs
    # over exactly the tableau's width: a wider product can round differently
    new -= new[basis] @ buf[:m, : width + 1]
    basis.append(width - 1)
    return buf[: m + 2]


def _grown(a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """A zero array of the given shape holding a in its leading corner."""
    out = np.zeros(shape, a.dtype)
    out[tuple(map(slice, a.shape))] = a
    return out


def solve_lp(lp: LinearProgram, row_source: Optional[RowSource] = None) -> LpSolution:
    """Dense simplex; deterministic; raises LpError on numerical failure.

    Dual simplex pivots under a zero objective, from the slack basis with
    each == row split into two opposite <= rows, find the first feasible
    basis; the primal simplex then optimizes from it.

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
    n = lp.n_vars
    # base and generated rows and their constants; buf has more rows, so they grow with it
    A = np.array([coeffs for coeffs, _, _ in lp.constraints]).reshape(-1, n)
    b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)
    eq = np.array([rel == EQ for _, rel, _ in lp.constraints], dtype=bool)
    base = len(b)

    # [A | I | b]: every row a <= row with a basic slack; an == row is two
    # opposite <= rows, whose slacks can only be 0, negated ones last
    m = base + int(eq.sum())
    # the tableau is T[:, :width], where T = buf[:m + 1] are whole rows of a
    # buffer that gains spare rows and columns when it is full
    buf = T = np.zeros((m + 1, n + m + 1))
    width = T.shape[1]
    T[:base, :n], T[base:m, :n] = A, -A[eq]
    T[:base, -1], T[base:m, -1] = b, -b[eq]
    T[:m, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    max_iter = _pivot_cap(T, width)

    # Phase 1: under a zero objective every basis is dual feasible, so the
    # dual simplex reaches a feasible basis or proves the rows infeasible
    status, iterations = _dual_simplex(T, width, basis, max_iter)
    if status == "infeasible":
        return LpSolution(status="infeasible", iterations=iterations)
    # a nonbasic equality slack is 0; clearing its column keeps it out
    fixed = set((n + np.flatnonzero(eq)).tolist()) | set(range(n + base, n + m))
    T[:, sorted(fixed - set(basis))] = 0.0

    # Phase 2 objective row, on the zero row phase 1 left; the basic columns
    # are unit columns, so no subtraction changes another basic coefficient
    T[-1, :n] = -lp.objective
    coefs = T[-1, basis]
    for i in np.flatnonzero(coefs):
        T[-1] -= coefs[i] * T[i]
    status, its = _run_simplex(T, width, basis, max_iter)
    iterations += its
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)

    amax = np.abs(A).max(axis=1, initial=0.0)
    bscale = np.maximum(1.0, np.abs(b))
    rounds = 0
    while True:
        r = base + rounds
        y = np.zeros(width - 1)  # the variables, then the slacks
        y[basis] = T[:-1, width - 1]
        x = np.maximum(y[:n], 0.0)
        _check_feasible(x, A[:r], b[:r], eq[:r], amax[:r], bscale[:r])
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
        if T.shape[0] == len(buf):  # full: twice the rows, a column per row
            buf = _grown(buf, (2 * len(buf), buf.shape[1] + len(buf)))
            A, b, eq, amax, bscale = (_grown(a, (len(buf),) + a.shape[1:]) for a in (A, b, eq, amax, bscale))
        A[r], b[r], amax[r], bscale[r] = coeffs, rhs, np.abs(coeffs).max(), max(1.0, abs(rhs))
        rounds += 1
        T = _add_row(buf, width, basis, coeffs, rhs)
        width += 1
        max_iter = _pivot_cap(T, width)
        status, its = _dual_simplex(T, width, basis, max_iter)
        iterations += its
        if status == "infeasible":
            return LpSolution(status="infeasible", iterations=iterations, rounds=rounds)
        # the reduced costs stayed optimal; this certifies them (normally 0 pivots)
        status, its = _run_simplex(T, width, basis, max_iter)
        iterations += its
        if status == "unbounded":
            return LpSolution(status="unbounded", iterations=iterations, rounds=rounds)


def _check_feasible(x, A, b, eq, amax, bscale) -> None:
    """Surface accumulated round-off as an error instead of a wrong answer.

    x must satisfy the rows A x <= b (A x == b where eq) up to EPS_FEAS
    scaled by the magnitudes: amax and bscale hold each row's largest
    absolute coefficient and max(1, |b|). x >= 0 holds by construction.
    """
    if not np.isfinite(x).all():
        raise LpError("solution has non-finite values")
    xscale = max(1.0, float(np.abs(x).max()))
    lhs = A @ x
    excess = lhs - b
    np.abs(excess, out=excess, where=eq)
    violated = excess > EPS_FEAS * np.maximum(bscale, amax * xscale)
    if violated.any():
        idx = violated.argmax()
        relation = "!=" if eq[idx] else ">"
        raise LpError(f"constraint {idx} violated: {lhs[idx]} {relation} {b[idx]}")
