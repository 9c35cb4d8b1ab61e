"""Representative-scenario constructors and their approximation guarantees.

Three ways to compress a scenario set into a single cost vector:

* midpoint: the component-wise average. Solving it is an N-approximation.
* element-wise worst case: the component-wise maximum. An N-approximation
  and also a |X|-approximation, where |X| is the largest solution size.
* LP-constructed: maximize t subject to t * sum_S c^i <= sum_S c for every
  scenario i and every item subset S of fixed size k, over scenarios c in
  the convex hull of the set. Solving the resulting scenario gives a
  1/t*-approximation, never worse than N.

The N * C(n, k) subset rows are never materialized: one vectorized
separation oracle (for each scenario, the k items where c - t * c^i is
smallest) finds the most violated row, and the LP is solved by
warm-started row generation. At k = 1 the rows are known in advance:
item j's row for the scenario of largest c^i_j implies its others. The
base LP starts from these dominating rows, at most N + 1 of them (the
most a vertex over [t, lam] needs; a dense n-row start loses when
n >> N), so with n <= N + 1 the oracle only certifies the optimum. A
construction at a larger k can start from one at a smaller k, as the
experiment grid's do: the rows that bind at the smaller k's optimum,
each grown by the items where c - t * c^i is smallest, go into the base
LP. Seeded rows are rows of the LP, so t* is the same and only the
rounds fall; the optimal vertex may differ. The same constraint family
with c held fixed gives a sharpened guarantee for any hull scenario (in
particular the midpoint): the smallest subset-sum ratio, found exactly
by Dinkelbach's min-ratio iteration with that oracle.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import EPS_CMP, EPS_CUT, EPS_FEAS, ConvexWeights, Scenario, UncertaintySet, cost_vector
from .lp import LinearProgram, LpError, solve_lp
from .problems import ProblemSpec, max_solution_cardinality_bound, require_dimension, validate_k


def midpoint_scenario(u: UncertaintySet) -> Scenario:
    """Component-wise average of all scenarios."""
    return Scenario(u.costs.mean(axis=0))


def worstcase_scenario(u: UncertaintySet) -> Scenario:
    """Component-wise maximum over all scenarios."""
    return Scenario(u.costs.max(axis=0))


def worstcase_apriori_bound(u: UncertaintySet, spec: ProblemSpec) -> int:
    """Guarantee for the element-wise worst-case solution: min(N, |X|)."""
    require_dimension(u, spec)
    return min(u.n_scenarios, max_solution_cardinality_bound(spec))


def _most_violated(costs: np.ndarray, values: np.ndarray, t: float, k: int):
    """Max of t*sum_S c^i - sum_S c over scenarios i and |S| = k subsets.

    For each scenario the maximizing S collects the k smallest values of
    (c_j - t * c^i_j). Ties resolve to the smallest scenario index (argmax
    takes the first maximum), then the smallest item indices (the sort is
    stable). Returns (violation, i, S) with S sorted.

    The violations sum each row's k smallest values in ascending order, so
    a partial partition suffices; only the winning row is sorted for S.
    """
    vals = values - t * costs
    smallest = np.sort(np.partition(vals, k - 1, axis=1)[:, :k], axis=1)
    violations = -smallest.sum(axis=1)
    i = int(np.argmax(violations))
    idx = np.argsort(vals[i], kind="stable")[:k]
    return float(violations[i]), i, tuple(sorted(int(j) for j in idx))


def separation_oracle(
    u: UncertaintySet, c, t: float, k: int
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Most violated subset constraint t*sum_S c^i <= sum_S c, if any.

    Returns (scenario index, subset) when the worst violation exceeds
    EPS_CUT, else None. None is equivalent to an exhaustive check of all
    N * C(n, k) constraints finding no violation beyond EPS_CUT.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > u.n_items:
        raise ValueError(f"k={k} exceeds the item count {u.n_items}")
    values = cost_vector(c, u.n_items)
    violation, i, subset = _most_violated(u.costs, values, t, k)
    if violation > EPS_CUT:
        return i, subset
    return None


def scenario_lp(u: UncertaintySet, rows=()) -> LinearProgram:
    """The guarantee LP over variables [t, lam_1..lam_N] >= 0, maximizing t.

    The hull scenario c = sum_i lam_i c^i is substituted away, leaving
    t * a(i, S) <= sum_m lam_m a(m, S) with a(m, S) the subset sums. Only
    the simplex row sum_i lam_i = 1, written as the two rows
    sum_i lam_i <= 1 and -sum_i lam_i <= -1, the row t <= 1 and the subset
    rows of the (i, S) in rows are materialized, in that order; the others
    are generated by the separation oracle. The cap t <= 1 is tight
    whenever any subset of any scenario has positive cost and pins the
    degenerate all-zero case.
    """
    A = np.concatenate((np.zeros((3, 1 + u.n_scenarios)), _subset_rows(u, rows)))
    A[0, 1:], A[1, 1:], A[2, 0] = 1.0, -1.0, 1.0
    return LinearProgram(A[2].copy(), A, np.concatenate(([1.0, -1.0, 1.0], np.zeros(len(rows)))))


def _subset_rows(u: UncertaintySet, rows) -> np.ndarray:
    """The subset rows t * a(i, S) - sum_m lam_m a(m, S) <= 0 of the (i, S) in rows, all S of one size."""
    out = np.zeros((len(rows), 1 + u.n_scenarios))
    if rows:
        sums = u.costs[:, np.array([subset for _, subset in rows])].sum(axis=2).T
        out[:, 0] = sums[np.arange(len(rows)), [i for i, _ in rows]]
        out[:, 1:] = -sums
    return out


def _tight_rows(u: UncertaintySet, rows, values: np.ndarray, t: float):
    """The (i, S) of rows, all of one size, that bind at t and values.

    A row binds when sum_S c - t * sum_S c^i is at most
    EPS_FEAS * max(1, max c).
    """
    if not rows:
        return ()
    scen = np.array([i for i, _ in rows])
    sub = np.array([subset for _, subset in rows])
    slack = values[sub].sum(axis=1) - t * u.costs[scen[:, None], sub].sum(axis=1)
    tol = EPS_FEAS * max(1.0, float(values.max()))
    return tuple(row for row, s in zip(rows, slack) if s <= tol)


def _dominating_rows(u: UncertaintySet):
    """The k = 1 rows (argmax_i c^i_j, (j,)) that imply all the others, at most N + 1 of them.

    Row (i, {j}) reads t * c^i_j <= c_j, so the element-wise worst case
    w_j = max_i c^i_j gives the strongest row of item j, ties going to the
    smallest scenario. Items with w_j = 0 give rows that never bind and
    are left out. A vertex of the LP over [t, lam] needs at most N + 1
    rows, so of more items only the N + 1 with the smallest mid_j / w_j
    (the rows tightest at uniform weights; ties to the smallest item) are
    kept, in item order.
    """
    worst = u.costs.max(axis=0)
    items = np.flatnonzero(worst > 0.0)
    if len(items) > u.n_scenarios + 1:
        ratio = u.costs.mean(axis=0)[items] / worst[items]
        items = np.sort(items[np.argsort(ratio, kind="stable")[: u.n_scenarios + 1]])
    return [(int(i), (int(j),)) for i, j in zip(u.costs[:, items].argmax(axis=0), items)]


def _extended_rows(u: UncertaintySet, t: float, scenario: Scenario, k: int):
    """The binding rows of a smaller-k optimum, each grown to size k.

    Row (i, S) gains the k - |S| items outside S with the smallest
    c_j - t * c^i_j at that optimum, ties going to the smallest item: the
    most violated size-k row of scenario i that contains S.
    """
    if scenario.k is None or scenario.k >= k:
        raise ValueError(f"a start must come from a construction at k < {k}, got k={scenario.k}")
    if not scenario.rows:
        return []
    scen = np.array([i for i, _ in scenario.rows])
    sub = np.array([subset for _, subset in scenario.rows])
    vals = scenario.values - t * u.costs[scen]
    np.put_along_axis(vals, sub, np.inf, axis=1)
    extra = np.argsort(vals, axis=1, kind="stable")[:, : k - scenario.k]
    grown = np.sort(np.concatenate((sub, extra), axis=1), axis=1)
    return list(dict.fromkeys((int(i), tuple(S.tolist())) for i, S in zip(scen, grown)))


def construct_lp_scenario(
    u: UncertaintySet, spec: ProblemSpec, k: int, start: Optional[Tuple[float, Scenario]] = None
) -> Tuple[float, Scenario, ConvexWeights]:
    """Solve the guarantee LP and return (t_star, scenario, hull weights).

    The returned solution's nominal optimizer is a 1/t_star-approximation
    for the min-max problem; 1/t_star <= N always. The subset rows are
    added one at a time, each the most violated one at the current
    optimum, until none is violated by more than EPS_CUT. The scenario's
    rows are the subset rows that bind at the optimum.

    At k = 1 without a start, the base LP holds each item's dominating
    row, at most N + 1 of them (_dominating_rows): a vertex needs no
    more, and a longer start slows every pivot. They are rows of this
    LP, so t_star is unchanged.

    start, the (t_star, scenario) of a construction of the same instance
    at a smaller k, seeds the base LP with that optimum's binding rows,
    each grown to size k (_extended_rows). They are rows of this LP, so
    t_star is the same as unseeded; the optimal vertex, and with it the
    scenario, may differ.
    """
    require_dimension(u, spec)
    if not validate_k(spec, k):
        raise ValueError(f"k={k} exceeds the minimum solution cardinality of the problem")

    if start is not None:
        rows = _extended_rows(u, *start, k)
    else:
        rows = _dominating_rows(u) if k == 1 else []
    lp = scenario_lp(u, rows)

    def row_source(x):
        cut = separation_oracle(u, np.maximum(x[1:] @ u.costs, 0.0), x[0], k)
        if cut is None:
            return None
        rows.append(cut)
        i, subset = cut
        sums = u.costs[:, list(subset)].sum(axis=1)
        return np.concatenate(([sums[i]], -sums)), 0.0

    sol = solve_lp(lp, row_source)
    t_star = float(sol.x[0])
    if t_star <= 0.0:
        raise LpError(f"scenario construction LP returned t*={t_star} <= 0")
    lam = ConvexWeights(sol.x[1:])
    values = lam.combine(u)
    scenario = Scenario(values, k=k, rows=_tight_rows(u, rows, values, t_star))

    # never return a silently invalid guarantee
    violation, _, _ = _most_violated(u.costs, scenario.values, t_star, k)
    if violation > EPS_CMP:
        raise LpError(f"constructed scenario violates its own constraints by {violation}")
    if 1.0 / t_star > u.n_scenarios + EPS_CMP:
        raise LpError(f"guarantee 1/t*={1.0 / t_star} exceeds the scenario count {u.n_scenarios}")
    return t_star, scenario, lam


def fixed_scenario_guarantee(u: UncertaintySet, c, k: int) -> float:
    """Sharpened guarantee 1/t for a fixed scenario, keeping only t variable.

    t is the largest value satisfying t * sum_S c^i <= sum_S c for all
    scenarios i and |S| = k, i.e. the smallest subset-sum ratio, capped
    at 1 (exact whenever c dominates no scenario strictly). Dinkelbach's
    iteration finds it: starting at t = 1, while the most violated
    constraint at t is violated beyond a rounding tolerance, t moves to
    that constraint's ratio sum_S c / sum_S c^i. A violated constraint has
    a ratio strictly below t, so t runs down the finite set of subset
    ratios and stops at the smallest one, usually within two or three
    steps; a step that fails to lower t in floating point raises LpError
    rather than loop. Returns +inf when some scenario has positive cost on
    a subset where c has none. The scenario must lie in the convex hull
    of u for the guarantee to be meaningful; that is the caller's
    responsibility (it holds for midpoint and LP scenarios).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > u.n_items:
        raise ValueError(f"k={k} exceeds the item count {u.n_items}")
    values = cost_vector(c, u.n_items)
    costs = u.costs
    tol = 1e-12 * max(1.0, float(values.max(initial=0.0)) * k)

    t = 1.0
    while True:
        violation, i, subset = _most_violated(costs, values, t, k)
        if violation <= tol:
            return 1.0 / t
        cols = list(subset)
        # a violated row with a positive numerator has a positive denominator
        num = float(values[cols].sum())
        if num <= 0.0:
            return math.inf
        ratio = num / float(costs[i, cols].sum())
        if not ratio < t:
            raise LpError(f"min-ratio iteration stalled at t={t}: violation {violation} with ratio {ratio}")
        t = ratio
