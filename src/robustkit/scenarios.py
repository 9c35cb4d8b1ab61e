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
warm-started row generation. The same constraint family with c held
fixed gives a sharpened guarantee for any hull scenario (in particular
the midpoint): the smallest subset-sum ratio, found exactly by
Dinkelbach's min-ratio iteration with that oracle.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import EPS_CMP, EPS_CUT, ConvexWeights, Scenario, UncertaintySet, cost_vector
from .lp import EQ, LE, LinearProgram, LpError, solve_lp
from .problems import ProblemSpec, max_solution_cardinality_bound, require_dimension, validate_k


def midpoint_scenario(u: UncertaintySet) -> Scenario:
    """Component-wise average of all scenarios."""
    return Scenario(u.costs.mean(axis=0), provenance="midpoint")


def worstcase_scenario(u: UncertaintySet) -> Scenario:
    """Component-wise maximum over all scenarios."""
    return Scenario(u.costs.max(axis=0), provenance="worstcase")


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
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > u.n_items:
        raise ValueError(f"k={k} exceeds the item count {u.n_items}")
    values = cost_vector(c, u.n_items)
    violation, i, subset = _most_violated(u.costs, values, t, k)
    if violation > EPS_CUT:
        return i, subset
    return None


def scenario_lp(u: UncertaintySet) -> LinearProgram:
    """The base guarantee LP over variables [t, lam_1..lam_N] >= 0, maximizing t.

    The hull scenario c = sum_i lam_i c^i is substituted away, leaving
    t * a(i, S) <= sum_m lam_m a(m, S) with a(m, S) the subset sums. Only
    the simplex row and, after it, the row t <= 1 are materialized; the
    subset rows are generated by the separation oracle. The cap t <= 1 is
    tight whenever any subset of any scenario has positive cost and pins
    the degenerate all-zero case.
    """
    t_row = np.zeros(1 + u.n_scenarios)
    t_row[0] = 1.0
    return LinearProgram(objective=t_row, constraints=[(1.0 - t_row, EQ, 1.0), (t_row.copy(), LE, 1.0)])


def _subset_row(u: UncertaintySet, i: int, subset) -> np.ndarray:
    sums = u.costs[:, list(subset)].sum(axis=1)
    row = np.zeros(1 + u.n_scenarios)
    row[0] = sums[i]
    row[1:] = -sums
    return row


def construct_lp_scenario(u: UncertaintySet, spec: ProblemSpec, k: int) -> Tuple[float, Scenario, ConvexWeights]:
    """Solve the guarantee LP and return (t_star, scenario, hull weights).

    The returned solution's nominal optimizer is a 1/t_star-approximation
    for the min-max problem; 1/t_star <= N always. The subset rows are
    added one at a time, each the most violated one at the current
    optimum, until none is violated by more than EPS_CUT.
    """
    require_dimension(u, spec)
    if not validate_k(spec, k):
        raise ValueError(f"k={k} exceeds the minimum solution cardinality of the problem")

    def row_source(x):
        cut = separation_oracle(u, np.maximum(x[1:] @ u.costs, 0.0), x[0], k)
        return None if cut is None else (_subset_row(u, *cut), LE, 0.0)

    sol = solve_lp(scenario_lp(u), row_source)
    if sol.status != "optimal":
        raise LpError(f"scenario construction LP reported {sol.status}")

    t_star = float(sol.x[0])
    if t_star <= 0.0:
        raise LpError(f"scenario construction LP returned t*={t_star} <= 0")
    lam = ConvexWeights(sol.x[1:])
    scenario = Scenario(lam.combine(u), provenance="lp", k=k)

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
