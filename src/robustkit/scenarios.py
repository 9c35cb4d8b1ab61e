"""Representative-scenario constructors and their approximation guarantees.

Three ways to compress a scenario set into a single cost vector:

* midpoint: the component-wise average. Solving it is an N-approximation.
* element-wise worst case: the component-wise maximum. An N-approximation
  and also a |X|-approximation, where |X| is the largest solution size.
* LP-constructed: maximize t subject to t * sum_S c^i <= sum_S c for every
  scenario i and every item subset S of fixed size k, over scenarios c in
  the convex hull of the set. Solving the resulting scenario gives a
  1/t*-approximation, never worse than N.

The LP is solved in covering form: with c = sum_m lam_m c^m and
mu = lam / t it reads min sum_m mu_m subject to
sum_m mu_m a(m, S) / a(i, S) >= 1 for every (i, S) with a(i, S) > 0,
where a(m, S) = sum_S c^m, and t* = 1 / sum_m mu*_m, lam = t* mu*. Its
slack basis is dual feasible, so the dual simplex solves it from the
start and after every appended row.

The N * C(n, k) subset rows are never materialized: one vectorized
separation oracle (for each scenario, the k items where c - t * c^i is
smallest) finds the most violated row, and the LP is solved by
warm-started row generation. At k = 1 the rows are known in advance:
item j's row for the scenario of largest c^i_j implies its others. The
base LP starts from these dominating rows, at most N + 1 of them (a
dense n-row start loses when n >> N), so with n <= N + 1 the oracle
only certifies the optimum. A construction at a larger k can start from
one at a smaller k, as the experiment grid's do. The seed is read from
that optimum (t, c) alone: each scenario i that binds there (its
smaller-k smallest values of c - t * c^i sum to about 0) puts its k
smallest, its most violated size-k row, into the base LP. Seeded rows
are rows of the LP, so t* is the same and only the rounds fall; the
optimal vertex may differ. The same constraint family with c held fixed
gives a sharpened guarantee for any hull scenario (in particular the
midpoint): the smallest subset-sum ratio, found exactly by Dinkelbach's
min-ratio iteration with that oracle.

Every function here that takes k takes the spec too and checks k with
problems.require_k: summing the rows over the k-subsets S of a solution
x gives t * c^i(x) <= c(x) only if k <= |x| for every feasible x. Every
subset row, seeded or generated, is built by _subset_rows.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import EPS_CMP, EPS_CUT, EPS_FEAS, ConvexWeights, UncertaintySet, cost_scale, cost_vector
from .lp import LinearProgram, LpError, solve_lp
from .problems import ProblemSpec, max_solution_cardinality_bound, require_dimension, require_k


def midpoint_scenario(u: UncertaintySet) -> np.ndarray:
    """Component-wise average of all scenarios."""
    return u.costs.mean(axis=0)


def worstcase_scenario(u: UncertaintySet) -> np.ndarray:
    """Component-wise maximum over all scenarios."""
    return u.costs.max(axis=0)


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

    The violations sum each row's k smallest values in ascending order;
    only the winning row is sorted stably for S.
    """
    vals = values - t * costs
    smallest = np.sort(vals, axis=1)[:, :k]
    violations = -smallest.sum(axis=1)
    i = int(violations.argmax())
    idx = vals[i].argsort(kind="stable")[:k]
    return float(violations[i]), i, tuple(sorted(idx.tolist()))


def separation_oracle(u: UncertaintySet, spec: ProblemSpec, k: int, c, t: float) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Most violated subset constraint t*sum_S c^i <= sum_S c, if any.

    Returns (scenario index, subset) when the worst violation exceeds
    EPS_CUT * cost_scale(u), else None. None is equivalent to an
    exhaustive check of all N * C(n, k) constraints finding none beyond.
    require_k checks k: the summation proof needs k <= |x| for every feasible x.
    """
    require_dimension(u, spec)
    require_k(spec, k)
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    values = cost_vector(c, u.n_items)
    violation, i, subset = _most_violated(u.costs, values, t, k)
    if violation > EPS_CUT * cost_scale(u):
        return i, subset
    return None


def scenario_lp(u: UncertaintySet, rows=()) -> LinearProgram:
    """The guarantee LP in covering form over mu_1..mu_N >= 0, maximizing -sum_m mu_m.

    Substituting the hull scenario c = sum_m lam_m c^m and mu = lam / t
    into t * a(i, S) <= sum_m lam_m a(m, S), with a(m, S) the subset
    sums, gives the rows -sum_m mu_m a(m, S) / a(i, S) <= -1. Only the
    subset rows of the (i, S) in rows are materialized, in that order; each
    must have a(i, S) > 0 (a row with a(i, S) = 0 holds for every mu). The
    others are generated by the separation oracle. t* = 1 / sum_m mu*_m.
    """
    return LinearProgram(-np.ones(u.n_scenarios), _subset_rows(u, rows), -np.ones(len(rows)))


def _subset_rows(u: UncertaintySet, rows) -> np.ndarray:
    """The covering rows -a(m, S) / a(i, S) over m of the (i, S) in rows, all S of one size."""
    if not rows:
        return np.zeros((0, u.n_scenarios))
    sums = u.costs[:, np.array([subset for _, subset in rows])].sum(axis=2).T
    return -sums / sums[np.arange(len(rows)), [i for i, _ in rows]][:, None]


def _dominating_rows(u: UncertaintySet):
    """The k = 1 rows (argmax_i c^i_j, (j,)) that imply all the others, at most N + 1 of them.

    Row (i, {j}) reads t * c^i_j <= c_j, so the element-wise worst case
    w_j = max_i c^i_j gives the strongest row of item j, ties going to the
    smallest scenario. Items with w_j = 0 give rows that hold for every
    weight and are left out. A vertex of the hull LP over [t, lam] binds
    at most N + 1 rows (of the covering LP over mu, N), so of more items
    only the N + 1 with the smallest mid_j / w_j (the rows tightest at
    uniform weights; ties to the smallest item) are kept, in item order.
    """
    worst = u.costs.max(axis=0)
    items = np.flatnonzero(worst > 0.0)
    if len(items) > u.n_scenarios + 1:
        ratio = u.costs.mean(axis=0)[items] / worst[items]
        items = np.sort(items[np.argsort(ratio, kind="stable")[: u.n_scenarios + 1]])
    return [(int(i), (int(j),)) for i, j in zip(u.costs[:, items].argmax(axis=0), items)]


def _extended_rows(u: UncertaintySet, k_prev: int, t: float, c, k: int):
    """The size-k rows an optimum (t, c) at 1 <= k_prev < k seeds, one per scenario that binds there.

    With vals = c - t * c^i, scenario i binds when its k_prev smallest
    vals sum to at most EPS_FEAS * max c (vals scale with the costs); it
    seeds its k smallest vals, ties going to the smallest item: its most
    violated size-k row at that optimum. A row with a(i, S) = 0 holds for
    every mu and is left out.
    """
    if not 1 <= k_prev < k:
        raise ValueError(f"a start must come from a construction at 1 <= k < {k}, got k={k_prev}")
    values = cost_vector(c, u.n_items)
    vals = values - t * u.costs
    order = np.argsort(vals, axis=1, kind="stable")
    slack = np.take_along_axis(vals, order[:, :k_prev], axis=1).sum(axis=1)
    scen = np.flatnonzero(slack <= EPS_FEAS * float(values.max()))
    grown = np.sort(order[scen, :k], axis=1)
    own = u.costs[scen[:, None], grown].sum(axis=1)
    return [(int(i), tuple(S.tolist())) for i, S, a in zip(scen, grown, own) if a > 0.0]


def construct_lp_scenario(
    u: UncertaintySet, spec: ProblemSpec, k: int, start: Optional[Tuple[int, float, np.ndarray]] = None
) -> Tuple[float, np.ndarray, ConvexWeights]:
    """Solve the guarantee LP and return (t_star, scenario, hull weights).

    The returned solution's nominal optimizer is a 1/t_star-approximation
    for the min-max problem; 1/t_star <= N always. The subset rows are
    added one at a time, each the most violated one at the current
    optimum, until none is violated by more than EPS_CUT * cost_scale(u).
    The LP is scenario_lp's covering form, solved by dual simplex pivots
    alone: t_star = 1 / sum_m mu*_m and the hull weights are t_star * mu*.
    A subset row with a(i, S) = 0 holds for every mu and is left out; with
    all costs zero no row is left, and t_star = 1 with the weight on
    scenario 0.

    At k = 1 without a start, the base LP holds each item's dominating
    row, at most N + 1 of them (_dominating_rows): a vertex needs no
    more, and a longer start slows every pivot. They are rows of this
    LP, so t_star is unchanged.

    start, the (k_prev, t_star, scenario) of a construction of the same
    instance at 1 <= k_prev < k, seeds the base LP from that optimum alone:
    each scenario i whose k_prev smallest values of c - t_star * c^i sum
    to at most EPS_FEAS * max c binds there, and seeds its k smallest
    (_extended_rows). They are rows of this LP, so t_star is the same as
    unseeded; the optimal vertex, and with it the scenario, may differ.
    """
    require_dimension(u, spec)
    require_k(spec, k)

    if start is not None:
        rows = _extended_rows(u, *start, k)
    else:
        rows = _dominating_rows(u) if k == 1 else []
    lp = scenario_lp(u, rows)
    scale = cost_scale(u)

    def row_source(mu):
        total = float(mu.sum())
        # no row yet leaves mu = 0 with no t: cut where the hull LP's first
        # solve lands, at t = 1 against scenario 0
        t = 1.0 / total if total > 0.0 else 1.0
        c = t * (mu @ u.costs) if total > 0.0 else u.costs[0]
        violation, i, subset = _most_violated(u.costs, c, t, k)
        if violation <= EPS_CUT * scale:
            return None
        return _subset_rows(u, [(i, subset)])[0], -1.0  # a violated row has a(i, S) > 0

    mu = solve_lp(lp, row_source).x
    total = float(mu.sum())
    # all-zero costs give no row and mu* = 0: every t is feasible in the
    # hull form, which answers t* = 1 with the weight on scenario 0
    t_star = 1.0 / total if total > 0.0 else 1.0
    lam = ConvexWeights(t_star * mu if total > 0.0 else np.eye(u.n_scenarios)[0])
    scenario = lam.combine(u)

    # never return a silently invalid guarantee: the violation is a cost,
    # checked relative to the cost scale; 1/t* is a ratio, checked absolute
    violation, _, _ = _most_violated(u.costs, scenario, t_star, k)
    if violation > EPS_CMP * scale:
        raise LpError(f"constructed scenario violates its own constraints by {violation}")
    if 1.0 / t_star > u.n_scenarios + EPS_CMP:
        raise LpError(f"guarantee 1/t*={1.0 / t_star} exceeds the scenario count {u.n_scenarios}")
    return t_star, scenario, lam


def fixed_scenario_guarantee(u: UncertaintySet, spec: ProblemSpec, k: int, c) -> float:
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
    responsibility (it holds for midpoint and LP scenarios). require_k
    checks k: the summation proof needs k <= |x| for every feasible x.
    """
    require_dimension(u, spec)
    require_k(spec, k)
    values = cost_vector(c, u.n_items)
    costs = u.costs
    tol = 1e-12 * float(values.max()) * k  # relative: violations scale with c

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
