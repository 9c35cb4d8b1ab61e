"""Bound evaluation and certification.

Upper bounds come from evaluating a solution against every scenario; lower
bounds from the nominal value of a scenario certified inside the convex
hull of the set. The hull-wide best lower bound (max over hull scenarios
of the nominal optimum) is computed compactly by dualizing the nominal
LP, and an exhaustive enumerator provides exact optima for verification
at desk scale. For selection it is a depth-first search that prunes a
partial subset when, even adding in every scenario the sum of the r
smallest remaining costs for its r missing items, the worst case exceeds
the incumbent; the last missing item is evaluated for all candidates in
one numpy step. Pruning is strict, so ties with the incumbent are still
visited and resolve to the lexicographically smallest subset.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import (
    EPS_CMP,
    BinarySolution,
    BoundReport,
    ConvexWeights,
    Scenario,
    UncertaintySet,
    ratio_or_inf,
)
from .lp import EQ, LE, LinearProgram, LpError, solve_lp
from .problems import ProblemSpec, Selection, ShortestPath, enumerate_solutions, nominal_solve
from .scenarios import fixed_scenario_guarantee

# Hard cap on exhaustive enumeration (feasible solutions examined).
MAX_ENUMERATION = 20_000_000


class BudgetError(RuntimeError):
    """The instance is too large for exhaustive enumeration; refusing beats degrading."""


def upper_bound(u: UncertaintySet, x: BinarySolution) -> float:
    """Worst-case value of x over all scenarios: max_i c^i . x."""
    if not x.selected:
        return 0.0
    return float(u.costs[:, list(x.selected)].sum(axis=1).max())


def lower_bound(u: UncertaintySet, c, lam: ConvexWeights, x_c: BinarySolution) -> float:
    """Nominal value c . x(c), valid as a lower bound because c is in the hull.

    The weights must certify c = sum_i lam_i c^i within EPS_CMP; scenarios
    outside the hull (e.g. the element-wise worst case) are rejected.
    """
    values = c.values if isinstance(c, Scenario) else np.asarray(c, dtype=float)
    gap = float(np.abs(values - lam.lam @ u.costs).max())
    if gap > EPS_CMP:
        raise ValueError(
            f"scenario is not certified inside the convex hull: weights miss it by {gap}"
        )
    return x_c.cost(values)


def aposteriori_report(
    u: UncertaintySet,
    spec: ProblemSpec,
    c: Scenario,
    lam: ConvexWeights,
    k: Optional[int] = None,
    apriori: Optional[float] = None,
) -> BoundReport:
    """Solve the nominal problem for c once and certify both bound kinds.

    The a-priori ratio is taken from the LP construction when given
    (apriori=1/t*), otherwise computed by fixing c in the guarantee LP
    with subset size k (defaulting to the scenario's own k, then 1).
    """
    k_used = k if k is not None else (c.k if c.k is not None else 1)
    if apriori is None:
        apriori = fixed_scenario_guarantee(u, c, k_used)
    x = nominal_solve(spec, c)
    ub = upper_bound(u, x)
    lb = lower_bound(u, c, lam, x)
    return BoundReport(
        apriori=apriori,
        lb=lb,
        ub=ub,
        aposteriori=ratio_or_inf(ub, lb),
        scenario_provenance=c.provenance,
        k_used=k_used,
    )


def maxmin_certificate(u: UncertaintySet, spec: ProblemSpec) -> Tuple[float, ConvexWeights]:
    """Best hull lower bound max_{c in conv(U)} min_x c.x, with its weights.

    Supported for selection only, where the nominal LP relaxation is
    integral and dualizes to the compact program
        max p*mu - sum_j nu_j
        s.t. mu - nu_j <= sum_i lam_i c^i_j  for all j,
             lam on the simplex, nu >= 0, mu free.
    """
    if not isinstance(spec, Selection):
        raise ValueError("the max-min lower bound is only supported for selection problems")
    n_scen, n_items = u.costs.shape
    if spec.n != n_items:
        raise ValueError(f"spec has n={spec.n} but uncertainty set has {n_items} items")
    n_vars = n_scen + 1 + n_items  # lam, mu, nu
    objective = np.zeros(n_vars)
    objective[n_scen] = float(spec.p)
    objective[n_scen + 1 :] = -1.0
    lower = np.zeros(n_vars)
    lower[n_scen] = -np.inf
    lp = LinearProgram(objective=objective, sense="max", lower=lower)
    for j in range(n_items):
        row = np.zeros(n_vars)
        row[:n_scen] = -u.costs[:, j]
        row[n_scen] = 1.0
        row[n_scen + 1 + j] = -1.0
        lp.add_constraint(row, LE, 0.0)
    simplex_row = np.zeros(n_vars)
    simplex_row[:n_scen] = 1.0
    lp.add_constraint(simplex_row, EQ, 1.0)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise LpError(f"max-min LP reported {sol.status}")
    return float(sol.objective), ConvexWeights(sol.x[:n_scen])


def exact_minmax(u: UncertaintySet, spec: ProblemSpec) -> Tuple[float, BinarySolution]:
    """Exact min-max optimum by exhaustive enumeration with pruning.

    Returns the lexicographic minimum of (value, sorted index tuple) over
    all feasible solutions, so value ties resolve to the smallest tuple
    whatever the enumeration order. Refuses instances whose feasible set
    exceeds MAX_ENUMERATION; s-t paths are enumerated in a single pass.

    Selection is a depth-first search over items in ascending midpoint
    order, seeded with the midpoint solution as incumbent. A node holds
    acc, the per-scenario costs of the items taken so far. Any completion
    with r more items from the remaining positions adds, in every
    scenario, at least the sum of the r smallest remaining costs, so the
    node is pruned when acc plus that sum exceeds the incumbent in some
    scenario. The comparison is strict, with a relative margin above the
    rounding of the two sums, so a completion that ties the incumbent is
    never pruned and the tie-break still sees it. When one item is
    missing, all completions are evaluated in one numpy step and taken in
    visiting order. A value is acc plus the item costs added in midpoint
    order, the incumbent's included, so fractional costs give the same
    bits on every path.
    """
    if isinstance(spec, Selection):
        return _exact_selection(u, spec)
    return _exact_paths(u, spec)


def _exact_selection(u: UncertaintySet, spec: Selection) -> Tuple[float, BinarySolution]:
    n, p = spec.n, spec.p
    if u.n_items != n:
        raise ValueError(f"spec has n={n} but uncertainty set has {u.n_items} items")
    total = math.comb(n, p)
    if total > MAX_ENUMERATION:
        raise BudgetError(f"C({n},{p}) = {total} subsets exceed the enumeration cap {MAX_ENUMERATION}")

    mid = u.costs.mean(axis=0)
    order = np.lexsort((np.arange(n), mid))
    costs = u.costs[:, order]
    # low[pos, r]: per scenario, the sum of the r smallest costs among
    # positions pos..n-1; inf where fewer than r remain
    low = np.full((n + 1, p + 1, u.n_scenarios), np.inf)
    low[:, 0] = 0.0
    for pos in range(n):
        tail = np.sort(costs[:, pos:], axis=1)[:, :p]
        low[pos, 1 : tail.shape[1] + 1] = np.cumsum(tail, axis=1).T
    # the bound and a completion's value sum the same kind of nonnegative
    # terms in different orders; each is within a relative n*eps of exact
    margin = 1.0 + 4 * n * np.finfo(float).eps

    # seed the incumbent with the midpoint solution, valued like the search
    x0 = nominal_solve(spec, mid)
    rank = np.argsort(order)
    best_val = float(np.cumsum(costs[:, np.sort(rank[list(x0.selected)])], axis=1)[:, -1].max())
    best_sol = x0.selected

    # explicit depth-first stack of (pos, taken, acc, chosen); the skip
    # child is pushed before the take child, so taking is explored first
    stack = [(0, 0, np.zeros(u.n_scenarios), ())]
    while stack:
        pos, taken, acc, chosen = stack.pop()
        if float((acc + low[pos, p - taken]).max()) > best_val * margin:
            continue
        if taken == p - 1:
            values = (acc[:, None] + costs[:, pos:]).max(axis=0)
            for col in np.nonzero(values <= best_val)[0]:
                value = float(values[col])
                candidate = tuple(sorted(chosen + (int(order[pos + col]),)))
                if value < best_val or (value == best_val and candidate < best_sol):
                    best_val = value
                    best_sol = candidate
            continue
        stack.append((pos + 1, taken, acc, chosen))
        stack.append((pos + 1, taken + 1, acc + costs[:, pos], chosen + (int(order[pos]),)))
    return best_val, BinarySolution(best_sol)


def _exact_paths(u: UncertaintySet, spec: ShortestPath) -> Tuple[float, BinarySolution]:
    best = None
    for count, x in enumerate(enumerate_solutions(spec), start=1):
        if count > MAX_ENUMERATION:
            raise BudgetError(f"more than {MAX_ENUMERATION} s-t paths")
        key = (upper_bound(u, x), x.selected)
        if best is None or key < best:
            best = key
    return best[0], BinarySolution(best[1])
