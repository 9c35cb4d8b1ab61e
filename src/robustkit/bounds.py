"""Bound evaluation and certification.

Upper bounds come from evaluating a solution against every scenario; lower
bounds from the nominal value of a scenario certified inside the convex
hull of the set. The hull-wide best lower bound (max over hull scenarios
of the nominal optimum) is computed compactly by dualizing the nominal
LP, and an exhaustive enumerator provides exact optima for verification
at desk scale. For selection it is a depth-first search over blocks of
sibling nodes, one numpy step per block: a partial subset is pruned when,
even adding in every scenario the sum of the r smallest remaining costs
for its r missing items, the worst case exceeds the incumbent. A beam
dive seeds the incumbent, and the last missing item is evaluated for a
whole block at once. Pruning is strict, so ties with the incumbent are
still visited and resolve to the lexicographically smallest subset.
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
    cost_vector,
    ratio_or_inf,
)
from .lp import EQ, LE, LinearProgram, LpError, solve_lp
from .problems import ProblemSpec, Selection, ShortestPath, enumerate_solutions, nominal_solve, require_dimension, validate_k
from .scenarios import fixed_scenario_guarantee

# Hard cap on exhaustive enumeration (feasible solutions examined).
MAX_ENUMERATION = 20_000_000
# Floats per block expansion in the selection search (256 KiB per array).
_BLOCK_CELLS = 1 << 15


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
    values = cost_vector(c, u.n_items)
    gap = float(np.abs(values - lam.lam @ u.costs).max())
    if not gap <= EPS_CMP:  # a NaN gap certifies nothing
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
    with subset size k (defaulting to the scenario's own k, then 1). A k
    above the minimum solution cardinality, where no guarantee holds, is
    refused with ValueError.
    """
    k_used = k if k is not None else (c.k if c.k is not None else 1)
    if not validate_k(spec, k_used):
        raise ValueError(f"k={k_used} exceeds the minimum solution cardinality of the problem")
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
    The LP solver takes only nonnegative variables, so mu is written as
    mu+ - mu-, two columns at mu's position: [lam, mu+, mu-, nu].
    """
    if not isinstance(spec, Selection):
        raise ValueError("the max-min lower bound is only supported for selection problems")
    require_dimension(u, spec)
    n_scen, n_items = u.costs.shape
    mu = n_scen  # the columns of mu+ and mu-, then nu
    n_vars = n_scen + 2 + n_items
    objective = np.zeros(n_vars)
    objective[mu : mu + 2] = float(spec.p), -float(spec.p)
    objective[mu + 2 :] = -1.0
    lp = LinearProgram(objective=objective)
    for j in range(n_items):
        row = np.zeros(n_vars)
        row[:n_scen] = -u.costs[:, j]
        row[mu : mu + 2] = 1.0, -1.0
        row[mu + 2 + j] = -1.0
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
    order. A node holds pos, the next position it may take, and acc, the
    per-scenario costs of the items taken so far; every node of a stack
    entry has the same number r of items missing. Any completion adds, in
    every scenario, at least the sum of the r smallest costs from pos on,
    so a node is pruned when acc plus that sum exceeds the incumbent in
    some scenario. The comparison is strict, with a relative margin above
    the rounding of the two sums, so a node below which a leaf ties the
    incumbent is never pruned. The table of those sums keeps, per pos,
    only the r a node there can have, at most min(p, n - p) + 1 of them.

    A popped block is filtered with the current incumbent, then all its
    children (item j >= pos taken, room left for r - 1 more) are valued
    in one numpy step, and the survivors go back on the stack in blocks
    of at most _BLOCK_CELLS // (n N) nodes, the first child on top. That
    budget bounds the arrays of one step at max(_BLOCK_CELLS, n N)
    floats, whatever C(n, p) is. At the last level the children are
    leaves: the block's smallest value is taken, and among the leaves that
    tie it, the smallest sorted index tuple. The incumbent is seeded by a
    beam dive that keeps, level by level, the block budget's worth of
    children with the smallest bound; when it never drops a child it has
    seen every leaf and is the answer. The result is the lexicographic
    minimum over all leaves whatever the visiting order, because every
    leaf at or below the incumbent is reached and compared by the same
    (value, tuple) rule. A value is acc plus the item costs added in
    midpoint order, so fractional costs give the same bits on every path.
    """
    require_dimension(u, spec)
    if isinstance(spec, Selection):
        return _exact_selection(u, spec)
    return _exact_paths(u, spec)


def _exact_selection(u: UncertaintySet, spec: Selection) -> Tuple[float, BinarySolution]:
    n, p = spec.n, spec.p
    total = math.comb(n, p)
    if total > MAX_ENUMERATION:
        raise BudgetError(f"C({n},{p}) = {total} subsets exceed the enumeration cap {MAX_ENUMERATION}")

    n_scen = u.n_scenarios
    mid = u.costs.mean(axis=0)
    order = np.lexsort((np.arange(n), mid))
    costs = np.ascontiguousarray(u.costs[:, order].T)  # row j: item j's costs, midpoint order
    rows = max(1, _BLOCK_CELLS // (n * n_scen))
    # a node at pos with r items missing has max(0, p - pos) <= r <= min(p, n - pos);
    # low[pos, r - base[pos]] holds, per scenario, the sum of the r smallest
    # costs among positions pos..n-1, from the suffix recurrence
    # S(pos, r) = min(S(pos + 1, r), costs[pos] + S(pos + 1, r - 1))
    base = np.maximum(0, p - np.arange(n + 1))
    width = min(p, n - p) + 1
    low = np.full((n + 1, width, n_scen), np.inf)
    suffix = np.full((p + 1, n_scen), np.inf)  # S(pos, 0..p)
    suffix[0] = 0.0
    low[n, 0] = 0.0
    for pos in range(n - 1, -1, -1):
        np.minimum(suffix[1:], costs[pos] + suffix[:-1], out=suffix[1:])
        band = suffix[base[pos] : base[pos] + width]
        low[pos, : len(band)] = band
    # the bound and a completion's value sum the same kind of nonnegative
    # terms in different orders; each is within a relative n*eps of exact
    margin = 1.0 + 4 * n * np.finfo(float).eps

    def expand(pos, acc, r):
        """Children of a block of nodes with r items missing, as an (F, J) grid.

        Column j - lo takes item j, for j from lo = min(pos) up to n - r,
        which leaves room for the r - 1 items still missing. An entry is the
        worst case of the child's acc plus, above the last level, its
        completion bound; it is inf where j < pos[f].
        """
        lo = int(pos.min())
        j = np.arange(lo, n - r + 1)
        add = costs[j] if r == 1 else costs[j] + low[j + 1, r - 1 - base[j + 1]]
        values = (acc[:, None, :] + add).max(axis=2)
        values[j < pos[:, None]] = np.inf
        return lo, values

    def take(acc, chosen, f, j):
        return j + 1, acc[f] + costs[j], np.column_stack((chosen[f], j))

    def best_leaf(chosen, lo, values):
        """Smallest leaf value and the smallest sorted index tuple among its ties."""
        value = values.min()
        f, j = np.nonzero(values == value)
        tuples = np.sort(order[np.column_stack((chosen[f], j + lo))], axis=1)
        first = np.lexsort(tuples.T[::-1])[0]
        return float(value), tuple(int(i) for i in tuples[first])

    root = (np.zeros(1, dtype=np.intp), np.zeros((1, n_scen)), np.zeros((1, 0), dtype=np.intp))

    # seed the incumbent with a beam dive: the rows children of smallest
    # bound at each level, then the best leaf below them
    pos, acc, chosen = root
    complete = True  # no child dropped: the dive has seen every leaf
    for r in range(p, 1, -1):
        lo, values = expand(pos, acc, r)
        valid = int(np.isfinite(values).sum())
        complete = complete and valid <= rows
        f, j = np.divmod(np.argsort(values, axis=None, kind="stable")[: min(rows, valid)], values.shape[1])
        pos, acc, chosen = take(acc, chosen, f, j + lo)
    best_val, best_sol = best_leaf(chosen, *expand(pos, acc, 1))

    # depth-first over blocks of sibling nodes (pos, acc, chosen positions),
    # all with the same number of items missing
    stack = [] if complete else [root]
    while stack:
        pos, acc, chosen = stack.pop()
        r = p - chosen.shape[1]
        live = (acc + low[pos, r - base[pos]]).max(axis=1) <= best_val * margin
        if not live.all():
            pos, acc, chosen = pos[live], acc[live], chosen[live]
            if not len(pos):
                continue
        lo, values = expand(pos, acc, r)
        if r == 1:
            if values.min() <= best_val:
                value, candidate = best_leaf(chosen, lo, values)
                if value < best_val or (value == best_val and candidate < best_sol):
                    best_val, best_sol = value, candidate
            continue
        f, j = np.nonzero(values <= best_val * margin)
        pos, acc, chosen = take(acc, chosen, f, j + lo)
        for start in range((len(f) - 1) // rows * rows, -1, -rows):
            stack.append((pos[start : start + rows], acc[start : start + rows], chosen[start : start + rows]))
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
