"""Bound evaluation and certification.

Upper bounds come from evaluating a solution against every scenario; lower
bounds from the nominal value of a scenario certified inside the convex
hull of the set. certify takes both from one nominal solve; the experiment
grid and `robustkit bounds` certify the midpoint, the LP scenario and the
max-min scenario with that one call. The max-min scenario, the hull
scenario of largest nominal minimum, is found compactly by dualizing the
nominal LP, and an exhaustive enumerator provides exact optima for
verification at desk scale. For selection it is a depth-first search over
blocks of sibling nodes, one numpy step per block: a partial subset is
pruned when, even adding in every scenario the sum of the r smallest
remaining costs for its r missing items, the worst case exceeds the
incumbent. A beam dive seeds the incumbent, and the last missing item is
evaluated for a whole block at once. Pruning is strict, so ties with the
incumbent are still visited and resolve to the lexicographically smallest
subset.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import (
    EPS_CMP,
    ConvexWeights,
    InvariantError,
    UncertaintySet,
    cost_scale,
    cost_vector,
)
from .lp import LinearProgram, solve_lp
from .problems import ProblemSpec, Selection, ShortestPath, enumerate_solutions, nominal_solve, require_dimension

# Hard cap on exhaustive enumeration (feasible solutions examined).
MAX_ENUMERATION = 20_000_000
# Entries per block expansion in the selection search (256 KiB per float64 array).
_BLOCK_CELLS = 1 << 15
# Integer costs whose p-sums stay below this are searched in int16, with
# this as the "no completion" sentinel: every intermediate is below 2**15.
_INT_SENTINEL = 1 << 14


class BudgetError(RuntimeError):
    """The instance is too large for exhaustive enumeration; refusing beats degrading."""


def upper_bound(u: UncertaintySet, x: Tuple[int, ...]) -> float:
    """Worst-case value of x over all scenarios, max_i c^i . x; refuses a repeated or negative index, which numpy would misread."""
    items = list(x)
    if len(set(items)) != len(items) or min(items, default=0) < 0:
        raise ValueError(f"solution indices must be distinct and nonnegative, got {x}")
    return float(u.costs[:, items].sum(axis=1).max())


def certify(u: UncertaintySet, spec: ProblemSpec, c, lam: ConvexWeights) -> Tuple[float, float]:
    """(ub, lb) of the scenario c, certified inside the hull by lam, from one nominal solve.

    c is refused with ValueError before the solve unless cost_vector
    accepts it, lam has one weight per scenario, and lam certifies
    c = sum_i lam_i c^i within EPS_CMP (the element-wise worst case is
    not). ub is the worst case of c's nominal solution x; lb is the
    nominal minimum: for selection the p smallest values, ties to the
    smaller index, summed in index order (exact whichever near-tie x
    took), for paths x's cost. Raises InvariantError when lb exceeds ub
    by more than EPS_CMP. Both tolerances are relative, times
    cost_scale(u): the rounding of a cost grows with the costs.
    """
    values = cost_vector(c, u.n_items)
    if lam.lam.shape != (u.n_scenarios,):
        raise ValueError(f"weights have length {lam.lam.size}, expected {u.n_scenarios}, one per scenario")
    gap = float(np.abs(values - lam.lam @ u.costs).max())
    tol = EPS_CMP * cost_scale(u)
    if not gap <= tol:  # a NaN gap certifies nothing
        raise ValueError(f"scenario is not certified inside the convex hull: weights miss it by {gap}")
    x = nominal_solve(spec, values)
    ub = upper_bound(u, x)
    if isinstance(spec, Selection):
        lb = float(values[np.sort(np.argsort(values, kind="stable")[: spec.p])].sum())
    else:
        lb = float(values[list(x)].sum())
    if lb > ub + tol:
        raise InvariantError(f"lb <= ub violated: lb={lb} ub={ub}")
    return ub, lb


def maxmin_certificate(u: UncertaintySet, spec: ProblemSpec) -> Tuple[float, ConvexWeights]:
    """Best hull lower bound max_{c in conv(U)} min_x c.x, with its weights.

    Supported for selection only, where the nominal LP relaxation is
    integral and dualizes to V = max p*mu - sum_j nu_j s.t.
    mu - nu_j <= sum_i lam_i c^i_j for all j, lam on the simplex, nu >= 0
    and, as costs are nonnegative, mu >= 0. For V > 0 it is solved
    homogenized over (lam', mu', nu') = (s / V) (lam, mu, nu) >= 0, with s
    the largest cost:
        max -sum_i lam'_i
        s.t. mu' - nu'_j - sum_i lam'_i c^i_j <= 0  for all j,
             -p*mu' + sum_j nu'_j <= -s,
    whose objective is <= 0. Then V = s / sum_i lam'*_i and lam = lam' /
    sum_i lam'*_i; as V <= p s, sum_i lam'_i >= 1 / p at any cost scale.
    V = 0 exactly when p items cost 0 in every scenario; the homogenized LP
    is then infeasible, and the answer is 0 with the weight on scenario 0.
    """
    if not isinstance(spec, Selection):
        raise ValueError("the max-min lower bound is only supported for selection problems")
    require_dimension(u, spec)
    n_scen, n_items = u.costs.shape
    if (~u.costs.any(axis=0)).sum() >= spec.p:  # p items cost 0 in every scenario
        return 0.0, ConvexWeights(np.eye(n_scen)[0])
    # the LP reads the costs times the power of two that puts the largest in
    # [64, 128), as the grid's: exact, and the pivot tolerances act alike
    _, exp = math.frexp(float(u.costs.max()))
    costs = np.ldexp(u.costs, 7 - exp)
    scale = float(costs.max())  # s above
    mu = n_scen  # the column of mu', then nu'
    n_vars = n_scen + 1 + n_items
    # the item rows in ascending midpoint cost, then the normalization row:
    # after the first pivot every item row ties at rhs -s/p, and ties leave
    # by the smallest basic index, so this order decides the pivot path
    order = np.argsort(costs.mean(axis=0), kind="stable")
    rows = np.zeros((n_items + 1, n_vars))
    rows[:n_items, :n_scen] = -costs[:, order].T
    rows[:n_items, mu] = 1.0
    rows[:n_items, mu + 1 :] -= np.eye(n_items)[order]  # -= keeps the zeros +0.0
    rows[n_items, mu], rows[n_items, mu + 1 :] = -float(spec.p), 1.0
    rhs = np.concatenate((np.zeros(n_items), [-scale]))
    objective = np.zeros(n_vars)
    objective[:n_scen] = -1.0
    lam = solve_lp(LinearProgram(objective, rows, rhs)).x[:n_scen]
    total = float(lam.sum())
    return math.ldexp(scale / total, exp - 7), ConvexWeights(lam / total)


def exact_minmax(u: UncertaintySet, spec: ProblemSpec) -> Tuple[float, Tuple[int, ...]]:
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
    some scenario. The table of those sums keeps, per pos, only the r a
    node there can have, at most min(p, n - p) + 1 of them.

    Integer costs with p * max cost < 2**14, the grid's among them, are
    searched in int16: every sum is exact, "no completion" is the
    sentinel 2**14, and every intermediate stays below p * max + 2**14 <
    2**15. Any other costs are searched in float64, with inf as the
    sentinel; there the bound and a completion's value sum the same terms
    in different orders, so a node is pruned only above the incumbent
    times a relative margin over that rounding. Either way a node below
    which a leaf ties the incumbent is never pruned, and the incumbent is
    a scalar of the search's dtype, so no comparison upcasts a block.

    A block's children (item j >= pos taken, room left for r - 1 more)
    are valued in one numpy step, and the survivors go back on the stack
    in blocks of at most _BLOCK_CELLS // (n N) nodes, the first child on
    top, each with the cut that filtered it. A popped block is filtered
    again only if the incumbent has improved since its push; in integers
    its bound at the pop is exactly the value it passed at the push. The
    budget bounds the arrays of one step at max(_BLOCK_CELLS, n N)
    entries, whatever C(n, p) is. At the last level the children are
    leaves: the block's smallest value is taken, and among the leaves that
    tie it, the smallest sorted index tuple. The incumbent is seeded by a
    beam dive that keeps, level by level, the block budget's worth of
    children with the smallest bound; when it never drops a child it has
    seen every leaf and is the answer. The result is the lexicographic
    minimum over all leaves whatever the visiting order, because every
    leaf at or below the incumbent is reached and compared by the same
    (value, tuple) rule. A value is acc plus the item costs added in
    midpoint order, so fractional costs give the same bits on every path,
    and integer costs the same value in either dtype.
    """
    require_dimension(u, spec)
    if isinstance(spec, Selection):
        return _exact_selection(u, spec)
    return _exact_paths(u, spec)


def _exact_selection(u: UncertaintySet, spec: Selection) -> Tuple[float, Tuple[int, ...]]:
    n, p = spec.n, spec.p
    total = math.comb(n, p)
    if total > MAX_ENUMERATION:
        raise BudgetError(f"C({n},{p}) = {total} subsets exceed the enumeration cap {MAX_ENUMERATION}")

    n_scen = u.n_scenarios
    mid = u.costs.mean(axis=0)
    order = np.lexsort((np.arange(n), mid))
    costs = np.ascontiguousarray(u.costs[:, order].T)  # row j: item j's costs, midpoint order
    # in float64 the bound and a completion's value are each within a
    # relative n*eps of exact; in int16 both are exact
    sentinel, margin = np.inf, 1.0 + 4 * n * np.finfo(float).eps
    if p * costs.max() < _INT_SENTINEL:
        ints = costs.astype(np.int16)
        if np.array_equal(ints, costs):
            costs, sentinel, margin = ints, np.int16(_INT_SENTINEL), 1
    rows = max(1, _BLOCK_CELLS // (n * n_scen))
    # a node at pos with r items missing has max(0, p - pos) <= r <= min(p, n - pos);
    # low[pos, r - base[pos]] holds, per scenario, the sum of the r smallest
    # costs among positions pos..n-1, from the suffix recurrence
    # S(pos, r) = min(S(pos + 1, r), costs[pos] + S(pos + 1, r - 1)),
    # which the min keeps at or below the sentinel
    base = np.maximum(0, p - np.arange(n + 1))
    width = min(p, n - p) + 1
    low = np.full((n + 1, width, n_scen), sentinel, dtype=costs.dtype)
    suffix = np.full((p + 1, n_scen), sentinel, dtype=costs.dtype)  # S(pos, 0..p)
    suffix[0] = 0
    low[n, 0] = 0
    for pos in range(n - 1, -1, -1):
        np.minimum(suffix[1:], costs[pos] + suffix[:-1], out=suffix[1:])
        band = suffix[base[pos] : base[pos] + width]
        low[pos, : len(band)] = band

    def expand(pos, acc, r):
        """Children of a block of nodes with r items missing, as an (F, J) grid.

        Column j - lo takes item j, for j from lo = min(pos) up to n - r,
        which leaves room for the r - 1 items still missing. An entry is the
        worst case of the child's acc plus, above the last level, its
        completion bound; it is the sentinel where j < pos[f].
        """
        lo = int(pos.min())
        j = np.arange(lo, n - r + 1)
        add = costs[j] if r == 1 else costs[j] + low[j + 1, r - 1 - base[j + 1]]
        values = (acc[:, None, :] + add).max(axis=2)
        values[j < pos[:, None]] = sentinel
        return lo, values

    def take(acc, chosen, f, j):
        return j + 1, acc[f] + costs[j], np.concatenate((chosen[f], j[:, None]), axis=1)

    def best_leaf(chosen, lo, values):
        """Smallest leaf value and the smallest sorted index tuple among its ties."""
        value = values.min()
        f, j = np.nonzero(values == value)
        tuples = np.sort(order[np.concatenate((chosen[f], (j + lo)[:, None]), axis=1)], axis=1)
        first = np.lexsort(tuples.T[::-1])[0]
        return value, tuple(int(i) for i in tuples[first])

    root = (np.zeros(1, dtype=np.intp), np.zeros((1, n_scen), dtype=costs.dtype), np.zeros((1, 0), dtype=np.intp))

    # seed the incumbent with a beam dive: the rows children of smallest
    # bound at each level, then the best leaf below them
    pos, acc, chosen = root
    complete = True  # no child dropped: the dive has seen every leaf
    for r in range(p, 1, -1):
        lo, values = expand(pos, acc, r)
        valid = int((values < sentinel).sum())
        complete = complete and valid <= rows
        f, j = np.divmod(np.argsort(values, axis=None, kind="stable")[: min(rows, valid)], values.shape[1])
        pos, acc, chosen = take(acc, chosen, f, j + lo)
    best_val, best_sol = best_leaf(chosen, *expand(pos, acc, 1))
    cut = best_val * margin  # a node bounded above it has no leaf at or below the incumbent

    # depth-first over blocks of sibling nodes (pos, acc, chosen positions),
    # all with the same number of items missing, each with the cut that
    # filtered it when it was pushed
    stack = [] if complete else [(*root, cut)]
    while stack:
        pos, acc, chosen, pushed = stack.pop()
        r = p - chosen.shape[1]
        if _refilter(cut, pushed):
            live = (acc + low[pos, r - base[pos]]).max(axis=1) <= cut
            if not live.all():
                pos, acc, chosen = pos[live], acc[live], chosen[live]
                if not len(pos):
                    continue
        lo, values = expand(pos, acc, r)
        if r == 1:
            if values.min() <= best_val:
                value, candidate = best_leaf(chosen, lo, values)
                if value < best_val or (value == best_val and candidate < best_sol):
                    best_val, best_sol, cut = value, candidate, value * margin
            continue
        f, j = np.nonzero(values <= cut)
        pos, acc, chosen = take(acc, chosen, f, j + lo)
        for start in range((len(f) - 1) // rows * rows, -1, -rows):
            stack.append((pos[start : start + rows], acc[start : start + rows], chosen[start : start + rows], cut))
    return float(best_val), best_sol


def _refilter(cut, pushed) -> bool:
    """Whether a block filtered under the cut pushed must be filtered again under cut.

    Only when the incumbent has improved since the push. Under the same cut
    the filter would keep every node: in integers a node's bound at the pop
    is exactly the child value it passed at the push, and in floats a node
    kept by rounding is only visited, its leaves compared by the same
    (value, tuple) rule.
    """
    return cut < pushed


def _exact_paths(u: UncertaintySet, spec: ShortestPath) -> Tuple[float, Tuple[int, ...]]:
    best = None
    for count, x in enumerate(enumerate_solutions(spec), start=1):
        if count > MAX_ENUMERATION:
            raise BudgetError(f"more than {MAX_ENUMERATION} s-t paths")
        key = (upper_bound(u, x), x)
        if best is None or key < best:
            best = key
    return best
