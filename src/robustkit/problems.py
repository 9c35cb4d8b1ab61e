"""Nominal problem definitions and solvers.

Two feasible-set shapes are supported: choose exactly p of n items
(selection), and directed s-t paths with indexed edges (shortest path).
Both expose the same operations: solve the nominal problem for a cost
vector, bound the solution cardinality from above, and refuse a
subset-size parameter k that some feasible solution is smaller than.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .core import EPS_FEAS, BinarySolution, UncertaintySet, cost_vector


@dataclass(frozen=True)
class Selection:
    """Feasible set {x in {0,1}^n : sum x_j = p}."""

    n: int
    p: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"p must be in [1, n={self.n}], got {self.p}")


@dataclass(frozen=True)
class ShortestPath:
    """Directed s-t paths; items are edges, indexed 0..n-1 by position."""

    edges: Tuple[Tuple[int, int], ...]  # edge j = (tail, head)
    source: int
    sink: int

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not self.edges:
            raise ValueError("need at least one edge")
        nominal_solve(self, np.ones(len(self.edges)))  # raises unless the sink is reachable


ProblemSpec = Union[Selection, ShortestPath]


def dimension(spec: ProblemSpec) -> int:
    """Number of 0/1 items (selection items or edges)."""
    return spec.n if isinstance(spec, Selection) else len(spec.edges)


def require_dimension(u: UncertaintySet, spec: ProblemSpec) -> None:
    """Refuse an uncertainty set whose item count is not the spec's dimension."""
    if u.n_items != dimension(spec):
        raise ValueError(f"spec has n={dimension(spec)} but uncertainty set has {u.n_items} items")


def _out_edges(spec: ShortestPath):
    out = {}
    for j, (a, b) in enumerate(spec.edges):
        out.setdefault(a, []).append((j, b))
    return out


def nominal_solve(spec: ProblemSpec, c) -> BinarySolution:
    """Minimize c.x over the feasible set; deterministic under cost ties.

    Selection takes the p cheapest items. Items whose values lie within
    EPS_FEAS * max(values) of the p-th smallest value count as tied, and
    the smallest indices among them win, so rounding noise in the last
    bits of an LP scenario, whose binding rows equalize subset sums, does
    not decide x. Its cost may then exceed the nominal minimum by p times
    that tolerance; bounds.certify's lb is the exact minimum.
    Shortest path runs label-setting Dijkstra (cost_vector refuses
    negative costs) and prefers the smaller predecessor vertex, then the
    smaller edge index, on equal-cost ties.
    """
    values = cost_vector(c, dimension(spec))

    if isinstance(spec, Selection):
        cut, tol = np.partition(values, spec.p - 1)[spec.p - 1], EPS_FEAS * values.max()
        below, tied = np.flatnonzero(values < cut - tol), np.flatnonzero(np.abs(values - cut) <= tol)
        return BinarySolution(tuple(below) + tuple(tied[: spec.p - len(below)]))

    out = _out_edges(spec)
    dist = {spec.source: 0.0}
    pred = {}  # vertex -> (pred vertex, edge index)
    done = set()
    heap = [(0.0, spec.source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for j, w in out.get(v, ()):
            nd = d + values[j]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = (v, j)
                heapq.heappush(heap, (nd, w))
            elif w not in done and nd == dist[w] and (v, j) < pred[w]:
                pred[w] = (v, j)
    if spec.sink not in done:
        raise ValueError(f"no path from {spec.source} to {spec.sink}")
    path = []
    v = spec.sink
    while v != spec.source:
        pv, j = pred[v]
        path.append(j)
        v = pv
    return BinarySolution(tuple(path))


def require_k(spec: ProblemSpec, k: int) -> None:
    """Refuse k unless 1 <= k <= |x| for every feasible x: p items, or the fewest hops of a unit-cost path."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fewest = spec.p if isinstance(spec, Selection) else len(nominal_solve(spec, np.ones(len(spec.edges))))
    if k > fewest:
        raise ValueError(f"k={k} exceeds the minimum solution cardinality of the problem")


def _reached(start, neighbours) -> set:
    """The vertices reachable from start along neighbours (vertex -> list of vertices), start included."""
    seen, stack = {start}, [start]
    while stack:
        for w in neighbours.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def st_subgraph_edges(spec: ShortestPath) -> list:
    """Indices of the edges whose tail the source reaches and whose head reaches the sink.

    Their endpoints are the vertices that lie on some s-t walk, so every
    simple s-t path uses only these edges.
    """
    succ, pred = {}, {}
    for a, b in spec.edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    from_source, to_sink = _reached(spec.source, succ), _reached(spec.sink, pred)
    return [j for j, (a, b) in enumerate(spec.edges) if a in from_source and b in to_sink]


def max_solution_cardinality_bound(spec: ProblemSpec) -> int:
    """Upper bound on the solution cardinality |X| = max_x sum_j x_j.

    Selection: p. Shortest path, on the s-t subgraph (st_subgraph_edges):
    if it is acyclic, the longest s-t path by dynamic programming in
    graphlib's topological order; otherwise its vertex count minus one, as
    a simple path visits each vertex once (never above its edge count: the
    source reaches every vertex and a cycle closes).
    """
    if isinstance(spec, Selection):
        return spec.p

    from graphlib import CycleError, TopologicalSorter

    preds = {}
    for j in st_subgraph_edges(spec):
        a, b = spec.edges[j]
        preds.setdefault(b, []).append(a)
    try:
        order = tuple(TopologicalSorter(preds).static_order())
    except CycleError:
        return len(set(preds).union(*preds.values())) - 1
    longest = {}
    for v in order:
        # the source reaches every vertex, so each predecessor came earlier and only the source has none
        longest[v] = max((longest[u] + 1 for u in preds.get(v, ())), default=0)
    return longest[spec.sink]


def enumerate_solutions(spec: ShortestPath):
    """Yield every simple source-sink path (exhaustive; intended for oracles
    and exact solves at desk scale)."""
    out = _out_edges(spec)
    # DFS over simple paths
    stack = [(spec.source, (), frozenset([spec.source]))]
    while stack:
        v, path, seen = stack.pop()
        if v == spec.sink:
            yield BinarySolution(path)
            continue
        for j, w in sorted(out.get(v, ()), reverse=True):
            if w not in seen:
                stack.append((w, path + (j,), seen | {w}))
