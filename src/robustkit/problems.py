"""Nominal problem definitions and solvers.

Two feasible-set shapes are supported: choose exactly p of n items
(selection), and directed s-t paths with indexed edges (shortest path).
Both expose the same operations: solve the nominal problem for a cost
vector, bound the solution cardinality from below and above, and check
whether a subset-size parameter k is valid for the guarantee machinery.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
        if _min_hops(self) is None:
            raise ValueError(f"no path from {self.source} to {self.sink}")


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


def _min_hops(spec: ShortestPath) -> Optional[int]:
    """BFS hop count from source to sink, None if unreachable."""
    out = _out_edges(spec)
    dist = {spec.source: 0}
    queue = [spec.source]
    for v in queue:
        if v == spec.sink:
            return dist[v]
        for _, w in out.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist.get(spec.sink)


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


def min_solution_cardinality(spec: ProblemSpec) -> int:
    """Largest k with k <= |x| for every feasible x (exact for both kinds)."""
    if isinstance(spec, Selection):
        return spec.p
    return _min_hops(spec)


def max_solution_cardinality_bound(spec: ProblemSpec) -> int:
    """Upper bound on the solution cardinality |X| = max_x sum_j x_j.

    Exact for selection (p) and for acyclic graphs (longest s-t path by
    dynamic programming). Cyclic graphs fall back to the edge count n,
    which is always valid for simple paths but weaker.
    """
    if isinstance(spec, Selection):
        return spec.p

    out = _out_edges(spec)
    order = _topological_order(spec, out)
    if order is None:
        return len(spec.edges)
    longest = {spec.source: 0}
    for v in order:
        if v not in longest:
            continue
        for j, w in out.get(v, ()):
            cand = longest[v] + 1
            if cand > longest.get(w, -1):
                longest[w] = cand
    # sink reachable by spec invariant
    return longest[spec.sink]


def _topological_order(spec: ShortestPath, out):
    """Kahn's algorithm over the out-edge lists; None if the graph has a cycle."""
    vertices = {spec.source, spec.sink}
    indeg = {}
    for a, b in spec.edges:
        vertices.add(a)
        vertices.add(b)
        indeg[b] = indeg.get(b, 0) + 1
    queue = deque(sorted(v for v in vertices if indeg.get(v, 0) == 0))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for _, w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == len(vertices) else None


def validate_k(spec: ProblemSpec, k: int) -> bool:
    """True iff every feasible solution has at least k items."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k <= min_solution_cardinality(spec)


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
