"""Nominal problem definitions and solvers, and the instance file format.

Two feasible-set shapes are supported: choose exactly p of n items
(selection), and directed s-t paths with indexed edges (shortest path).
Both expose the same operations: solve the nominal problem for a cost
vector, bound the solution cardinality from above, and refuse a
subset-size parameter k that some feasible solution is smaller than.
A solution x in {0,1}^n is its support: the sorted tuple of the Python
int indices of its items (for paths, its edges). parse_instance and
serialize_instance read and write both families as text.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import EPS_FEAS, UncertaintySet, cost_vector


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


def nominal_solve(spec: ProblemSpec, c) -> Tuple[int, ...]:
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
        return tuple(sorted(int(j) for j in np.concatenate((below, tied[: spec.p - len(below)]))))

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
    return tuple(sorted(path))


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

    Edges into the source and out of the sink are left out first, as no
    simple s-t path uses one. The endpoints of the rest are the vertices on
    some s-t walk that neither leaves the sink nor returns to the source,
    so every simple s-t path uses only these edges.
    """
    kept = [(j, a, b) for j, (a, b) in enumerate(spec.edges) if a != spec.sink and b != spec.source]
    succ, pred = {}, {}
    for _, a, b in kept:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    from_source, to_sink = _reached(spec.source, succ), _reached(spec.sink, pred)
    return [j for j, a, b in kept if a in from_source and b in to_sink]


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
            yield tuple(sorted(path))
            continue
        for j, w in sorted(out.get(v, ()), reverse=True):
            if w not in seen:
                stack.append((w, path + (j,), seen | {w}))


# ---------------------------------------------------------------------------
# Instance file format (one directive per line, '#' starts a comment):
#
#   # robust-instance v1
#   problem selection          |  problem shortestpath
#   n <int>                    |  edges <int>
#   p <int>                    |  edge <idx> <from> <to>   (repeated)
#                              |  source <v>
#                              |  sink <v>
#   N <int>
#   c <v1> ... <vn>            (repeated N times, nonnegative decimals)
# ---------------------------------------------------------------------------


class InstanceFormatError(ValueError):
    """Malformed instance file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_instance(text: str) -> Tuple[UncertaintySet, ProblemSpec]:
    """Parse instance-file contents into (UncertaintySet, ProblemSpec).

    Raises InstanceFormatError with a line number on malformed input.
    """
    tokens = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    directives = [(lineno, toks) for lineno, toks in enumerate(tokens, start=1) if toks]

    def fail(msg, lineno=None):
        raise InstanceFormatError(msg, lineno)

    def parse_int(tok, what, lineno):
        try:
            return int(tok)
        except ValueError:
            fail(f"expected integer {what}, got {tok!r}", lineno)

    if not directives:
        fail("empty instance file")
    it = iter(directives)

    def expect(key, usage, arity=2):
        """The next directive; fails with `usage` at its line unless it is `key` with `arity` tokens."""
        lineno, toks = next(it, (None, None))
        if toks is None or toks[0] != key or (arity is not None and len(toks) != arity):
            fail(usage, lineno)
        return lineno, toks

    lineno, toks = expect("problem", "first directive must be 'problem selection' or 'problem shortestpath'")
    kind = toks[1]
    if kind == "selection":
        fields = {}
        for key in ("n", "p"):
            lineno, toks = expect(key, f"expected '{key} <int>'")
            fields[key] = parse_int(toks[1], key, lineno)
        try:
            spec = Selection(n=fields["n"], p=fields["p"])
        except ValueError as e:
            fail(str(e), lineno)
        n_items = fields["n"]
    elif kind == "shortestpath":
        lineno, toks = expect("edges", "expected 'edges <int>'")
        n_edges = parse_int(toks[1], "edge count", lineno)
        edges = [None] * n_edges
        for _ in range(n_edges):
            lineno, toks = expect("edge", "expected 'edge <idx> <from> <to>'", 4)
            idx = parse_int(toks[1], "edge index", lineno)
            if not 0 <= idx < n_edges:
                fail(f"edge index {idx} out of range [0, {n_edges})", lineno)
            if edges[idx] is not None:
                fail(f"duplicate edge index {idx}", lineno)
            edges[idx] = (parse_int(toks[2], "tail", lineno), parse_int(toks[3], "head", lineno))
        endpoints = {}
        for key in ("source", "sink"):
            lineno, toks = expect(key, f"expected '{key} <vertex>'")
            endpoints[key] = parse_int(toks[1], key, lineno)
        try:
            spec = ShortestPath(edges=tuple(edges), source=endpoints["source"], sink=endpoints["sink"])
        except ValueError as e:
            fail(str(e), lineno)
        n_items = n_edges
    else:
        fail(f"unknown problem kind {kind!r}", lineno)

    lineno, toks = expect("N", "expected 'N <int>'")
    n_scen = parse_int(toks[1], "scenario count", lineno)
    if n_scen < 1:
        fail("N must be >= 1", lineno)

    rows = []
    for _ in range(n_scen):
        lineno, toks = expect("c", "expected a 'c <v1> ... <vn>' cost row", None)
        if len(toks) - 1 != n_items:
            fail(f"cost row has {len(toks) - 1} entries, expected {n_items}", lineno)
        try:
            row = [float(t) for t in toks[1:]]
        except ValueError:
            fail("cost entries must be decimal numbers", lineno)
        if any(not math.isfinite(v) for v in row):
            fail("cost entries must be finite", lineno)
        if any(v < 0 for v in row):
            fail("negative cost", lineno)
        rows.append(row)

    extra = next(it, None)
    if extra is not None:
        fail(f"unexpected directive {extra[1][0]!r}", extra[0])

    return UncertaintySet(np.array(rows, dtype=float)), spec


def _fmt(v: float) -> str:
    """Exact decimal for integers, repr round-trip otherwise."""
    if float(v).is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(float(v))


def serialize_instance(u: UncertaintySet, spec: ProblemSpec) -> str:
    """Canonical text form; parse_instance() round-trips it exactly for integer costs."""
    if isinstance(spec, Selection):
        lines = ["# robust-instance v1", "problem selection", f"n {spec.n}", f"p {spec.p}"]
    elif isinstance(spec, ShortestPath):
        lines = ["# robust-instance v1", "problem shortestpath", f"edges {len(spec.edges)}"]
        lines += [f"edge {idx} {a} {b}" for idx, (a, b) in enumerate(spec.edges)]
        lines += [f"source {spec.source}", f"sink {spec.sink}"]
    else:
        raise ValueError(f"unsupported problem spec {type(spec).__name__}")
    require_dimension(u, spec)
    lines.append(f"N {u.n_scenarios}")
    lines += ["c " + " ".join(_fmt(v) for v in row) for row in u.costs]
    return "\n".join(lines) + "\n"
