"""Shared domain types for min-max robust optimization over discrete scenario sets.

All types are immutable after construction (arrays are marked read-only) and
safe to share across workers. Costs are stored as float64 throughout: scenario
construction and convex combinations produce non-integer values even when the
input costs are integers, and a single numeric type avoids conversion layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Feasibility tolerance used inside the LP machinery.
EPS_FEAS = 1e-9
# Comparison tolerance for user-facing assertions; looser than EPS_FEAS so LP
# round-off cannot fail report invariants. Each use says if it is scaled.
EPS_CMP = 1e-6
# Violation threshold below which a constraint row is not worth adding, at
# a largest cost of 100.
EPS_CUT = 1e-7


class InstanceFormatError(ValueError):
    """Malformed instance file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantError(RuntimeError):
    """Results break an ordering every correct run satisfies, such as lb <= ub."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class UncertaintySet:
    """A finite set of cost scenarios: N rows of n nonnegative item costs."""

    costs: np.ndarray  # shape (N, n), float64, read-only

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError(f"costs must be a 2-d matrix, got ndim={costs.ndim}")
        if costs.shape[0] < 1 or costs.shape[1] < 1:
            raise ValueError(f"need at least one scenario and one item, got shape {costs.shape}")
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        if np.any(costs < 0):
            raise ValueError("costs must be nonnegative")
        object.__setattr__(self, "costs", _readonly(costs))

    @property
    def n_scenarios(self) -> int:
        return self.costs.shape[0]

    @property
    def n_items(self) -> int:
        return self.costs.shape[1]


@dataclass(frozen=True)
class ConvexWeights:
    """Weights certifying membership of a scenario in the convex hull of the set."""

    lam: np.ndarray  # length N, read-only

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.shape[0] < 1:
            raise ValueError("weights must be a nonempty 1-d vector")
        if not np.isfinite(lam).all():
            raise ValueError("weights must be finite")
        # absolute: weights are scale-free, on the simplex
        if np.any(lam < -EPS_FEAS):
            raise ValueError(f"weights must be >= -{EPS_FEAS}, got min {lam.min()}")
        if abs(lam.sum() - 1.0) > EPS_FEAS:
            raise ValueError(f"weights must sum to 1 within {EPS_FEAS}, got {lam.sum()}")
        object.__setattr__(self, "lam", _readonly(lam))

    @classmethod
    def uniform(cls, n_scenarios: int) -> "ConvexWeights":
        return cls(np.full(n_scenarios, 1.0 / n_scenarios))

    def combine(self, u: UncertaintySet) -> np.ndarray:
        """The convex combination sum_i lam_i c^i, clipped at 0 against round-off."""
        return np.maximum(self.lam @ u.costs, 0.0)


@dataclass(frozen=True)
class BinarySolution:
    """A feasible 0/1 solution, stored as the sorted tuple of selected item indices."""

    selected: tuple

    def __post_init__(self):
        sel = tuple(sorted(int(j) for j in self.selected))
        if len(set(sel)) != len(sel):
            raise ValueError("selected indices must be unique")
        if sel and sel[0] < 0:
            raise ValueError("selected indices must be nonnegative")
        object.__setattr__(self, "selected", sel)

    def cost(self, values: np.ndarray) -> float:
        """Total cost of this solution under one cost vector."""
        return float(np.asarray(values, dtype=float)[list(self.selected)].sum())

    def __len__(self) -> int:
        return len(self.selected)


def cost_vector(c, n: int) -> np.ndarray:
    """c as a float vector, the one check of every scenario: refused unless it has n entries, all finite and >= 0."""
    values = np.asarray(c, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"cost vector has length {values.size}, expected {n}")
    if not np.isfinite(values).all():
        raise ValueError("cost vector must be finite")
    if (values < 0).any():
        raise ValueError("cost vector must be nonnegative")
    return values


def cost_scale(u: UncertaintySet) -> float:
    """Largest cost / 100, the factor of tolerances on costs: 1 at the grid's top cost, and alike in any unit."""
    return float(u.costs.max()) / 100.0


def ratio_or_inf(ub: float, lb: float) -> float:
    """ub/lb with the degenerate cases pinned: 1 when both are 0, inf when only lb is."""
    if lb > 0:
        return ub / lb
    return 1.0 if ub <= 0 else math.inf


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


def parse_instance(text: str):
    """Parse instance-file contents into (UncertaintySet, ProblemSpec).

    Raises InstanceFormatError with a line number on malformed input.
    """
    from . import problems  # deferred: problems imports core types

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
            spec = problems.Selection(n=fields["n"], p=fields["p"])
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
            spec = problems.ShortestPath(edges=tuple(edges), source=endpoints["source"], sink=endpoints["sink"])
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


def serialize_instance(u: UncertaintySet, spec) -> str:
    """Canonical text form; parse_instance() round-trips it exactly for integer costs."""
    from . import problems

    lines = ["# robust-instance v1"]
    if isinstance(spec, problems.Selection):
        lines.append("problem selection")
        lines.append(f"n {spec.n}")
        lines.append(f"p {spec.p}")
    elif isinstance(spec, problems.ShortestPath):
        lines.append("problem shortestpath")
        lines.append(f"edges {len(spec.edges)}")
        for idx, (a, b) in enumerate(spec.edges):
            lines.append(f"edge {idx} {a} {b}")
        lines.append(f"source {spec.source}")
        lines.append(f"sink {spec.sink}")
    else:
        raise ValueError(f"unsupported problem spec {type(spec).__name__}")
    problems.require_dimension(u, spec)
    lines.append(f"N {u.n_scenarios}")
    for row in u.costs:
        lines.append("c " + " ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
