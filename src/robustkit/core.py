"""Scenario data and numeric helpers for min-max robust optimization over discrete scenario sets.

This module knows no problem family: the feasible sets, their solutions
and the instance file format live in `problems`. Its types are immutable
after construction (arrays are marked read-only) and safe to share across
workers. Costs are stored as float64 throughout: scenario construction and
convex combinations produce non-integer values even when the input costs
are integers, and a single numeric type avoids conversion layers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Feasibility tolerance used inside the LP machinery.
EPS_FEAS = 1e-9
# Comparison tolerance for user-facing assertions; looser than EPS_FEAS so LP
# round-off cannot fail report invariants. Each use says if it is scaled.
EPS_CMP = 1e-6
# Violation threshold below which a constraint row is not worth adding, at
# a largest cost of 100.
EPS_CUT = 1e-7


class InvariantError(RuntimeError):
    """Results break an ordering every correct run satisfies, such as lb <= ub."""


def _integer(value, what: str) -> int:
    """value as a Python int, refused with ValueError naming what unless it is an integer type."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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
