"""robustkit: representative scenarios for min-max robust combinatorial optimization.

Compress a discrete uncertainty set into a single cost vector (midpoint,
element-wise worst case, or LP-constructed), solve the nominal problem for
it, and certify how far the result can be from the robust optimum, both
before (a-priori) and after (a-posteriori) the nominal solve.
"""

from .core import (
    EPS_CMP,
    EPS_CUT,
    EPS_FEAS,
    ConvexWeights,
    InvariantError,
    UncertaintySet,
    ratio_or_inf,
)
from .problems import (
    InstanceFormatError,
    ProblemSpec,
    Selection,
    ShortestPath,
    dimension,
    enumerate_solutions,
    max_solution_cardinality_bound,
    nominal_solve,
    parse_instance,
    serialize_instance,
)
from .lp import LinearProgram, LpError, LpSolution, solve_lp
from .scenarios import (
    construct_lp_scenario,
    fixed_scenario_guarantee,
    midpoint_scenario,
    separation_oracle,
    worstcase_apriori_bound,
    worstcase_scenario,
)
from .bounds import (
    BudgetError,
    certify,
    exact_minmax,
    maxmin_certificate,
    upper_bound,
)
from .experiments import (
    ExperimentGrid,
    GridResult,
    derive_seed,
    emit_csv,
    generate_instance,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvexWeights",
    "EPS_CMP",
    "EPS_CUT",
    "EPS_FEAS",
    "ExperimentGrid",
    "GridResult",
    "InstanceFormatError",
    "InvariantError",
    "LinearProgram",
    "LpError",
    "LpSolution",
    "ProblemSpec",
    "Selection",
    "ShortestPath",
    "UncertaintySet",
    "certify",
    "construct_lp_scenario",
    "derive_seed",
    "dimension",
    "emit_csv",
    "enumerate_solutions",
    "exact_minmax",
    "fixed_scenario_guarantee",
    "generate_instance",
    "max_solution_cardinality_bound",
    "maxmin_certificate",
    "midpoint_scenario",
    "nominal_solve",
    "parse_instance",
    "ratio_or_inf",
    "run_grid",
    "separation_oracle",
    "serialize_instance",
    "solve_lp",
    "upper_bound",
    "worstcase_apriori_bound",
    "worstcase_scenario",
]
