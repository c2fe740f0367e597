"""Solution-free sets for symmetric linear equations.

Tools for the equation a1*x1 + ... + ak*xk = a1*x_{k+1} + ... + ak*x_{2k}
over finite integer sets: exact solution counting through representation
functions, digit-based constructions of large solution-free sets, exact and
heuristic extremal search, sumset arithmetic with theorem-backed inequality
checkers, and log-log exponent fitting.
"""

from .construct import (
    RuzsaParams,
    greedy_solution_free,
    predicted_exponent,
    ruzsa_digit_set,
    ruzsa_equation,
)
from .counting import (
    DEFAULT_BUDGET,
    RepFunction,
    SolutionReport,
    count_all_solutions,
    count_coincident,
    count_distinct_solutions,
    energy,
    find_distinct_solution,
    has_distinct_solution_using,
    is_solution_free,
    rep_function,
    solution_report,
)
from .experiments import RnRow, run_bound_report, run_rn_table
from .fitting import FitResult, fit_exponent
from .model import (
    BudgetExceededError,
    Equation,
    IntegerSet,
    InvariantViolation,
    ParseError,
    ValidationError,
    make_set,
    parse_equation,
    parse_set_text,
    set_text,
)
from .search import (
    BoundReport,
    SearchResult,
    SolutionHypergraph,
    build_hypergraph,
    check_energy_bounds,
    exact_max_solution_free,
    random_restarts,
)
from .setops import (
    DilateSpec,
    EnergyLowerResult,
    PlunneckeResult,
    TriangleResult,
    cs_energy_lower_check,
    difference,
    dilate,
    iterated_sumset,
    plunnecke_check,
    run_inequality_trials,
    ruzsa_triangle_check,
    sum_of_dilates,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DilateSpec",
    "EnergyLowerResult",
    "Equation",
    "FitResult",
    "IntegerSet",
    "InvariantViolation",
    "ParseError",
    "PlunneckeResult",
    "RepFunction",
    "RnRow",
    "RuzsaParams",
    "SearchResult",
    "SolutionHypergraph",
    "SolutionReport",
    "TriangleResult",
    "ValidationError",
    "build_hypergraph",
    "check_energy_bounds",
    "count_all_solutions",
    "count_coincident",
    "count_distinct_solutions",
    "cs_energy_lower_check",
    "difference",
    "dilate",
    "energy",
    "exact_max_solution_free",
    "find_distinct_solution",
    "fit_exponent",
    "greedy_solution_free",
    "has_distinct_solution_using",
    "is_solution_free",
    "iterated_sumset",
    "make_set",
    "parse_equation",
    "parse_set_text",
    "plunnecke_check",
    "predicted_exponent",
    "random_restarts",
    "rep_function",
    "run_bound_report",
    "run_inequality_trials",
    "run_rn_table",
    "ruzsa_digit_set",
    "ruzsa_equation",
    "ruzsa_triangle_check",
    "set_text",
    "solution_report",
    "sum_of_dilates",
    "sumset",
]
