"""Exact rational toolkit for probabilistic satisfiability.

Clause expectations are linear in the distribution over complete
assignments, so coherence, feasibility, and entailment-range questions
become small linear programs over that distribution. Everything here is
computed with Fraction arithmetic: decisions come with exact witnesses
and optima are exact endpoints, never floating-point estimates. A
brute-force oracle built on a different method double-checks the solver
on small instances.
"""

from .errors import (
    InfeasibleError,
    ORACLE_ROW_GUARD,
    SOLVE_COLUMN_GUARD,
    SizeGuardError,
    UnboundedError,
    VERIFY_COLUMN_GUARD,
)
from .matrices import (
    RationalMatrix,
    assignment_matrix,
    bias_matrix,
    clause_value_matrix,
    expected_bias,
    kernel_basis_matrix,
    kernel_column_sums,
    kernel_column_sums_formula,
    weight_permutation,
)
from .model import (
    Assignment,
    Clause,
    ConjunctiveForm,
    Distribution,
    Interval,
    Literal,
    ProbabilisticAssignment,
    TruthValue,
    determinize,
    enumerate_assignments,
    eval_clause,
    eval_form,
    eval_literal,
)
from .problems import (
    ClauseProbabilityTarget,
    PsatInstance,
    coherence,
    coherence_product_witness,
    coherence_via_bias,
    entail,
    fiber_contains,
    fiber_translate,
    kernel_containment,
    opt_psat,
    psat,
    psat_feasible_set_dim,
    sat_via_psat,
)
from .rational_lp import (
    INFEASIBLE,
    LpOutcome,
    LpProblem,
    OPTIMAL,
    lp_feasible,
    lp_optimize_both,
    lp_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Clause",
    "ClauseProbabilityTarget",
    "ConjunctiveForm",
    "Distribution",
    "INFEASIBLE",
    "InfeasibleError",
    "Interval",
    "Literal",
    "LpOutcome",
    "LpProblem",
    "OPTIMAL",
    "ORACLE_ROW_GUARD",
    "ProbabilisticAssignment",
    "PsatInstance",
    "RationalMatrix",
    "SOLVE_COLUMN_GUARD",
    "SizeGuardError",
    "TruthValue",
    "UnboundedError",
    "VERIFY_COLUMN_GUARD",
    "assignment_matrix",
    "bias_matrix",
    "clause_value_matrix",
    "coherence",
    "coherence_product_witness",
    "coherence_via_bias",
    "determinize",
    "entail",
    "enumerate_assignments",
    "eval_clause",
    "eval_form",
    "eval_literal",
    "expected_bias",
    "fiber_contains",
    "fiber_translate",
    "kernel_basis_matrix",
    "kernel_column_sums",
    "kernel_column_sums_formula",
    "kernel_containment",
    "lp_feasible",
    "lp_optimize_both",
    "lp_solve",
    "opt_psat",
    "psat",
    "psat_feasible_set_dim",
    "sat_via_psat",
    "weight_permutation",
]
