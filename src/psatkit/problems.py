"""Decision problems over distributions on the assignment space.

Coherence asks whether a vector of per-variable expectations is realized by
some distribution; the satisfiability variant constrains per-clause
expectations instead, entailment bounds the expectation of a goal clause
subject to those constraints, and the fiber operations walk the set of
distributions sharing an expectation vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import linalg
from .errors import InfeasibleError, SOLVE_COLUMN_GUARD, check_columns
from .matrices import _kernel_columns, bias_matrix, clause_value_matrix
from .model import (
    Clause,
    ConjunctiveForm,
    Distribution,
    Interval,
    ProbabilisticAssignment,
    as_fraction,
    index_digits,
)
# Not called here: bench/tracing.py patches these names on this module.
from .matrices import assignment_matrix, kernel_basis_matrix
from .model import enumerate_assignments
from .rational_lp import LpOutcome, LpProblem, lp_feasible, lp_optimize_both, lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)

Rational = Union[Fraction, int]


@dataclass(frozen=True)
class ClauseProbabilityTarget:
    """Per-clause expectation bounds [lo_i, hi_i] within [0, 1]."""

    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        bounds = tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise ValueError("no clause bounds")
        for lo, hi in bounds:
            if not ZERO <= lo <= hi <= ONE:
                raise ValueError(f"bounds [{lo}, {hi}] not ordered within [0, 1]")
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def exact(cls, values: Sequence[Rational]) -> ClauseProbabilityTarget:
        return cls(tuple((v, v) for v in values))

    @classmethod
    def certain(cls, m: int) -> ClauseProbabilityTarget:
        return cls(((ONE, ONE),) * m)

    @property
    def lower(self) -> tuple[Fraction, ...]:
        return tuple(lo for lo, _ in self.bounds)

    @property
    def upper(self) -> tuple[Fraction, ...]:
        return tuple(hi for _, hi in self.bounds)

    def is_exact(self) -> bool:
        return all(lo == hi for lo, hi in self.bounds)


@dataclass(frozen=True)
class PsatInstance:
    """A form with per-clause expectation bounds on the k-valued truth scale."""

    form: ConjunctiveForm
    k: int = 2
    target: ClauseProbabilityTarget | None = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need k >= 2, got k={self.k}")
        target = self.target
        if target is None:
            target = ClauseProbabilityTarget.certain(self.form.m)
        if len(target.bounds) != self.form.m:
            raise ValueError(
                f"{len(target.bounds)} bounds for {self.form.m} clauses"
            )
        object.__setattr__(self, "target", target)


def clause_problem(
    form: ConjunctiveForm,
    target: ClauseProbabilityTarget,
    k: int = 2,
    max_columns: int = SOLVE_COLUMN_GUARD,
    goal: Clause | None = None,
) -> LpProblem:
    """LP over distributions whose clause expectations meet the target.

    V of the clauses and the goal is built in one pass: its clause rows are the
    constraints and its goal row is the objective, zero when there is no goal.
    """
    if len(target.bounds) != form.m:
        raise ValueError(f"{len(target.bounds)} bounds for {form.m} clauses")
    if goal is not None and goal.max_variable() >= form.n:
        raise ValueError(f"goal mentions X_{goal.max_variable()} but n={form.n}")
    clauses = form.clauses if goal is None else (*form.clauses, goal)
    v = clause_value_matrix(ConjunctiveForm(form.n, clauses), k, max_columns).to_rows()
    objective = (ZERO,) * len(v[0]) if goal is None else v[form.m]
    return LpProblem(len(objective), objective, v[: form.m], target.lower, target.upper)


def coherence(
    x: ProbabilisticAssignment, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[bool, Distribution | None]:
    """Does some distribution realize the expectation vector x exactly?

    x is coherent for every k >= 2 (a product of per-variable {0, 1} mixtures
    realizes it); the decision is still solved, producing a basic witness. W is
    the clause value matrix of the unit clauses, so this is their PSAT at x.
    """
    return psat(ConjunctiveForm.units(x.n), ClauseProbabilityTarget.exact(x.values), k, max_columns)


def coherence_product_witness(x: ProbabilisticAssignment) -> Distribution:
    """Closed-form classical witness: the independent product distribution."""
    weights = []
    for index in range(check_columns(x.n, 2, SOLVE_COLUMN_GUARD)):
        w = ONE
        for v, bit in zip(x.values, index_digits(index, x.n, 2)):
            w *= v if bit else ONE - v
        weights.append(w)
    return Distribution(x.n, 2, tuple(weights))


def coherence_via_bias(
    x: ProbabilisticAssignment, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[bool, Distribution | None]:
    """Classical coherence stated on biases: solve 2x - 1 against the bias matrix."""
    z = bias_matrix(x.n, max_columns)
    target = tuple(TWO * v - ONE for v in x.values)
    outcome = lp_feasible(LpProblem(z.cols, (ZERO,) * z.cols, z.to_rows(), target, target))
    if not outcome.is_optimal:
        return False, None
    return True, Distribution(x.n, 2, outcome.witness)


def psat(
    form: ConjunctiveForm,
    target: ClauseProbabilityTarget,
    k: int = 2,
    max_columns: int = SOLVE_COLUMN_GUARD,
) -> tuple[bool, Distribution | None]:
    """Is some distribution's clause-expectation vector within the target bounds?"""
    outcome = lp_feasible(clause_problem(form, target, k, max_columns))
    if not outcome.is_optimal:
        return False, None
    return True, Distribution(form.n, k, outcome.witness)


def sat_via_psat(
    form: ConjunctiveForm, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> bool:
    """Classical satisfiability through the certainty target (all clauses at 1).

    Expectation 1 forces every supporting assignment to give each clause value
    exactly 1, and any such assignment determinizes to a classical model, so
    the decision agrees with classical satisfiability for every k >= 2.
    """
    decision, _ = psat(form, ClauseProbabilityTarget.certain(form.m), k, max_columns)
    return decision


def entail(
    form: ConjunctiveForm,
    target: ClauseProbabilityTarget,
    goal: Clause,
    k: int = 2,
    max_columns: int = SOLVE_COLUMN_GUARD,
) -> Interval:
    """Exact range of the goal clause expectation, constrained by the base targets."""
    return lp_optimize_both(clause_problem(form, target, k, max_columns, goal))


def opt_psat(
    form: ConjunctiveForm,
    target: ClauseProbabilityTarget,
    objective: Clause | Sequence[Rational],
    k: int = 2,
    max_columns: int = SOLVE_COLUMN_GUARD,
) -> LpOutcome:
    """Minimize a linear functional of the distribution under the target bounds."""
    if isinstance(objective, Clause):
        return lp_solve(clause_problem(form, target, k, max_columns, objective))
    return lp_solve(clause_problem(form, target, k, max_columns).with_objective(objective))


def _fiber_shift(
    u0: Distribution, w: Sequence[Rational], max_columns: int
) -> list[Fraction] | None:
    """The weight change K . w of the kernel move w, or None when the move is invalid.

    K . w is summed as sum_c w_c * column_c from the kernel column rule, so K is
    never built. A valid move keeps the total mass, sum(K . w) = 0, and keeps
    every shifted weight of u0 nonnegative.
    """
    count = check_columns(u0.n, u0.k, max_columns)
    values = [as_fraction(v) for v in w]
    if len(values) != count - u0.n:
        raise ValueError(f"fiber vector length {len(values)} != {count - u0.n}")
    shift = [ZERO] * count
    for w_c, column in zip(values, _kernel_columns(u0.n, u0.k, max_columns)):
        if w_c:
            for row, value in column:
                shift[row] += w_c * value
    if sum(shift) != 0 or any(u + d < 0 for u, d in zip(u0.weights, shift)):
        return None
    return shift


def fiber_contains(
    u0: Distribution, w: Sequence[Rational], max_columns: int = SOLVE_COLUMN_GUARD
) -> bool:
    """Does the kernel move w keep u0 a distribution with the same expectations?"""
    return _fiber_shift(u0, w, max_columns) is not None


def fiber_translate(
    u0: Distribution, w: Sequence[Rational], max_columns: int = SOLVE_COLUMN_GUARD
) -> Distribution:
    """Move u0 along the kernel by w; valid moves give a distribution with equal expectations."""
    shift = _fiber_shift(u0, w, max_columns)
    if shift is None:
        raise ValueError("fiber vector leaves the distribution set")
    return Distribution(
        u0.n, u0.k, tuple(u + d for u, d in zip(u0.weights, shift))
    )


def kernel_containment(
    form: ConjunctiveForm, max_columns: int = SOLVE_COLUMN_GUARD
) -> bool:
    """Do all expectation-preserving moves also preserve clause expectations?

    The moves span the kernel of the classical assignment matrix W, so this
    asks whether V . K = 0 for the clause value matrix V: whether every clause
    row lies in the row space of W, that is, whether every clause value is
    linear in the bits. That holds exactly when every clause is one positive
    literal. A negated literal gives 1 at the all-zeros assignment, where a
    linear function is 0; two positive literals on X_i and X_j give 1, not 2,
    at e_i + e_j.
    """
    check_columns(form.n, 2, max_columns)
    return all(
        len(clause.literals) == 1 and not clause.literals[0].negated
        for clause in form.clauses
    )


def psat_feasible_set_dim(
    form: ConjunctiveForm,
    target: ClauseProbabilityTarget,
    k: int = 2,
    max_columns: int = SOLVE_COLUMN_GUARD,
) -> int:
    """Affine dimension of the witness polytope at the given target.

    Assignments with equal clause-value columns form a class. Mass moves freely
    inside a class, so the polytope is the polytope of class masses times one
    simplex per class whose mass can be positive, each adding |class| - 1. The
    class polytope's affine hull is cut out by the total-mass row, every clause
    row whose range is a single point, and every class mass whose maximum is 0.
    A functional constant on the polytope lies in the row space of its implicit
    equalities, so a mass fixed at a positive value adds no rank and a mass
    needs only its maximum: 1 + 2m + c LPs over the c classes in all. Raises
    InfeasibleError on an empty polytope.
    """
    base = clause_problem(form, target, k, max_columns)
    classes = Counter(zip(*base.rows))
    c = len(classes)
    problem = LpProblem(c, (ZERO,) * c, tuple(zip(*classes)), base.row_lower, base.row_upper)
    if not lp_feasible(problem).is_optimal:
        raise InfeasibleError("empty witness polytope has no dimension")
    spans = [lp_optimize_both(problem.with_objective(row)) for row in problem.rows]
    units = [tuple(ONE if i == j else ZERO for i in range(c)) for j in range(c)]
    highs = [-lp_solve(problem.with_objective(tuple(-e for e in u))).value for u in units]
    equalities = [
        (ONE,) * c,
        *(row for row, span in zip(problem.rows, spans) if span.lo == span.hi),
        *(u for u, high in zip(units, highs) if high == 0),
    ]
    free = sum(size - 1 for size, high in zip(classes.values(), highs) if high > 0)
    return c + free - linalg.rank(equalities)
