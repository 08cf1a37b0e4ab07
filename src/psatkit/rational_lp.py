"""Exact linear programming over the probability simplex.

Two-phase primal simplex on the equality expansion of

    minimize objective . u
    subject to row_lower <= rows . u <= row_upper, sum(u) = 1, u >= 0.

Two-sided rows become an upper row with a slack and a lower row with a
surplus; exact rows stay single equalities. Phase 1 minimizes artificial
variables; Bland's smallest-index rule is used for entering and leaving
choices in both phases, so the solver cannot cycle and runs bit-for-bit
deterministically. All arithmetic is fractions.Fraction, which normalizes
eagerly, so witnesses and optima are exact rationals.

Columns with equal (objective entry, row entries) are one point of the
feasible image, so the tableau holds one column per class: the class's
lowest index, in index order, with slacks, surpluses and artificials after
them. A later copy of a column never enters under Bland's rule, because its
reduced cost and tableau column equal those of its first copy, which has the
lower index; the relabelling is monotone, so ratio-test ties break the same
way. The pivot path, status, witness and value are therefore those of the
uncompressed tableau, with each class's mass at its lowest index and 0 at
the other members.

Each tableau row is structural | slack and surplus | artificial | right-hand
side. A Bland run prices its objective as one more row, whose last entry is
minus the objective value: after phase 1 it is nonzero exactly when the
artificials cannot reach 0, and after phase 2 it is minus the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleError, UnboundedError
from .model import Interval, as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    num_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...] = ()
    row_lower: tuple[Fraction, ...] = ()
    row_upper: tuple[Fraction, ...] = ()
    simplex_constraint: bool = True

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError(f"need at least one variable, got {self.num_vars}")
        objective = tuple(as_fraction(v) for v in self.objective)
        rows = tuple(tuple(as_fraction(v) for v in r) for r in self.rows)
        lower = tuple(as_fraction(v) for v in self.row_lower)
        upper = tuple(as_fraction(v) for v in self.row_upper)
        if len(objective) != self.num_vars:
            raise ValueError(f"objective length {len(objective)} != {self.num_vars}")
        if not len(rows) == len(lower) == len(upper):
            raise ValueError("row, lower, and upper counts differ")
        for r in rows:
            if len(r) != self.num_vars:
                raise ValueError(f"row length {len(r)} != {self.num_vars}")
        for lo, hi in zip(lower, upper):
            if lo > hi:
                raise ValueError(f"row lower bound {lo} exceeds upper bound {hi}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_lower", lower)
        object.__setattr__(self, "row_upper", upper)

    def with_objective(self, objective: Sequence[Fraction]) -> LpProblem:
        return replace(self, objective=objective)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    witness: tuple[Fraction, ...] | None = None
    value: Fraction | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(rows, basis, r, c) -> None:
    """Make column c basic in row r: scale row r, then eliminate c from every other row."""
    prow = rows[r]
    piv = prow[c]
    if piv != ONE:
        prow = rows[r] = [v / piv for v in prow]
    nonzero = [j for j, v in enumerate(prow) if v != 0]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            for j in nonzero:
                row[j] -= f * prow[j]
    basis[r] = c


def _run_bland(rows, basis, cost) -> list[Fraction]:
    """Minimize cost . x from the current basic feasible point; return the objective row."""
    m = len(rows)
    obj = [*cost, ZERO]
    for row, b in zip(rows, basis):
        cb = cost[b]
        if cb != 0:
            for j, v in enumerate(row):
                if v != 0:
                    obj[j] -= cb * v
    rows.append(obj)
    while True:
        enter = next((j for j in range(len(cost)) if obj[j] < 0), None)
        if enter is None:
            return rows.pop()
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                key = (rows[i][-1] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise UnboundedError("objective unbounded below")
        _pivot(rows, basis, leave, enter)


def lp_solve(problem: LpProblem) -> LpOutcome:
    """Exact optimum and basic witness, or the infeasible outcome."""
    n = problem.num_vars
    # Column classes: equal (objective entry, row entries), lowest index first.
    first: dict[tuple[Fraction, ...], int] = {}
    for j, key in enumerate(zip(problem.objective, *problem.rows)):
        first.setdefault(key, j)
    reps = list(first.values())
    c = len(reps)
    interval_count = sum(
        1 for lo, hi in zip(problem.row_lower, problem.row_upper) if lo != hi
    )
    total = c + 2 * interval_count

    rows: list[list[Fraction]] = []
    if problem.simplex_constraint:
        rows.append([ONE] * c + [ZERO] * (total - c) + [ONE])
    slack = c
    for arow, lo, hi in zip(problem.rows, problem.row_lower, problem.row_upper):
        body = [arow[j] for j in reps] + [ZERO] * (total - c)
        if lo == hi:
            rows.append(body + [lo])
        else:
            up = body + [hi]
            up[slack] = ONE
            down = body + [lo]
            down[slack + 1] = -ONE
            rows += [up, down]
            slack += 2

    m = len(rows)
    if m == 0:
        if any(coef < 0 for coef in problem.objective):
            raise UnboundedError("objective unbounded below")
        return LpOutcome(OPTIMAL, (ZERO,) * n, ZERO)

    # Nonnegative right-hand sides, then one artificial per row.
    for i, row in enumerate(rows):
        if row[-1] < 0:
            row = rows[i] = [-v for v in row]
        row[-1:-1] = [ONE if t == i else ZERO for t in range(m)]
    basis = list(range(total, total + m))

    # Phase 1 minimizes the artificials; a nonzero minimum means infeasible.
    if _run_bland(rows, basis, [ZERO] * total + [ONE] * m)[-1] != 0:
        return LpOutcome(INFEASIBLE)

    # Basic artificials at zero: pivot them out, or drop redundant rows.
    drop: set[int] = set()
    for i in range(m):
        if basis[i] >= total:
            enter = next((j for j in range(total) if rows[i][j] != 0), None)
            if enter is None:
                drop.add(i)
            else:
                _pivot(rows, basis, i, enter)
    keep = [i for i in range(m) if i not in drop]
    rows = [rows[i][:total] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    cost = [problem.objective[j] for j in reps] + [ZERO] * (total - c)
    value = -_run_bland(rows, basis, cost)[-1]

    # Each class's mass sits on its lowest index; later copies stay at 0.
    x = [ZERO] * n
    for row, b in zip(rows, basis):
        if b < c:
            x[reps[b]] = row[-1]
    return LpOutcome(OPTIMAL, tuple(x), value)


def lp_feasible(problem: LpProblem) -> LpOutcome:
    """Feasibility via lp_solve with the zero objective."""
    return lp_solve(problem.with_objective((ZERO,) * problem.num_vars))


def lp_optimize_both(problem: LpProblem) -> Interval:
    """Exact [min, max] of the objective over the feasible set."""
    low = lp_solve(problem)
    if not low.is_optimal:
        raise InfeasibleError("infeasible instance has no objective range")
    high = lp_solve(problem.with_objective(tuple(-c for c in problem.objective)))
    return Interval(low.value, -high.value)
