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
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return LpProblem(
            self.num_vars,
            objective,
            self.rows,
            self.row_lower,
            self.row_upper,
            self.simplex_constraint,
        )


@dataclass(frozen=True)
class LpOutcome:
    status: str
    witness: tuple[Fraction, ...] | None = None
    value: Fraction | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(rows, rhs, obj, basis, r, c) -> None:
    prow = rows[r]
    piv = prow[c]
    if piv != ONE:
        prow = [v / piv for v in prow]
        rows[r] = prow
        rhs[r] = rhs[r] / piv
    nonzero = [j for j, v in enumerate(prow) if v != 0]
    pb = rhs[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f == 0:
            continue
        for j in nonzero:
            row[j] -= f * prow[j]
        if pb != 0:
            rhs[i] -= f * pb
    f = obj[c]
    if f != 0:
        for j in nonzero:
            obj[j] -= f * prow[j]
    basis[r] = c


def _run_bland(rows, rhs, basis, cost) -> None:
    """Minimize cost . x from the current basic feasible point."""
    m = len(rows)
    ncols = len(cost)
    obj = list(cost)
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            row = rows[i]
            for j in range(ncols):
                if row[j] != 0:
                    obj[j] -= cb * row[j]
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                key = (rhs[i] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise UnboundedError("objective unbounded below")
        _pivot(rows, rhs, obj, basis, leave, enter)


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
    rhs: list[Fraction] = []
    if problem.simplex_constraint:
        rows.append([ONE] * c + [ZERO] * (total - c))
        rhs.append(ONE)
    slack = c
    for arow, lo, hi in zip(problem.rows, problem.row_lower, problem.row_upper):
        structural = [arow[j] for j in reps]
        if lo == hi:
            rows.append(structural + [ZERO] * (total - c))
            rhs.append(lo)
        else:
            up = structural + [ZERO] * (total - c)
            up[slack] = ONE
            rows.append(up)
            rhs.append(hi)
            down = structural + [ZERO] * (total - c)
            down[slack + 1] = -ONE
            rows.append(down)
            rhs.append(lo)
            slack += 2

    m = len(rows)
    if m == 0:
        if any(coef < 0 for coef in problem.objective):
            raise UnboundedError("objective unbounded below")
        return LpOutcome(OPTIMAL, (ZERO,) * n, ZERO)

    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    for i in range(m):
        rows[i] = rows[i] + [ONE if t == i else ZERO for t in range(m)]
    basis = list(range(total, total + m))
    cost1 = [ZERO] * total + [ONE] * m

    _run_bland(rows, rhs, basis, cost1)
    residual = ZERO
    for i in range(m):
        if basis[i] >= total:
            residual += rhs[i]
    if residual != 0:
        return LpOutcome(INFEASIBLE)

    # Basic artificials at zero: pivot them out, or drop redundant rows.
    dummy = [ZERO] * (total + m)
    drop: set[int] = set()
    for i in range(m):
        if basis[i] >= total:
            enter = next((j for j in range(total) if rows[i][j] != 0), None)
            if enter is None:
                drop.add(i)
            else:
                _pivot(rows, rhs, dummy, basis, i, enter)
    keep = [i for i in range(m) if i not in drop]
    rows = [rows[i][:total] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]

    cost2 = [problem.objective[j] for j in reps] + [ZERO] * (total - c)
    _run_bland(rows, rhs, basis, cost2)

    # Each class's mass sits on its lowest index; later copies stay at 0.
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < c:
            x[reps[b]] = rhs[i]
    witness = tuple(x)
    value = ZERO
    for coef, v in zip(problem.objective, witness):
        if coef != 0 and v != 0:
            value += coef * v
    return LpOutcome(OPTIMAL, witness, value)


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
