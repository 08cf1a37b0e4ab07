"""Brute-force verifiers, deliberately independent of the simplex solver.

Everything here decides by enumeration plus exact square solves: hull
membership tries column subsets up to the Caratheodory bound, the optimizer
enumerates basic feasible supports via integer Cramer determinants, and the
kernel comes from plain row reduction. No pivoting tableau is shared with
the LP module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from . import linalg
from .errors import (
    InfeasibleError,
    ORACLE_ROW_GUARD,
    SizeGuardError,
    VERIFY_COLUMN_GUARD,
)
from .matrices import RationalMatrix
from .model import ConjunctiveForm, Interval, enumerate_assignments, eval_clause

ZERO = Fraction(0)
ONE = Fraction(1)


def exhaustive_sat(
    form: ConjunctiveForm, k: int = 2, max_columns: int = VERIFY_COLUMN_GUARD
) -> bool:
    """Classical-style satisfiability: some assignment gives every clause value 1."""
    for assignment in enumerate_assignments(form.n, k, max_columns):
        if all(eval_clause(clause, assignment).is_true for clause in form.clauses):
            return True
    return False


def clause_matrix(
    form: ConjunctiveForm, k: int = 2, max_columns: int = VERIFY_COLUMN_GUARD
) -> RationalMatrix:
    """Clause value matrix from the object model: clause i evaluated at assignment j."""
    assignments = enumerate_assignments(form.n, k, max_columns)
    return RationalMatrix.from_rows(
        [[eval_clause(clause, a).value for a in assignments] for clause in form.clauses]
    )


def _dedup_columns(matrix: RationalMatrix, tags: Sequence[Fraction]):
    """Merge columns equal as (column, tag) pairs; keeps first original index."""
    seen: dict[tuple, int] = {}
    cols: list[tuple[tuple[Fraction, ...], Fraction, int]] = []
    for j in range(matrix.cols):
        key = (matrix.col(j), tags[j])
        if key not in seen:
            seen[key] = len(cols)
            cols.append((key[0], key[1], j))
    return cols


def hull_membership(
    matrix: RationalMatrix,
    y: Sequence[Fraction],
    max_columns: int = VERIFY_COLUMN_GUARD,
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Is y a convex combination of the columns? Witness weights if so.

    Tries column subsets in lexicographic order, sizes 1 through rows+1, and
    accepts the first subset whose barycentric system has a unique
    all-nonnegative solution. Any point of the hull lies on some affinely
    independent subset of at most rows+1 columns, so skipping rank-deficient
    subsets loses nothing.
    """
    if matrix.cols > max_columns:
        raise SizeGuardError(matrix.cols, max_columns)
    target = [Fraction(v) for v in y]
    if len(target) != matrix.rows:
        raise ValueError(f"target length {len(target)} != row count {matrix.rows}")
    cols = _dedup_columns(matrix, [ZERO] * matrix.cols)
    limit = min(matrix.rows + 1, len(cols))
    rhs = target + [ONE]
    for size in range(1, limit + 1):
        for subset in combinations(range(len(cols)), size):
            system = [
                [cols[j][0][i] for j in subset] for i in range(matrix.rows)
            ]
            system.append([ONE] * size)
            solution = linalg.solve_unique(system, rhs)
            if solution is None or any(v < 0 for v in solution):
                continue
            weights = [ZERO] * matrix.cols
            for t, j in enumerate(subset):
                weights[cols[j][2]] = solution[t]
            return True, tuple(weights)
    return False, None


def _det(mat: list[list[int]]) -> int:
    size = len(mat)
    if size == 1:
        return mat[0][0]
    if size == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    sign = 1
    top = mat[0]
    rest = mat[1:]
    for c in range(size):
        if top[c] != 0:
            minor = [row[:c] + row[c + 1 :] for row in rest]
            total += sign * top[c] * _det(minor)
        sign = -sign
    return total


def _integer_rows(rows: list[tuple[list[Fraction], Fraction]]):
    """Clear denominators row by row; solutions are unchanged."""
    out = []
    for coeffs, rhs in rows:
        scale = lcm(rhs.denominator, *(c.denominator for c in coeffs)) if coeffs else 1
        out.append(
            (
                [c.numerator * (scale // c.denominator) for c in coeffs],
                rhs.numerator * (scale // rhs.denominator),
            )
        )
    return out


def support_enumeration_optimize(
    matrix: RationalMatrix,
    lower: Sequence[Fraction],
    upper: Sequence[Fraction],
    objective: Sequence[Fraction],
    max_columns: int = VERIFY_COLUMN_GUARD,
) -> Interval:
    """Exact [min, max] of objective . u over the bounded clause-expectation polytope.

    Enumerates every vertex: a support of size s <= rows+1 together with the
    total-mass row and s-1 tight bound rows forms a square system; each
    nonsingular system with a nonnegative solution that passes the full bound
    check is a candidate vertex. Optima of a linear functional over the
    compact polytope are attained at vertices, so scanning them all is exact.
    """
    m, ncols = matrix.rows, matrix.cols
    if ncols > max_columns:
        raise SizeGuardError(ncols, max_columns)
    if m > ORACLE_ROW_GUARD:
        raise SizeGuardError(m, ORACLE_ROW_GUARD, what="rows")
    lo = [Fraction(v) for v in lower]
    hi = [Fraction(v) for v in upper]
    z = [Fraction(v) for v in objective]
    if not len(lo) == len(hi) == m:
        raise ValueError("bound counts differ from row count")
    if len(z) != ncols:
        raise ValueError(f"objective length {len(z)} != column count {ncols}")
    for a, b in zip(lo, hi):
        if a > b:
            raise ValueError(f"lower bound {a} exceeds upper bound {b}")

    cols = _dedup_columns(matrix, z)
    nd = len(cols)
    sides: list[tuple[int, Fraction]] = []
    for i in range(m):
        sides.append((i, lo[i]))
        if hi[i] != lo[i]:
            sides.append((i, hi[i]))

    best_min: Fraction | None = None
    best_max: Fraction | None = None
    for size in range(1, min(m + 1, nd) + 1):
        for support in combinations(range(nd), size):
            scols = [cols[j] for j in support]
            for tight in combinations(sides, size - 1):
                frac_rows: list[tuple[list[Fraction], Fraction]] = [
                    ([ONE] * size, ONE)
                ]
                for i, bound in tight:
                    frac_rows.append(([col[0][i] for col in scols], bound))
                int_rows = _integer_rows(frac_rows)
                coeff = [r[0] for r in int_rows]
                det = _det(coeff)
                if det == 0:
                    continue
                nums = []
                for j in range(size):
                    replaced = [
                        row[:j] + [int_rows[t][1]] + row[j + 1 :]
                        for t, row in enumerate(coeff)
                    ]
                    nums.append(_det(replaced))
                if det < 0:
                    det = -det
                    nums = [-v for v in nums]
                if any(v < 0 for v in nums):
                    continue
                weights = [Fraction(v, det) for v in nums]
                feasible = True
                for i in range(m):
                    val = ZERO
                    for t, col in enumerate(scols):
                        if weights[t] != 0:
                            val += weights[t] * col[0][i]
                    if not lo[i] <= val <= hi[i]:
                        feasible = False
                        break
                if not feasible:
                    continue
                value = ZERO
                for t, col in enumerate(scols):
                    if weights[t] != 0 and col[1] != 0:
                        value += weights[t] * col[1]
                if best_min is None or value < best_min:
                    best_min = value
                if best_max is None or value > best_max:
                    best_max = value
    if best_min is None:
        raise InfeasibleError("no basic feasible support")
    return Interval(best_min, best_max)


def kernel_by_elimination(
    matrix: RationalMatrix, max_columns: int = VERIFY_COLUMN_GUARD
) -> RationalMatrix:
    """Kernel basis of the matrix via row reduction, one column per basis vector."""
    if matrix.cols > max_columns:
        raise SizeGuardError(matrix.cols, max_columns)
    basis = linalg.nullspace(matrix.to_rows())
    if not basis:
        raise ValueError("trivial kernel")
    rows = [[vec[i] for vec in basis] for i in range(matrix.cols)]
    return RationalMatrix.from_rows(rows)
