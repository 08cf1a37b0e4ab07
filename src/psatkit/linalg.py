"""Exact rational elimination: rank, unique solve, nullspace.

All three read one sparse reduced row echelon form, built by `_rref`. Pivots
are chosen by first nonzero column, never by magnitude, and the reduced row
echelon form of a matrix is unique, so every result is deterministic. The LP
solver does not use this module; it keeps its own pivoting so the
brute-force cross-checks stay independent of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

Row = Sequence[Fraction]


def _rref(rows: Sequence[Row]) -> dict[int, dict[int, Fraction]]:
    """Sparse reduced row echelon form: pivot column -> pivot row.

    A pivot row maps columns to nonzero entries; it is 1 at its own pivot
    column and 0 at every other one. Rows are added one at a time: a new row
    is cleared at the existing pivot columns, and if anything is left, its
    first nonzero column becomes a pivot and is cleared from the earlier rows.
    """
    pivots: dict[int, dict[int, Fraction]] = {}

    def subtract(row, factor, pivot) -> None:
        """row -= factor * pivot, dropping the entries that become zero."""
        for j, v in pivot.items():
            new = row.get(j, ZERO) - factor * v
            if new:
                row[j] = new
            else:
                del row[j]

    for dense in rows:
        row = {}
        for j, v in enumerate(dense):
            f = as_fraction(v)
            if f:
                row[j] = f
        for col in [c for c in row if c in pivots]:
            subtract(row, row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = row[lead]
        if inv != ONE:
            row = {j: v / inv for j, v in row.items()}
        for other in pivots.values():
            if lead in other:
                subtract(other, other[lead], row)
        pivots[lead] = row
    return pivots


def rank(rows: Sequence[Row]) -> int:
    """Number of pivots of the reduced row echelon form."""
    return len(_rref(rows))


def solve_unique(rows: Sequence[Row], rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Exact solution of A x = b when it exists and is unique, else None.

    None covers both inconsistent and underdetermined systems; callers that
    enumerate subsets rely on some affinely independent subset producing a
    unique solution.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError(f"{m} rows but {len(rhs)} right-hand sides")
    if m == 0:
        return None
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged coefficient rows")
    if ncols == 0:
        return None
    # Unique exactly when every coefficient column is a pivot and the
    # right-hand side column is not.
    pivots = _rref([[*row, b] for row, b in zip(rows, rhs)])
    if len(pivots) != ncols or ncols in pivots:
        return None
    return tuple(pivots[col].get(ncols, ZERO) for col in range(ncols))


def nullspace(rows: Sequence[Row]) -> list[tuple[Fraction, ...]]:
    """Kernel basis from the reduced row echelon form, one vector per free column."""
    if len(rows) == 0:
        raise ValueError("no rows")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    pivots = _rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for col, row in pivots.items():
            vec[col] = -row.get(free, ZERO)
        basis.append(tuple(vec))
    return basis
