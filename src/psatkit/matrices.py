"""Exact matrix builders linking clause logic to the probability simplex.

The assignment matrix lists every k-valued assignment as a column, so for a
distribution u over assignments the product gives the vector of per-variable
truth expectations. The kernel basis matrix generates the lattice of
distributions sharing those expectations, and the clause value matrix plays
the same role for per-clause truth expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import SOLVE_COLUMN_GUARD, check_columns
from .model import (
    ConjunctiveForm,
    Distribution,
    as_fraction,
    enumerate_assignments,
    eval_clause,
)

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"need positive dimensions, got {self.rows}x{self.cols}")
        entries = tuple(as_fraction(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction]]) -> RationalMatrix:
        nrows = len(rows)
        if nrows == 0:
            raise ValueError("no rows")
        ncols = len(rows[0])
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, tuple(flat))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def transpose(self) -> RationalMatrix:
        return RationalMatrix.from_rows([self.col(j) for j in range(self.cols)])

    def mul_vec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != column count {self.cols}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for j, v in enumerate(vec):
                if v != 0:
                    e = self.entries[base + j]
                    if e != 0:
                        acc += e * v
            out.append(acc)
        return tuple(out)

    def matmul(self, other: RationalMatrix) -> RationalMatrix:
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_rows = [other.row(l) for l in range(other.rows)]
        result = []
        for i in range(self.rows):
            base = i * self.cols
            acc = [ZERO] * other.cols
            for l in range(self.cols):
                a = self.entries[base + l]
                if a == 0:
                    continue
                orow = other_rows[l]
                for j in range(other.cols):
                    b = orow[j]
                    if b != 0:
                        acc[j] += a * b
            result.append(acc)
        return RationalMatrix.from_rows(result)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


@dataclass(frozen=True)
class WeightPermutation:
    """Column order sorted by assignment weight (number of nonzero digits).

    perm[p] is the canonical index placed at position p. Ties break by
    ascending canonical index, except that for k > 2 the weight-1 class puts
    the n assignments whose single nonzero digit equals 1/(k-1) first; those
    columns form the scaled identity block.
    """

    n: int
    k: int
    perm: tuple[int, ...]


def assignment_matrix(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """n x k**n matrix whose column j is assignment j as a digit vector."""
    assigns = enumerate_assignments(n, k, max_columns)
    rows = [[a.digits[i].value for a in assigns] for i in range(n)]
    return RationalMatrix.from_rows(rows)


def bias_matrix(n: int, max_columns: int = SOLVE_COLUMN_GUARD) -> RationalMatrix:
    """Classical-only rescaling 2W - 1 mapping expectations to biases in [-1, 1]."""
    w = assignment_matrix(n, 2, max_columns)
    return RationalMatrix(w.rows, w.cols, tuple(TWO * e - ONE for e in w.entries))


def _nonzero_digits(a: int, k: int):
    """(k**i, digit) for each nonzero base-k digit of a, lowest place first."""
    place = 1
    while a:
        a, digit = divmod(a, k)
        if digit:
            yield place, digit
        place *= k


def weight_permutation(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> WeightPermutation:
    count = check_columns(n, k, max_columns)
    units = {k**i for i in range(n)}

    def key(a: int):
        return (sum(1 for _ in _nonzero_digits(a, k)), a not in units, a)

    return WeightPermutation(n, k, tuple(sorted(range(count), key=key)))


def _kernel_columns(n: int, k: int, max_columns: int):
    """Nonzero (row, value) pairs of each kernel basis column, in column order."""
    perm = weight_permutation(n, k, max_columns).perm
    scale = Fraction(1, k - 1)
    for a in (perm[0], *perm[n + 1 :]):
        yield [(a, scale), *((place, -digit * scale) for place, digit in _nonzero_digits(a, k))]


def kernel_basis_matrix(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """k**n x (k**n - n) generator of the kernel of the assignment matrix.

    Column c belongs to assignment a = (perm[0], *perm[n+1:])[c] of
    `weight_permutation(n, k).perm`: the zero assignment, then every
    assignment after the n unit assignments k^i. The column is
    (e_a - sum_i a_i e_{k^i}) / (k - 1), where a_i are the base-k digits of a
    and rows are in canonical assignment order. W sends both e_a and
    sum_i a_i e_{k^i} to the digit values of a, so it annihilates the column.
    """
    count = check_columns(n, k, max_columns)
    width = count - n
    entries = [ZERO] * (count * width)
    for c, column in enumerate(_kernel_columns(n, k, max_columns)):
        for row, value in column:
            entries[row * width + c] = value
    return RationalMatrix(count, width, tuple(entries))


def kernel_column_sums_formula(
    n: int, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[Fraction, ...]:
    """Closed form of the classical kernel column sums.

    A kernel column built from a weight-(i+1) assignment sums to -i, and there
    are C(n, i+1) of them; the zero-assignment column sums to 1.
    """
    check_columns(n, 2, max_columns)
    out = [ONE]
    for i in range(1, n):
        out.extend([Fraction(-i)] * comb(n, i + 1))
    return tuple(out)


def kernel_column_sums(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[Fraction, ...]:
    """Column sums of the kernel basis matrix, read from its column rule, for any k."""
    return tuple(
        sum(value for _, value in column) for column in _kernel_columns(n, k, max_columns)
    )


def clause_value_matrix(
    form: ConjunctiveForm, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """m x k**n matrix of clause truth values; entry (i, j) is clause i at assignment j."""
    assigns = enumerate_assignments(form.n, k, max_columns)
    rows = [[eval_clause(clause, a).value for a in assigns] for clause in form.clauses]
    return RationalMatrix.from_rows(rows)


def expected_bias(
    u: Distribution, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[Fraction, ...]:
    """Per-variable bias vector of a classical distribution (k=2 only)."""
    if u.k != 2:
        raise ValueError(f"bias is a classical notion, got k={u.k}")
    return bias_matrix(u.n, max_columns).mul_vec(u.weights)
