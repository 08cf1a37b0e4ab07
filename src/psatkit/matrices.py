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

from .errors import SOLVE_COLUMN_GUARD, SizeGuardError, check_columns
from .model import ConjunctiveForm, Distribution, as_fraction, index_digits
# Not called here: bench/tracing.py patches this name on this module.
from .model import enumerate_assignments

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


def assignment_matrix(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """n x k**n digit-value matrix: the clause value matrix of the unit clauses."""
    check_columns(n, k, max_columns)  # before building n clauses, so a huge n trips at once
    return clause_value_matrix(ConjunctiveForm.units(n), k, max_columns)


def bias_matrix(n: int, max_columns: int = SOLVE_COLUMN_GUARD) -> RationalMatrix:
    """Classical-only rescaling 2W - 1 mapping expectations to biases in [-1, 1]."""
    w = assignment_matrix(n, 2, max_columns)
    return RationalMatrix(w.rows, w.cols, tuple(TWO * e - ONE for e in w.entries))


def weight_permutation(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[int, ...]:
    """Canonical indices sorted by assignment weight (number of nonzero digits).

    Entry p is the canonical index placed at position p. Ties break by
    ascending canonical index, except that for k > 2 the weight-1 class puts
    the n assignments whose single nonzero digit equals 1/(k-1) first; those
    columns form the scaled identity block.
    """
    count = check_columns(n, k, max_columns)
    # One ascending pass: a // k is a without its lowest digit, so each weight
    # extends an earlier one, and each bucket fills in index order.
    weight = bytearray(count)
    buckets: list[list[int]] = [[0]] + [[] for _ in range(n)]
    for a in range(1, count):
        w = weight[a // k] + (a % k != 0)
        weight[a] = w
        buckets[w].append(a)
    units = [k**i for i in range(n)]
    unit_set = set(units)
    buckets[1] = units + [a for a in buckets[1] if a not in unit_set]
    return tuple(a for bucket in buckets for a in bucket)


def _kernel_assignments(n: int, k: int, max_columns: int) -> tuple[int, ...]:
    """The assignment of each kernel basis column: zero, then every non-unit one."""
    order = weight_permutation(n, k, max_columns)
    return (order[0], *order[n + 1 :])


def _kernel_columns(n: int, k: int, max_columns: int):
    """Nonzero (row, value) pairs of each kernel basis column, in column order."""
    assignments = _kernel_assignments(n, k, max_columns)
    scale = Fraction(1, k - 1)
    places = [k**i for i in range(n)]
    values = [Fraction(-d, k - 1) for d in range(k)]
    for a in assignments:
        column, rest = [(a, scale)], a
        for place in places:
            rest, d = divmod(rest, k)
            if d:
                column.append((place, values[d]))
        yield column


def kernel_basis_matrix(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """k**n x (k**n - n) generator of the kernel of the assignment matrix.

    Column c belongs to assignment a = (order[0], *order[n+1:])[c], where
    order = `weight_permutation(n, k)`: the zero assignment, then every
    assignment after the n unit assignments k^i. The column is
    (e_a - sum_i a_i e_{k^i}) / (k - 1), where a_i are the base-k digits of a
    and rows are in canonical assignment order. W sends both e_a and
    sum_i a_i e_{k^i} to the digit values of a, so it annihilates the column.
    """
    count = check_columns(n, k, max_columns)
    width = count - n
    if count * width > max_columns:  # K is dense, so the guard counts its entries
        raise SizeGuardError(count * width, max_columns, "entries")
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
    """Column sums of the kernel basis matrix for any k.

    The column of assignment a sums to (1 - sum_i a_i) / (k - 1), so each sum
    is read from a table indexed by the digit sum of a.
    """
    assignments = _kernel_assignments(n, k, max_columns)
    # One ascending pass: a // k is a without its lowest digit a % k.
    digit_sum = [0] * k**n
    for a in range(1, k**n):
        digit_sum[a] = digit_sum[a // k] + a % k
    sums = [Fraction(1 - s, k - 1) for s in range(n * (k - 1) + 1)]
    return tuple(sums[digit_sum[a]] for a in assignments)


def clause_value_matrix(
    form: ConjunctiveForm, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> RationalMatrix:
    """m x k**n matrix of clause truth values; entry (i, j) is clause i at assignment j.

    A clause's value index is the largest of its literals', where a literal on
    digit d reads d, or k - 1 - d when negated; the value is that index / (k - 1).
    """
    count = check_columns(form.n, k, max_columns)
    digits = list(zip(*(index_digits(j, form.n, k) for j in range(count))))
    values = [Fraction(d, k - 1) for d in range(k)]
    rows = []
    for clause in form.clauses:
        literals = [
            [k - 1 - d for d in digits[lit.variable]] if lit.negated else digits[lit.variable]
            for lit in clause.literals
        ]
        rows.append([values[max(column)] for column in zip(*literals)])
    return RationalMatrix.from_rows(rows)


def expected_bias(
    u: Distribution, max_columns: int = SOLVE_COLUMN_GUARD
) -> tuple[Fraction, ...]:
    """Per-variable bias vector of a classical distribution (k=2 only)."""
    if u.k != 2:
        raise ValueError(f"bias is a classical notion, got k={u.k}")
    return bias_matrix(u.n, max_columns).mul_vec(u.weights)
