"""Clause syntax, k-valued assignments, and exact truth evaluation.

Truth values live on the evenly spaced scale {kappa/(k-1) : 0 <= kappa < k};
k=2 is classical logic. Assignments are indexed canonically by base-k
expansion with digit 0 the least significant, so index j encodes variable
X_0 in its lowest digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import SOLVE_COLUMN_GUARD, check_columns

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

Rational = Union[Fraction, int]


def as_fraction(value) -> Fraction:
    """The value as a Fraction: a Fraction is returned as it is, anything else converted.

    Validating constructors call this once per entry, where values enter the
    library; values derived from them are Fractions already.
    """
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class TruthValue:
    """One of k evenly spaced truth values kappa/(k-1)."""

    kappa: int
    k: int = 2

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need k >= 2, got k={self.k}")
        if not 0 <= self.kappa <= self.k - 1:
            raise ValueError(f"kappa={self.kappa} outside [0, {self.k - 1}]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.kappa, self.k - 1)

    @property
    def is_true(self) -> bool:
        return self.kappa == self.k - 1

    def negated(self) -> TruthValue:
        return TruthValue(self.k - 1 - self.kappa, self.k)


def index_digits(index: int, n: int, k: int) -> tuple[int, ...]:
    """The n base-k digits of a canonical assignment index, X_0's digit first."""
    digits = []
    for _ in range(n):
        index, digit = divmod(index, k)
        digits.append(digit)
    return tuple(digits)


@dataclass(frozen=True)
class Assignment:
    """k-valued assignment together with its canonical index."""

    n: int
    k: int
    index: int
    digits: tuple[TruthValue, ...]

    @classmethod
    def from_index(cls, n: int, k: int, index: int) -> Assignment:
        if n < 1 or k < 2:
            raise ValueError(f"need n >= 1 and k >= 2, got n={n} k={k}")
        if not 0 <= index < k**n:
            raise ValueError(f"index {index} outside [0, {k ** n - 1}]")
        return cls(n, k, index, tuple(TruthValue(d, k) for d in index_digits(index, n, k)))

    def digit_values(self) -> tuple[Fraction, ...]:
        return tuple(d.value for d in self.digits)

    @property
    def weight(self) -> int:
        """Number of nonzero digits."""
        return sum(1 for d in self.digits if d.kappa != 0)


@dataclass(frozen=True)
class Literal:
    """Variable occurrence, possibly negated. Variables are 0-based."""

    variable: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.variable < 0:
            raise ValueError(f"negative variable index {self.variable}")

    @classmethod
    def from_dimacs(cls, code: int) -> Literal:
        if code == 0:
            raise ValueError("literal code 0 is reserved as the clause terminator")
        return cls(abs(code) - 1, code < 0)

    def to_dimacs(self) -> int:
        return -(self.variable + 1) if self.negated else self.variable + 1


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; exact duplicate literals are dropped.

    Complementary pairs are kept: under max-evaluation they make the clause
    classically true, which is the intended reading.
    """

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        seen: set[Literal] = set()
        kept: list[Literal] = []
        for lit in self.literals:
            if lit not in seen:
                seen.add(lit)
                kept.append(lit)
        if not kept:
            raise ValueError("empty clause")
        object.__setattr__(self, "literals", tuple(kept))

    @classmethod
    def from_dimacs(cls, codes: Iterable[int]) -> Clause:
        return cls(tuple(Literal.from_dimacs(c) for c in codes))

    def to_dimacs(self) -> tuple[int, ...]:
        return tuple(lit.to_dimacs() for lit in self.literals)

    def max_variable(self) -> int:
        return max(lit.variable for lit in self.literals)


@dataclass(frozen=True)
class ConjunctiveForm:
    """Conjunction of clauses over variables X_0 .. X_{n-1}."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        clauses = tuple(self.clauses)
        if not clauses:
            raise ValueError("a form needs at least one clause")
        for clause in clauses:
            if clause.max_variable() >= self.n:
                raise ValueError(
                    f"clause mentions X_{clause.max_variable()} but n={self.n}"
                )
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @classmethod
    def from_dimacs(cls, n: int, clause_codes: Iterable[Iterable[int]]) -> ConjunctiveForm:
        return cls(n, tuple(Clause.from_dimacs(codes) for codes in clause_codes))

    @classmethod
    def units(cls, n: int) -> ConjunctiveForm:
        """The n unit clauses X_0 .. X_{n-1}."""
        return cls.from_dimacs(n, ((i + 1,) for i in range(n)))


def enumerate_assignments(
    n: int, k: int = 2, max_columns: int = SOLVE_COLUMN_GUARD
) -> list[Assignment]:
    """All k**n assignments in canonical index order."""
    count = check_columns(n, k, max_columns)
    return [Assignment.from_index(n, k, j) for j in range(count)]


def eval_literal(literal: Literal, assignment: Assignment) -> TruthValue:
    if literal.variable >= assignment.n:
        raise ValueError(
            f"literal on X_{literal.variable} but assignment has n={assignment.n}"
        )
    digit = assignment.digits[literal.variable]
    return digit.negated() if literal.negated else digit


def eval_clause(clause: Clause, assignment: Assignment) -> TruthValue:
    """Disjunction as max over the truth-value scale."""
    best = eval_literal(clause.literals[0], assignment)
    for lit in clause.literals[1:]:
        val = eval_literal(lit, assignment)
        if val.kappa > best.kappa:
            best = val
    return best


def eval_form(form: ConjunctiveForm, assignment: Assignment) -> tuple[TruthValue, ...]:
    return tuple(eval_clause(clause, assignment) for clause in form.clauses)


def determinize(values: Sequence[Rational]) -> tuple[int, ...]:
    """Round each component to a classical truth value; ties at 1/2 go to 1."""
    out = []
    for v in values:
        f = as_fraction(v)
        if not ZERO <= f <= ONE:
            raise ValueError(f"component {f} outside [0, 1]")
        out.append(1 if f >= HALF else 0)
    return tuple(out)


@dataclass(frozen=True)
class ProbabilisticAssignment:
    """Vector of per-variable truth expectations in [0, 1]."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(as_fraction(v) for v in self.values)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        for v in values:
            if not ZERO <= v <= ONE:
                raise ValueError(f"component {v} outside [0, 1]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over the k**n assignments, exact and validated."""

    n: int
    k: int
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 2:
            raise ValueError(f"need n >= 1 and k >= 2, got n={self.n} k={self.k}")
        weights = tuple(as_fraction(w) for w in self.weights)
        if len(weights) != self.k**self.n:
            raise ValueError(
                f"expected {self.k ** self.n} weights, got {len(weights)}"
            )
        total = ZERO
        for w in weights:
            if w < 0:
                raise ValueError(f"negative weight {w}")
            total += w
        if total != ONE:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, n: int, k: int, index: int) -> Distribution:
        count = check_columns(n, k, SOLVE_COLUMN_GUARD)
        if not 0 <= index < count:
            raise ValueError(f"index {index} outside [0, {count - 1}]")
        return cls(n, k, tuple(ONE if j == index else ZERO for j in range(count)))

    def support(self) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero entries as (assignment index, weight) pairs, index ascending."""
        return tuple((j, w) for j, w in enumerate(self.weights) if w != 0)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        if lo > hi:
            raise ValueError(f"interval lower {lo} exceeds upper {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, value: Rational) -> bool:
        return self.lo <= as_fraction(value) <= self.hi
