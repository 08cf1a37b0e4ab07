"""Seeded query streams for the benchmark workloads.

Query i of a workload depends only on (workload, seed, i), so every run of a
seed sends the same queries in the same order however far it gets. Sizes
follow a fixed per-workload schedule; the seed only draws clause literals,
planted distributions, bounds, goals and vectors.

Every instance with expectation bounds is planted: the bounds are drawn
around the clause expectations of a known distribution, so the benchmark
knows a point of the feasible set without asking psatkit for one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks

ONE = Fraction(1)

# Schedule entries: (kind, n, k, m). Clause widths, support size and which
# rows are exact are fixed too, and the entries of a workload take similar
# time, so the seed moves a run's latency quantiles little. Sizes keep the
# mean answer under 0.1 s on a 2-core machine, so a 30 s run gives 250+
# latency samples, 25+ of them beyond the 90th percentile.
SCHEDULES = {
    "psat-decide": (
        ("solve", 8, 2, 7),
        ("solve", 8, 2, 8),
    ),
    "entail-range": (
        ("entail", 7, 2, 6),
        ("entail", 4, 3, 5),
        ("entail", 7, 2, 6),
        ("entail", 4, 3, 5),
        ("entail", 8, 2, 2),
    ),
    "coherence": (
        ("coherence", 6, 2, 0),
        ("coherence", 4, 3, 0),
        ("coherence", 7, 2, 0),
        ("coherence", 4, 3, 0),
    ),
    "structure": (
        ("containment", 7, 2, 5),
        ("fiber", 6, 2, 5),
        ("dim", 5, 2, 3),
        ("kernel", 7, 2, 0),
    ),
}

WORKLOADS = tuple(SCHEDULES)

# Instances with at most this many clauses and columns have their entail
# range compared against the brute-force oracle as well.
ORACLE_ROWS = 2
ORACLE_COLUMNS = 4096


@dataclass
class Query:
    """One question for psatkit plus what the benchmark knows about its answer."""

    kind: str
    n: int
    k: int
    clauses: tuple[tuple[int, ...], ...] = ()
    bounds: tuple[tuple[Fraction, Fraction], ...] = ()
    goal: tuple[int, ...] = ()
    vector: tuple[Fraction, ...] = ()
    planted: dict[int, Fraction] = field(default_factory=dict)
    feasible: bool = True

    def text(self) -> str:
        """Instance file in the `p psat` / `p psatk` format."""
        m = len(self.clauses)
        header = f"p psat {self.n} {m}" if self.k == 2 else f"p psatk {self.n} {m} {self.k}"
        lines = [header]
        for clause, (lo, hi) in zip(self.clauses, self.bounds):
            lines.append(" ".join(str(c) for c in clause) + f" 0 {lo} {hi}")
        return "\n".join(lines) + "\n"

    @property
    def uses_file(self) -> bool:
        return self.kind in ("solve", "entail")

    @property
    def oracle_slice(self) -> bool:
        return (
            self.kind == "entail"
            and len(self.clauses) <= ORACLE_ROWS
            and self.k**self.n <= ORACLE_COLUMNS
        )


def random_clause(rng: random.Random, n: int, width: int) -> tuple[int, ...]:
    variables = rng.sample(range(1, n + 1), min(width, n))
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def random_form(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """m clauses of widths 1, 2, 3, 1, 2, 3, ..."""
    return [random_clause(rng, n, 1 + i % 3) for i in range(m)]


def satisfying_assignment(rng: random.Random, clause: tuple[int, ...], n: int, k: int) -> int:
    """A random assignment index on which the clause takes its top value."""
    digits = [rng.randrange(k) for _ in range(n)]
    code = clause[0]
    digits[abs(code) - 1] = k - 1 if code > 0 else 0
    return sum(d * k**i for i, d in enumerate(digits))


def planted_distribution(
    rng: random.Random, n: int, k: int, must: int | None = None
) -> dict[int, Fraction]:
    """Three assignments with random integer weights; `must` is one of them."""
    support = {must} if must is not None else set()
    while len(support) < 3:
        support.add(rng.randrange(k**n))
    weights = {j: rng.randint(1, 9) for j in sorted(support)}
    total = sum(weights.values())
    return {j: Fraction(w, total) for j, w in weights.items()}


def planted_bounds(
    rng: random.Random, clauses, dist: dict[int, Fraction], n: int, k: int
) -> list[tuple[Fraction, Fraction]]:
    """Bounds around each clause expectation: every third row exact, the rest
    intervals whose lower end stays above half the expectation."""
    bounds = []
    for i, clause in enumerate(clauses):
        e = checks.expectation(clause, dist, n, k)
        if i % 3 == 1:
            bounds.append((e, e))
            continue
        below = min(Fraction(rng.randint(1, 2), 10), e / 2)
        above = Fraction(rng.randint(1, 2), 10)
        bounds.append((e - below, min(ONE, e + above)))
    return bounds


def _bounded_instance(rng, kind, n, k, m, nested: bool = False) -> Query:
    """Planted-feasible instance; with `nested`, clause 2 is a sub-clause of clause 1."""
    clauses = random_form(rng, n, m)
    must = None
    if nested:
        clauses[0] = random_clause(rng, n, 3)
        clauses[1] = tuple(rng.sample(clauses[0], 2))
        must = satisfying_assignment(rng, clauses[1], n, k)
    dist = planted_distribution(rng, n, k, must)
    bounds = planted_bounds(rng, clauses, dist, n, k)
    return Query(kind, n, k, tuple(clauses), tuple(bounds), planted=dist)


def make_query(workload: str, seed: int, index) -> Query:
    """Query `index` of the workload's stream; `index` may also be a label such as 'warmup'."""
    schedule = SCHEDULES[workload]
    kind, n, k, m = schedule[(index if isinstance(index, int) else 0) % len(schedule)]
    rng = random.Random(f"{workload}/{seed}/{index}")

    if kind == "solve":
        q = _bounded_instance(rng, kind, n, k, m, nested=True)
        if isinstance(index, int) and index % 3 == 2:
            # Pull clause 1's upper bound under clause 2's lower bound. Clause 1
            # is true wherever clause 2 is, so no distribution meets both.
            bounds = list(q.bounds)
            cap = bounds[1][0] / 2
            bounds[0] = (min(bounds[0][0], cap), cap)
            q.bounds = tuple(bounds)
            q.feasible = False
        return q
    if kind == "entail":
        q = _bounded_instance(rng, kind, n, k, m)
        q.goal = random_clause(rng, n, 2)
        return q
    if kind == "coherence":
        vector = []
        for _ in range(n):
            den = rng.randint(2, 6)
            vector.append(Fraction(rng.randint(1, den - 1), den))
        return Query(kind, n, k, vector=tuple(vector))
    if kind == "containment":
        if rng.random() < 1 / 3:
            # Single positive literals are the forms whose clause rows lie in
            # the row space of W, so containment holds for them.
            clauses = tuple((v,) for v in rng.sample(range(1, n + 1), min(m, n)))
        else:
            clauses = tuple(random_form(rng, n, m))
        return Query(kind, n, k, clauses)
    if kind in ("fiber", "dim"):
        return _bounded_instance(rng, kind, n, k, m)
    if kind == "kernel":
        return Query(kind, n, k)
    raise ValueError(f"unknown query kind {kind!r}")
