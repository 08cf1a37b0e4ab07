import hashlib
import random
from fractions import Fraction as F

import pytest

from psatkit import (
    INFEASIBLE,
    Clause,
    ClauseProbabilityTarget,
    ConjunctiveForm,
    InfeasibleError,
    LpProblem,
    OPTIMAL,
    UnboundedError,
    bias_matrix,
    lp_feasible,
    lp_optimize_both,
    lp_solve,
    rational_lp,
)
from psatkit.problems import clause_problem
from conftest import random_form, random_unit_fraction


def simplex_lp(rows, lower, upper, objective=None, num_vars=None):
    num_vars = num_vars if num_vars is not None else len(rows[0])
    objective = objective if objective is not None else (0,) * num_vars
    return LpProblem(
        num_vars=num_vars,
        objective=objective,
        rows=tuple(rows),
        row_lower=tuple(lower),
        row_upper=tuple(upper),
    )


class TestProblemValidation:
    def test_bound_order(self):
        with pytest.raises(ValueError):
            simplex_lp(((1, 0),), (1,), (0,))

    def test_row_width(self):
        with pytest.raises(ValueError):
            LpProblem(num_vars=2, objective=(0, 0), rows=((1,),), row_lower=(0,), row_upper=(1,))

    def test_objective_width(self):
        with pytest.raises(ValueError):
            LpProblem(num_vars=2, objective=(0,))

    def test_bound_counts(self):
        with pytest.raises(ValueError):
            LpProblem(
                num_vars=1, objective=(0,), rows=((1,),), row_lower=(0, 0), row_upper=(1,)
            )

    def test_entries_coerced_to_fractions(self):
        p = simplex_lp(((1, 0),), (F(1, 2),), (1,))
        assert all(isinstance(e, F) for e in p.rows[0])
        assert isinstance(p.row_lower[0], F)

    def test_int_and_string_inputs_become_fractions(self):
        p = simplex_lp(((1, "1/2"),), ("1/4",), (1,), objective=(2, "-1/3"))
        assert p.rows == ((1, F(1, 2)),)
        assert p.objective == (2, F(-1, 3))
        values = (*p.objective, *p.rows[0], *p.row_lower, *p.row_upper)
        assert all(type(v) is F for v in values)
        q = p.with_objective((1, "3/2"))
        assert q.objective == (1, F(3, 2))
        assert all(type(v) is F for v in q.objective)

    def test_witness_and_value_are_fractions(self):
        p = simplex_lp(((0, 1),), ("1/4",), ("3/4",), objective=(1, 3))
        for out in (lp_solve(p), lp_feasible(p), lp_solve(LpProblem(num_vars=2, objective=(1, 1)))):
            assert all(type(v) is F for v in out.witness)
            assert type(out.value) is F
        interval = lp_optimize_both(p)
        assert type(interval.lo) is F and type(interval.hi) is F


class TestBasicSolves:
    def test_no_rows_minimum_is_cheapest_vertex(self):
        out = lp_solve(LpProblem(num_vars=2, objective=(1, 1)))
        assert out.status == OPTIMAL
        assert out.witness == (1, 0)
        assert out.value == 1

    def test_no_rows_prefers_smaller_cost(self):
        out = lp_solve(LpProblem(num_vars=3, objective=(2, 1, 3)))
        assert out.witness == (0, 1, 0)
        assert out.value == 1

    def test_contradictory_unit_rows(self):
        p = simplex_lp(((1, 0), (0, 1)), (1, 1), (1, 1))
        assert lp_solve(p).status == INFEASIBLE
        assert lp_solve(p).witness is None

    def test_forced_unique_witness(self):
        p = simplex_lp(((0, 1),), (F(7, 10),), (F(7, 10),))
        out = lp_solve(p)
        assert out.status == OPTIMAL
        assert out.witness == (F(3, 10), F(7, 10))

    def test_value_is_objective_at_witness(self):
        p = simplex_lp(((0, 1),), (F(1, 4),), (F(3, 4),), objective=(F(1, 2), 3))
        out = lp_solve(p)
        assert out.value == sum(c * x for c, x in zip(p.objective, out.witness))

    def test_interval_bounds_respected(self):
        p = simplex_lp(((1, 0, 0), (0, 1, 1)), (F(1, 5), F(1, 3)), (F(2, 5), F(2, 3)))
        out = lp_solve(p)
        x = out.witness
        assert F(1, 5) <= x[0] <= F(2, 5)
        assert F(1, 3) <= x[1] + x[2] <= F(2, 3)
        assert sum(x) == 1 and all(v >= 0 for v in x)


class TestOptimizeBoth:
    def test_free_coordinate_spans_unit_interval(self):
        p = simplex_lp(((1, 1),), (1,), (1,), objective=(0, 1))
        iv = lp_optimize_both(p)
        assert (iv.lo, iv.hi) == (0, 1)

    def test_pinned_coordinate(self):
        p = simplex_lp(((0, 1),), (F(7, 10),), (F(7, 10),), objective=(0, 1))
        iv = lp_optimize_both(p)
        assert (iv.lo, iv.hi) == (F(7, 10), F(7, 10))

    def test_infeasible_raises(self):
        p = simplex_lp(((1, 0), (0, 1)), (1, 1), (1, 1), objective=(1, 0))
        with pytest.raises(InfeasibleError):
            lp_optimize_both(p)


class TestDegeneracyAndTermination:
    def test_duplicate_rows(self):
        p = simplex_lp(((0, 1), (0, 1), (0, 1)), (F(1, 2),) * 3, (F(1, 2),) * 3)
        out = lp_solve(p)
        assert out.status == OPTIMAL
        assert out.witness == (F(1, 2), F(1, 2))

    def test_redundant_row_pair(self):
        # second row is the complement of the first under total mass 1
        p = simplex_lp(((1, 0), (0, 1)), (F(1, 3), F(2, 3)), (F(1, 3), F(2, 3)))
        out = lp_solve(p)
        assert out.witness == (F(1, 3), F(2, 3))

    def test_zero_width_intervals_everywhere(self):
        p = simplex_lp(
            ((1, 1, 0), (0, 1, 1)), (F(1, 2), F(3, 4)), (F(1, 2), F(3, 4))
        )
        out = lp_solve(p)
        x = out.witness
        assert x[0] + x[1] == F(1, 2) and x[1] + x[2] == F(3, 4)

    def test_many_random_instances_terminate(self):
        rng = random.Random(23)
        for _ in range(150):
            nd = rng.randint(1, 6)
            m = rng.randint(1, 3)
            rows = tuple(
                tuple(F(rng.randint(0, 2), rng.choice((1, 2))) for _ in range(nd))
                for _ in range(m)
            )
            lower, upper = [], []
            for _ in range(m):
                a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                lower.append(a)
                upper.append(b)
            out = lp_solve(simplex_lp(rows, lower, upper))
            assert out.status in (OPTIMAL, INFEASIBLE)
            if out.status == OPTIMAL:
                x = out.witness
                assert sum(x) == 1 and all(v >= 0 for v in x)
                for row, lo, hi in zip(rows, lower, upper):
                    val = sum(c * v for c, v in zip(row, x))
                    assert lo <= val <= hi


class TestWitnessSupport:
    def test_support_is_at_most_rows_plus_one(self):
        rng = random.Random(41)
        for _ in range(100):
            nd = rng.randint(2, 16)
            m = rng.randint(1, 3)
            rows = tuple(
                tuple(F(rng.randint(0, 1)) for _ in range(nd)) for _ in range(m)
            )
            lower, upper = [], []
            for _ in range(m):
                a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                lower.append(a)
                upper.append(b)
            out = lp_solve(simplex_lp(rows, lower, upper))
            if out.status == OPTIMAL:
                support = sum(1 for v in out.witness if v > 0)
                assert support <= m + 1


class TestDeterminism:
    def test_repeat_solves_are_identical(self):
        rng = random.Random(7)
        problems = []
        for _ in range(25):
            nd = rng.randint(1, 8)
            rows = (tuple(F(rng.randint(0, 1)) for _ in range(nd)),)
            a, b = sorted(random_unit_fraction(rng) for _ in range(2))
            problems.append(simplex_lp(rows, (a,), (b,)))
        first = [lp_solve(p) for p in problems]
        second = [lp_solve(p) for p in problems]
        assert first == second


class TestWithoutTotalMassRow:
    def test_unbounded_without_simplex_row(self):
        p = LpProblem(
            num_vars=1,
            objective=(-1,),
            rows=(),
            row_lower=(),
            row_upper=(),
            simplex_constraint=False,
        )
        with pytest.raises(UnboundedError):
            lp_solve(p)

    def test_bounded_without_simplex_row(self):
        p = LpProblem(
            num_vars=2,
            objective=(1, 1),
            rows=((1, 1),),
            row_lower=(F(1, 2),),
            row_upper=(2,),
            simplex_constraint=False,
        )
        out = lp_solve(p)
        assert out.value == F(1, 2)


class TestFeasibleHelper:
    def test_returns_zero_objective_outcome(self):
        p = simplex_lp(((0, 1),), (F(7, 10),), (F(7, 10),), objective=(5, 5))
        out = lp_feasible(p)
        assert out.status == OPTIMAL
        assert out.value == 0


def with_copies(problem, picks):
    """The same LP with copies of the columns in picks appended after the rest."""
    return LpProblem(
        problem.num_vars + len(picks),
        problem.objective + tuple(problem.objective[j] for j in picks),
        tuple(row + tuple(row[j] for j in picks) for row in problem.rows),
        problem.row_lower,
        problem.row_upper,
        problem.simplex_constraint,
    )


def solve_or_unbounded(problem):
    try:
        return lp_solve(problem)
    except UnboundedError:
        return None


def random_lp(rng, simplex_constraint):
    nd = rng.randint(1, 7)
    m = rng.randint(1, 3)
    entries = (F(0), F(1, 2), F(1), F(3, 2))
    rows = tuple(tuple(rng.choice(entries) for _ in range(nd)) for _ in range(m))
    lower, upper = [], []
    for _ in range(m):
        a, b = sorted(random_unit_fraction(rng) for _ in range(2))
        if rng.random() < 0.4:
            b = a
        lower.append(a)
        upper.append(b)
    objective = tuple(F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(nd))
    return LpProblem(nd, objective, rows, tuple(lower), tuple(upper), simplex_constraint)


class TestDuplicateColumns:
    """Appended copies of existing columns never enter under Bland's rule."""

    def test_copies_change_nothing_and_stay_at_zero(self):
        rng = random.Random(31)
        statuses = set()
        for trial in range(240):
            problem = random_lp(rng, simplex_constraint=trial % 4 != 0)
            picks = [rng.randrange(problem.num_vars) for _ in range(rng.randint(1, 6))]
            base = solve_or_unbounded(problem)
            copied = solve_or_unbounded(with_copies(problem, picks))
            if base is None:
                statuses.add("unbounded")
                assert copied is None
                continue
            statuses.add((base.status, problem.simplex_constraint))
            assert copied.status == base.status
            assert copied.value == base.value
            if base.is_optimal:
                assert copied.witness[: problem.num_vars] == base.witness
                assert copied.witness[problem.num_vars :] == (0,) * len(picks)
        assert statuses >= {(OPTIMAL, True), (INFEASIBLE, True), (OPTIMAL, False)}

    def test_equal_rows_with_different_costs_do_not_merge(self):
        p = simplex_lp(((1, 1),), (1,), (1,), objective=(1, 0))
        out = lp_solve(p)
        assert out.witness == (0, 1)
        assert out.value == 0


class TestColumnClasses:
    """lp_solve pivots over one representative column per class."""

    @staticmethod
    def expected_widths(problem, classes, optimal):
        intervals = sum(1 for lo, hi in zip(problem.row_lower, problem.row_upper) if lo != hi)
        expanded = 1 + len(problem.rows) + intervals
        phase2 = classes + 2 * intervals
        return [phase2 + expanded, phase2] if optimal else [phase2 + expanded]

    @pytest.mark.parametrize(
        "goal, classes",
        ((None, 3), (Clause.from_dimacs((3,)), 6)),
    )
    def test_tableau_width_counts_classes(self, tableau_widths, goal, classes):
        # Over (X1, X2) the clause values of X1 and -X1 v X2 take three
        # patterns, and X3 is unmentioned: 8 columns, 3 classes. A goal on X3
        # splits each class in two.
        form = ConjunctiveForm.from_dimacs(3, ((1,), (-1, 2)))
        target = ClauseProbabilityTarget(((F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))))
        problem = clause_problem(form, target, goal=goal)
        out = lp_solve(problem)
        assert tableau_widths == self.expected_widths(problem, classes, out.is_optimal)
        assert out.is_optimal

    def test_seeded_clause_lps(self, tableau_widths):
        rng = random.Random(5)
        seen = set()
        for _ in range(40):
            n, k = rng.choice(((3, 2), (4, 2), (5, 2), (3, 3)))
            form = random_form(rng, n, rng.randint(1, 4), width=2)
            bounds = []
            for _ in range(form.m):
                a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                bounds.append((a, a) if rng.random() < 0.3 else (a, b))
            problem = clause_problem(form, ClauseProbabilityTarget(tuple(bounds)), k)
            classes = len(set(zip(*problem.rows)))
            tableau_widths.clear()
            out = lp_solve(problem)
            assert tableau_widths == self.expected_widths(problem, classes, out.is_optimal)
            seen.add((out.is_optimal, classes < problem.num_vars))
        assert seen >= {(True, True), (False, True)}


def pivot_path_corpus():
    """Seeded LPs whose pivot path is pinned: random, clause and bias LPs."""
    rng = random.Random(2)
    entries = (F(-1), F(0), F(1, 2), F(1), F(3, 2))
    problems = []
    for trial in range(240):
        nd = rng.randint(1, 6)
        m = rng.randint(1, 3)
        rows = [tuple(rng.choice(entries) for _ in range(nd)) for _ in range(m)]
        lower, upper = [], []
        for _ in range(m):
            a, b = sorted(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2))
            lower.append(a)
            upper.append(a if rng.random() < 0.4 else b)
        if trial % 3 == 0:
            rows.append(rows[0])
            lower.append(lower[0])
            upper.append(upper[0])
        objective = tuple(F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(nd))
        problems.append(
            LpProblem(nd, objective, tuple(rows), tuple(lower), tuple(upper), trial % 4 != 0)
        )
    for _ in range(20):
        n, k = rng.choice(((3, 2), (4, 2), (2, 3)))
        form = random_form(rng, n, rng.randint(1, 3), width=2)
        bounds = []
        for _ in range(form.m):
            a, b = sorted(random_unit_fraction(rng) for _ in range(2))
            bounds.append((a, a) if rng.random() < 0.3 else (a, b))
        goal = random_form(rng, n, 1, width=2).clauses[0]
        problem = clause_problem(form, ClauseProbabilityTarget(tuple(bounds)), k, goal=goal)
        problems += [problem, problem.with_objective(tuple(-c for c in problem.objective))]
    for _ in range(20):
        n = rng.randint(1, 3)
        z = bias_matrix(n)
        target = tuple(2 * random_unit_fraction(rng, 4) - 1 for _ in range(n))
        problems.append(LpProblem(z.cols, (0,) * z.cols, z.to_rows(), target, target))
    return problems


class TestPivotPath:
    """The status, witness, value and every (row, column) pivot of a seeded corpus."""

    DIGEST = "f802087e1af88510fc626faafc72754d4e7139e15e46880243bef4cb7ce8cd0c"

    def test_corpus_path_is_pinned(self, monkeypatch):
        pivots, runs = [], []
        pivot, run_bland = rational_lp._pivot, rational_lp._run_bland

        def recording_pivot(*args):
            pivots.append(args[-2:])
            return pivot(*args)

        def recording_bland(*args):
            start = len(pivots)
            result = run_bland(*args)
            runs.append((len(args[0]), start, len(pivots)))
            return result

        monkeypatch.setattr(rational_lp, "_pivot", recording_pivot)
        monkeypatch.setattr(rational_lp, "_run_bland", recording_bland)
        digest = hashlib.sha256()
        reached = set()
        for problem in pivot_path_corpus():
            pivots.clear()
            runs.clear()
            try:
                out = lp_solve(problem)
            except UnboundedError:
                record = ("unbounded",)
            else:
                record = (out.status, out.witness, out.value)
                if out.is_optimal and min(problem.row_lower) < 0:
                    reached.add("negative right-hand side")
            digest.update(repr((record, pivots)).encode())
            reached.add(record[0])
            if len(runs) == 2:
                (rows1, _, end1), (rows2, start2, _) = runs
                if start2 > end1:
                    reached.add("drive-out pivot")
                if rows2 < rows1:
                    reached.add("dropped row")
        assert reached >= {
            OPTIMAL,
            INFEASIBLE,
            "unbounded",
            "drive-out pivot",
            "dropped row",
            "negative right-hand side",
        }
        assert digest.hexdigest() == self.DIGEST
