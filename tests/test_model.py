import random
from fractions import Fraction as F

import pytest

from psatkit import (
    Clause,
    ConjunctiveForm,
    Distribution,
    Interval,
    Literal,
    ProbabilisticAssignment,
    SizeGuardError,
    determinize,
    enumerate_assignments,
    eval_clause,
    eval_form,
    eval_literal,
)
from psatkit.model import index_digits
from conftest import random_form


class TestTruthValue:
    """A truth value is a Fraction on the scale kappa/(k-1)."""

    def test_classical_values(self):
        assert enumerate_assignments(1) == [(0,), (1,)]
        assert all(type(v) is F for (v,) in enumerate_assignments(1))
        assert [v == 1 for (v,) in enumerate_assignments(1)] == [False, True]

    def test_three_valued_scale(self):
        assert enumerate_assignments(1, 3) == [(0,), (F(1, 2),), (1,)]
        assert [v == 1 for (v,) in enumerate_assignments(1, 3)] == [False, False, True]

    def test_negation_flips_the_scale(self):
        for k in (2, 3, 4, 5):
            for d in range(k):
                got = eval_literal(Literal(0, True), (F(d, k - 1),))
                assert got == F(k - 1 - d, k - 1)

    def test_double_negation(self):
        # a negated literal at the mirrored value gives the value back
        for k in (2, 3, 4, 5):
            for (v,) in enumerate_assignments(1, k):
                assert eval_literal(Literal(0, True), (1 - v,)) == v


class TestAssignment:
    """An assignment is the tuple of its n truth values, X_0's first."""

    def test_low_variable_is_fastest_digit(self):
        assignments = enumerate_assignments(3)
        assert assignments[1] == (1, 0, 0)
        assert assignments[6] == (0, 1, 1)

    def test_base_k_digits(self):
        assert enumerate_assignments(2, 3)[5] == (1, F(1, 2))


class TestEnumeration:
    def test_order_is_canonical(self):
        assert enumerate_assignments(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_three_valued_order(self):
        half = F(1, 2)
        assert enumerate_assignments(2, 3)[:4] == [(0, 0), (half, 0), (1, 0), (0, half)]

    def test_count(self):
        assert len(list(enumerate_assignments(3, 3))) == 27

    def test_guard(self):
        with pytest.raises(SizeGuardError) as info:
            list(enumerate_assignments(20, 2, max_columns=4096))
        assert info.value.count == 2**20

    def test_digits_are_x0_first(self):
        assert index_digits(5, 4, 2) == (1, 0, 1, 0)
        assert index_digits(7, 2, 3) == (1, 2)
        for j, a in enumerate(enumerate_assignments(3, 3)):
            assert tuple(2 * v for v in a) == index_digits(j, 3, 3)


class TestLiteralsAndClauses:
    def test_dimacs_round_trip(self):
        lit = Literal.from_dimacs(-3)
        assert lit.variable == 2 and lit.negated
        assert lit.to_dimacs() == -3
        assert Literal.from_dimacs(1) == Literal(0)

    def test_zero_code_rejected(self):
        with pytest.raises(ValueError):
            Literal.from_dimacs(0)

    def test_clause_dedups_repeated_literals(self):
        c = Clause.from_dimacs((1, -2, 1))
        assert c.to_dimacs() == (1, -2)

    def test_clause_keeps_complementary_pair(self):
        c = Clause.from_dimacs((1, -1))
        assert c.to_dimacs() == (1, -1)

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            Clause(())

    def test_form_checks_variable_range(self):
        with pytest.raises(ValueError):
            ConjunctiveForm.from_dimacs(1, ((1, 2),))

    def test_form_requires_a_clause(self):
        with pytest.raises(ValueError):
            ConjunctiveForm(2, ())

    def test_m_property(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
        assert form.m == 2 and form.n == 2


class TestEvaluation:
    def test_literal_value(self):
        a = enumerate_assignments(2)[1]
        assert eval_literal(Literal(0), a) == 1
        assert eval_literal(Literal(0, True), a) == 0
        assert eval_literal(Literal(1), a) == 0

    def test_clause_takes_the_max(self):
        a = enumerate_assignments(2, 3)[1]
        c = Clause.from_dimacs((1, 2))
        assert eval_clause(c, a) == F(1, 2)
        c = Clause.from_dimacs((-1, 2))
        assert eval_clause(c, a) == F(1, 2)
        c = Clause.from_dimacs((-1, -2))
        assert eval_clause(c, a) == 1

    def test_form_values(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
        a = enumerate_assignments(2)[3]
        assert eval_form(form, a) == (1, 1)

    def test_variable_outside_assignment_rejected(self):
        a = enumerate_assignments(1)[0]
        with pytest.raises(ValueError):
            eval_literal(Literal(1), a)

    def test_matches_boolean_semantics_exhaustively(self):
        # brute force: every clause of width <= 3 on up to 4 variables,
        # against an independent bool evaluator
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 4))
            for a in enumerate_assignments(n):
                bits = [v == 1 for v in a]
                for clause in form.clauses:
                    want = any(
                        (not bits[l.variable]) if l.negated else bits[l.variable]
                        for l in clause.literals
                    )
                    assert (eval_clause(clause, a) == 1) == want


class TestDeterminize:
    def test_rounds_toward_one_at_half(self):
        assert determinize((F(1, 2), F(1, 4), F(3, 4))) == (1, 0, 1)

    def test_endpoints(self):
        assert determinize((0, 1)) == (0, 1)

    def test_strict_threshold(self):
        assert determinize((F(49, 100), F(51, 100))) == (0, 1)

    def test_half_pair(self):
        assert determinize((F(1, 2), F(1, 2))) == (1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            determinize((F(3, 2),))


class TestProbabilisticAssignment:
    def test_coerces_to_fractions(self):
        x = ProbabilisticAssignment(2, (1, F(1, 2)))
        assert x.values == (F(1), F(1, 2))
        assert all(isinstance(v, F) for v in x.values)
        y = ProbabilisticAssignment(2, ("1/3", 0))
        assert y.values == (F(1, 3), 0)
        assert all(type(v) is F for v in y.values)

    def test_rejects_bad_lengths_and_values(self):
        with pytest.raises(ValueError):
            ProbabilisticAssignment(2, (F(1, 2),))
        with pytest.raises(ValueError):
            ProbabilisticAssignment(1, (F(3, 2),))


class TestDistribution:
    def test_point_mass(self):
        u = Distribution.point_mass(2, 2, 3)
        assert u.weights == (0, 0, 0, 1)
        assert u.support() == ((3, F(1)),)

    def test_point_mass_guard(self):
        with pytest.raises(SizeGuardError):
            Distribution.point_mass(17, 2, 0)

    def test_support_is_sorted_and_sparse(self):
        u = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        assert u.support() == ((0, F(1, 2)), (3, F(1, 2)))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(1, 2, (F(1, 2), F(1, 4)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Distribution(1, 2, (F(3, 2), F(-1, 2)))

    def test_length_must_match_space(self):
        with pytest.raises(ValueError):
            Distribution(2, 2, (1, 0, 0))

    def test_int_and_string_weights_become_fractions(self):
        u = Distribution(1, 2, ("1/4", "3/4"))
        assert u.weights == (F(1, 4), F(3, 4))
        v = Distribution(1, 2, (0, 1))
        assert all(type(w) is F for w in u.weights + v.weights)


class TestInterval:
    def test_contains(self):
        iv = Interval(F(1, 2), F(4, 5))
        assert F(1, 2) in iv and F(3, 4) in iv and F(4, 5) in iv
        assert F(1, 4) not in iv

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_degenerate(self):
        iv = Interval(F(1, 3), F(1, 3))
        assert F(1, 3) in iv

    def test_int_and_string_ends_become_fractions(self):
        iv = Interval(0, "2/3")
        assert (iv.lo, iv.hi) == (0, F(2, 3))
        assert type(iv.lo) is F and type(iv.hi) is F
        assert "1/2" in iv and 1 not in iv
