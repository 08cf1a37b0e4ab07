import random
from fractions import Fraction as F

import pytest

from psatkit import (
    Assignment,
    Clause,
    ConjunctiveForm,
    Distribution,
    Interval,
    Literal,
    ProbabilisticAssignment,
    SizeGuardError,
    TruthValue,
    determinize,
    enumerate_assignments,
    eval_clause,
    eval_form,
    eval_literal,
)
from psatkit.model import index_digits
from conftest import random_form


class TestTruthValue:
    def test_classical_values(self):
        assert TruthValue(0, 2).value == 0
        assert TruthValue(1, 2).value == 1
        assert TruthValue(1, 2).is_true
        assert not TruthValue(0, 2).is_true

    def test_three_valued_scale(self):
        assert TruthValue(0, 3).value == 0
        assert TruthValue(1, 3).value == F(1, 2)
        assert TruthValue(2, 3).value == 1
        assert not TruthValue(1, 3).is_true

    def test_negation_flips_the_scale(self):
        assert TruthValue(0, 2).negated() == TruthValue(1, 2)
        assert TruthValue(1, 3).negated() == TruthValue(1, 3)
        assert TruthValue(2, 5).negated() == TruthValue(2, 5)
        assert TruthValue(0, 5).negated() == TruthValue(4, 5)

    def test_double_negation(self):
        for k in (2, 3, 4, 5):
            for kappa in range(k):
                tv = TruthValue(kappa, k)
                assert tv.negated().negated() == tv

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TruthValue(2, 2)
        with pytest.raises(ValueError):
            TruthValue(-1, 2)
        with pytest.raises(ValueError):
            TruthValue(0, 1)


class TestAssignment:
    def test_low_variable_is_fastest_digit(self):
        a = Assignment.from_index(3, 2, 1)
        assert tuple(d.kappa for d in a.digits) == (1, 0, 0)
        a = Assignment.from_index(3, 2, 6)
        assert tuple(d.kappa for d in a.digits) == (0, 1, 1)

    def test_base_k_digits(self):
        a = Assignment.from_index(2, 3, 5)
        assert tuple(d.kappa for d in a.digits) == (2, 1)
        assert a.digit_values() == (1, F(1, 2))

    def test_weight_counts_nonzero_digits(self):
        assert Assignment.from_index(3, 2, 0).weight == 0
        assert Assignment.from_index(3, 2, 7).weight == 3
        assert Assignment.from_index(2, 3, 4).weight == 2

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Assignment.from_index(2, 2, 4)
        with pytest.raises(ValueError):
            Assignment.from_index(2, 2, -1)


class TestEnumeration:
    def test_order_is_canonical(self):
        digits = [tuple(d.kappa for d in a.digits) for a in enumerate_assignments(2)]
        assert digits == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_three_valued_order(self):
        digits = [tuple(d.kappa for d in a.digits) for a in enumerate_assignments(1, 3)]
        assert digits == [(0,), (1,), (2,)]

    def test_count(self):
        assert len(list(enumerate_assignments(3, 3))) == 27

    def test_guard(self):
        with pytest.raises(SizeGuardError) as info:
            list(enumerate_assignments(20, 2, max_columns=4096))
        assert info.value.count == 2**20

    def test_digits_are_x0_first(self):
        assert index_digits(5, 4, 2) == (1, 0, 1, 0)
        assert index_digits(7, 2, 3) == (1, 2)
        for a in enumerate_assignments(3, 3):
            assert tuple(d.kappa for d in a.digits) == index_digits(a.index, 3, 3)


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
        a = Assignment.from_index(2, 2, 1)
        assert eval_literal(Literal(0), a).value == 1
        assert eval_literal(Literal(0, True), a).value == 0
        assert eval_literal(Literal(1), a).value == 0

    def test_clause_takes_the_max(self):
        a = Assignment.from_index(2, 3, 1)
        c = Clause.from_dimacs((1, 2))
        assert eval_clause(c, a) == TruthValue(1, 3)
        c = Clause.from_dimacs((-1, 2))
        assert eval_clause(c, a) == TruthValue(1, 3)

    def test_form_values(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
        a = Assignment.from_index(2, 2, 3)
        assert [v.value for v in eval_form(form, a)] == [1, 1]

    def test_variable_outside_assignment_rejected(self):
        a = Assignment.from_index(1, 2, 0)
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
                bits = [d.kappa == 1 for d in a.digits]
                for clause in form.clauses:
                    want = any(
                        (not bits[l.variable]) if l.negated else bits[l.variable]
                        for l in clause.literals
                    )
                    assert eval_clause(clause, a).is_true == want


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
