import random
from fractions import Fraction as F

import pytest

from psatkit import linalg, matrices, problems, rational_lp
from psatkit import (
    Clause,
    ClauseProbabilityTarget,
    ConjunctiveForm,
    Distribution,
    InfeasibleError,
    Interval,
    Literal,
    ProbabilisticAssignment,
    PsatInstance,
    RationalMatrix,
    SizeGuardError,
    assignment_matrix,
    clause_value_matrix,
    coherence,
    coherence_product_witness,
    coherence_via_bias,
    entail,
    expected_bias,
    fiber_contains,
    fiber_translate,
    kernel_basis_matrix,
    kernel_column_sums,
    kernel_containment,
    lp_feasible,
    lp_solve,
    opt_psat,
    psat,
    psat_feasible_set_dim,
    sat_via_psat,
)
from psatkit.problems import clause_problem
from psatkit.oracle import exhaustive_sat
from conftest import random_form, random_unit_fraction

NILSSON = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
NILSSON_TARGET = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5)))
CONTRADICTION = ConjunctiveForm.from_dimacs(1, ((1,), (-1,)))


class TestTarget:
    def test_exact(self):
        t = ClauseProbabilityTarget.exact((F(1, 2), 1))
        assert t.lower == t.upper == (F(1, 2), 1)
        assert t.is_exact()

    def test_certain(self):
        t = ClauseProbabilityTarget.certain(3)
        assert t.lower == (1, 1, 1) and t.upper == (1, 1, 1)

    def test_interval_target(self):
        t = ClauseProbabilityTarget(((F(1, 4), F(3, 4)),))
        assert not t.is_exact()

    def test_int_and_string_bounds_become_fractions(self):
        t = ClauseProbabilityTarget(((0, "1/2"), ("1/3", 1)))
        assert t.bounds == ((0, F(1, 2)), (F(1, 3), 1))
        e = ClauseProbabilityTarget.exact(("2/5", 1))
        assert e.bounds == ((F(2, 5), F(2, 5)), (1, 1))
        for target in (t, e):
            assert all(type(v) is F for v in target.lower + target.upper)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClauseProbabilityTarget(())
        with pytest.raises(ValueError):
            ClauseProbabilityTarget(((F(3, 4), F(1, 4)),))
        with pytest.raises(ValueError):
            ClauseProbabilityTarget(((F(1, 2), 2),))


class TestInstance:
    def test_defaults_to_certainty(self):
        inst = PsatInstance(NILSSON)
        assert inst.target.lower == (1, 1)

    def test_bound_count_checked(self):
        with pytest.raises(ValueError):
            PsatInstance(NILSSON, 2, ClauseProbabilityTarget.certain(3))


class TestClauseTruthVector:
    def test_goal_column_values(self):
        goal = Clause.from_dimacs((2,))
        assert clause_value_matrix(ConjunctiveForm(2, (goal,))).entries == (0, 0, 1, 1)

    def test_three_valued(self):
        goal = Clause.from_dimacs((-1,))
        assert clause_value_matrix(ConjunctiveForm(1, (goal,)), 3).entries == (1, F(1, 2), 0)

    def test_variable_range(self):
        with pytest.raises(ValueError):
            clause_value_matrix(ConjunctiveForm(2, (Clause.from_dimacs((3,)),)))


class TestCoherence:
    def test_realizable_vector(self):
        x = ProbabilisticAssignment(2, (F(3, 10), F(3, 5)))
        ok, u = coherence(x)
        assert ok
        assert assignment_matrix(2).mul_vec(u.weights) == x.values

    def test_every_unit_box_point_is_coherent(self):
        # a product of per-variable {0, 1} mixtures realizes x for every k,
        # so the LP must find a witness on every scale
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.choice((2, 3, 4))
            x = ProbabilisticAssignment(
                n, tuple(random_unit_fraction(rng) for _ in range(n))
            )
            ok, u = coherence(x, k)
            assert ok, (x, k)
            assert u.k == k
            assert assignment_matrix(n, k).mul_vec(u.weights) == x.values

    def test_totality_holds_up_to_eight_variables(self):
        rng = random.Random(73)
        for n in (7, 8):
            x = ProbabilisticAssignment(
                n, tuple(random_unit_fraction(rng) for _ in range(n))
            )
            ok, u = coherence(x)
            assert ok
            assert assignment_matrix(n).mul_vec(u.weights) == x.values
            prod = coherence_product_witness(x)
            assert assignment_matrix(n).mul_vec(prod.weights) == x.values

    def test_vertex_point_mass(self):
        x = ProbabilisticAssignment(2, (1, 0))
        u = coherence_product_witness(x)
        assert u.support() == ((1, F(1)),)

    def test_product_witness(self):
        x = ProbabilisticAssignment(2, (F(3, 10), F(3, 5)))
        u = coherence_product_witness(x)
        assert u.weights == (F(28, 100), F(12, 100), F(42, 100), F(18, 100))
        assert assignment_matrix(2).mul_vec(u.weights) == x.values

    def test_product_witness_random(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 5)
            x = ProbabilisticAssignment(
                n, tuple(random_unit_fraction(rng) for _ in range(n))
            )
            u = coherence_product_witness(x)
            assert assignment_matrix(n).mul_vec(u.weights) == x.values

    def test_product_witness_guard(self):
        x = ProbabilisticAssignment(17, (F(1, 2),) * 17)
        with pytest.raises(SizeGuardError):
            coherence_product_witness(x)

    def test_bias_route_agrees(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(1, 4)
            x = ProbabilisticAssignment(
                n, tuple(random_unit_fraction(rng) for _ in range(n))
            )
            ok, u = coherence_via_bias(x)
            assert ok
            assert expected_bias(u) == tuple(2 * v - 1 for v in x.values)

    def test_three_valued_coherence(self):
        x = ProbabilisticAssignment(1, (F(1, 2),))
        ok, u = coherence(x, 3)
        assert ok
        assert assignment_matrix(1, 3).mul_vec(u.weights) == (F(1, 2),)


class TestPsat:
    def test_nilsson_feasible_with_valid_witness(self):
        ok, u = psat(NILSSON, NILSSON_TARGET)
        assert ok
        v = clause_value_matrix(NILSSON)
        assert v.mul_vec(u.weights) == (F(7, 10), F(4, 5))

    def test_interval_target(self):
        target = ClauseProbabilityTarget(((F(1, 2), 1), (F(3, 5), F(9, 10))))
        ok, u = psat(NILSSON, target)
        assert ok
        vals = clause_value_matrix(NILSSON).mul_vec(u.weights)
        assert F(1, 2) <= vals[0] <= 1 and F(3, 5) <= vals[1] <= F(9, 10)

    def test_contradiction_with_high_bounds(self):
        target = ClauseProbabilityTarget(((F(3, 4), 1), (F(3, 4), 1)))
        ok, u = psat(CONTRADICTION, target)
        assert not ok and u is None

    def test_contradiction_at_half_and_half(self):
        # complementary units can each hold with expectation one half
        target = ClauseProbabilityTarget.exact((F(1, 2), F(1, 2)))
        ok, u = psat(CONTRADICTION, target)
        assert ok
        assert clause_value_matrix(CONTRADICTION).mul_vec(u.weights) == (
            F(1, 2),
            F(1, 2),
        )

    def test_three_valued_midpoint(self):
        target = ClauseProbabilityTarget.exact((F(1, 2), F(1, 2)))
        ok, u = psat(CONTRADICTION, target, 3)
        assert ok
        vals = clause_value_matrix(CONTRADICTION, 3).mul_vec(u.weights)
        assert vals == (F(1, 2), F(1, 2))

    def test_classical_contradiction_witness_is_forced(self):
        # n=1: the two clause expectations pin u completely
        target = ClauseProbabilityTarget.exact((F(1, 2), F(1, 2)))
        ok, u = psat(CONTRADICTION, target)
        assert ok
        assert u.weights == (F(1, 2), F(1, 2))

    def test_mutual_implications_at_certainty(self):
        form = ConjunctiveForm.from_dimacs(2, ((1, -2), (-1, 2)))
        ok, u = psat(form, ClauseProbabilityTarget.certain(2))
        assert ok
        assert clause_value_matrix(form).mul_vec(u.weights) == (1, 1)

    def test_support_lies_on_satisfying_columns_at_certainty(self):
        # a clause expectation of exactly 1 confines the support to the
        # columns where that clause holds
        rng = random.Random(59)
        tried = 0
        while tried < 25:
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 4))
            ok, u = psat(form, ClauseProbabilityTarget.certain(form.m))
            if not ok:
                continue
            tried += 1
            v = clause_value_matrix(form)
            for i in range(v.rows):
                for j, _ in u.support():
                    assert v.entry(i, j) == 1

    def test_partial_certainty_confines_only_that_row(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (2,)))
        target = ClauseProbabilityTarget(((1, 1), (F(1, 4), F(3, 4))))
        ok, u = psat(form, target)
        assert ok
        v = clause_value_matrix(form)
        vals = v.mul_vec(u.weights)
        assert vals[0] == 1
        for j, _ in u.support():
            assert v.entry(0, j) == 1

    def test_loosening_bounds_preserves_feasibility(self):
        rng = random.Random(61)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 3))
            bounds = []
            for _ in range(form.m):
                a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                bounds.append((a, b))
            tight = ClauseProbabilityTarget(tuple(bounds))
            ok, _ = psat(form, tight)
            if not ok:
                continue
            checked += 1
            wider = ClauseProbabilityTarget(
                tuple(
                    (a - min(a, F(rng.randint(0, 2), 10)), b + min(1 - b, F(rng.randint(0, 2), 10)))
                    for a, b in tight.bounds
                )
            )
            ok_wide, _ = psat(form, wider)
            assert ok_wide


class TestSatViaPsat:
    def test_examples(self):
        assert sat_via_psat(NILSSON, 2)
        assert not sat_via_psat(CONTRADICTION, 2)
        assert not sat_via_psat(CONTRADICTION, 3)
        three = ConjunctiveForm.from_dimacs(3, ((1, 2), (-1, 3), (-2, -3)))
        assert sat_via_psat(three, 2)
        assert sat_via_psat(three, 3)

    def test_pairwise_exclusion(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (2,), (-1, -2)))
        assert not sat_via_psat(form, 2)

    def test_matches_enumeration(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 6))
            assert sat_via_psat(form, 2) == exhaustive_sat(form, 2)


class TestEntail:
    def test_nilsson_goal_range(self):
        iv = entail(NILSSON, NILSSON_TARGET, Clause.from_dimacs((2,)))
        assert (iv.lo, iv.hi) == (F(1, 2), F(4, 5))

    def test_extension_property(self):
        # appending the goal with any expectation inside the range keeps
        # the instance feasible
        iv = entail(NILSSON, NILSSON_TARGET, Clause.from_dimacs((2,)))
        extended = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2), (2,)))
        for y in (iv.lo, (iv.lo + iv.hi) / 2, iv.hi):
            target = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5), y))
            ok, _ = psat(extended, target)
            assert ok, y
        below = iv.lo - F(1, 100)
        target = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5), below))
        ok, _ = psat(extended, target)
        assert not ok

    def test_unconstrained_goal(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,),))
        target = ClauseProbabilityTarget(((0, 1),))
        iv = entail(form, target, Clause.from_dimacs((2,)))
        assert (iv.lo, iv.hi) == (0, 1)

    def test_goal_forced_by_premises(self):
        # certain premises force the implied clause
        form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
        iv = entail(form, ClauseProbabilityTarget.certain(2), Clause.from_dimacs((2,)))
        assert (iv.lo, iv.hi) == (1, 1)

    def test_goal_equal_to_premise(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,),))
        target = ClauseProbabilityTarget.exact((1,))
        iv = entail(form, target, Clause.from_dimacs((1,)))
        assert (iv.lo, iv.hi) == (1, 1)

    def test_goal_complement_of_premise(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,),))
        target = ClauseProbabilityTarget.exact((1,))
        iv = entail(form, target, Clause.from_dimacs((-1,)))
        assert (iv.lo, iv.hi) == (0, 0)

    def test_random_extension_points_stay_feasible(self):
        rng = random.Random(67)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            form = random_form(rng, n, rng.randint(1, 3))
            bounds = []
            for _ in range(form.m):
                a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                bounds.append((a, b))
            target = ClauseProbabilityTarget(tuple(bounds))
            from conftest import random_clause

            goal = random_clause(rng, n, 2)
            try:
                iv = entail(form, target, goal)
            except InfeasibleError:
                continue
            checked += 1
            extended = ConjunctiveForm(n, form.clauses + (goal,))
            probes = {iv.lo, iv.hi}
            if iv.lo < iv.hi:
                span = iv.hi - iv.lo
                probes.add(iv.lo + span * F(rng.randint(1, 9), 10))
            for y in probes:
                ext = ClauseProbabilityTarget(tuple(bounds) + ((y, y),))
                ok, _ = psat(extended, ext)
                assert ok, (form, target, goal, y)

    def test_infeasible_premises_raise(self):
        target = ClauseProbabilityTarget.exact((1, 1))
        with pytest.raises(InfeasibleError):
            entail(CONTRADICTION, target, Clause.from_dimacs((1,)))

    def test_three_valued_goal(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,),))
        target = ClauseProbabilityTarget.exact((F(1, 2),))
        iv = entail(form, target, Clause.from_dimacs((-1,)), 3)
        assert (iv.lo, iv.hi) == (F(1, 2), F(1, 2))

    def test_goal_range_checked(self):
        with pytest.raises(ValueError, match="goal mentions X_2"):
            entail(NILSSON, NILSSON_TARGET, Clause.from_dimacs((3,)))


def test_a_goal_clause_builds_v_once(monkeypatch):
    # V of the clauses and the goal row come from one clause_value_matrix call.
    calls = []

    def counting(*args):
        calls.append(args)
        return clause_value_matrix(*args)

    monkeypatch.setattr(problems, "clause_value_matrix", counting)
    goal = Clause.from_dimacs((2,))
    assert entail(NILSSON, NILSSON_TARGET, goal) == Interval(F(1, 2), F(4, 5))
    assert len(calls) == 1
    assert opt_psat(NILSSON, NILSSON_TARGET, goal).value == F(1, 2)
    assert len(calls) == 2


class TestOptPsat:
    def test_clause_objective(self):
        out = opt_psat(NILSSON, NILSSON_TARGET, Clause.from_dimacs((2,)))
        assert out.is_optimal and out.value == F(1, 2)

    def test_vector_objective(self):
        out = opt_psat(NILSSON, NILSSON_TARGET, (0, 0, 1, 1))
        assert out.value == F(1, 2)

    def test_zero_objective(self):
        out = opt_psat(NILSSON, NILSSON_TARGET, (0, 0, 0, 0))
        assert out.is_optimal and out.value == 0

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            opt_psat(NILSSON, NILSSON_TARGET, (0, 0, 1))

    def test_unconstrained_goal_can_reach_zero(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,),))
        target = ClauseProbabilityTarget.exact((1,))
        out = opt_psat(form, target, Clause.from_dimacs((2,)))
        assert out.is_optimal and out.value == 0

    def test_infeasible(self):
        target = ClauseProbabilityTarget.exact((1, 1))
        out = opt_psat(CONTRADICTION, target, Clause.from_dimacs((1,)))
        assert not out.is_optimal


class TestFiber:
    def test_mass_breaking_move_rejected(self):
        uniform = Distribution(2, 2, (F(1, 4),) * 4)
        assert not fiber_contains(uniform, (0, F(1, 4)))

    def test_nonnegativity_breaking_move_rejected(self):
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        assert not fiber_contains(u0, (-2, 0))

    def test_valid_move_to_uniform(self):
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        w = (-F(1, 4), -F(1, 4))
        assert fiber_contains(u0, w)
        moved = fiber_translate(u0, w)
        assert moved.weights == (F(1, 4),) * 4

    def test_zero_move_is_identity(self):
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        assert fiber_contains(u0, (0, 0))
        assert fiber_translate(u0, (0, 0)).weights == u0.weights

    def test_translate_preserves_expectations(self):
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        moved = fiber_translate(u0, (-F(1, 8), -F(1, 8)))
        w = assignment_matrix(2)
        assert w.mul_vec(moved.weights) == w.mul_vec(u0.weights)

    def test_invalid_translate_raises(self):
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        with pytest.raises(ValueError):
            fiber_translate(u0, (0, F(1, 4)))

    def test_three_valued_fiber(self):
        u0 = Distribution(1, 3, (F(1, 3), F(1, 3), F(1, 3)))
        # kernel columns sum to +1/2 and -1/2, so equal coefficients
        # preserve mass
        w = (F(1, 6), F(1, 6))
        assert fiber_contains(u0, w)
        moved = fiber_translate(u0, w)
        wm = assignment_matrix(1, 3)
        assert wm.mul_vec(moved.weights) == wm.mul_vec(u0.weights)

    def test_wrong_length_rejected(self):
        u0 = Distribution(2, 2, (F(1, 4),) * 4)
        with pytest.raises(ValueError):
            fiber_contains(u0, (0, 0, 0))

    def test_matches_the_dense_kernel_product(self):
        rng = random.Random(11)
        kernels = {}
        valid = 0
        for _ in range(200):
            k = rng.choice((2, 3, 4))
            n = rng.randint(1, {2: 8, 3: 5, 4: 4}[k])
            if (n, k) not in kernels:
                kernels[n, k] = kernel_basis_matrix(n, k), kernel_column_sums(n, k)
            kernel, sums = kernels[n, k]
            size = k**n
            raw = [rng.randint(0 if rng.random() < 0.5 else 1, 4) for _ in range(size)]
            raw[rng.randrange(size)] += 1
            u0 = Distribution(n, k, tuple(F(r, sum(raw)) for r in raw))
            w = [F(rng.randint(-3, 3), 32) if rng.random() < 0.3 else F(0) for _ in range(kernel.cols)]
            if rng.random() < 0.8:
                # rebalance one coefficient so the move keeps the total mass
                c = rng.choice([c for c, s in enumerate(sums) if s])
                w[c] -= sum(wc * s for wc, s in zip(w, sums)) / sums[c]
            shift = kernel.mul_vec(w)
            moved = tuple(u + d for u, d in zip(u0.weights, shift))
            ok = sum(shift) == 0 and min(moved) >= 0
            valid += ok
            assert fiber_contains(u0, w) == ok, (n, k)
            if ok:
                assert fiber_translate(u0, w).weights == moved, (n, k)
            else:
                with pytest.raises(ValueError):
                    fiber_translate(u0, w)
        assert 20 <= valid <= 180

    def test_moves_build_no_dense_kernel(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense kernel used")

        monkeypatch.setattr(matrices, "kernel_basis_matrix", dense)
        monkeypatch.setattr(problems, "kernel_basis_matrix", dense)
        monkeypatch.setattr(RationalMatrix, "mul_vec", dense)
        u0 = Distribution(2, 2, (F(1, 2), 0, 0, F(1, 2)))
        assert fiber_translate(u0, (-F(1, 4), -F(1, 4))).weights == (F(1, 4),) * 4
        assert not fiber_contains(u0, (0, F(1, 4)))
        u1 = Distribution(1, 3, (F(1, 3),) * 3)
        assert fiber_contains(u1, (F(1, 6), F(1, 6)))

    def test_zero_move_at_n_14(self):
        weights = (F(1),) + (F(0),) * (2**14 - 1)
        u0 = Distribution(14, 2, weights)
        zero = (0,) * (2**14 - 14)
        assert fiber_contains(u0, zero)
        assert fiber_translate(u0, zero).weights == weights


class TestKernelContainment:
    def test_false_when_zero_assignment_satisfies_a_clause(self):
        assert not kernel_containment(NILSSON)
        negform = ConjunctiveForm.from_dimacs(2, ((-1, 2),))
        assert not kernel_containment(negform)

    def test_true_for_positive_unit(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,),))
        assert kernel_containment(form)

    def test_false_even_without_negated_clause(self):
        # the zero assignment gives both clauses value 0 here, yet the
        # second kernel column still maps to a nonzero vector
        form = ConjunctiveForm.from_dimacs(2, ((1, 2), (1,)))
        assert not kernel_containment(form)

    def test_complementary_units_on_one_variable(self):
        assert not kernel_containment(CONTRADICTION)

    def test_random_forms_with_zero_satisfying_clause(self):
        rng = random.Random(47)
        found = 0
        for _ in range(80):
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 4))
            zero_sat = any(
                all(lit.negated for lit in clause.literals) for clause in form.clauses
            )
            if zero_sat:
                found += 1
                assert not kernel_containment(form)
        assert found > 10

    def test_matches_the_dense_product_on_random_forms(self):
        # literals drawn with replacement, so clauses repeat variables and
        # hold complementary pairs
        rng = random.Random(53)
        answers = []
        for _ in range(300):
            n = rng.randint(1, 5)
            clauses = []
            for _ in range(rng.randint(1, 4)):
                width = rng.randint(1, 3)
                clauses.append(
                    Clause(
                        tuple(
                            Literal(rng.randrange(n), rng.random() < 0.3)
                            for _ in range(width)
                        )
                    )
                )
            form = ConjunctiveForm(n, tuple(clauses))
            dense = clause_value_matrix(form, 2).matmul(kernel_basis_matrix(n, 2))
            answers.append(kernel_containment(form))
            assert answers[-1] == dense.is_zero(), form
        assert answers.count(True) > 20 and answers.count(False) > 20

    def test_guard(self):
        form = ConjunctiveForm.from_dimacs(17, ((17,),))
        with pytest.raises(SizeGuardError):
            kernel_containment(form)


class TestFeasibleSetDim:
    def test_point_set(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,),))
        assert psat_feasible_set_dim(form, ClauseProbabilityTarget.exact((1,))) == 0

    def test_segment(self):
        form = ConjunctiveForm.from_dimacs(2, ((1,),))
        assert psat_feasible_set_dim(form, ClauseProbabilityTarget.exact((1,))) == 1

    def test_interval_bounds_add_dimension(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,),))
        target = ClauseProbabilityTarget(((F(1, 4), F(3, 4)),))
        assert psat_feasible_set_dim(form, target) == 1

    def test_full_simplex_inside_loose_bounds(self):
        form = ConjunctiveForm.from_dimacs(2, ((1, 2),))
        target = ClauseProbabilityTarget(((0, 1),))
        assert psat_feasible_set_dim(form, target) == 3

    def test_empty_set_raises(self):
        with pytest.raises(InfeasibleError):
            psat_feasible_set_dim(
                CONTRADICTION, ClauseProbabilityTarget.exact((1, 1))
            )

    def test_forced_point_from_complementary_halves(self):
        target = ClauseProbabilityTarget.exact((F(1, 2), F(1, 2)))
        assert psat_feasible_set_dim(CONTRADICTION, target) == 0

    def test_tightening_never_increases_dimension(self):
        form = NILSSON
        loose = ClauseProbabilityTarget(((F(1, 2), 1), (F(1, 2), 1)))
        tight = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5)))
        assert psat_feasible_set_dim(form, tight) <= psat_feasible_set_dim(form, loose)

    def test_matches_the_per_assignment_reference(self):
        rng = random.Random(10)
        infeasible = 0
        for _ in range(200):
            k = rng.choice((2, 3, 4))
            n = rng.randint(1, {2: 4, 3: 3, 4: 2}[k])
            m = rng.randint(1, 4)
            form = random_form(rng, n, m)
            kind = rng.choice(("exact", "interval", "unit", "infeasible"))
            if kind == "exact":
                target = ClauseProbabilityTarget.exact(
                    [random_unit_fraction(rng, 4) for _ in range(m)]
                )
            elif kind == "interval":
                target = ClauseProbabilityTarget(
                    tuple(
                        tuple(sorted((random_unit_fraction(rng, 4), random_unit_fraction(rng, 4))))
                        for _ in range(m)
                    )
                )
            elif kind == "unit":
                target = ClauseProbabilityTarget(((0, 1),) * m)
            else:
                target = ClauseProbabilityTarget.exact([rng.choice((0, 1)) for _ in range(m)])
            try:
                expected = per_assignment_dim(form, target, k)
            except InfeasibleError:
                infeasible += 1
                with pytest.raises(InfeasibleError, match="empty witness polytope"):
                    psat_feasible_set_dim(form, target, k)
                continue
            assert psat_feasible_set_dim(form, target, k) == expected, (form, target, k)
        assert 20 <= infeasible <= 180

    @staticmethod
    def count_lp_calls(monkeypatch):
        calls = []

        def counted(problem):
            calls.append(problem.num_vars)
            return lp_solve(problem)

        monkeypatch.setattr(rational_lp, "lp_solve", counted)
        monkeypatch.setattr(problems, "lp_solve", counted)
        return calls

    def test_lp_count_follows_column_classes(self, monkeypatch):
        calls = self.count_lp_calls(monkeypatch)
        form = ConjunctiveForm.from_dimacs(6, ((1, -2), (-1, 2)))
        target = ClauseProbabilityTarget(((F(1, 4), F(3, 4)), (F(1, 2), 1)))
        c = len(set(clause_value_matrix(form).transpose().to_rows()))
        psat_feasible_set_dim(form, target)
        assert len(calls) <= 1 + 2 * form.m + c
        assert set(calls) == {c}

    def test_singleton_classes_take_one_lp_per_mass(self, monkeypatch):
        # 27 distinct columns: feasibility, min and max of 3 rows, max of 27 masses
        calls = self.count_lp_calls(monkeypatch)
        form = ConjunctiveForm.from_dimacs(3, ((1,), (2,), (3,)))
        target = ClauseProbabilityTarget(((0, 1),) * 3)
        assert psat_feasible_set_dim(form, target, 3) == 26
        assert len(calls) == 34


def per_assignment_dim(form, target, k):
    """Test reference: implicit equalities from one LP per clause row and per assignment."""
    base = clause_problem(form, target, k)
    if not lp_feasible(base).is_optimal:
        raise InfeasibleError("empty witness polytope has no dimension")
    cols = base.num_vars
    equalities = [[F(1)] * cols]
    for row in base.rows:
        low = lp_solve(base.with_objective(row)).value
        high = -lp_solve(base.with_objective([-e for e in row])).value
        if low == high:
            equalities.append(row)
    for j in range(cols):
        drive = [F(0)] * cols
        drive[j] = F(-1)
        if -lp_solve(base.with_objective(drive)).value == 0:
            unit = [F(0)] * cols
            unit[j] = F(1)
            equalities.append(unit)
    return cols - linalg.rank(equalities)
