import random
from fractions import Fraction as F
from math import comb

import pytest

from psatkit import (
    Clause,
    ConjunctiveForm,
    Distribution,
    Literal,
    RationalMatrix,
    SizeGuardError,
    assignment_matrix,
    bias_matrix,
    clause_value_matrix,
    enumerate_assignments,
    eval_clause,
    expected_bias,
    kernel_basis_matrix,
    kernel_column_sums,
    kernel_column_sums_formula,
    weight_permutation,
)
from psatkit import linalg, matrices, oracle


class TestRationalMatrix:
    def test_from_rows_and_access(self):
        m = RationalMatrix.from_rows(((1, 2), (3, 4)))
        assert m.entry(0, 1) == 2
        assert m.row(1) == (3, 4)
        assert m.col(0) == (1, 3)
        assert all(isinstance(e, F) for e in m.entries)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows(((1, 2), (3,)))

    def test_transpose(self):
        m = RationalMatrix.from_rows(((1, 2, 3), (4, 5, 6)))
        assert m.transpose().to_rows() == ((1, 4), (2, 5), (3, 6))

    def test_mul_vec(self):
        m = RationalMatrix.from_rows(((1, 2), (0, F(1, 2))))
        assert m.mul_vec((F(1, 2), 2)) == (F(9, 2), 1)
        with pytest.raises(ValueError):
            m.mul_vec((1,))

    def test_matmul(self):
        a = RationalMatrix.from_rows(((1, 0), (1, 1)))
        b = RationalMatrix.from_rows(((2, 3), (4, 5)))
        assert a.matmul(b).to_rows() == ((2, 3), (6, 8))
        with pytest.raises(ValueError):
            b.matmul(RationalMatrix.from_rows(((1, 2, 3),)))

    def test_is_zero(self):
        assert RationalMatrix.from_rows(((0, 0),)).is_zero()
        assert not RationalMatrix.from_rows(((0, 1),)).is_zero()

    def test_int_and_string_entries_become_fractions(self):
        m = RationalMatrix(2, 2, (1, "1/2", F(3, 4), "-2"))
        assert m.entries == (1, F(1, 2), F(3, 4), -2)
        assert all(type(e) is F for e in m.entries)
        assert all(type(e) is F for e in RationalMatrix.from_rows(((1, "2/3"),)).entries)

    def test_products_are_fractions(self):
        a = RationalMatrix.from_rows(((1, 0), (2, 3)))
        b = RationalMatrix.from_rows(((0, 0), (0, 0)))
        for product in (a.matmul(a), a.matmul(b)):
            assert all(type(e) is F for e in product.entries)
        for vec in ((1, 2), (0, 0)):
            assert all(type(v) is F for v in a.mul_vec(vec))


class TestAssignmentMatrix:
    def test_two_variables(self):
        assert assignment_matrix(2).to_rows() == ((0, 1, 0, 1), (0, 0, 1, 1))

    def test_one_variable_three_values(self):
        assert assignment_matrix(1, 3).to_rows() == ((0, F(1, 2), 1),)

    def test_columns_are_assignment_value_vectors(self):
        w = assignment_matrix(3)
        assert w.col(0) == (0, 0, 0)
        assert w.col(5) == (1, 0, 1)
        assert w.col(7) == (1, 1, 1)

    def test_row_sums(self):
        # each variable is 1 in exactly half of the classical assignments
        w = assignment_matrix(4)
        for i in range(4):
            assert sum(w.row(i)) == 8

    def test_columns_are_the_assignment_digit_values(self):
        for k in range(2, 6):
            n = 1
            while k**n <= 1024:
                w = assignment_matrix(n, k, 1024)
                digits = [a.digit_values() for a in enumerate_assignments(n, k, 1024)]
                assert w.to_rows() == tuple(zip(*digits)), (n, k)
                n += 1

    def test_guard(self):
        with pytest.raises(SizeGuardError) as info:
            assignment_matrix(20, 2, max_columns=1024)
        assert info.value.count == 2**20
        assert info.value.limit == 1024


class TestBiasMatrix:
    def test_entries_are_plus_minus_one(self):
        z = bias_matrix(2)
        assert z.to_rows() == ((-1, 1, -1, 1), (-1, -1, 1, 1))

    def test_affine_relation_to_assignment_matrix(self):
        w, z = assignment_matrix(3), bias_matrix(3)
        for i in range(3):
            for j in range(8):
                assert z.entry(i, j) == 2 * w.entry(i, j) - 1

    def test_expected_bias(self):
        u = Distribution(2, 2, (0, F(3, 10), 0, F(7, 10)))
        assert expected_bias(u) == (1, F(2, 5))

    def test_expected_bias_rejects_many_valued(self):
        u = Distribution(1, 3, (1, 0, 0))
        with pytest.raises(ValueError):
            expected_bias(u)


class TestWeightPermutation:
    def test_classical_small(self):
        assert weight_permutation(2) == (0, 1, 2, 3)
        assert weight_permutation(3) == (0, 1, 2, 4, 3, 5, 6, 7)

    def test_weights_never_decrease(self):
        for n, k in ((4, 2), (2, 3), (3, 3), (2, 4)):
            perm = weight_permutation(n, k)
            weights = []
            for p in perm:
                digits = []
                rest = p
                for _ in range(n):
                    digits.append(rest % k)
                    rest //= k
                weights.append(sum(1 for d in digits if d))
            assert weights == sorted(weights), (n, k)

    def test_many_valued_puts_kappa_one_first(self):
        # among weight-1 columns the kappa=1 digits lead, so the block
        # behind the kernel construction starts with value 1/(k-1)
        perm = weight_permutation(2, 3)
        assert perm[0] == 0
        assert set(perm[1:3]) == {1, 3}
        assert set(perm[3:5]) == {2, 6}

    def test_is_a_permutation(self):
        for n, k in ((5, 2), (3, 3)):
            perm = weight_permutation(n, k)
            assert sorted(perm) == list(range(k**n))

    def test_matches_the_docstring_rule_on_assignments(self):
        # weight first; among weight-1 columns the kappa=1 digits lead; then index
        def key(a):
            if a.weight == 1:
                kappa = next(d.kappa for d in a.digits if d.kappa != 0)
                return (1, 0 if kappa == 1 else 1, a.index)
            return (a.weight, 0, a.index)

        for k in (2, 3, 4, 5):
            n = 1
            while k**n <= 4096:
                expected = tuple(a.index for a in sorted(enumerate_assignments(n, k), key=key))
                assert weight_permutation(n, k) == expected, (n, k)
                n += 1


class TestKernelBasis:
    def test_one_variable(self):
        assert kernel_basis_matrix(1).to_rows() == ((1,), (0,))

    def test_two_variables_columns(self):
        k = kernel_basis_matrix(2)
        assert k.col(0) == (1, 0, 0, 0)
        assert k.col(1) == (0, -1, -1, 1)

    def test_one_variable_three_values(self):
        k = kernel_basis_matrix(1, 3)
        assert k.col(0) == (F(1, 2), 0, 0)
        assert k.col(1) == (0, -1, F(1, 2))

    def test_shape(self):
        for n, kk in ((1, 2), (3, 2), (2, 3), (1, 4)):
            m = kernel_basis_matrix(n, kk)
            assert (m.rows, m.cols) == (kk**n, kk**n - n)

    def test_annihilated_by_assignment_matrix(self):
        for n, kk in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 4), (1, 5)):
            w = assignment_matrix(n, kk)
            k = kernel_basis_matrix(n, kk)
            assert w.matmul(k).is_zero(), (n, kk)

    def test_columns_are_independent(self):
        for n, kk in ((2, 2), (3, 2), (2, 3)):
            k = kernel_basis_matrix(n, kk)
            cols = [k.col(j) for j in range(k.cols)]
            assert linalg.rank(cols) == k.cols

    def test_spans_the_whole_kernel(self):
        # rank of W is n, so the kernel has dimension k^n - n exactly
        for n, kk in ((2, 2), (3, 2), (2, 3)):
            w = assignment_matrix(n, kk)
            assert linalg.rank(list(w.to_rows())) == n
            assert kernel_basis_matrix(n, kk).cols == kk**n - n

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            kernel_basis_matrix(13, 2, max_columns=4096)
        # K is dense, so the guard counts its entries: n = 9 has 512 * 503
        with pytest.raises(SizeGuardError) as info:
            kernel_basis_matrix(9)
        assert info.value.what == "entries" and info.value.count == 512 * 503
        assert kernel_basis_matrix(8).cols == 2**8 - 8


class TestKernelColumnSums:
    def test_frozen_small_cases(self):
        assert kernel_column_sums_formula(1) == (1,)
        assert kernel_column_sums_formula(2) == (1, -1)
        assert kernel_column_sums_formula(3) == (1, -1, -1, -1, -2)

    def test_formula_counts_by_weight(self):
        c = kernel_column_sums_formula(5)
        assert len(c) == 2**5 - 5
        assert c[0] == 1
        tail = c[1:]
        at = 0
        for i in range(1, 5):
            block = tail[at : at + comb(5, i + 1)]
            assert all(v == -i for v in block)
            at += len(block)

    def test_formula_matches_actual_sums(self):
        # to n = 12: the digit-sum routine serves the CLI's c at every k
        for n in range(1, 13):
            assert kernel_column_sums_formula(n) == kernel_column_sums(n)

    def test_many_valued_sums(self):
        assert kernel_column_sums(1, 3) == (F(1, 2), -F(1, 2))
        for kk in (2, 3, 4, 5):
            for n in range(1, 5 if kk < 5 else 4):
                k = kernel_basis_matrix(n, kk)
                want = tuple(sum(k.col(j)) for j in range(k.cols))
                assert kernel_column_sums(n, kk) == want, (n, kk)

    def test_sums_do_not_walk_the_kernel_columns(self, monkeypatch):
        cases = [(n, kk) for kk in (3, 4) for n in range(1, 4)]
        want = {}
        for n, kk in cases:
            k = kernel_basis_matrix(n, kk)
            want[n, kk] = tuple(sum(k.col(j)) for j in range(k.cols))

        def refuse(*args):
            raise AssertionError("kernel_column_sums walked the kernel columns")

        monkeypatch.setattr(matrices, "_kernel_columns", refuse)
        for n, kk in cases:
            assert kernel_column_sums(n, kk) == want[n, kk], (n, kk)

    def test_guard_fires_before_any_table_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a Fraction table before the column guard")

        monkeypatch.setattr(matrices, "Fraction", refuse)
        with pytest.raises(SizeGuardError):
            kernel_column_sums(10**6, 3, 8)
        with pytest.raises(SizeGuardError):
            next(matrices._kernel_columns(10**6, 3, 8))


class TestClauseValueMatrix:
    def test_classical_example(self):
        form = ConjunctiveForm.from_dimacs(2, ((1, -2), (-1, 2)))
        v = clause_value_matrix(form)
        assert v.to_rows() == ((1, 1, 0, 1), (1, 0, 1, 1))

    def test_three_valued_example(self):
        form = ConjunctiveForm.from_dimacs(1, ((1,), (-1,)))
        v = clause_value_matrix(form, 3)
        assert v.to_rows() == ((0, F(1, 2), 1), (1, F(1, 2), 0))

    def test_rows_match_clause_count(self):
        form = ConjunctiveForm.from_dimacs(3, ((1, 2), (-1, 3), (-2, -3)))
        v = clause_value_matrix(form)
        assert (v.rows, v.cols) == (3, 8)

    def test_entries_lie_on_the_truth_scale(self):
        rng = random.Random(5)
        from conftest import random_form

        for _ in range(20):
            n = rng.randint(1, 3)
            form = random_form(rng, n, rng.randint(1, 3))
            for kk in (2, 3, 4):
                v = clause_value_matrix(form, kk)
                scale = {F(i, kk - 1) for i in range(kk)}
                assert set(v.entries) <= scale

    def test_entries_match_the_object_model(self):
        # Literals are drawn with replacement, so repeats and complementary pairs occur.
        rng = random.Random(12)
        for case in range(300):
            k = (2, 3, 4)[case % 3]
            n = rng.randint(1, {2: 8, 3: 5, 4: 4}[k])
            clauses = []
            for _ in range(rng.randint(1, 4)):
                width = rng.randint(1, 3)
                literals = [Literal(rng.randrange(n), rng.random() < 0.5) for _ in range(width)]
                clauses.append(Clause(tuple(literals)))
            form = ConjunctiveForm(n, tuple(clauses))
            expected = [
                [eval_clause(clause, a).value for a in enumerate_assignments(n, k)]
                for clause in clauses
            ]
            expected = tuple(map(tuple, expected))
            assert clause_value_matrix(form, k).to_rows() == expected, form
            assert oracle.clause_matrix(form, k).to_rows() == expected, form
