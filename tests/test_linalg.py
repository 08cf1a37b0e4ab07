import random
from fractions import Fraction as F

import pytest

from psatkit import linalg


def known_rank_matrix(rng, nrows, ncols, rank, density):
    """Integer matrix of exactly the given rank, rows shuffled, columns permuted.

    Starts from `rank` rows in echelon form (distinct pivot columns, zeros to
    their left), which are independent, and adds integer combinations of them.
    """
    pivots = sorted(rng.sample(range(ncols), rank))
    basis = []
    for p in pivots:
        row = [0] * ncols
        row[p] = rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(p + 1, ncols):
            if rng.random() < density:
                row[j] = rng.randint(-4, 4)
        basis.append(row)
    rows = [list(r) for r in basis]
    for _ in range(nrows - rank):
        combo = [0] * ncols
        for r in basis:
            if rng.random() < density:
                c = rng.randint(-2, 2)
                combo = [a + c * b for a, b in zip(combo, r)]
        rows.append(combo)
    rng.shuffle(rows)
    perm = list(range(ncols))
    rng.shuffle(perm)
    return [[row[perm[j]] for j in range(ncols)] for row in rows]


def mul(rows, vec):
    return tuple(sum(F(a) * v for a, v in zip(row, vec)) for row in rows)


class TestSolveUnique:
    def test_unique_system(self):
        rows = ((2, 1), (1, 3))
        assert linalg.solve_unique(rows, (3, 5)) == (F(4, 5), F(7, 5))

    def test_inconsistent_system(self):
        assert linalg.solve_unique(((1, 1), (1, 1)), (1, 2)) is None

    def test_underdetermined_system(self):
        assert linalg.solve_unique(((1, 1, 0), (0, 1, 1)), (1, 1)) is None
        assert linalg.solve_unique(((1, 1), (2, 2)), (1, 2)) is None

    def test_overdetermined_consistent_system(self):
        rows = ((1, 0), (0, 1), (1, 1), (2, -1))
        assert linalg.solve_unique(rows, (F(1, 2), 3, F(7, 2), -2)) == (F(1, 2), F(3))

    def test_overdetermined_inconsistent_system(self):
        assert linalg.solve_unique(((1, 0), (0, 1), (1, 1)), (1, 1, 1)) is None

    def test_zero_rows(self):
        assert linalg.solve_unique((), ()) is None

    def test_zero_columns(self):
        assert linalg.solve_unique(((),), (0,)) is None

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_unique(((1, 2), (3,)), (1, 1))

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_unique(((1, 0), (0, 1)), (1,))
        with pytest.raises(ValueError):
            linalg.solve_unique((), (1,))

    def test_results_are_fractions_and_solve(self):
        rng = random.Random(5)
        for _ in range(30):
            size = rng.randint(1, 5)
            rows = known_rank_matrix(rng, size, size, size, 0.7)
            x = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size))
            got = linalg.solve_unique(rows, mul(rows, x))
            assert got == x
            assert all(isinstance(v, F) for v in got)


class TestNullspace:
    def test_unit_on_each_free_column(self):
        basis = linalg.nullspace(((1, 2, 0, 3), (0, 0, 1, 4)))
        assert basis == [(-2, 1, 0, 0), (-3, 0, -4, 1)]

    def test_vectors_annihilated_and_count_is_nullity(self):
        rng = random.Random(11)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            r = rng.randint(0, min(nrows, ncols))
            rows = known_rank_matrix(rng, nrows, ncols, r, rng.choice((0.3, 1.0)))
            basis = linalg.nullspace(rows)
            assert len(basis) == ncols - linalg.rank(rows) == ncols - r
            for vec in basis:
                assert all(isinstance(v, F) for v in vec)
                assert all(v == 0 for v in mul(rows, vec))

    def test_full_column_rank_has_empty_kernel(self):
        assert linalg.nullspace(((1, 0), (0, 1), (1, 1))) == []

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            linalg.nullspace(())

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            linalg.nullspace(((1, 2), (3,)))


class TestRank:
    @pytest.mark.parametrize("density", (0.2, 1.0), ids=("sparse", "dense"))
    def test_random_integer_matrices_of_known_rank(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(60):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            r = rng.randint(0, min(nrows, ncols))
            rows = known_rank_matrix(rng, nrows, ncols, r, density)
            assert linalg.rank(rows) == r
            assert linalg.rank([list(col) for col in zip(*rows)]) == r

    def test_empty_and_zero(self):
        assert linalg.rank(()) == 0
        assert linalg.rank(((0, 0), (0, 0))) == 0

    def test_accepts_fraction_and_string_entries(self):
        assert linalg.rank(((F(1, 2), "1/3"), ("3/2", 1))) == 1
