"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Every check is exact rational equality (zero tolerance). The two timed
criteria assert their wall-clock budgets as well.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

from psatkit import (
    Clause,
    ClauseProbabilityTarget,
    ConjunctiveForm,
    InfeasibleError,
    ProbabilisticAssignment,
    assignment_matrix,
    bias_matrix,
    clause_truth_vector,
    clause_value_matrix,
    coherence,
    coherence_product_witness,
    coherence_via_bias,
    entail,
    fiber_contains,
    fiber_translate,
    kernel_basis_matrix,
    kernel_column_sums,
    kernel_column_sums_formula,
    kernel_containment,
    psat,
    sat_via_psat,
    weight_permutation,
)
from psatkit import linalg
from psatkit.model import Distribution
from psatkit.oracle import (
    exhaustive_sat,
    hull_membership,
    support_enumeration_optimize,
)
from conftest import (
    FIXTURES,
    fixture_path,
    random_clause,
    random_form,
    random_unit_fraction,
    run_cli,
    subprocess_env,
)

ALL_FIXTURES = (
    "nilsson.psat",
    "contradiction.cnf",
    "satisfiable.cnf",
    "three.cnf",
    "bounds.psat",
    "unsat_bounds.psat",
    "threeval.psatk",
)


@contextmanager
def criterion(capsys, num: int, desc: str):
    """Reports one PASS/FAIL line per criterion on the real stdout."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: FAIL - {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: PASS - {desc}", flush=True)


def random_distribution(rng: random.Random, size: int, spread: int = 3):
    cols = rng.sample(range(size), min(size, rng.randint(1, spread)))
    raw = [rng.randint(1, 5) for _ in cols]
    total = sum(raw)
    weights = [F(0)] * size
    for c, r in zip(cols, raw):
        weights[c] += F(r, total)
    return tuple(weights)


def test_criterion_01_matrix_identities(capsys):
    with criterion(capsys, 1, "kernel identities and block form, n<=8 classical and n<=4 three-valued, under 60 s"):
        start = time.monotonic()
        cases = [(n, 2) for n in range(1, 9)] + [(n, 3) for n in range(1, 5)]
        for n, k in cases:
            w = assignment_matrix(n, k)
            kb = kernel_basis_matrix(n, k)
            assert w.matmul(kb).is_zero(), (n, k)
            assert (kb.rows, kb.cols) == (k**n, k**n - n), (n, k)
            assert linalg.rank(list(w.to_rows())) == n, (n, k)
            assert linalg.rank([kb.col(j) for j in range(kb.cols)]) == kb.cols, (n, k)
            # weight order opens with the zero column and a scaled identity
            perm = weight_permutation(n, k)
            assert w.col(perm[0]) == (F(0),) * n, (n, k)
            scale = F(1, k - 1)
            for i in range(n):
                expected = tuple(scale if r == i else F(0) for r in range(n))
                assert w.col(perm[1 + i]) == expected, (n, k, i)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_02_column_sum_formula(capsys):
    with criterion(capsys, 2, "closed-form kernel column sums equal computed sums for n=1..8"):
        for n in range(1, 9):
            assert kernel_column_sums_formula(n) == kernel_column_sums(n), n


def test_criterion_03_coherence_totality(capsys):
    with criterion(capsys, 3, "100 random unit-box points are coherent with exact witnesses on both routes"):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 6)
            x = ProbabilisticAssignment(
                n, tuple(random_unit_fraction(rng) for _ in range(n))
            )
            ok, u = coherence(x)
            assert ok
            assert assignment_matrix(n).mul_vec(u.weights) == x.values
            prod = coherence_product_witness(x)
            assert assignment_matrix(n).mul_vec(prod.weights) == x.values
            bias_target = tuple(2 * v - 1 for v in x.values)
            assert bias_matrix(n).mul_vec(prod.weights) == bias_target
            ok_bias, u_bias = coherence_via_bias(x)
            assert ok_bias == ok
            assert bias_matrix(n).mul_vec(u_bias.weights) == bias_target


def test_criterion_04_certainty_collapses_to_sat(capsys):
    with criterion(capsys, 4, "200 random CNFs: certainty-bound feasibility equals brute-force SAT, under 120 s"):
        start = time.monotonic()
        rng = random.Random(211)
        for _ in range(200):
            n = rng.randint(1, 6)
            form = random_form(rng, n, rng.randint(1, 12))
            assert sat_via_psat(form, 2) == exhaustive_sat(form, 2)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f} s"


def test_criterion_05_many_valued_collapse(capsys):
    with criterion(capsys, 5, "100 random forms: three-valued certainty feasibility equals classical SAT"):
        rng = random.Random(307)
        for _ in range(100):
            n = rng.randint(1, 4)
            form = random_form(rng, n, rng.randint(1, 6))
            assert sat_via_psat(form, 3) == exhaustive_sat(form, 2)


def test_criterion_06_lp_against_oracle(capsys):
    with criterion(capsys, 6, "60 random instances: solver and enumeration oracle give identical decisions and exact optima"):
        rng = random.Random(401)
        feasible_seen = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(1, 3)
            form = random_form(rng, n, m)
            v = clause_value_matrix(form)
            if rng.random() < 0.5:
                weights = random_distribution(rng, v.cols)
                y = v.mul_vec(weights)
                if rng.random() < 0.5:
                    target = ClauseProbabilityTarget.exact(y)
                else:
                    bounds = tuple(
                        (
                            max(F(0), yi - F(rng.randint(0, 3), 12)),
                            min(F(1), yi + F(rng.randint(0, 3), 12)),
                        )
                        for yi in y
                    )
                    target = ClauseProbabilityTarget(bounds)
            else:
                bounds = []
                for _ in range(m):
                    a, b = sorted(random_unit_fraction(rng) for _ in range(2))
                    bounds.append((a, b))
                target = ClauseProbabilityTarget(tuple(bounds))
            lp_ok, witness = psat(form, target)
            try:
                support_enumeration_optimize(
                    v, target.lower, target.upper, (F(0),) * v.cols
                )
                oracle_ok = True
            except InfeasibleError:
                oracle_ok = False
            assert lp_ok == oracle_ok, (form, target)
            if target.is_exact():
                hull_ok, hull_weights = hull_membership(v, target.lower)
                assert hull_ok == lp_ok, (form, target)
                if hull_ok:
                    assert v.mul_vec(hull_weights) == target.lower
            if lp_ok:
                feasible_seen += 1
                assert v.mul_vec(witness.weights) is not None
                goal = random_clause(rng, n, 3)
                z = clause_truth_vector(goal, n)
                lp_iv = entail(form, target, goal)
                orc_iv = support_enumeration_optimize(
                    v, target.lower, target.upper, z
                )
                assert lp_iv == orc_iv, (form, target, goal)
        assert feasible_seen >= 15, feasible_seen
        # dedicated hull loop: exact points, half constructed achievable
        for trial in range(50):
            n = rng.randint(2, 6)
            m = rng.randint(1, 3)
            form = random_form(rng, n, m)
            v = clause_value_matrix(form)
            if trial % 2 == 0:
                y = v.mul_vec(random_distribution(rng, v.cols))
            else:
                y = tuple(random_unit_fraction(rng) for _ in range(m))
            target = ClauseProbabilityTarget.exact(y)
            lp_ok, _ = psat(form, target)
            hull_ok, hull_weights = hull_membership(v, y)
            assert hull_ok == lp_ok, (form, y)
            if hull_ok:
                assert v.mul_vec(hull_weights) == y


def test_criterion_07_entailment_fixture(capsys):
    with criterion(capsys, 7, "the two-premise fixture entails the goal exactly in [1/2, 4/5] and extends feasibly"):
        form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
        target = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5)))
        iv = entail(form, target, Clause.from_dimacs((2,)))
        assert (iv.lo, iv.hi) == (F(1, 2), F(4, 5))
        extended = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2), (2,)))
        for y in (F(1, 2), F(13, 20), F(4, 5)):
            ext_target = ClauseProbabilityTarget.exact((F(7, 10), F(4, 5), y))
            ok, witness = psat(extended, ext_target)
            assert ok, y
            vals = clause_value_matrix(extended).mul_vec(witness.weights)
            assert vals == (F(7, 10), F(4, 5), y)


def test_criterion_08_fiber_invariance(capsys):
    with criterion(capsys, 8, "random kernel moves preserve expectations, mass, and nonnegativity at n=3..5"):
        rng = random.Random(503)
        for n in (3, 4, 5):
            w_mat = assignment_matrix(n)
            kernel = kernel_basis_matrix(n)
            sums = kernel_column_sums_formula(n)
            sums_norm = sum(c * c for c in sums)
            for _ in range(12):
                raw = [F(rng.randint(1, 9)) for _ in range(2**n)]
                total = sum(raw)
                u0 = Distribution(n, 2, tuple(r / total for r in raw))
                draft = tuple(
                    F(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(kernel.cols)
                )
                shift_mass = sum(c * d for c, d in zip(sums, draft))
                move = tuple(
                    d - shift_mass * c / sums_norm for c, d in zip(sums, draft)
                )
                shift = kernel.mul_vec(move)
                step = F(1)
                for uj, sj in zip(u0.weights, shift):
                    if sj < 0:
                        step = min(step, uj / -sj)
                move = tuple(step / 2 * v for v in move)
                assert fiber_contains(u0, move)
                moved = fiber_translate(u0, move)
                assert w_mat.mul_vec(moved.weights) == w_mat.mul_vec(u0.weights)
                assert sum(moved.weights) == 1
                assert all(v >= 0 for v in moved.weights)
                # breaking orthogonality breaks containment
                bad = (move[0] + F(1, 7),) + move[1:]
                assert not fiber_contains(u0, bad)


def test_criterion_09_obstruction(capsys):
    with criterion(capsys, 9, "forms with a clause satisfied by the all-zeros assignment never contain the kernel"):
        corpus = []
        for name in ALL_FIXTURES:
            from psatkit.cli import parse

            inst = parse(fixture_path(name).read_text())
            if inst.k == 2:
                corpus.append(inst.form)
        rng = random.Random(601)
        for _ in range(40):
            n = rng.randint(1, 4)
            corpus.append(random_form(rng, n, rng.randint(1, 4)))
        checked = 0
        for form in corpus:
            zero_satisfied = any(
                all(lit.negated for lit in clause.literals)
                for clause in form.clauses
            )
            if zero_satisfied:
                checked += 1
                assert not kernel_containment(form), form
        assert checked >= 10, checked


def test_criterion_10_cli_round_trip_and_exit_codes(capsys):
    with criterion(capsys, 10, "fixtures round-trip bit-exact; sat and verify exit codes are correct on the corpus"):
        from psatkit.cli import parse, render

        for name in ALL_FIXTURES:
            text = fixture_path(name).read_text()
            assert render(parse(text)) == text, name
        sat_codes = {
            "satisfiable.cnf": 0,
            "three.cnf": 0,
            "nilsson.psat": 0,
            "contradiction.cnf": 1,
            "unsat_bounds.psat": 1,
        }
        for name, want in sat_codes.items():
            code, _, _ = run_cli("sat", fixture_path(name))
            assert code == want, name
        for name in ALL_FIXTURES:
            code, out, _ = run_cli("verify", fixture_path(name))
            assert code == 0, name
            assert out.endswith("agree\n"), name


def test_criterion_11_determinism(capsys):
    with criterion(capsys, 11, "every command on every fixture is byte-identical across repeated runs"):
        invocations = []
        for name in ALL_FIXTURES:
            path = str(fixture_path(name))
            invocations.append(("solve", path))
            invocations.append(("solve", path, "--json"))
            invocations.append(("sat", path))
            invocations.append(("entail", path, "--goal", "1"))
            invocations.append(("verify", path))
        invocations.append(("coherence", "3/10,3/5"))
        invocations.append(("matrix", "--n", "3", "--which", "K"))
        invocations.append(("matrix", "--n", "4", "--which", "c"))
        for argv in invocations:
            assert run_cli(*argv) == run_cli(*argv), argv
        argv = ["entail", str(fixture_path("nilsson.psat")), "--goal", "2"]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "psatkit", *argv],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0
        code, out, _ = run_cli(*argv)
        assert runs[0].stdout == out and runs[0].returncode == code
