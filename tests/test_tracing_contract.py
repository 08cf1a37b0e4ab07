"""The names the benchmark's tracer patches, checked against psatkit.

`bench/tracing.py` wraps psatkit functions by (module, attribute) name, so a
refactor that renames or stops importing one of them breaks traced benchmark
runs. This test reads the tracer's tables and fails on such a refactor.
"""

import ast
import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from psatkit import Clause, ClauseProbabilityTarget, ConjunctiveForm
from psatkit.problems import clause_problem
from psatkit.rational_lp import lp_solve

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
MODULES = sorted(
    path for path in (ROOT / "src" / "psatkit").glob("*.py")
    if path.stem not in ("__init__", "__main__")
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _psatkit(module: str):
    return importlib.import_module(f"psatkit.{module}")


@pytest.mark.parametrize("module, attr, name", tracing.BOUNDARIES)
def test_boundary_resolves_to_the_function_its_span_names(module, attr, name):
    patched = getattr(_psatkit(module), attr)
    layer, function = name.split(".")
    assert callable(patched)
    assert patched is getattr(_psatkit(layer), function)


@pytest.mark.parametrize("module, cls, attr, name", tracing.METHODS)
def test_method_resolves(module, cls, attr, name):
    assert callable(getattr(getattr(_psatkit(module), cls), attr))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used_or_patched(path):
    # A name imported only for the tracer to patch is listed in BOUNDARIES.
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    patched = {attr for module, attr, _ in tracing.BOUNDARIES if module == path.stem}
    assert imported - used - patched == set()


@pytest.mark.parametrize(
    "bounds, optimal",
    (
        (((F(7, 10), F(7, 10)), (F(4, 5), F(4, 5))), True),
        (((F(1, 2), F(1)), (F(1, 4), F(1, 2))), True),
        (((F(0), F(0)), (F(0), F(0))), False),
    ),
)
def test_lp_counts_reads_a_real_solve(bounds, optimal):
    form = ConjunctiveForm.from_dimacs(2, ((1,), (-1, 2)))
    problem = clause_problem(form, ClauseProbabilityTarget(bounds))
    outcome = lp_solve(problem)
    counts = tracing.lp_counts(problem, outcome)
    assert counts["solves"] == 1
    assert counts["columns"] == 4
    assert counts["rows"] == 1 + sum(1 if lo == hi else 2 for lo, hi in bounds)
    assert counts["optimal"] == int(optimal) == int(outcome.is_optimal)
    if optimal:
        assert counts["witness_support"] == sum(1 for w in outcome.witness if w)
        assert counts["den_bits_max"] >= 1
    else:
        assert counts["witness_support"] == counts["den_bits_max"] == 0


@pytest.mark.parametrize("goal", (None, Clause.from_dimacs((-2,))))
@pytest.mark.parametrize(
    "bounds",
    (
        ((F(7, 10), F(7, 10)), (F(4, 5), F(4, 5))),
        ((F(1, 2), F(1)), (F(1, 4), F(1, 2))),
        ((F(0), F(0)), (F(0), F(0))),
    ),
)
def test_column_classes_are_the_width_lp_solve_pivots_over(tableau_widths, bounds, goal):
    # The phase-1 tableau holds the structural columns, a slack and a surplus
    # per interval row, and one artificial per expanded row.
    form = ConjunctiveForm.from_dimacs(3, ((1,), (-1, 2)))
    problem = clause_problem(form, ClauseProbabilityTarget(bounds), goal=goal)
    counts = tracing.lp_counts(problem, lp_solve(problem))
    intervals = sum(1 for lo, hi in bounds if lo != hi)
    assert tableau_widths[0] - 2 * intervals - counts["rows"] == counts["column_classes"]
    assert counts["column_classes"] < counts["columns"]
