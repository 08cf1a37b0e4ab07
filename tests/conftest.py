import io
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from psatkit import Clause, ConjunctiveForm, Literal, rational_lp
from psatkit.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def tableau_widths(monkeypatch) -> list[int]:
    """The column count of each Bland run of lp_solve, phase 1 then phase 2."""
    widths = []
    run_bland = rational_lp._run_bland

    def recording(rows, basis, cost):
        widths.append(len(cost))
        return run_bland(rows, basis, cost)

    monkeypatch.setattr(rational_lp, "_run_bland", recording)
    return widths


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], out, err)
    return code, out.getvalue(), err.getvalue()


def subprocess_env() -> dict[str, str]:
    """Environment for a child `python -m psatkit` that imports this checkout's src."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def random_clause(rng: random.Random, n: int, width: int) -> Clause:
    width = min(width, n)
    variables = rng.sample(range(n), rng.randint(1, width))
    return Clause(tuple(Literal(v, rng.random() < 0.5) for v in variables))


def random_form(rng: random.Random, n: int, m: int, width: int = 3) -> ConjunctiveForm:
    return ConjunctiveForm(n, tuple(random_clause(rng, n, width) for _ in range(m)))


def random_unit_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)
