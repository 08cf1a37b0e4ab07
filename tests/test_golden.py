"""Golden outputs: exit code and exact stdout of the `psat` command.

The cases cover every command on every fixture, as text and as `--json`,
the structural matrices at small n, and a seeded corpus of `solve`,
`entail` and `coherence` queries over k in {2, 3} and n <= 5. The expected
outputs live in `golden/cli.json`. Only running this file as a script
rewrites them:

    PYTHONPATH=src python3 tests/test_golden.py

Do that only when an output is meant to change, and review the diff of the
golden file like code.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli
from psatkit import matrices, model, oracle, problems

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CORPUS_SEED = 20261018

FIXTURE_NAMES = (
    "bounds.psat",
    "contradiction.cnf",
    "nilsson.psat",
    "satisfiable.cnf",
    "three.cnf",
    "threeval.psatk",
    "unsat_bounds.psat",
)
FIXTURE_COMMANDS = (
    ("solve",),
    ("sat",),
    ("entail", "--goal", "1"),
    ("verify",),
    ("verify", "--goal", "1"),
)
# In argv, "FIXTURE/<name>" names a file under tests/fixtures and "INSTANCE"
# the case's own instance text, written to a scratch file.
FIXTURE_PREFIX = "FIXTURE/"
INSTANCE = "INSTANCE"


def _fixture_cases() -> list[dict]:
    cases = []
    for name in FIXTURE_NAMES:
        for command in FIXTURE_COMMANDS:
            argv = [command[0], FIXTURE_PREFIX + name, *command[1:]]
            cases.append({"argv": argv})
            cases.append({"argv": [*argv, "--json"]})
    return cases


def _matrix_cases() -> list[dict]:
    cases = []
    for which in ("W", "K", "Z", "c"):
        for n, k in ((1, 2), (2, 2), (3, 2), (2, 3)):
            argv = ["matrix", "--n", str(n), "--k", str(k), "--which", which]
            cases.append({"argv": argv})
            cases.append({"argv": [*argv, "--json"]})
    return cases


def _rational(rng: random.Random, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def _instance_text(rng: random.Random, n: int, k: int, m: int) -> str:
    """Random clauses with bounds.

    About half the instances are planted: their bounds hold for an even mix of
    two random assignments, so they are feasible. The others get exact random
    bounds, which are often infeasible.
    """
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    planted = rng.random() < 0.5
    support = [[rng.randrange(k) for _ in range(n)] for _ in range(2)]
    bounds = []
    for codes in clauses:
        if planted:
            values = [
                max(
                    Fraction(digits[abs(c) - 1] if c > 0 else k - 1 - digits[abs(c) - 1], k - 1)
                    for c in codes
                )
                for digits in support
            ]
            mid = (values[0] + values[1]) / 2
            lo, hi = (mid, mid) if rng.random() < 0.5 else (min(values), max(values))
        else:
            lo = hi = _rational(rng)
        bounds.append((lo, hi))
    header = f"p psat {n} {m}" if k == 2 else f"p psatk {n} {m} {k}"
    lines = [header]
    for codes, (lo, hi) in zip(clauses, bounds):
        lines.append(" ".join(str(c) for c in codes) + f" 0 {lo} {hi}")
    return "\n".join(lines) + "\n"


def _corpus_cases() -> list[dict]:
    rng = random.Random(CORPUS_SEED)
    cases = []
    for i in range(42):
        kind = ("solve", "entail", "coherence")[i % 3]
        k = 2 if (i // 3) % 2 == 0 else 3
        n = rng.randint(1, 5 if k == 2 else 4)
        json_flag = ["--json"] if (i // 6) % 2 else []
        if kind == "coherence":
            vector = ",".join(str(_rational(rng)) for _ in range(n))
            cases.append({"argv": ["coherence", vector, "--k", str(k), *json_flag]})
            continue
        text = _instance_text(rng, n, k, rng.randint(1, 4))
        argv = [kind, INSTANCE, *json_flag]
        if kind == "entail":
            goal = rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))
            argv += ["--goal", " ".join(str(v if rng.random() < 0.5 else -v) for v in goal)]
        cases.append({"argv": argv, "instance": text})
    return cases


def build_cases() -> list[dict]:
    """Every golden case: argv plus, for corpus queries, the instance text."""
    return _fixture_cases() + _matrix_cases() + _corpus_cases()


def run_case(case: dict, workdir: Path) -> dict:
    argv = []
    for arg in case["argv"]:
        if arg == INSTANCE:
            path = workdir / "instance.psat"
            path.write_text(case["instance"])
            arg = str(path)
        elif arg.startswith(FIXTURE_PREFIX):
            arg = str(FIXTURES / arg[len(FIXTURE_PREFIX) :])
        argv.append(arg)
    code, out, _ = run_cli(*argv)
    return {**case, "exit": code, "stdout": out}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_matches_the_case_list():
    assert GOLDEN.exists(), f"missing {GOLDEN}"
    stored = [{key: c[key] for key in c if key not in ("exit", "stdout")} for c in _load()]
    assert stored == build_cases()


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=f"{i:03d} " + " ".join(c["argv"])) for i, c in enumerate(_load())],
)
def test_golden_output(case, tmp_path):
    got = run_case(case, tmp_path)
    assert (got["exit"], got["stdout"]) == (case["exit"], case["stdout"])


def test_solving_paths_build_no_assignment(monkeypatch, tmp_path):
    build = model.enumerate_assignments

    def refuse(*args):
        # verify's oracle side reads V from the object model on purpose.
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename == oracle.__file__:
                return build(*args)
            frame = frame.f_back
        raise ValueError("enumerate_assignments called")

    for module in (model, matrices, problems, oracle):
        monkeypatch.setattr(module, "enumerate_assignments", refuse)
    # Every command must give the pinned output without the object model
    # outside the oracle.
    differing = []
    for case in _load():
        got = run_case(case, tmp_path)
        if (got["exit"], got["stdout"]) != (case["exit"], case["stdout"]):
            differing.append(case["argv"])
    assert differing == []


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = [run_case(case, Path(tmp)) for case in build_cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _write()
