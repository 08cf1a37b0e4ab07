"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "psat-decide": (("solve", 3, 2, 3), ("solve", 4, 2, 4)),
    "entail-range": (("entail", 3, 2, 2), ("entail", 2, 3, 3)),
    "coherence": (("coherence", 3, 2, 0), ("coherence", 2, 3, 0)),
    "structure": (
        ("containment", 3, 2, 3),
        ("fiber", 3, 2, 3),
        ("dim", 2, 2, 2),
        ("kernel", 3, 2, 0),
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SCHEDULES", TINY)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUPS", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.4", "--trace", str(trace)]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.startswith(f"metric {metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines
        )
    assert any(line.startswith("metric error_rate 0 ") for line in lines)


def _corrupt_witness(q, code, text):
    payload = json.loads(text) if text.startswith("{") else {}
    if "witness" not in payload:
        return code, text
    first = payload["witness"]["support"][0]
    first[0] = (first[0] + 1) % q.k**q.n
    return code, json.dumps(payload)


@pytest.mark.parametrize("workload", ("psat-decide", "coherence", "structure"))
def test_wrong_witness_raises_error_rate(tiny, workload):
    result = bench.measure(workload, 3, 0.4, False, tamper=_corrupt_witness)
    assert result["failures"]
    summary = bench.report(result, bench.END_TO_END_UNITS, out=io.StringIO())
    assert not summary["correct"] and summary["failed"] == len(result["failures"])


def test_digest_and_counts_repeat_for_a_seed(tiny):
    first = bench.measure("psat-decide", 5, 1.0, True)
    second = bench.measure("psat-decide", 5, 1.0, True)
    assert first["digested"] == bench.DIGEST_ANSWERS
    assert (first["digest"], first["counts"]) == (second["digest"], second["counts"])
    assert bench.compare_record(first) == [] and bench.compare_record(second) == []
    altered = dict(second, digest="0" * 64)
    assert bench.compare_record(altered)


def test_queries_depend_only_on_workload_seed_and_index():
    for workload in workloads.WORKLOADS:
        assert workloads.make_query(workload, 1, 5) == workloads.make_query(workload, 1, 5)
        stream = [workloads.make_query(workload, 1, i) for i in range(12)]
        assert stream != [workloads.make_query(workload, 2, i) for i in range(12)]


def test_every_span_feeds_exactly_one_time_metric():
    spans = [name for _, _, name in tracing.BOUNDARIES] + [m[-1] for m in tracing.METHODS]
    for name in spans:
        owners = [metric for metric, names in tracing.TIME_METRICS.items() if name in names]
        assert len(owners) == 1, name


def test_checks_reject_wrong_answers():
    q = workloads.Query(
        "solve", 2, 2, clauses=((1, 2), (1,)), bounds=((Fraction(1, 2), Fraction(1)),) * 2
    )
    good = '{"status":"feasible","witness":{"support":[[1,"1"]]}}'
    checks.check_solve(q, 0, good)
    for code, text in (
        (0, '{"status":"feasible","witness":{"support":[[0,"1"]]}}'),  # misses the bounds
        (0, '{"status":"feasible","witness":{"support":[[1,"1/2"]]}}'),  # mass 1/2
        (0, '{"status":"infeasible"}'),
        (1, good),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_solve(q, code, text)
    kernel = workloads.Query("kernel", 2, 2)
    checks.check_kernel(kernel, 0, '{"which":"K","rows":[["1","0"],["0","-1"],["0","-1"],["0","1"]]}')
    with pytest.raises(checks.CheckError):
        checks.check_kernel(kernel, 0, '{"which":"K","rows":[["1","0"],["0","-1"],["0","1"],["0","1"]]}')


def test_run_without_psatkit_sources_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "psat-decide", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
