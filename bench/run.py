"""psatkit benchmark: one caller, closed loop, one process, one thread.

    python3 bench/run.py --workload psat-decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each query waits for its answer before the next is sent. Queries go through
the public entry points: `psatkit.cli.run([...], out, err)` in-process for
`psat solve`, `psat entail`, `psat coherence` and `psat matrix`, and the
`psatkit.problems` functions that have no command. The benchmark passes
psatkit only generated inputs (instance files, vectors, clauses) and checks
every answer with its own code (checks.py). Before each query the process
moves to the least contended CPU it may use (pin_to_fastest).

--trace 0 prints the end-to-end metrics. --trace 1 answers each query twice,
untraced and traced in alternating order, and prints the per-layer metrics,
both answer rates and the tracing overhead. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Everything the run writes goes to `.bench_out/` under the repository root:
instance files (removed at exit), the spans of a traced run, and one record
per workload, seed and source version holding the answer digest and exact
counts. A later run of the same seed and source that disagrees with the
record is flagged and reported as incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 5  # set-up is repeated and its median reported
POOL = 256  # instance files written during set-up; later ones are written on demand
DIGEST_ANSWERS = 64  # answers covered by the digest and the exact counts
MODULES = ("cli", "problems", "matrices", "model", "rational_lp", "linalg", "oracle")

END_TO_END_UNITS = {
    "answers_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "untraced.answers_per_s": "1/s",
    "traced.answers_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    **{name: "s" for name in tracing.TIME_METRICS},
    "rational_lp.solves": "count",
    "rational_lp.columns": "count",
    "rational_lp.column_classes": "count",
    "rational_lp.useful_column_ratio": "ratio",
    "rational_lp.rows": "count",
    "rational_lp.witness_support": "count",
    "rational_lp.den_bits_max": "bits",
    "matrices.entries": "count",
}


def load_psatkit() -> SimpleNamespace:
    """Import psatkit afresh from this checkout's src/ and nowhere else."""
    for name in list(sys.modules):
        if name == "psatkit" or name.startswith("psatkit."):
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("psatkit")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"psatkit imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"psatkit.{m}") for m in MODULES})


def source_version() -> str:
    """Hash of the psatkit and benchmark sources, keying the stored records."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("psatkit/*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _support(dist) -> dict:
    return {"support": [[j, str(w)] for j, w in dist.support()]}


def cli_argv(q: workloads.Query, path: Path) -> list[str]:
    if q.kind == "solve":
        return ["solve", str(path), "--json"]
    if q.kind == "entail":
        return ["entail", str(path), "--goal", " ".join(map(str, q.goal)), "--json"]
    if q.kind == "coherence":
        return ["coherence", ",".join(map(str, q.vector)), "--k", str(q.k), "--json"]
    return ["matrix", "--n", str(q.n), "--k", str(q.k), "--which", "K", "--json"]


def ask(api, q: workloads.Query, path: Path) -> tuple[int, str, float]:
    """Send one query; returns the exit code, the rendered answer and psatkit's time."""
    if q.kind in ("solve", "entail", "coherence", "kernel"):
        argv = cli_argv(q, path)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        code = api.cli.run(argv, out, err)
        elapsed = perf_counter() - start
        return code, out.getvalue(), elapsed

    problems = api.problems
    start = perf_counter()
    form = api.model.ConjunctiveForm.from_dimacs(q.n, q.clauses)
    if q.kind == "containment":
        answer = {"contained": problems.kernel_containment(form)}
        return 0, _dumps(answer), perf_counter() - start
    target = problems.ClauseProbabilityTarget(q.bounds)
    if q.kind == "dim":
        answer = {"dim": problems.psat_feasible_set_dim(form, target, q.k)}
        return 0, _dumps(answer), perf_counter() - start
    _, u0 = problems.psat(form, target, q.k)
    elapsed = perf_counter() - start
    # The move is the benchmark's input, built from the witness off the clock.
    w, _, _ = checks.fiber_move(dict(u0.support()), q.n)
    double = [2 * v for v in w]
    start = perf_counter()
    contains = problems.fiber_contains(u0, w)
    moved = problems.fiber_translate(u0, w)
    contains_double = problems.fiber_contains(u0, double)
    elapsed += perf_counter() - start
    answer = {
        "witness": _support(u0),
        "contains": contains,
        "moved": _support(moved),
        "contains_double": contains_double,
    }
    return 0, _dumps(answer), elapsed


def _probe() -> float:
    """Time a fixed Fraction loop, the kind of work psatkit spends its time on."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i)
    return perf_counter() - start


def pin_to_fastest(cpus: list[int]) -> None:
    """Move this process to the CPU among `cpus` that runs the probe fastest.

    On a shared host each CPU slows down by up to 2x, independently of the
    others, for seconds at a time. Timing each answer on the least contended
    CPU keeps runs comparable.
    """
    if len(cpus) < 2:
        return
    best = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best.append((min(_probe(), _probe()), cpu))
    os.sched_setaffinity(0, {min(best)[1]})


def _write(work: Path, index, q: workloads.Query) -> Path:
    path = work / f"{index}.psat"
    if q.uses_file:
        path.write_text(q.text())
    return path


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _rate(latencies: list[float]) -> float:
    return _ratio(len(latencies), sum(latencies))


def _count_metrics(t: Counter, answers: int) -> dict[str, float]:
    return {
        "rational_lp.solves": _ratio(t["solves"], answers),
        "rational_lp.columns": _ratio(t["columns"], t["solves"]),
        "rational_lp.column_classes": _ratio(t["column_classes"], t["solves"]),
        "rational_lp.useful_column_ratio": _ratio(t["column_classes"], t["columns"]),
        "rational_lp.rows": _ratio(t["rows"], t["solves"]),
        "rational_lp.witness_support": _ratio(t["witness_support"], t["optimal"]),
        "rational_lp.den_bits_max": float(t["den_bits_max"]),
        "matrices.entries": _ratio(t["entries"], answers),
    }


def _tally(totals: Counter, kept) -> None:
    for name, args, result in kept:
        if name in tracing.MATRIX_BUILDERS:
            totals["entries"] += result.rows * result.cols
            continue
        for key, value in tracing.lp_counts(args[0], result).items():
            if key == "den_bits_max":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value


def measure(workload: str, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    """One run: set-up, then a closed loop of queries for `seconds`.

    `tamper(q, code, text)` may rewrite each answer before it is checked; the
    benchmark's tests use it to show that a wrong answer raises error_rate.
    """
    work = OUT / f"work-{os.getpid()}"
    pool = [workloads.make_query(workload, seed, i) for i in range(POOL)]
    warm = workloads.make_query(workload, seed, "warmup")
    failures: list[str] = []
    setup_times = []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:8]
    try:
        for _ in range(SETUPS):
            pin_to_fastest(cpus)
            start = perf_counter()
            api = load_psatkit()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for i, q in enumerate(pool):
                _write(work, i, q)
            ask(api, warm, _write(work, "warmup", warm))
            setup_times.append(perf_counter() - start)

        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install(api)
        by_mode: dict[bool, list[float]] = {False: [], True: []}
        digest = hashlib.sha256()
        digested = counted = attempted = 0
        totals: Counter = Counter()
        begin = perf_counter()
        index = 0
        while perf_counter() - begin < seconds:
            q = pool[index] if index < POOL else workloads.make_query(workload, seed, index)
            path = work / f"{index}.psat" if index < POOL else _write(work, index, q)
            pin_to_fastest(cpus)
            # A traced run answers each query untraced and traced, in
            # alternating order, so the overhead compares equal inputs.
            modes = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
            answers = []
            failed_before = len(failures)
            for traced in modes:
                if traced:
                    tracer.query = index
                    tracer.keep = index < DIGEST_ANSWERS
                attempted += 1
                try:
                    code, text, elapsed = ask(api, q, path)
                except Exception as exc:  # an answer that raises is a failed answer
                    code, text, elapsed = -1, f"error {type(exc).__name__}: {exc}", None
                    failures.append(f"query {index}: {text}")
                finally:
                    if tracer:
                        tracer.query = None
                if tamper is not None:
                    code, text = tamper(q, code, text)
                answers.append(f"{code} {text.strip()}")
                if elapsed is None:
                    continue
                by_mode[traced].append(elapsed)
                try:
                    checks.check(q, code, text, api)
                except checks.CheckError as exc:
                    failures.append(f"query {index} ({q.kind} n={q.n} k={q.k}): {exc}")
                if traced and tracer.keep:
                    _tally(totals, tracer.take_kept())
                    counted += 1
            if len(set(answers)) > 1 and len(failures) == failed_before:
                failures.append(f"query {index}: traced and untraced answers differ")
            if index < DIGEST_ANSWERS:
                digest.update(answers[0].encode() + b"\n")
                digested += 1
            index += 1
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failures": failures,
        "latencies": by_mode[False],
        "digest": digest.hexdigest(),
        "digested": digested,
    }
    if not trace:
        p50, p90 = _quantiles(by_mode[False])
        result["metrics"] = {
            "answers_per_s": _rate(by_mode[False]),
            "latency_s.p50": p50,
            "latency_s.p90": p90,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result

    untraced, traced_lat = by_mode[False], by_mode[True]
    self_times = tracer.self_times()
    metrics = {
        "untraced.answers_per_s": _rate(untraced),
        "traced.answers_per_s": _rate(traced_lat),
        "trace.overhead_ratio": _ratio(_rate(untraced), _rate(traced_lat)),
        "trace.coverage": _ratio(sum(self_times.values()), sum(traced_lat)),
    }
    for name, spans in tracing.TIME_METRICS.items():
        total = sum(self_times.get(span, 0.0) for span in spans)
        metrics[name] = _ratio(total, len(traced_lat))
    counts = _count_metrics(totals, counted)
    metrics.update(counts)
    result["metrics"] = metrics
    result["counts"] = counts if counted == DIGEST_ANSWERS else None
    result["spans"] = tracer.spans
    return result


def compare_record(result: dict) -> list[str]:
    """Check the digest and counts against earlier runs of this seed and source."""
    if result["digested"] < DIGEST_ANSWERS:
        return []
    path = OUT / "records" / f"{result['workload']}-seed{result['seed']}-{source_version()}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    mismatches = []
    if record.get("digest", result["digest"]) != result["digest"]:
        mismatches.append(f"answer digest {result['digest']} != recorded {record['digest']}")
    counts = result.get("counts")
    if counts and record.get("counts"):
        for name, value in counts.items():
            if record["counts"].get(name) != value:
                mismatches.append(f"count {name} {value} != recorded {record['counts'].get(name)}")
    if not mismatches:
        record["digest"] = result["digest"]
        if counts:
            record["counts"] = counts
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return mismatches


def report(result: dict, units: dict[str, str], out=None) -> dict:
    """Print the run in text; return the contract's result object."""
    out = out or sys.stdout
    lat = result["latencies"]
    failures = result["failures"]
    attempted = result["attempted"]
    mismatches = compare_record(result)
    p90 = _quantiles(lat)[1]
    print(f"workload {result['workload']} seed {result['seed']}", file=out)
    print(
        f"answers {attempted}; latency samples {len(lat)}, "
        f"{sum(1 for v in lat if v > p90)} beyond p90",
        file=out,
    )
    for name, unit in units.items():
        print(f"metric {name} {result['metrics'][name]:.6g} {unit}", file=out)
    print(f"metric error_rate {len(failures) / attempted if attempted else 0:.6g} share", file=out)
    print(f"digest sha256:{result['digest']} over the first {result['digested']} answers", file=out)
    if result.get("counts"):
        print("counts " + _dumps(result["counts"]), file=out)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=out)
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=out)
    return {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }


def write_spans(result: dict) -> None:
    path = OUT / f"spans-{result['workload']}-seed{result['seed']}.jsonl"
    with path.open("w") as f:
        for span in result["spans"]:
            f.write(_dumps(span) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(_dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_psatkit()
    except ImportError as exc:
        print(f"error: cannot import psatkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        write_spans(result)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(_dumps(report(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
