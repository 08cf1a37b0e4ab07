"""Command line interface: file parsing, canonical rendering, command dispatch.

Instance files are line oriented:

    c free-form comment
    p cnf <n> <m>        classical clauses, expectations implicitly [1, 1]
    p psat <n> <m>       optional "lo hi" expectation bounds after the 0
    p psatk <n> <m> <k>  the same over the k-valued truth scale

Clause literals are 1-based signed integers as in DIMACS, one clause per
line, terminated by 0. Rationals accept p/q and terminating decimal forms;
both parse exactly. Output is deterministic: rationals render reduced, and
repeated runs produce identical bytes.

Exit codes: 0 feasible/true, 1 infeasible/false, 2 usage or parse error,
3 size guard.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import oracle
from .errors import (
    InfeasibleError,
    SOLVE_COLUMN_GUARD,
    SizeGuardError,
    VERIFY_COLUMN_GUARD,
)
from .matrices import (
    assignment_matrix,
    bias_matrix,
    kernel_basis_matrix,
    kernel_column_sums,
)
from .model import (
    Clause,
    ConjunctiveForm,
    Distribution,
    Interval,
    ProbabilisticAssignment,
)
from .problems import (
    ClauseProbabilityTarget,
    PsatInstance,
    coherence,
    entail,
    psat,
    sat_via_psat,
)

ONE = Fraction(1)
ZERO = Fraction(0)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

_RATIONAL_TOKEN = re.compile(r"[+-]?\d+(?:/\d+|\.\d+)?")


class ParseError(ValueError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


class _UsageError(Exception):
    pass


def parse_rational(token: str, line: int = 0) -> Fraction:
    """Exact rational from 'p/q', an integer, or a terminating decimal."""
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ParseError(line, f"bad rational {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(line, f"zero denominator in {token!r}") from None


def _literal(token: str, n: int, line: int, label: str) -> int:
    """A DIMACS literal code: a nonzero integer naming one of n variables."""
    try:
        code = int(token)
    except ValueError:
        raise ParseError(line, f"bad {label} {token!r}") from None
    if code == 0 or abs(code) > n:
        raise ParseError(line, f"{label} {code} out of range for {n} variables")
    return code


def parse(text: str) -> PsatInstance:
    """Parse instance text into a form with per-clause expectation bounds."""
    kind = None
    n = m = k = 0
    clauses: list[tuple[int, ...]] = []
    bounds: list[tuple[Fraction, Fraction]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if kind is not None:
                raise ParseError(line_no, "duplicate header")
            tokens = line.split()
            if len(tokens) >= 2 and tokens[0] == "p" and tokens[1] in ("cnf", "psat", "psatk"):
                kind = tokens[1]
                want = 5 if kind == "psatk" else 4
                if len(tokens) != want:
                    raise ParseError(line_no, f"malformed 'p {kind}' header")
                try:
                    n = int(tokens[2])
                    m = int(tokens[3])
                    k = int(tokens[4]) if kind == "psatk" else 2
                except ValueError:
                    raise ParseError(line_no, f"malformed 'p {kind}' header") from None
            else:
                raise ParseError(line_no, "unknown header format")
            if n < 1:
                raise ParseError(line_no, f"need at least one variable, got n={n}")
            if m < 1:
                raise ParseError(line_no, f"need at least one clause, got m={m}")
            if k < 2:
                raise ParseError(line_no, f"need k >= 2, got k={k}")
            continue
        if kind is None:
            raise ParseError(line_no, "clause before header")
        tokens = line.split()
        if "0" not in tokens:
            raise ParseError(line_no, "clause lacks the terminating 0")
        zero_at = tokens.index("0")
        codes = [_literal(tok, n, line_no, "literal") for tok in tokens[:zero_at]]
        if not codes:
            raise ParseError(line_no, "empty clause")
        tail = tokens[zero_at + 1 :]
        if kind == "cnf":
            if tail:
                raise ParseError(line_no, "unexpected tokens after clause terminator")
            bound = (ONE, ONE)
        elif not tail:
            bound = (ONE, ONE)
        elif len(tail) == 2:
            lo = parse_rational(tail[0], line_no)
            hi = parse_rational(tail[1], line_no)
            if not (ZERO <= lo <= ONE and ZERO <= hi <= ONE):
                raise ParseError(line_no, "bound outside [0, 1]")
            if lo > hi:
                raise ParseError(line_no, f"lower bound {lo} exceeds upper bound {hi}")
            bound = (lo, hi)
        else:
            raise ParseError(line_no, "expected 'lo hi' after the clause terminator")
        clauses.append(tuple(codes))
        bounds.append(bound)
    if kind is None:
        raise ParseError(0, "missing 'p' header")
    if len(clauses) != m:
        raise ParseError(0, f"header declares {m} clauses, found {len(clauses)}")
    try:
        form = ConjunctiveForm.from_dimacs(n, clauses)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    return PsatInstance(form, k, ClauseProbabilityTarget(tuple(bounds)))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _instance_text(instance: PsatInstance) -> str:
    certain = all(lo == ONE and hi == ONE for lo, hi in instance.target.bounds)
    form = instance.form
    lines = []
    if instance.k != 2:
        lines.append(f"p psatk {form.n} {form.m} {instance.k}")
    elif certain:
        lines.append(f"p cnf {form.n} {form.m}")
    else:
        lines.append(f"p psat {form.n} {form.m}")
    plain = instance.k == 2 and certain
    for clause, (lo, hi) in zip(form.clauses, instance.target.bounds):
        codes = " ".join(str(c) for c in clause.to_dimacs())
        lines.append(f"{codes} 0" if plain else f"{codes} 0 {lo} {hi}")
    return "\n".join(lines) + "\n"


def render(result, fmt: str = "text") -> str:
    """Exact text of an interval (text or JSON) or of an instance (text)."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(result, PsatInstance) and fmt == "text":
        return _instance_text(result)
    if isinstance(result, Interval):
        if fmt == "text":
            return f"[{result.lo}, {result.hi}]"
        return _dumps({"min": str(result.lo), "max": str(result.hi)})
    raise TypeError(f"cannot render {type(result).__name__}")


def _parse_goal(text: str, n: int) -> Clause:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError(0, "empty goal clause")
    return Clause.from_dimacs([_literal(tok, n, 0, "goal literal") for tok in tokens])


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    """Rationals separated by commas or whitespace; lines starting with "c" are comments."""
    lines = [line for line in text.splitlines() if not line.strip().startswith("c")]
    values = [parse_rational(tok) for tok in " ".join(lines).replace(",", " ").split()]
    if not values:
        raise ParseError(0, "empty assignment vector")
    return tuple(values)


def _guard(args, err, default: int) -> int:
    limit = getattr(args, "max_columns", None)
    if limit is None:
        return default
    if limit > default:
        print(f"warning: raising column guard to {limit}", file=err)
    return limit


def _load_instance(path: str) -> PsatInstance:
    return parse(Path(path).read_text())


def _print_status(status: str, witness: Distribution | None, as_json: bool, out) -> None:
    """Print a decision's status word, then the witness support when there is one."""
    if as_json:
        payload = {"status": status}
        if witness is not None:
            payload["witness"] = {"support": [[j, str(w)] for j, w in witness.support()]}
        print(_dumps(payload), file=out)
        return
    print(status, file=out)
    if witness is not None:
        for j, w in witness.support():
            print(f"witness {j} {w}", file=out)


def _cmd_solve(args, out, err) -> int:
    limit = _guard(args, err, SOLVE_COLUMN_GUARD)
    instance = _load_instance(args.file)
    decision, witness = psat(instance.form, instance.target, instance.k, limit)
    _print_status(_feas(decision), witness, args.json, out)
    return EXIT_FEASIBLE if decision else EXIT_INFEASIBLE


def _cmd_coherence(args, out, err) -> int:
    limit = _guard(args, err, SOLVE_COLUMN_GUARD)
    # os.path.isfile is False where Path.is_file raises, as on a name too long for a file
    text = Path(args.source).read_text() if os.path.isfile(args.source) else args.source
    values = _parse_vector(text)
    x = ProbabilisticAssignment(len(values), values)
    decision, witness = coherence(x, args.k, limit)
    _print_status("coherent" if decision else "incoherent", witness, args.json, out)
    return EXIT_FEASIBLE if decision else EXIT_INFEASIBLE


def _cmd_entail(args, out, err) -> int:
    limit = _guard(args, err, SOLVE_COLUMN_GUARD)
    instance = _load_instance(args.file)
    goal = _parse_goal(args.goal, instance.form.n)
    try:
        interval = entail(instance.form, instance.target, goal, instance.k, limit)
    except InfeasibleError:
        _print_status("infeasible", None, args.json, out)
        return EXIT_INFEASIBLE
    print(render(interval, "json" if args.json else "text"), file=out)
    return EXIT_FEASIBLE


def _cmd_sat(args, out, err) -> int:
    limit = _guard(args, err, SOLVE_COLUMN_GUARD)
    instance = _load_instance(args.file)
    decision = sat_via_psat(instance.form, instance.k, limit)
    _print_status("satisfiable" if decision else "infeasible", None, args.json, out)
    return EXIT_FEASIBLE if decision else EXIT_INFEASIBLE


def _cmd_verify(args, out, err) -> int:
    limit = _guard(args, err, VERIFY_COLUMN_GUARD)
    instance = _load_instance(args.file)
    form, target, k = instance.form, instance.target, instance.k
    # The LP side runs the code of `solve` and `entail`; the oracle side reads V
    # from the object model. The two share only the parsed instance.
    lp_decision, _ = psat(form, target, k, limit)
    matrix = oracle.clause_matrix(form, k, limit)
    polytope = (matrix, target.lower, target.upper)
    oracle_range = _range(oracle.support_enumeration_optimize, *polytope, (ZERO,) * matrix.cols, limit)
    checks = [("feasibility", _feas(lp_decision), _feas(oracle_range != "infeasible"))]
    if target.is_exact():
        hull_decision, _ = oracle.hull_membership(matrix, target.lower, limit)
        checks.append(("hull", _feas(lp_decision), _feas(hull_decision)))
    if args.goal is not None:
        goal = _parse_goal(args.goal, form.n)
        z = oracle.clause_matrix(ConjunctiveForm(form.n, (goal,)), k, limit).entries
        lp_side = _range(entail, form, target, goal, k, limit)
        oracle_side = _range(oracle.support_enumeration_optimize, *polytope, z, limit)
        checks.append(("entail", lp_side, oracle_side))
    agree = all(lp == orc for _, lp, orc in checks)
    if args.json:
        payload = {
            "status": "agree" if agree else "disagree",
            "checks": [
                {"name": name, "lp": lp, "oracle": orc, "agree": lp == orc}
                for name, lp, orc in checks
            ],
        }
        print(_dumps(payload), file=out)
    else:
        for name, lp, orc in checks:
            print(f"{name} lp={lp} oracle={orc}", file=out)
        print("agree" if agree else "disagree", file=out)
    return EXIT_FEASIBLE if agree else EXIT_INFEASIBLE


def _feas(decision: bool) -> str:
    return "feasible" if decision else "infeasible"


def _range(solve, *args) -> str:
    """The rendered interval that solve(*args) returns, or "infeasible"."""
    try:
        return render(solve(*args))
    except InfeasibleError:
        return "infeasible"


def _cmd_matrix(args, out, err) -> int:
    limit = _guard(args, err, SOLVE_COLUMN_GUARD)
    n, k, which = args.n, args.k, args.which
    if which == "Z" and k != 2:
        raise _UsageError("the bias matrix is classical; use --k 2")
    if which == "W":
        rows = assignment_matrix(n, k, limit).to_rows()
    elif which == "K":
        rows = kernel_basis_matrix(n, k, limit).to_rows()
    elif which == "Z":
        rows = bias_matrix(n, limit).to_rows()
    else:
        rows = (kernel_column_sums(n, k, limit),)
    cells = [[str(e) for e in row] for row in rows]
    if args.json:
        key, value = ("entries", cells[0]) if which == "c" else ("rows", cells)
        print(_dumps({"which": which, "n": n, "k": k, key: value}), file=out)
    else:
        print("\n".join(" ".join(row) for row in cells), file=out)
    return EXIT_FEASIBLE


def _column_guard(text: str) -> int:
    """A --max-columns value: a column count of at least 1."""
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise argparse.ArgumentTypeError(f"need a column count of at least 1, got {text!r}")
    return limit


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="psat", description="Exact probabilistic satisfiability toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--max-columns", type=_column_guard, metavar="N", help="override the column guard"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    p = sub.add_parser("solve", parents=[common], help="expectation-bound decision plus witness")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_solve)
    p = sub.add_parser("coherence", parents=[common], help="realize a per-variable expectation vector")
    p.add_argument("source", help="file with rationals, or an inline list like '1/2,1/2'")
    p.add_argument("--k", type=int, default=2, help="truth-value count (default 2)")
    p.set_defaults(handler=_cmd_coherence)
    p = sub.add_parser("entail", parents=[common], help="expectation range of a goal clause")
    p.add_argument("file")
    p.add_argument("--goal", required=True, help="goal clause literals, e.g. '-1 2'")
    p.set_defaults(handler=_cmd_entail)
    p = sub.add_parser("sat", parents=[common], help="classical satisfiability via certainty bounds")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_sat)
    p = sub.add_parser("verify", parents=[common], help="cross-check solver against brute force")
    p.add_argument("file")
    p.add_argument("--goal", help="also cross-check the goal expectation range")
    p.set_defaults(handler=_cmd_verify)
    p = sub.add_parser("matrix", parents=[common], help="print an exact matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--which", choices=("W", "K", "Z", "c"), default="W")
    p.set_defaults(handler=_cmd_matrix)
    return parser


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Execute one command; returns the exit code instead of raising SystemExit."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise _UsageError("no command given (try --help)")
        return args.handler(args, out, err)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_GUARD
    except (_UsageError, OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
