import ast
import json
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from psatkit import Interval, RationalMatrix, SOLVE_COLUMN_GUARD
from psatkit import cli, matrices, problems
from psatkit.cli import ParseError, parse, parse_rational, render
from conftest import FIXTURES, fixture_path, run_cli, subprocess_env

ALL_FIXTURES = (
    "nilsson.psat",
    "contradiction.cnf",
    "satisfiable.cnf",
    "three.cnf",
    "bounds.psat",
    "unsat_bounds.psat",
    "threeval.psatk",
)


class TestParseRational:
    def test_fraction_form(self):
        assert parse_rational("7/10") == F(7, 10)
        assert parse_rational("-1/3") == F(-1, 3)

    def test_decimal_is_exact(self):
        assert parse_rational("0.7") == F(7, 10)
        assert parse_rational("0.1") == F(1, 10)

    def test_integer(self):
        assert parse_rational("1") == 1

    def test_rejections(self):
        for bad in ("x", "1/2/3", "1e5", ".5", "1/0"):
            with pytest.raises(ParseError):
                parse_rational(bad)


class TestReadPsatFile:
    def test_cnf_header(self):
        inst = parse("p cnf 2 1\n1 -2 0\n")
        assert (inst.form.n, inst.form.m, inst.k) == (2, 1, 2)
        assert [c.to_dimacs() for c in inst.form.clauses] == [(1, -2)]
        assert inst.target.bounds == ((1, 1),)

    def test_psat_bounds(self):
        inst = parse("p psat 2 2\n1 0 7/10 7/10\n-1 2 0 4/5 4/5\n")
        assert inst.target.bounds == ((F(7, 10), F(7, 10)), (F(4, 5), F(4, 5)))

    def test_psat_default_bounds(self):
        inst = parse("p psat 1 1\n1 0\n")
        assert inst.target.bounds == ((1, 1),)

    def test_decimal_bounds(self):
        inst = parse("p psat 1 1\n1 0 0.7 0.8\n")
        assert inst.target.bounds == ((F(7, 10), F(4, 5)),)

    def test_psatk_header(self):
        inst = parse("p psatk 1 2 3\n1 0 1/2 1/2\n-1 0 1/2 1/2\n")
        assert inst.k == 3

    def test_comments_and_blank_lines(self):
        inst = parse("c intro\n\np cnf 1 1\nc middle\n1 0\n\n")
        assert [c.to_dimacs() for c in inst.form.clauses] == [(1,)]

    def test_error_lines(self):
        with pytest.raises(ParseError) as info:
            parse("p cnf 1 1\n2 0\n")
        assert str(info.value).startswith("line 2:")
        assert info.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("1 0\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("p cnf 1 1\np cnf 1 1\n1 0\n")

    @pytest.mark.parametrize("header", ("pfoo cnf 2 1", "pcnf cnf 2 1", "p: cnf 2 1"))
    def test_header_token_is_exactly_p(self, header):
        with pytest.raises(ParseError, match="unknown header format") as info:
            parse(f"c first\n{header}\n1 2 0\n")
        assert info.value.line == 2

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="declares"):
            parse("p cnf 1 2\n1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="terminating 0"):
            parse("p cnf 1 1\n1\n")

    def test_cnf_rejects_bounds(self):
        with pytest.raises(ParseError, match="after clause terminator"):
            parse("p cnf 1 1\n1 0 1/2 1\n")

    def test_bad_bound_pair(self):
        with pytest.raises(ParseError, match="lo hi"):
            parse("p psat 1 1\n1 0 1/2\n")

    def test_bound_order(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse("p psat 1 1\n1 0 3/4 1/4\n")

    def test_bound_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse("p psat 1 1\n1 0 1/2 3/2\n")

    def test_empty_clause(self):
        with pytest.raises(ParseError, match="empty"):
            parse("p cnf 1 1\n0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("p cnf 1 1\n-2 0\n")

    def test_bad_k(self):
        with pytest.raises(ParseError, match="k >= 2"):
            parse("p psatk 1 1 1\n1 0\n")


class TestParseToInstance:
    def test_nilsson(self):
        inst = parse(fixture_path("nilsson.psat").read_text())
        assert inst.form.n == 2 and inst.form.m == 2
        assert inst.k == 2
        assert inst.target.lower == (F(7, 10), F(4, 5))

    def test_cnf_gets_certain_target(self):
        inst = parse("p cnf 2 1\n1 2 0\n")
        assert inst.target.lower == (1,) and inst.target.upper == (1,)


class TestRender:
    def test_interval_text(self):
        assert render(Interval(F(1, 2), F(4, 5))) == "[1/2, 4/5]"

    def test_interval_json(self):
        assert render(Interval(F(1, 2), F(4, 5)), "json") == '{"min":"1/2","max":"4/5"}'

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(F(1), "yaml")

    def test_round_trip_is_byte_exact(self):
        for name in ALL_FIXTURES:
            text = fixture_path(name).read_text()
            assert render(parse(text)) == text, name

    def test_canonical_header_choice(self):
        # certain classical bounds collapse to cnf
        text = "p psat 1 1\n1 0 1 1\n"
        assert render(parse(text)) == "p cnf 1 1\n1 0\n"
        # many-valued instances keep the scale in the header
        text = "p psatk 1 1 3\n1 0\n"
        assert render(parse(text)) == "p psatk 1 1 3\n1 0 1 1\n"


class TestCommands:
    def test_solve_feasible(self):
        code, out, err = run_cli("solve", fixture_path("nilsson.psat"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feasible"
        assert all(line.startswith("witness ") for line in lines[1:])

    def test_solve_infeasible(self):
        code, out, _ = run_cli("solve", fixture_path("unsat_bounds.psat"))
        assert code == 1 and out == "infeasible\n"

    def test_solve_json_witness_satisfies_bounds(self):
        code, out, _ = run_cli("solve", fixture_path("bounds.psat"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "feasible"
        weights = {int(j): F(w) for j, w in payload["witness"]["support"]}
        p1 = weights.get(1, F(0)) + weights.get(3, F(0))
        assert F(1, 2) <= p1 <= 1

    def test_entail_text_and_json(self):
        code, out, _ = run_cli("entail", fixture_path("nilsson.psat"), "--goal", "2")
        assert code == 0 and out == "[1/2, 4/5]\n"
        code, out, _ = run_cli(
            "entail", fixture_path("nilsson.psat"), "--goal", "2", "--json"
        )
        assert code == 0 and out == '{"min":"1/2","max":"4/5"}\n'

    def test_entail_negated_goal(self):
        code, out, _ = run_cli("entail", fixture_path("nilsson.psat"), "--goal", "-2")
        assert code == 0 and out == "[1/5, 1/2]\n"

    def test_entail_infeasible(self):
        code, out, _ = run_cli(
            "entail", fixture_path("contradiction.cnf"), "--goal", "1"
        )
        assert code == 1 and out == "infeasible\n"

    def test_sat(self):
        code, out, _ = run_cli("sat", fixture_path("three.cnf"))
        assert code == 0 and out == "satisfiable\n"
        code, out, _ = run_cli("sat", fixture_path("contradiction.cnf"))
        assert code == 1 and out == "infeasible\n"

    def test_coherence_inline(self):
        code, out, _ = run_cli("coherence", "3/10,3/5")
        assert code == 0
        assert out.splitlines()[0] == "coherent"
        # far longer than a file name may be, so it is read as inline text
        code, out, _ = run_cli("coherence", "0." + "1" * 300 + ",0.5")
        assert code == 0 and out.splitlines()[0] == "coherent"

    def test_coherence_from_file(self, tmp_path):
        vec = tmp_path / "x.txt"
        for text in ("1/2 1/2\n", "c two marginals\n1/2, 1/2\n"):
            vec.write_text(text)
            code, out, _ = run_cli("coherence", str(vec))
            assert code == 0 and out.splitlines()[0] == "coherent", text

    def test_coherence_rejects_bad_component(self):
        code, _, err = run_cli("coherence", "3/2")
        assert code == 2 and "error" in err

    def test_coherence_empty_source_is_an_empty_vector(self):
        # Path("") is the working directory; only a file is read as the source.
        code, _, err = run_cli("coherence", "")
        assert code == 2 and "empty assignment vector" in err

    def test_coherence_three_valued(self):
        code, out, _ = run_cli("coherence", "1/2", "--k", "3")
        assert code == 0

    def test_verify_fixtures_agree(self):
        for name in ALL_FIXTURES:
            code, out, _ = run_cli("verify", fixture_path(name))
            assert code == 0, name
            assert out.endswith("agree\n"), name

    def test_verify_with_goal(self):
        code, out, _ = run_cli(
            "verify", fixture_path("nilsson.psat"), "--goal", "2"
        )
        assert code == 0
        assert "entail lp=[1/2, 4/5] oracle=[1/2, 4/5]" in out

    def test_verify_catches_a_corrupted_clause_value_matrix(self, monkeypatch):
        # The solving side reads V's all-ones column as 0; the oracle builds its own V.
        build = matrices.clause_value_matrix

        def corrupted(*args):
            v = build(*args)
            ones = {j for j in range(v.cols) if set(v.col(j)) == {1}}
            entries = (0 if i % v.cols in ones else e for i, e in enumerate(v.entries))
            return RationalMatrix(v.rows, v.cols, tuple(entries))

        for module in (matrices, problems):
            monkeypatch.setattr(module, "clause_value_matrix", corrupted)
        code, out, _ = run_cli("verify", fixture_path("nilsson.psat"), "--goal", "2")
        assert code == 1
        assert out.splitlines() == [
            "feasibility lp=infeasible oracle=feasible",
            "hull lp=infeasible oracle=feasible",
            "entail lp=infeasible oracle=[1/2, 4/5]",
            "disagree",
        ]

    def test_verify_runs_the_entail_command_code(self, monkeypatch):
        monkeypatch.setattr(cli, "entail", lambda *args: Interval(F(0), F(1)))
        code, out, _ = run_cli("verify", fixture_path("nilsson.psat"), "--goal", "2")
        assert code == 1
        assert "entail lp=[0, 1] oracle=[1/2, 4/5]" in out
        assert out.endswith("disagree\n")

    def test_verify_json(self):
        code, out, _ = run_cli("verify", fixture_path("nilsson.psat"), "--json")
        payload = json.loads(out)
        assert payload["status"] == "agree"
        assert all(check["agree"] for check in payload["checks"])

    def test_matrix_outputs(self):
        code, out, _ = run_cli("matrix", "--n", "2", "--which", "W")
        assert code == 0 and out == "0 1 0 1\n0 0 1 1\n"
        code, out, _ = run_cli("matrix", "--n", "2", "--which", "Z")
        assert out == "-1 1 -1 1\n-1 -1 1 1\n"
        code, out, _ = run_cli("matrix", "--n", "2", "--which", "K")
        assert out == "1 0\n0 -1\n0 -1\n0 1\n"
        code, out, _ = run_cli("matrix", "--n", "3", "--which", "c")
        assert out == "1 -1 -1 -1 -2\n"

    def test_matrix_many_valued_c(self):
        code, out, _ = run_cli("matrix", "--n", "1", "--k", "3", "--which", "c")
        assert code == 0 and out == "1/2 -1/2\n"

    def test_matrix_json(self):
        code, out, _ = run_cli("matrix", "--n", "1", "--which", "W", "--json")
        payload = json.loads(out)
        assert payload["rows"] == [["0", "1"]]

    def test_matrix_bias_needs_classical(self):
        code, _, err = run_cli("matrix", "--n", "1", "--k", "3", "--which", "Z")
        assert code == 2 and "classical" in err


class TestExitCodes:
    def test_missing_file(self):
        code, _, err = run_cli("solve", "does-not-exist.psat")
        assert code == 2 and "error" in err

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n2 0\n")
        code, _, err = run_cli("solve", str(bad))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize(
        "goal, message",
        (
            ("x", "bad goal literal 'x'"),
            ("00", "goal literal 0 out of range for 2 variables"),
            (",", "empty goal clause"),
        ),
    )
    def test_goal_literal_errors(self, goal, message):
        code, out, err = run_cli("entail", fixture_path("nilsson.psat"), "--goal", goal)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_header_with_glued_p(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("pfoo cnf 2 1\n1 2 0\n")
        code, out, err = run_cli("sat", str(bad))
        assert (code, out, err) == (2, "", "error: line 1: unknown header format\n")

    def test_clause_literal_error(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\nx 0\n")
        code, out, err = run_cli("solve", str(bad))
        assert (code, out, err) == (2, "", "error: line 2: bad literal 'x'\n")

    def test_unknown_command(self):
        code, _, err = run_cli("nonsense")
        assert code == 2

    def test_no_command(self):
        code, _, err = run_cli()
        assert code == 2

    def test_help_goes_to_the_given_stream(self, capsys):
        code, out, err = run_cli("solve", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: psat solve ")
        assert capsys.readouterr().out == ""

    def test_guard_exit(self, tmp_path):
        code, _, err = run_cli(
            "solve", fixture_path("three.cnf"), "--max-columns", "4"
        )
        assert code == 3 and "guard" in err
        assert "needs 8 columns" in err
        # 2^20000 has too many digits to print; 3^300000000 takes minutes to compute.
        wide = tmp_path / "wide.cnf"
        wide.write_text("p cnf 20000 1\n1 0\n")
        code, _, err = run_cli("solve", wide)
        assert code == 3 and "needs 2^20000 columns" in err
        huge = tmp_path / "huge.psatk"
        huge.write_text("p psatk 300000000 1 3\n1 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "psatkit", "solve", str(huge)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=20,
        )
        assert proc.returncode == 3 and "needs 3^300000000 columns" in proc.stderr
        # matrix K is dense, so its guard counts entries
        code, out, err = run_cli("matrix", "--n", "9", "--which", "K")
        assert code == 3 and out == ""
        assert "needs 257536 entries but the guard allows 65536" in err
        code, out, _ = run_cli("matrix", "--n", "9", "--which", "K", "--max-columns", "257536")
        assert code == 0 and len(out.splitlines()) == 2**9
        # 2^16 x (2^16 - 16) cells would exhaust memory, so the child runs under
        # a 1 GB address-space cap: a missing guard fails the test, not the host.
        argv = [sys.executable, "-m", "psatkit", "matrix", "--n", "16", "--which", "K"]
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=subprocess_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "entries but the guard allows 65536" in proc.stderr

    def test_column_guard_below_one_is_a_usage_error(self):
        for limit in ("0", "-5"):
            code, out, err = run_cli(
                "matrix", "--n", "2", "--which", "K", "--max-columns", limit
            )
            assert code == 2 and out == "", limit
            assert "--max-columns" in err and "at least 1" in err, limit

    def test_raising_guard_warns(self):
        code, out, err = run_cli(
            "matrix",
            "--n",
            "2",
            "--which",
            "W",
            "--max-columns",
            str(SOLVE_COLUMN_GUARD + 1),
        )
        assert code == 0
        assert "warning" in err

    def test_lowering_guard_is_silent(self):
        code, out, err = run_cli(
            "matrix", "--n", "2", "--which", "W", "--max-columns", "1024"
        )
        assert code == 0 and err == ""


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        commands = [
            ("solve", str(fixture_path("nilsson.psat"))),
            ("solve", str(fixture_path("bounds.psat")), "--json"),
            ("entail", str(fixture_path("nilsson.psat")), "--goal", "2"),
            ("coherence", "3/10,3/5"),
            ("verify", str(fixture_path("nilsson.psat")), "--goal", "2"),
            ("matrix", "--n", "3", "--which", "K"),
        ]
        for argv in commands:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second, argv

    def test_subprocess_matches_in_process(self):
        argv = ["entail", str(fixture_path("nilsson.psat")), "--goal", "2"]
        code, out, _ = run_cli(*argv)
        proc = subprocess.run(
            [sys.executable, "-m", "psatkit", *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == code
        assert proc.stdout == out


def test_cli_reaches_the_lp_only_through_problems():
    # So verify's LP side is the code that solve and entail run.
    imported = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("rational_lp" in name for name in imported)
    assert "clause_problem" not in imported
