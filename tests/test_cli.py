"""Command line interface: every subcommand plus the size ceiling."""

import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

import ncfree
from ncfree.annular import AnnulusShape, element_record, enumerate_nc, enumerate_psnc, enumerate_snc
from ncfree.cli import main
from ncfree.verify import CheckResult


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


class TestEnumerate:
    def test_disc(self):
        res = run("enumerate", "nc", "3")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1] == {"count": 5}
        assert {"perm": "(1,2,3)"} in records[:-1]
        assert len(records) == 6

    def test_annular_golden(self):
        res = run("enumerate", "snc", "2", "1")
        assert res.exit_code == 0
        records = [json.loads(line) for line in res.output.strip().splitlines()]
        assert records[-1] == {"count": 4}
        perms = {rec["perm"] for rec in records[:-1]}
        assert perms == {"(1)(2,3)", "(1,2,3)", "(1,3,2)", "(1,3)(2)"}

    def test_partitioned(self):
        res = run("enumerate", "psnc", "1", "1")
        assert res.exit_code == 0
        records = [json.loads(line) for line in res.output.strip().splitlines()]
        assert records[-1] == {"count": 2}
        assert {"perm": "(1,2)", "partition": [[1, 2]], "kind": "disc"} in records
        assert {"perm": "(1)(2)", "partition": [[1, 2]], "kind": "tunnel"} in records

    def test_lines_are_the_json_dumps_of_each_record(self):
        # json.dumps of each element's record is the oracle for every line.
        def dumps(record):
            return json.dumps(record, separators=(", ", ": "))

        cases = [(("nc", n), enumerate_nc(n)) for n in range(1, 8)]
        for total in range(2, 8):
            for p in range(1, total):
                shape = AnnulusShape(p, total - p)
                cases.append((("snc", p, total - p), enumerate_snc(shape)))
                cases.append((("psnc", p, total - p), enumerate_psnc(shape)))
        for (kind, *sizes), family in cases:
            res = run("enumerate", kind, *map(str, sizes))
            assert res.exit_code == 0
            if kind == "psnc":
                want = [dumps(element_record(vp)) for vp in family]
            else:
                want = [dumps({"perm": a.cycle_string()}) for a in family]
            want.append(dumps({"count": len(family)}))
            assert res.output.splitlines() == want, (kind, sizes)

    # sha256 of the whole output, count line included: the benchmark's frozen digests
    DIGESTS = {
        "nc 7": "0d618adb4eec7e8a9718c2e7682c630228caaadc086b825d63aee5cde74a926d",
        "snc 3 4": "d43f132f8f923ab7e5eefbf5f51f73359dcf11ad0b17b57deb7f159f0d332540",
        "snc 4 3": "14c322a68111609e5f3461b5b7768a729360780e795ecd0af15b0f8afccf3ac9",
        "psnc 3 4": "e7ab29e27fa7c107caf2656cf048fd4e2c97b5336aa56fea66581087950a3e55",
        "psnc 4 4": "1a03440ce046ebb1946fd7c60658e13c188c647b55730751fdc59d8d142b81d7",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS))
    def test_output_digests(self, argv):
        res = run("enumerate", *argv.split())
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == self.DIGESTS[argv]

    def test_output_digest_past_the_frozen_totals(self):
        # psnc 4 6 fills the total-10 pools first, so psnc 5 5 takes partitions from them
        enumerate_psnc(AnnulusShape(4, 6))
        res = run("enumerate", "psnc", "5", "5")
        assert res.exit_code == 0
        digest = "7d9d51c9be5c2bad15713a43d6e1a79d92c4fd24e1452ad0c0f3a3b413731c2a"
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    def test_size_arity(self):
        assert run("enumerate", "nc", "2", "1").exit_code != 0
        assert run("enumerate", "snc", "2").exit_code != 0


class TestCeiling:
    def test_default(self):
        res = run("enumerate", "nc", "13")
        assert res.exit_code != 0
        assert "ceiling 12" in res.output

    def test_environment_override(self):
        env = {"NCFREE_MAX_TOTAL": "5"}
        assert run("enumerate", "nc", "6", env=env).exit_code != 0
        assert run("enumerate", "nc", "5", env=env).exit_code == 0

    def test_counts_respects_ceiling(self):
        assert run("counts", "--max-total", "13").exit_code != 0


class TestOneLimit:
    """``annular._check_bound`` is the only size check; the CLI reports its refusals."""

    def test_error_lines(self):
        cases = [
            (("enumerate", "nc", "13"), None,
             "requested size 13 exceeds the ceiling 12 (override with NCFREE_MAX_TOTAL)"),
            (("enumerate", "nc", "0"), None, "sizes must be at least 1"),
            (("counts", "--max-total", "0"), None, "sizes must be at least 1"),
            (("table", "1", "0"), None, "sizes must be at least 1"),
            (("verify", "lemmas", "--max", "6"), {"NCFREE_MAX_TOTAL": "5"},
             "requested size 6 exceeds the ceiling 5 (override with NCFREE_MAX_TOTAL)"),
        ]
        for args, env, message in cases:
            res = run(*args, env=env)
            assert (res.exit_code, res.output) == (1, f"Error: {message}\n"), args

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("abc", "NCFREE_MAX_TOTAL must be an integer, got 'abc'"),
            ("0", "NCFREE_MAX_TOTAL must be at least 1"),
        ],
    )
    def test_malformed_environment(self, monkeypatch, raw, message):
        res = run("enumerate", "nc", "1", env={"NCFREE_MAX_TOTAL": raw})
        assert (res.exit_code, res.output) == (1, f"Error: {message}\n")
        monkeypatch.setenv("NCFREE_MAX_TOTAL", raw)
        with pytest.raises(ValueError) as info:
            enumerate_nc(1)
        assert str(info.value) == message

    def test_a_raised_ceiling_reaches_every_command(self, monkeypatch):
        # With the library's default below NCFREE_MAX_TOTAL, these used to exit 1
        # on "enumeration size 5 exceeds the bound 4" after every smaller shape.
        monkeypatch.setattr("ncfree.annular.ENUMERATION_BOUND", 4)
        env = {"NCFREE_MAX_TOTAL": "5"}
        commands = [
            ("table", "2", "3"),
            ("table", "2", "3", "--direction", "kappa-in-alpha"),
            *(("verify", suite, "--max", "5") for suite in ("ks", "main-theorem", "haar")),
        ]
        for args in commands:
            res = run(*args, env=env)
            assert res.exit_code == 0, (args, res.output)
        assert "ceiling 4 " in run("table", "2", "3").output

    def test_a_suite_default_past_the_ceiling_is_an_error_line(self):
        res = run("verify", "ks", env={"NCFREE_MAX_TOTAL": "5"})
        assert (res.exit_code, res.output) == (
            1, "Error: requested size 8 exceeds the ceiling 5 (override with NCFREE_MAX_TOTAL)\n"
        )


# one library call behind each command, and the command that reaches it
_CALLS = [
    ("ncfree.cli.element_lines", ("enumerate", "nc", "2")),
    ("ncfree.cli.snc_closed_form", ("counts", "--max-total", "2")),
    ("ncfree.cli.CumulantPolynomial.from_symbol", ("table", "1", "1")),
    ("ncfree.cli.run_suite", ("verify", "ks")),
    ("ncfree.cli.render_svg", ("draw", "(1,2)", "--shape", "1", "1", "--out", "unused.svg")),
]


class TestErrorHandler:
    """The group reports a command's ``ValueError`` as one error line; nothing else."""

    @pytest.mark.parametrize("target, args", _CALLS)
    def test_a_value_error_is_an_error_line(self, monkeypatch, target, args):
        def refuse(*_args, **_kwargs):
            raise ValueError("refused by the library")

        monkeypatch.setattr(target, refuse)
        res = run(*args)
        assert res.exit_code == 1 and type(res.exception) is SystemExit
        # the error is the last line: counts prints its header first
        assert res.output.splitlines()[-1] == "Error: refused by the library"

    @pytest.mark.parametrize("target, args", _CALLS)
    def test_other_exceptions_propagate(self, monkeypatch, target, args):
        def broken(*_args, **_kwargs):
            raise TypeError("a bug, not a refusal")

        monkeypatch.setattr(target, broken)
        res = run(*args)
        assert type(res.exception) is TypeError
        assert "Error:" not in res.output


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_group(self):
        # Used to exit 0 with empty output: the module had no __main__ block.
        src = str(Path(ncfree.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ncfree.cli", "counts", "--max-total", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["p,q,count", "1,1,1", "1,2,4", "2,1,4"]


class TestCounts:
    def test_csv_golden(self):
        res = run("counts", "--max-total", "4")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "p,q,count",
            "1,1,1",
            "1,2,4",
            "2,1,4",
            "1,3,15",
            "2,2,18",
            "3,1,15",
        ]

    def test_closed_form_rows_up_to_the_ceiling(self):
        # Used to fail above total 10: the counts came from enumeration.
        res = run("counts", "--max-total", "12")
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert len(lines) == 67 and lines[0] == "p,q,count"
        want = [
            f"{p},{t - p},{2 * p * (t - p) * comb(2 * p - 1, p) * comb(2 * (t - p) - 1, t - p) // t}"
            for t in range(2, 13)
            for p in range(1, t)
        ]
        assert lines[1:] == want


class TestTable:
    def test_latex_golden(self):
        res = run("table", "1", "1")
        assert res.exit_code == 0
        assert res.output.strip() == "\\alpha_{1,1} = \\kappa_{1,1} + \\kappa_2"

    def test_rows_cover_ordered_shapes(self):
        res = run("table", "2", "2")
        assert res.exit_code == 0
        heads = [line.split(" = ")[0] for line in res.output.strip().splitlines()]
        assert heads == ["\\alpha_{1,1}", "\\alpha_{1,2}", "\\alpha_{2,2}"]

    def test_json_golden(self):
        res = run("table", "1", "1", "--format", "json")
        assert json.loads(res.output) == {
            "p": 1,
            "q": 1,
            "direction": "alpha-in-kappa",
            "terms": [
                {"coeff": 1, "monomial": ["k1,1"]},
                {"coeff": 1, "monomial": ["k2"]},
            ],
        }

    def test_inverse_direction(self):
        res = run("table", "1", "1", "--direction", "kappa-in-alpha")
        assert (
            res.output.strip()
            == "\\kappa_{1,1} = \\alpha_{1,1} + \\alpha_1^2 - \\alpha_2"
        )

    # sha256 of the whole output of ``table 4 4``, per direction and format
    DIGESTS = {
        ("alpha-in-kappa", "latex"): "a32d2db7b211c12ba58f6ac3bc40dc2c1d3bb2ffd3dad54a1b880ae741f1b058",
        ("alpha-in-kappa", "json"): "c93004124780b0465fe9cef9c62756581ceb2fcf58ddb1ce7baf8e7d407436e1",
        ("kappa-in-alpha", "latex"): "08ce15a35a2236b4e36f111d9a7da18eb7517463a65e7286e3f895a78ce2db5e",
        ("kappa-in-alpha", "json"): "9bf3756b07f6839967af5ddf2fd1224fa7932f5f8b2509e9cd7339dba56e5d3f",
    }

    @pytest.mark.parametrize("direction, fmt", list(DIGESTS))
    def test_output_digests(self, direction, fmt):
        res = run("table", "4", "4", "--direction", direction, "--format", fmt)
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == self.DIGESTS[direction, fmt]


class TestVerify:
    def test_text_output(self):
        res = run("verify", "mobius", "--max", "5")
        assert res.exit_code == 0
        assert res.output.startswith("PASS  ")
        assert "1/1 checks passed" in res.output

    def test_json_output(self):
        res = run("verify", "mobius", "--max", "5", "--format", "json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert len(payload) == 1
        assert payload[0]["passed"] is True
        assert payload[0]["cases"] == 10

    def test_unknown_suite_is_rejected(self):
        assert run("verify", "nope").exit_code != 0

    def test_jobs_must_be_positive(self):
        res = run("verify", "mobius", "--jobs", "0")
        assert (res.exit_code, res.output) == (1, "Error: jobs must be at least 1, got 0\n")

    @pytest.mark.parametrize("suite, ceiling", [("semicircular", 12), ("mobius", 9)])
    def test_a_bound_past_the_ceiling_clamps(self, suite, ceiling):
        # Both used to be refused at --max 13, against what README says.
        above = run("verify", suite, "--max", "13", "--format", "json")
        at = run("verify", suite, "--max", str(ceiling), "--format", "json")
        assert (above.exit_code, at.exit_code) == (0, 0), above.output
        strip = lambda out: [{**r, "seconds": None} for r in json.loads(out)]
        assert strip(above.output) == strip(at.output)
        assert [r["passed"] for r in json.loads(above.output)] == [True]

    def test_a_failing_check_exits_1(self, monkeypatch):
        failing = [CheckResult("broken check", False, 1, 0.0, "case 7")]
        monkeypatch.setattr("ncfree.cli.run_suite", lambda *args: failing)
        text = run("verify", "ks")
        assert (text.exit_code, text.output) == (
            1, "FAIL  broken check  (1 cases, 0.00s)  [case 7]\n0/1 checks passed\n"
        )
        payload = run("verify", "ks", "--format", "json")
        assert payload.exit_code == 1
        assert json.loads(payload.output) == [failing[0].to_json_obj()]

    def test_order_suite_small(self):
        res = run("verify", "order", "--max", "4")
        assert res.exit_code == 0
        assert "3/3 checks passed" in res.output

    def test_order_suite_below_total_3(self):
        for bound in ("1", "2"):
            res = run("verify", "order", "--max", bound)
            assert res.exit_code == 0, res.output
            assert "3/3 checks passed" in res.output

    @pytest.mark.parametrize("suite", ["haar", "main-theorem"])
    def test_a_suite_that_checks_nothing_fails(self, suite):
        res = run("verify", suite, "--max", "1")
        assert res.exit_code == 1
        assert f"suite {suite} checks nothing at --max 1" in res.output
        assert "checks passed" not in res.output

    def test_a_suite_with_one_check_at_bound_1_passes(self):
        res = run("verify", "ks", "--max", "1")
        assert res.exit_code == 0
        assert "1/1 checks passed" in res.output

    def test_squares_suite_ceiling(self, monkeypatch):
        # Refused before any cell runs: the (7,7) cell alone would need some 13 GB.
        def no_cell(*args):
            raise AssertionError("a refused suite started a cell")

        message = (
            "Error: semicircular-square runs to a bound of at most 6: "
            "its cells hold every annular pairing of 2(p+q) points\n"
        )
        with monkeypatch.context() as patch:
            for cell in ("_product_cell", "_square_cell", "_haar_cell", "_run_check",
                         "check_fluctuations", "check_mobius_recurrence"):
                patch.setattr(f"ncfree.verify.{cell}", no_cell)
            for suite in ("semicircular-square", "all"):
                res = run("verify", suite, "--max", "7")
                assert (res.exit_code, res.output) == (1, message)
        res = run("verify", "semicircular-square", "--max", "1")
        assert res.exit_code == 0
        assert "1/1 checks passed" in res.output


class TestDraw:
    def test_writes_deterministic_svg(self, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ("draw", "(1,3)(2,4)", "--shape", "2", "2")
        assert run(*args, "--out", str(out1)).exit_code == 0
        assert run(*args, "--out", str(out2)).exit_code == 0
        data = out1.read_text()
        assert data == out2.read_text()
        assert data.startswith("<?xml")
        assert "<svg" in data
        assert data.count("<path") == 2

    def test_empty_perm_is_identity(self, tmp_path):
        out = tmp_path / "id.svg"
        res = run("draw", "", "--shape", "1", "1", "--out", str(out))
        assert res.exit_code == 0
        # Two fixed points, no cycle outlines.
        assert out.read_text().count("<path") == 0

    def test_partition_connector(self, tmp_path):
        out = tmp_path / "glued.svg"
        res = run(
            "draw",
            "(1,2)(3)",
            "--shape",
            "2",
            "1",
            "--partition",
            "[[1,2,3]]",
            "--out",
            str(out),
        )
        assert res.exit_code == 0
        assert 'stroke-dasharray' in out.read_text()

    def test_no_ceiling(self, tmp_path):
        # Drawing enumerates nothing; this README example used to fail
        # under any ceiling below 12.
        out = tmp_path / "readme.svg"
        res = run(
            "draw", "(1,2,12,9,8)(3,4)(5,10,11)(6)(7)", "--shape", "8", "4",
            "--out", str(out), env={"NCFREE_MAX_TOTAL": "11"},
        )
        assert res.exit_code == 0, res.output
        assert out.read_text().startswith("<?xml")

    @pytest.mark.parametrize(
        "partition", ["5", "[1,2,3]", '[[1,"a"]]', '[["1","2","3"]]', '{"a":1}', "[[true,2,3]]"]
    )
    def test_partition_must_be_lists_of_integers(self, tmp_path, partition):
        # Each used to end in a TypeError traceback, but true, which was read as point 1.
        res = run(
            "draw", "(1,2)(3)", "--shape", "2", "1",
            "--partition", partition, "--out", str(tmp_path / "bad.svg"),
        )
        assert res.exit_code == 1
        assert "Error: --partition must be a JSON list of lists of integers" in res.output
        assert type(res.exception) is SystemExit

    def test_rejects_bad_input(self, tmp_path):
        out = str(tmp_path / "bad.svg")
        oversized = run("draw", "(1,5)(2,4)", "--shape", "2", "2", "--out", out)
        assert oversized.exit_code != 0 and "outside" in oversized.output
        malformed = run("draw", "(1,3)(2", "--shape", "2", "1", "--out", out)
        assert malformed.exit_code != 0 and "malformed" in malformed.output
        loose_block = run(
            "draw", "(1,2)(3)", "--shape", "2", "1",
            "--partition", "[[1],[2,3]]", "--out", out,
        )
        assert loose_block.exit_code != 0 and "block" in loose_block.output
        empty_circle = run("draw", "", "--shape", "0", "2", "--out", out)
        assert empty_circle.exit_code != 0 and "at least 1" in empty_circle.output
