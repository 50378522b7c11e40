"""Command-line interface: grammar, exit codes, formats, determinism, report
schema."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqchow
from eqchow import cli
from eqchow.cli import MAX_RANK, MAX_TWIST, run

BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_m01_succeeds(self, capsys):
        code, out, _ = capture(capsys, ["m01"])
        assert code == 0
        assert "4*c3" in out

    def test_usage_error_on_missing_args(self, capsys):
        code, _, err = capture(capsys, ["quadrics", "--n", "3"])
        assert code == 1 and "usage" in err

    def test_usage_error_on_low_max_degree(self, capsys):
        for n, k, bound in (("2", "5", "1"), ("4", "1", "8")):
            argv = ["quadrics", "--n", n, "--k", k, "--max-degree", bound]
            code, _, err = capture(capsys, argv)
            assert code == 1 and "max-degree" in err and "usage" in err

    def test_max_degree_floor_is_maximal_generator_degree(self, capsys):
        # quadrics n=4, k=1 has generators up to degree C(4,2) + 4 - 1 = 9
        code, out, _ = capture(capsys, ["quadrics", "--n", "4", "--k", "1", "--max-degree", "9"])
        assert code == 0 and "certified up to degree 9" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["pushforward", "--n", "3", "--r", "1", "--max-degree", "0"],
            ["pushforward", "--n", "3", "--r", "1", "--max=9"],
            ["verify-all", "--max-degree", "12"],
        ],
        ids=" ".join,
    )
    def test_max_degree_rejected_where_nothing_is_certified(self, argv, capsys, monkeypatch):
        # a degree bound these commands would not use is a usage error, given
        # before anything runs
        monkeypatch.setattr(cli, "run_verify_all", lambda: 1 // 0)
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"eqchow: error: {argv[0]} takes no --max-degree\n{USAGE}"

    def test_usage_error_on_small_rank(self, capsys):
        code, _, err = capture(capsys, ["orthogonal", "--n", "1", "--k", "0"])
        assert code == 1

    def test_desk_limit_requires_force(self, capsys):
        code, _, err = capture(capsys, ["orthogonal", "--n", "7", "--k", "0"])
        assert code == 1 and "--force" in err

    def test_force_lifts_desk_limit(self, capsys):
        code, out, _ = capture(capsys, ["orthogonal", "--n", "7", "--k", "0", "--force"])
        assert code == 0

    def test_unwritable_out_is_an_error(self, capsys, tmp_path):
        for path in (tmp_path / "missing" / "x", tmp_path, ""):
            code, out, err = capture(capsys, ["m01", "--out", str(path)])
            assert code == 1 and out == ""
            assert err.startswith(f"eqchow: error: cannot write {path}: ")
            assert err.count("\n") == 1

    def test_out_checked_before_computing(self, capsys, tmp_path, monkeypatch):
        import eqchow.cli as cli

        def boom():
            raise AssertionError("verify-all ran before --out was checked")

        monkeypatch.setattr(cli, "run_verify_all", boom)
        path = tmp_path / "missing" / "x"
        code, out, err = capture(capsys, ["verify-all", "--out", str(path)])
        assert code == 1 and out == ""
        assert err == f"eqchow: error: cannot write {path}: No such file or directory\n"

    def test_out_below_a_regular_file_is_an_error(self, capsys, tmp_path, monkeypatch):
        def boom(max_degree=None):
            raise AssertionError("m01 ran before --out was checked")

        monkeypatch.setattr(cli, "m01", boom)
        regular = tmp_path / "f"
        regular.write_text("")
        path = regular / "x"
        code, out, err = capture(capsys, ["m01", "--out", str(path)])
        assert (code, out) == (1, "")
        assert err == f"eqchow: error: cannot write {path}: {os.strerror(errno.ENOTDIR)}\n"

    def test_usage_error_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "x"
        argv = ["quadrics", "--n", "4", "--k", "1", "--max-degree", "8"]
        code, _, _ = capture(capsys, argv + ["--out", str(path)])
        assert code == 1 and not path.exists()

    def test_unknown_command(self, capsys):
        code, _, _ = capture(capsys, ["frobnicate"])
        assert code == 1

    def test_verification_failure_exits_2_with_report(self, capsys, monkeypatch):
        import eqchow.cli as cli
        from eqchow.pipeline import VerificationFailure

        def boom(max_degree=None):
            raise VerificationFailure("induced", {"name": "synthetic", "equal": False})

        monkeypatch.setattr(cli, "m01", boom)
        code, out, _ = capture(capsys, ["m01", "--format", "json"])
        assert code == 2
        assert json.loads(out)["verification_failure"]["name"] == "synthetic"

    def test_unexpected_error_exits_2_with_report(self, capsys, monkeypatch):
        import eqchow.cli as cli
        from eqchow.localization import InternalInconsistency

        def boom(n, r):
            raise InternalInconsistency("induced")

        monkeypatch.setattr(cli, "veronese_pushforward", boom)
        argv = ["pushforward", "--n", "3", "--r", "1", "--format", "json"]
        code, out, err = capture(capsys, argv)
        assert code == 2 and err == ""
        record = json.loads(out)["verification_failure"]
        assert record["name"] == "unexpected-error"
        assert record["error"] == "InternalInconsistency: induced"
        assert "Traceback" in record["traceback"]

    def test_failed_root_check_exits_2_with_report(self, capsys, monkeypatch):
        # a wrong staircase is caught inside chern_polynomial, below any
        # pipeline check, and still ends as a failed check's record
        from eqchow import symfunc

        staircase = symfunc._staircase
        monkeypatch.setattr(symfunc, "_staircase", lambda e: staircase(e) * 3)
        symfunc.chern_polynomial.cache_clear()
        try:
            code, out, err = capture(capsys, ["quadrics", "--n", "3", "--k", "1"])
        finally:
            symfunc.chern_polynomial.cache_clear()
        assert code == 2 and err == ""
        assert out.startswith("verification failure: ArithmeticError: c_H(Sym2(E*))")


# The argparse grammar the CLI had before its command table, kept as the
# reference its parser must agree with.
class _ReferenceError(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceError(message)


def build_parser() -> _ReferenceParser:
    parser = _ReferenceParser(prog="eqchow", description="Command-line front end.")
    version = f"eqchow {eqchow.__version__}"
    parser.add_argument("--version", action="version", version=version)
    common = _ReferenceParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "latex"), default=None)
    common.add_argument("--max-degree", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--force", action="store_true")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_ReferenceParser
    )
    sub.add_parser("m01", parents=[common])
    p = sub.add_parser("quadrics", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("orthogonal", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("pushforward", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    sub.add_parser("verify-all", parents=[common])
    return parser


def _validate(args) -> None:
    n = getattr(args, "n", None)
    k = getattr(args, "k", None)
    r = getattr(args, "r", None)
    if n is not None and n < 2:
        raise _ReferenceError("--n must be at least 2")
    if k is not None and k < 0:
        raise _ReferenceError("--k must be non-negative")
    if r is not None and not 0 <= r <= (n - 1):
        raise _ReferenceError("--r must satisfy 0 <= r <= n-1")
    if not args.force:
        if n is not None and n > MAX_RANK:
            raise _ReferenceError(
                f"--n {n} exceeds the desk-scale limit {MAX_RANK}; pass --force"
            )
        if k is not None and k > MAX_TWIST:
            raise _ReferenceError(
                f"--k {k} exceeds the desk-scale limit {MAX_TWIST}; pass --force"
            )


def _reference(argv):
    """What the reference makes of argv: "help", "version", "error", or the
    command and option values by option name."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = build_parser().parse_args(argv)
        _validate(args)
    except _ReferenceError:
        return "error"
    except SystemExit:
        return "version" if printed.getvalue().startswith("eqchow ") else "help"
    values = vars(args)
    values["max-degree"] = values.pop("max_degree")
    return values


def _table(argv):
    """The same for the CLI's command-table parser."""
    try:
        values = cli._parse(list(argv))
    except cli._UsageError:
        return "error"
    return values["command"][2:] if values["command"].startswith("--") else values


USAGE = (
    "usage: eqchow {m01 | quadrics --n N --k K | orthogonal --n N --k K"
    " | pushforward --n N --r R | verify-all}"
    " [--format text|json|latex] [--max-degree D] [--out PATH] [--force]\n"
)
QN = ["quadrics", "--n", "3", "--k", "1"]
GRAMMAR_CASES = [
    # every command
    ["m01"],
    QN,
    ["orthogonal", "--n", "4", "--k", "0"],
    ["pushforward", "--n", "3", "--r", "2"],
    ["verify-all"],
    # exact, =, prefixed, ambiguous and repeated options
    ["m01", "--format", "json", "--max-degree", "12", "--out", "x.txt", "--force"],
    ["m01", "--format=latex", "--max-degree=12", "--out=x.txt"],
    ["quadrics", "--n=3", "--k=1"],
    ["quadrics", "--k", "1", "--n", "3"],
    ["m01", "--form", "json", "--forc", "--m", "9", "--o", "y"],
    ["m01", "--max", "9", "--form=text", "--o=y"],
    ["m01", "--fo", "json"],
    ["m01", "--for", "json"],
    ["m01", "--f"],
    ["m01", "--fo=json"],
    ["quadrics", "--n", "3", "--n", "4", "--k", "1"],
    ["m01", "--format", "json", "--format=text"],
    ["m01", "--out=x", "--out", "y"],
    ["m01", "--force", "--force"],
    # negative, non-integer and empty values
    ["quadrics", "--n", "-3", "--k", "1"],
    ["quadrics", "--n=-3", "--k", "1"],
    ["quadrics", "--n", "3", "--k", "-1"],
    ["pushforward", "--n", "3", "--r", "-1"],
    ["pushforward", "--n", "3", "--r", "3"],
    ["m01", "--max-degree", "-5"],
    ["quadrics", "--n", "x", "--k", "1"],
    ["quadrics", "--n", "3.0", "--k", "1"],
    ["quadrics", "--n", "-3.5", "--k", "1"],
    ["quadrics", "--n", " 3", "--k", "+1"],
    ["quadrics", "--n", "", "--k", "1"],
    ["quadrics", "--n=", "--k", "1"],
    ["m01", "--max-degree", "1e3"],
    ["m01", "--out", ""],
    ["m01", "--out="],
    ["m01", "--out", "-"],
    ["m01", "--out", "-2"],
    ["m01", "--out", "-.5"],
    ["m01", "--out", "-a b"],
    ["m01", "--out", "--a b"],
    ["m01", "--out=-x"],
    ["m01", "--out", "-x"],
    ["m01", "--out", "--force"],
    ["m01", "--out", "--fo"],
    ["m01", "--out", "--format=a b"],
    ["m01", "--out", "--"],
    ["m01", "--out"],
    ["m01", "--format", ""],
    ["m01", "--format", "JSON"],
    ["m01", "--format", "js"],
    ["m01", "--force=1"],
    ["m01", "--force="],
    # stray tokens and another command's options
    ["m01", "extra"],
    ["m01", "3"],
    ["m01", "-x"],
    ["m01", "-"],
    ["m01", "--"],
    ["m01", "--bogus"],
    [*QN, "4"],
    ["m01", "--n", "3"],
    [*QN, "--r", "1"],
    ["pushforward", "--n", "3", "--r", "1", "--k", "1"],
    ["m01", "--version"],
    ["--format", "json", "m01"],
    # missing required options and commands
    ["quadrics"],
    ["quadrics", "--n", "3"],
    ["pushforward", "--r", "1"],
    ["frobnicate"],
    ["M01"],
    ["m0"],
    # range checks and the desk-scale limits
    ["orthogonal", "--n", "1", "--k", "0"],
    ["orthogonal", "--n", "7", "--k", "0"],
    ["orthogonal", "--n", "7", "--k", "0", "--force"],
    ["quadrics", "--n", "3", "--k", "6"],
    ["quadrics", "--n", "3", "--k", "6", "--forc"],
    ["quadrics", "--n", "9", "--k", "-1", "--force"],
    ["pushforward", "--n", "7", "--r", "6"],
    ["pushforward", "--n", "7", "--r", "6", "--force"],
    # -h/--help at any position, --version and the empty argv
    ["-h"],
    ["--help"],
    ["--he"],
    ["m01", "-h"],
    ["m01", "--h"],
    ["quadrics", "--help"],
    [*QN, "--format", "json", "-h"],
    ["quadrics", "-h", "--n", "x"],
    ["m01", "extra", "-h"],
    ["--bogus", "--help"],
    ["-h", "--version"],
    ["--version"],
    ["--vers"],
    ["--version", "m01"],
    ["--version", "-h"],
    ["--version=1"],
    [],
]


class TestGrammar:
    @pytest.mark.parametrize("argv", GRAMMAR_CASES, ids=" ".join)
    def test_table_parser_agrees_with_argparse(self, argv):
        assert _table(argv) == _reference(argv)

    def test_usage_line_is_unchanged(self):
        assert cli.USAGE == USAGE

    @pytest.mark.parametrize(
        "argv", [a for a in GRAMMAR_CASES if _reference(a) == "error"], ids=" ".join
    )
    def test_usage_error_exits_1_with_the_usage_line(self, argv, capsys, tmp_path):
        # --out into an empty directory, so no accepted prefix writes here
        code, out, err = capture(capsys, [*argv, "--out", str(tmp_path / "x")])
        assert (code, out) == (1, "")
        assert err.startswith("eqchow: error: ") and err.endswith(USAGE)

    @pytest.mark.parametrize("argv", [["-h"], ["m01", "--out", "x", "--help"]])
    def test_help_prints_the_module_docstring(self, argv, capsys):
        assert capture(capsys, argv) == (0, cli.__doc__, "")

    def test_version(self, capsys):
        assert capture(capsys, ["--version"]) == (0, "eqchow 0.1.0\n", "")

    def test_the_package_metadata_reads_the_one_version_string(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(BENCH_EXPECTED.parents[1] / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        version = project["tool"]["setuptools"]["dynamic"]["version"]
        assert version == {"attr": "eqchow.__version__"}


class TestFormats:
    def test_m01_latex_contains_quotient(self, capsys):
        code, out, _ = capture(capsys, ["m01", "--format", "latex"])
        assert code == 0
        assert "\\mathbb{Z}[c_{1}, c_{2}, c_{3}]" in out
        assert "4c_{3}" in out and "c_{1}^{2}c_{3}" in out

    def test_latex_is_balanced_and_standalone(self, capsys):
        for argv in (
            ["m01", "--format", "latex"],
            ["quadrics", "--n", "3", "--k", "1", "--format", "latex"],
            ["pushforward", "--n", "3", "--r", "0", "--format", "latex"],
        ):
            _, out, _ = capture(capsys, argv)
            assert out.startswith("\\documentclass")
            assert out.count("\\begin{document}") == out.count("\\end{document}") == 1
            for op, cl in (("{", "}"), ("[", "]"), ("\\left(", "\\right)")):
                assert out.count(op) == out.count(cl)

    def test_orthogonal_json_simplified(self, capsys):
        code, out, _ = capture(
            capsys, ["orthogonal", "--n", "4", "--k", "1", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["presentation"]["simplified"] == ["2*c1", "c1^2", "2*c3", "c1*c3"]

    def test_pushforward_text(self, capsys):
        code, out, _ = capture(capsys, ["pushforward", "--n", "3", "--r", "0"])
        assert code == 0
        assert "4*c3" in out and "4*H^3" in out

    def test_env_var_sets_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("EQCHOW_FORMAT", "json")
        code, out, _ = capture(capsys, ["m01"])
        assert code == 0
        assert json.loads(out)["command"] == "m01"

    def test_unknown_env_format_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("EQCHOW_FORMAT", "bogus")
        code, out, err = capture(capsys, ["m01"])
        assert (code, out) == (1, "")
        assert err == "eqchow: error: unknown format 'bogus' from EQCHOW_FORMAT\n"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQCHOW_FORMAT", "json")
        _, out, _ = capture(capsys, ["m01", "--format", "text"])
        assert out.startswith("Z[c1, c2, c3]")


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = capture(
                capsys, ["orthogonal", "--n", "4", "--k", "3", "--format", "json"]
            )
            runs.append(out)
        assert runs[0] == runs[1]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "pres.json"
        code, _, _ = capture(
            capsys, ["m01", "--format", "json", "--out", str(path)]
        )
        assert code == 0
        _, out, _ = capture(capsys, ["m01", "--format", "json"])
        assert path.read_text(encoding="utf-8") == out


class TestPresentationContent:
    def test_quadrics_provenance_replayable(self, capsys):
        _, out, _ = capture(
            capsys, ["quadrics", "--n", "3", "--k", "1", "--format", "json"]
        )
        from eqchow.pipeline import replay_provenance

        obj = json.loads(out)
        rebuilt = replay_provenance(obj["presentation"]["provenance"])
        assert [g.to_text() for g in rebuilt.relations.generators] == obj[
            "presentation"
        ]["relations"]

    def test_max_degree_override_recorded(self, capsys):
        _, out, _ = capture(
            capsys,
            ["orthogonal", "--n", "3", "--k", "1", "--max-degree", "9", "--format", "json"],
        )
        assert json.loads(out)["presentation"]["max_degree"] == 9


def test_outputs_match_recorded_digests(capsys):
    """The benchmark's recorded sha256 of each CLI output, ``--force`` jobs
    included, still matches, byte for byte."""
    expected = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
    assert len(expected) == 15
    for job, digest in expected.items():
        code, out, _ = capture(capsys, job.split())
        assert code == 0, job
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, job


@pytest.mark.parametrize(
    "seed, flags",
    [
        pytest.param(seed, flags, id=" ".join((seed, *flags)))
        for flags in ((), ("-O",))
        for seed in ("0", "12345")
    ],
)
@pytest.mark.parametrize(
    "job", ["m01 --format json", "orthogonal --n 5 --k 3 --format json"]
)
def test_output_digest_does_not_depend_on_the_hash_seed(job, seed, flags):
    """A fresh interpreter prints the recorded bytes whatever its string-hash
    seed, so no output depends on set or dict iteration over hashed keys, and
    under ``python -O`` too, so no output depends on an assert."""
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    env = dict(
        os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1"
    )
    code = "import sys, eqchow.cli; sys.exit(eqchow.cli.run(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *job.split()],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))[job]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected


# A fresh interpreter imports the CLI and runs one command with the given
# arguments; it prints the exit code, the modules the import added to those
# the interpreter started with (site's included) and the modules the command
# added after that.
START_UP = """
import sys
started = set(sys.modules)
import eqchow.cli
imported = set(sys.modules)
code = eqchow.cli.run(sys.argv[1:])
ran = set(sys.modules)
import json
print(json.dumps([code, sorted(imported - started), sorted(ran - imported)]))
"""
# Modules no pipeline command runs: the claim table and property suites of
# verify-all, the standard modules `inspect` and `dataclasses`, which no
# command needs, and argparse with the gettext and locale modules it loads.
NOT_AT_START_UP = {
    "dataclasses",
    "inspect",
    "eqchow.verify",
    "eqchow.properties",
    "argparse",
    "gettext",
    "locale",
}


def _fresh_run(argv, out):
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", START_UP, *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, imported, ran = json.loads(proc.stdout)
    return code, set(imported), set(ran)


# The package modules each pipeline command loads, all of them at import.
# ``eqchow/__init__`` imports every layer but verify and properties, so a
# command loads modules it never calls: orthogonal loads localization.  A
# lazy import that changes this must change the pin with it.
EVERY_LAYER = {
    "eqchow",
    "eqchow.cli",
    "eqchow.ideal",
    "eqchow.localization",
    "eqchow.pipeline",
    "eqchow.poly",
    "eqchow.symfunc",
}
PACKAGE_MODULES = {
    "m01": EVERY_LAYER,
    "quadrics": EVERY_LAYER,
    "orthogonal": EVERY_LAYER,
    "pushforward": EVERY_LAYER,
}
# The standard modules the package adds to a fresh interpreter's; any other
# (``array`` or ``struct``, say) would be a new cost at every start-up.
STANDARD_AT_START_UP = {
    "__future__",
    "heapq",
    "_heapq",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
    "_json",
}


class TestStartUp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["m01"],
            ["quadrics", "--n", "3", "--k", "1"],
            ["orthogonal", "--n", "3", "--k", "1"],
            ["pushforward", "--n", "3", "--r", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_pipeline_command_loads_only_what_it_runs(self, argv, tmp_path):
        code, imported, ran = _fresh_run(argv, tmp_path / "out")
        assert code == 0 and (tmp_path / "out").read_text()
        assert "eqchow.cli" in imported
        assert imported & NOT_AT_START_UP == set()
        assert ran & NOT_AT_START_UP == set()
        package = {m for m in imported | ran if m.split(".")[0] == "eqchow"}
        assert package == PACKAGE_MODULES[argv[0]]
        assert imported - package <= STANDARD_AT_START_UP
        assert ran == set()

    def test_verify_all_loads_the_claim_table_and_runs(self, tmp_path):
        from eqchow.verify import CLAIMS

        argv = ["verify-all", "--format", "json"]
        code, imported, ran = _fresh_run(argv, tmp_path / "out")
        assert imported & NOT_AT_START_UP == set()
        assert ran & NOT_AT_START_UP == {"eqchow.verify", "eqchow.properties"}
        report = json.loads((tmp_path / "out").read_text())
        assert code == 0 and report["all_passed"]
        assert len(report["checks"]) == len(CLAIMS)
