"""Command-line interface: exit codes, formats, determinism, report schema."""

import hashlib
import json
from pathlib import Path

from eqchow.cli import run

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

    def test_usage_error_on_small_rank(self, capsys):
        code, _, err = capture(capsys, ["orthogonal", "--n", "1", "--k", "0"])
        assert code == 1

    def test_desk_limit_requires_force(self, capsys):
        code, _, err = capture(capsys, ["orthogonal", "--n", "7", "--k", "0"])
        assert code == 1 and "--force" in err

    def test_force_lifts_desk_limit(self, capsys):
        code, out, _ = capture(capsys, ["orthogonal", "--n", "7", "--k", "0", "--force"])
        assert code == 0

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
    """The benchmark's recorded sha256 of each quick CLI output (neither
    ``--force`` nor ``quadrics``) still matches, byte for byte."""
    expected = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
    quick = {
        job: digest
        for job, digest in expected.items()
        if "--force" not in job.split() and job.split()[0] != "quadrics"
    }
    assert len(quick) == 8
    for job, digest in quick.items():
        code, out, _ = capture(capsys, job.split())
        assert code == 0, job
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, job
