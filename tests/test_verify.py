"""The aggregated verify-all report: content, schema, CLI wiring, and failure
reporting."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import eqchow
from eqchow.verify import CLAIMS, Claim, run_claim

# Two broken multiplications, each installed before the CLI runs as
# ``python -m eqchow.cli verify-all --format json`` would.  Dropping the
# smallest term of every product with two or more terms keeps leading terms;
# a zero product also collapses both sides of many comparisons and leaves the
# symmetric rewrite, which multiplies no polynomials, only constant inputs, so
# its suites must insist on a non-constant case.  Each maps to claims that
# must fail.
SABOTAGES = {
    "drop-smallest-term": (
        """
def wrong_mul(self, other):
    p = mul(self, other)
    if p is NotImplemented or len(p.terms) < 2:
        return p
    last = min(p.terms, key=term_key)
    return Polynomial({m: c for m, c in p.terms.items() if m != last})
""",
        ["m01-theorem-presentation", "property-ring-axioms"],
    ),
    "zero-product": (
        """
def wrong_mul(self, other):
    return Polynomial({})
""",
        [
            "m01-theorem-presentation",
            "property-ring-axioms",
            "property-symmetric-rewrite-roundtrip",
            "property-symmetric-rewrite-homomorphism",
            "hyperplane-relation-factorization-rank3",
            "pushforward-interpolation-oracle",
            "property-fixed-point-restriction-consistency",
            "property-bundle-relation-membership",
            "property-fraction-sum-permutation-invariance",
        ],
    ),
}
SABOTAGED_RUN = """
import runpy, sys
from eqchow.poly import Polynomial, term_key
mul = Polynomial.__mul__
{wrong_mul}
Polynomial.__mul__ = wrong_mul
sys.argv = ["eqchow", "verify-all", "--format", "json"]
runpy.run_module("eqchow.cli", run_name="__main__")
"""

# Seven broken kernels below the multiplication, each checked under
# ``python -O`` by running only the claims that must notice it: a whole
# verify-all would also run rows that still pass, the oracle's included.  The
# broken insert drops a vector whenever merging it would need the extended
# gcd; the broken membership test accepts every vector, so generator
# containment alone would certify any two ideals equal; the stale support
# loses the last column of every row a gcd merge rewrites, so later row
# operations skip a nonzero entry of that row; the short canonical support
# loses the last column of every row ``hnf`` publishes, so the queries that
# walk the canonical rows skip a nonzero entry; the broken division
# drops the smallest term of every quotient with two or more terms, which the
# staircase of ``chern_polynomial`` also divides through, so its root check
# raises; the broken fraction reduction never cancels the last factor of a
# denominator, so a localization sum keeps a denominator it should clear; the
# broken elementary symmetric products drop their smallest term, so the
# symmetric rewrite subtracts the wrong polynomial.
KERNEL_SABOTAGES = {
    # m01's relations still come out right: simplification decides by
    # ``reduce`` alone
    "contains-accepts-everything": (
        """
ideal.IntegerLattice.contains = lambda self, vec: True
""",
        ["property-simplify-preserves-ideal"],
    ),
    "insert-drops-gcd-merges": (
        """
class Dropped(Exception):
    pass

def xgcd(a, b):
    raise Dropped

insert = ideal.IntegerLattice.insert

def wrong_insert(self, vec):
    try:
        return insert(self, vec)
    except Dropped:  # raised before any row changed
        return False

ideal._xgcd = xgcd
ideal.IntegerLattice.insert = wrong_insert
""",
        [
            "m01-theorem-presentation",
            "quadrics-presentations",
            "orthogonal-presentations",
            "property-hnf-idempotence-order-invariance",
            "property-contains-vs-bruteforce",
            "property-simplify-preserves-ideal",
            "property-bundle-relation-membership",
        ],
    ),
    "merged-support-drops-last-column": (
        """
insert = ideal.IntegerLattice.insert

def wrong_insert(self, vec):
    before = {id(row): support for row, support in zip(self.rows, self.supports)}
    changed = insert(self, vec)
    for row, support in zip(self.rows, self.supports):
        # a gcd merge rewrites a row in place and gives it a new support
        if before.get(id(row), support) is not support and len(support) > 1:
            support.pop()
    return changed

ideal.IntegerLattice.insert = wrong_insert
""",
        [
            "quadrics-presentations",
            "orthogonal-presentations",
            "property-hnf-idempotence-order-invariance",
            "property-contains-vs-bruteforce",
            "property-simplify-preserves-ideal",
            "property-bundle-relation-membership",
        ],
    ),
    "canonical-support-drops-last-column": (
        """
hnf = ideal.IntegerLattice.hnf

def wrong_hnf(self):
    fresh = self._hnf is None
    h = hnf(self)
    if fresh:
        rows, supports = self._hnf
        self._hnf = rows, tuple(s[:-1] if len(s) > 1 else s for s in supports)
    return h

ideal.IntegerLattice.hnf = wrong_hnf
""",
        [
            "quadrics-presentations",
            "property-hnf-idempotence-order-invariance",
            "property-simplify-preserves-ideal",
        ],
    ),
    "divide-drops-smallest-term": (
        """
divide = poly._try_exact_divide

def wrong_divide(p, q):
    r = divide(p, q)
    if r is None or len(r.terms) < 2:
        return r
    last = min(r.terms, key=poly.term_key)
    return poly.Polynomial({m: c for m, c in r.terms.items() if m != last})

poly._try_exact_divide = wrong_divide
""",
        [
            "m01-theorem-presentation",
            "hyperplane-relation-factorization-rank3",
            "pushforward-interpolation-oracle",
            "quadrics-presentations",
            "property-exact-divide-roundtrip",
            "property-bundle-relation-membership",
        ],
    ),
    "reduce-keeps-last-factor": (
        """
reduced = poly.StructuredFraction.reduced

def wrong_reduced(self):
    if not self.numerator or not self.denominator:
        return reduced(self)
    *head, last = self.denominator
    part = reduced(poly.StructuredFraction(self.numerator, tuple(head)))
    return poly.StructuredFraction(part.numerator, part.denominator + (last,))

poly.StructuredFraction.reduced = wrong_reduced
""",
        [
            "m01-theorem-presentation",
            "pushforward-displays-rank3",
            "pushforward-interpolation-oracle",
            "quadrics-presentations",
            "property-fraction-sum-permutation-invariance",
        ],
    ),
    "e-product-drops-smallest-term": (
        """
e_product = symfunc._e_product

def wrong_e_product(n, powers):
    p = e_product(n, powers)
    if len(p.terms) < 2:
        return p
    last = min(p.terms, key=poly.term_key)
    return poly.Polynomial({m: c for m, c in p.terms.items() if m != last})

symfunc._e_product = wrong_e_product
""",
        [
            "m01-theorem-presentation",
            "pushforward-displays-rank3",
            "pushforward-interpolation-oracle",
            "quadrics-presentations",
            "property-symmetric-rewrite-roundtrip",
            "property-symmetric-rewrite-homomorphism",
        ],
    ),
}
SABOTAGED_CLAIMS = """
import json, sys
from eqchow import ideal, poly, symfunc
from eqchow.verify import CLAIMS, run_claim
{patch}
names = sys.argv[1:]
print(json.dumps({{c.name: run_claim(c) for c in CLAIMS if c.name in names}}))
"""

# Errors that a patch gone stale gives (a changed signature, attribute or
# name), not a check
CRASHES = ("TypeError", "AttributeError", "NameError")


def _outcome(record):
    """A claim record's status, except that a ``fail`` no check raised reads
    ``crash``: its exception is one of CRASHES, or its innermost traceback
    frame lies in the sabotage script (``File "<string>"``)."""
    detail = record.get("detail") or {}
    error = detail.get("error") or ""
    frames = re.findall(r'^  File "([^"]*)"', detail.get("traceback") or "", re.M)
    if record["status"] == "fail" and (
        error.startswith(CRASHES) or frames[-1:] == ["<string>"]
    ):
        return "crash"
    return record["status"]


# Two broken Chern polynomials of Wedge2(E*), each made below the root check
# of ``chern_polynomial``, so Sym2(E*) = Wedge2(E*) * prod (H + 2 l_i) inherits
# the fault.  The extra homogeneous term 2*c2*c1^(C(n,2)-2), scaled through
# the staircase's exact division, is one that the named quadrics checks cannot
# see; the wrong staircase entry is e_(n-1) of the roots H - 2*l_i in place of
# H + 2*l_i.  Under each, ``quadrics --n N --k 1 --force`` must exit 2 at
# every N = 3..8, the root check or the exact division raising before the
# redundancy containment of the bundle relation runs (arm keep-containment).
# With the root check patched out (arm skip-root-check), ``pushforward --n N
# --r 0`` must still exit 2 at every N = 3..6, through its comparison of the
# localization and interpolation routes or through the exact division.
CHERN_SABOTAGES = {
    "wedge2-extra-term": """
staircase = symfunc._staircase

def wrong_staircase(e):
    n = len(e) - 1
    extra = 2 * poly.var("c2") * poly.var("c1") ** (comb(n, 2) - 2)
    return staircase(e) + extra * 2 ** comb(n, 2)

symfunc._staircase = wrong_staircase
""",
    "wrong-staircase-entry": """
shifted = symfunc.elementary_of_shifted

def wrong_shifted(n, scale):
    e = shifted(n, scale)
    if scale == 2:
        e[n - 1] = e[n - 1].substitute("H", -poly.var("H")) * (-1) ** (n - 1)
    return e

symfunc.elementary_of_shifted = wrong_shifted
""",
}
SABOTAGED_CHERN = """
import contextlib, io, json, sys
from math import comb
from eqchow import cli, poly, symfunc
{patch}
if sys.argv[1] == "skip-root-check":
    symfunc._check_at_roots = lambda module, p: None
    commands = [f"pushforward --n {{n}} --r 0" for n in range(3, 7)]
else:
    commands = [f"quadrics --n {{n}} --k 1 --force" for n in range(3, 9)]
rows = []
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run([*command.split(), "--format", "json"])
    rows.append([code, json.loads(out.getvalue()).get("verification_failure")])
print(json.dumps(rows))
"""

# The errors the root check and the staircase's exact division raise
CHERN_ERRORS = (
    "ArithmeticError: c_H(Sym2(E*)) disagrees with its roots",
    "NotDivisible: ",
)

# A broken simplification, below every named check: it drops the last
# generator of the simplified set, so the presentation a report prints is not
# the one its checks certified.  The certificate of the simplified set must
# make each pipeline command exit 2 through the CLI, quadrics and orthogonal
# at every rank 2..7 (at rank 2 with k = 0, since k = 1 leaves no relation).
PRESENTATION_SABOTAGES = {
    "simplification-drops-last-generator": """
simplified = ideal.GradedIdeal.simplified_generators

def wrong_simplified(self, max_degree):
    return simplified(self, max_degree)[:-1]

ideal.GradedIdeal.simplified_generators = wrong_simplified
""",
}
SABOTAGED_PRESENTATIONS = """
import contextlib, io, json
from eqchow import cli, ideal
{patch}
codes = []
ranks = ["--n 2 --k 0", *(f"--n {{n}} --k 1" for n in range(3, 7))]
ranks.append("--n 7 --k 1 --force")
pipelines = [f"{{kind}} {{r}}" for kind in ("quadrics", "orthogonal") for r in ranks]
for command in ["m01", *pipelines]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run([*command.split(), "--format", "json"])
    failure = json.loads(out.getvalue()).get("verification_failure", {{}})
    codes.append([code, failure.get("name")])
print(json.dumps(codes))
"""


def _schema():
    return json.loads(
        resources.files("eqchow").joinpath("report_schema.json").read_text()
    )


def test_all_gating_checks_pass(verify_report):
    assert verify_report["all_passed"]
    failing = [c for c in verify_report["checks"] if c["status"] == "fail"]
    assert failing == []


def test_checks_sorted_by_name(verify_report):
    names = [c["name"] for c in verify_report["checks"]]
    assert names == sorted(names)
    assert sorted(c.name for c in CLAIMS) == names


def test_schema_validation(verify_report):
    jsonschema.validate(verify_report, _schema())


def test_remark_adjudication_is_informational(verify_report):
    entry = next(
        c
        for c in verify_report["checks"]
        if c["name"] == "rank4-twist3-remark-adjudication"
    )
    assert entry["status"] == "info"
    assert entry["detail"]["equal"] is False
    assert entry["detail"]["first_mismatch"] == 4
    assert entry["detail"]["mismatch"]["degree"] == 4


def test_property_checks_present(verify_report):
    names = {c["name"] for c in verify_report["checks"]}
    assert "property-ring-axioms" in names
    assert "property-hnf-idempotence-order-invariance" in names


def test_cli_verify_all_exit_and_schema(verify_report, capsys, monkeypatch):
    # the CLI serialises the report of eqchow.verify.run_verify_all, here the
    # verify_report fixture's, timings included
    import eqchow.cli as cli

    monkeypatch.setattr(eqchow.verify, "run_verify_all", lambda: verify_report)
    code = cli.run(["verify-all", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    emitted = json.loads(out)
    jsonschema.validate(emitted, _schema())
    assert emitted == verify_report


def test_cli_verify_all_text_table(verify_report, capsys, monkeypatch):
    import eqchow.cli as cli

    monkeypatch.setattr(cli, "run_verify_all", lambda: verify_report)
    code = cli.run(["verify-all"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("verify-all: PASS")
    assert any(line.startswith("INFO") for line in out.splitlines())


def test_cli_verify_all_latex_itemize(verify_report, capsys, monkeypatch):
    import eqchow.cli as cli

    monkeypatch.setattr(cli, "run_verify_all", lambda: verify_report)
    code = cli.run(["verify-all", "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\documentclass{article}" and lines[-1] == "\\end{document}"
    items = lines[lines.index("\\begin{itemize}") + 1 : lines.index("\\end{itemize}")]
    checks = verify_report["checks"]
    assert items == [f"\\item \\texttt{{{c['name']}}}: {c['status']}" for c in checks]


def test_runner_fails_short_or_raising_claims():
    short = run_claim(Claim("short", 0, lambda: (True, {"cases": 3}), min_cases=5))
    assert short["status"] == "fail"
    assert short["detail"]["error"] == "ran 3 cases, fewer than the minimum 5"
    boom = run_claim(Claim("boom", 0, lambda: 1 // 0))
    assert boom["status"] == "fail"
    assert boom["detail"]["error"].startswith("ZeroDivisionError")


@pytest.mark.parametrize("sabotage", sorted(SABOTAGES))
def test_sabotaged_kernel_fails_under_optimize(sabotage):
    wrong_mul, must_fail = SABOTAGES[sabotage]
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_RUN.format(wrong_mul=wrong_mul)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, _schema())
    status = {c["name"]: _outcome(c) for c in report["checks"]}
    assert {name: status[name] for name in must_fail} == dict.fromkeys(
        must_fail, "fail"
    )
    assert not report["all_passed"]


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check in the library is a raise
    package = Path(eqchow.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_poly_sets_record_fields():
    # ``Record.__init__`` binds every field; no other module goes around it
    package = Path(eqchow.__file__).parent
    setters = ("_set_field", "_set_values", "object.__setattr__")
    found = [
        f"{path.name}: {name}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "poly.py"
        for name in setters
        if name in path.read_text(encoding="utf-8")
    ]
    assert found == []


@pytest.mark.parametrize("sabotage", sorted(KERNEL_SABOTAGES))
def test_sabotaged_lattice_or_division_fails_its_claims(sabotage):
    patch, must_fail = KERNEL_SABOTAGES[sabotage]
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    script = SABOTAGED_CLAIMS.format(patch=patch)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *must_fail],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    outcomes = {name: _outcome(record) for name, record in records.items()}
    assert outcomes == dict.fromkeys(must_fail, "fail")


@pytest.mark.parametrize("arm", ["keep-containment", "skip-root-check"])
@pytest.mark.parametrize("sabotage", sorted(CHERN_SABOTAGES))
def test_sabotaged_chern_polynomial_fails_quadrics(sabotage, arm):
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    script = SABOTAGED_CHERN.format(patch=CHERN_SABOTAGES[sabotage])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, arm],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    if arm == "keep-containment":
        assert [[c, r["name"]] for c, r in rows] == [[2, "unexpected-error"]] * 6
        assert all(r["error"].startswith(CHERN_ERRORS) for _, r in rows), rows
    else:
        assert [c for c, _ in rows] == [2] * 4
        for n, (_, report) in enumerate(rows, 3):
            assert report == {"n": n, "r": 0} or report.get("error", "").startswith(
                "NotDivisible: "
            ), report


@pytest.mark.parametrize("sabotage", sorted(PRESENTATION_SABOTAGES))
def test_sabotaged_simplification_fails_every_pipeline(sabotage):
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    script = SABOTAGED_PRESENTATIONS.format(patch=PRESENTATION_SABOTAGES[sabotage])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[2, "simplified-generators"]] * 13
