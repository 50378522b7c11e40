"""The claim table behind ``eqchow verify-all`` and the acceptance tests.

``CLAIMS`` holds every named claim once; ``run_verify_all`` runs each row and
``tests/test_acceptance.py`` gates on the same rows, grouped by acceptance
criterion.  Every record is named, timed, and carries its degree bound; the
merged report is deterministic apart from the timings (records are sorted by
name).  The runner is the boundary that turns any exception into a ``fail``
record.  The rank-4 twist-3 ideal-simplification claim is informational: its
verdict is recorded either way and never gates the suite.
"""

from __future__ import annotations

import time
from typing import Callable

from . import properties
from .ideal import GradedIdeal, compare_up_to
from .localization import veronese_pushforward
from .pipeline import (
    M01_RELATIONS,
    SERIES_CROSS_CHECK_MAX_RANK,
    VerificationFailure,
    alpha_family,
    m01,
    orthogonal,
    reduced_quadrics,
)
from .poly import Record, var
from .symfunc import HYPERPLANE, RepRoots, c_vars, chern_polynomial, torsor_substitute

REPORT_SCHEMA_ID = "eqchow-verify-report/1"


class Claim(Record):
    """One named claim.  ``check`` returns whether it holds and the report
    fields it sets, among ``degree_bound``, ``cases`` and ``detail``; a row
    that ran fewer than ``min_cases`` cases fails.  ``criterion`` is the
    acceptance criterion the row belongs to."""

    __slots__ = ("name", "criterion", "check", "min_cases", "informational")

    def __init__(
        self,
        name: str,
        criterion: int,
        check: Callable[[], tuple[bool, dict]],
        min_cases: int = 0,
        informational: bool = False,
    ):
        Record.__init__(self, name, criterion, check, min_cases, informational)


def _rhat():
    """The second cubic factor of the rank-3 bundle relation."""
    H, c1, c2, c3 = var(HYPERPLANE), var("c1"), var("c2"), var("c3")
    return H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)


def _verified(pres, *names: str) -> bool:
    """Whether the pipeline ran and passed each named check of its own."""
    return set(names) <= {c["name"] for c in pres.verification if c["equal"]}


def _m01_theorem():
    pres = m01()
    rels = [g.to_text() for g in pres.relations.generators]
    ok = rels == list(M01_RELATIONS)
    return ok, {"degree_bound": pres.max_degree, "detail": {"relations": rels}}


def _pushforward_displays():
    H, rhat = var(HYPERPLANE), _rhat()
    expected = [4 * rhat, 2 * H * rhat, H**2 * rhat]
    ok = all(veronese_pushforward(3, r) == expected[r] for r in range(3))
    return ok, {"cases": len(expected)}


def _factorization():
    H, c1, c2, c3 = var(HYPERPLANE), var("c1"), var("c2"), var("c3")
    image = chern_polynomial(RepRoots(3, "Sym2(E*)"))
    first = H**3 - 2 * c1 * H**2 + 4 * c2 * H - 8 * c3
    return bool(image) and image == first * _rhat(), {}


def _quadrics():
    ok = True
    for n in range(2, 6):
        for k in range(4):
            pres = reduced_quadrics(n, k)
            names = ["quadrics-relations-match-generator-family"]
            if k % 2 == 0:
                names.append("even-twist-single-generator")
            ok = ok and _verified(pres, *names)
    cross = compare_up_to(reduced_quadrics(3, 1).relations, m01().relations, 12).equal
    return ok and cross, {"cases": 16, "detail": {"rank3-twist1-matches-m01": cross}}


def _orthogonal():
    ok = True
    for n in range(2, 9):
        pres = orthogonal(n, 0)
        expected = tuple(-2 * var(v) for v in c_vars(n)[::2])
        names = ["zero-twist-odd-chern-presentation"]
        if n <= SERIES_CROSS_CHECK_MAX_RANK:
            names.append("alpha-vs-series-division")
        ok = ok and pres.relations.generators == expected and _verified(pres, *names)
    pres = orthogonal(4, 1)
    c1, c3 = var("c1"), var("c3")
    variables = pres.relations.variables
    literal = GradedIdeal(variables, [2 * c1, c1**2, 2 * c3, c1 * c3])
    simplified = GradedIdeal(variables, pres.simplified)
    ok = ok and compare_up_to(simplified, literal, 10).equal
    return ok, {
        "degree_bound": 10,
        "detail": {"rank4-twist1-simplified": [g.to_text() for g in pres.simplified]},
    }


def _alpha_elimination():
    a1, a2, _ = alpha_family(3)
    ok = a2 == var(HYPERPLANE) * a1
    for k in range(6):
        ideal = GradedIdeal(c_vars(3), [torsor_substitute(a1, k)])
        image = torsor_substitute(a2, k)
        if image:
            ok = ok and ideal.contains(image)
    return ok, {"cases": 7}


def _rank4_twist3_remark():
    """Compare the raw alpha ideal at rank 4, twist 3 with the quoted
    simplified ideal; the verdict is recorded, not gated."""
    c1, c2, c3 = var("c1"), var("c2"), var("c3")
    vs = c_vars(4)
    raw = GradedIdeal(vs, [torsor_substitute(a, 3) for a in alpha_family(4)])
    quoted = GradedIdeal(
        vs,
        [10 * c1, 5 * c1**2, c1**3 + 6 * c1 * c2 - 2 * c3, c1**2 * c2 - c1 * c3],
    )
    cmp = compare_up_to(raw, quoted, 10)
    return True, {
        "degree_bound": 10,
        "detail": {
            "equal": cmp.equal,
            "first_mismatch": cmp.first_mismatch,
            "mismatch": None if cmp.equal else cmp.per_degree[-1],
            "raw_generators": [g.to_text() for g in raw.generators],
            "quoted_generators": [g.to_text() for g in quoted.generators],
        },
    }


def _property(fn):
    return lambda: (True, {"cases": fn()})


CLAIMS = (
    Claim("m01-theorem-presentation", 1, _m01_theorem),
    Claim("pushforward-displays-rank3", 2, _pushforward_displays),
    Claim("hyperplane-relation-factorization-rank3", 3, _factorization),
    Claim(
        "pushforward-interpolation-oracle",
        4,
        _property(properties.oracle_equivalence),
        min_cases=15,
    ),
    Claim("quadrics-presentations", 5, _quadrics),
    Claim("orthogonal-presentations", 6, _orthogonal),
    Claim("alpha-elimination-rank3", 7, _alpha_elimination),
    Claim(
        "rank4-twist3-remark-adjudication",
        8,
        _rank4_twist3_remark,
        informational=True,
    ),
    *(
        Claim(f"property-{name}", 9, _property(fn), min_cases=fewest)
        for name, (fn, fewest) in properties.ALL_SUITES.items()
    ),
)


def run_claim(claim: Claim) -> dict:
    """Run one claim and return its report record.  A claim that does not
    hold, runs too few cases or raises any exception yields a ``fail`` record;
    an exception's message and traceback go to ``detail``."""
    t0 = time.perf_counter()
    try:
        ok, fields = claim.check()
    except VerificationFailure as exc:
        ok, fields = False, {"detail": exc.report}
    except Exception as exc:
        import traceback  # only on failure, so the CLI's start-up skips it

        error = f"{type(exc).__name__}: {exc}"
        detail = {"error": error, "traceback": traceback.format_exc()}
        ok, fields = False, {"detail": detail}
    else:
        cases = fields.get("cases") or 0
        if cases < claim.min_cases:
            error = f"ran {cases} cases, fewer than the minimum {claim.min_cases}"
            ok, fields = False, {**fields, "detail": {"error": error}}
    status = "fail" if not ok else "info" if claim.informational else "pass"
    seconds = round(time.perf_counter() - t0, 3)
    return {"name": claim.name, "status": status, "seconds": seconds, **fields}


def run_verify_all() -> dict:
    """Run every claim and return the machine-readable report."""
    checks = sorted((run_claim(c) for c in CLAIMS), key=lambda r: r["name"])
    from . import __version__

    return {
        "schema": REPORT_SCHEMA_ID,
        "version": __version__,
        "all_passed": all(c["status"] != "fail" for c in checks),
        "checks": checks,
    }
