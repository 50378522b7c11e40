"""Acceptance gate: one test per criterion over the claim table of verify-all,
each printing one pass/fail line per claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
identities are exact; the stated runtimes are expectations, the assertions
allow a 3x cushion for slow machines.  A criterion's runtime is the sum of its
claims' timings in the session's verify-all report.
"""

from eqchow.verify import CLAIMS

# criterion -> time budget in seconds
BUDGETS = {1: 5, 2: 1, 3: 1, 4: 60, 5: 120, 6: 60, 7: 1, 8: 10, 9: 120}


def _criterion(number):
    def test(verify_report):
        records = {c["name"]: c for c in verify_report["checks"]}
        claims = [c for c in CLAIMS if c.criterion == number]
        assert claims, f"criterion {number} has no claims"
        budget = BUDGETS[number]
        ok = True
        for claim in claims:
            record = records[claim.name]
            passed = record["status"] == ("info" if claim.informational else "pass")
            note = f" [cases {record['cases']}]" if "cases" in record else ""
            if claim.informational:
                detail = record["detail"]
                note = (
                    f" [verdict recorded: equal={detail['equal']}, "
                    f"first_mismatch={detail['first_mismatch']}]"
                )
            print(
                f"ACCEPTANCE {number} {claim.name}: {'PASS' if passed else 'FAIL'}"
                f" ({record['seconds']:.2f}s, budget {budget}s for the criterion){note}"
            )
            ok = ok and passed
        elapsed = sum(records[c.name]["seconds"] for c in claims)
        assert ok, f"criterion {number} failed"
        assert elapsed < 3 * budget, f"criterion {number} exceeded 3x its time budget"

    return test


test_criterion_1_theorem_reproduction = _criterion(1)
test_criterion_2_displayed_pushforwards = _criterion(2)
test_criterion_3_hyperplane_factorization = _criterion(3)
test_criterion_4_localization_vs_interpolation = _criterion(4)
test_criterion_5_reduced_quadrics = _criterion(5)
test_criterion_6_orthogonal_presentations = _criterion(6)
test_criterion_7_rank3_elimination = _criterion(7)
test_criterion_8_rank4_twist3_adjudication = _criterion(8)
test_criterion_9_property_suites = _criterion(9)
