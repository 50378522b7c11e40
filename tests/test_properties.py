"""Randomized property families at their documented sizes; each must reach
the minimum case count of its verify-all claim.  The suites run once per
session, inside the shared verify-all run."""

import pytest

from eqchow import properties
from eqchow.ideal import GradedIdeal
from eqchow.verify import CLAIMS

MIN_CASES = {c.name: c.min_cases for c in CLAIMS}


@pytest.mark.parametrize("name", sorted(properties.ALL_SUITES))
def test_property_suite(name, verify_report):
    row = next(c for c in verify_report["checks"] if c["name"] == f"property-{name}")
    assert row["status"] == "pass"
    assert row["cases"] >= MIN_CASES[row["name"]] > 0


def test_simplify_suite_counts_the_ideals_it_checks(monkeypatch):
    """Draws without generators are skipped, not counted: the returned number
    is the number of ideals actually simplified."""
    calls = []
    original = GradedIdeal.simplified_generators

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GradedIdeal, "simplified_generators", counted)
    assert properties.simplify_preserves_ideal() == len(calls) == 60


def test_restriction_suite_checks_twisted_modules(monkeypatch):
    """The fixed-point suite draws det^k twists of every base, E included;
    only the costly rank-5 Sym2(E*) classes stay untwisted."""
    built = []
    original = properties.RepRoots

    def recorded(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(properties, "RepRoots", recorded)
    assert properties.restriction_consistency() == len(built) == 200
    twisted = {m.base for m in built if m.k}
    assert twisted == set(properties.BASES)
    assert not any(m.k for m in built if (m.rank, m.base) == (5, "Sym2(E*)"))
