"""Randomized property families at their documented sizes; each must reach
the minimum case count of its verify-all claim."""

import pytest

from eqchow import properties
from eqchow.ideal import GradedIdeal
from eqchow.verify import CLAIMS

MIN_CASES = {c.name: c.min_cases for c in CLAIMS}


@pytest.mark.parametrize("name", sorted(properties.ALL_SUITES))
def test_property_suite(name):
    cases = properties.ALL_SUITES[name]()
    assert cases >= MIN_CASES[f"property-{name}"] > 0


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
