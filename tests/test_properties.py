"""Randomized property families at their documented sizes; each must reach
the minimum case count of its verify-all claim."""

import pytest

from eqchow import properties
from eqchow.verify import CLAIMS

MIN_CASES = {c.name: c.min_cases for c in CLAIMS}


@pytest.mark.parametrize("name", sorted(properties.ALL_SUITES))
def test_property_suite(name):
    cases = properties.ALL_SUITES[name]()
    assert cases >= MIN_CASES[f"property-{name}"] > 0
