"""Fixtures shared across test files."""

import pytest

from eqchow.verify import run_verify_all


@pytest.fixture(scope="session")
def verify_report():
    """One verify-all run per session, read by the acceptance and report tests."""
    return run_verify_all()
