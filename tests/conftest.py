"""Fixtures shared by the test modules."""

import pytest

from betareduce import oracles


@pytest.fixture
def tight_series(monkeypatch):
    """Series oracles stopping at relative term size 1e-17, a decade under the default."""
    monkeypatch.setattr(oracles, "SERIES_REL_TOL", 1e-17)
