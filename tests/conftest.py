"""Fixtures shared by every test module."""

import pytest

from kdvlab import imethod


@pytest.fixture(autouse=True)
def _empty_table_cache():
    """Empty imethod's table cache after each test: bounded only by
    spectral.BUDGET_BYTES, tables would otherwise pile up across tests."""
    yield
    imethod._CACHE.clear()
