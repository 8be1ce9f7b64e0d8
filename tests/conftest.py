"""Shared fixtures of the test suite."""

import pytest

from monodromy_lab import monodromy, solutions


@pytest.fixture(autouse=True)
def empty_evaluation_caches():
    """Each test starts with no cached block sums, point data, Phi_top
    columns or default tolerances, so exponential and block-pass counts do
    not depend on which tests ran before."""
    solutions._BLOCK_SUMS.clear()
    solutions._POINTS.clear()
    solutions._default_tolerance.cache_clear()
    monodromy._phi_top_columns.cache_clear()
