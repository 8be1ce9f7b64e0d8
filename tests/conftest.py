"""Shared fixtures of the test suite."""

import pytest

from monodromy_lab import monodromy, solutions


@pytest.fixture(autouse=True)
def empty_evaluation_caches():
    """Each test starts with no cached block sums, point data or Phi_top
    columns, so exponential and block-pass counts do not depend on which
    tests ran before."""
    solutions._block_sums.cache_clear()
    solutions.point_data.cache_clear()
    monodromy._phi_top_columns.cache_clear()
