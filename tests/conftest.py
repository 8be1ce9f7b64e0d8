"""Shared fixtures of the test suite."""

import pytest

from monodromy_lab import solutions


@pytest.fixture(autouse=True)
def empty_block_sum_cache():
    """Each test starts with no cached block sums, so exponential and
    block-pass counts do not depend on which tests ran before."""
    solutions._BLOCK_SUMS.clear()
