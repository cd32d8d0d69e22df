"""Hypothesis draws the same examples on every run: each test's examples
follow from its source, not from a random seed or the local example
database (``derandomize`` implies no database).

Every test must leave numpy's floating-point error state as it found it,
so the rule the command line runs under cannot leak into a caller that
runs library code after ``cli.main`` in the same process."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def float_error_state_restored():
    before = np.geterr()
    yield
    assert np.geterr() == before, "numpy's error state leaked out of a test"
