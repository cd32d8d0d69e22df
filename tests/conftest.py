"""Hypothesis draws the same examples on every run: each test's examples
follow from its source, not from a random seed or the local example
database (``derandomize`` implies no database)."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
