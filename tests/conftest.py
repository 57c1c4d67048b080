"""Hypothesis runs the same examples on every run: the property tests are
part of the fast suite, so a failure must reproduce and the run time must
not vary."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("deterministic")
