"""Hypothesis settings for the whole suite: the same examples on every
run, with no per-example deadline and no database of earlier failures
to replay, so a run's outcome depends on the code alone."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
