"""Settings for the whole suite. Hypothesis runs the same examples on
every run, with no per-example deadline and no database of earlier
failures to replay, and every test starts from cold caches, so a run's
outcome depends on the code alone."""

import pytest
from hypothesis import settings

from wiretap_lsl import experiment

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the per-ArraySpec cache of T empty, so that
    a test that counts work sees a cold cache whatever ran before it."""
    experiment._transmit.cache_clear()
