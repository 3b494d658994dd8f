"""Shared test set-up."""

import pytest
from hypothesis import settings

from threshtest import inference

# Hypothesis tests that set no max_examples (the CLI mutation tests) draw few
# examples in the tier-1 run, and many with `--hypothesis-profile=ci`. Every
# other property test sets its own max_examples, so neither profile changes it.
settings.register_profile("tier1", max_examples=15)
settings.register_profile("ci", max_examples=300)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_process_cache(monkeypatch):
    """Each test starts with a new, empty process calibration cache and no
    THRESHTEST_CACHE_DIR, so no test reads a calibration that another test
    stored, and a cold-path test stays cold whatever ran before it."""
    monkeypatch.delenv("THRESHTEST_CACHE_DIR", raising=False)
    monkeypatch.setattr(inference, "_default_cache", None)
