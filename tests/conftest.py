"""Shared test set-up."""

import pytest

from threshtest import inference


@pytest.fixture(autouse=True)
def fresh_process_cache(monkeypatch):
    """Each test starts with a new, empty process calibration cache and no
    THRESHTEST_CACHE_DIR, so no test reads a calibration that another test
    stored, and a cold-path test stays cold whatever ran before it."""
    monkeypatch.delenv("THRESHTEST_CACHE_DIR", raising=False)
    monkeypatch.setattr(inference, "_default_cache", None)
