"""
Fixtures shared by the proof-kit and verify tests, and the one Hypothesis
profile of the suite: every property test draws the same examples on
every run and keeps no example database, so a failure seen once is seen
on every run.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from qpieri import verify
from qpieri.proofkit import bijections

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def classified(monkeypatch):
    """Every (element, stage, k) that `bijections.membership` classifies, in call order."""
    calls = []
    classify = bijections.classify

    def recorded(x, stage, k):
        calls.append((x, stage, k))
        return classify(x, stage, k)

    monkeypatch.setattr(bijections, "classify", recorded)
    return calls


@pytest.fixture
def serial_suites(monkeypatch):
    """
    Verify suites check their whole grid in this process, as on one CPU,
    so a test that reads this process's state after a suite (a call log,
    a cache) sees every grid point.
    """
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
