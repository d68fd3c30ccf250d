"""Fixtures shared by the proof-kit tests."""

from __future__ import annotations

import pytest

from qpieri.proofkit import bijections


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
