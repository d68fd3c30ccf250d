"""The `>>>` examples in the module docstrings run and hold."""

from __future__ import annotations

import doctest

import pytest

from qpieri import chains, expansion, permutations, qbg
from qpieri.proofkit import surgery


@pytest.mark.parametrize("module", [permutations, qbg, chains, expansion, surgery], ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
