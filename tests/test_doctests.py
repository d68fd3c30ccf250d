"""The `>>>` examples in the module docstrings run and hold."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import qpieri


def modules_with_examples() -> list:
    """Every qpieri module whose source holds a `>>>` example."""
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(qpieri.__path__, prefix="qpieri.")
    ]
    return [m for m in modules if ">>>" in inspect.getsource(m)]


def test_the_known_examples_are_found():
    found = {m.__name__ for m in modules_with_examples()}
    assert {"qpieri.permutations", "qpieri.qbg", "qpieri.chains", "qpieri.expansion", "qpieri.proofkit.surgery"} <= found


@pytest.mark.parametrize("module", modules_with_examples(), ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
