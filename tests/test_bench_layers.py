"""
The benchmark's layer tracer (bench/layers.py) names package functions by
string; every name must still resolve, so that `python3 bench/run.py
--trace 1` keeps working after a refactor.  The tracer file is read, not
edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name: str):
    return importlib.import_module(f"qpieri.{name}")


def test_traced_names_resolve(layers):
    for mod_name, attrs in layers.TRACED.items():
        for attr in attrs:
            # the tracer's own lookup: a module attribute or Class.__dict__ entry
            _owner, _name, original = layers._resolve(_module(mod_name), attr)
            assert callable(getattr(original, "__func__", original)), (mod_name, attr)


def test_aggregated_modules_define_public_functions(layers):
    for mod_name in layers.AGGREGATED:
        module = _module(mod_name)
        public = [
            name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")
        ]
        assert public, mod_name


def test_item_counted_and_cached_names_resolve(layers):
    for name in layers.ITEMS:
        mod_name, attr = name.rsplit(".", 1)
        assert attr in layers.TRACED[mod_name], name
        assert callable(getattr(_module(mod_name), attr)), name
    for name in layers.CACHES:
        mod_name, attr = name.rsplit(".", 1)
        assert hasattr(getattr(_module(mod_name), attr), "cache_info"), name


def test_tracer_wraps_and_restores(layers):
    from qpieri import expansion

    original = expansion.pieri_expand
    tracer = layers.Tracer()
    try:
        tracer.start()
        assert expansion.pieri_expand is not original
    finally:
        tracer.stop()
    assert expansion.pieri_expand is original
    assert "chains.useful_ratio" in tracer.metrics()
