"""Suite driver surface and report shape."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from qpieri import verify
from qpieri.verify import SUITES, SuiteReport, run_suite


WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _default_inventory() -> dict[str, tuple[int, int]]:
    """
    The benchmark's pinned (checked, failures) per suite at its default
    universe, read from bench/workloads.py without editing it.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    inventory = module.VerifySuites.INVENTORY
    return {suite: want for (suite, max_n), want in inventory.items() if max_n is None}


DEFAULT_INVENTORY = _default_inventory()


def test_inventory_covers_every_suite():
    assert list(DEFAULT_INVENTORY) == list(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_default_universe_inventory(suite):
    report = run_suite(suite)
    assert (report.checked, len(report.failures)) == DEFAULT_INVENTORY[suite]


@pytest.mark.parametrize("suite", ["bijections", "ledger"])
def test_each_grid_point_is_classified_once(suite, classified):
    run_suite(suite)
    assert classified and len(set(classified)) == len(classified)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_all_suites_produce_reports():
    for name in ("appendix-c", "monk", "edges"):
        report = run_suite(name)
        obj = report.to_json_obj()
        assert set(obj) == {"suite", "universe", "checked", "failures"}
        assert obj["suite"] == name
        assert obj["checked"] > 0


def test_max_n_overrides_universe():
    small = run_suite("commutativity", max_n=2)
    assert "<= 2" in small.universe
    assert small.passed


def test_lemmas_respects_bound():
    report = run_suite("lemmas", max_n=4)
    assert report.passed
    assert "S_4" in report.universe


def test_known_failure_suites_report_them():
    bij = run_suite("bijections")
    assert not bij.passed
    ledger = run_suite("ledger")
    assert not ledger.passed and all("p=1" in f for f in ledger.failures)


def test_a_lazy_message_is_built_only_on_failure():
    built = []

    def message() -> str:
        built.append(1)
        return "the check failed"

    report = SuiteReport("probe", "two checks")
    report.check(True, message)
    assert built == [] and report.passed
    report.check(False, message)
    report.check(False, "a plain message")
    assert built == [1]
    assert report.checked == 3
    assert report.failures == ["the check failed", "a plain message"]


def test_the_markings_suite_reports_a_marking_listed_twice(monkeypatch):
    # each list of two or more markings repeats its first in place of its last
    real = verify.enumerate_markings
    doubled = []

    def listing(chain, p):
        out = real(chain, p)
        if len(out) > 1:
            doubled.append((chain, p))
            out[-1] = out[0]
        return out

    clean = run_suite("markings", max_n=3)
    monkeypatch.setattr(verify, "enumerate_markings", listing)
    report = run_suite("markings", max_n=3)
    assert clean.passed and doubled and report.checked == clean.checked
    assert report.failures == [
        f"enumerated markings disagree with brute force for {chain!r}, p={p}" for chain, p in doubled
    ]
