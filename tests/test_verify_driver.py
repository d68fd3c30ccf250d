"""Suite driver surface and report shape."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import time

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
def test_each_grid_point_is_classified_once(suite, classified, serial_suites):
    run_suite(suite)
    assert classified and len(set(classified)) == len(classified)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_all_suites_produce_reports():
    for name in ("appendix-c", "monk", "edges"):
        report = run_suite(name)
        obj = report.to_json_obj()
        assert set(obj) == {"suite", "universe", "checked", "failures", "elapsed_s"}
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


def test_the_markings_suite_reports_a_marking_listed_twice(monkeypatch, serial_suites):
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


# --- suites checked in shares ------------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Forked(list):
    def __init__(self):
        super().__init__()
        self.grids = []


@pytest.fixture
def forks(monkeypatch):
    """
    Two CPUs are usable and a grid of any size splits (a test may set
    more CPUs).  The list holds the pid of every child forked, in order;
    `grids` records the (points, min_points) of every grid a suite passed.
    """
    children = Forked()
    fork, in_shares = os.fork, verify._in_shares

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def any_size(points, run, min_points):
        children.grids.append((points, min_points))
        return in_shares(points, run, 1)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_in_shares", any_size)
    monkeypatch.setattr(os, "fork", counted)
    return children


# the suites whose grid is checked in shares
SPLIT = ("markings", "lemmas", "insertion", "edges")


@pytest.mark.parametrize("suite, max_n", [*((s, None) for s in SUITES), ("lemmas", 6), ("edges", 7)])
def test_a_split_report_equals_the_serial_one(suite, max_n, monkeypatch, forks):
    split = run_suite(suite, max_n)
    assert bool(forks) == (suite in SPLIT), suite
    # unforced, a grid splits past its suite's default grid only
    assert [2 * points // min_points >= 2 for points, min_points in forks.grids] == (
        [max_n is not None] if suite in SPLIT else []
    )
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    forks.clear()
    serial = run_suite(suite, max_n)
    assert not forks, suite
    assert (split.universe, split.checked, split.failures) == (serial.universe, serial.checked, serial.failures)
    assert_no_child_left()


def test_a_default_grid_stays_in_this_process(monkeypatch):
    forked = []
    fork = os.fork
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    for suite in SPLIT:
        run_suite(suite)
    assert not forked


# 40 points over P processes: 8 chunks each, dealt in rounds of P back and
# forth; the seat of each of the first chunks, by P
SEATS = {2: [0, 1, 1, 0, 0, 1, 1, 0], 3: [0, 1, 2, 2, 1, 0, 0, 1, 2], 4: [0, 1, 2, 3, 3, 2, 1, 0, 0]}


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_a_split_grid_returns_every_chunk_in_order(cpus, monkeypatch, forks):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    got = verify._in_shares(40, lambda j, chunks: (j, chunks, os.getpid()), 1)
    assert [(j, chunks) for j, chunks, _ in got] == [(j, 8 * cpus) for j in range(8 * cpus)]
    assert len(forks) == cpus - 1
    seats = [os.getpid(), *forks]
    assert [seats.index(pid) for _, _, pid in got[: len(SEATS[cpus])]] == SEATS[cpus]
    assert_no_child_left()


@pytest.mark.parametrize(
    "cpus, raising, first",
    [(2, "child", 5), (2, "parent", 3), (2, "both", 3), (3, "child", 3), (3, "parent", 5), (4, "parent", 7)],
)
def test_a_share_that_raises_reaches_the_caller_as_in_one_process(cpus, raising, first, monkeypatch, forks):
    # from chunk 3 on, every chunk raises in the named processes (SEATS
    # says which process has which chunk)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    parent = os.getpid()

    def run(j, chunks):
        in_child = os.getpid() != parent
        if j >= 3 and (raising == "both" or in_child == (raising == "child")):
            raise ValueError(f"chunk {j} of {chunks}")
        return j

    # one loop over the chunks in order would stop at the first that raises
    with pytest.raises(ValueError, match=f"^chunk {first} of {8 * cpus}$"):
        verify._in_shares(40, run, 1)
    assert_no_child_left()


def test_a_suite_that_raises_raises_as_in_one_process(monkeypatch, forks):
    real = verify.edge_kind_by_length

    def breaks(x, label):
        if x.one_line() in ("2143", "4321"):
            raise ZeroDivisionError(f"no edge test at {x.one_line()}")
        return real(x, label)

    monkeypatch.setattr(verify, "edge_kind_by_length", breaks)
    with pytest.raises(ZeroDivisionError, match="^no edge test at 2143$"):
        run_suite("edges", 4)
    assert forks
    assert_no_child_left()
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    with pytest.raises(ZeroDivisionError, match="^no edge test at 2143$"):
        run_suite("edges", 4)


def test_an_interrupted_split_reaps_its_children(forks):
    parent = os.getpid()

    def run(j, chunks):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify._in_shares(40, run, 1)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_a_child_that_dies_without_its_results_is_an_error(forks):
    parent = os.getpid()

    def run(j, chunks):
        if os.getpid() != parent:
            os._exit(3)
        return j

    # chunk 1 is the child's first
    with pytest.raises(RuntimeError, match="ended without the result of chunk 1$"):
        verify._in_shares(40, run, 1)
    assert_no_child_left()


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("failing", ["fork", "pipe"])
@pytest.mark.parametrize("cpus, started", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_a_child_that_cannot_start_leaves_its_chunks_here(failing, cpus, started, monkeypatch, forks):
    # every fork or pipe past the first `started` fails, as when no process
    # or file descriptor is left
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    real = getattr(os, failing)
    calls = []

    def fails():
        calls.append(1)
        if len(calls) > started:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, failing, fails)
    before = open_fds()
    got = verify._in_shares(40, lambda j, chunks: (j, chunks), 1)
    assert got == [(j, 8 * cpus) for j in range(8 * cpus)]
    assert len(forks) == started
    assert open_fds() == before
    assert_no_child_left()


def test_a_suite_whose_fork_fails_reports_as_in_one_process(monkeypatch, forks):
    def fails():
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(os, "fork", fails)
    split = run_suite("edges", 5)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    serial = run_suite("edges", 5)
    assert (split.checked, split.failures) == (serial.checked, serial.failures)
    assert_no_child_left()


def test_no_process_takes_less_than_half_the_smallest_grid_measured_to_split(monkeypatch):
    real = os.fork
    forked = []
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real())
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 4)
    # 2 * points // min_points processes at most: 1 (no split), 2, 3, and 4 CPUs' worth
    for points, processes in ((19, 1), (20, 2), (29, 2), (30, 3), (40, 4), (400, 4)):
        forked.clear()
        got = verify._in_shares(points, lambda j, chunks: chunks, 20)
        assert len(forked) == processes - 1, points
        assert got == ([1] if processes == 1 else [min(points, 8 * processes)] * min(points, 8 * processes))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    forked.clear()
    assert verify._in_shares(1000, lambda j, chunks: (j, chunks), 1) == [(0, 1)]
    assert not forked
    assert_no_child_left()
