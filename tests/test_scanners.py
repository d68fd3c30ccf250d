"""Forbidden-pattern scans: clean on the stated bounds, sensitive when weakened."""

from __future__ import annotations

import itertools

import pytest

from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit.scanners import (
    ScanReport,
    all_scans,
    scan_chain_isolated_row_drop,
    scan_chain_segment_descents,
    scan_four_step_pattern,
    scan_row_return_to_column,
    scan_row_revisit,
    scan_three_step_ascents,
    scan_three_step_descents,
)
from qpieri.qbg import validate_path


def test_strict_scans_are_clean_s4():
    assert scan_three_step_descents(4).clean
    assert scan_three_step_ascents(4).clean
    assert scan_row_return_to_column(4, 4, 2).clean
    assert scan_row_revisit(4, 4, 2).clean
    assert scan_chain_segment_descents(4, 3).clean
    assert scan_chain_isolated_row_drop(4, 3).clean


def test_weakened_scans_find_counterexamples_s5():
    assert not scan_three_step_descents(5, weakened=True).clean
    assert not scan_three_step_ascents(5, weakened=True).clean
    assert not scan_row_return_to_column(5, 5, 2, weakened=True).clean
    assert not scan_row_revisit(5, 5, 2, weakened=True).clean
    assert not scan_four_step_pattern(5, weakened=True).clean


def test_weakened_hits_really_are_paths():
    report = scan_three_step_ascents(5, weakened=True)
    v, labels = report.counterexamples[0]
    assert validate_path(v, list(labels)) is not None


def test_row_return_upper_bound_is_sharp():
    """
    With the upper bound relaxed by one (final row allowed to reach the
    column right below), instances exist; the minimal one is pinned here.
    """
    report = scan_row_return_to_column(3, 3, 0, weakened=True)
    assert not report.clean
    witnesses = {(v.one_line(), labels) for v, labels in report.counterexamples}
    assert ("1", ((1, 2), (1, 3), (2, 3))) in witnesses
    # and the path genuinely exists
    assert validate_path(Permutation.identity(), [(1, 2), (1, 3), (2, 3)]) is not None
    # while the strict bound admits nothing at these sizes
    assert scan_row_return_to_column(3, 3, 0).clean


def test_all_scans_table():
    reports = all_scans(4, 4, 1)
    names = {r.name for r in reports}
    assert len(names) == len(reports)
    for r in reports:
        if r.name.endswith("-weakened"):
            continue
        assert r.clean, f"{r.name}: {r.counterexamples[:1]}"


# --- frozen copies of the scan loops before the shared walker -------------
#
# Each validated every (pattern, v) pair on its own; the shared walker must
# give the same name, universe, check count and counterexamples.


def _old_three_step_descents(n, weakened=False):
    name = "three-step-descent" + ("-weakened" if weakened else "")
    report = ScanReport(name, f"S_{n}, indices <= {n}")
    for v in all_permutations(n):
        for i, j, l, m in itertools.combinations(range(1, n + 1), 4):
            pattern = [(j, l), (i, l), (i, m)] if weakened else [(j, m), (i, m), (i, l)]
            report.checked += 1
            if validate_path(v, pattern) is not None:
                report.counterexamples.append((v, tuple(pattern)))
    return report


def _old_three_step_ascents(n, weakened=False):
    name = "three-step-ascent" + ("-weakened" if weakened else "")
    report = ScanReport(name, f"S_{n}, indices <= {n}")
    for v in all_permutations(n):
        for idx in itertools.combinations(range(1, n + 1), 4):
            if weakened:
                j, i, l, m = idx
            else:
                i, j, l, m = idx
            report.checked += 1
            if validate_path(v, [(i, l), (i, m), (j, m)]) is not None:
                report.counterexamples.append((v, ((i, l), (i, m), (j, m))))
    return report


def _old_row_return_to_column(n, k_max, run_max, weakened=False):
    name = "row-return-to-column" + ("-weakened" if weakened else "")
    report = ScanReport(name, f"S_{n}, k <= {k_max}, s+t <= {run_max}")
    perms = all_permutations(n)
    for k in range(3, k_max + 1):
        b_cap = k - 1 if weakened else k - 2
        for a in range(1, b_cap):
            for b in range(a + 1, b_cap + 1):
                others = [x for x in range(1, k) if x not in (a, b)]
                others_low = [x for x in others if x < k - 1]
                for s in range(0, run_max + 1):
                    for t in range(0, run_max + 1 - s):
                        for bs in itertools.permutations(others_low, s):
                            for ats in itertools.permutations(others, t):
                                if set(bs) & set(ats):
                                    continue
                                labels = (
                                    [(a, k - 1)]
                                    + [(x, k - 1) for x in bs]
                                    + [(x, k) for x in ats]
                                    + [(a, k), (b, k)]
                                )
                                for v in perms:
                                    report.checked += 1
                                    if validate_path(v, labels) is not None:
                                        report.counterexamples.append((v, tuple(labels)))
    return report


def _old_row_revisit(n, k_max, run_max, weakened=False):
    name = "row-revisit" + ("-weakened" if weakened else "")
    report = ScanReport(name, f"S_{n}, k <= {k_max}, s <= {run_max}")
    perms = all_permutations(n)
    for k in range(3, k_max + 1):
        cap = k - 1 if weakened else k - 2
        for a in range(1, cap + 1):
            others = [x for x in range(1, cap + 1) if x != a]
            for s in range(0, run_max + 1):
                for bs in itertools.permutations(others, s):
                    labels = [(a, k)] + [(x, k) for x in bs] + [(a, k)]
                    for v in perms:
                        report.checked += 1
                        if validate_path(v, labels) is not None:
                            report.counterexamples.append((v, tuple(labels)))
    return report


def _old_four_step_pattern(n, weakened=False):
    name = "four-step-pattern" + ("-weakened" if weakened else "")
    report = ScanReport(name, f"S_{n}, indices <= {n}")
    for v in all_permutations(n):
        for i, j, k, l, m in itertools.combinations(range(1, n + 1), 5):
            last = (j, k) if weakened else (i, k)
            report.checked += 1
            if validate_path(v, [(i, m), (j, m), (j, l), last]) is not None:
                report.counterexamples.append((v, ((i, m), (j, m), (j, l), last)))
    return report


def _summary(report):
    found = sorted((v.window, labels) for v, labels in report.counterexamples)
    return report.name, report.universe, report.checked, found


@pytest.mark.parametrize("weakened", [False, True], ids=["strict", "weakened"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_shared_walker_matches_the_frozen_scans(n, weakened):
    k_max, run_max = min(5, n), 2
    pairs = [
        (scan_three_step_descents(n, weakened), _old_three_step_descents(n, weakened)),
        (scan_three_step_ascents(n, weakened), _old_three_step_ascents(n, weakened)),
        (
            scan_row_return_to_column(n, k_max, run_max, weakened),
            _old_row_return_to_column(n, k_max, run_max, weakened),
        ),
        (scan_row_revisit(n, k_max, run_max, weakened), _old_row_revisit(n, k_max, run_max, weakened)),
        (scan_four_step_pattern(n, weakened), _old_four_step_pattern(n, weakened)),
    ]
    for new, old in pairs:
        assert _summary(new) == _summary(old)


@pytest.mark.parametrize("n, shares", [(4, 5), (5, 16), (5, 200), (6, 3)])
def test_the_shares_of_a_scan_in_order_are_the_whole_scan(n, shares):
    # (5, 200): more shares than S_5 has elements, so some shares are empty
    whole = all_scans(n=n)
    parts = [all_scans(n=n, share=(i, shares)) for i in range(shares)]
    for j, scan in enumerate(whole):
        assert [p[j].name for p in parts] == [scan.name] * shares
        assert sum(p[j].checked for p in parts) == scan.checked
        assert [x for p in parts for x in p[j].counterexamples] == scan.counterexamples, scan.name
    # the weakened scans find counterexamples in more than one share
    assert sum(bool(p[1].counterexamples) for p in parts) > 1
