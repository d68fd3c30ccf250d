"""
Falsification scanners for the non-existence lemmas on QBG paths.

Each scanner exhaustively searches a bounded universe for a forbidden
configuration and returns the list of counterexamples found (expected
empty).  Each also ships a deliberately weakened variant of its pattern;
a weakened scan must come back nonempty within the same bounds, which
demonstrates that the scan actually has discriminating power.

The five path scans only list their label patterns; one walker (`_scan`)
checks them from every start.  Their counterexamples come in (v, pattern)
order: v as `all_permutations` lists S_n, the patterns of one v sorted.
The two chain scans read every chain's label positions from one walker
(`_chain_positions`).

Every scan takes `share` = (i, s): it then walks only the i-th of s runs
of consecutive starts of `all_permutations` (`_starts`).  The reports of
shares 0..s-1, concatenated in that order, are the report of the whole
scan: the same checks and the same counterexamples in the same order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ..chains import enumerate_pieri_chains
from ..permutations import Permutation
from ..qbg import first_invalid_index

# the whole of S_n as one share (`_starts`)
WHOLE = (0, 1)


@dataclass
class ScanReport:
    name: str
    universe: str
    checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def _starts(n: int, share: tuple[int, int]) -> list[Permutation]:
    """
    Share (i, s) of S_n: the i-th of s runs of consecutive elements in the
    order of `all_permutations(n)`; only the run's elements are built.
    """
    i, s = share
    size = math.factorial(n)
    run = itertools.islice(itertools.permutations(range(1, n + 1)), size * i // s, size * (i + 1) // s)
    return [Permutation(p) for p in run]


def _scan(report: ScanReport, n: int, patterns, share: tuple[int, int]) -> ScanReport:
    """
    Walk every label pattern from every v of the share of S_n; record those
    that are paths.  In lexicographic order the patterns sharing a head are
    adjacent, so a pattern starting with the head on which the previous
    walk from v stopped (its labels through the first non-edge) is counted
    unwalked.
    """
    patterns = sorted(map(tuple, patterns))
    for v in _starts(n, share):
        dead = None
        for labels in patterns:
            report.checked += 1
            if dead is not None and labels[: len(dead)] == dead:
                continue
            stop = first_invalid_index(v, labels)
            if stop is None:
                report.counterexamples.append((v, labels))
                dead = None
            else:
                dead = labels[: stop + 1]
    return report


def scan_three_step_descents(n: int, weakened: bool = False, share: tuple[int, int] = WHOLE) -> ScanReport:
    """
    No path (v; (j,m), (i,m), (i,l)) with i < j < l < m exists.
    Weakened: allow l > m (swap the roles of l and m in the inequality).
    """
    name = "three-step-descent" + ("-weakened" if weakened else "")
    patterns = (
        [(j, l), (i, l), (i, m)] if weakened else [(j, m), (i, m), (i, l)]
        for i, j, l, m in itertools.combinations(range(1, n + 1), 4)
    )
    return _scan(ScanReport(name, f"S_{n}, indices <= {n}"), n, patterns, share)


def scan_three_step_ascents(n: int, weakened: bool = False, share: tuple[int, int] = WHOLE) -> ScanReport:
    """
    No path (v; (i,l), (i,m), (j,m)) with i < j < l < m exists.
    Weakened: drop i < j (take j < i instead).
    """
    name = "three-step-ascent" + ("-weakened" if weakened else "")
    patterns = (
        [(i, l), (i, m), (j, m)]
        for x, y, l, m in itertools.combinations(range(1, n + 1), 4)
        for i, j in [(y, x) if weakened else (x, y)]
    )
    return _scan(ScanReport(name, f"S_{n}, indices <= {n}"), n, patterns, share)


def scan_row_return_to_column(
    n: int, k_max: int, run_max: int, weakened: bool = False, share: tuple[int, int] = WHOLE
) -> ScanReport:
    """
    No path
      (v; (a,k-1), (b_1,k-1), ..., (b_s,k-1), (a_1,k), ..., (a_t,k), (a,k), (b,k))
    with a < b <= k-2, all of a, a_*, b_* distinct, and b not among the a_*.
    Weakened: allow b = k-1 (as-written upper bound; the three-step scan
    no longer covers the base case there, and instances exist).
    """
    name = "row-return-to-column" + ("-weakened" if weakened else "")
    patterns = []
    for k in range(3, k_max + 1):
        b_cap = k - 1 if weakened else k - 2
        for a in range(1, b_cap):
            for b in range(a + 1, b_cap + 1):
                others = [x for x in range(1, k) if x not in (a, b)]
                others_low = [x for x in others if x < k - 1]  # pair with column k-1
                for s in range(0, run_max + 1):
                    for t in range(0, run_max + 1 - s):
                        for bs in itertools.permutations(others_low, s):
                            for ats in itertools.permutations(others, t):
                                if set(bs) & set(ats):
                                    continue
                                patterns.append(
                                    [(a, k - 1)]
                                    + [(x, k - 1) for x in bs]
                                    + [(x, k) for x in ats]
                                    + [(a, k), (b, k)]
                                )
    return _scan(ScanReport(name, f"S_{n}, k <= {k_max}, s+t <= {run_max}"), n, patterns, share)


def scan_row_revisit(
    n: int, k_max: int, run_max: int, weakened: bool = False, share: tuple[int, int] = WHOLE
) -> ScanReport:
    """
    No path (v; (a,k), (b_1,k), ..., (b_s,k), (a,k)) with all rows <= k-2.
    Weakened: allow the rows to reach k-1.
    """
    name = "row-revisit" + ("-weakened" if weakened else "")
    patterns = []
    for k in range(3, k_max + 1):
        cap = k - 1 if weakened else k - 2
        for a in range(1, cap + 1):
            others = [x for x in range(1, cap + 1) if x != a]
            for s in range(0, run_max + 1):
                for bs in itertools.permutations(others, s):
                    patterns.append([(a, k)] + [(x, k) for x in bs] + [(a, k)])
    return _scan(ScanReport(name, f"S_{n}, k <= {k_max}, s <= {run_max}"), n, patterns, share)


def scan_four_step_pattern(n: int, weakened: bool = False, share: tuple[int, int] = WHOLE) -> ScanReport:
    """
    No path (v; (i,m), (j,m), (j,l), (i,k)) with i < j < k < l < m.
    Weakened: relax the final label's row from i to j.
    """
    name = "four-step-pattern" + ("-weakened" if weakened else "")
    patterns = (
        [(i, m), (j, m), (j, l), (j, k) if weakened else (i, k)]
        for i, j, k, l, m in itertools.combinations(range(1, n + 1), 5)
    )
    return _scan(ScanReport(name, f"S_{n}, indices <= {n}"), n, patterns, share)


def _chain_positions(report: ScanReport, n: int, k_max: int, size: int, share: tuple[int, int]):
    """
    (w, h, labels, ps) for every `size` label positions ps, in order, of
    every chain at every level h <= k_max from every w of the share of
    S_n; each chain counts as one check.
    """
    for w in _starts(n, share):
        for h in range(1, k_max + 1):
            for chain in enumerate_pieri_chains(w, h):
                report.checked += 1
                for ps in itertools.combinations(range(len(chain.labels)), size):
                    yield w, h, chain.labels, ps


def scan_chain_segment_descents(n: int, k_max: int, share: tuple[int, int] = WHOLE) -> ScanReport:
    """
    No chain at any level h <= k_max from any w in S_n contains labels
    (j,m), (i,m), (i,l) in this order with i < j <= h < l < m.
    """
    report = ScanReport("chain-segment-descent", f"S_{n}, levels <= {k_max}")
    for w, h, labels, ps in _chain_positions(report, n, k_max, 3, share):
        (j, m1), (i1, m2), (i2, l) = (labels[p] for p in ps)
        if m1 == m2 and i1 == i2 and i1 < j and l < m1:
            report.counterexamples.append((w, h, labels))
    return report


def scan_chain_isolated_row_drop(n: int, k_max: int, share: tuple[int, int] = WHOLE) -> ScanReport:
    """
    No chain at level h contains (i,m), (j,m), (j,l), (i,h+1) in this
    order with i, j <= h, h + 1 <= l < m, and no (i,d), h+1 <= d <= m,
    strictly between the first and last of these.
    """
    report = ScanReport("chain-isolated-row-drop", f"S_{n}, levels <= {k_max}")
    for w, h, labels, ps in _chain_positions(report, n, k_max, 4, share):
        (i1, m1), (j1, m2), (j2, l), (i2, kcol) = (labels[p] for p in ps)
        kk = h + 1
        if (m1 == m2 and j1 == j2 and i1 == i2 and kcol == kk and kk <= l < m1
                and not any(a == i1 and kk <= b <= m1 for a, b in labels[ps[0] + 1 : ps[3]])):
            report.counterexamples.append((w, h, labels))
    return report


def all_scans(n: int = 5, k_max: int = 5, run_max: int = 2, share: tuple[int, int] = WHOLE) -> list[ScanReport]:
    """The forbidden-pattern scans plus their weakened sensitivity twins, on one share of the starts."""
    return [
        scan_three_step_descents(n, share=share),
        scan_three_step_descents(n, weakened=True, share=share),
        scan_three_step_ascents(n, share=share),
        scan_three_step_ascents(n, weakened=True, share=share),
        scan_row_return_to_column(n, k_max, run_max, share=share),
        scan_row_return_to_column(n, k_max, run_max, weakened=True, share=share),
        scan_row_revisit(n, k_max, run_max, share=share),
        scan_row_revisit(n, k_max, run_max, weakened=True, share=share),
        scan_four_step_pattern(n, share=share),
        scan_four_step_pattern(n, weakened=True, share=share),
        scan_chain_segment_descents(min(n, 4), min(k_max, 3), share=share),
        scan_chain_isolated_row_drop(min(n, 4), min(k_max, 3), share=share),
    ]
