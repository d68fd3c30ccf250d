"""
Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Three criteria contain clauses that the executable definitions refute, and
their tests fail honestly rather than weakening the check:

  01  the first worked example's original 12-row listing omits two chains
      that the chain conditions admit (test_chain_completeness proves
      them); the emitted table has 14 rows;
  06  a small family of the written matchings' instances land outside the
      universes (forced-marking collisions; inventory pinned in
      test_proofkit_bijections) and the degree-one marking levels are
      structurally broken;
  07  the assembled identities at degree one sit below the machinery's
      lowest valid marking level and genuinely fail there (they hold at
      degree two, which is also checked here).
"""

from __future__ import annotations

import collections
import time

import pytest

from qpieri.chains import enumerate_pieri_chains
from qpieri.expansion import pieri_expand
from qpieri.golden import EX1, EX2, expected_expansion, expected_table
from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit.identities import (
    check_grand_cancellation,
    check_stage1_identity,
    check_stage2_identity,
)
from qpieri.qbg import QMonomial
from qpieri.render import chains_table
from qpieri.verify import run_suite

P = Permutation.from_one_line


def _finish(num: int, desc: str, ok: bool, budget: float, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:.2f}s): {desc}" + (f" -- {detail}" if detail else ""))
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")


def test_criterion_01_first_example_reproduction():
    t0 = time.time()
    w = P(EX1.w)
    table = chains_table(w, EX1.k, EX1.p)
    expansion = pieri_expand(w, EX1.k, EX1.p)
    rows = table.splitlines()[1:]

    assert expansion == expected_expansion(EX1)
    assert expansion.render() + "\n" == EX1.expansion_text + "\n"
    assert table == expected_table(EX1)
    # every row of the original 12-row listing appears verbatim, in order
    original = [r for r in rows if not r.startswith(("(321 ; (2,4)_B)", "(321 ; (2,4)_B,"))]
    assert len(original) == EX1.published_rows

    ok = len(rows) == EX1.published_rows
    _finish(
        1,
        "first worked example: exact 12-row table and 7-term expansion",
        ok,
        1.0,
        time.time() - t0,
        detail=(
            f"expansion is byte-exact, but the table has {len(rows)} chains: the "
            "original listing omits (321 ; (2,4)_B) and (321 ; (2,4)_B, (2,3)_Q), "
            "both of which satisfy every chain condition under both edge criteria "
            "(see tests/test_chain_completeness.py)"
        ),
    )


def test_criterion_02_second_example_reproduction():
    t0 = time.time()
    w = P(EX2.w)
    chains = enumerate_pieri_chains(w, EX2.k)
    assert len(chains) == 26

    table = chains_table(w, EX2.k, EX2.p)
    assert table == expected_table(EX2)

    expansion = pieri_expand(w, EX2.k, EX2.p)
    assert expansion == expected_expansion(EX2)
    assert len(expansion) == 20
    assert all(
        all(isinstance(c, int) for c in poly.terms.values())
        for poly in expansion.terms.values()
    )
    q3 = QMonomial.variable(3)
    assert expansion.terms[P("431625")].terms[q3] == 2
    assert expansion.terms[P("43152")].terms[q3] == -2
    assert expansion.terms[P("436125")].terms[QMonomial.one()] == -2
    _finish(
        2,
        "second worked example: 26 chains, 20-term expansion with both double "
        "coefficients",
        True,
        5.0,
        time.time() - t0,
    )


def test_criterion_03_classical_oracle():
    t0 = time.time()
    report = run_suite("classical")
    _finish(3, "polynomial identities at Q=0", report.passed, 60.0, time.time() - t0,
            detail="; ".join(report.failures[:3]))


def test_criterion_04_commutativity():
    t0 = time.time()
    report = run_suite("commutativity")
    _finish(4, "factor-order independence of double expansions", report.passed, 120.0,
            time.time() - t0, detail="; ".join(report.failures[:3]))


def test_criterion_05_marking_count_formula():
    t0 = time.time()
    report = run_suite("markings")
    _finish(
        5,
        "closed-form marking count equals brute force over S_4",
        report.passed,
        60.0,
        time.time() - t0,
        detail="; ".join(report.failures[:3]),
    )


def test_criterion_06_matchings():
    t0 = time.time()
    report = run_suite("bijections")
    kinds = collections.Counter(f.split("[")[0] for f in report.failures)
    _finish(
        6,
        "all eighteen matchings bijective with their weight laws over the grid",
        report.passed,
        120.0,
        time.time() - t0,
        detail=(
            f"{len(report.failures)} instances fail, by map: {dict(sorted(kinds.items()))}; "
            "the zero-mark levels are structurally outside the machinery and the "
            "column-3 instances are forced-marking collisions "
            "(inventory pinned in tests/test_proofkit_bijections.py); the column-2 "
            "degree-2 grid and the column-3 top degree are clean"
        ),
    )


def test_criterion_07_assembled_identities():
    t0 = time.time()
    failures = []
    for w in all_permutations(3):
        for p in (1, 2):
            for name, fn in (
                ("stage-1", check_stage1_identity),
                ("stage-2", check_stage2_identity),
                ("cancellation", check_grand_cancellation),
            ):
                if not fn(w, 2, p):
                    failures.append(f"{name} at w={w.one_line()}, p={p}")
    _finish(
        7,
        "assembled identities at column 2, degrees 1 and 2",
        not failures,
        60.0,
        time.time() - t0,
        detail=(
            f"{len(failures)} failures, all at degree 1 "
            f"(degree 2 is exact for every start): the degree-1 case sits below "
            "the machinery's lowest valid marking level (tests/test_identities.py)"
            if failures and all("p=1" in f for f in failures)
            else "; ".join(failures[:4])
        ),
    )


def test_criterion_08_forbidden_pattern_scans():
    t0 = time.time()
    report = run_suite("lemmas")
    _finish(
        8,
        "non-existence scans clean on S_5; weakened twins all fire",
        report.passed,
        120.0,
        time.time() - t0,
        detail="; ".join(report.failures[:3]),
    )


def test_criterion_09_insertion_deletion_round_trips():
    # every admissible path stays inside S_5: starts range over S_5 and
    # columns are capped at 5
    t0 = time.time()
    report = run_suite("insertion", 5)
    assert report.checked > 1000
    _finish(9, "insertion/deletion round trips on all admissible inputs", report.passed, 60.0,
            time.time() - t0, detail="; ".join(report.failures[:3]))


def test_criterion_10_edge_criterion_equivalence():
    t0 = time.time()
    report = run_suite("edges")
    _finish(10, "window criterion equals length-delta definition on S_6", report.passed, 30.0,
            time.time() - t0, detail="; ".join(report.failures[:3]))
