"""Decomposition tags: disjointness, covering, and the closed-form classes."""

from __future__ import annotations

import pytest

from qpieri.chains import PieriChain
from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit.classify import (
    classify,
    dec1_base_low,
    dec1_base_top,
    dec2_base,
    in_class_e,
    in_class_f,
    in_class_g,
    kappa_double_prime,
    kappa_prime,
    monk_refinement,
    monk_side,
    s_refinement,
    y3_circle,
    y3_detail,
)
from qpieri.proofkit.surgery import segment
from qpieri.proofkit.universe import enumerate_marked, enumerate_paired
from qpieri.qbg import validate_path

P = Permutation.from_one_line

GRID = [(w, k, g) for w in all_permutations(3) for k in (2, 3) for g in (1, 2)]


def test_stage1_top_partition():
    for w, k, g in GRID:
        for q in enumerate_paired(w, k - 1, g, k):
            base = dec1_base_top(q, k)
            assert base in ("A", "B1", "B2", "B3")
            side = monk_side(q, k)
            assert side in ("X", "Y")
            # the three B-cases are mutually exclusive by construction
            kk = (k - 1, k)
            if base == "A":
                assert kk not in q.chain.labels
            else:
                assert kk in q.chain.labels


def test_stage1_low_partition():
    for w, k, g in GRID:
        for q in enumerate_paired(w, k - 2, g - 1, k):
            base = dec1_base_low(q, k)
            assert base in ("C", "D11", "D12", "D2")
            n_col = [b for _, b in q.chain.labels].count(k - 1)
            if base == "C":
                assert n_col == 0
            else:
                assert n_col >= 1
            if base in ("D11", "D12"):
                rows_k = {a for a, _ in segment(q.chain.labels, k)}
                rows_k1 = {a for a, _ in segment(q.chain.labels, k - 1)}
                assert (not rows_k & rows_k1) == (base == "D11")


def test_stage2_partition_covers_and_is_disjoint():
    for w, k, g in GRID:
        for q in enumerate_paired(w, k - 1, g, k):
            base = dec2_base(q, k)
            assert base in ("A1", "A2", "A3", "B1", "Bns1", "Bns2", "Bns3")
            top = dec1_base_top(q, k)
            if top == "A":
                assert base in ("A1", "A2", "A3")
            elif top == "B1":
                assert base == "B1"
            elif top == "B2":
                assert base == "Bns1"
            else:
                assert base in ("Bns2", "Bns3")
            if monk_side(q, k) == "Y":
                ref = monk_refinement(q, k)
                assert ref in ("empty", "Y2", "Y3")
                if ref == "Y3":
                    assert y3_detail(q, k) in ("(1)", "(2)")
                    if y3_detail(q, k) == "(1)":
                        assert y3_circle(q, k) in ("c1", "c2")


def test_efg_closed_forms_match_class_unions():
    for w, k, g in GRID:
        for q in enumerate_paired(w, k - 1, g, k):
            if monk_side(q, k) == "X":
                assert not in_class_e(q, k) and not in_class_f(q, k) and not in_class_g(q, k)
                continue
            base = dec2_base(q, k)
            ref = monk_refinement(q, k)
            assert in_class_e(q, k) == (
                base in ("A3", "Bns1", "Bns3") and ref == "Y2"
            )
            assert in_class_f(q, k) == (
                base in ("A2", "B1", "Bns2") and ref == "empty"
            )
            assert in_class_g(q, k) == (
                base in ("A3", "Bns1", "Bns3") and ref == "empty"
            )


def test_stage3_level_k_partition():
    for w in all_permutations(3):
        for k in (2, 3):
            for p in (1, 2):
                for mc in enumerate_marked(w, k, p):
                    tag = s_refinement(mc, k)
                    assert tag in ("R", "S11", "S12a", "S12b", "S2")
                    has_col = any(a == k for a, _ in mc.chain.labels)
                    assert (tag == "R") == (not has_col)


def test_intersecting_border_class_reduces_to_prefix_rows():
    """
    For an element whose Monk row segment meets the chain's lowest-column
    segment, the overlap avoids the adjacent label's row and the rows after
    it: it lies entirely among the rows before the adjacent label.
    """
    for w, k, g in GRID:
        kk = (k - 1, k)
        for q in enumerate_paired(w, k - 1, g, k):
            if monk_side(q, k) != "Y" or not dec2_base(q, k).startswith("Bns"):
                continue
            if monk_refinement(q, k) != "Y3" or y3_detail(q, k) != "(1)":
                continue
            seg = segment(q.chain.labels, k)
            pos = seg.index(kk)
            before = {a for a, _ in seg[:pos]}
            after = {a for a, _ in seg[pos + 1 :]}
            monk_rows = {a for a, _ in q.monk.labels[: q.monk.s]}
            full = before | {k - 1} | after
            assert full & monk_rows == before & monk_rows


def test_kappa_prime_example():
    # chase: final (*,2)-label row recurs at column 3, then stops
    path = validate_path(P("132"), [(1, 3), (1, 2)])
    chain = PieriChain(path, 1)
    label, hops, cols = kappa_prime(chain, 2)
    assert label == (1, 3) and hops == 1 and cols == [2, 3]


def test_kappa_prime_immediate_stop():
    path = validate_path(P("321"), [(1, 4), (2, 3)])
    chain = PieriChain(path, 2)
    label, hops, cols = kappa_prime(chain, 3)
    assert label == (2, 3) and hops == 0 and cols == [3]


def test_kappa_double_prime_example():
    # level-3 chain whose (3,4) label is not final in its column run
    path = validate_path(Permutation.identity(), [(3, 4), (2, 4), (1, 4)])
    chain = PieriChain(path, 3)
    label, hops, cols = kappa_double_prime(chain, 3)
    assert label == (1, 4) and hops == 0 and cols == [4]


def test_kappa_double_prime_on_inserted_chain():
    path = validate_path(P("312"), [(1, 4), (2, 3), (1, 3)])
    chain = PieriChain(path, 2)
    label, hops, cols = kappa_double_prime(chain, 2)
    assert label == (1, 4) and cols == [3, 4]


def test_classify_dispatcher():
    w = P("321")
    for q in enumerate_paired(w, 1, 1, 2):
        tag = classify(q, 1, 2)
        assert tag[0] in ("A", "B1", "B2", "B3")
        tag2 = classify(q, 2, 2)
        assert tag2[0] in ("A1", "A2", "A3", "B1", "Bns1", "Bns2", "Bns3")
    for q in enumerate_paired(w, 0, 0, 2):
        assert classify(q, 1, 2)[0] == "C"
    with pytest.raises(ValueError):
        classify(next(iter(enumerate_paired(w, 1, 1, 2))), 5, 2)
