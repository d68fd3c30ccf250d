"""Chain and marking enumeration against independent brute-force oracles."""

from __future__ import annotations

import gc
import itertools
import math

import pytest

from qpieri.chains import (
    MonkChain,
    PieriChain,
    enumerate_markings,
    enumerate_monk_chains,
    enumerate_pieri_chains,
    first_occurrences,
    forced_marks,
    is_marking,
    marking_count,
    pieri_degree_rows,
    pieri_violation,
)
from qpieri.expansion import monk_lhs_expand
from qpieri.permutations import Permutation, all_permutations, label_precedes
from qpieri.qbg import edge_kind_by_length, validate_path

P = Permutation.from_one_line


# --- independent oracle: brute-force chain enumeration via length deltas ----


def oracle_pieri_chains(w, k, max_b):
    labels = [(a, b) for a in range(1, k + 1) for b in range(k + 1, max_b + 1)]
    found = []

    def ok(seq):
        return pieri_violation(tuple(seq), k) is None

    def grow(x, seq):
        found.append(tuple(seq))
        for lab in labels:
            if lab in seq:
                continue
            if edge_kind_by_length(x, lab) is None:
                continue
            seq.append(lab)
            if ok(seq):
                grow(x.apply(lab), seq)
            seq.pop()

    grow(w, [])
    return sorted(found)


def test_pieri_enumeration_matches_oracle_s3():
    for w in all_permutations(3):
        for k in (1, 2):
            bound = max(w.support, k) + 1
            ours = sorted(c.labels for c in enumerate_pieri_chains(w, k))
            assert ours == oracle_pieri_chains(w, k, bound)


@pytest.mark.parametrize("n", [4, 5])
def test_a_column_cap_gives_the_chains_whose_first_column_fits(n):
    for w in all_permutations(n):
        for k in (0, 1, 2, 3):
            every = enumerate_pieri_chains(w, k)
            for cap in range(k, max(w.support, k) + 3):
                want = [c.labels for c in every if not c.labels or c.labels[0][1] <= cap]
                assert [c.labels for c in enumerate_pieri_chains(w, k, cap)] == want, (w, k, cap)


def test_pieri_chain_counts_for_the_worked_examples():
    # the 321 example: the conditions admit 14 chains (see
    # test_chain_completeness for the two beyond the original listing)
    assert len(enumerate_pieri_chains(P("321"), 2)) == 14
    assert len(enumerate_pieri_chains(P("32514"), 3)) == 26


def test_pieri_chains_from_identity():
    chains = enumerate_pieri_chains(Permutation.identity(), 1)
    assert sorted(c.labels for c in chains) == [(), ((1, 2),)]


def test_chain_invariants_over_s4():
    for w in all_permutations(4):
        for k in (1, 2, 3):
            for chain in enumerate_pieri_chains(w, k):
                labels = chain.labels
                assert len(set(labels)) == len(labels)
                assert all(a <= k < b for a, b in labels)
                cols = chain.columns()
                assert cols == sorted(cols, reverse=True)
                for m in cols:
                    seg = chain.segment_of_b(m)
                    assert all(labels[i][1] == m for i in seg)


def test_segments_example():
    path = validate_path(P("321"), [(1, 4), (2, 4), (1, 3)])
    chain = PieriChain(path, 2)
    assert chain.segment_of_b(4) == range(0, 2)
    assert chain.segment_of_b(3) == range(2, 3)
    assert len(chain.segment_of_b(5)) == 0
    assert chain.segment_after((1, 4)) == ((2, 4),)


def test_monk_chain_examples():
    assert sorted(m.labels for m in enumerate_monk_chains(Permutation.identity(), 1)) == [
        (), ((1, 2),)
    ]
    labels = sorted(m.labels for m in enumerate_monk_chains(P("321"), 1))
    assert labels == sorted(
        [(), ((1, 2),), ((1, 3),), ((1, 4),), ((1, 3), (1, 2)), ((1, 4), (1, 2)),
         ((1, 4), (1, 3)), ((1, 4), (1, 3), (1, 2))]
    )


def oracle_monk_chains(x, k, max_b):
    """Literal shape check + length-delta edges, independent of the module."""
    found = []
    rows = list(range(1, k))
    cols = list(range(k + 1, max_b + 1))
    for s in range(0, len(rows) + 1):
        for a_seq in itertools.permutations(rows, s):
            if list(a_seq) != sorted(a_seq, reverse=True):
                continue
            for t in range(0, len(cols) + 1):
                for b_seq in itertools.combinations(cols, t):
                    labels = [(a, k) for a in a_seq] + [
                        (k, b) for b in sorted(b_seq, reverse=True)
                    ]
                    v = x
                    good = True
                    for lab in labels:
                        if edge_kind_by_length(v, lab) is None:
                            good = False
                            break
                        v = v.apply(lab)
                    if good:
                        found.append(tuple(labels))
    return sorted(found)


def test_monk_enumeration_matches_oracle():
    for x in all_permutations(3):
        for k in (1, 2, 3):
            bound = max(x.support, k) + 1
            ours = sorted(m.labels for m in enumerate_monk_chains(x, k))
            assert ours == oracle_monk_chains(x, k, bound)


def test_monk_chain_shape_validation():
    path = validate_path(P("321"), [(1, 4)])
    with pytest.raises(ValueError):
        MonkChain(path, 2)  # (1,4) is neither (a,2) nor (2,b) shape... rejected
    # the segment lengths are read off the labels
    m = MonkChain(validate_path(P("321"), [(1, 2)]), 2)
    assert (m.s, m.t) == (1, 0)


# --- markings ----------------------------------------------------------------


def brute_markings(chain, p):
    return sorted(
        frozenset(sub)
        for sub in itertools.combinations(chain.labels, p)
        if is_marking(chain, frozenset(sub))
    )


def _chain(w, labels, k):
    path = validate_path(P(w), labels)
    assert path is not None
    return PieriChain(path, k)


def test_marking_examples():
    chain = _chain("321", [(1, 4), (1, 3), (2, 3)], 2)
    assert enumerate_markings(chain, 2) == [frozenset({(1, 4), (2, 3)})]

    chain = _chain("32514", [(1, 5), (2, 5), (3, 4)], 3)
    assert enumerate_markings(chain, 2) == [
        frozenset({(1, 5), (2, 5)}),
        frozenset({(1, 5), (3, 4)}),
    ]

    empty = _chain("321", [], 2)
    assert enumerate_markings(empty, 0) == [frozenset()]
    assert enumerate_markings(empty, 1) == []


def test_marking_count_examples():
    chain = _chain("321", [(1, 4), (1, 3), (2, 3)], 2)
    assert forced_marks(chain) == {(1, 4)}
    assert first_occurrences(chain) == {(1, 4), (2, 3)}
    assert marking_count(chain, 2) == 1

    chain = _chain("32514", [(1, 5), (2, 5), (3, 4)], 3)
    assert marking_count(chain, 2) == 2

    for w in all_permutations(3):
        for k in (1, 2):
            for chain in enumerate_pieri_chains(w, k):
                assert marking_count(chain, 0) == (1 if len(chain) == 0 else 0)


def test_descending_run_forces_every_prefix_end():
    chain = _chain("32514", [(3, 4), (1, 4), (2, 4)], 3)
    assert forced_marks(chain) == {(3, 4), (1, 4)}
    assert enumerate_markings(chain, 2) == [frozenset({(3, 4), (1, 4)})]


def test_marking_closed_form_matches_brute_force_s4():
    for w in all_permutations(4):
        for k in (1, 2, 3):
            for chain in enumerate_pieri_chains(w, k):
                for p in range(0, k + 1):
                    brute = brute_markings(chain, p)
                    assert sorted(enumerate_markings(chain, p)) == brute
                    assert marking_count(chain, p) == len(brute)
                    if brute:
                        m0 = len({a for a, _ in chain.labels})
                        assert p <= m0


# --- frozen reference: the markings code before its one-pass derivation ----


def frozen_forced_marks(chain):
    labels = chain.labels
    forced = set()
    for t in range(1, len(labels) + 1):
        head = labels[:t]
        if all(x[1] == head[0][1] for x in head) and all(
            head[i][0] > head[i + 1][0] for i in range(t - 1)
        ):
            forced.add(head[t - 1])
        else:
            break
    for s in range(len(labels) - 1):
        if not label_precedes(labels[s], labels[s + 1]):
            forced.add(labels[s])
    return forced


def frozen_enumerate_markings(chain, p):
    if p < 0 or p > len(chain):
        return []
    forced = frozen_forced_marks(chain)
    firsts = first_occurrences(chain)
    if not forced <= firsts:
        return []
    free = sorted(firsts - forced, key=lambda lab: chain.labels.index(lab))
    need = p - len(forced)
    if need < 0 or need > len(free):
        return []
    return [frozenset(forced) | frozenset(extra) for extra in itertools.combinations(free, need)]


def frozen_marking_count(chain, p):
    if p < 0 or p > len(chain):
        return 0
    forced = frozen_forced_marks(chain)
    if not forced <= first_occurrences(chain):
        return 0
    m0 = len({a for a, _ in chain.labels})
    m = len(forced)
    if p < m or p > m0:
        return 0
    return math.comb(m0 - m, p - m)


def test_markings_match_the_frozen_reference_in_order():
    # `chains_table`, `markings_table` and `qpieri chains --format json`
    # print markings in list order, so the order is compared too
    cases = 0
    for n in range(6):
        for w in all_permutations(n):
            for k in range(5):
                for chain in enumerate_pieri_chains(w, k):
                    assert forced_marks(chain) == frozen_forced_marks(chain), chain
                    for p in range(-1, k + 2):
                        assert enumerate_markings(chain, p) == frozen_enumerate_markings(chain, p), (chain, p)
                        assert marking_count(chain, p) == frozen_marking_count(chain, p), (chain, p)
                        cases += 1
    assert cases == 65077


def test_nonempty_marking_needs_enough_rows():
    for w in all_permutations(3):
        for chain in enumerate_pieri_chains(w, 2):
            rows = {a for a, _ in chain.labels}
            if len(rows) < 2:
                assert enumerate_markings(chain, 2) == []


def test_b_class_chains_have_single_small_row_occurrence():
    # chains carrying a marked (k-1,k) label have exactly one (k-1,*) label
    for w in all_permutations(3):
        for k in (2, 3):
            for chain in enumerate_pieri_chains(w, k - 1):
                if (k - 1, k) not in chain.labels:
                    continue
                for m in enumerate_markings(chain, min(2, len(chain))):
                    if (k - 1, k) in m:
                        assert chain.n_row(k - 1) == 1


@pytest.mark.parametrize(
    "walk",
    [
        lambda: pieri_degree_rows(P("62417583"), 5),
        lambda: enumerate_pieri_chains(P("32514"), 3),
        lambda: enumerate_monk_chains(P("32514"), 3),
        lambda: monk_lhs_expand.__wrapped__(P("32514"), 3),
    ],
    ids=["pieri_degree_rows", "enumerate_pieri_chains", "enumerate_monk_chains", "monk_lhs_expand"],
)
def test_a_walk_leaves_nothing_for_the_cyclic_collector(walk):
    # the recursive closures let go of themselves, so every walk's scratch
    # state is freed by reference counting alone
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        walk()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
