"""
The Pieri rows walk, whose candidates are a column's rows left and the
later columns, against a frozen copy of the walk it replaced.

The frozen walk tried every label of `tail_from[b]` at a node of column
b, and skipped a label already used (a set of labels) and, by (P2), a
label that descends from a repeated row (a count of uses per row).  Both
walks must give the same terms in the same order: the same interned end
objects, the same packed Q-weights and the same codes.  The tables the
new walk reads are checked here too: the candidate rows of a column
against the pool filtered by the same mask and floor, and the Q-weights
against `qbg.pack_monomial`.
"""

from __future__ import annotations

import random

import pytest

from qpieri import chains
from qpieri.chains import _column_rows, _walk_tables, pieri_degree_rows
from qpieri.expansion import clear_caches
from qpieri.permutations import Permutation, all_permutations, label_sort_key
from qpieri.qbg import QMonomial, pack_monomial


def frozen_pieri_degree_rows(w: Permutation, k: int):
    """The walk as it was: every label of tail_from[b] tested against the used set and the row counts."""
    bound = max(w.support, k) + 1
    pool = tuple(sorted(
        ((a, b) for a in range(1, k + 1) for b in range(k + 1, bound + 1)),
        key=label_sort_key,
    ))
    tail_from = tuple(tuple(lab for lab in pool if lab[1] <= b) for b in range(bound + 1))
    qstep = {(a, b): pack_monomial(QMonomial.q_range(a, b)) for b in range(2, bound + 1) for a in range(1, b)}
    row_step = 2 * (k + 1)
    window = list(w.extended(bound))
    row_uses = [0] * (k + 1)
    used: set = set()
    interned = chains._ends
    ends, qs, codes = [], [], []

    def visit(candidates, last, code, ell, q):
        n = bound
        while n and window[n - 1] == n:
            n -= 1
        key = tuple(window[:n])
        u = interned.get(key)
        if u is None:
            u = interned[key] = Permutation._from_swapped(key, ell)
        ends.append(u)
        qs.append(q)
        codes.append(code)
        last_a, last_b = last
        for label in candidates:
            if label in used:
                continue
            a, b = label
            descends = b == last_b and a < last_a
            if descends and row_uses[last_a] > 1:
                continue
            xa, xb = window[a - 1], window[b - 1]
            quantum = xa > xb
            lo, hi = (xb, xa) if quantum else (xa, xb)
            for c in range(a, b - 1):
                if (lo < window[c] < hi) is not quantum:
                    break
            else:
                window[a - 1], window[b - 1] = xb, xa
                used.add(label)
                row_uses[a] += 1
                visit(
                    tail_from[b],
                    label,
                    (code ^ 1) + row_step * (row_uses[a] == 1) + 2 * (descends or not last_a),
                    ell + (2 * (a - b) + 1 if quantum else 1),
                    q + qstep[label] if quantum else q,
                )
                row_uses[a] -= 1
                used.discard(label)
                window[a - 1], window[b - 1] = xa, xb

    visit(pool, (0, bound), 0, w.length(), 0)
    return tuple(ends), tuple(qs), tuple(codes)


def _grid():
    for w in all_permutations(5):
        for k in range(1, 7):
            yield w, k
    for w in all_permutations(6):
        for k in range(1, 5):
            yield w, k
    rng = random.Random(28)
    for n, size in ((7, 40), (8, 12)):
        for k in range(3, 6):
            for _ in range(size):
                yield Permutation(tuple(rng.sample(range(1, n + 1), n))), k


def test_the_walk_matches_the_frozen_walk_term_for_term():
    clear_caches()
    try:
        checked = 0
        for i, (w, k) in enumerate(_grid()):
            # the first walk to reach an end builds it: take turns
            if i % 2:
                got_ends, got_qs, got_codes = pieri_degree_rows(w, k)
                ends, qs, codes = frozen_pieri_degree_rows(w, k)
            else:
                ends, qs, codes = frozen_pieri_degree_rows(w, k)
                got_ends, got_qs, got_codes = pieri_degree_rows(w, k)
            assert (got_qs, got_codes) == (qs, codes), (w, k)
            # the same interned objects, in the same order
            assert len(got_ends) == len(ends) and all(x is y for x, y in zip(got_ends, ends)), (w, k)
            checked += 1
        assert checked == 120 * 6 + 720 * 4 + 3 * (40 + 12)
    finally:
        clear_caches()


def test_a_new_end_carries_its_window_and_length():
    clear_caches()
    try:
        for w in all_permutations(4):
            for u in pieri_degree_rows(w, 3)[0]:
                assert u._length is not None
                assert u == Permutation(u.window) and u.length() == Permutation(u.window).length()
                assert not u.window or u.window[-1] != len(u.window)
    finally:
        clear_caches()


@pytest.mark.parametrize("k", range(1, 7))
def test_column_candidates_are_the_filtered_pool(k):
    bound = k + 2
    pool = _walk_tables(k, bound)[0]
    table = _column_rows(k)
    for seg in range(0, 2 << k, 2):
        for floor in range(k + 1):
            mask = seg | ((2 << floor) - 2)
            for b in range(k + 1, bound + 1):
                want = tuple(a for a, c in pool if c == b and not seg >> a & 1 and a > floor)
                assert table[mask] == want, (k, seg, floor, b)


@pytest.mark.parametrize("k, bound", [(1, 2), (1, 5), (3, 4), (3, 9), (5, 6), (6, 12)])
def test_qstep_holds_the_labels_a_walk_can_take(k, bound):
    pool, _, qstep = _walk_tables(k, bound)
    assert len(qstep) == len(pool) + k - 1
    assert set(qstep) == set(pool) | {(a, k) for a in range(1, k)}
    for (a, b), key in qstep.items():
        assert key == pack_monomial(QMonomial.q_range(a, b))


def test_tables_past_q1024_are_refused():
    assert len(_walk_tables(1, 1025)[2]) == 1024
    with pytest.raises(ValueError, match="Q1025"):
        _walk_tables(1, 1026)
