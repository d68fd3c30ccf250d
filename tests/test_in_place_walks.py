"""
The in-place chain walks against frozen copies of the enumerators they
replaced.

The old enumerators built a new `DirectedPath` at every node by a
written-out edge step (`old_extend`), and `monk_lhs_expand` recomputed
each Monk chain's Q-weight with `q_weight`.  The walks must give the same
chains in the same order, with the same kinds and ends, and the same
Monk expansions.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from qpieri.chains import (
    MonkChain,
    PieriChain,
    _walk_tables,
    enumerate_monk_chains,
    enumerate_pieri_chains,
    pieri_degree_rows,
)
from qpieri.expansion import Expansion, _fold, monk_lhs_expand
from qpieri.permutations import Permutation, all_permutations, label_precedes
from qpieri.qbg import DirectedPath, _window_kind, edge_kind, pack_monomial, q_weight, validate_path


def old_extend(path: DirectedPath, label) -> DirectedPath | None:
    """The written-out walk step `DirectedPath.extend` used to be."""
    a, b = label
    win = list(path.end.window)
    if b > len(win):
        win.extend(range(len(win) + 1, b + 1))
    kind = _window_kind(win, a, b)
    if kind is None:
        return None
    win[a - 1], win[b - 1] = win[b - 1], win[a - 1]
    return DirectedPath(path.start, path.labels + (label,), path.kinds + (kind,), Permutation(tuple(win)))


def old_pieri_chains(w: Permutation, k: int, max_column: int | None = None) -> list[PieriChain]:
    bound = max(w.support, k) + 1
    pool = _walk_tables(k, bound)[0]
    if max_column is not None:
        pool = tuple(label for label in pool if label[1] <= max_column)
    out: list[PieriChain] = []

    def dfs(path: DirectedPath, rows_before: set[int]) -> None:
        out.append(PieriChain(path, k))
        labels = path.labels
        for label in pool:
            if labels:
                last = labels[-1]
                if label[1] > last[1] or label == last:
                    continue
                if label in labels:
                    continue
                if len(labels) >= 2 and last[0] in rows_before and not label_precedes(last, label):
                    continue
            nxt = old_extend(path, label)
            if nxt is None:
                continue
            rows_now = rows_before | {last[0]} if labels else set()
            dfs(nxt, rows_now)

    dfs(DirectedPath.empty(w), set())
    return out


def old_monk_chains(x: Permutation, k: int) -> list[MonkChain]:
    bound = max(x.support, k) + 1
    out: list[MonkChain] = []

    def dfs_cols(path: DirectedPath, s: int, t: int, last_b: int) -> None:
        out.append(MonkChain(path, k))
        assert (out[-1].s, out[-1].t) == (s, t)
        for b in range(last_b - 1, k, -1):
            nxt = old_extend(path, (k, b))
            if nxt is not None:
                dfs_cols(nxt, s, t + 1, b)

    def dfs_rows(path: DirectedPath, s: int, last_a: int) -> None:
        assert edge_kind(path.end, (k, bound + 1)) is None
        dfs_cols(path, s, 0, bound + 1)
        for a in range(last_a - 1, 0, -1):
            nxt = old_extend(path, (a, k))
            if nxt is not None:
                dfs_rows(nxt, s + 1, a)

    dfs_rows(DirectedPath.empty(x), 0, k)
    return out


def old_monk_lhs_expand(x: Permutation, k: int) -> Expansion:
    return _fold((m.end, {pack_monomial(q_weight(m.path)): (-1) ** m.t}) for m in old_monk_chains(x, k))


def _pieri_rows(chains):
    return [(c.labels, c.path.kinds, c.end) for c in chains]


def _monk_rows(chains):
    return [(m.labels, m.path.kinds, m.end, m.s, m.t) for m in chains]


@pytest.mark.parametrize("n", range(6))
def test_pieri_walk_matches_the_extend_based_enumerator(n):
    for w in all_permutations(n):
        for k in range(5):
            bound = max(w.support, k) + 1
            for cap in (None, *range(k, bound + 2)):
                assert _pieri_rows(enumerate_pieri_chains(w, k, cap)) == _pieri_rows(old_pieri_chains(w, k, cap))


@pytest.mark.parametrize("n", range(1, 7))
def test_monk_walk_matches_the_extend_based_enumerator(n):
    for x in all_permutations(n):
        for k in range(1, n + 2):
            assert _monk_rows(enumerate_monk_chains(x, k)) == _monk_rows(old_monk_chains(x, k))


@pytest.mark.parametrize("n", range(1, 7))
def test_monk_expansion_matches_the_q_weight_path(n):
    for x in all_permutations(n):
        for k in range(1, n + 1):
            assert monk_lhs_expand.__wrapped__(x, k) == old_monk_lhs_expand(x, k)


def test_every_pieri_chain_is_the_path_its_labels_walk():
    for n in range(1, 6):
        for w in all_permutations(n):
            for k in range(1, 5):
                for c in enumerate_pieri_chains(w, k):
                    assert validate_path(c.start, c.labels) == c.path


def test_the_walks_take_chains_deeper_than_the_recursion_limit():
    # from 21 at k = 200 the chains reach 200 labels, one walk level each;
    # the limit leaves this test 60 levels, as k = 1024 would leave 1000 of
    # Python's default limit behind
    w = Permutation.from_one_line("21")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        rows = pieri_degree_rows(w, 200)
        chains = enumerate_pieri_chains(w, 200)
        monk = enumerate_monk_chains(w, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert max(len(c.labels) for c in chains) == 200 and max(len(m.labels) for m in monk) == 199
    assert [c.end for c in chains] == list(rows[0])
