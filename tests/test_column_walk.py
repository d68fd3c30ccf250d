"""
The Pieri rows walk against the chain enumerator and the marking counts.

`pieri_degree_rows` keeps one term per k-Pieri chain, in the order
`enumerate_pieri_chains` lists the chains: the window of the chain's end,
its packed Q-weight and a code whose `weight_row` holds the chain's signed marking
count in every degree.  The tables the walk reads are checked here too:
the candidates of a column against the pool filtered by the same mask
and floor, and the Q-weights against `qbg.pack_monomial`.
"""

from __future__ import annotations

import random

import pytest

from qpieri import chains as engine
from qpieri.chains import (
    _walk_tables,
    enumerate_pieri_chains,
    marking_count,
    pieri_degree_rows,
    weight_row,
)
from qpieri.expansion import clear_caches
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import QMonomial, pack_monomial, q_weight


# a seeded sample of S_7 and S_8 with k = 3..5: 40 and 12 walks for each k
_rng = random.Random(28)
_SAMPLE = [
    (n, k, Permutation(tuple(_rng.sample(range(1, n + 1), n))))
    for n, size in ((7, 40), (8, 12))
    for k in range(3, 6)
    for _ in range(size)
]
del _rng


def _walks(n: int, k: int) -> list[Permutation]:
    if n <= 6:
        return list(all_permutations(n))
    return [w for m, j, w in _SAMPLE if (m, j) == (n, k)]


def signed_marking_counts(chain, k: int) -> tuple[int, ...]:
    """The chain's weight in the degrees p = 0..k: (-1)^(len - p) * #p-markings."""
    return tuple((-1) ** (len(chain) - p) * marking_count(chain, p) for p in range(k + 1))


# S_5 lies inside S_6, so it adds only its walks at k = 5, 6
@pytest.mark.parametrize(
    "n, k",
    [(6, 1), (6, 2), (6, 3), (6, 4), (5, 5), (5, 6), (7, 3), (7, 4), (7, 5), (8, 3), (8, 4), (8, 5)],
)
def test_each_walk_lists_one_term_per_chain_in_chain_order(n, k):
    walks = _walks(n, k)
    assert len(walks) == {5: 120, 6: 720, 7: 40, 8: 12}[n]
    for w in walks:
        ends, qs, codes = pieri_degree_rows(w, k)
        chains = enumerate_pieri_chains(w, k)
        assert len(set(ends)) == len(ends) == len(qs) == len(codes) == len(chains), (w, k)
        got = [(u, q, weight_row(k, code)) for u, q, code in zip(ends, qs, codes)]
        want = [(c.end.window, pack_monomial(q_weight(c.path)), signed_marking_counts(c, k)) for c in chains]
        assert got == want, (w, k)


# the longest columns over S_6: the count and the distinct ends only
@pytest.mark.parametrize("k", [5, 6])
def test_each_walk_over_s6_has_one_distinct_end_per_chain(k):
    for w in all_permutations(6):
        ends = pieri_degree_rows(w, k)[0]
        assert len(set(ends)) == len(ends) == len(enumerate_pieri_chains(w, k)), (w, k)


def test_a_new_end_carries_its_window_and_length():
    clear_caches()
    try:
        for w in all_permutations(4):
            for end in pieri_degree_rows(w, 3)[0]:
                u = engine._ends[end]
                assert u.window is end and u._length is not None
                assert u == Permutation(end) and u.length() == Permutation(end).length()
                assert not end or end[-1] != len(end)
    finally:
        clear_caches()


@pytest.mark.parametrize("k", range(1, 7))
def test_column_candidates_are_the_filtered_pool(k):
    bound = k + 2
    tail_from, _, candidates = _walk_tables(k, bound)
    pool = tail_from[bound]
    for seg in range(0, 2 << k, 2):
        for floor in range(k + 1):
            mask = seg | ((2 << floor) - 2)
            for b in range(k + 1, bound + 1):
                want = tuple((a, c) for a, c in pool if c == b and not seg >> a & 1 and a > floor)
                want += tuple((a, c) for a, c in pool if c < b)
                assert candidates[b][mask] == want, (k, seg, floor, b)
    # the root stands in column N + 1 with every row taken
    assert candidates[bound + 1][(2 << k) - 2] == pool


@pytest.mark.parametrize("k, bound", [(1, 2), (1, 5), (3, 4), (3, 9), (5, 6), (6, 12)])
def test_qstep_holds_the_labels_a_walk_can_take(k, bound):
    tail_from, qstep, _ = _walk_tables(k, bound)
    pool = tail_from[bound]
    assert len(qstep) == len(pool) + k - 1
    assert set(qstep) == set(pool) | {(a, k) for a in range(1, k)}
    for (a, b), key in qstep.items():
        assert key == pack_monomial(QMonomial.q_range(a, b))


def test_tables_past_q1024_are_refused():
    assert len(_walk_tables(1, 1025)[1]) == 1024
    with pytest.raises(ValueError, match="Q1025"):
        _walk_tables(1, 1026)
