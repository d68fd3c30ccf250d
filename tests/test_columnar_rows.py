"""
`pieri_expand` and the products from the walk's cached columns.

Every degree of a (w, k) comes from one cached walk (`_pieri_rows`),
whatever order the degrees are asked in.  Ends are interned across
walks, the Monk walk of `monk_lhs_expand` included, each window one tuple
that the rows hold and the `chains._ends` entry wraps, and emptied with
the other caches by `clear_caches`.  The walk's terms themselves are checked
against the chains in `tests/test_column_walk.py`.
"""

from __future__ import annotations

import random

from reference import reference_expansions

from qpieri import chains, expansion
from qpieri.chains import code_weight, pieri_degree_rows
from qpieri.expansion import _pieri_rows, clear_caches, expand_product_chain, monk_lhs_expand, pieri_expand
from qpieri.permutations import Permutation, all_permutations


def test_degrees_requested_in_any_order_agree():
    rng = random.Random(11)
    for w in all_permutations(4):
        for k in (2, 3, 4):
            want = reference_expansions(w, k)
            for _ in range(2):
                clear_caches()
                degrees = list(range(k + 1))
                rng.shuffle(degrees)
                for p in degrees:
                    assert pieri_expand(w, k, p) == want[p], (w, k, degrees, p)


def test_the_per_degree_cache_stays_bounded_and_recomputes_what_it_evicts():
    pieri_expand.cache_clear()
    bound = pieri_expand.cache_parameters()["maxsize"]
    first = {}
    for w in all_permutations(5):
        for k in (1, 2, 3, 4):
            for p in range(k + 1):
                first[w, k, p] = pieri_expand(w, k, p)
                assert pieri_expand.cache_info().currsize <= bound, (w, k, p)
    assert len(first) > bound
    for key in list(first)[:bound]:
        misses = pieri_expand.cache_info().misses
        assert pieri_expand(*key) == first[key], key
        assert pieri_expand.cache_info().misses == misses + 1, key


def test_walks_reaching_one_window_share_one_end_with_its_length():
    clear_caches()
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    reached = 0
    # starts of several sizes and bounds: k = 5 pads every window of S_3 to 6
    for w in all_permutations(3):
        for k in (1, 2, 3, 5):
            for end in pieri_degree_rows(w, k)[0]:
                reached += 1
                u = chains._ends[end]
                assert end is first.setdefault(end, end) is u.window, (w, k, u)
                assert u.length() == Permutation(end).length(), (w, k, u)
    assert len(first) == len(chains._ends) < reached


def test_monk_expansion_keys_are_the_interned_ends():
    clear_caches()
    keys = 0
    for x in all_permutations(4):
        for k in (1, 2, 3):
            for u in monk_lhs_expand(x, k).terms:
                keys += 1
                assert u is chains._ends[u.window], (x, k, u)
    assert len(chains._ends) < keys == 528


def test_a_product_after_clear_caches_equals_the_one_before():
    factors = [(2, 1), (3, 2), (1, 1)]
    for w in all_permutations(4):
        before = (pieri_expand(w, 3, 2), expand_product_chain(w, factors))
        assert chains._walk_tables.cache_info().currsize > 0
        clear_caches()
        assert not chains._ends and _pieri_rows.cache_info().currsize == chains._walk_tables.cache_info().currsize == 0
        assert pieri_expand.cache_info().currsize == expansion._weight_column.cache_info().currsize == 0
        assert (pieri_expand(w, 3, 2), expand_product_chain(w, factors)) == before, w


def test_a_column_of_the_codes_read_weighs_as_a_column_of_every_code(monkeypatch):
    factors = [(2, 1), (3, 2), (3, 3)]
    clear_caches()
    dense = {w: (pieri_expand(w, 3, 2), expand_product_chain(w, factors)) for w in all_permutations(4)}
    assert type(expansion._weight_column(3, 2)) is tuple
    monkeypatch.setattr(expansion, "_DENSE_COLUMNS", 0)
    clear_caches()
    try:
        for w, want in dense.items():
            assert (pieri_expand(w, 3, 2), expand_product_chain(w, factors)) == want, w
        column = expansion._weight_column(3, 2)
        assert isinstance(column, dict) and 0 < len(column) < 2 * 4**2
        assert all(c == code_weight(3, code, 2) for code, c in column.items())
    finally:
        clear_caches()
