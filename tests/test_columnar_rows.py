"""
`pieri_expand` from the walk's columns against rows built from the
reference enumerators.

The reference rows come from `enumerate_pieri_chains` and `marking_count`:
one row of k+1 signed marking counts per (end, packed Q-weight), in the
order the chains first reach it, with every degree summed through a dict
accumulator that drops zero coefficients.  They share no code with the
walk (`chains.pieri_degree_rows`), so these tests hold the walk's
columns, their order and the per-degree `Expansion` built from them.
The walk keeps one term per chain, with its row weight_row(k, code);
the chains from one start have distinct ends, so each term is one
reference row.  Ends are interned across walks, the Monk walk of
`monk_lhs_expand` included, and emptied with the other caches by
`clear_caches`.
"""

from __future__ import annotations

import random

import pytest

from qpieri import chains, expansion
from qpieri.chains import code_weight, enumerate_pieri_chains, marking_count, pieri_degree_rows, weight_row
from qpieri.expansion import (
    Expansion,
    _pieri_rows,
    clear_caches,
    expand_product_chain,
    monk_lhs_expand,
    pieri_expand,
)
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import pack_monomial, q_weight


def reference_rows(w: Permutation, k: int) -> tuple[tuple[Permutation, int, tuple[int, ...]], ...]:
    rows: dict[tuple[Permutation, int], list[int]] = {}
    for chain in enumerate_pieri_chains(w, k):
        row = rows.setdefault((chain.end, pack_monomial(q_weight(chain.path))), [0] * (k + 1))
        for p in range(k + 1):
            row[p] += (-1) ** (len(chain) - p) * marking_count(chain, p)
    return tuple((u, q, tuple(row)) for (u, q), row in rows.items() if any(row))


def reference_accumulate(triples) -> Expansion:
    acc: dict[Permutation, dict[int, int]] = {}
    for u, key, c in triples:
        poly = acc.setdefault(u, {})
        poly[key] = poly.get(key, 0) + c
    for u in list(acc):
        poly = {key: c for key, c in acc[u].items() if c}
        if poly:
            acc[u] = poly
        else:
            del acc[u]
    return Expansion._of(acc)


def reference_expand(rows, p: int) -> Expansion:
    return reference_accumulate((u, q, row[p]) for u, q, row in rows if row[p])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_every_degree_matches_the_accumulated_rows_over_s5(k):
    for w in all_permutations(5):
        rows = reference_rows(w, k)
        for p in range(k + 1):
            got, want = pieri_expand(w, k, p), reference_expand(rows, p)
            assert got == want, (w, k, p)
            assert got.render() == want.render(), (w, k, p)
            assert got.to_json() == want.to_json(), (w, k, p)


def test_the_columns_are_the_rows_without_zero_rows():
    for w in all_permutations(4):
        for k in (1, 2, 3, 4):
            ends, qs, codes = _pieri_rows.__wrapped__(w, k)
            assert len(ends) == len(qs) == len(codes)
            rows = [weight_row(k, code) for code in codes]
            assert list(zip(ends, qs, rows)) == list(reference_rows(w, k)), (w, k)


def test_degrees_requested_in_any_order_agree():
    rng = random.Random(11)
    for w in all_permutations(4):
        for k in (2, 3, 4):
            rows = reference_rows(w, k)
            for _ in range(2):
                clear_caches()
                degrees = list(range(k + 1))
                rng.shuffle(degrees)
                for p in degrees:
                    assert pieri_expand(w, k, p) == reference_expand(rows, p), (w, k, degrees, p)


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


def test_each_walk_has_one_term_per_chain_with_distinct_ends_over_s6():
    for w in all_permutations(6):
        for k in range(1, 7):
            ends, qs, codes = pieri_degree_rows(w, k)
            assert len(set(ends)) == len(ends) == len(qs) == len(codes), (w, k)
            assert len(ends) == len(enumerate_pieri_chains(w, k)), (w, k)


@pytest.mark.parametrize("n, ks", [(5, range(1, 6)), (6, range(1, 4))])
def test_the_degree_0_column_is_the_start_alone(n, ks):
    # G^k_0 = 1, which `pieri_expand(w, k, 0)` returns without a walk
    for w in all_permutations(n):
        for k in ks:
            terms = [(u, q, code_weight(k, code, 0)) for u, q, code in zip(*pieri_degree_rows(w, k))]
            terms = [term for term in terms if term[2]]
            assert terms == [(w, 0, 1)], (w, k)


def test_walks_reaching_one_window_share_one_end_with_its_length():
    clear_caches()
    first: dict[tuple[int, ...], Permutation] = {}
    reached = 0
    # starts of several sizes and bounds: k = 5 pads every window of S_3 to 6
    for w in all_permutations(3):
        for k in (1, 2, 3, 5):
            for u in pieri_degree_rows(w, k)[0]:
                reached += 1
                assert u is first.setdefault(u.window, u) is chains._ends[u.window], (w, k, u)
                assert u.length() == Permutation(u.window).length(), (w, k, u)
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
        clear_caches()
        assert not chains._ends and _pieri_rows.cache_info().currsize == 0
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
