"""
`expand_product_chain` against a frozen copy of the fold it replaced.

The old fold replaced every basis term by the `pieri_expand` of each
factor in turn (`map_basis`).  The column pass reads each term's cached
(u, k) rows instead; it must give the same expansions, walk the same
(u, k) for every factor of positive degree, refuse the same factors, and
keep the overflow guard with its message.  A degree-0 factor is 1: it
reads no rows, in a product or in `pieri_expand`.  Fake rows
(`_pieri_rows` patched) reach a case that no real product of the grids
here shows: a zero column entry with a Q-weight the guard would refuse.
No term of a product cancels (the sign law, `tests/test_sign_law.py`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpieri import expansion
from qpieri.chains import weight_row
from qpieri.expansion import Expansion, clear_caches, expand_product_chain, pieri_expand
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import Q_EXPONENT_LIMIT, QMonomial, pack_monomial

P = Permutation.from_one_line
HALF = pack_monomial(QMonomial.variable(1, Q_EXPONENT_LIMIT // 2))
Q2 = pack_monomial(QMonomial.variable(2))


def old_fold(w: Permutation, factors, walks: list | None = None) -> Expansion:
    """
    The fold as it was: each factor maps every basis term through
    pieri_expand.  `walks` lists the (u, k) of every p >= 1 factor, the
    only ones whose rows the column pass reads.
    """
    out = Expansion.basis(w)
    for k, p in factors:
        def image(u, k=k, p=p):
            if walks is not None and p:
                walks.append((u, k))
            return pieri_expand(u, k, p)

        out = out.map_basis(image)
    return out


def recording(walks: list, rows):
    """`rows` as a `_pieri_rows` that also lists the (u, k) it is asked for."""

    def recorded(u, k):
        walks.append((u, k))
        return rows(u, k)

    return recorded


@pytest.fixture
def clean_caches():
    """Empty product caches before and after, so no fake rows outlive a test."""
    clear_caches()
    yield
    clear_caches()


def test_the_s4_grid_matches_the_old_fold_and_walks_the_same_rows(clean_caches):
    factors = [(k, p) for k in range(1, 5) for p in range(k + 1)]
    grid = [(w, list(pair)) for w in all_permutations(4) for pair in itertools.product(factors, repeat=2)]
    assert len(grid) == 4704
    want = [old_fold(w, fs) for w, fs in grid]
    old_misses = expansion._pieri_rows.cache_info().misses

    clear_caches()
    for (w, fs), old in zip(grid, want):
        assert expand_product_chain(w, fs) == old, (w, fs)
    assert expansion._pieri_rows.cache_info().misses == old_misses
    # products leave the per-degree cache to direct calls
    assert pieri_expand.cache_info().currsize == 0


windows = st.integers(5, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
factor = st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k)))


@given(windows, st.lists(factor, min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_three_factor_products_match_the_old_fold(window, factors):
    w = Permutation(window)
    old_walks: list = []
    want = old_fold(w, factors, old_walks)
    walks: list = []
    with mock.patch.object(expansion, "_pieri_rows", recording(walks, expansion._pieri_rows)):
        got = expand_product_chain(w, factors)
    assert got == want
    assert Counter(walks) == Counter(old_walks)


def test_degree_0_factors_read_no_rows(clean_caches):
    walks: list = []
    with mock.patch.object(expansion, "_pieri_rows", recording(walks, expansion._pieri_rows)):
        for w in all_permutations(4):
            for k in range(1, 5):
                assert pieri_expand(w, k, 0) == Expansion.basis(w)
                assert expand_product_chain(w, [(k, 0), (1, 0)]) == Expansion.basis(w)
        assert walks == []
        got = expand_product_chain(P("321"), [(2, 0), (1, 1), (3, 0)])
    assert walks == [(P("321"), 1)]
    assert got == pieri_expand(P("321"), 1, 1)


@pytest.mark.parametrize("bad", [(0, 0), (-1, 0), (2, 3), (2, -1), (1, 2)])
@pytest.mark.parametrize("position", [0, 1])
def test_bad_factors_are_refused_as_pieri_expand_refuses_them(bad, position):
    w = P("321")
    with pytest.raises(ValueError) as direct:
        pieri_expand(w, *bad)
    factors = [(2, 1)]
    factors.insert(position, bad)
    with pytest.raises(ValueError) as chained:
        expand_product_chain(w, factors)
    assert str(chained.value) == str(direct.value)


def fake_rows(table):
    """
    `_pieri_rows` reading {(window, k): [(end window, packed q, row), ...]},
    each row given as the `weight_row` of its term's code (the least code
    with that row).
    """

    def rows(u, k):
        terms = table.get((u.window, k), [])
        return (
            tuple(Permutation(end) for end, _, _ in terms),
            tuple(q for _, q, _ in terms),
            tuple(next(c for c in range(2 * (k + 1) ** 2) if weight_row(k, c) == row) for _, _, row in terms),
        )

    return rows


def test_the_overflow_guard_fires_through_products(clean_caches, monkeypatch):
    monkeypatch.setattr(expansion, "_pieri_rows", fake_rows({
        ((2, 1), 1): [((2, 1), HALF, (0, 1))],
    }))
    assert expand_product_chain(P("21"), [(1, 1)]) == Expansion._of({P("21"): {HALF: 1}})
    message = f"exponent past the packed range in Q1^{2 * (Q_EXPONENT_LIMIT // 2)}"
    with pytest.raises(OverflowError) as chained:
        expand_product_chain(P("21"), [(1, 1), (1, 1)])
    with pytest.raises(OverflowError) as folded:
        old_fold(P("21"), [(1, 1), (1, 1)])
    assert str(chained.value) == str(folded.value) == message


def test_a_zero_column_entry_is_skipped_not_multiplied(clean_caches, monkeypatch):
    # degree 2 of the k = 2 rows holds Q1^HALF with coefficient 0: taken
    # with the Q1^HALF of the first factor it would overflow
    monkeypatch.setattr(expansion, "_pieri_rows", fake_rows({
        ((2, 1), 1): [((2, 1), HALF, (0, 1))],
        ((2, 1), 2): [((2, 1), HALF, (1, -1, 0)), ((2, 1), Q2, (0, 0, 1))],
    }))
    want = Expansion._of({P("21"): {HALF + Q2: 1}})
    assert old_fold(P("21"), [(1, 1), (2, 2)]) == want
    assert expand_product_chain(P("21"), [(1, 1), (2, 2)]) == want


def test_every_monomial_of_a_coefficient_is_carried(clean_caches, monkeypatch):
    # two terms reach 21 with distinct Q-weights, so the second factor
    # multiplies the two-monomial coefficient 1 + Q2
    monkeypatch.setattr(expansion, "_pieri_rows", fake_rows({
        ((2, 1), 1): [((2, 1), Q2, (0, 1)), ((2, 1), 0, (0, 1))],
    }))
    want = Expansion._of({P("21"): {2 * Q2: 1, Q2: 2, 0: 1}})
    assert old_fold(P("21"), [(1, 1), (1, 1)]) == want
    assert expand_product_chain(P("21"), [(1, 1), (1, 1)]) == want


def test_terms_that_share_an_end_are_summed(clean_caches, monkeypatch):
    # no walk measured reaches one end twice, but the readers must not rely on it
    monkeypatch.setattr(expansion, "_pieri_rows", fake_rows({
        ((2, 1), 1): [((2, 1), Q2, (0, 1)), ((1,), 0, (1, -1)), ((2, 1), Q2, (0, 1))],
    }))
    want = Expansion._of({P("21"): {Q2: 2}, P("1"): {0: -1}})
    assert pieri_expand(P("21"), 1, 1) == want
    assert expand_product_chain(P("21"), [(1, 1)]) == want
