"""
The sign law of the Pieri engine (`chains` module docstring).

Every QBG edge changes the length by an odd amount, so a k-Pieri chain
from w to u weighs (-1)^(l(u) - l(w) - p) * #markings in degree p.  Hence
every coefficient of G[w] * G^k_p at Q^a G[u] is 0 or has that sign, no
term of the walk's columns is zero in every degree, and every
coefficient of a product of Pieri factors at G[v] has the sign
(-1)^(l(v) - l(w) - sum of the p).  Lengths here are counted afresh from
the window, not read from the walk.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpieri.chains import weight_row
from qpieri.expansion import _pieri_rows, expand_product_chain
from qpieri.permutations import Permutation, all_permutations


def length(u: Permutation) -> int:
    return Permutation(u.window).length()


def assert_rows_obey_the_sign_law(w: Permutation, k: int) -> None:
    ends, _qs, codes = _pieri_rows.__wrapped__(w, k)
    for u, code in zip(ends, codes):
        row = weight_row(k, code)
        assert any(row), (w, k, u)
        for p, c in enumerate(row):
            assert c * (-1) ** (length(u) - w.length() - p) >= 0, (w, k, u, p, c)


def assert_product_obeys_the_sign_law(w: Permutation, factors) -> None:
    degree = sum(p for _, p in factors)
    for v, poly in expand_product_chain(w, factors).terms.items():
        sign = (-1) ** (length(v) - w.length() - degree)
        for mono, c in poly.terms.items():
            assert sign * c > 0, (w, factors, v, mono, c)


@pytest.mark.parametrize("n, top_k", [(5, 5), (6, 3)])
def test_every_row_term_obeys_the_sign_law(n, top_k):
    for w in all_permutations(n):
        for k in range(1, top_k + 1):
            assert_rows_obey_the_sign_law(w, k)


def test_every_two_factor_product_over_s4_obeys_the_sign_law():
    factors = [(k, p) for k in range(1, 5) for p in range(k + 1)]
    for w in all_permutations(4):
        for pair in itertools.product(factors, repeat=2):
            assert_product_obeys_the_sign_law(w, list(pair))


long_windows = st.integers(7, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


@given(long_windows, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rows_from_s7_and_s8_obey_the_sign_law(window, k):
    assert_rows_obey_the_sign_law(Permutation(window), k)


windows = st.integers(4, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
factor = st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k)))


@given(windows, st.lists(factor, min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_three_factor_products_obey_the_sign_law(window, factors):
    assert_product_obeys_the_sign_law(Permutation(window), factors)
