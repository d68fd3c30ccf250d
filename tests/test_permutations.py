"""Window representation, lengths, the cycle factor index, and the label order."""

from __future__ import annotations

import doctest
import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import brute_inversions

import qpieri.permutations
from qpieri.permutations import (
    Permutation,
    all_permutations,
    count_inversions,
    cyclic_permutation,
    label_precedes,
    label_sort_key,
)


def test_count_inversions_matches_the_pair_count_over_s0_to_s7():
    for n in range(8):
        for window in itertools.permutations(range(1, n + 1)):
            assert count_inversions(window) == brute_inversions(window), window


@pytest.mark.parametrize("seed", range(4))
def test_count_inversions_matches_the_pair_count_on_long_windows(seed):
    rng = random.Random(seed)
    for size in (101, 130, 257):
        window = list(range(1, size + 1))
        rng.shuffle(window)
        assert count_inversions(window) == brute_inversions(window), (seed, size)
    assert count_inversions(range(200, 0, -1)) == 200 * 199 // 2


def test_doctests():
    failures, _ = doctest.testmod(qpieri.permutations)
    assert failures == 0


def test_length_examples():
    assert Permutation.from_one_line("123").length() == 0
    assert Permutation.from_one_line("321").length() == brute_inversions((3, 2, 1)) == 3
    assert Permutation.from_one_line("4213").length() == brute_inversions((4, 2, 1, 3)) == 4


def test_length_stable_under_window_extension():
    w = Permutation((3, 2, 1, 4, 5))
    assert w.window == (3, 2, 1)
    assert w.length() == 3


@given(st.permutations(list(range(1, 7))))
def test_length_matches_brute_force(window):
    assert Permutation(tuple(window)).length() == brute_inversions(window)


def test_apply_transposition_examples():
    w = Permutation.from_one_line("321")
    assert w.apply((1, 3)) == Permutation.identity()
    assert w.apply((1, 4)).one_line() == "4213"
    assert Permutation.identity().apply((2, 5)).one_line() == "15342"


@given(st.permutations(list(range(1, 6))),
       st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda t: t[0] < t[1]))
def test_transpositions_flip_length_parity(window, label):
    w = Permutation(tuple(window))
    y = w.apply(label)
    assert y != w
    assert (y.length() - w.length()) % 2 == 1
    assert y.apply(label) == w


def test_cyclic_permutation_examples():
    assert cyclic_permutation(2, 2).one_line() == "231"
    assert cyclic_permutation(3, 2).one_line() == "1342"
    assert cyclic_permutation(5, 0).is_identity()
    with pytest.raises(ValueError):
        cyclic_permutation(3, 4)
    with pytest.raises(ValueError):
        cyclic_permutation(3, -1)


def test_cyclic_permutation_is_the_stated_cycle():
    c = cyclic_permutation(4, 2)
    assert c(3) == 4 and c(4) == 5 and c(5) == 3
    assert c(1) == 1 and c(2) == 2


def test_label_order_examples():
    assert label_precedes((1, 4), (1, 3))
    assert label_precedes((1, 3), (2, 3))
    assert not label_precedes((2, 3), (2, 3))


def test_label_order_is_strict_total_order():
    labels = [(a, b) for b in range(2, 9) for a in range(1, b)]
    for s, t in itertools.product(labels, repeat=2):
        if s == t:
            assert not label_precedes(s, t)
        else:
            assert label_precedes(s, t) != label_precedes(t, s)
    for s, t, u in itertools.permutations(labels[:12], 3):
        if label_precedes(s, t) and label_precedes(t, u):
            assert label_precedes(s, u)
    assert sorted(labels, key=label_sort_key) == sorted(
        labels, key=lambda lab: sum(1 for other in labels if label_precedes(other, lab))
    )


def test_max_label_below_column_is_adjacent():
    # the greatest label among those with row < k and column >= k is (k-1, k)
    for k in range(2, 9):
        pool = [(a, b) for a in range(1, k) for b in range(k, 10) if a < b]
        top = max(pool, key=lambda lab: sum(label_precedes(o, lab) for o in pool))
        assert top == (k - 1, k)


def test_parse_and_render_round_trip():
    for text in ("1", "321", "4213", "15342"):
        assert Permutation.from_one_line(text).one_line() == text
    w = Permutation(tuple([10] + list(range(2, 10)) + [1]))
    assert Permutation.from_one_line(w.one_line()) == w


def test_canonicalization_trims_identity_tail():
    assert Permutation((2, 1, 3, 4)).window == (2, 1)
    assert Permutation((1, 2, 3)).window == ()
    assert Permutation((1, 2, 3)).support == 1
    # a long tail is trimmed by index, not re-sliced once per entry
    window = (2, 1, *range(3, 50001))
    start = time.perf_counter()
    assert Permutation(window).window == (2, 1)
    assert time.perf_counter() - start < 1


def test_all_permutations_count():
    assert len(all_permutations(4)) == 24
    assert len({w for w in all_permutations(4)}) == 24


def comma_form_windows():
    """Windows of S_10-S_12 that do not trim below ten entries."""
    return st.integers(10, 12).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).filter(lambda win: win[-1] != n)
    )


@given(comma_form_windows())
def test_comma_form_round_trip(window):
    w = Permutation(tuple(window))
    text = w.one_line()
    assert text == ",".join(map(str, window))
    assert Permutation.from_one_line(text) == w


def test_every_form_of_an_element_is_one_key():
    # validated, swapped-and-trimmed, and padded windows of S_0 .. S_5
    for n in range(6):
        for win in itertools.permutations(range(1, n + 1)):
            padded = win + (n + 1, n + 2)
            forms = [Permutation(win), Permutation(padded), Permutation._from_swapped(list(padded))]
            for x, y in itertools.product(forms, repeat=2):
                assert x == y and not x != y
                assert hash(x) == hash(y)
            table = {forms[0]: win}
            assert all(table[x] == win for x in forms)
            assert len(set(forms)) == 1
    w = Permutation((2, 1))
    assert w != Permutation((1, 2, 3))
    assert w.__eq__((2, 1)) is NotImplemented
    assert w != (2, 1) and (2, 1) != w
