"""
`Permutation` and `QMonomial` as slotted, immutable values.

Ends of the chain walk and results of `Permutation.apply` are built by a
constructor that trims but does not validate, and the walk hands each end
it builds the length it carried along; ends are interned across walks,
Monk and Pieri alike, and the rows hold the window each interned end
wraps.  These tests hold both against the validated constructor and a
brute-force inversion count, read through `chains._ends`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import brute_inversions, windows

from qpieri import chains
from qpieri.expansion import _pieri_rows, clear_caches, monk_lhs_expand
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import QMonomial


def assert_walk_ends_match_validated(w: Permutation, k: int) -> None:
    # the uncached function; an interned end holds the length of the walk that built it
    ends, _qs, _codes = _pieri_rows.__wrapped__(w.window, k)
    for end in ends:
        u = chains._ends[end]
        assert u.window is end, (w, k, u)
        assert u._length == brute_inversions(end), (w, k, u)
        fresh = Permutation(end)
        assert u == fresh and hash(u) == hash(fresh), (w, k, u)
        assert end == fresh.window


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_ends_carry_their_length_over_s_n(n):
    for w in all_permutations(n):
        for k in range(1, 5):
            assert_walk_ends_match_validated(w, k)


@given(windows(6, 8), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_walk_ends_carry_their_length_on_larger_starts(window, k):
    assert_walk_ends_match_validated(Permutation(window), k)


def test_ends_a_monk_walk_interns_first_carry_their_length():
    # a Monk walk that reaches an end before any Pieri walk builds it, so
    # the Pieri rows that reach it later hold the length the Monk walk carried
    clear_caches()
    for n in (3, 4):
        for x in all_permutations(n):
            for k in range(1, n):
                monk_lhs_expand(x, k)
    for w in all_permutations(3):
        for k in (1, 2, 3):
            for end in _pieri_rows.__wrapped__(w.window, k)[0]:
                assert chains._ends[end]._length == brute_inversions(end), (w, k, end)
    for window, u in chains._ends.items():
        assert u.window == window and u._length == brute_inversions(window), u


def swapped_and_validated(window: tuple[int, ...], a: int, b: int) -> Permutation:
    values = list(window) + list(range(len(window) + 1, b + 1))
    values[a - 1], values[b - 1] = values[b - 1], values[a - 1]
    return Permutation(tuple(values))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_apply_past_the_window_matches_the_validated_result(n):
    for x in all_permutations(n):
        m = len(x.window)
        for b in range(m + 1, m + 4):
            for a in range(1, b):
                y = x.apply((a, b))
                want = swapped_and_validated(x.window, a, b)
                assert y == want and hash(y) == hash(want), (x, a, b)
                assert y.length() == brute_inversions(want.window)


def test_apply_trims_a_fixed_tail():
    assert Permutation.from_one_line("2143").apply((3, 4)).window == (2, 1)
    assert Permutation.identity().apply((1, 2)).apply((1, 2)).window == ()


def test_fields_cannot_be_assigned():
    w = Permutation.from_one_line("321")
    with pytest.raises(FrozenInstanceError):
        w.window = (2, 1)
    mono = QMonomial.q_range(1, 3)
    with pytest.raises(FrozenInstanceError):
        mono.exponents = ()


def test_values_have_no_instance_dict():
    for value in (Permutation.from_one_line("321"), QMonomial.q_range(1, 3)):
        assert not hasattr(value, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1


def test_a_computed_length_leaves_equality_and_hash_alone():
    w = Permutation.from_one_line("4213")
    assert w._length is None
    assert w.length() == 4
    assert w._length == 4
    fresh = Permutation.from_one_line("4213")
    assert fresh._length is None
    assert w == fresh and hash(w) == hash(fresh)
    assert {w: 1}[fresh] == 1


def test_repr_is_unchanged():
    w = Permutation.from_one_line("4213")
    w.length()
    assert repr(w) == "Permutation(4213)"
    assert repr(Permutation.identity()) == "Permutation(1)"
    mono = QMonomial.from_dict({1: 2, 3: 1})
    assert mono.degree() == 3
    assert repr(mono) == "QMonomial(Q1^2*Q3)"
    fresh = QMonomial.from_dict({1: 2, 3: 1})
    assert mono == fresh and hash(mono) == hash(fresh)
    assert {mono: 1}[fresh] == 1
    assert repr(QMonomial.one()) == "QMonomial(1)"
