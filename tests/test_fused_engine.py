"""
The one-walk engine behind `pieri_expand` against the reference path,
`reference.reference_expansions`, which shares no code with the walk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import first_occurrences, reference_expansions, windows

from qpieri.chains import enumerate_pieri_chains, forced_marks
from qpieri.classical import verify_pieri_at_q0
from qpieri.expansion import pieri_expand
from qpieri.permutations import Permutation, all_permutations


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_degree_matches_the_reference_over_s_n(n):
    for w in all_permutations(n):
        for k in range(1, n + 1):
            for p, want in enumerate(reference_expansions(w, k)):
                assert pieri_expand(w, k, p) == want, (w, k, p)


@given(windows(6, 8).map(Permutation), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_every_degree_matches_the_reference_and_the_classical_oracle(w, k):
    for p, want in enumerate(reference_expansions(w, k)):
        assert pieri_expand(w, k, p) == want
        assert verify_pieri_at_q0(w, k, p)


@pytest.mark.parametrize("k, p", [(0, 0), (-1, 0), (2, -1), (2, 3)])
def test_bad_column_or_degree_is_rejected(k, p):
    with pytest.raises(ValueError):
        pieri_expand(Permutation.from_one_line("321"), k, p)


# The engine never checks that forced labels are first occurrences of
# their rows: the initial run has strictly decreasing rows, and by (P2) a
# non-final label whose row repeats precedes its successor, so it is never
# forced by the successor-order condition.


def assert_forced_labels_are_first_occurrences(w: Permutation, k: int) -> None:
    for chain in enumerate_pieri_chains(w, k):
        assert forced_marks(chain) <= first_occurrences(chain), chain


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forced_labels_are_first_occurrences_over_s_n(n):
    for w in all_permutations(n):
        for k in range(1, n + 1):
            assert_forced_labels_are_first_occurrences(w, k)


@given(windows(6, 7).map(Permutation), st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_forced_labels_are_first_occurrences_on_larger_starts(w, k):
    assert_forced_labels_are_first_occurrences(w, k)
