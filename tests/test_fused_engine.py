"""
The one-walk engine behind `pieri_expand` against the reference path.

The reference builds every product itself from the chain enumerator and
the marking enumerator, with the sign and the Q-weight computed here, so
it shares no code with the engine's walk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpieri.chains import (
    enumerate_markings,
    enumerate_pieri_chains,
    first_occurrences,
    forced_marks,
)
from qpieri.classical import verify_pieri_at_q0
from qpieri.expansion import Expansion, QPolynomial, pieri_expand
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import EdgeKind, QMonomial


def reference_expansions(w: Permutation, k: int) -> list[Expansion]:
    """G[w] * G^k_p for p = 0..k, summed over (chain, marking) pairs."""
    terms: list[dict[Permutation, dict[QMonomial, int]]] = [{} for _ in range(k + 1)]
    for chain in enumerate_pieri_chains(w, k):
        exps: dict[int, int] = {}
        for (a, b), kind in zip(chain.path.labels, chain.path.kinds):
            if kind is EdgeKind.QUANTUM:
                for v in range(a, b):
                    exps[v] = exps.get(v, 0) + 1
        mono = QMonomial.from_dict(exps)
        for p in range(k + 1):
            count = len(enumerate_markings(chain, p))
            if count:
                poly = terms[p].setdefault(chain.end, {})
                poly[mono] = poly.get(mono, 0) + (-1) ** (len(chain) - p) * count
    return [Expansion({u: QPolynomial(poly) for u, poly in row.items()}) for row in terms]


def permutations_of(sizes: tuple[int, int]):
    return st.integers(*sizes).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda win: Permutation(tuple(win)))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_degree_matches_the_reference_over_s_n(n):
    for w in all_permutations(n):
        for k in range(1, n + 1):
            for p, want in enumerate(reference_expansions(w, k)):
                assert pieri_expand(w, k, p) == want, (w, k, p)


@given(permutations_of((6, 8)), st.integers(1, 4))
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


@given(permutations_of((6, 7)), st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_forced_labels_are_first_occurrences_on_larger_starts(w, k):
    assert_forced_labels_are_first_occurrences(w, k)
