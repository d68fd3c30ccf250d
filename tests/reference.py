"""
The references and strategies that more than one test module reads, each
kept once here.

`reference_expansions` builds every degree of a Pieri product from the
chain enumerator and the marking enumerator, with the sign and the
Q-weight computed here, so it shares no code with the engine's walk.
`brute_inversions` counts a window's inversions pair by pair.
`grothendieck_in_s_n` descends to a Grothendieck polynomial from the top
of a chosen S_n, the size `classical.grothendieck_poly` works out itself.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from qpieri.chains import PieriChain, enumerate_markings, enumerate_pieri_chains
from qpieri.classical import XPolynomial, isobaric
from qpieri.expansion import Expansion, QPolynomial
from qpieri.permutations import Label, Permutation
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


def first_occurrences(chain: PieriChain) -> set[Label]:
    """The labels of the chain that are the first occurrence of their row."""
    seen: set[int] = set()
    out: set[Label] = set()
    for a, b in chain.labels:
        if a not in seen:
            out.add((a, b))
            seen.add(a)
    return out


def grothendieck_in_s_n(w: Permutation, n: int) -> XPolynomial:
    """
    The Grothendieck polynomial of w computed inside S_n, n >= support(w):
    the staircase monomial x_1^(n-1) x_2^(n-2) ... x_(n-1) of w0 in S_n,
    then `isobaric` back down the ascents that lead from w up to w0.
    """
    win = w.extended(n)
    for i in range(1, n):
        if win[i - 1] < win[i]:
            return isobaric(i, grothendieck_in_s_n(w.apply((i, i + 1)), n))
    return XPolynomial.monomial(tuple(range(n - 1, -1, -1)))


def brute_inversions(window) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(window)), 2) if window[i] > window[j])


def windows(smallest: int, largest: int):
    """Windows of S_n for n in smallest..largest."""
    return st.integers(smallest, largest).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


# a Pieri factor (k, p) with k <= 3
factor = st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k)))
