"""
Materialized universes for the chain-matching verification kit.

A MarkedChain is a Pieri chain at some level h together with a g-marking;
a PairedChain additionally carries a k-Monk chain continuing from the
chain's end.  The weight of a paired chain q = ((p, M) | m) at level (h, g)
is the signed basis term

  F(q) = (-1)^(len(p) - g + t(m)) * Q(p) * Q(m) * G[end(m)],

t(m) the length of the Monk chain's (k,*)-segment.  Summing weights over a
set of paired chains yields an Expansion; the matching identities verified
in `bijections` and `identities` are equalities of such sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..chains import (
    Marking,
    MonkChain,
    PieriChain,
    enumerate_markings,
    enumerate_monk_chains,
    enumerate_pieri_chains,
    is_marking,
)
from ..expansion import Expansion, _accumulate
from ..permutations import Permutation
from ..qbg import QMonomial, pack_monomial, q_weight


@dataclass(frozen=True)
class MarkedChain:
    chain: PieriChain
    marking: Marking

    def __post_init__(self) -> None:
        if not is_marking(self.chain, self.marking):
            raise ValueError(f"invalid marking {set(self.marking)} on {self.chain!r}")

    @property
    def g(self) -> int:
        return len(self.marking)

    @property
    def end(self) -> Permutation:
        return self.chain.end


@dataclass(frozen=True)
class PairedChain:
    marked: MarkedChain
    monk: MonkChain

    def __post_init__(self) -> None:
        if self.monk.start != self.marked.end:
            raise ValueError("Monk chain must start at the marked chain's end")

    @property
    def chain(self) -> PieriChain:
        return self.marked.chain

    @property
    def marking(self) -> Marking:
        return self.marked.marking

    @property
    def end(self) -> Permutation:
        return self.monk.end


@dataclass(frozen=True)
class WeightTerm:
    sign: int
    qmono: QMonomial
    basis: Permutation


def weight(q: PairedChain, g: int) -> WeightTerm:
    """F at level (h, g); h is implicit in the chain."""
    exponent = len(q.chain) - g + q.monk.t
    sign = -1 if exponent % 2 else 1
    return WeightTerm(sign, q_weight(q.chain.path) * q_weight(q.monk.path), q.end)


def marked_weight(mc: MarkedChain, g: int) -> WeightTerm:
    """F for a bare marked chain (empty Monk part)."""
    exponent = len(mc.chain) - g
    sign = -1 if exponent % 2 else 1
    return WeightTerm(sign, q_weight(mc.chain.path), mc.end)


def _sum_terms(terms) -> Expansion:
    return _accumulate((t.basis, pack_monomial(t.qmono), t.sign) for t in terms)


def sum_weights(elements, g: int) -> Expansion:
    return _sum_terms(weight(q, g) for q in elements)


def sum_marked_weights(elements, g: int) -> Expansion:
    return _sum_terms(marked_weight(mc, g) for mc in elements)


@lru_cache(maxsize=None)
def enumerate_marked(w: Permutation, h: int, g: int) -> tuple[MarkedChain, ...]:
    """All (chain, marking) pairs at level h with g marks; empty if g < 0."""
    if g < 0:
        return ()
    out = []
    for chain in enumerate_pieri_chains(w, h):
        for marking in enumerate_markings(chain, g):
            out.append(MarkedChain(chain, marking))
    return tuple(out)


@lru_cache(maxsize=None)
def monk_chains_from(x: Permutation, k: int) -> tuple[MonkChain, ...]:
    return tuple(enumerate_monk_chains(x, k))


@lru_cache(maxsize=None)
def enumerate_paired(w: Permutation, h: int, g: int, k: int) -> tuple[PairedChain, ...]:
    """The paired universe at level (h, g) with Monk continuations at k."""
    out = []
    for mc in enumerate_marked(w, h, g):
        for monk in monk_chains_from(mc.end, k):
            out.append(PairedChain(mc, monk))
    return tuple(out)
