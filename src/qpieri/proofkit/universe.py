"""
Materialized universes for the chain-matching verification kit.

A MarkedChain is a Pieri chain at some level h together with a g-marking;
a PairedChain additionally carries a k-Monk chain continuing from the
chain's end.  The weight of a paired chain q = ((p, M) | m) at level (h, g)
is the signed basis term

  F(q) = (-1)^(len(p) - g + t(m)) * Q(p) * Q(m) * G[end(m)],

g = |M| the number of marks and t(m) the length of the Monk chain's
(k,*)-segment; a bare marked chain is weighed with an empty Monk part.
Summing weights over a set of elements yields an Expansion; the matching
identities verified in `bijections` and `identities` are equalities of
such sums.
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
from ..expansion import _UNIT, Expansion, _fold
from ..permutations import Permutation
from ..qbg import pack_monomial, q_weight


def _hash_once(self) -> int:
    """
    The hash of a frozen value's fields, computed on first use and kept on
    the value: the matchings probe sets of these values, and each probe
    would otherwise rehash the whole nested chain.
    """
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(self, name) for name in self.__dataclass_fields__))
        object.__setattr__(self, "_hash", h)
    return h


@dataclass(frozen=True)
class MarkedChain:
    chain: PieriChain
    marking: Marking

    __hash__ = _hash_once

    def __post_init__(self) -> None:
        if not is_marking(self.chain, self.marking):
            raise ValueError(f"invalid marking {set(self.marking)} on {self.chain!r}")

    @property
    def end(self) -> Permutation:
        return self.chain.end


@dataclass(frozen=True)
class PairedChain:
    marked: MarkedChain
    monk: MonkChain

    __hash__ = _hash_once

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


def weight(x: PairedChain | MarkedChain) -> tuple[int, int, Permutation]:
    """
    F(x) as (sign, packed Q-weight, basis), g = len(x.marking); a bare
    marked chain has an empty Monk part.
    """
    chain = x.chain
    exponent = len(chain) - len(x.marking)
    q = pack_monomial(q_weight(chain.path))
    if isinstance(x, PairedChain):
        exponent += x.monk.t
        q += pack_monomial(q_weight(x.monk.path))
    return (-1 if exponent % 2 else 1), q, x.end


def sum_weights(elements) -> Expansion:
    return _fold((basis, {q: sign}, _UNIT) for sign, q, basis in map(weight, elements))


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
