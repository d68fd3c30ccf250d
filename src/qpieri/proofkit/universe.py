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

Both element types are frozen dataclasses, equal and hashed field by
field.  `enumerate_marked` builds its universe afresh on every call, and
`enumerate_paired` keeps only about one grid point's universes; the
classified members of a grid point are kept by `bijections.membership`.
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
from ..expansion import Expansion, _fold
from ..permutations import Permutation
from ..qbg import pack_monomial, q_weight


@dataclass(frozen=True)
class MarkedChain:
    chain: PieriChain
    marking: Marking

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
    return _fold((basis, {q: sign}) for sign, q, basis in map(weight, elements))


def enumerate_marked(w: Permutation, h: int, g: int) -> tuple[MarkedChain, ...]:
    """All (chain, marking) pairs at level h with g marks; empty if g < 0."""
    if g < 0:
        return ()
    out = []
    for chain in enumerate_pieri_chains(w, h):
        for marking in enumerate_markings(chain, g):
            out.append(MarkedChain(chain, marking))
    return tuple(out)


@lru_cache(maxsize=16)
def enumerate_paired(w: Permutation, h: int, g: int, k: int) -> tuple[PairedChain, ...]:
    """
    The paired universe at level (h, g) with Monk continuations at k.
    `enumerate_marked` lists each chain's markings together, so the Monk
    chains from each chain's end are walked once for all of them.

    One grid point (w, k) reads at most 2k + 2 paired universes, so 16
    entries hold all of them up to k = 7 and the cache does not grow with
    the grid.  It stays an `lru_cache` because the benchmark's tracer reads
    its `cache_info` in every round (`CACHES` in `bench/layers.py`).
    """
    out = []
    chain = monks = None
    for mc in enumerate_marked(w, h, g):
        if mc.chain is not chain:
            chain, monks = mc.chain, enumerate_monk_chains(mc.end, k)
        out += [PairedChain(mc, monk) for monk in monks]
    return tuple(out)
