"""
Executable verification kit: decomposition tags, the registry of the
eighteen matchings (`MATCHINGS`), insertion/deletion surgery, assembled
identities, and the forbidden-pattern scanners.
"""

from __future__ import annotations

from .bijections import MATCHINGS
from .classify import classify, kappa_double_prime, kappa_prime
from .scanners import all_scans
from .surgery import delete, insert
from .universe import (
    MarkedChain,
    PairedChain,
    enumerate_marked,
    enumerate_paired,
    sum_weights,
    weight,
)

__all__ = [
    "MATCHINGS",
    "MarkedChain",
    "PairedChain",
    "all_scans",
    "apply_bijection",
    "classify",
    "delete",
    "enumerate_marked",
    "enumerate_paired",
    "insert",
    "kappa_double_prime",
    "kappa_prime",
    "sum_weights",
    "weight",
]

def apply_bijection(name: str, q, k: int, inverse: bool = False):
    """
    Apply one of the matchings of `bijections.MATCHINGS` (pi1..pi8,
    theta1..theta4, chi1..chi6; an '-inv' suffix or inverse=True for the
    inverse direction) to an element whose tag lies in the map's domain.
    """
    if name.endswith("-inv"):
        name, inverse = name[:-4], True
    matching = MATCHINGS.get(name)
    if matching is None:
        raise ValueError(f"unknown matching {name!r}")
    return (matching.inverse if inverse else matching.forward)(q, k)
