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
