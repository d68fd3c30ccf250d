"""
Quantum Pieri products of Grothendieck symbols, computed by enumerating
k-Pieri chains with p-markings in the quantum Bruhat graph on S_oo, with
exact Z[Q]-coefficient arithmetic, a classical polynomial oracle at Q = 0,
and an executable verification kit for the supporting combinatorics.
"""

from .chains import (
    MonkChain,
    PieriChain,
    enumerate_markings,
    enumerate_monk_chains,
    enumerate_pieri_chains,
    marking_count,
)
from .expansion import (
    Expansion,
    QPolynomial,
    clear_caches,
    expand_product_chain,
    monk_lhs_expand,
    pieri_expand,
)
from .permutations import Label, Permutation, cyclic_permutation, label_precedes
from .qbg import (
    DirectedPath,
    EdgeKind,
    QMonomial,
    edge_kind,
    q_weight,
    validate_path,
)

__all__ = [
    "DirectedPath",
    "EdgeKind",
    "Expansion",
    "Label",
    "MonkChain",
    "Permutation",
    "PieriChain",
    "QMonomial",
    "QPolynomial",
    "clear_caches",
    "cyclic_permutation",
    "edge_kind",
    "enumerate_markings",
    "enumerate_monk_chains",
    "enumerate_pieri_chains",
    "expand_product_chain",
    "label_precedes",
    "marking_count",
    "monk_lhs_expand",
    "pieri_expand",
    "q_weight",
    "validate_path",
]

__version__ = "0.1.0"
