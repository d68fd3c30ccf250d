"""
Assembled expansion identities over the paired-chain universes.

With S(X) the weight sum over a class X, the checks are:

  divisor compatibility, per level (h,g):
      S(whole paired universe at (h,g))
        =  (1-Q_k)(1-x_k) applied termwise to the level-(h,g) expansion;

  the stage-1 assembled identity:
      G[w]*G^k_p  =  S(empty-Monk slice at (k-1,p-1))
                   + [S(AY) + S(B2Y) + S(B3Y) - Q_{k-1} S(D2Y)]  at g = p
                   - [  same bracket                            ]  at g = p-1;

  the stage-2 assembled identity:
      G[w]*G^k_p  =  S(A1Y2) + S(E) + S(A1 empty) + S(G)   at g = p
                   - S(A1Y2) - S(E) + S(F)                  at g = p-1;

  the grand cancellation: the stage-2 right-hand side minus the class-split
  weight sum of the level-k marked universe is exactly zero.
"""

from __future__ import annotations

from ..expansion import Expansion, monk_lhs_expand, pieri_expand
from ..permutations import Permutation
from ..qbg import QMonomial
from .classify import (
    dec1_base_low,
    dec1_base_top,
    dec2_base,
    in_class_e,
    in_class_f,
    in_class_g,
    monk_refinement,
    monk_side,
    s_refinement,
)
from .universe import (
    enumerate_marked,
    enumerate_paired,
    sum_marked_weights,
    sum_weights,
)


def check_divisor_compatibility(w: Permutation, h: int, g: int, k: int) -> bool:
    """S(paired universe at (h,g)) equals the divisor product of the (h,g) expansion."""
    universe = enumerate_paired(w, h, g, k)
    lhs = sum_weights(universe, g)
    if g < 0 or g > h:
        base = Expansion.zero()
    elif h >= 1:
        base = pieri_expand(w, h, g)
    else:
        base = Expansion.basis(w)
    rhs = base.map_basis(lambda u: monk_lhs_expand(u, k))
    return lhs == rhs


def _stage1_bracket(w: Permutation, k: int, g: int) -> Expansion:
    top = enumerate_paired(w, k - 1, g, k)
    chosen = [
        q for q in top
        if monk_side(q, k) == "Y" and dec1_base_top(q, k) in ("A", "B2", "B3")
    ]
    out = sum_weights(chosen, g)
    low = enumerate_paired(w, k - 2, g - 1, k)
    d2y = [
        q for q in low
        if monk_side(q, k) == "Y" and dec1_base_low(q, k) == "D2"
    ]
    out = out - sum_weights(d2y, g - 1).times_monomial(QMonomial.variable(k - 1))
    return out


def check_stage1_identity(w: Permutation, k: int, p: int) -> bool:
    empty_slice = [
        q for q in enumerate_paired(w, k - 1, p - 1, k) if q.monk.is_empty()
    ]
    rhs = sum_weights(empty_slice, p - 1)
    rhs = rhs + _stage1_bracket(w, k, p) - _stage1_bracket(w, k, p - 1)
    return pieri_expand(w, k, p) == rhs


def _stage2_pieces(w: Permutation, k: int, g: int) -> dict[str, Expansion]:
    universe = enumerate_paired(w, k - 1, g, k)
    buckets = {"A1Y2": [], "E": [], "A1empty": [], "G": [], "F": []}
    for q in universe:
        if monk_side(q, k) == "X":
            continue
        base = dec2_base(q, k)
        ref = monk_refinement(q, k)
        if base == "A1" and ref == "Y2":
            buckets["A1Y2"].append(q)
        if base == "A1" and ref == "empty":
            buckets["A1empty"].append(q)
        if in_class_e(q, k):
            buckets["E"].append(q)
        if in_class_g(q, k):
            buckets["G"].append(q)
        if in_class_f(q, k):
            buckets["F"].append(q)
    return {name: sum_weights(elems, g) for name, elems in buckets.items()}


def _stage2_rhs(w: Permutation, k: int, p: int) -> Expansion:
    hi = _stage2_pieces(w, k, p)
    lo = _stage2_pieces(w, k, p - 1)
    return (
        hi["A1Y2"] + hi["E"] + hi["A1empty"] + hi["G"]
        - lo["A1Y2"] - lo["E"] + lo["F"]
    )


def check_stage2_identity(w: Permutation, k: int, p: int) -> bool:
    return pieri_expand(w, k, p) == _stage2_rhs(w, k, p)


def check_grand_cancellation(w: Permutation, k: int, p: int) -> bool:
    """Stage-2 right-hand side minus the split level-k weight sum is zero."""
    rhs = _stage2_rhs(w, k, p)
    level_k = enumerate_marked(w, k, p)
    split: dict[str, list] = {"R": [], "S11": [], "S12a": [], "S12b": [], "S2": []}
    for mc in level_k:
        split[s_refinement(mc, k)].append(mc)
    total = Expansion.zero()
    for elems in split.values():
        total = total + sum_marked_weights(elems, p)
    return (rhs - total).is_zero()
