"""
Assembled expansion identities over the paired-chain universes.

With S(X) the weight sum over a class X of `bijections` (a `Side`, read at
the grid point (w, k) and anchor g or p), the checks are:

  divisor compatibility, per level (h,g):
      S(whole paired universe at (h,g))
        =  (1-Q_k)(1-x_k) applied termwise to the level-(h,g) expansion;

  the stage-1 assembled identity:
      G[w]*G^k_p  =  S(empty-Monk slice at (k-1,p-1))
                   + [S(AY) + S(B2Y) + S(B3Y) - Q_{k-1} S(D2Y)]  at g = p
                   - [  same bracket                            ]  at g = p-1,
      the bracket summing the domains of pi2, pi4, pi6 and the codomain of pi7;

  the stage-2 assembled identity, each class read at p:
      G[w]*G^k_p  =  S(A1Y2) + S(E) + S(A1 empty) + S(G)     (domains of chi1..chi4)
                   - S(A1Y2_P1) - S(E_P1)                     (domains of chi5, chi6)
                   + S(F1) + S(F21) + S(F22),                 (the F codomains)
      where _P1 and F sit one mark lower, at level (k-1, p-1);

  the grand cancellation: the stage-2 right-hand side minus the weight
  sum of the level-k marked universe at (k, p) is exactly zero.
"""

from __future__ import annotations

from functools import lru_cache

from ..expansion import Expansion, monk_lhs_expand, pieri_expand
from ..permutations import Permutation
from ..qbg import QMonomial
from .bijections import (
    A1_EMPTY,
    A1Y2,
    A1Y2_P1,
    AY,
    B2Y,
    B3Y,
    D2Y,
    E,
    E_P1,
    F1,
    F21,
    F22,
    G,
    TOP_P1,
    Side,
    membership,
)
from .universe import enumerate_marked, enumerate_paired, sum_weights

EMPTY_MONK_P1 = Side(TOP_P1, lambda t: t[1] == "empty")
# the stage-2 right-hand side: name -> (sign, class)
_STAGE2 = {
    "A1Y2": (1, A1Y2), "E": (1, E), "A1empty": (1, A1_EMPTY), "G": (1, G),
    "A1Y2_P1": (-1, A1Y2_P1), "E_P1": (-1, E_P1),
    "F1": (1, F1), "F21": (1, F21), "F22": (1, F22),
}


def check_divisor_compatibility(w: Permutation, h: int, g: int, k: int) -> bool:
    """S(paired universe at (h,g)) equals the divisor product of the (h,g) expansion."""
    universe = enumerate_paired(w, h, g, k)
    lhs = sum_weights(universe)
    if g < 0 or g > h:
        base = Expansion.zero()
    elif h >= 1:
        base = pieri_expand(w, h, g)
    else:
        base = Expansion.basis(w)
    rhs = base.map_basis(lambda u: monk_lhs_expand(u, k))
    return lhs == rhs


def check_stage1_identity(w: Permutation, k: int, p: int) -> bool:
    members = membership(w, k)

    def bracket(g: int) -> Expansion:
        top = sum_weights(members(AY, g) + members(B2Y, g) + members(B3Y, g))
        return top - sum_weights(members(D2Y, g)).times_monomial(QMonomial.variable(k - 1))

    rhs = sum_weights(members(EMPTY_MONK_P1, p)) + bracket(p) - bracket(p - 1)
    return pieri_expand(w, k, p) == rhs


def stage2_pieces(w: Permutation, k: int, p: int) -> dict[str, Expansion]:
    """The signed weight sum of each class of the stage-2 right-hand side."""
    members = membership(w, k)
    return {name: sum_weights(members(side, p)).scaled_int(sign) for name, (sign, side) in _STAGE2.items()}


@lru_cache(maxsize=1)
def _stage2_rhs(w: Permutation, k: int, p: int) -> Expansion:
    """
    The stage-2 right-hand side at (w, k, p), summed once per instance:
    the stage-2 check and the grand cancellation of one instance both read
    it, so the most recent value is kept (an Expansion is immutable).
    """
    return sum(stage2_pieces(w, k, p).values(), Expansion.zero())


def check_stage2_identity(w: Permutation, k: int, p: int) -> bool:
    return pieri_expand(w, k, p) == _stage2_rhs(w, k, p)


def check_grand_cancellation(w: Permutation, k: int, p: int) -> bool:
    """The stage-2 right-hand side minus the level-k weight sum at (k, p) is zero."""
    return (_stage2_rhs(w, k, p) - sum_weights(enumerate_marked(w, k, p))).is_zero()
