"""
Class tags for the three-stage decomposition of the paired-chain universes.

Every predicate is evaluated directly on the element (never by inverting a
matching map).  Conventions, with k the ambient column and kk = (k-1, k)
the adjacent label:

stage 1, level k-1:   A   no kk label          B   kk label present
                      B1  kk unmarked          B2  kk marked, final
                      B3  kk marked, not final
         level k-2:   C   no (*,k-1) labels    D   some
                      D1/D2 by the stop position u of the commuting
                      pass on the appended kk (D1 commutes through:
                      u = 0; D2 absorbs: u > 0),
                      D11/D12 by disjointness of the (*,k)/(*,k-1) rows
         Monk side:   X   Monk chain starts with kk,   Y otherwise

stage 2, level k-1:   A1  (*,k)-segment empty
                      A2/A3 nonempty, final label unmarked/marked
                      Bns1/Bns2/Bns3 refine B2+B3 by the run after kk
                      Monk side: empty / Y2 / Y3 (Y1 = empty + Y2),
                      Y3 split (1)/(2) by row intersection with the
                      chain's (*,k)-segment, (1) split c1/c2 by whether
                      the Monk chain's first label sits in that segment

stage 3, level k-1, empty Monk part:
                      F   final (*,k) label unmarked   (g = p-1 side)
                      G   final (*,k) label marked     (g = p side)
                      F1/F2 by multiplicity of the final label's row,
                      F21/F22 by marking of kappa'
         level k:     R   no (k,*) labels
                      S1/S2 by marking of (k, b(p)), b(p) the top column
                      S11: (k,b(p)) final in its segment; else S12a/S12b
                      by marking of kappa''
"""

from __future__ import annotations

from ..chains import PieriChain
from ..permutations import Label, label_precedes
from .surgery import algorithm_skd, segment
from .universe import MarkedChain, PairedChain


def _kk(k: int) -> Label:
    return (k - 1, k)


# --- stage 1 ---------------------------------------------------------------


def monk_side(q: PairedChain, k: int) -> str:
    """'X' iff the Monk chain starts with the adjacent label (k-1,k)."""
    return "X" if q.monk.labels[:1] == (_kk(k),) else "Y"


def dec1_base_top(q: PairedChain, k: int) -> str:
    """A/B1/B2/B3 for a level-(k-1) element."""
    chain, marking = q.chain, q.marking
    kk = _kk(k)
    if kk not in chain.labels:
        return "A"
    if kk not in marking:
        return "B1"
    return "B2" if chain.labels[-1] == kk else "B3"


def run_dec_algorithm(chain: PieriChain, k: int) -> int:
    """
    The stop position t(p) of the commuting pass that appends (k-1,k) to a
    level-(k-2) chain and pushes it through the trailing (*,k-1)-segment:
    0 for class D1, the position within the segment for class D2.
    """
    labels = chain.labels
    seg = segment(labels, k - 1)
    if not seg:
        raise ValueError("chain has no (*,k-1)-segment")
    # no column of a level-(k-2) chain is below k-1: the segment ends the chain
    return algorithm_skd(chain.path, len(labels) - len(seg), k - 1, k)


def dec1_base_low(q: PairedChain, k: int) -> str:
    """C/D11/D12/D2 for a level-(k-2) element."""
    chain = q.chain
    if not segment(chain.labels, k - 1):
        return "C"
    if run_dec_algorithm(chain, k):
        return "D2"
    rows_k = {a for a, _ in segment(chain.labels, k)}
    rows_k1 = {a for a, _ in segment(chain.labels, k - 1)}
    return "D11" if not (rows_k & rows_k1) else "D12"


# --- stage 2 ---------------------------------------------------------------


def dec2_base(q: PairedChain, k: int) -> str:
    """A1/A2/A3/B1/Bns1/Bns2/Bns3 for a level-(k-1) element."""
    base = dec1_base_top(q, k)
    chain, marking = q.chain, q.marking
    if base == "A":
        if not segment(chain.labels, k):
            return "A1"
        return "A2" if chain.labels[-1] not in marking else "A3"
    if base == "B1":
        return "B1"
    # B2 + B3: exactly one (k-1,*) label, namely (k-1,k), inside the
    # (*,k)-segment, which ends a level-(k-1) chain; the run after it
    # decides the refinement, and it is empty when (k-1,k) is final
    if chain.labels[-1] == _kk(k):
        return "Bns1"
    return "Bns2" if chain.labels[-1] not in marking else "Bns3"


def monk_refinement(q: PairedChain, k: int) -> str:
    """'empty' / 'Y2' / 'Y3' for a Y-side element ('Y1' = 'empty' or 'Y2')."""
    if not q.monk.labels:
        return "empty"
    return "Y3" if q.monk.s else "Y2"


def y3_detail(q: PairedChain, k: int) -> str:
    """'(1)' / '(2)' by intersection of the two (*,k)-segments (as labels)."""
    return "(1)" if set(segment(q.chain.labels, k)) & set(q.monk.labels[: q.monk.s]) else "(2)"


def y3_circle(q: PairedChain, k: int) -> str:
    """'c1' / 'c2' refinement of the '(1)' part."""
    base = dec2_base(q, k)
    iota = q.monk.labels[0]
    in_seg = iota in segment(q.chain.labels, k)
    if base == "Bns2":
        if in_seg and label_precedes(q.chain.labels[-1], iota):
            return "c1"
        return "c2"
    return "c1" if in_seg else "c2"


def in_class_e(q: PairedChain, k: int) -> bool:
    """Nonempty (*,k)-segment, final label marked, Monk part pure-column."""
    return bool(segment(q.chain.labels, k)) and q.chain.labels[-1] in q.marking and q.monk.s == 0 and q.monk.t > 0


def in_class_f(q: PairedChain, k: int) -> bool:
    """Empty Monk part, nonempty (*,k)-segment, final label unmarked."""
    return not q.monk.labels and bool(segment(q.chain.labels, k)) and q.chain.labels[-1] not in q.marking


def in_class_g(q: PairedChain, k: int) -> bool:
    """Empty Monk part, nonempty (*,k)-segment, final label marked."""
    return not q.monk.labels and bool(segment(q.chain.labels, k)) and q.chain.labels[-1] in q.marking


# --- stage 3: kappa' / kappa'' and the F/S refinements ----------------------


def _chase(chain: PieriChain, start: int) -> tuple[Label, int, list[int]]:
    """
    Iterated final-label chase from column `start`: from the final label
    (a, d_i) of the (*,d_i)-segment, move to the least column d > d_i with
    (a, d) in the chain; stops when none exists.  Returns (final label of
    the last visited segment, number of hops, the visited column list).
    """
    cols = [start]
    while True:
        seg = segment(chain.labels, cols[-1])
        if not seg:
            raise AssertionError(f"visited column {cols[-1]} has empty segment")
        a = seg[-1][0]
        nxt = [bb for (aa, bb) in chain.labels if aa == a and bb > cols[-1]]
        if not nxt:
            return seg[-1], len(cols) - 1, cols
        cols.append(min(nxt))


def kappa_prime(chain: PieriChain, k: int) -> tuple[Label, int, list[int]]:
    """The final-label chase started at column k."""
    if not segment(chain.labels, k):
        raise ValueError("kappa' needs a nonempty (*,k)-segment")
    return _chase(chain, k)


def kappa_double_prime(chain: PieriChain, k: int) -> tuple[Label, int, list[int]]:
    """The same chase started at the top column b(p) = max{b : (k,b) in chain}."""
    tops = [b for (a, b) in chain.labels if a == k]
    if not tops:
        raise ValueError("kappa'' needs a (k,*) label")
    return _chase(chain, max(tops))


def f_refinement(q: PairedChain, k: int) -> str:
    """'F1' / 'F21' / 'F22' for an element of class F."""
    if not in_class_f(q, k):
        raise ValueError("element is not in class F")
    chain, marking = q.chain, q.marking
    a = chain.labels[-1][0]
    if [x for x, _ in chain.labels].count(a) == 1:
        return "F1"
    kp, _, _ = kappa_prime(chain, k)
    return "F21" if kp in marking else "F22"


def s_refinement(mc: MarkedChain, k: int) -> str:
    """'R' / 'S11' / 'S12a' / 'S12b' / 'S2' for a level-k marked chain."""
    chain, marking = mc.chain, mc.marking
    tops = [b for (a, b) in chain.labels if a == k]
    if not tops:
        return "R"
    bp = max(tops)
    if (k, bp) not in marking:
        return "S2"
    if segment(chain.labels, bp)[-1] == (k, bp):
        return "S11"
    kpp, _, _ = kappa_double_prime(chain, k)
    return "S12a" if kpp in marking else "S12b"


# --- full tags and partition checks ----------------------------------------


def classify(q: PairedChain | MarkedChain, level: int, k: int) -> tuple:
    """
    The element's tag in the requested decomposition:
      level 1 (stage-1 split): ('A'|'B1'|'B2'|'B3'|'C'|'D11'|'D12'|'D2', 'X'|'Y')
      level 2 (stage-2 split of the level-(k-1) universe): see dec2 docs
      level 3 (stage-3 split of level-k marked chains, bare or with an
               empty Monk part, and of class F): ('R'|'S11'|...|'F22',)
    """
    if level == 1:
        if q.chain.k == k - 1:
            return (dec1_base_top(q, k), monk_side(q, k))
        if q.chain.k == k - 2:
            return (dec1_base_low(q, k), monk_side(q, k))
        raise ValueError(f"stage-1 tags need level k-1 or k-2 chains, got {q.chain.k}")
    if level == 2:
        if q.chain.k != k - 1:
            raise ValueError("stage-2 tags apply to level-(k-1) elements")
        base = dec2_base(q, k)
        if monk_side(q, k) == "X":
            return (base, "X")
        ref = monk_refinement(q, k)
        if ref != "Y3":
            return (base, ref)
        detail = y3_detail(q, k)
        if detail == "(2)" or base in ("A1", "A2", "A3", "B1"):
            return (base, "Y3", detail)
        return (base, "Y3", detail, y3_circle(q, k))
    if level == 3:
        bare = isinstance(q, MarkedChain)
        if q.chain.k == k and (bare or not q.monk.labels):
            return (s_refinement(q if bare else q.marked, k),)
        if not bare and q.chain.k == k - 1 and in_class_f(q, k):
            return (f_refinement(q, k),)
        raise ValueError("stage-3 tags apply to level-k marked chains or class F")
    raise ValueError(f"level must be 1..3, got {level}")

