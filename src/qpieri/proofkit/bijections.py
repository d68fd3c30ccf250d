"""
The explicit matchings between decomposition classes.

Naming: pi1..pi8 move the adjacent label (k-1,k) between the chain, the
marking, and the Monk side (stage 1); theta1..theta3 are one involution,
the border swap, on three classes: it trades the border label of the
chain's final (*,k)-run against the head of the Monk chain's row segment;
theta4 converts an absorbed-rewrite element one level down into a border
element one level up; chi1..chi6 convert between level k-1 paired
elements and level-k marked chains via insertion/deletion.  Every map is
an explicit construction; intermediate paths guaranteed by the local
rewrite rules are re-validated and failures raise (they indicate bugs,
never data conditions).

`MATCHINGS` at the end of this module is the one place where each map's
domain, codomain and weight law live.  Each domain and codomain is a
class named once as a module-level `Side`, which `identities` sums as
well; `membership` reads the elements of a side.  A weight law is a pair
(sign, e): F(image) = sign * Q_{k-1}^e * F(input), with F taken at each
element's own level.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from ..chains import MonkChain, PieriChain
from ..permutations import Label, Permutation
from ..qbg import DirectedPath, validate_path
from .classify import (
    classify,
    f_refinement,
    in_class_e,
    in_class_f,
    in_class_g,
    kappa_double_prime,
    kappa_prime,
    run_dec_algorithm,
)
from .surgery import delete, insert_many
from .universe import MarkedChain, PairedChain, enumerate_marked, enumerate_paired

Element = Union[PairedChain, MarkedChain]


def _kk(k: int) -> Label:
    return (k - 1, k)


def _marked(start: Permutation, labels, marking, level: int) -> MarkedChain:
    path = validate_path(start, tuple(labels))
    if path is None:
        raise RuntimeError(f"guaranteed path failed to validate: ({start!r}; {labels})")
    return MarkedChain(PieriChain(path, level), frozenset(marking))


def _monk(start: Permutation, labels, k: int) -> MonkChain:
    path = validate_path(start, tuple(labels))
    if path is None:
        raise RuntimeError(f"guaranteed Monk path failed to validate: ({start!r}; {labels})")
    return MonkChain(path, k)


def _pop_monk_head(q: PairedChain, expect: Label | None = None) -> tuple[Label, tuple[Label, ...]]:
    head = q.monk.initial_label()
    if head is None:
        raise ValueError("Monk chain is empty")
    if expect is not None and head != expect:
        raise ValueError(f"Monk chain starts with {head}, expected {expect}")
    return head, q.monk.labels[1:]


def _repair(q: PairedChain, new_p_labels, new_marking, level: int, new_m_labels, k: int) -> PairedChain:
    mc = _marked(q.chain.start, tuple(new_p_labels), new_marking, level)
    return PairedChain(mc, _monk(mc.end, tuple(new_m_labels), k))


def _with_empty_monk(mc: MarkedChain, k: int) -> PairedChain:
    """`mc` followed by the empty k-Monk chain."""
    return PairedChain(mc, _monk(mc.end, (), k))


# --- stage-1 matchings pi1..pi8 ---------------------------------------------
#
# Each pair pi(2i-1), pi(2i) moves the chain side the same way, by a chain
# move (q, k) -> (labels, marking, level) and its reverse; the odd map also
# strips the Monk head (k-1,k) and the even map prepends it, and each
# inverse does the opposite.


def _append_kk(q: PairedChain, k: int):
    """A -> B1: append (k-1,k) to the chain, unmarked."""
    return q.chain.labels + (_kk(k),), q.marking, k - 1


def _drop_kk(q: PairedChain, k: int):
    if q.chain.final_label() != _kk(k):
        raise ValueError("chain does not end with (k-1,k)")
    return q.chain.labels[:-1], q.marking, k - 1


def _lower_marked(q: PairedChain, k: int):
    """B2 (level k-1) -> C (level k-2): drop the final (k-1,k) and its mark."""
    return q.chain.labels[:-1], q.marking - {_kk(k)}, k - 2


def _raise_marked(q: PairedChain, k: int):
    return q.chain.labels + (_kk(k),), q.marking | {_kk(k)}, k - 1


def _b3_to_d11(q: PairedChain, k: int):
    """B3 (level k-1) -> D11 (level k-2): the rows after (k-1,k) drop to column k-1."""
    labels = q.chain.labels
    pos = labels.index(_kk(k))
    before, after = labels[:pos], labels[pos + 1 :]
    if any(b != k for _, b in after):
        raise ValueError("labels after (k-1,k) must sit in the (*,k)-segment")
    moved = set(after)
    marking = {(a, k - 1) if (a, b) in moved else (a, b) for a, b in q.marking if (a, b) != _kk(k)}
    return before + tuple((a, k - 1) for a, _ in after), marking, k - 2


def _d11_to_b3(q: PairedChain, k: int):
    outcome = run_dec_algorithm(q.chain, k)
    if outcome.kind != "IIA":
        raise ValueError("chain is not in the commuting class")
    moved = set(q.chain.segment_labels(k - 1))
    marking = {(a, k) if (a, b) in moved else (a, b) for a, b in q.marking} | {_kk(k)}
    return outcome.path.labels, marking, k - 1


def _d12_to_d2(q: PairedChain, k: int):
    """
    D12 -> D2 (level k-2): the shared row a is unique with (a,k) the last
    (*,k)-label appearing among the (*,k-1) rows and (a,k-1) final; the
    (*,k)-labels from (a,k) on drop to column k-1 behind the (*,k-1)-segment.
    """
    chain = q.chain
    seg_k = chain.segment_labels(k)
    seg_k1 = chain.segment_labels(k - 1)
    rows_k1 = {a for a, _ in seg_k1}
    shared = [i for i, (a, _) in enumerate(seg_k) if a in rows_k1]
    if not shared:
        raise ValueError("no shared row")
    s_p = shared[-1]
    a = seg_k[s_p][0]
    if len(shared) != 1 or seg_k1[-1][0] != a:
        raise RuntimeError("overlap structure violates the guaranteed form")
    pos = len(chain.labels) - len(seg_k1) - len(seg_k)
    labels = (
        chain.labels[:pos]
        + tuple(seg_k[:s_p])
        + seg_k1
        + tuple((i, k - 1) for i, _ in seg_k[s_p + 1 :])
    )
    moved = set(seg_k[s_p:])
    return labels, {(i, k - 1) if (i, b) in moved else (i, b) for i, b in q.marking}, k - 2


def _d2_to_d12(q: PairedChain, k: int):
    """Undo the absorbing rewrite: raise the (*,k-1)-tail from position t(p) to column k."""
    prefix, seg_k, seg_k1, t_p = _absorbed(q.chain, k)
    labels = (
        prefix
        + tuple(seg_k)
        + tuple((j, k) for j, _ in seg_k1[t_p - 1 :])
        + tuple(seg_k1[: t_p - 1])
        + (seg_k1[t_p - 1],)
    )
    moved = set(seg_k1[t_p - 1 :])
    return labels, {(j, k) if (j, b) in moved else (j, b) for j, b in q.marking}, k - 2


def _absorbed(chain: PieriChain, k: int):
    """(prefix, (*,k)-segment, (*,k-1)-segment, t(p)) of an absorbing-class chain."""
    outcome = run_dec_algorithm(chain, k)
    if outcome.kind != "IIB":
        raise ValueError("chain is not in the absorbing class")
    seg_k = chain.segment_labels(k)
    seg_k1 = chain.segment_labels(k - 1)
    prefix = chain.labels[: len(chain.labels) - len(seg_k1) - len(seg_k)]
    return prefix, seg_k, seg_k1, outcome.u


def _head_stripped(move) -> Callable[[PairedChain, int], PairedChain]:
    def apply(q: PairedChain, k: int) -> PairedChain:
        _, m_tail = _pop_monk_head(q, _kk(k))
        return _repair(q, *move(q, k), m_tail, k)
    return apply


def _head_prepended(move) -> Callable[[PairedChain, int], PairedChain]:
    def apply(q: PairedChain, k: int) -> PairedChain:
        return _repair(q, *move(q, k), (_kk(k),) + q.monk.labels, k)
    return apply


def _stage1_pair(move, reverse):
    """(odd map, its inverse, even map, its inverse) of one chain move."""
    return _head_stripped(move), _head_prepended(reverse), _head_prepended(move), _head_stripped(reverse)


pi1, pi1_inv, pi2, pi2_inv = _stage1_pair(_append_kk, _drop_kk)  # AX -> B1Y, AY -> B1X
pi3, pi3_inv, pi4, pi4_inv = _stage1_pair(_lower_marked, _raise_marked)  # B2X -> CY, B2Y -> CX
pi5, pi5_inv, pi6, pi6_inv = _stage1_pair(_b3_to_d11, _d11_to_b3)  # B3X -> D11Y, B3Y -> D11X
pi7, pi7_inv, pi8, pi8_inv = _stage1_pair(_d12_to_d2, _d2_to_d12)  # D12X -> D2Y, D12Y -> D2X


# --- stage-2 matchings theta1..theta4 ---------------------------------------


def _border_swap(q: PairedChain, k: int) -> PairedChain:
    """
    The involution theta1 on A1Y3 + A2Y + A3Y3, theta2 on the
    non-intersecting border part of BnsY3 class c2 and theta3 on
    Bns2Y1 + BnsY3^(2).  Let (b,k) be the head of the Monk row segment,
    b = 0 when it is empty.  When the chain ends with an unmarked (a,k) and
    a > b, that label moves onto the Monk chain; otherwise the head moves
    onto the chain.  On these classes an unmarked final (*,k)-label is the
    class A2 or Bns2 (in B2 + B3 the label (k-1,k) is marked, so it is not
    the final label of a Bns2 chain), and a Bns2 element with no Monk row
    segment has b = 0.
    """
    chain = q.chain
    final = chain.labels[-1] if chain.labels else None
    b = q.monk.labels[0][0] if q.monk.s else 0
    if final is not None and final[1] == k and final[0] > b and final not in q.marking:
        return _repair(q, chain.labels[:-1], q.marking, k - 1, (final,) + q.monk.labels, k)
    _, m_tail = _pop_monk_head(q, (b, k))
    return _repair(q, chain.labels + ((b, k),), q.marking, k - 1, m_tail, k)


theta1 = theta2 = theta3 = _border_swap


def theta4(q: PairedChain, k: int) -> PairedChain:
    """D2Y (level k-2) -> the intersecting border part of BnsY3 (level k-1)."""
    prefix, seg_k, seg_k1, t_p = _absorbed(q.chain, k)
    j_t = seg_k1[t_p - 1][0]
    # raised form ending (k-1,k),(j_1,k),...,(j_{t(p)},k), minus its final label;
    # every (*,k-1) label changes column, so every mark on one follows it
    new_labels = (
        prefix
        + tuple(seg_k)
        + tuple((j, k) for j, _ in seg_k1[t_p - 1 :])
        + (_kk(k),)
        + tuple((j, k) for j, _ in seg_k1[: t_p - 1])
    )
    new_marking = {(lab[0], k) if lab in set(seg_k1) else lab for lab in q.marking}
    new_marking.add(_kk(k))
    return _repair(q, new_labels, new_marking, k - 1, ((j_t, k),) + q.monk.labels, k)


def theta4_inv(q: PairedChain, k: int) -> PairedChain:
    chain = q.chain
    head, m_tail = _pop_monk_head(q)
    c1 = head[0]
    seg_k = chain.segment_labels(k)
    kk_pos = seg_k.index(_kk(k))
    i_part, j_part = seg_k[:kk_pos], seg_k[kk_pos + 1 :]
    matches = [idx for idx, (a, _) in enumerate(i_part) if a == c1]
    if len(matches) != 1:
        raise RuntimeError("Monk head row must match exactly one pre-border row")
    s_p = matches[0]
    pos = len(chain.labels) - len(seg_k)
    prefix = chain.labels[:pos]
    new_labels = (
        prefix
        + tuple(i_part[:s_p])
        + tuple((j, k - 1) for j, _ in j_part)
        + tuple((i, k - 1) for i, _ in i_part[s_p:])
    )
    moved = set(i_part[s_p:]) | set(j_part)
    new_marking = {(a, k - 1) if (a, b) in moved else (a, b) for a, b in q.marking if (a, b) != _kk(k)}
    return _repair(q, new_labels, new_marking, k - 2, m_tail, k)


# --- stage-3 matchings chi1..chi6 -------------------------------------------


def _monk_columns(q: PairedChain) -> list[int]:
    if q.monk.s:
        raise ValueError("Monk chain must be pure column")
    return [b for _, b in q.monk.labels]


def _inserted(q: PairedChain, k: int, marking) -> MarkedChain:
    """The level-k chain made by inserting every Monk column into the chain."""
    path, _ = insert_many(q.chain.path, k, _monk_columns(q))
    return _marked(path.start, path.labels, marking, k)


def chi1(q: PairedChain, k: int) -> MarkedChain:
    """A1Y2 (level k-1, g = p) -> S2 (level k): insert the Monk columns."""
    return _inserted(q, k, q.marking)


def chi5(q: PairedChain, k: int) -> MarkedChain:
    """A1Y2 (level k-1, g = p-1) -> S11 (level k): also mark the top column."""
    return _inserted(q, k, set(q.marking) | {(k, _monk_columns(q)[0])})


def _delete_columns(chain: PieriChain, k: int, expected: list[int]) -> DirectedPath:
    path = chain.path
    for want in expected:
        path, d = delete(path, k)
        if d != want:
            raise RuntimeError(f"deletion produced column {d}, expected {want}")
    return path


def _lowered(path: DirectedPath, marking, k: int, columns: list[int]) -> PairedChain:
    """A level-(k-1) chain along `path` whose Monk chain adds back `columns` (increasing)."""
    new = _marked(path.start, path.labels, marking, k - 1)
    return PairedChain(new, _monk(new.end, tuple((k, d) for d in reversed(columns)), k))


def chi1_inv(mc: MarkedChain, k: int) -> PairedChain:
    ds = sorted(b for a, b in mc.chain.labels if a == k)
    return _lowered(_delete_columns(mc.chain, k, ds), mc.marking, k, ds)


def chi5_inv(mc: MarkedChain, k: int) -> PairedChain:
    ds = sorted(b for a, b in mc.chain.labels if a == k)
    return _lowered(_delete_columns(mc.chain, k, ds), mc.marking - {(k, ds[-1])}, k, ds)


def _chi_insert(q: PairedChain, k: int, mark_kappa: bool) -> Element:
    """
    Shared body of chi2/chi6: insert all Monk columns, tracking marks.  The
    image is a level-k chain, marked at the column of the first commuting
    step, when some insertion commutes through, else the chase part of F
    (level k-1); chi6 (`mark_kappa`) also marks the image of the final label.
    """
    cols = _monk_columns(q)  # decreasing d_r > ... > d_1
    chain = q.chain
    kappa = chain.final_label()
    result, steps = insert_many(chain.path, k, cols)
    # index u in 1..r, counted from the smallest column, of the first commuting step
    first_commuted = next((len(cols) - idx for idx, step in enumerate(steps) if step.commuted), 0)
    # rows moved out of the original (*,k)-segment, by column
    new_at: dict[int, list[Label]] = {}
    old_segments = {d: set(chain.segment_labels(d)) for d in cols}
    for d in cols:
        seg = [lab for lab in result.labels if lab[1] == d]
        new_at[d] = [lab for lab in seg if lab not in old_segments[d] and lab[0] != k]
    moved_rows = {a for labs in new_at.values() for a, _ in labs}
    k1 = {lab for lab in q.marking if lab[1] == k and lab[0] in moved_rows}
    if kappa not in k1:
        raise RuntimeError("class-E element must carry a marked final label")
    k2 = set()
    for lab in k1:
        if lab == kappa:
            continue
        hits = []
        for t, d in enumerate(reversed(cols), start=1):  # t=1 is the smallest column
            seg = [x for x in result.labels if x[1] == d]
            if (lab[0], d) in new_at[d] and seg[-1] != (lab[0], d):
                hits.append((t, d))
        if len(hits) != 1:
            raise RuntimeError(f"moved mark {lab} has {len(hits)} landing spots")
        t, d = hits[0]
        if first_commuted and t <= first_commuted:
            raise RuntimeError("moved mark landed at or below the commuting column")
        k2.add((lab[0], d))
    marking = (set(q.marking) - k1) | k2
    if mark_kappa:
        marking.add((kappa[0], cols[0]))
    if first_commuted:
        marking.add((k, sorted(cols)[first_commuted - 1]))
        return _marked(result.start, result.labels, marking, k)
    return _with_empty_monk(_marked(result.start, result.labels, marking, k - 1), k)


def chi2(q: PairedChain, k: int) -> Element:
    """E (level k-1, g = p) -> S12b (level k), else the unmarked-chase part of F (p-1 marks)."""
    return _chi_insert(q, k, mark_kappa=False)


def chi6(q: PairedChain, k: int) -> Element:
    """E (level k-1, g = p-1) -> S12a (level k), else the marked-chase part of F (p-1 marks)."""
    return _chi_insert(q, k, mark_kappa=True)


def _chi_preimage(x: Element, k: int, s_side_marks_final: bool) -> PairedChain:
    """
    Shared body of chi2_inv/chi6_inv: delete along the columns (increasing)
    back to class E, then pull marks on chased labels back to column k.  The
    final label is marked again on the F side, and on the S side for chi2.
    """
    chain = x.chain
    if isinstance(x, MarkedChain):  # S side: u genuine (k,*) columns, then the chase
        ds = sorted(b for a, b in chain.labels if a == k)
        _, _, chase = kappa_double_prime(chain, k)
        columns, u, new_only = ds + chase[1:], len(ds), False
        marking, mark_final = x.marking - {(k, ds[-1])}, s_side_marks_final
    else:  # F side: the chase only; pull back only labels absent from the input
        if not x.monk.is_empty():
            raise ValueError("class-F elements have empty Monk part")
        kp, _, chase = kappa_prime(chain, k)
        columns, u, new_only = chase[1:], 0, True
        marking, mark_final = x.marking - {kp}, True
    path = _delete_columns(chain, k, columns)
    kseg = [lab for lab in path.labels if lab[1] == k]
    kappa_xi = path.labels[-1]
    if not kseg or kappa_xi[1] != k:
        raise RuntimeError("deletion chase must end in the (*,k)-segment")
    candidates = columns[u - 1 :] if u else columns
    k2p, k1p = set(), set()
    for i, _ in kseg:
        if new_only and (i, k) in chain.labels:
            continue
        if (i, k) == kappa_xi:
            # the final label's mark source is the chase end (top column)
            hits = [columns[-1]] if (i, columns[-1]) in chain.labels else []
        else:
            hits = []
            for d in candidates:
                if (i, d) not in chain.labels:
                    continue
                if chain.segment_labels(d)[-1] != (i, d):
                    hits.append(d)
        if len(hits) != 1:
            raise RuntimeError(f"chased row {i} has {len(hits)} source columns")
        if (i, hits[0]) in marking:
            k2p.add((i, hits[0]))
            k1p.add((i, k))
    marking = (set(marking) - k2p) | k1p
    return _lowered(path, marking | {kappa_xi} if mark_final else marking, k, columns)


def chi2_inv(x: Element, k: int) -> PairedChain:
    return _chi_preimage(x, k, s_side_marks_final=True)


def chi6_inv(x: Element, k: int) -> PairedChain:
    return _chi_preimage(x, k, s_side_marks_final=False)


def chi3(q: PairedChain, k: int) -> MarkedChain:
    """A1 with empty Monk part (level k-1, p marks) -> R (level k): relabel."""
    if not q.monk.is_empty():
        raise ValueError("chi3 needs an empty Monk part")
    return _marked(q.chain.start, q.chain.labels, q.marking, k)


def chi3_inv(mc: MarkedChain, k: int) -> PairedChain:
    return _with_empty_monk(_marked(mc.chain.start, mc.chain.labels, mc.marking, k - 1), k)


def chi4(q: PairedChain, k: int) -> PairedChain:
    """G (level k-1, p marks) -> F1 (level k-1, p-1 marks): unmark the final label."""
    if not q.monk.is_empty():
        raise ValueError("chi4 needs an empty Monk part")
    return _with_empty_monk(
        _marked(q.chain.start, q.chain.labels, q.marking - {q.chain.final_label()}, k - 1), k
    )


def chi4_inv(q: PairedChain, k: int) -> PairedChain:
    return _with_empty_monk(
        _marked(q.chain.start, q.chain.labels, q.marking | {q.chain.final_label()}, k - 1), k
    )


# --- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Universe:
    """
    A universe selector for the grid point (w, k, p): the chains at level
    k + `level` carrying anchor + `marks` marks, where the anchor is the
    marking level g in {p-1, p} when `per_g` and p otherwise.  Below level k
    each chain carries a k-Monk continuation.
    """

    level: int
    marks: int
    per_g: bool

    @property
    def stage(self) -> int:
        """The `classify` level that tags the elements: 1 at k - 2, 2 at k - 1, 3 at k."""
        return self.level + 3

    def elements(self, w: Permutation, k: int, anchor: int):
        h, g = k + self.level, anchor + self.marks
        return enumerate_marked(w, h, g) if h == k else enumerate_paired(w, h, g, k)


TOP_G = Universe(-1, 0, True)  # level k-1 at g
LOW_G = Universe(-2, -1, True)  # level k-2 at g-1
TOP_P = Universe(-1, 0, False)  # level k-1 at p
TOP_P1 = Universe(-1, -1, False)  # level k-1 at p-1
MARKED_P = Universe(0, 0, False)  # the level-k marked chains at p


@dataclass(frozen=True)
class Side:
    """
    A domain or codomain: the elements x of `universe` whose `classify` tag
    satisfies `tags` and, where it is given, test(x, k).
    """

    universe: Universe
    tags: Callable[[tuple], bool]
    test: Callable[[Element, int], bool] | None = None


# (level, marks) -> tag -> elements at a grid point (w, k), filled by
# `membership`; every caller walks one (w, k) at a time, so one is kept
_buckets = lru_cache(maxsize=1)(lambda w, k: {})


def membership(w: Permutation, k: int) -> Callable[[Side, int], list]:
    """
    members(side, anchor): the elements of `side` at the grid point (w, k)
    and that anchor, in universe order within each tag, as a fresh list.
    Each universe is classified once, at its first use, for every side read
    at the same (w, k), also through later calls of `membership`.
    """
    buckets = _buckets(w, k)

    def members(side: Side, anchor: int) -> list:
        u = side.universe
        key = (k + u.level, anchor + u.marks)
        if key not in buckets:
            buckets[key] = {}
            for x in u.elements(w, k, anchor):
                buckets[key].setdefault(classify(x, u.stage, k), []).append(x)
        out = []
        for tag, elems in buckets[key].items():
            if side.tags(tag):
                out += elems if side.test is None else [x for x in elems if side.test(x, k)]
        return out

    return members


def _x_and_y(universe: Universe, *bases: str) -> tuple[Side, Side]:
    """The elements of `universe` whose base tag is in `bases`, on Monk side X, then Y."""
    return (Side(universe, lambda t: t[0] in bases and t[1] == "X"),
            Side(universe, lambda t: t[0] in bases and t[1] != "X"))


def _f_part(part: str) -> Side:
    return Side(TOP_P1, lambda t: t[1] == "empty",
                lambda x, k: in_class_f(x, k) and f_refinement(x, k) == part)


# The classes, each named once: every matching's domain and codomain is one
# of them, and `identities` sums them.  Stage 1 reads B2/B3 off the stage-2
# refinement of B2 + B3 by the run after (k-1,k): B2 = Bns1, B3 = Bns2 + Bns3.
AX, AY = _x_and_y(TOP_G, "A1", "A2", "A3")
B1X, B1Y = _x_and_y(TOP_G, "B1")
B2X, B2Y = _x_and_y(TOP_G, "Bns1")
B3X, B3Y = _x_and_y(TOP_G, "Bns2", "Bns3")
CX, CY = _x_and_y(LOW_G, "C")
D11X, D11Y = _x_and_y(LOW_G, "D11")
D12X, D12Y = _x_and_y(LOW_G, "D12")
D2X, D2Y = _x_and_y(LOW_G, "D2")
# stage 2: the border-swap classes
A_BORDER = Side(TOP_G, lambda t: (t[0] in ("A1", "A3") and t[1] == "Y3")
                or (t[0] == "A2" and t[1] in ("empty", "Y2", "Y3")))  # A1Y3 + A2Y + A3Y3
BNS_Y3_C1 = Side(TOP_G, lambda t: len(t) == 4 and t[1] == "Y3" and t[3] == "c1")
BNS_Y3_C2 = Side(TOP_G, lambda t: len(t) == 4 and t[1] == "Y3" and t[3] == "c2")
BNS_BORDER = Side(TOP_G, lambda t: (t[0] == "Bns2" and t[1] in ("empty", "Y2"))
                  or (t[0].startswith("Bns") and len(t) >= 3 and t[2] == "(2)"))  # Bns2Y1 + BnsY3^(2)
# stage 3, at p marks and (suffix _P1) at p-1 marks on level k-1
A1Y2 = Side(TOP_P, lambda t: t == ("A1", "Y2"))
A1Y2_P1 = Side(TOP_P1, lambda t: t == ("A1", "Y2"))
E = Side(TOP_P, lambda t: t[1] == "Y2", lambda x, k: in_class_e(x, k))
E_P1 = Side(TOP_P1, lambda t: t[1] == "Y2", lambda x, k: in_class_e(x, k))
A1_EMPTY = Side(TOP_P, lambda t: t == ("A1", "empty"))
G = Side(TOP_P, lambda t: t[1] == "empty", lambda x, k: in_class_g(x, k))
F1, F21, F22 = _f_part("F1"), _f_part("F21"), _f_part("F22")
R, S11, S12A, S12B, S2 = (Side(MARKED_P, lambda t, s=s: t == (s,)) for s in ("R", "S11", "S12a", "S12b", "S2"))


@dataclass(frozen=True)
class Matching:
    """
    One matching and its weight law: F(forward(x)) = sign * Q_{k-1}^power
    * F(x) for x in the domain, with the sign of the codomain side that
    holds the image.  A split matching has two codomain sides: the level-k
    marked chains, then the chase part.  An involution (theta1..theta3) is
    its own inverse and maps its domain onto itself.
    """

    name: str
    domain: Side
    codomain: tuple[Side, ...]  # one side, or the level-k side then the chase side
    sign: tuple[int, ...]  # one per codomain side
    power: int  # of Q_{k-1}, shared by every branch
    forward: Callable[[Element, int], Element]
    inverse: Callable[[Element, int], Element]


def _late(name: str) -> Callable[[Element, int], Element]:
    """
    The map `name` of this module, looked up at each call, so that a
    rebinding of the module attribute (the benchmark's layer tracer) is seen.
    """
    return lambda x, k: globals()[name](x, k)


def _bijection(name: str, domain: Side, codomain: Side, sign: int, power: int) -> Matching:
    return Matching(name, domain, (codomain,), (sign,), power, _late(name), _late(name + "_inv"))


def _split(name: str, domain: Side, level_k: Side, chase: Side, signs: tuple[int, int]) -> Matching:
    return Matching(name, domain, (level_k, chase), signs, 0, _late(name), _late(name + "_inv"))


def _involution(name: str, domain: Side) -> Matching:
    mapping = _late(name)
    return Matching(name, domain, (domain,), (-1,), 0, mapping, mapping)


MATCHINGS: dict[str, Matching] = {m.name: m for m in (
    _bijection("pi1", AX, B1Y, -1, 0),
    _bijection("pi2", AY, B1X, -1, 1),
    _bijection("pi3", B2X, CY, 1, -1),
    _bijection("pi4", B2Y, CX, 1, 0),
    _bijection("pi5", B3X, D11Y, 1, -1),
    _bijection("pi6", B3Y, D11X, 1, 0),
    _bijection("pi7", D12X, D2Y, -1, -1),
    _bijection("pi8", D12Y, D2X, -1, 0),
    _involution("theta1", A_BORDER),
    _involution("theta2", BNS_Y3_C2),
    _involution("theta3", BNS_BORDER),
    _bijection("theta4", D2Y, BNS_Y3_C1, 1, 1),
    _bijection("chi1", A1Y2, S2, 1, 0),
    _split("chi2", E, S12B, F22, (1, -1)),
    _bijection("chi3", A1_EMPTY, R, 1, 0),
    _bijection("chi4", G, F1, -1, 0),
    _bijection("chi5", A1Y2_P1, S11, -1, 0),
    _split("chi6", E_P1, S12A, F21, (-1, 1)),
)}
