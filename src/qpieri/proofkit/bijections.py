"""
The explicit matchings between decomposition classes.

Naming: pi1..pi8 move the adjacent label (k-1,k) between the chain, the
marking, and the Monk side (stage 1); theta1..theta3 are involutions
trading the border label of the chain's (*,k)-segment against the head of
the Monk chain's row segment; theta4 converts an absorbed-rewrite element
one level down into a border element one level up; chi1..chi6 convert
between level k-1 paired elements and level-k marked chains via
insertion/deletion.  Every map is an explicit construction; intermediate
paths guaranteed by the local rewrite rules are re-validated and failures
raise (they indicate bugs, never data conditions).

`MATCHINGS` at the end of this module is the one place where each map's
domain, codomain, check shape and weight law live.  A weight law is a pair
(sign, e): F(image) = sign * Q_{k-1}^e * F(input), with F taken at each
element's own level.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

from ..chains import MonkChain, PieriChain
from ..permutations import Label, Permutation
from ..qbg import DirectedPath, validate_path
from .classify import (
    dec2_base,
    f_refinement,
    in_class_e,
    in_class_f,
    in_class_g,
    kappa_double_prime,
    kappa_prime,
    monk_refinement,
    run_dec_algorithm,
)
from .surgery import delete, insert
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
    s = sum(1 for _, b in labels if b == k)
    return MonkChain(path, k, s, len(labels) - s)


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


# --- stage-1 matchings pi1..pi8 ---------------------------------------------


def pi1(q: PairedChain, k: int) -> PairedChain:
    """AX -> B1Y: append (k-1,k) to the chain, strip it from the Monk head."""
    _, m_tail = _pop_monk_head(q, _kk(k))
    return _repair(q, q.chain.labels + (_kk(k),), q.marking, k - 1, m_tail, k)


def pi1_inv(q: PairedChain, k: int) -> PairedChain:
    if q.chain.final_label() != _kk(k):
        raise ValueError("chain does not end with (k-1,k)")
    return _repair(q, q.chain.labels[:-1], q.marking, k - 1, (_kk(k),) + q.monk.labels, k)


def pi2(q: PairedChain, k: int) -> PairedChain:
    """AY -> B1X: append (k-1,k) to the chain and to the Monk head."""
    return _repair(q, q.chain.labels + (_kk(k),), q.marking, k - 1, (_kk(k),) + q.monk.labels, k)


def pi2_inv(q: PairedChain, k: int) -> PairedChain:
    _, m_tail = _pop_monk_head(q, _kk(k))
    return _repair(q, q.chain.labels[:-1], q.marking, k - 1, m_tail, k)


def pi3(q: PairedChain, k: int) -> PairedChain:
    """B2X (level k-1) -> CY (level k-2): drop (k-1,k) from chain, marking, Monk head."""
    _, m_tail = _pop_monk_head(q, _kk(k))
    return _repair(q, q.chain.labels[:-1], q.marking - {_kk(k)}, k - 2, m_tail, k)


def pi3_inv(q: PairedChain, k: int) -> PairedChain:
    return _repair(
        q, q.chain.labels + (_kk(k),), set(q.marking) | {_kk(k)}, k - 1,
        (_kk(k),) + q.monk.labels, k,
    )


def pi4(q: PairedChain, k: int) -> PairedChain:
    """B2Y (level k-1) -> CX (level k-2)."""
    return _repair(
        q, q.chain.labels[:-1], q.marking - {_kk(k)}, k - 2,
        (_kk(k),) + q.monk.labels, k,
    )


def pi4_inv(q: PairedChain, k: int) -> PairedChain:
    _, m_tail = _pop_monk_head(q, _kk(k))
    return _repair(q, q.chain.labels + (_kk(k),), set(q.marking) | {_kk(k)}, k - 1, m_tail, k)


def _psi_b3(chain: PieriChain, k: int) -> tuple[tuple[Label, ...], tuple[Label, ...]]:
    """Rows after (k-1,k) drop to column k-1; returns (new labels, moved rows)."""
    labels = chain.labels
    pos = labels.index(_kk(k))
    before, after = labels[:pos], labels[pos + 1 :]
    if any(b != k for _, b in after):
        raise ValueError("labels after (k-1,k) must sit in the (*,k)-segment")
    return before + tuple((a, k - 1) for a, _ in after), after


def _phi_b3(marking, moved, k: int):
    out = set()
    for lab in marking:
        if lab == _kk(k):
            continue
        out.add((lab[0], k - 1) if lab in moved else lab)
    return out


def _psi_d11(chain: PieriChain, k: int) -> tuple[Label, ...]:
    cls = run_dec_algorithm(chain, k)
    if cls.outcome != "D1":
        raise ValueError("chain is not in the commuting class")
    return cls.path.labels


def _phi_d11(marking, chain: PieriChain, k: int):
    moved = set(chain.segment_labels(k - 1))
    out = {(_kk(k))}
    for lab in marking:
        out.add((lab[0], k) if lab in moved else lab)
    return out


def pi5(q: PairedChain, k: int) -> PairedChain:
    """B3X (level k-1) -> D11Y (level k-2)."""
    _, m_tail = _pop_monk_head(q, _kk(k))
    new_labels, moved = _psi_b3(q.chain, k)
    return _repair(q, new_labels, _phi_b3(q.marking, set(moved), k), k - 2, m_tail, k)


def pi5_inv(q: PairedChain, k: int) -> PairedChain:
    return _repair(
        q, _psi_d11(q.chain, k), _phi_d11(q.marking, q.chain, k), k - 1,
        (_kk(k),) + q.monk.labels, k,
    )


def pi6(q: PairedChain, k: int) -> PairedChain:
    """B3Y (level k-1) -> D11X (level k-2)."""
    new_labels, moved = _psi_b3(q.chain, k)
    return _repair(
        q, new_labels, _phi_b3(q.marking, set(moved), k), k - 2,
        (_kk(k),) + q.monk.labels, k,
    )


def pi6_inv(q: PairedChain, k: int) -> PairedChain:
    _, m_tail = _pop_monk_head(q, _kk(k))
    return _repair(q, _psi_d11(q.chain, k), _phi_d11(q.marking, q.chain, k), k - 1, m_tail, k)


def _psi_d12(chain: PieriChain, k: int) -> tuple[tuple[Label, ...], set[Label]]:
    """
    For an element of the overlapping commuting class: the shared row a is
    unique with (a,k) the last (*,k)-label appearing among the (*,k-1) rows
    and (a,k-1) final; rewrite so the (*,k)-labels from (a,k) on drop to
    column k-1 behind the (*,k-1)-segment.
    """
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
    prefix = chain.labels[:pos]
    new_labels = (
        prefix
        + tuple(seg_k[:s_p])
        + seg_k1
        + tuple((i, k - 1) for i, _ in seg_k[s_p + 1 :])
    )
    moved = set(seg_k[s_p:])
    return new_labels, moved


def _phi_d12(marking, moved, k: int):
    return {(lab[0], k - 1) if lab in moved else lab for lab in marking}


def _absorbed(chain: PieriChain, k: int):
    """(prefix, (*,k)-segment, (*,k-1)-segment, t(p)) of an absorbing-class chain."""
    cls = run_dec_algorithm(chain, k)
    if cls.outcome != "D2":
        raise ValueError("chain is not in the absorbing class")
    seg_k = chain.segment_labels(k)
    seg_k1 = chain.segment_labels(k - 1)
    prefix = chain.labels[: len(chain.labels) - len(seg_k1) - len(seg_k)]
    return prefix, seg_k, seg_k1, cls.t_of_p


def _psi_d2(chain: PieriChain, k: int) -> tuple[tuple[Label, ...], set[Label]]:
    """Undo the absorbing rewrite: raise the (*,k-1)-tail from position t(p) to column k."""
    prefix, seg_k, seg_k1, t_p = _absorbed(chain, k)
    new_labels = (
        prefix
        + tuple(seg_k)
        + tuple((j, k) for j, _ in seg_k1[t_p - 1 :])
        + tuple(seg_k1[: t_p - 1])
        + (seg_k1[t_p - 1],)
    )
    moved = set(seg_k1[t_p - 1 :])
    return new_labels, moved


def _phi_d2(marking, moved, k: int):
    return {(lab[0], k) if lab in moved else lab for lab in marking}


def pi7(q: PairedChain, k: int) -> PairedChain:
    """D12X -> D2Y (both level k-2)."""
    _, m_tail = _pop_monk_head(q, _kk(k))
    new_labels, moved = _psi_d12(q.chain, k)
    return _repair(q, new_labels, _phi_d12(q.marking, moved, k), k - 2, m_tail, k)


def pi7_inv(q: PairedChain, k: int) -> PairedChain:
    new_labels, moved = _psi_d2(q.chain, k)
    return _repair(
        q, new_labels, _phi_d2(q.marking, moved, k), k - 2,
        (_kk(k),) + q.monk.labels, k,
    )


def pi8(q: PairedChain, k: int) -> PairedChain:
    """D12Y -> D2X (both level k-2)."""
    new_labels, moved = _psi_d12(q.chain, k)
    return _repair(
        q, new_labels, _phi_d12(q.marking, moved, k), k - 2,
        (_kk(k),) + q.monk.labels, k,
    )


def pi8_inv(q: PairedChain, k: int) -> PairedChain:
    _, m_tail = _pop_monk_head(q, _kk(k))
    new_labels, moved = _psi_d2(q.chain, k)
    return _repair(q, new_labels, _phi_d2(q.marking, moved, k), k - 2, m_tail, k)


# --- stage-2 matchings theta1..theta4 ---------------------------------------


def _border_rows(q: PairedChain, k: int, after_kk: bool) -> tuple[int, int]:
    """(a, b): rows of the chain-side border label and the Monk-side head, 0 if absent."""
    if after_kk:
        seg = q.chain.segment_after(_kk(k))
    else:
        seg = q.chain.segment_labels(k)
    a = seg[-1][0] if seg else 0
    b = q.monk.labels[0][0] if q.monk.s else 0
    return a, b


def _swap_border(q: PairedChain, k: int, move_to_monk: bool, row: int) -> PairedChain:
    if move_to_monk:
        if q.chain.final_label() != (row, k):
            raise ValueError("chain does not end with the border label")
        return _repair(q, q.chain.labels[:-1], q.marking, k - 1, ((row, k),) + q.monk.labels, k)
    _, m_tail = _pop_monk_head(q, (row, k))
    return _repair(q, q.chain.labels + ((row, k),), q.marking, k - 1, m_tail, k)


def theta1(q: PairedChain, k: int, base: str) -> PairedChain:
    """Involution on A1Y3 + A2Y + A3Y3."""
    a, b = _border_rows(q, k, after_kk=False)
    if base == "A2" and a > b:
        return _swap_border(q, k, True, a)
    return _swap_border(q, k, False, b)


def theta2(q: PairedChain, k: int, base: str) -> PairedChain:
    """Involution on the non-intersecting border part of BnsY3 class c2."""
    a, b = _border_rows(q, k, after_kk=True)
    if base == "Bns2" and a > b:
        return _swap_border(q, k, True, a)
    return _swap_border(q, k, False, b)


def theta3(q: PairedChain, k: int, base: str, y3: bool) -> PairedChain:
    """Involution on Bns2Y1 + BnsY3^(2)."""
    a, b = _border_rows(q, k, after_kk=True)
    if base == "Bns2" and (not y3 or a > b):
        return _swap_border(q, k, True, a)
    return _swap_border(q, k, False, b)


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
    new_marking = set()
    for lab in q.marking:
        if lab == _kk(k):
            continue
        new_marking.add((lab[0], k - 1) if lab in moved else lab)
    return _repair(q, new_labels, new_marking, k - 2, m_tail, k)


# --- stage-3 matchings chi1..chi6 -------------------------------------------


def _monk_columns(q: PairedChain) -> list[int]:
    if q.monk.s:
        raise ValueError("Monk chain must be pure column")
    return [b for _, b in q.monk.labels]


def _as_level(chain: PieriChain, level: int, marking) -> MarkedChain:
    return _marked(chain.start, chain.labels, marking, level)


def _inserted(q: PairedChain, k: int, marking) -> MarkedChain:
    """The level-k chain made by inserting every Monk column into the chain."""
    path = q.chain.path
    for d in _monk_columns(q):
        path = insert(path, k, d).path
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


def _chi_insert(q: PairedChain, k: int):
    """Shared body of chi2/chi6: insert all Monk columns, tracking marks."""
    cols = _monk_columns(q)  # decreasing d_r > ... > d_1
    chain = q.chain
    kappa = chain.final_label()
    path = chain.path
    first_commuted = 0  # index u in 1..r counted from the smallest column
    for idx, d in enumerate(cols):
        step = insert(path, k, d)
        path = step.path
        if step.commuted and first_commuted == 0:
            first_commuted = len(cols) - idx
    result = path
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
    kappa_image = (kappa[0], cols[0])
    base = (set(q.marking) - k1) | k2
    return result, base, kappa_image, first_commuted, cols


def chi2(q: PairedChain, k: int) -> Element:
    """
    E (level k-1, g = p) -> S12b (level k) when some insertion commutes
    through, else the unmarked-chase part of F (level k-1, p-1 marks).
    """
    result, base, kappa_image, u, cols = _chi_insert(q, k)
    if u:
        d_u = sorted(cols)[u - 1]
        marking = base | {(k, d_u)}
        return _marked(result.start, result.labels, marking, k)
    return PairedChain(
        _marked(result.start, result.labels, base, k - 1),
        _monk(result.end, (), k),
    )


def chi6(q: PairedChain, k: int) -> Element:
    """
    E (level k-1, g = p-1) -> S12a (level k) when some insertion commutes
    through, else the marked-chase part of F (level k-1, p-1 marks).
    """
    result, base, kappa_image, u, cols = _chi_insert(q, k)
    if u:
        d_u = sorted(cols)[u - 1]
        marking = base | {(k, d_u), kappa_image}
        return _marked(result.start, result.labels, marking, k)
    return PairedChain(
        _marked(result.start, result.labels, base | {kappa_image}, k - 1),
        _monk(result.end, (), k),
    )


def _chi_delete(chain: PieriChain, marking, k: int, columns: list[int], u: int,
                new_only: bool) -> tuple[DirectedPath, set, Label]:
    """
    Shared body of the chi2/chi6 inverses: delete along `columns`
    (increasing), then pull marks on chased labels back to column k.
    `u` = number of genuine (k,*) columns (0 on the marked-final side);
    `new_only` restricts the pull-back to labels absent from the input.
    """
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
    return path, (set(marking) - k2p) | k1p, kappa_xi


def chi2_inv(x: Element, k: int) -> PairedChain:
    if isinstance(x, MarkedChain):  # S12b side
        path, marking, kappa_xi, columns = _s_side_delete(x, k)
        marking = marking | {kappa_xi}
    else:  # F22 side
        path, marking, kappa_xi, columns = _f_side_delete(x, k)
        marking = marking | {kappa_xi}
    return _lowered(path, marking, k, columns)


def chi6_inv(x: Element, k: int) -> PairedChain:
    if isinstance(x, MarkedChain):  # S12a side
        path, marking, _, columns = _s_side_delete(x, k)
    else:  # F21 side: the chase-end mark returns to the final label
        path, marking, kappa_xi, columns = _f_side_delete(x, k)
        marking = marking | {kappa_xi}
    return _lowered(path, marking, k, columns)


def _s_side_delete(mc: MarkedChain, k: int):
    chain, marking = mc.chain, mc.marking
    ds = sorted(b for a, b in chain.labels if a == k)
    u = len(ds)
    _, _, chase = kappa_double_prime(chain, k)
    columns = ds + chase[1:]
    path, new_marking, kappa_xi = _chi_delete(
        chain, marking - {(k, ds[-1])}, k, columns, u, new_only=False
    )
    return path, new_marking, kappa_xi, columns


def _f_side_delete(q: PairedChain, k: int):
    chain, marking = q.chain, q.marking
    if not q.monk.is_empty():
        raise ValueError("class-F elements have empty Monk part")
    kp, _, chase = kappa_prime(chain, k)
    columns = chase[1:]
    path, new_marking, kappa_xi = _chi_delete(
        chain, marking - {kp}, k, columns, 0, new_only=True
    )
    return path, new_marking, kappa_xi, columns


def chi3(q: PairedChain, k: int) -> MarkedChain:
    """A1 with empty Monk part (level k-1, p marks) -> R (level k): relabel."""
    if not q.monk.is_empty():
        raise ValueError("chi3 needs an empty Monk part")
    return _as_level(q.chain, k, q.marking)


def chi3_inv(mc: MarkedChain, k: int) -> PairedChain:
    new = _as_level(mc.chain, k - 1, mc.marking)
    return PairedChain(new, _monk(new.end, (), k))


def chi4(q: PairedChain, k: int) -> PairedChain:
    """G (level k-1, p marks) -> F1 (level k-1, p-1 marks): unmark the final label."""
    if not q.monk.is_empty():
        raise ValueError("chi4 needs an empty Monk part")
    new = _marked(q.chain.start, q.chain.labels, q.marking - {q.chain.final_label()}, k - 1)
    return PairedChain(new, _monk(new.end, (), k))


def chi4_inv(q: PairedChain, k: int) -> PairedChain:
    new = _marked(
        q.chain.start, q.chain.labels, set(q.marking) | {q.chain.final_label()}, k - 1
    )
    return PairedChain(new, _monk(new.end, (), k))


# --- the registry -------------------------------------------------------------

# check shapes: a bijection is also walked from its codomain; a split
# bijection lands in two codomains (level k, then the chase); an involution
# maps its domain onto itself with the weight law (-1, 0)
BIJECTION = "bijection"
SPLIT = "split bijection"
INVOLUTION = "involution"


@dataclass(frozen=True)
class Universe:
    """
    A universe selector for the grid point (w, k, p): the chains at level
    k + `level` carrying anchor + `marks` marks, where the anchor is the
    marking level g in {p-1, p} when `per_g` and p otherwise.  Below level k
    each chain carries a k-Monk continuation; `stage` is the `classify`
    level that tags the elements.
    """

    level: int
    marks: int
    per_g: bool
    stage: int

    def elements(self, w: Permutation, k: int, anchor: int):
        h, g = k + self.level, anchor + self.marks
        return enumerate_marked(w, h, g) if h == k else enumerate_paired(w, h, g, k)


TOP_G = Universe(-1, 0, True, 2)  # level k-1 at g
LOW_G = Universe(-2, -1, True, 1)  # level k-2 at g-1
TOP_P = Universe(-1, 0, False, 2)  # level k-1 at p
TOP_P1 = Universe(-1, -1, False, 2)  # level k-1 at p-1
MARKED_P = Universe(0, 0, False, 3)  # the level-k marked chains at p


@dataclass(frozen=True)
class Side:
    """
    A domain or codomain: the elements x of `universe` whose `classify` tag
    satisfies `tags` and, where it is given, test(x, k).
    """

    universe: Universe
    tags: Callable[[tuple], bool]
    test: Callable[[Element, int], bool] | None = None


@dataclass(frozen=True)
class Matching:
    """
    One matching and its weight law: F(forward(x)) = sign * Q_{k-1}^power
    * F(x) for x in the domain, with the sign of the codomain side that
    holds the image.
    """

    name: str
    shape: str
    domain: Side
    codomain: tuple[Side, ...]  # one side per branch of the check shape
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
    return Matching(name, BIJECTION, domain, (codomain,), (sign,), power,
                    _late(name), _late(name + "_inv"))


def _split(name: str, domain: Side, level_k: Side, chase: Side, signs: tuple[int, int]) -> Matching:
    return Matching(name, SPLIT, domain, (level_k, chase), signs, 0,
                    _late(name), _late(name + "_inv"))


def _involution(name: str, domain: Side, mapping: Callable[[Element, int], Element]) -> Matching:
    return Matching(name, INVOLUTION, domain, (domain,), (-1,), 0, mapping, mapping)


def _f_part(part: str) -> Side:
    return Side(TOP_P1, lambda t: t[1] == "empty",
                lambda x, k: in_class_f(x, k) and f_refinement(x, k) == part)


_A = ("A1", "A2", "A3")

MATCHINGS: dict[str, Matching] = {m.name: m for m in (
    _bijection("pi1", Side(TOP_G, lambda t: t[0] in _A and t[1] == "X"),
               Side(TOP_G, lambda t: t[0] == "B1" and t[1] != "X"), -1, 0),
    _bijection("pi2", Side(TOP_G, lambda t: t[0] in _A and t[1] != "X"),
               Side(TOP_G, lambda t: t[0] == "B1" and t[1] == "X"), -1, 1),
    _bijection("pi3", Side(TOP_G, lambda t: t[0] == "Bns1" and t[1] == "X"),
               Side(LOW_G, lambda t: t == ("C", "Y")), 1, -1),
    _bijection("pi4", Side(TOP_G, lambda t: t[0] == "Bns1" and t[1] != "X"),
               Side(LOW_G, lambda t: t == ("C", "X")), 1, 0),
    _bijection("pi5", Side(TOP_G, lambda t: t[0] in ("Bns2", "Bns3") and t[1] == "X"),
               Side(LOW_G, lambda t: t == ("D11", "Y")), 1, -1),
    _bijection("pi6", Side(TOP_G, lambda t: t[0] in ("Bns2", "Bns3") and t[1] != "X"),
               Side(LOW_G, lambda t: t == ("D11", "X")), 1, 0),
    _bijection("pi7", Side(LOW_G, lambda t: t == ("D12", "X")),
               Side(LOW_G, lambda t: t == ("D2", "Y")), -1, -1),
    _bijection("pi8", Side(LOW_G, lambda t: t == ("D12", "Y")),
               Side(LOW_G, lambda t: t == ("D2", "X")), -1, 0),
    _involution(
        "theta1",
        Side(TOP_G, lambda t: (t[0] in ("A1", "A3") and t[1] == "Y3")
              or (t[0] == "A2" and t[1] in ("empty", "Y2", "Y3"))),
        lambda x, k: theta1(x, k, dec2_base(x, k)),
    ),
    _involution(
        "theta2",
        Side(TOP_G, lambda t: len(t) == 4 and t[1] == "Y3" and t[3] == "c2"),
        lambda x, k: theta2(x, k, dec2_base(x, k)),
    ),
    _involution(
        "theta3",
        Side(TOP_G, lambda t: (t[0] == "Bns2" and t[1] in ("empty", "Y2"))
              or (t[0].startswith("Bns") and len(t) >= 3 and t[2] == "(2)")),
        lambda x, k: theta3(x, k, dec2_base(x, k), monk_refinement(x, k) == "Y3"),
    ),
    _bijection("theta4", Side(LOW_G, lambda t: t == ("D2", "Y")),
               Side(TOP_G, lambda t: len(t) == 4 and t[1] == "Y3" and t[3] == "c1"), 1, 1),
    _bijection("chi1", Side(TOP_P, lambda t: t == ("A1", "Y2")),
               Side(MARKED_P, lambda t: t == ("S2",)), 1, 0),
    _split("chi2", Side(TOP_P, lambda t: t[1] == "Y2", lambda x, k: in_class_e(x, k)),
           Side(MARKED_P, lambda t: t == ("S12b",)), _f_part("F22"), (1, -1)),
    _bijection("chi3", Side(TOP_P, lambda t: t == ("A1", "empty")),
               Side(MARKED_P, lambda t: t == ("R",)), 1, 0),
    _bijection("chi4", Side(TOP_P, lambda t: t[1] == "empty", lambda x, k: in_class_g(x, k)),
               _f_part("F1"), -1, 0),
    _bijection("chi5", Side(TOP_P1, lambda t: t == ("A1", "Y2")),
               Side(MARKED_P, lambda t: t == ("S11",)), -1, 0),
    _split("chi6", Side(TOP_P1, lambda t: t[1] == "Y2", lambda x, k: in_class_e(x, k)),
           Side(MARKED_P, lambda t: t == ("S12a",)), _f_part("F21"), (-1, 1)),
)}
