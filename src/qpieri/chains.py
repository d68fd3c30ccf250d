"""
k-Pieri chains, k-Monk chains, and p-markings.

A k-Pieri chain from w is a directed path in the quantum Bruhat graph whose
labels (a,b) all satisfy a <= k < b, subject to:

  (P0) no label repeats;
  (P1) the column entries b are weakly decreasing along the path;
  (P2) if the row entry a of a non-final label already occurred strictly
       earlier, that label must precede its successor in the label order.

By (P1) the labels with a fixed column m form one contiguous (possibly
empty) run, the (*,m)-segment; segments appear in strictly decreasing
column order.

A p-marking of a chain is a p-subset M of its labels with:

  (1) a marked label is the first occurrence of its row;
  (2) an unmarked non-final label precedes its successor in the label order;
  (3) whenever the first t labels share one column with strictly decreasing
      rows, the t-th label is marked.

Conditions (2)-(3) force a definite subset of labels into every marking;
condition (1) restricts the rest to first-occurrences of the remaining
rows, which gives the closed-form count

  #markings = C(m0 - m, p - m),

m0 = number of distinct rows, m = number of forced labels.  Every forced
label is a first occurrence: the labels forced by (3) form an initial run
with strictly decreasing rows, and by (P2) a non-final label whose row
repeats precedes its successor, so (2) never forces it.  So one pass over
the labels (`_marking_parts`) lists the forced labels and the other first
occurrences; `enumerate_markings` combines them and `marking_count`
counts them.  `is_marking` reads (1)-(3) afresh and stays their oracle.

`pieri_degree_rows` turns these counts into one term per chain in one
walk over the chains, building no chain objects: the window of the
chain's end, its packed Q-weight, and one small code for (m0, m, parity
of the length) whose coefficient in each degree `code_weight` gives.
Distinct chains from w have distinct ends on every grid measured (all of
S_7, k <= 7), but no reader relies on it: a repeated end would be one
more term to sum.  Ends are interned across walks in `_ends`, keyed by
the trimmed window, which the entry wraps: each permutation any walk
reaches is built once, with the length the walk carried to it, and its
window is one tuple object shared by the `_ends` key, the entry, every
row that reaches it and every expansion key built from those rows
(`expansion` keys its terms by window, so sums hash tuples).  A new end
is built by setting its two slots.  A window that no walk reached, of a
parsed expansion say, gets its entry when `expansion` first reads it at
its boundary, with its length counted once (`_interned_end`).
`enumerate_pieri_chains` and the marking functions stay as the walk's
reference.
Every chain walk swaps two entries of one padded window list on the way
down and back on return, and tests each step with `qbg._window_kind`
(written out once, in the one candidate loop of `pieri_degree_rows`).
The walks read their tables from `_walk_tables`, built once per (k, N)
and shared, and carry the packed Q-weight of the path, adding the tabled
weight of each quantum edge.

Candidates.  The reference walk tries every label of the pool in a later
or the same column and skips a label already used and, by (P2), one that
does not follow a repeated row.  `pieri_degree_rows` tries no label it
would skip.  By (P1) a used label of the current column b is in the
b-segment, and no label of a later column is used yet, so a node's
candidates are one tuple, read from the table `candidates[b]` by a row
bitmask: the labels of column b that the segment has not taken, above
the last row if that row repeats (P2), then `tail_from[b - 1]`, whole.
Only the edge test is left per candidate; whether the label's column is
b tells a label that extends the segment from one that starts the next.
A second bitmask, of the rows of the whole chain, tells whether a row is
used for the first time.

Sign law.  Each QBG edge changes the length by an odd amount: +1 for a
Bruhat edge, -2(b-a)+1 for a quantum edge (a,b).  So a chain from w to u
of length r has (-1)^r = (-1)^(l(u) - l(w)), and its degree-p weight
(-1)^(r-p) * #markings is 0 or has the sign (-1)^(l(u) - l(w) - p).  In
each degree all chains to one end agree in sign, so no coefficient of a
Pieri product cancels; and each chain weighs +-1 in degree p = m, its
number of forced labels, so no term is zero in every degree.  By
induction every coefficient of a product of Pieri factors at G[v] has
the sign (-1)^(l(v) - l(w) - sum of the p).  `pieri_degree_rows` carries
the parity of the chain's length in its code.  It and the Monk walk both
carry the length of the current end, never recounted, for the end they
intern (`_interned_window`).

All enumeration runs inside the ambient bound N = max(support, k) + 1: no
QBG edge usable by these chains has column beyond N, which is re-asserted
at every enumeration frontier.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .permutations import Label, Permutation, count_inversions, label_precedes, label_sort_key
from .qbg import Q_STRIDE, Q_VARIABLES, DirectedPath, EdgeKind, _window_kind, edge_kind


@dataclass(frozen=True)
class PieriChain:
    path: DirectedPath
    k: int

    def __post_init__(self) -> None:
        problem = pieri_violation(self.path.labels, self.k)
        if problem is not None:
            raise ValueError(f"not a {self.k}-Pieri chain: {problem[1]}")

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.path.labels

    @property
    def start(self) -> Permutation:
        return self.path.start

    @property
    def end(self) -> Permutation:
        return self.path.end

    def __len__(self) -> int:
        return len(self.path.labels)

    def __repr__(self) -> str:
        return f"PieriChain(k={self.k}, {self.path.render()})"


def pieri_violation(labels: tuple[Label, ...], k: int) -> tuple[str, str] | None:
    """
    None if (P0)-(P2) hold for a k-Pieri chain, else (condition, description)
    with condition the first failed one of "P0", "P1", "P2".
    """
    r = len(labels)
    seen = set()
    for a, b in labels:
        if not a <= k < b:
            return "P0", f"label ({a},{b}) outside rows 1..{k} / columns > {k}"
        if (a, b) in seen:
            return "P0", f"label ({a},{b}) repeats"
        seen.add((a, b))
    for i in range(r - 1):
        if labels[i][1] < labels[i + 1][1]:
            return "P1", f"columns increase at index {i}"
    if r >= 3:
        rows_before: set[int] = {labels[0][0]}
        for s in range(1, r - 1):
            if labels[s][0] in rows_before and not label_precedes(labels[s], labels[s + 1]):
                return "P2", f"repeated row {labels[s][0]} not followed in order at index {s}"
            rows_before.add(labels[s][0])
    return None


def _assert_root_bound(x: Permutation, k: int, bound: int) -> None:
    # ambient-bound audit at the start vertex: no first edge can reach
    # column bound+1 (later columns are capped by the first one through
    # the weakly-decreasing-column condition)
    for a in range(1, k + 1):
        if edge_kind(x, (a, bound + 1)) is not None:
            raise AssertionError(
                f"ambient bound {bound} unsound: edge ({a},{bound + 1}) from {x!r}"
            )


class _Candidates(dict):
    """One column of `_walk_tables`' candidates, filled on first use of each mask."""

    __slots__ = ("column", "tail")

    def __init__(self, column: tuple[Label, ...], tail: tuple[Label, ...]) -> None:
        self.column = column
        self.tail = tail

    def __missing__(self, mask: int) -> tuple[Label, ...]:
        found = self[mask] = tuple(lab for lab in self.column if not mask >> lab[0] & 1) + self.tail
        return found


@lru_cache(maxsize=32)
def _walk_tables(
    k: int, bound: int
) -> tuple[tuple[tuple[Label, ...], ...], dict[Label, int], tuple[_Candidates | None, ...]]:
    """
    The tables of the walks over k-Pieri and k-Monk chains inside bound N,
    shared by every walk with the same (k, N), which only reads them.

      tail_from   tail_from[b] = the labels (a,c), a <= k < c <= b, in label
                  order (empty for b <= k), the continuations of a chain
                  that ends in column b by (P1); tail_from[N] is the whole
                  label pool;
      qstep       the packed Q-weight Q_a * ... * Q_(b-1) of every label a
                  walk can take, added when it is a quantum edge: the pool
                  and the Monk row labels (a,k), a < k;
      candidates  candidates[b][mask], for b in k+1..N+1, = the labels (a,b)
                  of the pool whose bit 1 << a is clear in mask, in label
                  order, then tail_from[b - 1]: what a node of
                  `pieri_degree_rows` in column b tries when mask holds
                  the rows it may not take there.  Column N + 1 has no
                  label, so the root reads the whole pool.

    Each `candidates[b]` fills lazily, one entry on the first use of each
    mask: the only state a walk adds to these tables.  Packing accepts
    Q_1 .. Q_1024 only (`qbg.pack_monomial`), so a bound past 1025 is
    refused with a ValueError.
    """
    if bound - 1 > Q_VARIABLES:
        raise ValueError(f"labels up to column {bound} reach Q{bound - 1}; packing accepts Q1..Q{Q_VARIABLES}")
    pool = tuple(sorted(
        ((a, b) for a in range(1, k + 1) for b in range(k + 1, bound + 1)),
        key=label_sort_key,
    ))
    tail_from = tuple(tuple(lab for lab in pool if lab[1] <= b) for b in range(bound + 1))
    # Q_a * ... * Q_(b-1) packs to the sum of 2^(S(v-1)) over v in a..b-1,
    # a geometric sum: (2^(S(b-1)) - 2^(S(a-1))) / (2^S - 1)
    field = (1 << Q_STRIDE) - 1
    qstep = {
        (a, b): ((1 << Q_STRIDE * (b - 1)) - (1 << Q_STRIDE * (a - 1))) // field
        for a, b in [*pool, *((a, k) for a in range(1, k))]
    }
    candidates = (None,) * (k + 1) + tuple(
        _Candidates(tuple(lab for lab in pool if lab[1] == b), tail_from[b - 1]) for b in range(k + 1, bound + 2)
    )
    return tail_from, qstep, candidates


def _walk_from(visit: Callable[..., None], labels: int, *root) -> None:
    """
    visit(*root), a recursive walk that enters one level per label of a
    chain, with room for `labels` more levels than Python's recursion
    limit leaves the caller: a walk at k = 1024 takes chains of 1024 labels.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + labels + 1)
    try:
        visit(*root)
    finally:
        sys.setrecursionlimit(limit)


def code_weight(k: int, code: int, p: int) -> int:
    """
    The degree-p coefficient of a k-Pieri chain with term code
    code = 2 * ((k + 1) * m0 + m) + parity (`pieri_degree_rows`): m0 rows,
    m forced labels, and length of that parity.  It is
    (-1)^(parity - p) * C(m0 - m, p - m) for p in m..m0 and 0 otherwise;
    a code with m > m0 names no chain and weighs 0 in every degree.

    >>> code_weight(2, 2 * (3 * 2 + 1) + 1, 2)  # m0 = 2, m = 1, odd length
    -1
    """
    m0, m = divmod(code >> 1, k + 1)
    return (-1) ** ((code & 1) + p) * comb(m0 - m, p - m) if m <= p <= m0 else 0


def weight_row(k: int, code: int) -> tuple[int, ...]:
    """
    The coefficients of a k-Pieri term code in the degrees p = 0..k.

    >>> weight_row(2, 2 * (3 * 2 + 1) + 1)  # m0 = 2, m = 1, odd length
    (0, 1, -1)
    """
    return tuple(code_weight(k, code, p) for p in range(k + 1))


def enumerate_pieri_chains(w: Permutation, k: int, max_column: int | None = None) -> list[PieriChain]:
    """
    All k-Pieri chains from w, each checked by `PieriChain`, in depth-first
    order with extensions tried in label order.  Exhaustive within
    N = max(support(w), k) + 1: no first edge can reach column N+1 (audited
    at the start), and (P1) caps every later column at the first one.

    With `max_column`, the walk reads the tables of bound
    min(N, max_column), or 0 if that is negative, so only labels of
    column <= max_column are tried;
    the audit keeps the true N.  This gives exactly the chains whose first
    column is at most max_column, in the same order: by (P1) every later
    label of such a chain is in range.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    bound = max(w.support, k) + 1
    _assert_root_bound(w, k, bound)
    tail_from = _walk_tables(k, bound if max_column is None else max(min(bound, max_column), 0))[0]
    pool = tail_from[-1]
    window = list(w.extended(bound))
    labels: list[Label] = []
    kinds: list[EdgeKind] = []
    out: list[PieriChain] = []

    def dfs(candidates: tuple[Label, ...]) -> None:
        path = DirectedPath(w, tuple(labels), tuple(kinds), Permutation._from_swapped(window))
        out.append(PieriChain(path, k))
        # (P2): if the final label's row occurred earlier, it must precede the next label
        held = any(a == labels[-1][0] for a, _ in labels[:-1])
        for label in candidates:
            if label in labels or held and not label_precedes(labels[-1], label):
                continue
            a, b = label
            kind = _window_kind(window, a, b)
            if kind is None:
                continue
            window[a - 1], window[b - 1] = window[b - 1], window[a - 1]
            labels.append(label)
            kinds.append(kind)
            dfs(tail_from[b])
            kinds.pop()
            labels.pop()
            window[a - 1], window[b - 1] = window[b - 1], window[a - 1]

    try:
        # a chain takes each label of the pool at most once
        _walk_from(dfs, len(pool), pool)
    finally:
        del dfs  # see `pieri_degree_rows`
    return out


@dataclass(frozen=True)
class MonkChain:
    """
    A k-Monk chain: a path of the shape

      (a_1,k), ..., (a_s,k), (k,b_t), ..., (k,b_1)

    with k > a_1 > ... > a_s >= 1 and k < b_1 < ... < b_t; `s` and `t`, the
    lengths of the (*,k)- and (k,*)-segments, are read off the labels.
    """

    path: DirectedPath
    k: int
    s: int = field(init=False, compare=False)
    t: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        labels = self.path.labels
        rows = [lab for lab in labels if lab[1] == self.k]
        cols = [lab for lab in labels if lab[0] == self.k]
        if len(rows) + len(cols) != len(labels) or labels != tuple(rows + cols):
            raise ValueError(f"not a {self.k}-Monk chain shape: {labels}")
        object.__setattr__(self, "s", len(rows))
        object.__setattr__(self, "t", len(cols))
        avals = [a for a, _ in rows]
        bvals = [b for _, b in cols]
        if avals != sorted(avals, reverse=True) or len(set(avals)) != len(avals):
            raise ValueError(f"row part not strictly decreasing: {avals}")
        if bvals != sorted(bvals, reverse=True) or len(set(bvals)) != len(bvals):
            raise ValueError(f"column part not applied in decreasing order: {bvals}")

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.path.labels

    @property
    def start(self) -> Permutation:
        return self.path.start

    @property
    def end(self) -> Permutation:
        return self.path.end

    def __repr__(self) -> str:
        return f"MonkChain(k={self.k}, {self.path.render()})"


def enumerate_monk_chains(x: Permutation, k: int) -> list[MonkChain]:
    """
    All k-Monk chains from x, including the empty one, each checked by
    `MonkChain`.  Column labels are bounded by N = max(support(x), k) + 1:
    the row part never moves values beyond position k, and the first column
    edge from a vertex in S_N-1 cannot exceed N (audited per frontier).
    """
    return _monk_walk(x, k, lambda window, labels, kinds, t, q, ell: MonkChain(
        DirectedPath(x, tuple(labels), tuple(kinds), Permutation._from_swapped(window, ell)), k
    ))


def _monk_walk(x: Permutation, k: int, record: Callable[..., object]) -> list:
    """
    record(window, labels, kinds, t, q, ell) for every k-Monk chain from x,
    in depth-first order, on the walk's own lists (module docstring; the
    window is padded to N + 1 for the audit): t counts the (k,*) labels,
    q is the packed Q-weight and ell the length of the end, carried along
    the edges as `pieri_degree_rows` carries it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bound = max(x.support, k) + 1
    qstep = _walk_tables(k, bound)[1]
    window = list(x.extended(bound + 1))
    labels: list[Label] = []
    kinds: list[EdgeKind] = []
    out = []

    def visit(last_a: int, last_b: int, t: int, q: int, ell: int) -> None:
        # a row node (last_a > 0) may start the column phase: its first column is bounded
        if last_a and _window_kind(window, k, bound + 1) is not None:
            raise AssertionError(f"ambient bound {bound} unsound: edge ({k},{bound + 1}) from {window}")
        out.append(record(window, labels, kinds, t, q, ell))
        for label in [(k, b) for b in range(last_b - 1, k, -1)] + [(a, k) for a in range(last_a - 1, 0, -1)]:
            a, b = label
            kind = _window_kind(window, a, b)
            if kind is None:
                continue
            window[a - 1], window[b - 1] = window[b - 1], window[a - 1]
            labels.append(label)
            kinds.append(kind)
            if kind is EdgeKind.QUANTUM:
                q_next, ell_next = q + qstep[label], ell + 2 * (a - b) + 1
            else:
                q_next, ell_next = q, ell + 1
            if a == k:  # a column label: the row phase is over
                visit(0, b, t + 1, q_next, ell_next)
            else:
                visit(a, bound + 1, t, q_next, ell_next)
            kinds.pop()
            labels.pop()
            window[a - 1], window[b - 1] = window[b - 1], window[a - 1]

    try:
        # k - 1 row labels, then at most one label per column k+1..N+1
        _walk_from(visit, bound, k, bound + 1, 0, 0, x.length())
    finally:
        del visit  # see `pieri_degree_rows`
    return out


# --- markings -------------------------------------------------------------

Marking = frozenset  # of Label


def _marking_parts(chain: PieriChain) -> tuple[list[Label], list[Label]]:
    """
    (forced, free): the labels every marking contains, and the other labels
    that are the first occurrence of their row, each in chain order.  (3)
    forces the initial run of one column with strictly decreasing rows, and
    (2) every non-final label that does not precede its successor.
    """
    labels = chain.labels
    run = 1
    while run < len(labels) and labels[run][1] == labels[0][1] and labels[run][0] < labels[run - 1][0]:
        run += 1
    forced: list[Label] = []
    free: list[Label] = []
    seen: set[int] = set()
    for s, label in enumerate(labels):
        if s < run or (s + 1 < len(labels) and not label_precedes(label, labels[s + 1])):
            forced.append(label)
        elif label[0] not in seen:
            free.append(label)
        seen.add(label[0])
    return forced, free


def forced_marks(chain: PieriChain) -> set[Label]:
    """Labels every marking must contain, by conditions (2) and (3)."""
    return set(_marking_parts(chain)[0])


def enumerate_markings(chain: PieriChain, p: int) -> list[Marking]:
    """
    All p-markings: the forced labels with each (p - m)-combination of the
    other first occurrences, in chain order.
    """
    forced, free = _marking_parts(chain)
    if p < len(forced):
        return []
    return [frozenset(forced) | frozenset(extra) for extra in itertools.combinations(free, p - len(forced))]


def marking_count(chain: PieriChain, p: int) -> int:
    """The number of p-markings, C(m0 - m, p - m) with m0 = #rows, m = #forced."""
    forced, free = _marking_parts(chain)
    return comb(len(free), p - len(forced)) if p >= len(forced) else 0


def is_marking(chain: PieriChain, marks: frozenset) -> bool:
    """Direct check of conditions (1)-(3); used as the enumeration oracle."""
    labels = chain.labels
    if not marks <= set(labels):
        return False
    for s, lab in enumerate(labels):
        if lab in marks:
            if any(labels[u][0] == lab[0] for u in range(s)):
                return False
        elif s < len(labels) - 1 and not label_precedes(lab, labels[s + 1]):
            return False
    for t in range(1, len(labels) + 1):
        head = labels[:t]
        if all(x[1] == head[0][1] for x in head) and all(
            head[i][0] > head[i + 1][0] for i in range(t - 1)
        ):
            if head[t - 1] not in marks:
                return False
        else:
            break
    return True



# --- every degree in one walk ---------------------------------------------

# every end that `pieri_degree_rows` or `expansion.monk_lhs_expand` has
# reached, and every window that `expansion` has read at its boundary,
# keyed by its trimmed window (the very tuple it wraps): built once
# (`_interned_end`), by the first walk to reach it with the length that
# walk carried to it, or by the boundary with its length counted; the
# walks hand on the key, and `expansion` turns a key back into this entry
# at its boundary.  `expansion.clear_caches` empties it with the rows and
# `_walk_tables`
_ends: dict[tuple[int, ...], Permutation] = {}


# the slots of a Permutation, set directly on an end the walks build: its
# key is already a trimmed window, so `Permutation._from_swapped`'s trim
# and its two `object.__setattr__` calls are spared
_SET_WINDOW = Permutation.window.__set__
_SET_LENGTH = Permutation._length.__set__


def _interned_end(key: tuple[int, ...], ell: int | None = None) -> Permutation:
    """
    The `_ends` entry of a trimmed window, built around `key` on first use
    with length ell, or with its inversions counted if ell is None.
    """
    u = _ends.get(key)
    if u is None:
        u = _ends[key] = object.__new__(Permutation)
        _SET_WINDOW(u, key)
        _SET_LENGTH(u, count_inversions(key) if ell is None else ell)
    return u


def _interned_window(window: list[int], ell: int) -> tuple[int, ...]:
    """
    The `_ends` key of a walk's padded window, trimmed, the one tuple its
    entry wraps; the entry is built with length ell if it is new.
    """
    n = len(window)
    while n and window[n - 1] == n:
        n -= 1
    return _interned_end(tuple(window[:n]), ell).window


def pieri_degree_rows(w: Permutation, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """
    Every degree p = 0..k of G[w] * G^k_p from one in-place walk over the
    k-Pieri chains from w (module docstring), with the label pool, label
    order and chains of `enumerate_pieri_chains` but no chain objects.
    A node in column b tries, in one loop, the tuple `candidates[b][mask]`
    of `_walk_tables`, mask holding the rows of its segment and, when the
    last row repeats, every row up to it (P2): the labels of column b left
    to the segment, then every label of `tail_from[b - 1]`.  So no
    candidate is a used label or breaks (P2).  The root stands in column
    N + 1, which holds no label, so it tries the whole pool.

    The terms come as three flat columns (ends, qs, codes), one term per
    chain, in the order the walk reaches them: term i is the end with
    window ends[i], packed Q-weight qs[i] and coefficient
    code_weight(k, codes[i], p) in degree p.  Nothing is merged: a reader
    sums the terms that share an (end, Q-weight), although on every grid
    measured no end repeats.  Each window is the key of the end's interned
    `_ends` entry, the tuple that entry wraps; the entry is built at the
    first visit of any walk with the length that walk carried to it.  An
    end is a swap of w's window, so it is not re-validated.  No exponent
    of a chain exceeds its length, so the packed fields never carry.

    A chain with end u, m0 distinct rows and m forced labels adds
    (-1)^(len - p) * C(m0 - m, p - m) in every degree p in m..m0, and
    (-1)^len = (-1)^(l(u) - l(w)) by the sign law (module docstring).  Its
    code is 2 * ((k + 1) * m0 + m) + (len mod 2), carried down the walk:
    every edge flips the parity bit, a row used for the first time (its bit
    clear in the mask of the chain's rows) adds 2 * (k + 1), and a forced
    label adds 2.  The first label, the one that follows the root, is
    forced by condition (3), so the root adds its 2 before its loop.
    Every later label (a,b) that follows (c,b) with c > a forces one more: the new
    label if the initial run is still unbroken (condition (3)), otherwise
    (c,b) itself (condition (2)); a label that does not descend this way
    follows its predecessor in the label order and forces nothing.  Forced
    labels are first occurrences (module docstring), so m <= m0 and no
    chain needs a feasibility check.

    >>> from qpieri.qbg import unpack_monomial
    >>> ends, qs, codes = pieri_degree_rows(Permutation.from_one_line("321"), 2)
    >>> for end, q, code in zip(ends, qs, codes):
    ...     u = _ends[end]
    ...     assert u.window is end
    ...     print(u.one_line(), u.length(), unpack_monomial(q).render(), code, weight_row(2, code))
    321 3 1 0 (1, 0, 0)
    4213 4 1 9 (0, 1, 0)
    4312 5 1 14 (0, -1, 1)
    1342 2 Q1*Q2 15 (0, 1, -1)
    1432 3 Q1*Q2 14 (0, -1, 1)
    4132 4 Q2 15 (0, 1, -1)
    1243 1 Q1*Q2 8 (0, -1, 0)
    1423 2 Q1*Q2 15 (0, 1, -1)
    4123 3 Q2 14 (0, -1, 1)
    3412 4 1 9 (0, 1, 0)
    3142 3 Q2 8 (0, -1, 0)
    1 0 Q1*Q2 9 (0, 1, 0)
    132 1 Q1*Q2 14 (0, -1, 1)
    312 2 Q2 9 (0, 1, 0)
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bound = max(w.support, k) + 1
    _assert_root_bound(w, k, bound)
    tail_from, qstep, candidates = _walk_tables(k, bound)
    # below[f]: the bits of rows 1..f, the rows a repeated row f excludes by (P2)
    below = [(2 << f) - 2 for f in range(k + 1)]
    row_step = 2 * (k + 1)
    window = list(w.extended(bound))
    interned = _ends
    new, set_window, set_length = object.__new__, _SET_WINDOW, _SET_LENGTH
    ends: list[tuple[int, ...]] = []
    qs: list[int] = []
    codes: list[int] = []

    def visit(b: int, seg: int, last_a: int, floor: int, rows: int, code: int, ell: int, q: int) -> None:
        # the chain so far ends with a label (last_a, b); seg holds the rows
        # of its b-segment, rows those of the whole chain, both as bits 1 << a
        n = bound
        while n and window[n - 1] == n:
            n -= 1
        key = tuple(window[:n])
        u = interned.get(key)
        if u is None:
            u = interned[key] = new(Permutation)
            set_window(u, key)
            set_length(u, ell)
            ends.append(key)
        else:
            ends.append(u.window)
        qs.append(q)
        codes.append(code)
        code ^= 1
        if not last_a:  # the root: the first label of a chain is forced
            code += 2
        # the labels of the b-segment not taken yet, above the floor of
        # (P2), then those of later columns, none of them taken yet
        for label in candidates[b][seg | below[floor]]:
            a, c_b = label
            # the window criterion of `edge_kind`, on the list in place: the
            # positions strictly between a and c_b hold no value in (lo, hi)
            # for a Bruhat edge, and only such values for a quantum edge
            xa, xb = window[a - 1], window[c_b - 1]
            quantum = xa > xb
            lo, hi = (xb, xa) if quantum else (xa, xb)
            for c in range(a, c_b - 1):
                if (lo < window[c] < hi) is not quantum:
                    break
            else:
                window[a - 1], window[c_b - 1] = xb, xa
                bit = 1 << a
                first = not rows & bit
                # a label of the b-segment joins it, and forces one label
                # if it descends below the last row; a later one starts a segment
                same = c_b == b
                visit(
                    c_b, seg | bit if same else bit, a, 0 if first else a, rows | bit,
                    code + row_step * first + 2 * (same and a < last_a),
                    ell + (2 * (a - c_b) + 1 if quantum else 1),
                    q + qstep[label] if quantum else q,
                )
                window[a - 1], window[c_b - 1] = xa, xb

    try:
        # the root stands in column N + 1, which holds no label of the
        # pool, so its candidates are the whole pool, tail_from[N]; a
        # chain takes each label of the pool at most once
        _walk_from(visit, len(tail_from[bound]), bound + 1, below[k], 0, 0, 0, 0, w.length(), 0)
    finally:
        # a recursive closure holds itself through its own cell; emptying
        # the cell frees the walk's scratch state by refcount, without
        # waiting for the cyclic collector
        del visit
    return tuple(ends), tuple(qs), tuple(codes)
