"""
The quantum Bruhat graph on S_oo: edge classification, directed paths,
quantum weights and their packed form.

Vertices are permutations; there is an edge x --(a,b)--> x*(a,b) when
either ell(x*(a,b)) = ell(x) + 1 (a Bruhat edge) or
ell(x*(a,b)) = ell(x) - 2(b-a) + 1 (a quantum edge).  Edge existence is
decided by the window criterion

  Bruhat:  x(a) < x(b) and no x(c) in [x(a), x(b)] for a < c < b,
  quantum: x(a) > x(b) and every x(c) in [x(b), x(a)] for a < c < b,

which is O(b-a); the length-delta form is kept alongside as an
independent oracle.  A quantum edge (a,b) contributes Q_a Q_{a+1} ... Q_{b-1}
to the weight of a path; Bruhat edges contribute 1.

A label sequence is checked by walking it on one window list: each label
is tested against the list and its two entries are swapped in place, and
only the end vertex is built as a `Permutation` (`validate_path` and
`first_invalid_index`; `DirectedPath.extend` re-validates its labels plus
one through `validate_path`).  This walk, `edge_kind` and the chain walks
of `chains` call the one test of the criterion above, `_window_kind`,
except the hot loop of `chains.pieri_degree_rows`, which writes the same
test out once, inline in its one candidate loop.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .permutations import Label, Permutation, count_inversions


class EdgeKind(enum.Enum):
    BRUHAT = "B"
    QUANTUM = "Q"

    @property
    def symbol(self) -> str:
        return self.value


def edge_kind(x: Permutation, label: Label) -> EdgeKind | None:
    """
    Kind of the edge x --(a,b)--> x*(a,b), or None if there is no edge.

    >>> from .permutations import Permutation
    >>> edge_kind(Permutation.from_one_line("321"), (1, 3)).symbol
    'Q'
    >>> edge_kind(Permutation.from_one_line("321"), (1, 4)).symbol
    'B'
    """
    a, b = label
    if not 1 <= a < b:
        raise ValueError(f"bad transposition {label}")
    win = x.window
    if b > len(win):
        win = x.extended(b)
    return _window_kind(win, a, b)


def _window_kind(win: Sequence[int], a: int, b: int) -> EdgeKind | None:
    """The window criterion for the edge (a,b), 1 <= a < b <= len(win)."""
    xa, xb = win[a - 1], win[b - 1]
    if xa < xb:
        for c in range(a, b - 1):
            if xa < win[c] < xb:
                return None
        return EdgeKind.BRUHAT
    for c in range(a, b - 1):
        if not xb < win[c] < xa:
            return None
    return EdgeKind.QUANTUM


def _walk(win: list[int], labels: Iterable[Label], kinds: list[EdgeKind]) -> int | None:
    """
    Walk `labels` from the vertex whose window is `win`, in place: pad
    `win` with fixed points as far as each label needs, append the label's
    edge kind to `kinds` and swap its two entries.  Returns the index of
    the first label that is not an edge (`win` then holds the vertex
    before it), or None.  A bad label raises ValueError when reached.
    """
    for i, label in enumerate(labels):
        a, b = label
        if not 1 <= a < b:
            raise ValueError(f"bad transposition {label}")
        if b > len(win):
            win.extend(range(len(win) + 1, b + 1))
        kind = _window_kind(win, a, b)
        if kind is None:
            return i
        kinds.append(kind)
        win[a - 1], win[b - 1] = win[b - 1], win[a - 1]
    return None


def edge_kind_by_length(x: Permutation, label: Label) -> EdgeKind | None:
    """Defining form via length deltas; independent oracle for `edge_kind`."""
    a, b = label
    if not 1 <= a < b:
        raise ValueError(f"bad transposition {label}")
    values = list(x.extended(b))
    values[a - 1], values[b - 1] = values[b - 1], values[a - 1]
    delta = count_inversions(values) - x.length()
    if delta == 1:
        return EdgeKind.BRUHAT
    if delta == -2 * (b - a) + 1:
        return EdgeKind.QUANTUM
    return None


@dataclass(frozen=True, slots=True)
class QMonomial:
    """A monomial in Q_1, Q_2, ...; exponents stored sparsely, no zeros."""

    exponents: tuple[tuple[int, int], ...] = ()

    @classmethod
    def one(cls) -> QMonomial:
        return cls(())

    @classmethod
    def from_dict(cls, exps: dict[int, int]) -> QMonomial:
        items = tuple(sorted((v, e) for v, e in exps.items() if e))
        if any(e < 0 or v < 1 for v, e in items):
            raise ValueError(f"bad exponents {exps}")
        return cls(items)

    @classmethod
    def q_range(cls, a: int, b: int) -> QMonomial:
        """Q_a Q_{a+1} ... Q_{b-1}, the weight of a quantum edge (a,b)."""
        return cls(tuple((v, 1) for v in range(a, b)))

    @classmethod
    def variable(cls, i: int, power: int = 1) -> QMonomial:
        return cls.from_dict({i: power})

    def __mul__(self, other: QMonomial) -> QMonomial:
        # both factors are valid, so the merged exponents need no re-check
        if not other.exponents:
            return self
        if not self.exponents:
            return other
        exps = dict(self.exponents)
        for v, e in other.exponents:
            exps[v] = exps.get(v, 0) + e
        return QMonomial(tuple(sorted(exps.items())))

    def is_one(self) -> bool:
        return not self.exponents

    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def sort_key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return (self.degree(), self.exponents)

    def render(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for v, e in self.exponents:
            parts.append(f"Q{v}" if e == 1 else f"Q{v}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"QMonomial({self.render()})"


# --- packed monomials -----------------------------------------------------
#
# Inside the product engine a monomial is one int: the exponent of Q_v sits
# in bits Q_STRIDE*(v-1) .. Q_STRIDE*v - 1, so multiplying monomials adds
# ints.  Packing accepts Q_1 .. Q_{Q_VARIABLES} and exponents below
# 2^(Q_STRIDE-1); `Q_HIGH_BITS` holds the top bit of every field, the bit a
# product sets when an exponent outgrows that bound (`expansion` docstring).

Q_STRIDE = 32
Q_VARIABLES = 1024
Q_EXPONENT_LIMIT = 1 << (Q_STRIDE - 1)
_FIELD = (1 << Q_STRIDE) - 1
Q_HIGH_BITS = ((1 << (Q_STRIDE * Q_VARIABLES)) - 1) // _FIELD * Q_EXPONENT_LIMIT


def pack_monomial(mono: QMonomial) -> int:
    """
    The packed int of a monomial; 0 is the monomial 1.

    >>> pack_monomial(QMonomial.from_dict({1: 2, 3: 1})) == 2 + (1 << 64)
    True
    """
    key = 0
    last = 0
    for v, e in mono.exponents:
        if not last < v <= Q_VARIABLES:
            raise ValueError(f"cannot pack {mono!r}: variables must increase within Q1..Q{Q_VARIABLES}")
        if not 0 < e < Q_EXPONENT_LIMIT:
            raise ValueError(f"cannot pack {mono!r}: exponents must lie in 1..{Q_EXPONENT_LIMIT - 1}")
        key |= e << (Q_STRIDE * (v - 1))
        last = v
    return key


def unpack_monomial(key: int) -> QMonomial:
    """The monomial of a packed int; inverse of `pack_monomial`."""
    exps = []
    v = 1
    while key:
        e = key & _FIELD
        if e:
            exps.append((v, e))
        key >>= Q_STRIDE
        v += 1
    return QMonomial(tuple(exps))


@dataclass(frozen=True)
class DirectedPath:
    """
    A directed path in the quantum Bruhat graph: a start vertex and a
    label sequence in which every step is an edge.  Edge kinds and the
    end vertex are fixed by the data and cached on construction.
    """

    start: Permutation
    labels: tuple[Label, ...]
    kinds: tuple[EdgeKind, ...]
    end: Permutation

    @classmethod
    def empty(cls, start: Permutation) -> DirectedPath:
        return cls(start, (), (), start)

    def __len__(self) -> int:
        return len(self.labels)

    def extend(self, label: Label) -> DirectedPath | None:
        """The path with one more edge, or None if the step is not an edge."""
        return validate_path(self.start, self.labels + (label,))

    def render(self) -> str:
        """Display text: '(321 ; (1,4)_B, (2,3)_Q)'."""
        return format_path(self.start.one_line(), self.labels, [kind.symbol for kind in self.kinds])

    def to_record(self) -> dict:
        """Flat machine form: start, labels, kinds, end, quantum weight."""
        return {
            "start": self.start.one_line(),
            "labels": [list(lab) for lab in self.labels],
            "kinds": [kind.symbol for kind in self.kinds],
            "end": self.end.one_line(),
            "qweight": [list(ve) for ve in q_weight(self).exponents],
        }

    def __repr__(self) -> str:
        return f"DirectedPath{self.render()}"


def format_path(start: str, labels, symbols) -> str:
    """
    The one text form of a path: its start in one-line notation, then each
    label with its kind symbol ("B" or "Q"), or '-' for the empty path.

    >>> format_path("321", [(1, 4), (2, 3)], "BQ")
    '(321 ; (1,4)_B, (2,3)_Q)'
    """
    body = ", ".join(f"({a},{b})_{symbol}" for (a, b), symbol in zip(labels, symbols))
    return f"({start} ; {body or '-'})"


def validate_path(start: Permutation, labels: list[Label] | tuple[Label, ...]) -> DirectedPath | None:
    """The DirectedPath with the given data, or None at the first non-edge."""
    labels = tuple(labels)
    win = list(start.window)
    kinds: list[EdgeKind] = []
    if _walk(win, labels, kinds) is not None:
        return None
    return DirectedPath(start, labels, tuple(kinds), Permutation._from_swapped(win))


def first_invalid_index(start: Permutation, labels: list[Label] | tuple[Label, ...]) -> int | None:
    """Index (0-based) of the first step that is not an edge, or None."""
    return _walk(list(start.window), labels, [])


def q_weight(path: DirectedPath) -> QMonomial:
    """Product of Q_a...Q_{b-1} over the quantum edges (a,b) of the path."""
    exps: dict[int, int] = {}
    for (a, b), kind in zip(path.labels, path.kinds):
        if kind is EdgeKind.QUANTUM:
            for v in range(a, b):
                exps[v] = exps.get(v, 0) + 1
    return QMonomial(tuple(sorted(exps.items())))
