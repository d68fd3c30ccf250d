"""
The quantum Bruhat graph on S_oo: edge classification, directed paths,
quantum weights, and the local path rewrites used throughout the chain
machinery.

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
test out inline.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

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
    # the total degree, filled on first use
    _degree: int | None = field(default=None, init=False, compare=False, hash=False, repr=False)

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
        d = self._degree
        if d is None:
            d = sum(e for _, e in self.exponents)
            object.__setattr__(self, "_degree", d)
        return d

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


def _two_step_valid(win: list[int], s: Label, t: Label) -> bool:
    """Whether (s, t) is a directed path from the vertex with window `win` (left as it is)."""
    return _walk(win.copy(), (s, t), []) is None


def local_transform(v: Permutation, case: int, s: Label, t: Label) -> list[tuple[Label, Label]]:
    """
    Local two-edge rewrites: given a directed path (v; s, t) of the shape
    required by `case`, return the replacement label pairs that themselves
    form directed paths from v with the same endpoint.

      case 1: s, t have disjoint supports          -> (t, s)
      case 2: (a,c),(b,c) -> (b,c),(a,b);  (b,c),(a,c) -> (a,b),(b,c)
      case 3: (a,b),(a,c) -> (b,c),(a,b);  (a,c),(a,b) -> (a,b),(b,c)
      case 4: (a,b),(b,c) -> (b,c),(a,c) or (a,c),(a,b)
              (b,c),(a,b) -> (a,c),(b,c) or (a,b),(a,c)
    with a < b < c throughout.  Cases 1-3 guarantee their single
    replacement; case 4 guarantees at least one of its two.
    """
    win = list(v.window)
    if not _two_step_valid(win, s, t):
        raise ValueError(f"({v!r}; {s}, {t}) is not a directed path")
    candidates = _transform_candidates(case, s, t)
    valid = [pair for pair in candidates if _two_step_valid(win, *pair)]
    if not valid:
        raise RuntimeError(
            f"local transform case {case} failed on ({v!r}; {s}, {t}): "
            "the rewrite is guaranteed, so this indicates a bug"
        )
    return valid


def _transform_candidates(case: int, s: Label, t: Label) -> list[tuple[Label, Label]]:
    if case == 1:
        if set(s) & set(t):
            raise ValueError(f"case 1 needs disjoint supports, got {s}, {t}")
        return [(t, s)]
    if case == 2:
        if s[1] == t[1] and s[0] != t[0]:
            a, b = sorted((s[0], t[0]))
            c = s[1]
            if s[0] == a:  # (a,c),(b,c) -> (b,c),(a,b)
                return [((b, c), (a, b))]
            return [((a, b), (b, c))]  # (b,c),(a,c) -> (a,b),(b,c)
        raise ValueError(f"case 2 needs (a,c),(b,c) or (b,c),(a,c), got {s}, {t}")
    if case == 3:
        if s[0] == t[0] and s[1] != t[1]:
            a = s[0]
            b, c = sorted((s[1], t[1]))
            if s[1] == b:  # (a,b),(a,c) -> (b,c),(a,b)
                return [((b, c), (a, b))]
            return [((a, b), (b, c))]  # (a,c),(a,b) -> (a,b),(b,c)
        raise ValueError(f"case 3 needs (a,b),(a,c) or (a,c),(a,b), got {s}, {t}")
    if case == 4:
        if s[1] == t[0]:  # (a,b),(b,c)
            a, b = s
            c = t[1]
            return [((b, c), (a, c)), ((a, c), (a, b))]
        if s[0] == t[1]:  # (b,c),(a,b)
            b, c = s
            a = t[0]
            return [((a, c), (b, c)), ((a, b), (a, c))]
        raise ValueError(f"case 4 needs (a,b),(b,c) or (b,c),(a,b), got {s}, {t}")
    raise ValueError(f"case must be 1..4, got {case}")


@dataclass(frozen=True)
class SkdOutcome:
    """
    Result of the commuting pass that pushes an appended column edge (k,d)
    leftward through a trailing run of (j,k) labels.

    kind 'IIA': the (k,d) label commuted all the way through, ending in
        ( ..., (k,d), (j_1,d), ..., (j_t,d) ).
    kind 'IIB': the pass stopped at position u (1-based within the run),
        ending in ( ..., (j_1,k), ..., (j_{u-1},k), (j_u,d), (j_u,k),
        (j_{u+1},d), ..., (j_t,d) ); the appended label was absorbed.

    `ambiguous_steps` records run positions where both rewrite shapes were
    simultaneously valid (the pass still takes the commuting one).
    """

    kind: str
    u: int
    path: DirectedPath
    ambiguous_steps: tuple[int, ...]


def algorithm_skd(prefix_path: DirectedPath, segment_start: int, k: int, d: int) -> SkdOutcome:
    """
    Run the rewrite pass on `prefix_path` (whose labels from index
    `segment_start` on are exactly (j_1,k), ..., (j_t,k)) extended by (k,d).

    Deterministic: at each step the commuting rewrite (j_u,k),(k,d) ->
    (k,d),(j_u,d) is preferred when valid; otherwise the absorbing rewrite
    (j_u,k),(k,d) -> (j_u,d),(j_u,k) must validate and ends the pass.
    """
    if d <= k:
        raise ValueError(f"need d > k, got k={k}, d={d}")
    labels = list(prefix_path.labels)
    segment = labels[segment_start:]
    if any(b != k for _, b in segment):
        raise ValueError(f"labels from index {segment_start} must all be (*,{k})")
    t = len(segment)
    if edge_kind(prefix_path.end, (k, d)) is None:
        raise ValueError("appending (k,d) does not give a directed path")

    work = labels + [(k, d)]
    # the vertex before run position u, read by undoing labels from the end:
    # the pass rewrites only positions pos, pos+1 while moving left, so
    # work[:pos] stays labels[:pos]
    v = list(prefix_path.end.extended(d))
    ambiguous: list[int] = []
    u = t
    while u > 0:
        # window (j_u,k),(k,d) sits at positions pos, pos+1
        pos = segment_start + u - 1
        j_u = labels[pos][0]
        v[j_u - 1], v[k - 1] = v[k - 1], v[j_u - 1]
        commuting, absorbing = _transform_candidates(4, (j_u, k), (k, d))
        can_commute = _two_step_valid(v, *commuting)
        can_absorb = _two_step_valid(v, *absorbing)
        if can_commute and can_absorb:
            ambiguous.append(u)
        if can_commute:
            work[pos], work[pos + 1] = commuting
            u -= 1
            continue
        if not can_absorb:
            raise RuntimeError(
                f"neither rewrite validates at run position {u}: "
                "one alternative is guaranteed to validate, so this indicates a bug"
            )
        work[pos], work[pos + 1] = absorbing
        return SkdOutcome("IIB", u, _rewritten(prefix_path.start, work), tuple(ambiguous))
    return SkdOutcome("IIA", 0, _rewritten(prefix_path.start, work), tuple(ambiguous))


def _rewritten(start: Permutation, work: list[Label]) -> DirectedPath:
    path = validate_path(start, work)
    if path is None:
        raise RuntimeError(
            "the rewritten path is not a directed path: the rewrites are guaranteed, "
            "so this indicates a bug"
        )
    return path
