"""
Insertion and deletion: mutually inverse surgeries that move a column
label (k,d) into and out of a chain.

Both operate on directed paths whose labels live in rows <= k with columns
>= k.  The path conditions (P0)'-(P2)' are the chain conditions (P0)-(P2)
of `qpieri.chains` at one level, fixed by the path itself:

  (P0)'-(P2)'  the path is a k-Pieri chain if it has a (k,*) label, and a
               (k-1)-Pieri chain otherwise;

    >>> from qpieri.permutations import Permutation
    >>> from qpieri.qbg import validate_path
    >>> def failed(labels, k=2):
    ...     try:
    ...         check_p_conditions(validate_path(Permutation.from_one_line("321"), labels), k)
    ...     except SurgeryError as exc:
    ...         return exc.condition
    ...     return "ok"
    >>> failed([(1, 4), (1, 2)]), failed([(1, 4), (2, 3)]), failed([(2, 4), (1, 2)])
    ('ok', 'ok', "P0'")

  (the first path is a 1-Pieri chain, the second a 2-Pieri chain; the
  third has the (2,*) label (2,4), so its (1,2) breaks (P0) at level 2)

and, for deletion only,

  (P3)'  if there is no (k,*) label, the final label is (a,k) with the row
         a occurring at least twice.

Insertion of (k,d) requires
  (C1)  appending (k,d) at the end gives a directed path,
  (C2)  d is below every existing (k,*) column,
  (C3)  if there is no (k,*) label and the (*,k)-segment is nonempty, the
        row of its final label occurs in no (*,l)-segment with k < l <= d.

The insertion runs the commuting pass (`algorithm_skd`) on the
(*,k)-segment against (k,d).  The pass returns its stop position u: 0 when
(k,d) commutes through the whole segment, else the segment position where
the absorbing rewrite ends it.  The insertion then relocates the segment
next to the (*,d)-segment as u says.  The input is a `DirectedPath`, so
nothing it already holds is walked again: (C1) is one edge test from its
end, and the pass reads the vertices before the run positions from one
walk back along the path.  Each relocated result is walked once from the
start; the local rewrite rules (`local_transform`) guarantee it, so a
failure there is a bug, not a data condition.

`segment(labels, col)` reads a (*,col)-segment off any path's labels.  It
is the proof kit's one reader of a column segment: `classify` and
`bijections` read theirs here, and every other fact of a chain's shape
straight from its labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chains import pieri_violation
from ..permutations import Label, Permutation
from ..qbg import DirectedPath, _walk, edge_kind, validate_path


class SurgeryError(ValueError):
    """A precondition of insert/delete failed; carries the condition name."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


def _violation(labels: tuple[Label, ...], k: int) -> tuple[str, str] | None:
    """`pieri_violation` at the level of (P0)'-(P2)': k with a (k,*) label, else k-1."""
    return pieri_violation(labels, k if any(a == k for a, _ in labels) else k - 1)


def check_p_conditions(path: DirectedPath, k: int, require_p3: bool = False) -> None:
    """Raise SurgeryError naming the first failed condition among (P0)'-(P3)'."""
    labels = path.labels
    problem = _violation(labels, k)
    if problem is not None:
        condition, message = problem
        raise SurgeryError(condition + "'", message)
    if require_p3 and all(a != k for a, _ in labels):
        if not labels or labels[-1][1] != k:
            raise SurgeryError("P3'", "no (k,*) label and final label is not (a,k)")
        a = labels[-1][0]
        if sum(1 for x, _ in labels if x == a) < 2:
            raise SurgeryError("P3'", f"final row {a} occurs only once")


def segment(labels: tuple[Label, ...], col: int) -> tuple[Label, ...]:
    """
    The (*,col)-segment: the labels of column `col`, in path order.  The
    proof kit reads every column segment here.  On a path with weakly
    decreasing columns, a chain's by (P1), they are one contiguous run.
    """
    return tuple([lab for lab in labels if lab[1] == col])


def check_insert_conditions(path: DirectedPath, k: int, d: int) -> None:
    labels = path.labels
    if d <= k:
        raise SurgeryError("C1", f"need d > k, got {d}")
    if edge_kind(path.end, (k, d)) is None:
        raise SurgeryError("C1", f"appending ({k},{d}) is not a directed path")
    cols = [b for (a, b) in labels if a == k]
    if cols and d >= min(cols):
        raise SurgeryError("C2", f"d={d} not below existing columns {sorted(cols)}")
    kseg = segment(labels, k)
    if not cols and kseg:
        a = kseg[-1][0]
        for l in range(k + 1, d + 1):
            if (a, l) in labels:
                raise SurgeryError("C3", f"row {a} reappears in the (*,{l})-segment")


# --- local rewrites and the commuting pass -----------------------------------


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


def algorithm_skd(prefix_path: DirectedPath, segment_start: int, k: int, d: int) -> int:
    """
    The commuting pass: push (k,d), appended to `prefix_path`, leftward
    through the run (j_1,k), ..., (j_t,k) that its labels from index
    `segment_start` on must be, and return the stop position u.

    At run position u the commuting rewrite (j_u,k),(k,d) -> (k,d),(j_u,d)
    is taken when it is a path; otherwise the absorbing rewrite
    (j_u,k),(k,d) -> (j_u,d),(j_u,k) must be one, and it ends the pass.
      u = 0: (k,d) commuted through the whole run, and the rewritten path
             ends ( ..., (k,d), (j_1,d), ..., (j_t,d) );
      u > 0: the pass stopped at u (1-based), and the rewritten path ends
             ( ..., (j_1,k), ..., (j_{u-1},k), (j_u,d), (j_u,k),
             (j_{u+1},d), ..., (j_t,d) ).
    """
    if d <= k:
        raise ValueError(f"need d > k, got k={k}, d={d}")
    labels = prefix_path.labels
    if any(b != k for _, b in labels[segment_start:]):
        raise ValueError(f"labels from index {segment_start} must all be (*,{k})")
    if edge_kind(prefix_path.end, (k, d)) is None:
        raise ValueError("appending (k,d) does not give a directed path")
    # the vertex before run position u, read by undoing labels from the end:
    # every rewrite taken so far lies after position u, so the labels before
    # it are still those of `prefix_path`
    v = list(prefix_path.end.extended(d))
    for u in range(len(labels) - segment_start, 0, -1):
        j_u = labels[segment_start + u - 1][0]
        v[j_u - 1], v[k - 1] = v[k - 1], v[j_u - 1]
        commuting, absorbing = _transform_candidates(4, (j_u, k), (k, d))
        if _two_step_valid(v, *commuting):
            continue
        if not _two_step_valid(v, *absorbing):
            raise RuntimeError(
                f"neither rewrite validates at run position {u}: "
                "one alternative is guaranteed to validate, so this indicates a bug"
            )
        return u
    return 0


@dataclass(frozen=True)
class InsertResult:
    path: DirectedPath
    commuted: bool  # True when the commuting pass stopped at u = 0


def insert(path: DirectedPath, k: int, d: int) -> InsertResult:
    """
    The path with (k,d) inserted.  When the commuting pass commutes through
    (u = 0, 'commuted'), the result keeps (k,d) at the end of its
    (*,d)-segment and moves the old (*,k)-segment, re-rowed to d, after it;
    when it absorbs at position u > 0, the (*,k)-suffix from u moves to
    column d and the label (i_u, k) stays behind as the new final label.
    """
    check_p_conditions(path, k)
    check_insert_conditions(path, k, d)
    labels = path.labels
    kseg = segment(labels, k)
    seg_start = len(labels) - len(kseg)
    u = algorithm_skd(path, seg_start, k, d)

    high = [lab for lab in labels if lab[1] >= d]
    mid = [lab for lab in labels if k < lab[1] < d]
    n_col_before = sum(1 for a, _ in labels if a == k)
    if u == 0:
        new_labels = high + [(k, d)] + [(i, d) for i, _ in kseg] + mid
        result = validate_path(path.start, tuple(new_labels))
        _require(result is not None, "relocation after the commuting pass")
        _require(_violation(result.labels, k) is None, "(P0)'-(P2)' after commuting insert")
        _require(not segment(result.labels, k), "no (*,k) labels after commuting insert")
        n_col_after = sum(1 for a, _ in result.labels if a == k)
        _require(n_col_after == n_col_before + 1, "column count after commuting insert")
        return InsertResult(result, True)

    moved = [(i, d) for i, _ in kseg[u - 1 :]]
    kept = [(i, k) for i, _ in kseg[:u]]
    new_labels = high + moved + mid + kept
    result = validate_path(path.start, tuple(new_labels))
    _require(result is not None, "relocation after the absorbing pass")
    _require(_violation(result.labels, k) is None, "(P0)'-(P2)' after absorbing insert")
    _require(all(a != k for a, _ in result.labels), "no (k,*) label after absorbing insert")
    return InsertResult(result, False)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"guaranteed step failed ({what}): this indicates a bug")


def delete(path: DirectedPath, k: int) -> tuple[DirectedPath, int]:
    """
    Remove the least movable column label (r,d) and return (new path, d):
    r is k when a (k,*) label is present, else the row a of the final label
    (a,k) that (P3)' names, and d is the least column above k in row r.
    The (*,d)-labels after (r,d) move back to column k, at the end.
    """
    check_p_conditions(path, k, require_p3=True)
    labels = path.labels
    # every label of a (P0)'-(P2)' path has column >= k, so one move serves both rows
    row = k if any(a == k for a, _ in labels) else labels[-1][0]
    d = min(b for a, b in labels if a == row and b > k)
    dseg = segment(labels, d)
    pos = dseg.index((row, d))
    new_labels = (
        *(lab for lab in labels if lab[1] > d),
        *dseg[:pos],
        *(lab for lab in labels if lab[1] < d),
        *((i, k) for i, _ in dseg[pos + 1 :]),
    )
    result = validate_path(path.start, new_labels)
    _require(result is not None, "relocation during deletion")
    _require(_violation(result.labels, k) is None, "(P0)'-(P2)' after deletion")
    return result, d


def insert_many(path: DirectedPath, k: int, columns: list[int]) -> tuple[DirectedPath, list[InsertResult]]:
    """Insert (k,d) for each d in `columns` (which must be decreasing)."""
    if columns != sorted(columns, reverse=True):
        raise SurgeryError("C2", f"insertion columns must decrease, got {columns}")
    steps = []
    for d in columns:
        step = insert(path, k, d)
        steps.append(step)
        path = step.path
    return path, steps
