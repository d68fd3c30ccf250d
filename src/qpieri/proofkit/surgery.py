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

The insertion runs the rewrite pass on the (*,k)-segment against (k,d) and
then relocates the rewritten block next to the (*,d)-segment.  The input
is a `DirectedPath`, so nothing it already holds is walked again: (C1) is
one edge test from its end, and the pass reads the vertices before the
run positions from one walk back along the path.  Each relocated result
is walked once from the start; the local rewrite rules guarantee it, so
a failure there is a bug, not a data condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chains import pieri_violation
from ..permutations import Label
from ..qbg import DirectedPath, algorithm_skd, edge_kind, validate_path


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


def _segment(labels: tuple[Label, ...], col: int) -> list[Label]:
    return [lab for lab in labels if lab[1] == col]


def check_insert_conditions(path: DirectedPath, k: int, d: int) -> None:
    labels = path.labels
    if d <= k:
        raise SurgeryError("C1", f"need d > k, got {d}")
    if edge_kind(path.end, (k, d)) is None:
        raise SurgeryError("C1", f"appending ({k},{d}) is not a directed path")
    cols = [b for (a, b) in labels if a == k]
    if cols and d >= min(cols):
        raise SurgeryError("C2", f"d={d} not below existing columns {sorted(cols)}")
    kseg = _segment(labels, k)
    if not cols and kseg:
        a = kseg[-1][0]
        for l in range(k + 1, d + 1):
            if any(lab == (a, l) for lab in _segment(labels, l)):
                raise SurgeryError("C3", f"row {a} reappears in the (*,{l})-segment")


@dataclass(frozen=True)
class InsertResult:
    path: DirectedPath
    commuted: bool  # True when the rewrite pass commuted (k,d) fully through


def insert(path: DirectedPath, k: int, d: int) -> InsertResult:
    """
    The path with (k,d) inserted.  When the rewrite pass commutes through
    ('commuted'), the result keeps (k,d) at the end of its (*,d)-segment
    and moves the old (*,k)-segment, re-rowed to d, after it; when it
    absorbs at position t, the (*,k)-suffix from t moves to column d and
    the label (i_t, k) stays behind as the new final label.
    """
    check_p_conditions(path, k)
    check_insert_conditions(path, k, d)
    labels = path.labels
    kseg = _segment(labels, k)
    seg_start = len(labels) - len(kseg)
    outcome = algorithm_skd(path, seg_start, k, d)

    high = [lab for lab in labels if lab[1] >= d]
    mid = [lab for lab in labels if k < lab[1] < d]
    n_col_before = sum(1 for a, _ in labels if a == k)
    if outcome.kind == "IIA":
        new_labels = high + [(k, d)] + [(i, d) for i, _ in kseg] + mid
        result = validate_path(path.start, tuple(new_labels))
        _require(result is not None, "relocation after the commuting pass")
        _require(_violation(result.labels, k) is None, "(P0)'-(P2)' after commuting insert")
        _require(not _segment(result.labels, k), "no (*,k) labels after commuting insert")
        n_col_after = sum(1 for a, _ in result.labels if a == k)
        _require(n_col_after == n_col_before + 1, "column count after commuting insert")
        return InsertResult(result, True)

    t = outcome.u
    moved = [(i, d) for i, _ in kseg[t - 1 :]]
    kept = [(i, k) for i, _ in kseg[:t]]
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
    dseg = _segment(labels, d)
    pos = dseg.index((row, d))
    new_labels = (
        [lab for lab in labels if lab[1] > d]
        + dseg[:pos]
        + [lab for lab in labels if lab[1] < d]
        + [(i, k) for i, _ in dseg[pos + 1 :]]
    )
    result = validate_path(path.start, tuple(new_labels))
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
