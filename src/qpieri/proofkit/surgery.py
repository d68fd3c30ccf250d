"""
Insertion and deletion: mutually inverse surgeries that move a column
label (k,d) into and out of a chain.

Both operate on directed paths whose labels live in rows <= k with columns
>= k, subject to:

  (P0)'  labels distinct, each either (a,b) with a <= k-1 < b or (a,k) with
         a <= k-1 or (k,b) with b > k; if any (k,*) label is present there
         is no (*,k) label;
  (P1)'  columns weakly decreasing;
  (P2)'  a non-final label whose row occurred strictly earlier precedes its
         successor in the label order;

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

from ..permutations import Label, label_precedes
from ..qbg import DirectedPath, algorithm_skd, edge_kind, validate_path


class SurgeryError(ValueError):
    """A precondition of insert/delete failed; carries the condition name."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


def check_p_conditions(path: DirectedPath, k: int, require_p3: bool = False) -> None:
    """Raise SurgeryError naming the first failed condition among (P0)'-(P3)'."""
    labels = path.labels
    seen = set()
    has_col = False
    has_row = False
    for a, b in labels:
        ok = (a <= k - 1 and b >= k) or (a == k and b > k)
        if not ok:
            raise SurgeryError("P0'", f"label ({a},{b}) outside rows <= {k} columns >= {k}")
        if (a, b) in seen:
            raise SurgeryError("P0'", f"label ({a},{b}) repeats")
        seen.add((a, b))
        has_col |= a == k
        has_row |= b == k
    if has_col and has_row:
        raise SurgeryError("P0'", "(k,*) and (*,k) labels both present")
    for i in range(len(labels) - 1):
        if labels[i][1] < labels[i + 1][1]:
            raise SurgeryError("P1'", f"columns increase at index {i}")
    if len(labels) >= 3:
        rows_before = {labels[0][0]}
        for s in range(1, len(labels) - 1):
            if labels[s][0] in rows_before and not label_precedes(labels[s], labels[s + 1]):
                raise SurgeryError("P2'", f"repeated row misordered at index {s}")
            rows_before.add(labels[s][0])
    if require_p3 and not has_col:
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
    stop: int  # absorbing stop position within the (*,k)-segment (0 if commuted)


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
        check_p_conditions(result, k)
        _require(not _segment(result.labels, k), "no (*,k) labels after commuting insert")
        n_col_after = sum(1 for a, _ in result.labels if a == k)
        _require(n_col_after == n_col_before + 1, "column count after commuting insert")
        return InsertResult(result, True, 0)

    t = outcome.u
    moved = [(i, d) for i, _ in kseg[t - 1 :]]
    kept = [(i, k) for i, _ in kseg[:t]]
    new_labels = high + moved + mid + kept
    result = validate_path(path.start, tuple(new_labels))
    _require(result is not None, "relocation after the absorbing pass")
    check_p_conditions(result, k)
    _require(all(a != k for a, _ in result.labels), "no (k,*) label after absorbing insert")
    return InsertResult(result, False, t)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"guaranteed step failed ({what}): this indicates a bug")


def delete(path: DirectedPath, k: int) -> tuple[DirectedPath, int]:
    """
    Remove the least movable column label and return (new path, its column d):
    with (k,*) labels present, d is the least such column and the block
    ((k,d), trailing (*,d)-run) moves back to rows; otherwise (P3)' names the
    final label (a,k) and d is the least column above k where row a recurs.
    """
    check_p_conditions(path, k, require_p3=True)
    labels = path.labels
    cols = sorted(b for (a, b) in labels if a == k)
    if cols:
        d = cols[0]
        dseg = _segment(labels, d)
        pos = dseg.index((k, d))
        tail = dseg[pos + 1 :]
        head = dseg[:pos]
        new_labels = (
            [lab for lab in labels if lab[1] > d]
            + head
            + [lab for lab in labels if lab[1] < d]
            + [(i, k) for i, _ in tail]
        )
    else:
        a = labels[-1][0]
        ds = sorted(b for (x, b) in labels if x == a and b > k)
        d = ds[0]
        dseg = _segment(labels, d)
        pos = dseg.index((a, d))
        tail = dseg[pos + 1 :]
        head = dseg[:pos]
        new_labels = (
            [lab for lab in labels if lab[1] > d]
            + head
            + [lab for lab in labels if k <= lab[1] < d]
            + [(i, k) for i, _ in tail]
        )
    result = validate_path(path.start, tuple(new_labels))
    _require(result is not None, "relocation during deletion")
    check_p_conditions(result, k)
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
