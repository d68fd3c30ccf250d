"""
Local rewrites, the commuting pass, and insertion/deletion: named
preconditions, worked shapes, round trips.
"""

from __future__ import annotations

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpieri.proofkit.surgery
from qpieri.permutations import Permutation, all_permutations, label_precedes
from qpieri.proofkit.surgery import (
    SurgeryError,
    algorithm_skd,
    check_insert_conditions,
    check_p_conditions,
    delete,
    insert,
    insert_many,
    local_transform,
)
from qpieri.qbg import DirectedPath, validate_path
from qpieri.verify import enumerate_surgery_paths

P = Permutation.from_one_line


def _path(w, labels):
    path = validate_path(P(w), labels)
    assert path is not None
    return path


# --- local rewrites -----------------------------------------------------------


def _two_step_paths(n, max_label, shape):
    """All (v, s, t) with (v; s, t) a directed path and (s, t) of the given shape."""
    out = []
    labels = [(a, b) for a in range(1, max_label) for b in range(a + 1, max_label + 1)]
    for v in all_permutations(n):
        for s, t in itertools.product(labels, repeat=2):
            if not shape(s, t):
                continue
            if validate_path(v, [s, t]) is not None:
                out.append((v, s, t))
    return out


def test_local_transform_case1_disjoint():
    for v, s, t in _two_step_paths(5, 6, lambda s, t: not set(s) & set(t)):
        assert local_transform(v, 1, s, t) == [(t, s)]


def test_local_transform_case2():
    def shape(s, t):
        return s[1] == t[1] and s[0] != t[0]

    for v, s, t in _two_step_paths(5, 6, shape):
        (pair,) = local_transform(v, 2, s, t)
        a, b = sorted((s[0], t[0]))
        c = s[1]
        assert pair == (((b, c), (a, b)) if s[0] == a else ((a, b), (b, c)))


def test_local_transform_case3():
    def shape(s, t):
        return s[0] == t[0] and s[1] != t[1]

    for v, s, t in _two_step_paths(5, 6, shape):
        (pair,) = local_transform(v, 3, s, t)
        a = s[0]
        b, c = sorted((s[1], t[1]))
        assert pair == (((b, c), (a, b)) if s[1] == b else ((a, b), (b, c)))


def test_local_transform_case4_at_least_one():
    def shape(s, t):
        return s[1] == t[0] or s[0] == t[1]

    for v, s, t in _two_step_paths(5, 6, shape):
        alts = local_transform(v, 4, s, t)
        assert 1 <= len(alts) <= 2
        for pair in alts:
            assert validate_path(v, list(pair)) is not None
            end = v.apply(s).apply(t)
            assert v.apply(pair[0]).apply(pair[1]) == end


def test_local_transform_rejects_bad_shape():
    v = P("321")
    with pytest.raises(ValueError):
        local_transform(v, 1, (1, 3), (1, 4))
    with pytest.raises(ValueError):
        local_transform(v, 2, (1, 3), (2, 4))


# --- insertion and deletion ---------------------------------------------------


def test_precondition_names():
    with pytest.raises(SurgeryError, match="P0'"):
        check_p_conditions(_path("321", [(3, 4)]), 2)
    with pytest.raises(SurgeryError, match="P1'"):
        check_p_conditions(_path("321", [(2, 3), (1, 4)]), 2)
    with pytest.raises(SurgeryError, match="P3'"):
        check_p_conditions(_path("321", [(1, 4)]), 2, require_p3=True)
    with pytest.raises(SurgeryError, match="C2"):
        # (2,4) appends as an edge, but lands above the existing column 3
        check_insert_conditions(_path("1", [(2, 3)]), 2, 4)
    with pytest.raises(SurgeryError, match="C1"):
        check_insert_conditions(_path("321", []), 2, 2)


def test_insert_trivial_empty_row_segment():
    # no (*,k)-run: the label lands right after its column segment
    path = _path("321", [(1, 4)])
    out = insert(path, 2, 3)
    assert out.commuted
    assert out.path.labels == ((1, 4), (2, 3))


def test_insert_commuting_shape():
    # (1,2) run pushed to column 3 behind the inserted label
    path = _path("132", [(1, 2)])
    out = insert(path, 2, 3)
    assert not out.commuted or out.path.labels[0] == (2, 3)
    if not out.commuted:
        assert out.path.labels == ((1, 3), (1, 2))
        assert all(a != 2 for a, _ in out.path.labels)


def test_insert_case3_keeps_no_column_label():
    # absorbed pass: no (k,*) label in the result
    path = _path("1", [(2, 3), (1, 3)])
    out = insert(path, 3, 4)
    if not out.commuted:
        assert all(a != 3 for a, _ in out.path.labels)


def test_round_trips_exhaustive_small():
    hits = {"commuted": 0, "absorbed": 0, "deleted": 0}
    for w in all_permutations(3):
        for k in (1, 2, 3):
            for path in enumerate_surgery_paths(w, k, 4):
                for d in range(k + 1, 5):
                    try:
                        step = insert(path, k, d)
                    except SurgeryError:
                        continue
                    hits["commuted" if step.commuted else "absorbed"] += 1
                    back, dd = delete(step.path, k)
                    assert (back, dd) == (path, d)
                try:
                    check_p_conditions(path, k, require_p3=True)
                except SurgeryError:
                    continue
                removed, d = delete(path, k)
                hits["deleted"] += 1
                assert insert(removed, k, d).path == path
    assert all(hits.values()), hits


def test_insert_many_requires_decreasing_columns():
    path = _path("321", [])
    with pytest.raises(SurgeryError, match="C2"):
        insert_many(path, 2, [3, 4])


# --- surgery against re-walking references -----------------------------------


def _rewalking_skd(prefix_path, segment_start, k, d):
    """
    The commuting pass validating each prefix work[:pos] from the start.
    It also pins that the two rewrites are exclusive: the pass tries the
    commuting one first, so a step where both are paths would go unseen.
    """
    if d <= k:
        raise ValueError(f"need d > k, got k={k}, d={d}")
    labels = list(prefix_path.labels)
    segment = labels[segment_start:]
    if any(b != k for _, b in segment):
        raise ValueError(f"labels from index {segment_start} must all be (*,{k})")
    if validate_path(prefix_path.start, labels + [(k, d)]) is None:
        raise ValueError("appending (k,d) does not give a directed path")
    work = labels + [(k, d)]
    u = len(segment)
    while u > 0:
        pos = segment_start + u - 1
        j_u = work[pos][0]
        v = validate_path(prefix_path.start, work[:pos]).end
        commuting = ((k, d), (j_u, d))
        absorbing = ((j_u, d), (j_u, k))
        can_commute = validate_path(v, commuting) is not None
        can_absorb = validate_path(v, absorbing) is not None
        assert not (can_commute and can_absorb), ("both rewrites are paths", prefix_path, k, d, u)
        if can_commute:
            work[pos], work[pos + 1] = commuting
            u -= 1
            continue
        assert can_absorb
        return u
    return 0


def _rewalking_insert_conditions(path, k, d):
    """`check_insert_conditions` with (C1) walked over the whole path plus (k,d)."""
    labels = path.labels
    if d <= k:
        raise SurgeryError("C1", f"need d > k, got {d}")
    if validate_path(path.start, labels + ((k, d),)) is None:
        raise SurgeryError("C1", f"appending ({k},{d}) is not a directed path")
    cols = [b for (a, b) in labels if a == k]
    if cols and d >= min(cols):
        raise SurgeryError("C2", f"d={d} not below existing columns {sorted(cols)}")
    kseg = [lab for lab in labels if lab[1] == k]
    if not cols and kseg:
        a = kseg[-1][0]
        for l in range(k + 1, d + 1):
            if (a, l) in labels:
                raise SurgeryError("C3", f"row {a} reappears in the (*,{l})-segment")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _surgery_grid():
    for w in all_permutations(4):
        for k in (1, 2, 3):
            for path in enumerate_surgery_paths(w, k, 5):
                for d in range(k + 1, 6):
                    yield path, k, d


def _skd_universe(n, k, d, max_t):
    """Inputs (path, segment_start) with a trailing (*,k)-run of length <= max_t."""
    out = []
    for w in all_permutations(n):
        runs = [[]]
        for t in range(1, max_t + 1):
            runs += [list(c) for c in itertools.permutations(range(1, k), t)]
        for run in runs:
            labels = [(j, k) for j in run]
            path = validate_path(w, labels)
            if path is None:
                continue
            if validate_path(w, labels + [(k, d)]) is None:
                continue
            out.append(path)
    return out


def _pass_inputs():
    """(path, segment_start, k, d): the surgery grid, then short (*,3)-runs from S_4 against (3,4)."""
    for path, k, d in _surgery_grid():
        yield path, len(path.labels) - sum(1 for _, b in path.labels if b == k), k, d
    for path in _skd_universe(4, 3, 4, 2):
        yield path, 0, 3, 4


def _stop_kind(outcome):
    if isinstance(outcome, int):
        return "u = 0" if outcome == 0 else "u > 0"
    return outcome[0].__name__


def test_skd_matches_the_rewalking_pass():
    kinds = collections.Counter()
    for path, seg_start, k, d in _pass_inputs():
        want = _outcome(_rewalking_skd, path, seg_start, k, d)
        got = _outcome(algorithm_skd, path, seg_start, k, d)
        assert got == want, (path, k, d)
        kinds[_stop_kind(want)] += 1
    assert set(kinds) == {"u = 0", "u > 0", "ValueError"}, kinds


def _rewritten_labels(path, segment_start, k, d, u):
    """The labels of `path` and (k,d) after the commuting pass that stopped at u."""
    prefix = path.labels[:segment_start]
    rows = [j for j, _ in path.labels[segment_start:]]
    if u == 0:
        return prefix + ((k, d),) + tuple((j, d) for j in rows)
    return (
        prefix
        + tuple((j, k) for j in rows[: u - 1])
        + ((rows[u - 1], d), (rows[u - 1], k))
        + tuple((j, d) for j in rows[u:])
    )


def test_the_stop_position_gives_a_path_to_the_same_end():
    kinds = collections.Counter()
    for path, seg_start, k, d in _pass_inputs():
        try:
            u = algorithm_skd(path, seg_start, k, d)
        except ValueError:
            continue
        rewritten = validate_path(path.start, _rewritten_labels(path, seg_start, k, d, u))
        assert rewritten is not None, (path, k, d, u)
        assert rewritten.end == path.end.apply((k, d))
        kinds[_stop_kind(u)] += 1
    assert set(kinds) == {"u = 0", "u > 0"}, kinds


def test_the_pass_commutes_through_an_empty_run():
    path = validate_path(P("321"), [(1, 4)])
    assert algorithm_skd(path, len(path.labels), 3, 4) == 0


def test_the_pass_reports_a_step_where_neither_rewrite_validates(monkeypatch):
    # one rewrite is guaranteed at every step; a step where neither is a
    # path is reported as a bug, also under `python -O`
    path = validate_path(P("321"), [(1, 3)])
    assert algorithm_skd(path, 0, 3, 4) == 1
    monkeypatch.setattr(qpieri.proofkit.surgery, "_two_step_valid", lambda win, s, t: False)
    with pytest.raises(RuntimeError, match="indicates a bug"):
        algorithm_skd(path, 0, 3, 4)


def test_insert_conditions_match_the_rewalking_check():
    names = {}
    for path, k, d in _surgery_grid():
        want = _outcome(_rewalking_insert_conditions, path, k, d)
        got = _outcome(check_insert_conditions, path, k, d)
        assert got == want, (path, k, d)
        name = None if want is None else want[1].split(":")[0]
        names[name] = names.get(name, 0) + 1
    assert set(names) == {None, "C1", "C2", "C3"}, names


# --- surgery conditions against the standalone references --------------------


def _standalone_p_conditions(path, k, require_p3=False):
    """(P0)'-(P3)' written out label by label, without the chain validator."""
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


def _surgery_path_dfs(w, k, bound):
    """Directed paths from w satisfying (P0)'-(P2)', grown label by label over their own pool."""
    pool = sorted(
        set(
            [(a, b) for a in range(1, k) for b in range(k, bound + 1) if a < b]
            + [(k, b) for b in range(k + 1, bound + 1)]
        ),
        key=lambda lab: (-lab[1], lab[0]),
    )
    out = []

    def dfs(path):
        out.append(path)
        for lab in pool:
            if path.labels and (lab[1] > path.labels[-1][1] or lab in path.labels):
                continue
            nxt = path.extend(lab)
            if nxt is None:
                continue
            try:
                _standalone_p_conditions(nxt, k)
            except SurgeryError:
                continue
            dfs(nxt)

    dfs(DirectedPath.empty(w))
    return out


def _condition(check, path, k, require_p3):
    try:
        check(path, k, require_p3)
    except SurgeryError as exc:
        return exc.condition
    return None


@pytest.mark.parametrize("n, bound, total", [(3, 4, None), (4, 5, None), (5, 5, 4980)])
def test_surgery_paths_are_the_dfs_paths(n, bound, total):
    count = 0
    for w in all_permutations(n):
        for k in (1, 2, 3):
            got = collections.Counter(enumerate_surgery_paths(w, k, bound))
            assert got == collections.Counter(_surgery_path_dfs(w, k, bound)), (w, k)
            count += sum(got.values())
    if total is not None:
        assert count == total


def _all_short_paths(start, labels, length):
    """Every directed path from `start` of at most `length` steps over `labels`."""
    frontier = [DirectedPath.empty(start)]
    for _ in range(length + 1):
        yield from frontier
        frontier = [nxt for path in frontier for lab in labels
                    if (nxt := path.extend(lab)) is not None]


def test_p_conditions_match_the_standalone_check_on_short_paths():
    labels = [(a, b) for b in range(2, 6) for a in range(1, b)]
    names = collections.Counter()
    for w in all_permutations(3):
        for path in _all_short_paths(w, labels, 3):
            for k in (1, 2, 3, 4):
                for require_p3 in (False, True):
                    want = _condition(_standalone_p_conditions, path, k, require_p3)
                    got = _condition(check_p_conditions, path, k, require_p3)
                    assert got == want, (path, k, require_p3)
                    names[want] += 1
    assert set(names) == {None, "P0'", "P1'", "P2'", "P3'"}, names


_STARTS = list(all_permutations(4)) + list(all_permutations(5))
_LABELS = [(a, b) for b in range(2, 7) for a in range(1, b)]


@st.composite
def _paths(draw):
    """A directed path from S_4 or S_5: drawn labels, each kept if it is an edge."""
    path = DirectedPath.empty(draw(st.sampled_from(_STARTS)))
    for lab in draw(st.lists(st.sampled_from(_LABELS), max_size=8)):
        path = path.extend(lab) or path
    return path


@given(_paths(), st.integers(1, 5), st.booleans())
@settings(max_examples=400, deadline=None)
def test_p_conditions_match_the_standalone_check_on_sampled_paths(path, k, require_p3):
    want = _condition(_standalone_p_conditions, path, k, require_p3)
    assert _condition(check_p_conditions, path, k, require_p3) == want
