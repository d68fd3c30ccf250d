"""Edge classification, path validation, weights, and the local rewrites."""

from __future__ import annotations

import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpieri.qbg
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import (
    DirectedPath,
    EdgeKind,
    QMonomial,
    algorithm_skd,
    edge_kind,
    edge_kind_by_length,
    first_invalid_index,
    local_transform,
    q_weight,
    validate_path,
)

P = Permutation.from_one_line


def test_doctests():
    failures, _ = doctest.testmod(qpieri.qbg)
    assert failures == 0


def test_edge_kind_examples():
    assert edge_kind(P("321"), (1, 3)) is EdgeKind.QUANTUM
    assert edge_kind(P("321"), (1, 4)) is EdgeKind.BRUHAT
    assert edge_kind(P("32514"), (3, 6)) is EdgeKind.BRUHAT
    assert edge_kind(Permutation.identity(), (1, 3)) is None


def test_validate_path_examples():
    path = validate_path(P("321"), [(1, 4), (2, 4), (1, 3), (2, 3)])
    assert path is not None
    assert [k.symbol for k in path.kinds] == ["B", "B", "Q", "B"]
    assert path.end == P("1432")

    empty = validate_path(P("321"), [])
    assert empty is not None and empty.end == P("321") and len(empty) == 0

    assert validate_path(P("321"), [(1, 3), (1, 3)]) is None
    assert first_invalid_index(P("321"), [(1, 3), (1, 3)]) == 1


def test_q_weight_examples():
    w = P("321")
    path = validate_path(w, [(1, 4), (2, 4), (2, 3)])
    assert q_weight(path) == QMonomial.variable(2)
    path = validate_path(w, [(1, 4), (2, 4), (1, 3)])
    assert q_weight(path) == QMonomial.q_range(1, 3)
    bruhat_only = validate_path(w, [(1, 4), (2, 4)])
    assert q_weight(bruhat_only).is_one()


def test_q_weight_multiplicative_over_concatenation():
    w = P("321")
    labels = [(1, 4), (2, 4), (1, 3), (2, 3)]
    whole = validate_path(w, labels)
    for cut in range(len(labels) + 1):
        head = validate_path(w, labels[:cut])
        tail = validate_path(head.end, labels[cut:])
        assert q_weight(head) * q_weight(tail) == q_weight(whole)


def summed(*monomials: QMonomial) -> dict[int, int]:
    out: dict[int, int] = {}
    for mono in monomials:
        for v, e in mono.exponents:
            out[v] = out.get(v, 0) + e
    return out


small_monomials = st.dictionaries(st.integers(1, 8), st.integers(1, 5), max_size=5).map(QMonomial.from_dict)


@given(small_monomials, small_monomials)
@settings(max_examples=150, deadline=None)
def test_monomial_product_equals_from_dict_of_the_summed_exponents(m1, m2):
    got = m1 * m2
    want = QMonomial.from_dict(summed(m1, m2))
    assert got == want and hash(got) == hash(want)
    assert got.exponents == want.exponents
    # a unit factor returns the other factor itself
    if m2.is_one():
        assert got is m1
    elif m1.is_one():
        assert got is m2


@given(
    st.permutations(list(range(1, 6))),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda ab: ab[0] < ab[1]), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_q_weight_equals_from_dict_of_the_summed_edge_weights(window, labels):
    path = DirectedPath.empty(Permutation(tuple(window)))
    for label in labels:
        path = path.extend(label) or path
    quantum = [QMonomial.q_range(*lab) for lab, kind in zip(path.labels, path.kinds) if kind is EdgeKind.QUANTUM]
    want = QMonomial.from_dict(summed(*quantum))
    assert q_weight(path) == want and q_weight(path).exponents == want.exponents


def test_path_render():
    path = validate_path(P("321"), [(1, 4), (2, 3)])
    assert path.render() == "(321 ; (1,4)_B, (2,3)_Q)"
    assert DirectedPath.empty(P("321")).render() == "(321 ; -)"


def test_path_machine_record():
    path = validate_path(P("321"), [(1, 4), (2, 3)])
    assert path.to_record() == {
        "start": "321",
        "labels": [[1, 4], [2, 3]],
        "kinds": ["B", "Q"],
        "end": "4123",
        "qweight": [[2, 1]],
    }


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


def test_algorithm_trivial_empty_segment():
    path = validate_path(P("321"), [(1, 4)])
    # no trailing (*,3) run: appending (3,4) ends the pass immediately
    out = algorithm_skd(path, len(path.labels), 3, 4)
    assert out.kind == "IIA"
    assert out.path.labels == path.labels + ((3, 4),)


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


def test_algorithm_both_outcomes_witnessed():
    kinds = set()
    for path in _skd_universe(4, 3, 4, 2):
        out = algorithm_skd(path, 0, 3, 4)
        kinds.add(out.kind)
        # the rewritten path keeps the start and the overall endpoint
        assert out.path.start == path.start
        assert out.path.end == path.end.apply((3, 4))
        assert len(out.path) == len(path) + 1
        if out.kind == "IIA":
            t = len(path)
            assert out.path.labels == ((3, 4),) + tuple((j, 4) for j, _ in path.labels)
        else:
            u = out.u
            rows = [j for j, _ in path.labels]
            expected = (
                tuple((j, 3) for j in rows[: u - 1])
                + ((rows[u - 1], 4), (rows[u - 1], 3))
                + tuple((j, 4) for j in rows[u:])
            )
            assert out.path.labels == expected
    assert kinds == {"IIA", "IIB"}


def test_algorithm_ambiguity_scan():
    # record whether both rewrite shapes ever validate simultaneously
    ambiguous = []
    for path in _skd_universe(4, 3, 4, 2):
        out = algorithm_skd(path, 0, 3, 4)
        ambiguous.extend(out.ambiguous_steps)
    # the dichotomy is exclusive on this universe; pin it so a change is visible
    assert ambiguous == []


def test_edge_kind_matches_length_form_past_the_window():
    # labels reach three positions past S_n, where edge_kind reads fixed points
    for n in range(0, 6):
        for x in all_permutations(n):
            for b in range(2, n + 4):
                for a in range(1, b):
                    assert edge_kind(x, (a, b)) == edge_kind_by_length(x, (a, b)), (x, a, b)


@pytest.mark.parametrize("label", [(0, 2), (2, 2), (3, 1)])
def test_edge_kind_rejects_a_bad_label(label):
    with pytest.raises(ValueError, match="bad transposition"):
        edge_kind(P("321"), label)


# --- the window walk against the length oracle --------------------------------

BAD_LABELS = ((0, 2), (2, 2), (3, 1))


def _oracle_step(state, label):
    """
    One step of the reference fold: `edge_kind_by_length` and
    `Permutation.apply`.  `state` is (kinds, vertex, first non-edge index or
    None); once a step fails the fold stops, so later labels are never read.
    """
    kinds, x, bad = state
    if bad is not None:
        return state
    kind = edge_kind_by_length(x, label)  # raises ValueError on a bad label
    if kind is None:
        return kinds, x, len(kinds)
    return kinds + (kind,), x.apply(label), None


def _oracle_walk(start, labels):
    state = ((), start, None)
    for label in labels:
        state = _oracle_step(state, label)
    return state


def _assert_walk_matches(start, labels, state):
    kinds, end, bad = state
    path = validate_path(start, labels)
    assert first_invalid_index(start, labels) == bad
    if bad is not None:
        assert path is None
        return None
    assert path is not None
    assert path.start is start and path.labels == tuple(labels) and path.kinds == kinds
    assert path.end == end and hash(path.end) == hash(end)
    return path


def _assert_bad_label_raises_when_reached(start, labels, state, path):
    for bad_label in BAD_LABELS:
        longer = tuple(labels) + (bad_label,)
        if state[2] is None:
            with pytest.raises(ValueError, match="bad transposition"):
                validate_path(start, longer)
            with pytest.raises(ValueError, match="bad transposition"):
                first_invalid_index(start, longer)
            with pytest.raises(ValueError, match="bad transposition"):
                path.extend(bad_label)
        else:
            # an earlier step is no edge: the walk stops before the bad label
            assert validate_path(start, longer) is None
            assert first_invalid_index(start, longer) == state[2]


def _walk_tree(start, labels, state, alphabet, depth):
    path = _assert_walk_matches(start, labels, state)
    if depth == 0:
        return path
    _assert_bad_label_raises_when_reached(start, labels, state, path)
    for label in alphabet:
        child = _walk_tree(start, labels + (label,), _oracle_step(state, label), alphabet, depth - 1)
        if path is not None:
            assert path.extend(label) == child
    return path


@pytest.mark.parametrize("n", range(5))
def test_walk_matches_the_length_oracle_exhaustive(n):
    # every label list of length <= 3 with columns <= n+2, from every start in S_n
    alphabet = [(a, b) for b in range(2, n + 3) for a in range(1, b)]
    for start in all_permutations(n):
        _walk_tree(start, (), ((), start, None), alphabet, 3)


@st.composite
def _walks(draw):
    n = draw(st.integers(5, 7))
    start = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    # mostly good labels reaching past the window, now and then a bad one
    good = st.integers(2, n + 3).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b)))
    label = st.one_of(good, good, good, st.sampled_from(BAD_LABELS))
    return start, tuple(draw(st.lists(label, max_size=8)))


@given(_walks())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_length_oracle_on_larger_windows(walk):
    start, labels = walk
    try:
        state = _oracle_walk(start, labels)
    except ValueError:
        # the oracle reached a bad label: so must every walk
        reached = next(i for i, lab in enumerate(labels) if not 1 <= lab[0] < lab[1])
        assert first_invalid_index(start, labels[:reached]) is None
        with pytest.raises(ValueError, match="bad transposition"):
            validate_path(start, labels)
        with pytest.raises(ValueError, match="bad transposition"):
            first_invalid_index(start, labels)
        return
    path = _assert_walk_matches(start, labels, state)
    if labels:
        head = validate_path(start, labels[:-1])
        if head is not None:
            assert head.extend(labels[-1]) == path


def _skd_iib_input():
    for path in _skd_universe(4, 3, 4, 2):
        if algorithm_skd(path, 0, 3, 4).kind == "IIB":
            return path
    raise AssertionError("no absorbing input in the universe")


@pytest.mark.parametrize("kind", ["IIA", "IIB"])
def test_algorithm_raises_when_the_rewritten_path_fails(monkeypatch, kind):
    # the rewritten path is guaranteed; a failed final walk is reported as a
    # bug, also under `python -O`, rather than returned as a None path
    if kind == "IIA":
        path, segment_start = validate_path(P("321"), [(1, 4)]), 1
    else:
        path, segment_start = _skd_iib_input(), 0
    assert algorithm_skd(path, segment_start, 3, 4).kind == kind
    monkeypatch.setattr(qpieri.qbg, "validate_path", lambda start, labels: None)
    with pytest.raises(RuntimeError, match="indicates a bug"):
        algorithm_skd(path, segment_start, 3, 4)
