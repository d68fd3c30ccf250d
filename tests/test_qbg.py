"""Edge classification, path validation and weights."""

from __future__ import annotations

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpieri.qbg
from qpieri.permutations import Permutation, all_permutations
from qpieri.qbg import (
    DirectedPath,
    EdgeKind,
    QMonomial,
    edge_kind,
    edge_kind_by_length,
    first_invalid_index,
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
