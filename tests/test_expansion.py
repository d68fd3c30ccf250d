"""Expansion engine: worked examples, algebra, rendering round-trips."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpieri.chains import enumerate_monk_chains
from qpieri.expansion import (
    Expansion,
    QPolynomial,
    expand_product_chain,
    monk_lhs_expand,
    pieri_expand,
)
from qpieri.golden import EX1, EX2, expected_expansion
from qpieri.permutations import Permutation, all_permutations, cyclic_permutation
from qpieri.qbg import EdgeKind, QMonomial

P = Permutation.from_one_line


def test_ex1_expansion_terms():
    got = pieri_expand(P("321"), 2, 2)
    assert got == expected_expansion(EX1)
    assert len(got) == 7
    assert got.render() == EX1.expansion_text


@pytest.mark.parametrize(
    "k, p, message",
    [(0, 0, "k must be >= 1, got 0"), (2, 3, "p must be in 0..2, got 3"), (2, -1, "p must be in 0..2, got -1")],
)
def test_every_entry_refuses_a_bad_factor_alike(k, p, message):
    w = P("321")
    for call in (
        lambda: cyclic_permutation(k, p),
        lambda: pieri_expand(w, k, p),
        lambda: expand_product_chain(w, [(k, p)]),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_ex2_expansion_terms():
    got = pieri_expand(P("32514"), 3, 2)
    assert got == expected_expansion(EX2)
    assert len(got) == 20
    # both double coefficients survive, one on each sign
    q3 = QMonomial.variable(3)
    assert got.terms[P("431625")].terms[q3] == 2
    assert got.terms[P("43152")].terms[q3] == -2
    assert got.terms[P("436125")].terms[QMonomial.one()] == -2
    assert got.terms[P("426135")].terms[QMonomial.one()] == 1


def test_degree_zero_factor_is_identity():
    for w in all_permutations(3):
        for k in (1, 2, 3):
            assert pieri_expand(w, k, 0) == Expansion.basis(w)


def test_pieri_expand_rejects_bad_degree():
    with pytest.raises(ValueError):
        pieri_expand(P("321"), 2, 3)
    with pytest.raises(ValueError):
        pieri_expand(P("321"), 0, 0)


def test_monk_expansion_identity_case():
    got = monk_lhs_expand(Permutation.identity(), 1)
    want = (
        Expansion.zero()
        .add_term(Permutation.identity(), 1, QMonomial.one())
        .add_term(P("21"), -1, QMonomial.one())
    )
    assert got == want


def test_monk_expansion_321():
    assert len(monk_lhs_expand(P("321"), 1)) == 8


def test_monk_trivial_when_no_chains():
    # a column with no usable edges leaves just the input symbol
    for x in all_permutations(3):
        for k in (1, 2, 3):
            if len(enumerate_monk_chains(x, k)) == 1:
                assert monk_lhs_expand(x, k) == Expansion.basis(x)


def test_product_chain_examples():
    w = P("321")
    assert expand_product_chain(w, []) == Expansion.basis(w)
    assert expand_product_chain(w, [(2, 2)]) == pieri_expand(w, 2, 2)
    both = expand_product_chain(w, [(1, 1), (2, 1)])
    swapped = expand_product_chain(w, [(2, 1), (1, 1)])
    assert both == swapped


def test_specialization_drops_exactly_quantum_chains():
    from qpieri.chains import enumerate_markings, enumerate_pieri_chains

    for w in all_permutations(3):
        for k, p in ((2, 1), (2, 2), (3, 2)):
            q0 = pieri_expand(w, k, p).at_q0()
            direct = {}
            for chain in enumerate_pieri_chains(w, k):
                if any(kind is EdgeKind.QUANTUM for kind in chain.path.kinds):
                    continue
                count = len(enumerate_markings(chain, p))
                if count:
                    sign = -1 if (len(chain) - p) % 2 else 1
                    direct[chain.end] = direct.get(chain.end, 0) + sign * count
            assert q0 == {u: c for u, c in direct.items() if c}


# --- rendering ----------------------------------------------------------------


def test_render_parse_round_trip_worked_examples():
    for ex in (EX1, EX2):
        e = expected_expansion(ex)
        assert Expansion.parse(e.render()) == e
        assert Expansion.from_json(e.to_json()) == e


def test_render_of_zero():
    assert Expansion.zero().render() == "0"
    assert Expansion.parse("0") == Expansion.zero()


@pytest.mark.parametrize(
    "read, text, problem",
    [
        (Expansion.parse, "", "no term"),
        (Expansion.parse, "   ", "no term"),
        (Expansion.parse, "+", "no term"),
        (Expansion.parse, "-", "no term"),
        (Expansion.parse, "G[21]*G[12]", "term with more than one basis symbol: 'G[21]*G[12]'"),
        (Expansion.parse, "G[1] - 2*Q1*G[21]*G[21]", "term with more than one basis symbol: '2*Q1*G[21]*G[21]'"),
        (Expansion.from_json, '[{"perm": "21"}]', "KeyError: 'terms'"),
        (Expansion.from_json, '[{"terms": []}]', "KeyError: 'perm'"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": []}]}]', "KeyError: 'c'"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": 5, "c": 1}]}]', "malformed expansion record"),
        (Expansion.from_json, "[21]", "malformed expansion record"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [], "c": 1.5}]}]',
         'malformed expansion record {"perm": "21", "terms": [{"q": [], "c": 1.5}]} (ValueError: 1.5 is not an integer)'),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [], "c": true}]}]', "true is not an integer"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [], "c": "3"}]}]', '"3" is not an integer'),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [[1, 2.7]], "c": 1}]}]', "2.7 is not an integer"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [[1.0, 2]], "c": 1}]}]', "1.0 is not an integer"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [[false, 2]], "c": 1}]}]', "false is not an integer"),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [[1, 1], [1, 2]], "c": 1}]}]',
         'malformed expansion record {"perm": "21", "terms": [{"q": [[1, 1], [1, 2]], "c": 1}]} (ValueError: Q1 appears twice)'),
        (Expansion.from_json, '[{"perm": "21", "terms": [{"q": [[1, 2, 3]], "c": 1}]}]',
         'malformed expansion record {"perm": "21", "terms": [{"q": [[1, 2, 3]], "c": 1}]} (ValueError: too many values'),
        (Expansion.from_json, '{"a": 1}', "JSON list of records, not dict"),
        (Expansion.from_json, "{}", "JSON list of records, not dict"),
    ],
)
def test_malformed_input_is_a_value_error_naming_the_problem(read, text, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        read(text)


def test_json_schema_shape():
    e = pieri_expand(P("321"), 2, 2)
    obj = e.to_json_obj()
    assert isinstance(obj, list)
    for rec in obj:
        assert set(rec) == {"perm", "terms"}
        for term in rec["terms"]:
            assert set(term) == {"q", "c"}
            assert isinstance(term["c"], int)
            for var, exp in term["q"]:
                assert var >= 1 and exp >= 1


@st.composite
def qpolynomials(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = draw(
            st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3)
        )
        coeff = draw(st.integers(-9, 9))
        terms[QMonomial.from_dict(exps)] = coeff
    return QPolynomial(terms)


@given(qpolynomials(), qpolynomials(), qpolynomials())
@settings(max_examples=60, deadline=None)
def test_qpolynomial_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + QPolynomial.zero() == f
    assert f * QPolynomial.from_int(1) == f
    assert (f - f).is_zero()


@given(qpolynomials())
@settings(max_examples=40, deadline=None)
def test_qpolynomial_render_is_stable(f):
    # rendering hits every term once: reparsing through an Expansion wrapper
    e = Expansion({Permutation.identity(): f}) if not f.is_zero() else Expansion.zero()
    assert Expansion.parse(e.render()) == e


@st.composite
def expansions(draw):
    windows = [(2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 4, 1), ()]
    terms = {}
    for win in draw(st.lists(st.sampled_from(windows), unique=True, max_size=4)):
        poly = draw(qpolynomials())
        if not poly.is_zero():
            terms[Permutation(win)] = poly
    return Expansion(terms)


@given(expansions())
@settings(max_examples=60, deadline=None)
def test_expansion_round_trips(e):
    assert Expansion.parse(e.render()) == e
    assert Expansion.from_json(e.to_json()) == e


@given(expansions(), expansions())
@settings(max_examples=40, deadline=None)
def test_expansion_module_axioms(e1, e2):
    assert e1 + e2 == e2 + e1
    assert (e1 - e1).is_zero()
    assert e1 + Expansion.zero() == e1


def test_cached_expansion_cannot_be_mutated():
    got = pieri_expand(P("321"), 2, 2)
    with pytest.raises(TypeError):
        got.terms[P("21")] = QPolynomial.from_int(1)
    with pytest.raises(TypeError):
        got.terms[P("4312")].terms[QMonomial.one()] = 5
    bigger = got.add_term(P("21"), 1, QMonomial.one())
    assert bigger is not got
    assert len(bigger) == len(got) + 1
    assert pieri_expand(P("321"), 2, 2).render() == EX1.expansion_text


@given(expansions())
@settings(max_examples=40, deadline=None)
def test_map_basis_is_the_linear_extension(e):
    fn = lambda u: pieri_expand(u, 2, 1)
    folded = Expansion.zero()
    for u, coeff in e.terms.items():
        folded = folded + fn(u).scaled(coeff)
    assert e.map_basis(fn) == folded


def test_filter_sn():
    e = pieri_expand(P("321"), 2, 2)
    reduced = e.filter_s_n(3)
    assert set(reduced.terms) == {u for u in e.terms if u.support <= 3}
    assert P("132") in reduced.terms
    assert P("4312") not in reduced.terms


@st.composite
def comma_form_expansions(draw):
    """Expansions on S_10-S_12 windows (comma form), plus a short one."""
    long_windows = st.integers(10, 12).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).filter(lambda win: win[-1] != n)
    )
    windows = draw(st.lists(long_windows.map(tuple), min_size=1, max_size=4, unique=True))
    terms = {Permutation(win): draw(qpolynomials().filter(lambda f: not f.is_zero())) for win in windows}
    short = draw(qpolynomials())
    if not short.is_zero():
        terms[Permutation((2, 1))] = short
    return Expansion(terms)


@given(comma_form_expansions())
@settings(max_examples=40, deadline=None)
def test_comma_form_expansion_round_trips(e):
    assert Expansion.parse(e.render()) == e
    assert Expansion.from_json(e.to_json()) == e
