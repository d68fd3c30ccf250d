"""
The packed Z[Q] representation inside `Expansion` and `QPolynomial`.

Packing round-trips and refuses what it cannot hold; a product whose
exponent would reach the packed limit raises instead of carrying into the
next variable; every ring operation agrees with a fold over plain
{(window, exponents): coefficient} dicts written here; and the text and
JSON forms are the ones `json.dumps` and the parser agree on.  The
boundary of `Expansion`, where the windows that key its terms turn back
into permutations, agrees with the same plain dicts and hands out the
permutations the walks interned (`chains._ends`).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expansion import comma_form_expansions, expansions, qpolynomials

from qpieri import chains
from qpieri.expansion import Expansion, QPolynomial, expand_product_chain, pieri_expand
from qpieri.permutations import Permutation
from qpieri.qbg import Q_EXPONENT_LIMIT, Q_VARIABLES, QMonomial, pack_monomial, unpack_monomial

P = Permutation.from_one_line
LIMIT = Q_EXPONENT_LIMIT
HALF = LIMIT // 2

# --- packing ---------------------------------------------------------------

exponents = st.integers(1, LIMIT - 1) | st.integers(1, 4)
monomials = st.dictionaries(st.integers(1, 64), exponents, max_size=6).map(QMonomial.from_dict)


@given(monomials)
@settings(max_examples=200, deadline=None)
def test_pack_round_trip(mono):
    back = unpack_monomial(pack_monomial(mono))
    assert back == mono
    assert hash(back) == hash(mono)


def test_pack_round_trip_at_the_edges():
    for mono in (
        QMonomial.one(),
        QMonomial.variable(1, LIMIT - 1),
        QMonomial.variable(Q_VARIABLES, LIMIT - 1),
        QMonomial.from_dict({1: 1, Q_VARIABLES: 1}),
    ):
        assert unpack_monomial(pack_monomial(mono)) == mono
    assert pack_monomial(QMonomial.one()) == 0


@pytest.mark.parametrize(
    "mono",
    [
        QMonomial.variable(1, LIMIT),
        QMonomial.variable(5, LIMIT + 7),
        QMonomial.variable(Q_VARIABLES + 1),
        QMonomial(((0, 1),)),
        QMonomial(((2, 1), (1, 1))),
        QMonomial(((1, 1), (1, 1))),
        QMonomial(((1, 0),)),
    ],
    ids=repr,
)
def test_pack_rejects_what_it_cannot_hold(mono):
    with pytest.raises(ValueError):
        pack_monomial(mono)


def test_public_constructors_reject_unpackable_monomials():
    with pytest.raises(ValueError):
        QPolynomial({QMonomial.variable(1, LIMIT): 1})
    with pytest.raises(ValueError):
        Expansion.basis(P("21")).times_monomial(QMonomial.variable(Q_VARIABLES + 1))
    with pytest.raises(ValueError):
        Expansion.parse(f"Q{Q_VARIABLES + 1}*G[21]")


# --- the overflow guard ----------------------------------------------------


def _poly(v: int, e: int) -> QPolynomial:
    return QPolynomial({QMonomial.variable(v, e): 1})


@pytest.mark.parametrize("v", [1, 2, Q_VARIABLES])
def test_product_below_the_limit_is_exact(v):
    got = _poly(v, HALF) * _poly(v, HALF - 1)
    assert got.terms == {QMonomial.variable(v, LIMIT - 1): 1}


@pytest.mark.parametrize(
    "f, g",
    [
        (_poly(1, HALF), _poly(1, HALF)),
        (_poly(1, LIMIT - 1), _poly(1, 1)),
        (_poly(3, LIMIT - 1), _poly(3, LIMIT - 1)),
        (_poly(Q_VARIABLES, LIMIT - 1), _poly(Q_VARIABLES, 1)),
        # one overflowing monomial among harmless ones
        (QPolynomial({QMonomial.one(): 2, QMonomial.variable(2, HALF): 1}), _poly(2, HALF) + _poly(1, 1)),
    ],
)
def test_every_product_site_refuses_to_carry(f, g):
    e = Expansion({P("21"): f, P("132"): QPolynomial.from_int(3)})
    with pytest.raises(OverflowError):
        f * g
    with pytest.raises(OverflowError):
        e.scaled(g)
    with pytest.raises(OverflowError):
        e.map_basis(lambda u: Expansion({u: g}))


@pytest.mark.parametrize(
    "v, e1, e2", [(1, HALF, HALF), (1, LIMIT - 1, 1), (2, 1, LIMIT - 1), (Q_VARIABLES, LIMIT - 1, LIMIT - 1)]
)
def test_times_monomial_refuses_to_carry(v, e1, e2):
    f = QPolynomial({QMonomial.one(): 1, QMonomial.variable(v, e1): -1})
    mono = QMonomial.variable(v, e2)
    with pytest.raises(OverflowError):
        f.times_monomial(mono)
    with pytest.raises(OverflowError):
        Expansion({P("21"): f}).times_monomial(mono)


def test_overflow_is_refused_even_where_it_would_cancel():
    # the two products land on the same monomial with opposite signs; the
    # guard refuses the product before the sum is taken
    e = Expansion({P("21"): _poly(1, HALF), P("132"): _poly(1, HALF).scaled(-1)})
    with pytest.raises(OverflowError):
        e.map_basis(lambda u: Expansion({P("1"): _poly(1, HALF)}))


# --- packed arithmetic against plain dicts ---------------------------------


def plain(e: Expansion) -> dict[tuple[str, tuple], int]:
    return {
        (u.one_line(), m.exponents): c
        for u, poly in e.terms.items()
        for m, c in poly.terms.items()
    }


def plain_poly(f: QPolynomial) -> dict[tuple, int]:
    return {m.exponents: c for m, c in f.terms.items()}


def assert_boundary_matches_plain_dicts(e: Expansion) -> None:
    """`terms`, `at_q0`, `sorted_terms` and `filter_s_n` against `plain(e)`, and `Expansion(e.terms) == e`."""
    a = plain(e)
    assert Expansion(e.terms) == e
    assert all(type(u) is Permutation and type(f) is QPolynomial for u, f in e.terms.items())
    assert {u.one_line() for u in e.terms} == {u for u, _ in a}
    assert {u.one_line(): c for u, c in e.at_q0().items()} == {u: c for (u, m), c in a.items() if m == ()}
    ordered = sorted({u for u, _ in a}, key=lambda u: P(u).sort_key())
    assert [(u.one_line(), plain_poly(f)) for u, f in e.sorted_terms()] == [
        (u, {m: c for (v, m), c in a.items() if v == u}) for u in ordered
    ]
    for n in (0, 2, 3, 4):
        assert plain(e.filter_s_n(n)) == {(u, m): c for (u, m), c in a.items() if len(P(u).window) <= n}


def assert_walked_keys_are_interned(e: Expansion) -> None:
    """Every permutation `e` hands out is the `chains._ends` entry of its window."""
    keys = [*e.terms, *e.at_q0(), *(u for u, _ in e.sorted_terms())]
    assert keys and all(u is chains._ends[u.window] for u in keys)
    seen: list = []
    e.map_basis(lambda u: seen.append(u) or Expansion.basis(u))
    assert seen and all(u is chains._ends[u.window] for u in seen)


def merge(x: tuple, y: tuple) -> tuple:
    exps = dict(x)
    for v, e in y:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def plain_sum(*pieces) -> dict:
    out: dict = {}
    for piece in pieces:
        for key, c in piece:
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@given(expansions(), expansions(), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_module_operations_match_plain_dicts(e1, e2, c):
    a, b = plain(e1), plain(e2)
    assert_boundary_matches_plain_dicts(e1)
    assert plain(e1 + e2) == plain_sum(a.items(), b.items())
    assert plain(e1 - e2) == plain_sum(a.items(), ((k, -v) for k, v in b.items()))
    assert plain(e1.scaled_int(c)) == plain_sum((k, c * v) for k, v in a.items())


@given(expansions(), qpolynomials(), qpolynomials())
@settings(max_examples=80, deadline=None)
def test_products_match_plain_dicts(e, f, g):
    a, pf, pg = plain(e), plain_poly(f), plain_poly(g)
    assert plain_poly(f * g) == plain_sum(
        (merge(m1, m2), c1 * c2) for m1, c1 in pf.items() for m2, c2 in pg.items()
    )
    assert plain(e.scaled(f)) == plain_sum(
        ((u, merge(m1, m2)), c1 * c2) for (u, m1), c1 in a.items() for m2, c2 in pf.items()
    )
    for mono in f.terms:
        assert plain(e.times_monomial(mono)) == plain_sum(
            ((u, merge(m1, mono.exponents)), c1) for (u, m1), c1 in a.items()
        )


@given(expansions(), st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]))
@settings(max_examples=60, deadline=None)
def test_map_basis_matches_plain_dicts(e, factor):
    k, p = factor
    want = plain_sum(
        ((v, merge(m1, m2)), c1 * c2)
        for (u, m1), c1 in plain(e).items()
        for (v, m2), c2 in plain(pieri_expand(P(u), k, p)).items()
    )
    called: list = []
    got = e.map_basis(lambda u: called.append(u) or pieri_expand(u, k, p))
    assert plain(got) == want
    # the callback takes each basis term once, as a Permutation
    assert sorted(u.one_line() for u in called) == sorted({u for u, _ in plain(e)})
    assert all(type(u) is Permutation for u in called)
    assert_boundary_matches_plain_dicts(got)
    if not got.is_zero():
        assert_walked_keys_are_interned(got)


# --- output paths ----------------------------------------------------------


def old_json_obj(e: Expansion) -> list[dict]:
    """The machine form as a list of dicts, in output order."""
    return [
        {
            "perm": u.one_line(),
            "terms": [
                {"q": [[v, x] for v, x in m.exponents], "c": c}
                for m, c in sorted(poly.terms.items(), key=lambda mc: mc[0].sort_key())
            ],
        }
        for u, poly in sorted(e.terms.items(), key=lambda uc: uc[0].sort_key())
    ]


@given(expansions() | comma_form_expansions())
@settings(max_examples=80, deadline=None)
def test_output_paths_are_byte_identical(e):
    assert e.to_json() == json.dumps(old_json_obj(e))
    assert e.to_json_obj() == old_json_obj(e)
    assert Expansion.from_json(e.to_json()) == e
    assert Expansion.parse(e.render()) == e


def test_output_of_products_is_byte_identical():
    for w in ("321", "32514", "4,3,2,1,5,6,7,8,9,10,12,11"):
        e = expand_product_chain(P(w), [(2, 1), (3, 2)])
        assert e.to_json() == json.dumps(old_json_obj(e))
        assert Expansion.parse(e.render()) == e
        assert_boundary_matches_plain_dicts(e)
        assert_walked_keys_are_interned(e)
