"""Divided differences and the polynomial identities at Q = 0."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import grothendieck_in_s_n

from qpieri import classical
from qpieri.classical import (
    XPolynomial,
    divided_difference,
    grothendieck_poly,
    isobaric,
    verify_monk_at_q0,
    verify_pieri_at_q0,
    verify_recurrence_at_q0,
)
from qpieri.expansion import Expansion, pieri_expand
from qpieri.permutations import Permutation, all_permutations

P = Permutation.from_one_line

x1 = XPolynomial.variable(1)
x2 = XPolynomial.variable(2)
x3 = XPolynomial.variable(3)


def test_divided_difference_examples():
    assert divided_difference(1, x1) == XPolynomial({(): 1})
    assert divided_difference(1, x1 * x1 * x2) == x1 * x2
    sym = x1 * x2 + x1 + x2
    assert divided_difference(1, sym).is_zero()


@st.composite
def xpolynomials(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, 3)) for _ in range(4))
        terms[expo] = draw(st.integers(-6, 6))
    return XPolynomial(terms)


def swap_vars(f: XPolynomial, i: int) -> XPolynomial:
    """s_i f: the variable swap x_i <-> x_{i+1}, a bijection of the exponents."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        ee = list(e) + [0] * (i + 1 - len(e))
        ee[i - 1], ee[i] = ee[i], ee[i - 1]
        out[tuple(ee)] = c
    return XPolynomial(out)


@given(xpolynomials(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_divided_difference_mult_back(f, i):
    # dd_i(f) * (x_i - x_{i+1}) = f - s_i f   (exactness of the division)
    lhs = divided_difference(i, f) * (
        XPolynomial.variable(i) - XPolynomial.variable(i + 1)
    )
    assert lhs == f - swap_vars(f, i)


def test_isobaric_idempotent_on_random_sample():
    rng = random.Random(7)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            expo = tuple(rng.randint(0, 4) for _ in range(3))
            terms[expo] = rng.randint(-5, 5)
        f = XPolynomial(terms)
        i = rng.randint(1, 2)
        once = isobaric(i, f)
        assert isobaric(i, once) == once


def test_grothendieck_base_cases():
    assert grothendieck_poly(Permutation.identity()) == XPolynomial({(): 1})
    assert grothendieck_poly(P("21")) == x1
    assert grothendieck_poly(P("321")) == x1 * x1 * x2


def test_cached_polynomial_cannot_be_changed_by_the_caller():
    g = grothendieck_poly(P("21"))
    with pytest.raises(TypeError):
        g.terms[(5,)] = 7
    assert grothendieck_poly(P("21")).render() == "x1"
    assert grothendieck_poly(P("21")) == x1


def test_grothendieck_convention_anchor():
    # (1 - x_1) * 1  =  G[identity] - G[21]
    lhs = XPolynomial({(): 1}) - x1
    rhs = grothendieck_poly(Permutation.identity()) - grothendieck_poly(P("21"))
    assert lhs == rhs
    assert verify_monk_at_q0(Permutation.identity(), 1)


def test_grothendieck_descent_independence_s4():
    # all descent recursions agree: recompute each polynomial through every ascent
    for w in all_permutations(4):
        expected = grothendieck_poly(w)
        win = w.extended(4)
        for i in range(1, 4):
            if win[i - 1] < win[i]:
                longer = w.apply((i, i + 1))
                assert isobaric(i, grothendieck_poly(longer)) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grothendieck_poly_is_the_polynomial_of_every_larger_s_n(n):
    # grothendieck_poly(w) descends inside the S_n of w's own support; the
    # reference descends from the top of S_4, S_5 or S_6
    for w in all_permutations(4):
        assert grothendieck_poly(w) == grothendieck_in_s_n(w, n), (w.one_line(), n)


def test_pieri_oracle_detects_a_dropped_term(monkeypatch):
    # removing one Q = 0 term of a correct expansion breaks the identity,
    # since the Grothendieck polynomials are linearly independent
    def drop_one(w, k, p):
        full = pieri_expand(w, k, p)
        gone = min(full.at_q0(), key=Permutation.sort_key)
        return Expansion({u: c for u, c in full.terms.items() if u != gone})

    monkeypatch.setattr(classical, "pieri_expand", drop_one)
    for w in all_permutations(3):
        for k in (1, 2, 3):
            for p in range(0, k + 1):
                assert not verify_pieri_at_q0(w, k, p), (w.one_line(), k, p)


def test_monk_oracle_rejects_the_bare_input_symbol(monkeypatch):
    # x_k * G_x != 0, so (1 - x_k) G_x is never G_x alone
    monkeypatch.setattr(classical, "monk_lhs_expand", lambda x, k: Expansion.basis(x))
    for x in all_permutations(3):
        for k in (1, 2):
            assert not verify_monk_at_q0(x, k), (x.one_line(), k)


def test_recurrence_rejects_small_k():
    import pytest

    with pytest.raises(ValueError):
        verify_recurrence_at_q0(1, 1)


def test_render():
    f = x1 * x1 * x2 - x3
    assert XPolynomial.zero().render() == "0"
    assert f.render() == "-x3 + x1^2*x2"
