"""
Classical Grothendieck polynomials and the polynomial-level checks at Q = 0.

The basis symbols G[w] become honest polynomials when all quantum
parameters vanish: G[w] |-> the Grothendieck polynomial of w.  These are
generated from the staircase monomial of the longest element by isobaric
divided differences,

  G_{w0} = x_1^(n-1) x_2^(n-2) ... x_{n-1},
  G_{w s_i} = pi_i(G_w)          when ell(w s_i) = ell(w) - 1,
  pi_i(f) = dd_i((1 - x_{i+1}) f),   dd_i(f) = (f - s_i f) / (x_i - x_{i+1}),

independent of the descent sequence and of the ambient size.  Setting
every Q variable to zero in a chain expansion keeps exactly the chains
with no quantum edge, so the product and divisor formulas specialize to
polynomial identities.  The checks here take the Q = 0 part of
`pieri_expand` and `monk_lhs_expand` themselves and compare it with the
exact polynomial product, so they test the expansion engine directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .expansion import monk_lhs_expand, pieri_expand
from .permutations import Permutation, cyclic_permutation


class XPolynomial:
    """Sparse exact-integer polynomial in x_1, ..., x_N (N implicit)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        self._terms: dict[tuple[int, ...], int] = {}
        for expo, c in (terms or {}).items():
            if c:
                self._terms[_trim(expo)] = c

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> XPolynomial:
        return cls()

    @classmethod
    def from_int(cls, c: int) -> XPolynomial:
        return cls({(): c})

    @classmethod
    def variable(cls, i: int) -> XPolynomial:
        expo = [0] * i
        expo[i - 1] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def monomial(cls, expo: tuple[int, ...], c: int = 1) -> XPolynomial:
        return cls({expo: c})

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: XPolynomial) -> XPolynomial:
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return XPolynomial(out)

    def __sub__(self, other: XPolynomial) -> XPolynomial:
        return self + other.scaled(-1)

    def __mul__(self, other: XPolynomial) -> XPolynomial:
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _add_expo(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return XPolynomial(out)

    def scaled(self, c: int) -> XPolynomial:
        return XPolynomial({e: c * v for e, v in self._terms.items()})

    def swap_vars(self, i: int) -> XPolynomial:
        """Apply the variable swap x_i <-> x_{i+1}."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in self._terms.items():
            ee = list(e) + [0] * (i + 1 - len(e))
            ee[i - 1], ee[i] = ee[i], ee[i - 1]
            key = _trim(tuple(ee))
            out[key] = out.get(key, 0) + c
        return XPolynomial(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda e: (sum(e), e))
        parts = []
        for e in keys:
            c = self._terms[e]
            mono = "*".join(
                f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}"
                for i, p in enumerate(e)
                if p
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text[0] + text[2:]

    def __repr__(self) -> str:
        return f"XPolynomial({self.render()})"


def _trim(expo: tuple[int, ...]) -> tuple[int, ...]:
    e = list(expo)
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def _add_expo(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    out = list(e1)
    for i, v in enumerate(e2):
        out[i] += v
    return _trim(tuple(out))


def divided_difference(i: int, f: XPolynomial) -> XPolynomial:
    """
    dd_i(f) = (f - s_i f)/(x_i - x_{i+1}), computed monomial-wise (the
    division is exact): for a >= b,
      dd_i(x_i^a x_{i+1}^b) = sum_{t=b}^{a-1} x_i^{a+b-1-t} x_{i+1}^t,
    and dd_i is antisymmetric under a <-> b.
    """
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        ee = list(e) + [0] * (i + 1 - len(e))
        a, b = ee[i - 1], ee[i]
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for t in range(lo, hi):
            ee2 = list(ee)
            ee2[i - 1], ee2[i] = a + b - 1 - t, t
            key = _trim(tuple(ee2))
            out[key] = out.get(key, 0) + sign * c
    return XPolynomial(out)


def isobaric(i: int, f: XPolynomial) -> XPolynomial:
    """pi_i(f) = dd_i((1 - x_{i+1}) f)."""
    return divided_difference(i, f - XPolynomial.variable(i + 1) * f)


@lru_cache(maxsize=None)
def grothendieck_poly(w: Permutation, n: int) -> XPolynomial:
    """
    The Grothendieck polynomial of w computed inside S_n.  Stable in n, so
    any n >= support(w) gives the same polynomial.
    """
    if not w.in_s_n(n):
        raise ValueError(f"{w!r} is not in S_{n}")
    win = w.extended(n)
    if win == tuple(range(n, 0, -1)):
        expo = tuple(n - i for i in range(1, n + 1))
        return XPolynomial.monomial(_trim(expo))
    # pick an ascent: w*s_i is longer, recurse and come back down with pi_i
    for i in range(1, n):
        if win[i - 1] < win[i]:
            longer = w.apply((i, i + 1))
            return isobaric(i, grothendieck_poly(longer, n))
    raise AssertionError("unreachable: non-longest element has an ascent")


def _grothendieck_sum(terms: dict[Permutation, int], n: int) -> XPolynomial:
    """Sum of c * G_u over the terms, computed inside S_n."""
    out = XPolynomial.zero()
    for u, c in terms.items():
        out = out + grothendieck_poly(u, n).scaled(c)
    return out


def verify_pieri_at_q0(w: Permutation, k: int, p: int) -> bool:
    """
    Exact polynomial identity at Q = 0:
    G_w * G_{c[k,p]} = the Q = 0 part of pieri_expand(w, k, p).
    """
    terms = pieri_expand(w, k, p).at_q0()
    factor = cyclic_permutation(k, p)
    n = max([w.support, factor.support] + [u.support for u in terms]) + 1
    lhs = grothendieck_poly(w, n) * grothendieck_poly(factor, n)
    return lhs == _grothendieck_sum(terms, n)


def verify_monk_at_q0(x: Permutation, k: int) -> bool:
    """
    Exact polynomial identity at Q = 0:
    (1 - x_k) G_x = the Q = 0 part of monk_lhs_expand(x, k).
    """
    terms = monk_lhs_expand(x, k).at_q0()
    n = max([x.support, k] + [u.support for u in terms]) + 1
    gx = grothendieck_poly(x, n)
    return gx - XPolynomial.variable(k) * gx == _grothendieck_sum(terms, n)


def verify_recurrence_at_q0(k: int, p: int) -> bool:
    """
    Column recurrence at Q = 0, computed inside S_{k+2}:
    G^k_p - G^{k-1}_{p-1} = (1 - x_k)(G^{k-1}_p - G^{k-1}_{p-1}).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1 <= p <= k:
        raise ValueError(f"p must be in 1..k, got {p}")
    n = k + 2

    def g(kk: int, pp: int) -> XPolynomial:
        if kk >= 1 and pp == 0:
            return XPolynomial.from_int(1)
        if kk < 1 or not 0 <= pp <= kk:
            return XPolynomial.zero()
        return grothendieck_poly(cyclic_permutation(kk, pp), n)

    lhs = g(k, p) - g(k - 1, p - 1)
    diff = g(k - 1, p) - g(k - 1, p - 1)
    rhs = diff - XPolynomial.variable(k) * diff
    return lhs == rhs
