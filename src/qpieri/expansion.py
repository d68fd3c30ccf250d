"""
Expansion of quantum products in the formal basis of Grothendieck symbols.

The basis symbols G[w], one per permutation, are formal: products with a
Pieri factor expand as exact Z[Q_1, Q_2, ...]-linear combinations

  G[w] * (degree-p column-k factor)
      = sum over k-Pieri chains p from w with a p-marking of
        (-1)^(len(p) - p) * #markings * Q(p) * G[end(p)],

and the divisor-type product satisfies

  (1 - Q_k)(1 - x_k) G[x]
      = sum over k-Monk chains m from x of
        (-1)^(length of the (k,*)-segment) * Q(m) * G[end(m)].

One walk over the k-Pieri chains from w gives every degree p = 0..k of
the first product at once; its terms are cached per (w, k), and
`pieri_expand(w, k, p)` sums the degree-p coefficients.

Coefficient arithmetic is exact integer throughout; an Expansion is a
finite map from basis permutations to Z[Q]-polynomials with no zero
entries, so equality of expansions is structural equality.  Expansions
and Z[Q]-polynomials are immutable values: `terms` is a read-only view and
every operation returns a new value.  Every sum of terms, from a chain
expansion to a product or a parsed text, goes through one accumulator.

Text form: "G[4312] - Q1*Q2*G[1342] + 2*Q3*G[431625]", terms ordered by
(length, window) of the basis permutation.  Machine form (JSON):
[{"perm": "4312", "terms": [{"q": [[1,1],[2,1]], "c": -1}]}].
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from types import MappingProxyType

from .chains import enumerate_monk_chains, pieri_degree_rows
from .permutations import Permutation
from .qbg import QMonomial, q_weight


class QPolynomial:
    """Immutable sparse polynomial in Q_1, Q_2, ... with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[QMonomial, int] | None = None):
        self._terms: dict[QMonomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @property
    def terms(self) -> Mapping[QMonomial, int]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def from_int(cls, c: int) -> QPolynomial:
        return cls({QMonomial.one(): c})

    @classmethod
    def monomial(cls, mono: QMonomial, c: int = 1) -> QPolynomial:
        return cls({mono: c})

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: QPolynomial) -> QPolynomial:
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return QPolynomial(out)

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        return self + other.scaled(-1)

    def __mul__(self, other: QPolynomial) -> QPolynomial:
        out: dict[QMonomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return QPolynomial(out)

    def scaled(self, c: int) -> QPolynomial:
        return QPolynomial({m: c * v for m, v in self._terms.items()})

    def times_monomial(self, mono: QMonomial) -> QPolynomial:
        return QPolynomial({m * mono: c for m, c in self._terms.items()})

    def at_q0(self) -> int:
        """Constant term (all Q variables set to 0)."""
        return self._terms.get(QMonomial.one(), 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[QMonomial, int]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = str(abs(c)) if m.is_one() else (
                m.render() if abs(c) == 1 else f"{abs(c)}*{m.render()}"
            )
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text[0] + text[2:]

    def __repr__(self) -> str:
        return f"QPolynomial({self.render()})"


_Triple = tuple[Permutation, QMonomial, int]


class Expansion:
    """An immutable finite Z[Q]-linear combination of basis symbols G[u]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Permutation, QPolynomial] | None = None):
        self._terms: dict[Permutation, QPolynomial] = {
            u: c for u, c in (terms or {}).items() if not c.is_zero()
        }

    @property
    def terms(self) -> Mapping[Permutation, QPolynomial]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> Expansion:
        return cls()

    @classmethod
    def basis(cls, u: Permutation) -> Expansion:
        return cls({u: QPolynomial.from_int(1)})

    def _triples(self) -> Iterator[_Triple]:
        for u, poly in self._terms.items():
            for m, c in poly._terms.items():
                yield u, m, c

    def __add__(self, other: Expansion) -> Expansion:
        return _accumulate(itertools.chain(self._triples(), other._triples()))

    def __sub__(self, other: Expansion) -> Expansion:
        negated = ((u, m, -c) for u, m, c in other._triples())
        return _accumulate(itertools.chain(self._triples(), negated))

    def scaled_int(self, c: int) -> Expansion:
        return _accumulate((u, m, c * v) for u, m, v in self._triples())

    def scaled(self, poly: QPolynomial) -> Expansion:
        return _accumulate(
            (u, m1 * m2, c1 * c2)
            for u, m1, c1 in self._triples()
            for m2, c2 in poly._terms.items()
        )

    def times_monomial(self, mono: QMonomial) -> Expansion:
        return _accumulate((u, m * mono, c) for u, m, c in self._triples())

    def add_term(self, u: Permutation, sign: int, mono: QMonomial, mult: int = 1) -> Expansion:
        """This expansion plus sign * mult * mono * G[u], as a new value."""
        return _accumulate(itertools.chain(self._triples(), [(u, mono, sign * mult)]))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expansion) and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def filter_s_n(self, n: int) -> Expansion:
        """Quotient-ring reduction: drop basis terms outside S_n."""
        return Expansion({u: c for u, c in self._terms.items() if u.in_s_n(n)})

    def at_q0(self) -> dict[Permutation, int]:
        out = {u: c.at_q0() for u, c in self._terms.items()}
        return {u: c for u, c in out.items() if c != 0}

    def sorted_terms(self) -> list[tuple[Permutation, QPolynomial]]:
        return sorted(self._terms.items(), key=lambda uc: uc[0].sort_key())

    def map_basis(self, fn) -> Expansion:
        """Replace every G[u] by fn(u) (an Expansion), keeping coefficients."""
        return _accumulate(
            (v, m1 * m2, c1 * c2)
            for u, coeff in self._terms.items()
            for v, m2, c2 in fn(u)._triples()
            for m1, c1 in coeff._terms.items()
        )

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for u, poly in self.sorted_terms():
            for m, c in poly.sorted_terms():
                factors = []
                if abs(c) != 1:
                    factors.append(str(abs(c)))
                if not m.is_one():
                    factors.append(m.render())
                factors.append(f"G[{u.one_line()}]")
                parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text[0] + text[2:]

    def to_json_obj(self) -> list[dict]:
        out = []
        for u, poly in self.sorted_terms():
            terms = [
                {"q": [[v, e] for v, e in m.exponents], "c": c}
                for m, c in poly.sorted_terms()
            ]
            out.append({"perm": u.one_line(), "terms": terms})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> Expansion:
        def triples() -> Iterator[_Triple]:
            for rec in obj:
                u = Permutation.from_one_line(rec["perm"])
                for tr in rec["terms"]:
                    mono = QMonomial.from_dict({int(v): int(e) for v, e in tr["q"]})
                    yield u, mono, int(tr["c"])

        return _accumulate(triples())

    @classmethod
    def from_json(cls, text: str) -> Expansion:
        return cls.from_json_obj(json.loads(text))

    @classmethod
    def parse(cls, text: str) -> Expansion:
        """Parse the `render` text form back into an Expansion."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        return _accumulate(_parse_term(sign, body) for sign, body in _split_signed_terms(text))

    def __repr__(self) -> str:
        return f"Expansion({self.render()})"


def _accumulate(triples: Iterable[_Triple]) -> Expansion:
    """
    The sum of c * mono * G[u] over (u, mono, c) triples, in one dict pass
    with zero coefficients dropped.  Every Expansion that sums terms is
    built here.
    """
    acc: dict[Permutation, dict[QMonomial, int]] = {}
    for u, mono, c in triples:
        poly = acc.get(u)
        if poly is None:
            poly = acc[u] = {}
        poly[mono] = poly.get(mono, 0) + c
    return Expansion({u: QPolynomial(poly) for u, poly in acc.items()})


def _parse_term(sign: int, body: str) -> _Triple:
    mult = 1
    mono = QMonomial.one()
    perm: Permutation | None = None
    for factor in body.split("*"):
        factor = factor.strip()
        if re.fullmatch(r"\d+", factor):
            mult *= int(factor)
        elif m := re.fullmatch(r"Q(\d+)(?:\^(\d+))?", factor):
            mono = mono * QMonomial.variable(int(m.group(1)), int(m.group(2) or 1))
        elif m := re.fullmatch(r"G\[([0-9,]+)\]", factor):
            perm = Permutation.from_one_line(m.group(1))
        else:
            raise ValueError(f"cannot parse factor {factor!r}")
    if perm is None:
        raise ValueError(f"term without basis symbol: {body!r}")
    return perm, mono, sign * mult


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    pieces = re.split(r"\s([+-])\s", " " + text if text[0] in "+-" else "+ " + text)
    # re.split with a captured group yields [first, sep, term, sep, term, ...]
    first = pieces[0].strip()
    out: list[tuple[int, str]] = []
    if first.startswith("-"):
        out.append((-1, first[1:].strip()))
    elif first:
        out.append((1, first.lstrip("+ ").strip()))
    for sep, term in zip(pieces[1::2], pieces[2::2]):
        out.append((1 if sep == "+" else -1, term.strip()))
    return [(s, t) for s, t in out if t]


@lru_cache(maxsize=None)
def _pieri_rows(w: Permutation, k: int) -> tuple[tuple[Permutation, QMonomial, tuple[int, ...]], ...]:
    """
    (end, Q-weight, coefficient of each degree p = 0..k) for every term of
    G[w] * G^k_p, from one walk over the k-Pieri chains.  Each distinct end
    and monomial is built once and shared by its terms and by every degree;
    an end is a swap of w's window, so it is not re-validated, and it keeps
    the length the walk carried to it.
    """
    rows, lengths = pieri_degree_rows(w, k)
    perms: dict[tuple[int, ...], Permutation] = {}
    monos: dict[tuple[int, ...], QMonomial] = {}
    out = []
    for (window, exps), row in rows.items():
        if not any(row):
            continue
        if window not in perms:
            perms[window] = Permutation._from_swapped(window, lengths[window])
        if exps not in monos:
            monos[exps] = QMonomial(tuple((v, e) for v, e in enumerate(exps, 1) if e))
        out.append((perms[window], monos[exps], tuple(row)))
    return tuple(out)


@lru_cache(maxsize=None)
def pieri_expand(w: Permutation, k: int, p: int) -> Expansion:
    """
    Expand G[w] * G^k_p in the formal basis: the signed, marking-counted,
    Q-weighted sum over k-Pieri chains from w carrying a p-marking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= p <= k:
        raise ValueError(f"p must be in 0..{k}, got {p}")
    return _accumulate((u, mono, row[p]) for u, mono, row in _pieri_rows(w, k) if row[p])


@lru_cache(maxsize=None)
def monk_lhs_expand(x: Permutation, k: int) -> Expansion:
    """Expand (1 - Q_k)(1 - x_k) G[x] via k-Monk chains from x."""
    return _accumulate(
        (m.end, q_weight(m.path), (-1) ** m.t) for m in enumerate_monk_chains(x, k)
    )


def expand_product_chain(w: Permutation, factors: list[tuple[int, int]]) -> Expansion:
    """
    Left-fold expansion of G[w] * prod of column factors: each (k, p) factor
    replaces every basis term by its own expansion, coefficients carried
    through exactly.
    """
    out = Expansion.basis(w)
    for k, p in factors:
        out = out.map_basis(lambda u, k=k, p=p: pieri_expand(u, k, p))
    return out

