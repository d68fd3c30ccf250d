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
the first product at once.  Its terms are cached per (window of w, k)
(`_pieri_rows`) as three flat columns, one term per chain: the windows of
the ends, their packed Q-weights, and one weight code per term, whose
degree-p coefficient `chains.weight_column(k, p)` holds; the code layout
is known to `chains` alone.  The ends are interned across walks
(`chains._ends`), the Monk walk of `monk_lhs_expand` included, so every
cached row and every Expansion key built from them shares one window
tuple per permutation.
One Pieri step, `_times_factor(terms, k, p)`, is the only reader of the
rows: it multiplies packed terms by G^k_p, adding g times each term of
u's rows with a nonzero degree-p weight for each term g * G[u].  Degree 0
reads no rows: G^k_0 = G[id] = 1, since the first label of every
nonempty chain is forced, so the step returns its terms as they are.
`pieri_expand(w, k, p)` is the step on G[w] alone, and a product of
factors (`expand_product_chain`) takes it once per factor, never reading
`pieri_expand`'s per-degree cache, so that cache keeps only the 8 latest
(w, k, p).  By the sign law (`chains` module docstring) no coefficient
the step sums cancels, so its accumulator is wrapped as it stands.
`clear_caches` empties the rows, both per-call caches, the weight
columns, the walks' tables and the interned ends together.

Coefficient arithmetic is exact integer throughout; an Expansion is a
finite map from basis permutations to Z[Q]-polynomials with no zero
entries, so equality of expansions is structural equality.  Expansions
and Z[Q]-polynomials are immutable values: `terms` is a read-only view and
every operation returns a new value.

Representation.  Inside `Expansion` a basis term is keyed by the trimmed
window of its permutation, a plain tuple, so every sum and product hashes
and compares its keys in C; the rows hand over the windows the walks
interned, so a key is the very tuple its `chains._ends` entry wraps.
`Permutation` is the type of the public boundary: the constructor,
`basis` and `add_term` take the window of the permutation given, and
`terms`, `at_q0`, `sorted_terms` and the argument of `map_basis`'s
callback give, for each window, its `_ends` entry, so a caller gets the
object the walks built.  A window no walk reached (of a parsed or loaded
expansion, say) gets its entry when it is first read there, built
unvalidated around the window, which came from a validated one, with its
length counted once (`chains._interned_end`).
A Z[Q]-polynomial is a dict from packed monomials to nonzero ints: the
exponent of Q_v sits in bits S(v-1) .. Sv-1 of one int,
S = `qbg.Q_STRIDE` = 32, so the product of two monomials is one integer
addition and the monomial 1 is the key 0.  The chain walk hands its
Q-weights over already packed.  `QMonomial` is the type of the public
boundary: the constructors, `terms`, `sorted_terms`, the text and JSON
forms pack or unpack there.

Arithmetic.  Two primitives take every sum and product that can cancel.
`_fold(pairs)` sums (window, packed polynomial) pairs and drops zero
coefficients: sums and differences of expansions, `add_term`,
`map_basis`, parsing, and every sum of single terms, each a one-term
pair (window, {key: c}).  `_product(f, g)` is the one overflow-checked
product of two packed polynomials: `QPolynomial.__mul__`, the scalings of an
expansion (`_times`, one product per basis term, so nothing to sum) and
each image of `map_basis` take it.  The Pieri step multiplies g's
monomials into the rows' Q-weights inline, under the same guard; both
raise the one error `_overflow` builds.  A term of g with monomial 1
keeps the row's own Q-weight as its key, the very int the walk stored.

Overflow guard.  Packing accepts Q_1 .. Q_1024 only, with exponents below
2^(S-1) (`qbg.pack_monomial`, ValueError otherwise).  Invariant: every
field of every stored key is below 2^(S-1).  Then each field of the sum of
two keys is below 2^S, so no carry crosses a field boundary, and the sum
is the product monomial exactly when no field has reached 2^(S-1), that is
when `key & qbg.Q_HIGH_BITS` is 0.  Every key made by an addition is
tested, and OverflowError raised otherwise, so a carried monomial is
never returned and the invariant holds for the next product; a row's own
Q-weight is a stored key, so it needs no test.

Text form: "G[4312] - Q1*Q2*G[1342] + 2*Q3*G[431625]", terms ordered by
(length, window) of the basis permutation.  Machine form (JSON):
[{"perm": "4312", "terms": [{"q": [[1,1],[2,1]], "c": -1}]}].  `render`,
`to_json` and `sorted_terms` take the basis terms in output order
(`_in_output_order`): two sorts in C, of the windows and then, stably, of
their lengths.  A length is read from the window's `_ends` entry; a
window no walk reached has its length counted when its entry is built,
at its first read, so a second render counts none.  A one-monomial
coefficient needs no sort, and each distinct monomial is formatted once
per call.  The window text comes from `Permutation.one_line`, which
translates the bytes of a window of at most 9 entries through a digit
table.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType

from .chains import _ends, _interned_end, _interned_window, _monk_walk, _walk_tables, pieri_degree_rows, weight_column
from .permutations import Permutation, check_factor
from .qbg import Q_HIGH_BITS, QMonomial, pack_monomial, unpack_monomial

# a Z[Q]-polynomial as packed monomial -> nonzero coefficient
_Packed = dict[int, int]
# a basis term inside the engine: the trimmed window of its permutation
_Window = tuple[int, ...]
# the stored length of a permutation the walks built, read in C
_LENGTH = attrgetter("_length")


class QPolynomial:
    """Immutable sparse polynomial in Q_1, Q_2, ... with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[QMonomial, int] | None = None):
        self._terms: _Packed = {pack_monomial(m): c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def _of(cls, packed: _Packed) -> QPolynomial:
        """Wrap packed coefficients (no zeros; shared, never mutated)."""
        poly = cls.__new__(cls)
        poly._terms = packed
        return poly

    @property
    def terms(self) -> Mapping[QMonomial, int]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType({unpack_monomial(key): c for key, c in self._terms.items()})

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls._of({})

    @classmethod
    def from_int(cls, c: int) -> QPolynomial:
        return cls._of({0: c} if c else {})

    @classmethod
    def monomial(cls, mono: QMonomial, c: int = 1) -> QPolynomial:
        return cls({mono: c})

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: QPolynomial) -> QPolynomial:
        # the coefficient of G[id] in the fold of self * G[id] + other * G[id]
        return QPolynomial._of(_fold([((), self._terms), ((), other._terms)])._terms.get((), {}))

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        return self + other.scaled(-1)

    def __mul__(self, other: QPolynomial) -> QPolynomial:
        return QPolynomial._of(_product(self._terms, other._terms))

    def scaled(self, c: int) -> QPolynomial:
        return QPolynomial._of({key: c * v for key, v in self._terms.items()} if c else {})

    def times_monomial(self, mono: QMonomial) -> QPolynomial:
        return self * QPolynomial.monomial(mono)

    def at_q0(self) -> int:
        """Constant term (all Q variables set to 0)."""
        return self._terms.get(0, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[QMonomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

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


class Expansion:
    """An immutable finite Z[Q]-linear combination of basis symbols G[u]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Permutation, QPolynomial] | None = None):
        self._terms: dict[_Window, _Packed] = {
            u.window: c._terms for u, c in (terms or {}).items() if c._terms
        }

    @classmethod
    def _of(cls, packed: dict[_Window, _Packed]) -> Expansion:
        """Wrap packed coefficients (no zeros; shared, never mutated)."""
        out = cls.__new__(cls)
        out._terms = packed
        return out

    @property
    def terms(self) -> Mapping[Permutation, QPolynomial]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType({_basis(u): QPolynomial._of(poly) for u, poly in self._terms.items()})

    @classmethod
    def zero(cls) -> Expansion:
        return cls._of({})

    @classmethod
    def basis(cls, u: Permutation) -> Expansion:
        return cls._of({u.window: {0: 1}})

    def _times(self, factor: _Packed) -> Expansion:
        # each basis term is scaled once, so there is nothing to sum
        products = ((u, _product(coeff, factor)) for u, coeff in self._terms.items())
        return Expansion._of({u: poly for u, poly in products if poly})

    def __add__(self, other: Expansion) -> Expansion:
        return _fold([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: Expansion) -> Expansion:
        return self + other.scaled_int(-1)

    def scaled_int(self, c: int) -> Expansion:
        return self._times({0: c} if c else {})

    def scaled(self, poly: QPolynomial) -> Expansion:
        return self._times(poly._terms)

    def times_monomial(self, mono: QMonomial) -> Expansion:
        return self._times({pack_monomial(mono): 1})

    def add_term(self, u: Permutation, sign: int, mono: QMonomial, mult: int = 1) -> Expansion:
        """This expansion plus sign * mult * mono * G[u], as a new value."""
        return _fold([*self._terms.items(), (u.window, {pack_monomial(mono): sign * mult})])

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expansion) and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def filter_s_n(self, n: int) -> Expansion:
        """Quotient-ring reduction: drop basis terms outside S_n."""
        return Expansion._of({u: c for u, c in self._terms.items() if len(u) <= n})

    def at_q0(self) -> dict[Permutation, int]:
        return {_basis(u): c[0] for u, c in self._terms.items() if c.get(0)}

    def sorted_terms(self) -> list[tuple[Permutation, QPolynomial]]:
        return [(u, QPolynomial._of(poly)) for u, poly in _in_output_order(self._terms)]

    def map_basis(self, fn) -> Expansion:
        """Replace every G[u] by fn(u) (an Expansion), keeping coefficients."""
        return _fold(
            (v, _product(image, coeff))
            for u, coeff in self._terms.items()
            for v, image in fn(_basis(u))._terms.items()
        )

    def _ordered(self) -> Iterator[tuple[Permutation, Iterable[tuple[int, int]]]]:
        """
        (u, (packed monomial, c) pairs) in output order, one basis term at a
        time: basis terms by (length, window) (`_in_output_order`),
        monomials by (degree, exponents); a one-monomial coefficient is not
        sorted.
        """
        for u, poly in _in_output_order(self._terms):
            yield u, poly.items() if len(poly) == 1 else sorted(poly.items(), key=_monomial_order)

    def render(self) -> str:
        if not self._terms:
            return "0"
        memo: dict[int, str] = {}  # packed monomial -> its factor text, once per call
        parts = []
        for u, items in self._ordered():
            basis = f"G[{u.one_line()}]"
            for key, c in items:
                mono = memo.get(key)
                if mono is None:
                    mono = memo[key] = _render_factor(unpack_monomial(key))
                mult = "" if c in (1, -1) else f"{abs(c)}*"
                parts.append(f"{'- ' if c < 0 else '+ '}{mult}{mono}{basis}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text[0] + text[2:]

    def to_json(self) -> str:
        """The JSON text, as `json.dumps` writes the machine form."""
        memo: dict[int, str] = {}  # packed monomial -> its JSON exponents, once per call
        records = []
        for u, items in self._ordered():
            terms = []
            for key, c in items:
                q = memo.get(key)
                if q is None:
                    q = memo[key] = _json_exponents(unpack_monomial(key))
                terms.append(f'{{"q": {q}, "c": {c}}}')
            records.append(f'{{"perm": "{u.one_line()}", "terms": [{", ".join(terms)}]}}')
        return f"[{', '.join(records)}]"

    def to_json_obj(self) -> list[dict]:
        return json.loads(self.to_json())

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> Expansion:
        if not isinstance(obj, list):
            raise ValueError(f"an expansion is a JSON list of records, not {type(obj).__name__}")

        def pairs() -> Iterable[tuple[_Window, _Packed]]:
            for rec in obj:
                try:
                    u = Permutation.from_one_line(rec["perm"]).window
                    terms = [(_json_key(tr["q"]), _json_int(tr["c"])) for tr in rec["terms"]]
                except (KeyError, TypeError, AttributeError, ValueError) as exc:
                    raise ValueError(
                        f"malformed expansion record {json.dumps(rec, default=repr)} ({type(exc).__name__}: {exc})"
                    ) from None
                for key, c in terms:
                    yield u, {key: c}

        return _fold(pairs())

    @classmethod
    def from_json(cls, text: str) -> Expansion:
        return cls.from_json_obj(json.loads(text))

    @classmethod
    def parse(cls, text: str) -> Expansion:
        """Parse the `render` text form back into an Expansion."""
        text = text.strip()
        if not text.strip("+-"):
            raise ValueError(f"no term to parse in {text!r}")
        if text == "0":
            return cls.zero()
        return _fold(_parse_term(sign, body) for sign, body in _split_signed_terms(text))

    def __repr__(self) -> str:
        return f"Expansion({self.render()})"


def _basis(window: _Window) -> Permutation:
    """The permutation of a basis window: its `_ends` entry, built unvalidated on first use (`chains._interned_end`)."""
    return _interned_end(window)


def _in_output_order(terms: dict[_Window, _Packed]) -> list[tuple[Permutation, _Packed]]:
    """
    (permutation, packed coefficient) of every basis term, by (length,
    window): the term positions sorted by window, then stably by length,
    both sorts in C with C key functions.  Lengths come from the `_ends`
    entries; a window with no entry yet gets one (`_basis`), its length
    counted once for every later call.
    """
    windows = list(terms)
    bases = list(map(_ends.get, windows))
    try:
        lengths = list(map(_LENGTH, bases))
    except AttributeError:  # None, for a window with no entry yet
        bases = list(map(_basis, windows))
        lengths = list(map(_LENGTH, bases))
    order = sorted(range(len(windows)), key=windows.__getitem__)
    order.sort(key=lengths.__getitem__)
    polys = list(terms.values())
    return [(bases[i], polys[i]) for i in order]


def _monomial_order(item: tuple[int, int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(degree, exponents) of a packed monomial, its place within a coefficient."""
    return unpack_monomial(item[0]).sort_key()


def _render_factor(mono: QMonomial) -> str:
    return "" if mono.is_one() else mono.render() + "*"


def _json_exponents(mono: QMonomial) -> str:
    return "[" + ", ".join(f"[{v}, {e}]" for v, e in mono.exponents) + "]"


def _drop_zeros(poly: _Packed) -> _Packed:
    return {key: c for key, c in poly.items() if c} if 0 in poly.values() else poly


def _json_int(x: object) -> int:
    """x if it is a JSON integer; a bool or a float is not."""
    if type(x) is not int:
        raise ValueError(f"{json.dumps(x, default=repr)} is not an integer")
    return x


def _json_key(pairs: Iterable) -> int:
    """The packed monomial of JSON [[variable, exponent], ...], each variable listed once."""
    exps: dict[int, int] = {}
    for v, e in pairs:
        if _json_int(v) in exps:
            raise ValueError(f"Q{v} appears twice")
        exps[v] = _json_int(e)
    return pack_monomial(QMonomial.from_dict(exps))


def _overflow(key: int) -> OverflowError:
    """The error for a product key that the overflow guard refuses."""
    # no field carried, so the key still unpacks to the true product
    return OverflowError(f"exponent past the packed range in {unpack_monomial(key).render()}")


def _product(f: _Packed, g: _Packed) -> _Packed:
    """
    f * g as a new packed polynomial, zero coefficients dropped.  Each
    product of monomials is one integer addition, checked by the overflow
    guard before it is stored.
    """
    out: _Packed = {}
    for k2, c2 in g.items():
        for k1, c1 in f.items():
            key = k1 + k2
            if key & Q_HIGH_BITS:
                raise _overflow(key)
            out[key] = out.get(key, 0) + c1 * c2
    return _drop_zeros(out)


def _fold(pairs: Iterable[tuple[_Window, _Packed]]) -> Expansion:
    """
    The sum of f * G[u] over (window of u, f) pairs of packed
    coefficients, in one dict pass, with zero coefficients dropped.  Every
    sum that can cancel is built here; no f is changed.
    """
    acc: dict[_Window, _Packed] = {}
    for u, f in pairs:
        poly = acc.get(u)
        if poly is None:
            acc[u] = dict(f)
        else:
            for key, c in f.items():
                poly[key] = poly.get(key, 0) + c
    for u in [u for u, poly in acc.items() if not poly or 0 in poly.values()]:
        poly = _drop_zeros(acc[u])
        if poly:
            acc[u] = poly
        else:
            del acc[u]
    return Expansion._of(acc)


def _parse_term(sign: int, body: str) -> tuple[_Window, _Packed]:
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
            if perm is not None:
                raise ValueError(f"term with more than one basis symbol: {body!r}")
            perm = Permutation.from_one_line(m.group(1))
        else:
            raise ValueError(f"cannot parse factor {factor!r}")
    if perm is None:
        raise ValueError(f"term without basis symbol: {body!r}")
    return perm.window, {pack_monomial(mono): sign * mult}


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, body) of every term of a non-empty text; the first sign is optional."""
    # re.split with a captured group yields [term, sep, term, sep, term, ...]
    pieces = re.split(r"\s([+-])\s", text[1:] if text[0] in "+-" else text)
    signs = ["-" if text[0] == "-" else "+", *pieces[1::2]]
    return [(1 if sign == "+" else -1, term.strip()) for sign, term in zip(signs, pieces[::2])]


@lru_cache(maxsize=None)
def _pieri_rows(window: _Window, k: int) -> tuple[tuple[_Window, ...], tuple[int, ...], tuple[int, ...]]:
    """
    The terms of G[w] * G^k_p for every degree p = 0..k, w the permutation
    of this window, as the walk's three flat columns
    (`chains.pieri_degree_rows`), walked once per (window, k).
    """
    return pieri_degree_rows(_basis(window), k)


def clear_caches() -> None:
    """
    Empty the engine's caches together: the Pieri rows, the per-degree
    and Monk expansions, the weight columns, the walks' tables, and the
    ends the walks interned, so no interned end outlives the rows that
    hold it.
    """
    _pieri_rows.cache_clear()
    pieri_expand.cache_clear()
    monk_lhs_expand.cache_clear()
    weight_column.cache_clear()
    _walk_tables.cache_clear()
    _ends.clear()


def _times_factor(terms: dict[_Window, _Packed], k: int, p: int) -> Expansion:
    """
    The Pieri step: the sum of g * G[u] * G^k_p over the (window of u,
    packed g) pairs of terms, the one reader of the cached rows.  For each
    monomial gc * Q^gk of g, one pass over u's rows adds
    gc * c * Q^(gk + q) * G[end] for each term (end, q, code) whose weight
    c = `chains.weight_column(k, p)[code]` is nonzero.  A sum gk + q is
    tested by the overflow guard; for gk = 0 the row's own q is the key.
    Degree 0 is G^k_0 = 1: terms come back as they are, reading no rows.
    No sum cancels (the sign law, `chains` module docstring), so the
    accumulator is wrapped as it stands.
    """
    if not p:
        return Expansion._of(terms)
    column = weight_column(k, p)
    acc: dict[_Window, _Packed] = {}
    for u, g in terms.items():
        ends, qs, codes = _pieri_rows(u, k)
        for gk, gc in g.items():
            for v, q, code in zip(ends, qs, codes):
                c = column[code]
                if c:
                    if gk:
                        q += gk
                        if q & Q_HIGH_BITS:
                            raise _overflow(q)
                    poly = acc.setdefault(v, {})
                    poly[q] = poly.get(q, 0) + gc * c
    return Expansion._of(acc)


@lru_cache(maxsize=8)
def pieri_expand(w: Permutation, k: int, p: int) -> Expansion:
    """
    Expand G[w] * G^k_p in the formal basis: the signed, marking-counted,
    Q-weighted sum over k-Pieri chains from w carrying a p-marking, the
    Pieri step (`_times_factor`) on G[w] alone.
    """
    check_factor(k, p)
    return _times_factor({w.window: {0: 1}}, k, p)


@lru_cache(maxsize=None)
def monk_lhs_expand(x: Permutation, k: int) -> Expansion:
    """
    Expand (1 - Q_k)(1 - x_k) G[x] via k-Monk chains from x, read straight
    from their walk; each end is keyed by its interned `_ends` window, the
    entry built with the length its walk carried.
    """
    return _fold(_monk_walk(
        x, k, lambda window, labels, kinds, t, q, ell: (_interned_window(window, ell), {q: -1 if t % 2 else 1})
    ))


def expand_product_chain(w: Permutation, factors: Iterable[tuple[int, int]]) -> Expansion:
    """
    Left-fold expansion of G[w] * prod of column factors, coefficients
    carried through exactly: every factor is checked before any walk, then
    the Pieri step (`_times_factor`) is taken once per factor, in the
    order given.  The factors are read once, from any iterable.
    `pieri_expand`'s per-degree cache is neither read nor filled.

    >>> w = Permutation.identity()
    >>> expand_product_chain(w, [(1, 1), (1, 1)]).render()
    'Q1*G[1] - Q1*G[132] + G[312]'
    """
    factors = tuple(factors)
    for k, p in factors:
        check_factor(k, p)
    out = Expansion.basis(w)
    for k, p in factors:
        out = _times_factor(out._terms, k, p)
    return out
