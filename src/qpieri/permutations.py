"""
Elements of the infinite symmetric group S_oo, stored as finite one-line
windows with an implicit identity tail.

A window (a_1, ..., a_n) denotes the bijection w of {1, 2, ...} with
w(i) = a_i for i <= n and w(j) = j for j > n.  Windows are kept canonical:
trailing fixed points are trimmed, so structural equality of windows is
equality in S_oo.

An element is an immutable value with slots and no `__dict__`.  Its
length (number of inversions) is computed on first use and kept on the
instance; a window made by swapping two entries of a permutation (`apply`,
the ends of the chain walk) is built without re-validation and may bring
its length along.

Transpositions (a, b) with a < b act on the right by swapping positions,
i.e. (w * (a,b))(a) = w(b).  They double as edge labels of the quantum
Bruhat graph; `label_precedes` is the total order used by the chain
conditions: (a,b) comes before (c,d) iff b > d, or b = d and a < c.

>>> w = Permutation.from_one_line("321")
>>> w.length()
3
>>> w.apply((1, 4)).one_line()
'4213'
>>> cyclic_permutation(2, 2).one_line()
'231'
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

# A transposition (a, b) with 1 <= a < b, used as a QBG edge label.
Label = tuple[int, int]


def count_inversions(values: Sequence[int]) -> int:
    """The number of pairs i < j with values[i] > values[j], for distinct values >= 0."""
    # each entry, read from the right, adds the smaller ones after it: the
    # set bits below its own in the mask of the entries read so far
    count = 0
    seen = 0
    for v in reversed(values):
        count += (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
    return count


# byte v -> the ASCII digit of v, for v in 1..9 (`Permutation.one_line`)
_DIGITS = bytes.maketrans(bytes(range(1, 10)), b"123456789")


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1, 2, ...} fixing all but finitely many points."""

    window: tuple[int, ...]
    # the number of inversions, filled on first use (or by `_from_swapped`)
    _length: int | None = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        win = tuple(self.window)
        n = len(win)
        if sorted(win) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation window: {win}")
        while win and win[-1] == len(win):
            win = win[:-1]
        object.__setattr__(self, "window", win)

    @classmethod
    def _from_swapped(cls, values: Sequence[int], length: int | None = None) -> Permutation:
        """
        The element with window `values`, trimmed but not validated: the
        caller made `values` by swapping entries of a permutation window,
        and `length`, if given, is its number of inversions.
        """
        n = len(values)
        while n and values[n - 1] == n:
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "window", tuple(values[:n]))
        object.__setattr__(self, "_length", length)
        return self

    @classmethod
    def identity(cls) -> Permutation:
        return cls(())

    @classmethod
    def from_one_line(cls, text: str) -> Permutation:
        """Parse '4213' (digits, n <= 9) or '10,2,3,...' (comma separated)."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation")
        if "," in text:
            values = tuple(int(part) for part in text.split(","))
        else:
            values = tuple(int(ch) for ch in text)
        return cls(values)

    def one_line(self) -> str:
        """One-line text form; identity prints as '1'."""
        win = self.window or (1,)
        if len(win) <= 9:
            # every entry is one digit: translate the bytes of the window
            return bytes(win).translate(_DIGITS).decode()
        return ",".join(map(str, win))

    def __call__(self, i: int) -> int:
        if i <= 0:
            raise ValueError(f"positions are 1-based, got {i}")
        return self.window[i - 1] if i <= len(self.window) else i

    @property
    def support(self) -> int:
        """Minimal n with this element in S_n (1 for the identity)."""
        return max(len(self.window), 1)

    def is_identity(self) -> bool:
        return not self.window

    def length(self) -> int:
        """Number of inversions, counted on the first call only."""
        ell = self._length
        if ell is None:
            ell = count_inversions(self.window)
            object.__setattr__(self, "_length", ell)
        return ell

    def apply(self, label: Label) -> Permutation:
        """Right action: self * (a,b), swapping the values at positions a, b."""
        a, b = label
        if not 1 <= a < b:
            raise ValueError(f"bad transposition {label}")
        values = list(self.window)
        values.extend(range(len(values) + 1, b + 1))
        values[a - 1], values[b - 1] = values[b - 1], values[a - 1]
        return Permutation._from_swapped(values)

    def extended(self, n: int) -> tuple[int, ...]:
        """The window padded with fixed points up to length n."""
        return tuple(self.window) + tuple(range(len(self.window) + 1, n + 1))

    def in_s_n(self, n: int) -> bool:
        return len(self.window) <= n

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """(length, window): the canonical output order for basis elements."""
        return (self.length(), self.window)

    # Written out instead of generated: the generated methods build a
    # 1-tuple (window,) on every call.  The hash is not kept in a slot,
    # since a cached int per instance costs more memory than it saves time.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()})"


def all_permutations(n: int) -> list[Permutation]:
    """All elements of S_n (as elements of S_oo), in lexicographic window order."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def cyclic_permutation(k: int, p: int) -> Permutation:
    """
    The cycle c[k,p] mapping k-p+1 -> k-p+2 -> ... -> k+1 -> k-p+1;
    the index of the Pieri factor of degree p at column k.

    >>> cyclic_permutation(3, 2).one_line()
    '1342'
    >>> cyclic_permutation(5, 0).is_identity()
    True
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= p <= k:
        raise ValueError(f"p must be in 0..k, got p={p}, k={k}")
    if p == 0:
        return Permutation.identity()
    values = list(range(1, k + 2))
    for i in range(k - p + 1, k + 1):
        values[i - 1] = i + 1
    values[k] = k - p + 1
    return Permutation(tuple(values))


def label_precedes(s: Label, t: Label) -> bool:
    """
    Strict total order on labels: (a,b) before (c,d) iff b > d,
    or b = d and a < c.

    >>> label_precedes((1, 4), (1, 3))
    True
    >>> label_precedes((1, 3), (2, 3))
    True
    >>> label_precedes((2, 3), (2, 3))
    False
    """
    (a, b), (c, d) = s, t
    return b > d or (b == d and a < c)


def label_sort_key(label: Label) -> tuple[int, int]:
    """Sort key realizing `label_precedes` (smaller key = earlier)."""
    a, b = label
    return (-b, a)

