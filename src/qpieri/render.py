"""
Text tables for chains and markings, in the style of the worked examples:

    p | Mark_2(p) | ed(p)
    (321 ; -) | - | 321
    (321 ; (1,4)_B, (2,4)_B) | {(1,4),(2,4)} | 4312

One row per chain, in enumeration (depth-first) order; the marking column
lists every p-marking with labels in chain order, or '-' when there is
none.
"""

from __future__ import annotations

from .chains import enumerate_markings, enumerate_pieri_chains
from .permutations import Permutation
from .qbg import format_path


def format_marking(labels_in_order, marking) -> str:
    inside = ",".join(f"({a},{b})" for a, b in labels_in_order if (a, b) in marking)
    return "{" + inside + "}"


def format_table_rows(w: str, p: int, rows) -> str:
    lines = [f"p | Mark_{p}(p) | ed(p)"]
    for labels, kinds, markings, end in rows:
        chain_text = format_path(w, labels, kinds)
        if markings:
            mark_text = ", ".join(format_marking(labels, set(m)) for m in markings)
        else:
            mark_text = "-"
        lines.append(f"{chain_text} | {mark_text} | {end}")
    return "\n".join(lines) + "\n"


def chain_rows(w: Permutation, k: int, p: int):
    """
    (chain, p-markings) for every k-Pieri chain from w, in enumeration
    order; each marking is the tuple of its labels in chain order.
    """
    for chain in enumerate_pieri_chains(w, k):
        markings = tuple(
            tuple(lab for lab in chain.labels if lab in m)
            for m in enumerate_markings(chain, p)
        )
        yield chain, markings


def chains_table(w: Permutation, k: int, p: int) -> str:
    rows = [
        (chain.labels, [kind.symbol for kind in chain.path.kinds], markings, chain.end.one_line())
        for chain, markings in chain_rows(w, k, p)
    ]
    return format_table_rows(w.one_line(), p, rows)


def markings_table(w: Permutation, k: int, p: int) -> str:
    """One row per (chain, marking) pair; chains without p-markings are skipped."""
    lines = [f"p | marking | ed(p)"]
    for chain, markings in chain_rows(w, k, p):
        for m in markings:
            lines.append(f"{chain.path.render()} | {format_marking(chain.labels, m)} | {chain.end.one_line()}")
    return "\n".join(lines) + "\n"
