"""
The successor-order marking condition is load-bearing.

A plausible weakening — markings as arbitrary first-occurrence subsets
containing the forced initial-run labels, dropping the requirement that an
unmarked non-final label precede its successor — reproduces a superset of
markings.  These tests pin decisive instances where the two rules differ
and show that only the implemented rule satisfies the two independent
oracles: the exact classical polynomial identity at Q = 0, and
commutativity of double expansions at full Q.
"""

from __future__ import annotations

from reference import first_occurrences

from qpieri.chains import enumerate_markings, enumerate_pieri_chains
from qpieri.classical import grothendieck_poly, XPolynomial
from qpieri.expansion import Expansion, QPolynomial
from qpieri.golden import EX2, EX2_PUBLISHED_DOUBLED
from qpieri.permutations import Permutation, cyclic_permutation
from qpieri.qbg import EdgeKind, q_weight

P = Permutation.from_one_line

DECISIVE = [
    (P("1342"), 2, 1),
    (P("1243"), 3, 1),
    (P("1243"), 3, 2),
    (P("132"), 3, 1),
    (P("132"), 3, 2),
    (P("1423"), 3, 1),
    (P("4123"), 3, 2),
]


def weakened_marking_count(chain, p):
    """Drop the successor-order condition; keep first-occurrence + initial run."""
    firsts = first_occurrences(chain)
    forced = set()
    labels = chain.labels
    for t in range(1, len(labels) + 1):
        head = labels[:t]
        if all(x[1] == head[0][1] for x in head) and all(
            head[i][0] > head[i + 1][0] for i in range(t - 1)
        ):
            forced.add(head[t - 1])
        else:
            break
    if not forced <= firsts or p < len(forced):
        return 0
    from math import comb

    return comb(len(firsts - forced), p - len(forced))


def q0_terms(w, k, p, count_fn):
    out = {}
    for chain in enumerate_pieri_chains(w, k):
        if any(kind is EdgeKind.QUANTUM for kind in chain.path.kinds):
            continue
        count = count_fn(chain, p)
        if count:
            sign = -1 if (len(chain) - p) % 2 else 1
            out[chain.end] = out.get(chain.end, 0) + sign * count
    return {u: c for u, c in out.items() if c}


def classical_identity_holds(w, k, p, count_fn):
    terms = q0_terms(w, k, p, count_fn)
    lhs = grothendieck_poly(w) * grothendieck_poly(cyclic_permutation(k, p))
    rhs = XPolynomial.zero()
    for u, c in terms.items():
        rhs = rhs + grothendieck_poly(u).scaled(c)
    return lhs == rhs


def test_decisive_instances_differ_between_rules():
    strict = lambda c, p: len(enumerate_markings(c, p))
    for w, k, p in DECISIVE:
        assert q0_terms(w, k, p, strict) != q0_terms(w, k, p, weakened_marking_count)


def test_classical_oracle_selects_the_strict_rule():
    strict = lambda c, p: len(enumerate_markings(c, p))
    for w, k, p in DECISIVE:
        assert classical_identity_holds(w, k, p, strict)
        assert not classical_identity_holds(w, k, p, weakened_marking_count)


def _expand_with(w, k, p, count_fn):
    out = Expansion.zero()
    for chain in enumerate_pieri_chains(w, k):
        count = count_fn(chain, p)
        if count:
            sign = -1 if (len(chain) - p) % 2 else 1
            out = out.add_term(chain.end, sign, q_weight(chain.path), count)
    return out


def _double(w, f1, f2, count_fn):
    first = _expand_with(w, *f1, count_fn)
    out = Expansion.zero()
    for u, coeff in first.terms.items():
        out = out + _expand_with(u, *f2, count_fn).scaled(coeff)
    return out


def test_commutativity_oracle_selects_the_strict_rule():
    strict = lambda c, p: len(enumerate_markings(c, p))
    cases = [
        (P("132"), (3, 1), (2, 1)),
        (P("132"), (3, 2), (2, 2)),
        (P("312"), (3, 2), (1, 1)),
        (P("21"), (3, 2), (2, 1)),
    ]
    for w, f1, f2 in cases:
        assert _double(w, f1, f2, strict) == _double(w, f2, f1, strict)
        assert _double(w, f1, f2, weakened_marking_count) != _double(
            w, f2, f1, weakened_marking_count
        )


def test_ex2_published_second_markings_double_five_coefficients():
    """
    The published table of the 32514 example lists a second marking on the
    chains to five ends.  Counting markings by the weakened rule changes the
    expansion at exactly these five ends, and doubles each coefficient there.
    """
    w, k, p = P(EX2.w), EX2.k, EX2.p
    strict = _expand_with(w, k, p, lambda c, p: len(enumerate_markings(c, p)))
    weak = _expand_with(w, k, p, weakened_marking_count)
    zero = QPolynomial.zero()
    before, after = strict.terms, weak.terms
    differ = {u for u in {*before, *after} if before.get(u, zero) != after.get(u, zero)}
    assert differ == {P(u) for u in EX2_PUBLISHED_DOUBLED}
    for u in differ:
        assert after[u] == before[u].scaled(2)
