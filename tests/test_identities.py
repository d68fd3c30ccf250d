"""Assembled expansion identities over the paired universes."""

from __future__ import annotations

import collections

from qpieri.expansion import Expansion, monk_lhs_expand, pieri_expand
from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit import identities
from qpieri.proofkit.identities import (
    check_divisor_compatibility,
    check_grand_cancellation,
    check_stage1_identity,
    check_stage2_identity,
    stage2_pieces,
)
from qpieri.proofkit.universe import enumerate_marked, enumerate_paired, sum_weights, weight
from qpieri.qbg import pack_monomial, q_weight
from qpieri.verify import run_suite

P = Permutation.from_one_line


def test_divisor_compatibility_all_levels():
    for w in all_permutations(3):
        for k in (2, 3):
            for p in range(1, k + 1):
                for h, g in ((k - 1, p - 1), (k - 1, p), (k - 2, p - 1), (k - 2, p - 2)):
                    assert check_divisor_compatibility(w, h, g, k), (w, h, g, k)


def test_stage_identities_hold_above_the_base_level():
    for w in all_permutations(3):
        assert check_stage1_identity(w, 2, 2)
        assert check_stage2_identity(w, 2, 2)
        assert check_grand_cancellation(w, 2, 2)
        assert check_stage1_identity(w, 3, 2)
        assert check_stage1_identity(w, 3, 3)
        assert check_stage2_identity(w, 3, 3)
        assert check_grand_cancellation(w, 3, 3)


def test_stage_identities_fail_at_the_base_level():
    """
    At degree one the machinery's lowest marking level is zero, where the
    matchings are structurally broken (see test_proofkit_bijections), and
    the assembled identities genuinely do not hold; pin one witness.
    """
    w = Permutation.identity()
    assert not check_stage1_identity(w, 2, 1)
    assert not check_stage2_identity(w, 2, 1)
    assert not check_grand_cancellation(w, 2, 1)


def test_stage2_residual_at_column3_is_the_unpaired_border_class():
    """
    At column 3, degree 2, the stage-2 identity misses by exactly the
    weight sum of the border-swap class whose partners are forced out of
    the universe; pin the residual for the identity start.
    """
    w, k, p = Permutation.identity(), 3, 2
    pieces = stage2_pieces(w, k, p)
    assert list(pieces) == ["A1Y2", "E", "A1empty", "G", "A1Y2_P1", "E_P1", "F1", "F21", "F22"]
    residual = pieri_expand(w, k, p) - sum(pieces.values(), Expansion.zero())
    assert not residual.is_zero()
    # the residual involves only unit coefficients on a handful of symbols
    assert all(
        all(abs(c) == 1 for c in poly.terms.values())
        for poly in residual.terms.values()
    )


def test_ledger_failures_over_s4_beyond_column2(classified):
    """
    Over S_4 at columns 2..4 and every degree, the stage-1 identity fails
    for every start at degree 1 only; stage 2 and the grand cancellation
    fail at the same instances, also at degrees 2 and 3 from column 3 on.
    The three checks of one grid point (w, k) share one classification.
    """
    instances = [(w, k, p) for w in all_permutations(4) for k in (2, 3, 4) for p in range(1, k + 1)]
    assert len(instances) == 216
    outcomes = [
        (check_stage1_identity(*i), check_stage2_identity(*i), check_grand_cancellation(*i))
        for i in instances
    ]
    stage1 = [(k, p) for (w, k, p), (ok, _, _) in zip(instances, outcomes) if not ok]
    stage2 = [(w, k, p) for (w, k, p), (_, ok, _) in zip(instances, outcomes) if not ok]
    grand = [(w, k, p) for (w, k, p), (_, _, ok) in zip(instances, outcomes) if not ok]
    assert collections.Counter(stage1) == {(2, 1): 24, (3, 1): 24, (4, 1): 24}
    assert collections.Counter((k, p) for _, k, p in stage2) == {
        (2, 1): 24, (3, 1): 24, (3, 2): 12, (4, 1): 24, (4, 2): 20, (4, 3): 4,
    }
    assert grand == stage2
    assert classified and len(set(classified)) == len(classified)


def test_each_instance_sums_its_stage2_right_hand_side_once(monkeypatch):
    summed = []
    pieces = identities.stage2_pieces

    def recorded(w, k, p):
        summed.append((w, k, p))
        return pieces(w, k, p)

    monkeypatch.setattr(identities, "stage2_pieces", recorded)
    identities._stage2_rhs.cache_clear()
    report = run_suite("ledger")
    assert (report.checked, len(report.failures)) == (84, 18)
    assert summed == [(w, 2, p) for w in all_permutations(3) for p in (1, 2)]
    summed.clear()
    instances = [(w, k, p) for w in all_permutations(3) for k in (2, 3) for p in range(1, k + 1)]
    for i in instances:
        assert check_stage2_identity(*i) == check_grand_cancellation(*i), i
    assert summed == instances


def test_monk_compatibility_is_the_divisor_product():
    # the paired-universe sum is literally the divisor product of the expansion
    w = P("321")
    for h, g in ((1, 1), (1, 0)):
        universe = enumerate_paired(w, h, g, 2)
        lhs = sum_weights(universe)
        base = pieri_expand(w, h, g) if g <= h else Expansion.zero()
        rhs = base.map_basis(lambda u: monk_lhs_expand(u, 2))
        assert lhs == rhs


# --- frozen copies of the weights before `weight` read g off the marking ---


def _old_weight(q, g):
    exponent = len(q.chain) - g + q.monk.t
    return -1 if exponent % 2 else 1, q_weight(q.chain.path) * q_weight(q.monk.path), q.end


def _old_marked_weight(mc, g):
    exponent = len(mc.chain) - g
    return -1 if exponent % 2 else 1, q_weight(mc.chain.path), mc.end


def _packed(sign, mono, basis):
    return sign, pack_monomial(mono), basis


def test_weight_matches_the_frozen_weights():
    """Every level (h, g) the identities and the matchings read, for w in S_3."""
    seen = 0
    for w in all_permutations(3):
        for k in (2, 3):
            for g in range(-1, k + 1):
                for h in (k - 2, k - 1):
                    for q in enumerate_paired(w, h, g, k):
                        assert weight(q) == _packed(*_old_weight(q, g)), q
                        seen += 1
                for mc in enumerate_marked(w, k, g):
                    assert weight(mc) == _packed(*_old_marked_weight(mc, g)), mc
                    seen += 1
    assert seen > 800
