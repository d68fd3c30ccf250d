"""
The eighteen matchings.

On the clean part of the grid — both marking levels at column 2, and the
levels at column 3 where no forced-marking collision occurs — every map is
a verified bijection with its weight law, inverses compose to the
identity, and the border swaps are involutions.

The remaining instances are genuine counterexamples to the written
constructions, all with one root cause: a chain whose initial run has one
column and strictly decreasing rows forces every run label into each of
its markings, so a construction that transfers a marking unchanged (or
drops to zero marks on a nonempty chain) can land outside the universe.
`test_failure_inventory` pins the complete list so any drift is visible.
"""

from __future__ import annotations

import collections
import re

import pytest

from qpieri.chains import PieriChain, is_marking
from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit import MATCHINGS, apply_bijection
from qpieri.proofkit import bijections as bij
from qpieri.proofkit.classify import classify
from qpieri.proofkit.universe import MarkedChain, PairedChain, enumerate_paired
from qpieri.qbg import validate_path
from qpieri.verify import SuiteReport, check_bijections_grid

P = Permutation.from_one_line


def _grid_failures(k, p):
    rep = SuiteReport("grid", "probe")
    for w in all_permutations(3):
        check_bijections_grid(rep, w, k, p)
    return rep


def test_column2_top_level_grid_is_clean():
    rep = _grid_failures(2, 2)
    assert rep.failures == []
    assert rep.checked > 600


def test_column3_top_level_grid_failures_are_only_the_known_family():
    rep = _grid_failures(3, 3)
    kinds = collections.Counter(f.split("[")[0] for f in rep.failures)
    assert set(kinds) == {"chi6"}
    assert kinds["chi6"] == 4


def test_failure_inventory():
    """Complete (map, k, p) failure inventory over the verification grid."""
    inventory = {}
    for k in (2, 3):
        for p in range(1, k + 1):
            rep = _grid_failures(k, p)
            kinds = collections.Counter(f.split("[")[0] for f in rep.failures)
            if kinds:
                inventory[(k, p)] = dict(sorted(kinds.items()))
    assert inventory == {
        (2, 1): {"chi1": 1, "chi2": 6, "chi4": 6, "chi5": 2, "pi1": 6, "pi2": 6},
        (3, 1): {"chi2": 6, "chi4": 6, "pi1": 6, "pi2": 6, "theta1": 3, "theta3": 3},
        (3, 2): {"chi2": 6, "chi4": 3, "chi6": 1, "theta3": 3},
        (3, 3): {"chi6": 4},
    }


def test_zero_mark_levels_break_structurally():
    """
    At marking level zero the only marked chain is the empty one, and
    appending a label while keeping zero marks always violates the
    forced-marking condition, so the first stage-1 matching has a
    nonempty domain and an empty codomain.
    """
    w = Permutation.identity()
    k = 2
    universe = enumerate_paired(w, k - 1, 0, k)
    from qpieri.proofkit.classify import dec1_base_top, monk_side

    ax = [q for q in universe if dec1_base_top(q, k) == "A" and monk_side(q, k) == "X"]
    b1y = [q for q in universe if dec1_base_top(q, k) == "B1" and monk_side(q, k) == "Y"]
    assert ax and not b1y
    path = validate_path(w, [(1, 2)])
    assert not is_marking(PieriChain(path, 1), frozenset())


def test_descending_run_counterexample_for_border_swap():
    """
    The minimal border-swap counterexample: moving the row-segment head
    onto the chain extends a one-column descending run, and the forced
    second mark does not exist at this marking level.
    """
    from qpieri.chains import MonkChain

    chain = PieriChain(validate_path(Permutation.identity(), [(2, 3)]), 2)
    q = PairedChain(
        MarkedChain(chain, frozenset({(2, 3)})),
        MonkChain(validate_path(P("132"), [(1, 3)]), 3, 1, 0),
    )
    with pytest.raises(ValueError, match="invalid marking"):
        bij.theta3(q, 3, "Bns1", True)
    # the would-be image marking set is rejected by the marking conditions
    longer = PieriChain(validate_path(Permutation.identity(), [(2, 3), (1, 3)]), 2)
    assert not is_marking(longer, frozenset({(2, 3)}))
    assert not is_marking(longer, frozenset({(1, 3)}))
    assert is_marking(longer, frozenset({(2, 3), (1, 3)}))


def test_column4_grid_exercises_every_border_swap():
    """
    The S_3 grid never populates the second border swap's domain; from the
    start 1342 at column 4 it has four elements and verifies, the
    level-raising swap transports marks on every moved label, and the only
    failures are the known forced-marking family.
    """
    import collections

    from qpieri.proofkit.classify import (
        dec2_base,
        monk_refinement,
        monk_side,
        y3_circle,
        y3_detail,
    )

    w = P("1342")
    k = 4
    dom2 = 0
    for g in (1, 2):
        for q in enumerate_paired(w, k - 1, g, k):
            if monk_side(q, k) != "Y" or not dec2_base(q, k).startswith("Bns"):
                continue
            if monk_refinement(q, k) == "Y3" and y3_detail(q, k) == "(1)":
                dom2 += y3_circle(q, k) == "c2"
    assert dom2 == 4

    rep = SuiteReport("grid", "probe")
    for p in (2, 3, 4):
        check_bijections_grid(rep, w, k, p)
    kinds = collections.Counter(f.split("[")[0] for f in rep.failures)
    assert set(kinds) == {"theta3", "chi2", "chi4", "chi6"}
    assert "theta2" not in kinds and "theta4" not in kinds


def test_column4_repeated_row_frontier():
    """
    From the start 321 at column 4, level-2 chains can share several rows
    between their two lowest column segments, or hand the raising swap a
    Monk head whose row reappears later in the run.  The rewrites behind
    the overlap maps assume a single shared row, and the raising swap
    assumes the head row is below the stop label's row; both assumptions
    fail here and the maps refuse with the violated guarantee named.
    """
    import collections

    rep = SuiteReport("grid", "probe")
    for p in (2, 3, 4):
        check_bijections_grid(rep, P("321"), 4, p)
    kinds = collections.Counter(f.split("[")[0] for f in rep.failures)
    assert set(kinds) == {"pi7", "pi8", "theta4", "chi2", "chi6"}
    overlap = [f for f in rep.failures if "overlap structure" in f]
    monk_head = [f for f in rep.failures if "not strictly decreasing" in f]
    assert overlap and monk_head


def test_level_raising_swap_transports_head_marks():
    """
    A fully forced two-label run at the down level raises with all of its
    marks following their labels to the new column.
    """
    from qpieri.chains import MonkChain

    chain = PieriChain(validate_path(P("1342"), [(2, 3), (1, 3)]), 2)
    q = PairedChain(
        MarkedChain(chain, frozenset({(2, 3), (1, 3)})),
        MonkChain(validate_path(P("3412"), [(4, 5)]), 4, 0, 1),
    )
    img = bij.theta4(q, 4)
    assert img.chain.labels == ((1, 4), (3, 4), (2, 4))
    assert set(img.marking) == {(1, 4), (2, 4), (3, 4)}
    assert bij.theta4_inv(img, 4) == q


NAMES = (
    [f"pi{i}" for i in range(1, 9)]
    + [f"theta{i}" for i in range(1, 5)]
    + [f"chi{i}" for i in range(1, 7)]
)
# the S_3 grid of the bijections suite, plus the column-4 start that
# populates the second border swap's domain
GRID = [(w, k, p) for w in all_permutations(3) for k in (2, 3) for p in range(1, k + 1)]
GRID += [(P("1342"), 4, p) for p in (2, 3, 4)]


def _round_trip_element(m):
    """(k, x, image) for the first domain element on the grid that `m` maps back."""
    side = m.domain
    u = side.universe
    for w, k, p in GRID:
        for anchor in ((p - 1, p) if u.per_g else (p,)):
            for x in u.elements(w, k, anchor):
                if not side.tags(classify(x, u.stage, k)):
                    continue
                if side.test is not None and not side.test(x, k):
                    continue
                try:
                    img = m.forward(x, k)
                    if m.inverse(img, k) == x:
                        return k, x, img
                except (ValueError, RuntimeError):
                    continue
    raise AssertionError(f"{m.name}: no round-tripping domain element on the grid")


def test_registry_names_the_eighteen_matchings():
    assert list(MATCHINGS) == NAMES
    for name, m in MATCHINGS.items():
        assert m.name == name
        assert len(m.codomain) == len(m.sign) == (2 if m.shape == bij.SPLIT else 1)
        if m.shape == bij.INVOLUTION:
            assert m.codomain == (m.domain,) and m.inverse is m.forward


def test_apply_bijection_dispatcher():
    """
    Every name and its '-inv' form dispatch to the registry entry the
    suite checks, on one grid element of the map's domain.
    """
    for name in NAMES:
        m = MATCHINGS[name]
        k, x, img = _round_trip_element(m)
        assert apply_bijection(name, x, k) == img, name
        assert apply_bijection(name + "-inv", img, k) == x, name
        assert apply_bijection(name, img, k, inverse=True) == x, name
        if name not in ("theta1", "theta2", "theta3"):
            # the plain maps take (element, k): the registry adds nothing to them
            assert getattr(bij, name)(x, k) == img, name
            assert getattr(bij, name + "_inv")(img, k) == x, name
    for bad in ("pi9", "pi9-inv", "theta", "chi0"):
        with pytest.raises(ValueError, match="unknown matching"):
            apply_bijection(bad, None, 2)


def test_theta_involutions_on_clean_grid():
    from qpieri.proofkit.classify import dec2_base, monk_refinement, monk_side

    for w in all_permutations(3):
        for g in (1, 2):
            for q in enumerate_paired(w, 1, g, 2):
                if monk_side(q, 2) == "X":
                    continue
                base = dec2_base(q, 2)
                ref = monk_refinement(q, 2)
                in_ca = (base in ("A1", "A3") and ref == "Y3") or base == "A2"
                if in_ca:
                    img = bij.theta1(q, 2, base)
                    assert bij.theta1(img, 2, dec2_base(img, 2)) == q
