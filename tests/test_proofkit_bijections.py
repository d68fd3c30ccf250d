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

from qpieri.chains import MonkChain, PieriChain, is_marking
from qpieri.permutations import Permutation, all_permutations
from qpieri.proofkit import MATCHINGS, apply_bijection
from qpieri.proofkit import bijections as bij
from qpieri.proofkit.classify import classify, dec2_base, monk_refinement
from qpieri.proofkit.universe import MarkedChain, PairedChain, enumerate_marked, enumerate_paired
from qpieri.qbg import validate_path
from qpieri.verify import SuiteReport, check_bijections_grid, run_suite

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
        MonkChain(validate_path(P("132"), [(1, 3)]), 3),
    )
    with pytest.raises(ValueError, match="invalid marking"):
        bij.theta3(q, 3)
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
    assert rep.checked == 1106
    assert kinds == {"chi2": 2, "chi4": 1, "chi6": 3, "theta3": 1}


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
    assert rep.checked == 757
    assert kinds == {"chi2": 2, "chi6": 2, "pi7": 4, "pi8": 4, "theta4": 4}
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
        MonkChain(validate_path(P("3412"), [(4, 5)]), 4),
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
        assert len(m.codomain) == len(m.sign)
    assert [name for name, m in MATCHINGS.items() if len(m.codomain) == 2] == ["chi2", "chi6"]
    involutions = ["theta1", "theta2", "theta3"]
    assert [name for name, m in MATCHINGS.items() if m.inverse is m.forward] == involutions
    assert [name for name, m in MATCHINGS.items() if m.codomain == (m.domain,)] == involutions


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
        # the plain maps take (element, k): the registry adds nothing to
        # them; theta1..theta3 are their own inverses
        assert getattr(bij, name)(x, k) == img, name
        assert getattr(bij, name + "_inv", getattr(bij, name))(img, k) == x, name
    for bad in ("pi9", "pi9-inv", "theta", "chi0"):
        with pytest.raises(ValueError, match="unknown matching"):
            apply_bijection(bad, None, 2)


def test_theta_involutions_on_clean_grid():
    """
    On every element of the three border classes over S_3 at columns 2..4
    that the border swap maps, it maps the image back; half of them move
    the border label onto the Monk chain and half move it back.
    """
    moved = collections.Counter()
    for w in all_permutations(3):
        for k in (2, 3, 4):
            members = bij.membership(w, k)
            for name in ("theta1", "theta2", "theta3"):
                for g in range(k + 1):
                    for q in members(MATCHINGS[name].domain, g):
                        try:
                            img = bij.theta1(q, k)
                        except ValueError:
                            continue
                        assert bij.theta1(img, k) == q, (name, q)
                        moved[name, len(img.chain) < len(q.chain)] += 1
    assert moved == {(name, down): n for name, n in (("theta1", 16), ("theta2", 2), ("theta3", 10))
                     for down in (False, True)}


# the three per-class rules that the border swap replaces, kept as its reference


def _old_border_rows(q, k, after_kk):
    seg = q.chain.segment_after((k - 1, k)) if after_kk else q.chain.segment_labels(k)
    return (seg[-1][0] if seg else 0), (q.monk.labels[0][0] if q.monk.s else 0)


def _old_swap_border(q, k, move_to_monk, row):
    if move_to_monk:
        if q.chain.final_label() != (row, k):
            raise ValueError("chain does not end with the border label")
        return bij._repair(q, q.chain.labels[:-1], q.marking, k - 1, ((row, k),) + q.monk.labels, k)
    _, m_tail = bij._pop_monk_head(q, (row, k))
    return bij._repair(q, q.chain.labels + ((row, k),), q.marking, k - 1, m_tail, k)


def _old_theta1(q, k):
    a, b = _old_border_rows(q, k, after_kk=False)
    if dec2_base(q, k) == "A2" and a > b:
        return _old_swap_border(q, k, True, a)
    return _old_swap_border(q, k, False, b)


def _old_theta2(q, k):
    a, b = _old_border_rows(q, k, after_kk=True)
    if dec2_base(q, k) == "Bns2" and a > b:
        return _old_swap_border(q, k, True, a)
    return _old_swap_border(q, k, False, b)


def _old_theta3(q, k):
    a, b = _old_border_rows(q, k, after_kk=True)
    y3 = monk_refinement(q, k) == "Y3"
    if dec2_base(q, k) == "Bns2" and (not y3 or a > b):
        return _old_swap_border(q, k, True, a)
    return _old_swap_border(q, k, False, b)


def _outcome(f, q, k):
    """The image, or the type and message of what `f` raised."""
    try:
        return f(q, k)
    except Exception as exc:
        return type(exc), str(exc)


def test_one_border_swap_agrees_with_the_three_per_class_rules_over_s4():
    """
    theta1..theta3 are one function; on every element of each class's
    domain over S_4 at columns 2..4 and every marking level it gives the
    old rule's image, or raises what the old rule raised.
    """
    assert bij.theta1 is bij.theta2 is bij.theta3
    seen = collections.Counter()
    for w in all_permutations(4):
        for k in (2, 3, 4):
            members = bij.membership(w, k)
            for name, old in (("theta1", _old_theta1), ("theta2", _old_theta2), ("theta3", _old_theta3)):
                for g in range(k + 1):
                    for q in members(MATCHINGS[name].domain, g):
                        new = _outcome(bij.theta1, q, k)
                        assert new == _outcome(old, q, k), (name, k, g, q)
                        seen[name, isinstance(new, PairedChain)] += 1
    assert seen == {
        ("theta1", True): 876, ("theta1", False): 92,
        ("theta2", True): 28,
        ("theta3", True): 328, ("theta3", False): 92,
    }
    assert sum(seen.values()) == 1416


# each failure of `run_suite("bijections")` up to its first "]", in report order
BIJECTIONS_FAILURES = """
pi1[w=1,k=2,g=0] pi2[w=1,k=2,g=0] chi2[w=1,k=2,p=1] chi4[w=1,k=2,p=1]
pi1[w=1,k=3,g=0] pi2[w=1,k=3,g=0] theta3[w=1,k=3,g=1] chi2[w=1,k=3,p=1]
chi4[w=1,k=3,p=1] theta3[w=1,k=3,g=1] chi2[w=1,k=3,p=2] chi4[w=1,k=3,p=2]
chi6[w=1,k=3,p=3]
pi1[w=132,k=2,g=0] pi2[w=132,k=2,g=0] chi1[w=132,k=2,p=1] chi2[w=132,k=2,p=1]
chi4[w=132,k=2,p=1] chi5[w=132,k=2,p=1] chi5[w=132,k=2,p=1] pi1[w=132,k=3,g=0]
pi2[w=132,k=3,g=0] theta1[w=132,k=3,g=0] chi2[w=132,k=3,p=1] chi4[w=132,k=3,p=1]
chi2[w=132,k=3,p=2] chi6[w=132,k=3,p=2]
pi1[w=21,k=2,g=0] pi2[w=21,k=2,g=0] chi2[w=21,k=2,p=1] chi4[w=21,k=2,p=1]
pi1[w=21,k=3,g=0] pi2[w=21,k=3,g=0] theta1[w=21,k=3,g=0] chi2[w=21,k=3,p=1]
chi4[w=21,k=3,p=1] chi2[w=21,k=3,p=2] chi6[w=21,k=3,p=3]
pi1[w=231,k=2,g=0] pi2[w=231,k=2,g=0] chi2[w=231,k=2,p=1] chi4[w=231,k=2,p=1]
pi1[w=231,k=3,g=0] pi2[w=231,k=3,g=0] theta3[w=231,k=3,g=1] chi2[w=231,k=3,p=1]
chi4[w=231,k=3,p=1] theta3[w=231,k=3,g=1] chi2[w=231,k=3,p=2] chi4[w=231,k=3,p=2]
chi6[w=231,k=3,p=3]
pi1[w=312,k=2,g=0] pi2[w=312,k=2,g=0] chi2[w=312,k=2,p=1] chi4[w=312,k=2,p=1]
pi1[w=312,k=3,g=0] pi2[w=312,k=3,g=0] theta3[w=312,k=3,g=1] chi2[w=312,k=3,p=1]
chi4[w=312,k=3,p=1] theta3[w=312,k=3,g=1] chi2[w=312,k=3,p=2] chi4[w=312,k=3,p=2]
pi1[w=321,k=2,g=0] pi2[w=321,k=2,g=0] chi2[w=321,k=2,p=1] chi4[w=321,k=2,p=1]
pi1[w=321,k=3,g=0] pi2[w=321,k=3,g=0] theta1[w=321,k=3,g=0] chi2[w=321,k=3,p=1]
chi4[w=321,k=3,p=1] chi2[w=321,k=3,p=2] chi6[w=321,k=3,p=3]
""".split()


def test_bijections_suite_fails_at_the_pinned_instances_in_order():
    report = run_suite("bijections")
    assert report.checked == 4705
    assert [f[: f.index("]") + 1] for f in report.failures] == BIJECTIONS_FAILURES


def test_paired_and_marked_chains_hash_by_value():
    universe = enumerate_paired(P("231"), 2, 1, 3)
    assert len(universe) > 1
    # two fresh copies, one new marked chain per element
    a, b = ([PairedChain(MarkedChain(x.chain, x.marking), x.monk) for x in universe] for _ in range(2))
    assert set(a) == set(b) and len(set(a)) == len(universe)
    assert {x.marked for x in a} == {x.marked for x in b}
    assert all(hash(x) == hash(y) == hash(z) and x == y == z for x, y, z in zip(a, b, universe))


def test_no_proof_kit_universe_outlives_its_grid_point(serial_suites):
    run_suite("bijections")
    run_suite("ledger")
    assert enumerate_paired.cache_info().currsize <= 16
    # marked universes are built afresh on every call
    first, again = enumerate_marked(P("231"), 2, 1), enumerate_marked(P("231"), 2, 1)
    assert first and first == again and first is not again
