"""
The four benchmark workloads: their inputs, the timed operation, and the
checks made on each result outside the timed region.

Each workload is a class with
  build(seed) -> list of operation specs (plain data; the same seed gives
                 the same list)
  run(spec)   -> result                  (the timed call into qpieri)
  summary(spec, result) -> (digest, output terms, suite checks, failure or None)
  check(spec, result)   -> failure or None, by recomputing the result through
                           the reference path; run on a `check_share` sample
The program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random

import qpieri
from qpieri import chains, cli, qbg, verify
from qpieri.permutations import Permutation


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _inversions(window: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(window)), 2) if window[i] > window[j])


def _canonical(expansion) -> dict[tuple[str, tuple], int]:
    """{(basis one-line, Q exponents): coefficient} of an Expansion."""
    return {
        (u.one_line(), mono.exponents): c
        for u, poly in expansion.terms.items()
        for mono, c in poly.terms.items()
    }


def reference_terms(w: Permutation, k: int, p: int) -> dict[tuple[str, tuple], int]:
    """
    The product G[w] * G^k_p recomputed from the reference enumerators
    (every k-Pieri chain, its p-markings), with the sign and the Q-weight
    computed here rather than by the expansion engine.
    """
    out: dict[tuple[str, tuple], int] = {}
    for chain in chains.enumerate_pieri_chains(w, k):
        count = len(chains.enumerate_markings(chain, p))
        if not count:
            continue
        exps: dict[int, int] = {}
        for (a, b), kind in zip(chain.path.labels, chain.path.kinds):
            if kind is qbg.EdgeKind.QUANTUM:
                for v in range(a, b):
                    exps[v] = exps.get(v, 0) + 1
        key = (chain.end.one_line(), tuple(sorted(exps.items())))
        sign = -1 if (len(chain.labels) - p) % 2 else 1
        out[key] = out.get(key, 0) + sign * count
    return {key: c for key, c in out.items() if c}


def _mismatch(label: str, got: dict, want: dict) -> str | None:
    if got == want:
        return None
    return f"{label}: result ({len(got)} terms) differs from the reference ({len(want)} terms)"


class ExpandCli:
    """
    120 distinct `qpieri expand` requests on long permutations of S_7 and S_8.

    The requests are one fixed stratified draw, in a fixed order; the seed
    does not change them.  Request costs are heavy-tailed (a few requests on
    S_8 take a large share of the time, and the degree p changes a request's
    cost up to threefold), so a set drawn afresh for every seed moved wall
    time by about 18% between seeds.  The order decides how full the product
    cache is when the largest request runs, which moved peak memory by up
    to 10% between shuffled orders.
    """

    name = "expand-cli"
    check_share = 1 / 8
    # Requests per (n, k) cell, by length deficit d = max length - length(w).
    # Roughly proportional to how many permutations each d has; d = 0 (the
    # longest element alone) is left out so that one request cannot dominate.
    QUOTA = {1: 1, 2: 2, 3: 5, 4: 12}
    SIZES = (7, 8)
    COLUMNS = (3, 4, 5)
    DRAW_SEED = 0

    def build(self, seed: int) -> list[tuple[str, int, int, str]]:
        rng = random.Random(self.DRAW_SEED)
        by_deficit: dict[int, dict[int, list[str]]] = {}
        for n in self.SIZES:
            top = n * (n - 1) // 2
            cells: dict[int, list[str]] = {d: [] for d in self.QUOTA}
            for win in itertools.permutations(range(1, n + 1)):
                d = top - _inversions(win)
                if d in cells:
                    cells[d].append("".join(map(str, win)))
            by_deficit[n] = cells
        ops = []
        for n in self.SIZES:
            for k in self.COLUMNS:
                ws = [w for d, q in self.QUOTA.items() for w in rng.sample(by_deficit[n][d], q)]
                ps = [p for _ in range(len(ws)) for p in range(k + 1)][: len(ws)]
                fmts = ["text", "json"] * (len(ws) // 2)
                rng.shuffle(ps)
                rng.shuffle(fmts)
                ops += [(w, k, p, f) for w, p, f in zip(ws, ps, fmts)]
        rng.shuffle(ops)
        return ops

    def run(self, spec):
        w, k, p, fmt = spec
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["expand", "--w", w, "--k", str(k), "--p", str(p), "--format", fmt])
        return code, buf.getvalue()

    def summary(self, spec, result):
        code, text = result
        terms = text.count('"c":') if spec[3] == "json" else text.count("G[")
        failure = f"expand {spec}: exit code {code}" if code != 0 else None
        return _digest(f"{code}\n{text}"), terms, 0, failure

    def check(self, spec, result):
        w, k, p, fmt = spec
        text = result[1]
        if fmt == "json":
            got = {
                (rec["perm"], tuple(tuple(q) for q in term["q"])): term["c"]
                for rec in json.loads(text)
                for term in rec["terms"]
            }
        else:
            got = _canonical(qpieri.Expansion.parse(text))
        return _mismatch(f"expand {spec}", got, reference_terms(Permutation.from_one_line(w), k, p))


class SweepS6:
    """Every (w, k, p) with w in S_6, k <= 3, 0 <= p <= k, through pieri_expand."""

    name = "sweep-s6"
    check_share = 1 / 16

    def build(self, seed: int):
        ops = [
            (win, k, p)
            for win in itertools.permutations(range(1, 7))
            for k in (1, 2, 3)
            for p in range(k + 1)
        ]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, spec):
        win, k, p = spec
        return qpieri.pieri_expand(Permutation(win), k, p)

    def summary(self, spec, result):
        canon = _canonical(result)
        return _digest(repr(sorted(canon.items()))), len(canon), 0, None

    def check(self, spec, result):
        win, k, p = spec
        return _mismatch(f"pieri_expand {spec}", _canonical(result), reference_terms(Permutation(win), k, p))


class CommuteS4:
    """Every unordered pair of distinct factors with columns <= 4, over w in S_4."""

    name = "commute-s4"
    check_share = 0.0

    def build(self, seed: int):
        factors = [(k, p) for k in range(1, 5) for p in range(k + 1)]
        ops = [
            (win, f1, f2)
            for win in itertools.permutations(range(1, 5))
            for f1, f2 in itertools.combinations(factors, 2)
        ]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, spec):
        win, f1, f2 = spec
        w = Permutation(win)
        return (
            qpieri.expand_product_chain(w, [f1, f2]),
            qpieri.expand_product_chain(w, [f2, f1]),
        )

    def summary(self, spec, result):
        canon = _canonical(result[0])
        failure = None if canon == _canonical(result[1]) else f"factor order changes the product: {spec}"
        return _digest(repr(sorted(canon.items()))), len(canon), 0, failure


class VerifySuites:
    """
    All ten verify suites at their defaults, plus five larger universes, in
    a fixed order; the seed does not change them.  Suites share the product
    and paired-universe caches, so a shuffled order moved which suite sits
    at the median latency, and the median itself by up to 27%.
    """

    name = "verify-suites"
    check_share = 0.0
    # (suite, max_n) -> (checked, failures) of the current kit.  The failures
    # of `bijections` and `ledger` are the documented counterexamples of the
    # source paper (acceptance criteria 06 and 07), so they are expected.
    INVENTORY = {
        ("appendix-c", None): (6, 0),
        ("classical", None): (76, 0),
        ("monk", None): (74, 0),
        ("commutativity", None): (486, 0),
        ("markings", None): (4952, 0),
        ("bijections", None): (4705, 74),
        ("lemmas", None): (23936, 0),
        ("insertion", None): (1548, 0),
        ("ledger", None): (84, 18),
        ("edges", None): (15120, 0),
        ("markings", 5): (42480, 0),
        ("insertion", 5): (7740, 0),
        ("lemmas", 6): (172136, 0),
        ("edges", 7): (141120, 0),
        ("commutativity", 4): (1176, 0),
    }

    def build(self, seed: int):
        return list(self.INVENTORY)

    def run(self, spec):
        return verify.run_suite(*spec)

    def summary(self, spec, result):
        got = (result.checked, len(result.failures))
        want = self.INVENTORY[spec]
        failure = None if got == want else f"verify {spec}: (checked, failures) = {got}, expected {want}"
        return _digest(repr(got)), 0, result.checked, failure


WORKLOADS = {cls.name: cls for cls in (ExpandCli, SweepS6, CommuteS4, VerifySuites)}
