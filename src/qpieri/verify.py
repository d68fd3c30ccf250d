"""
Named verification suites with machine-readable reports.

Every suite exhaustively checks one family of guarantees over a bounded
universe and reports {suite, universe, checked, failures}; a nonempty
failure list means the guarantee is violated at the named instance.  The
JSON form also carries `elapsed_s`, the suite's wall time; the text form
does not, so it stays byte-identical from run to run.
The `bijections` suite checks each of the eighteen matchings of
`proofkit.bijections.MATCHINGS` with one function, `_check_matching`,
which reads from the entry whether the image set and the walk back from
the codomain apply.

Shares.  No grid point of a suite depends on another: a start w or x in
S_n (`markings`, `insertion`, `edges`), or a run of the starts of every
scan (`lemmas`).  These four suites check a grid larger than their
default on more than one CPU (`_in_shares`): the grid is cut into chunks
of consecutive points, dealt to this process and forked children, and
the chunks' checks and failures are added in grid order.  So a report is
the one a single process gives, failure lines in order, and an exception
is the one a single process raises first.  A suite splits from the grid
past its default on, S_(n+1) for its default bound n in `SUITES`
(`_split_from`), with one process per half of that grid, up to one per
usable CPU.  Run as their own command on a 2-vCPU VM, the
default grids (0.1 to 0.15 s a command) ran no faster split, and the
next grids ran faster whenever the second CPU was free.  A grid stays in
this process on one CPU, off Linux, or while another thread is alive.
Children send results back through pipes; nothing a child caches or
counts reaches this process, and what this process caches and counts is
the same on every run.
`commutativity` and `bijections` stay in one process: split by w or by
(w, factor), commutativity ran no faster, its products reading rows that
each process must then walk for itself, and `bijections`, a fixed grid
of 30 (w, k, p), ran slower split as its own command.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from .chains import (
    enumerate_markings,
    enumerate_monk_chains,
    enumerate_pieri_chains,
    is_marking,
    marking_count,
)
from .classical import (
    verify_monk_at_q0,
    verify_pieri_at_q0,
    verify_recurrence_at_q0,
)
from .expansion import expand_product_chain, pieri_expand
from .golden import EX1, EX2, expected_expansion, expected_table
from .permutations import Permutation, all_permutations
from .proofkit.bijections import MATCHINGS, Matching, membership
from .proofkit.identities import (
    check_divisor_compatibility,
    check_grand_cancellation,
    check_stage1_identity,
    check_stage2_identity,
)
from .proofkit.scanners import all_scans
from .proofkit.surgery import SurgeryError, delete, insert
from .proofkit.universe import MarkedChain, weight
from .qbg import DirectedPath, QMonomial, edge_kind, edge_kind_by_length, pack_monomial, validate_path
from .render import chains_table


@dataclass
class SuiteReport:
    suite: str
    universe: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    # the wall time of `run_suite`, reported in the JSON form only
    elapsed_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, condition: bool, message: str | Callable[[], str]) -> None:
        """
        Count one check.  A message that formats values is passed as a
        callable, which is called only if the check fails.
        """
        self.checked += 1
        if not condition:
            self.failures.append(message if isinstance(message, str) else message())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "universe": self.universe,
            "checked": self.checked,
            "failures": self.failures,
            "elapsed_s": self.elapsed_s,
        }


# --- shares -----------------------------------------------------------------

R = TypeVar("R")

# chunks per process of a split grid: neighbouring chunks cost alike, so
# dealing many of them out evens out the processes' shares
_CHUNKS_PER_PROCESS = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux, where nothing is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _in_shares(points: int, run: Callable[[int, int], R], min_points: int) -> list[R]:
    """
    [run(0, c), ..., run(c - 1, c)]: the results of the c chunks of a grid
    of `points` points, in chunk order; a grid kept in one process is one
    chunk, [run(0, 1)].  `min_points` is the smallest grid of the suite
    measured to run faster in two processes than in one, and no process
    takes a share smaller than half of it: a grid splits over
    P = min(usable CPUs, 2 * points // min_points) processes, this one and
    a forked child per further process, and stays here when P < 2, off
    Linux, or while another thread is alive.  A split grid has
    `_CHUNKS_PER_PROCESS` chunks for each process, at most one per point,
    dealt in rounds of P, back and forth (for P = 2: 0, 1, 1, 0, 0, 1,
    ...), so a cost that grows or alternates along the grid is shared
    evenly, and each process does the same work on every run (this one has
    chunk 0).  If a pipe or a fork fails (no process or file descriptor is
    left), this process takes the chunks of every child it could not start.
    A process runs its chunks in order up to the first that raises; a child
    sends their results and that exception back through a pipe, pickled (an
    exception that pickle cannot carry arrives as a RuntimeError naming
    it).  The exception of the first chunk that raised is raised here, as
    one process running every chunk in order would raise it.  Every child
    is killed, if it still runs (this process raised or was interrupted),
    and reaped before this returns or raises.
    """
    threading = sys.modules.get("threading")
    processes = min(_usable_cpus(), 2 * points // min_points)
    if processes < 2 or (threading and threading.active_count() > 1):
        return [run(0, 1)]
    import pickle
    import signal

    chunks = min(points, processes * _CHUNKS_PER_PROCESS)

    def run_share(seats: set[int]) -> dict[int, tuple[bool, object]]:
        done = {}
        for j in range(chunks):
            turn, seat = divmod(j, processes)
            if (processes - 1 - seat if turn % 2 else seat) not in seats:
                continue
            try:
                done[j] = (True, run(j, chunks))
            except Exception as exc:
                done[j] = (False, exc)
                break
        return done

    children: list[tuple[int, int]] = []  # (pid, read end) of each child
    try:
        for i in range(1, processes):
            try:
                read_end, write_end = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if not pid:
                try:
                    os.close(read_end)
                    done = run_share({i})
                    try:
                        payload = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
                    except Exception:
                        payload = pickle.dumps({
                            j: (ok, value if ok else RuntimeError(f"{type(value).__name__}: {value}"))
                            for j, (ok, value) in done.items()
                        })
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        # seat 0, and the seat of every child that could not be started
        done = run_share({0, *range(len(children) + 1, processes)})
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            done.update(pickle.loads(payload) if payload else {})
        results = []
        # a share stops after its first exception, so every chunk before
        # the first that raised has its result, unless a child died
        for j in range(chunks):
            if j not in done:
                raise RuntimeError(f"a forked verify share ended without the result of chunk {j}")
            ok, value = done[j]
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # a child that has sent its results has exited or is exiting
        for pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _split_from(name: str) -> int:
    """
    The `min_points` of sized suite `name` in `_in_shares`: the size of
    S_(n+1), the grid past its default bound n.
    """
    return math.factorial(SUITES[name].default_n + 1)


def _check_points(report: SuiteReport, points: Sequence, check: Callable[[SuiteReport, object], None]) -> None:
    """
    check(report, point) for every point, in order, as one loop would run
    it: each chunk of `_in_shares(len(points), ..., _split_from(suite))` is
    a run of consecutive points, and the chunks' (checked, failures) are
    added in grid order.
    """

    def run(j: int, chunks: int) -> tuple[int, list[str]]:
        part = SuiteReport(report.suite, report.universe)
        for point in points[len(points) * j // chunks : len(points) * (j + 1) // chunks]:
            check(part, point)
        return part.checked, part.failures

    for checked, failures in _in_shares(len(points), run, _split_from(report.suite)):
        report.checked += checked
        report.failures += failures


# --- appendix-c -------------------------------------------------------------


def _suite_appendix_c() -> SuiteReport:
    report = SuiteReport("appendix-c", "the two bundled worked examples")
    for ex in (EX1, EX2):
        w = Permutation.from_one_line(ex.w)
        got_table = chains_table(w, ex.k, ex.p)
        report.check(
            got_table == expected_table(ex),
            lambda: f"{ex.name}: chain table differs from the reference snapshot",
        )
        got = pieri_expand(w, ex.k, ex.p)
        report.check(
            got == expected_expansion(ex),
            lambda: f"{ex.name}: expansion differs from the reference",
        )
        report.check(
            got.render() == ex.expansion_text,
            lambda: f"{ex.name}: rendered expansion differs byte-wise",
        )
    return report


# --- classical --------------------------------------------------------------


def _suite_classical() -> SuiteReport:
    report = SuiteReport(
        "classical",
        "products over S_3 at columns 1..3, one S_5 spot check, divisor checks "
        "over S_3 at columns 1..2, column recurrences up to 4",
    )
    for w in all_permutations(3):
        for k in (1, 2, 3):
            for p in range(0, k + 1):
                report.check(
                    verify_pieri_at_q0(w, k, p),
                    lambda: f"product identity fails at Q=0 for w={w.one_line()}, k={k}, p={p}",
                )
    w = Permutation.from_one_line("32514")
    report.check(
        verify_pieri_at_q0(w, 3, 2),
        "product identity fails at Q=0 for w=32514, k=3, p=2",
    )
    for x in all_permutations(3):
        for k in (1, 2):
            report.check(
                verify_monk_at_q0(x, k),
                lambda: f"divisor identity fails at Q=0 for x={x.one_line()}, k={k}",
            )
    for k in (2, 3, 4):
        for p in range(1, k + 1):
            report.check(
                verify_recurrence_at_q0(k, p),
                lambda: f"column recurrence fails at Q=0 for k={k}, p={p}",
            )
    return report


# --- monk -------------------------------------------------------------------


def _suite_monk() -> SuiteReport:
    report = SuiteReport("monk", "Monk chains over S_3, columns 1..2")
    e = Permutation.identity()
    report.check(
        sorted(m.labels for m in enumerate_monk_chains(e, 1)) == [(), ((1, 2),)],
        "Monk chains from the identity at column 1 are not {empty, (1,2)}",
    )
    w321 = Permutation.from_one_line("321")
    report.check(
        len(enumerate_monk_chains(w321, 1)) == 8,
        "expected 8 Monk chains from 321 at column 1",
    )
    for x in all_permutations(3):
        for k in (1, 2):
            for m in enumerate_monk_chains(x, k):
                report.check(
                    validate_path(m.start, m.labels) == m.path,
                    lambda: f"Monk chain is not the path its labels walk: {m!r}",
                )
            report.check(
                verify_monk_at_q0(x, k),
                lambda: f"divisor identity fails at Q=0 for x={x.one_line()}, k={k}",
            )
    return report


# --- commutativity ----------------------------------------------------------


def _suite_commutativity(kmax: int) -> SuiteReport:
    report = SuiteReport(
        "commutativity", f"w in S_3, factor pairs with columns <= {kmax}"
    )
    factors = [(k, p) for k in range(1, kmax + 1) for p in range(0, k + 1)]
    for w in all_permutations(3):
        for f1, f2 in itertools.product(factors, repeat=2):
            report.check(
                expand_product_chain(w, [f1, f2]) == expand_product_chain(w, [f2, f1]),
                lambda: f"factor order changes the expansion: w={w.one_line()}, {f1} vs {f2}",
            )
    return report


# --- markings ---------------------------------------------------------------


def _brute_force_markings(chain, p: int) -> set[frozenset]:
    """Every p-subset of the chain's labels that `is_marking` accepts."""
    return {
        marks
        for marks in map(frozenset, itertools.combinations(chain.labels, p))
        if is_marking(chain, marks)
    }


def _suite_markings(n: int) -> SuiteReport:
    report = SuiteReport("markings", f"all chains over S_{n}, columns <= 3")

    def check(report: SuiteReport, w: Permutation) -> None:
        for k in (1, 2, 3):
            for chain in enumerate_pieri_chains(w, k):
                for p in range(0, k + 1):
                    brute = _brute_force_markings(chain, p)
                    closed = marking_count(chain, p)
                    listed = enumerate_markings(chain, p)
                    report.check(
                        closed == len(brute),
                        lambda: f"closed form {closed} != brute force {len(brute)} "
                        f"for {chain!r}, p={p}",
                    )
                    # equal sizes and equal sets: no marking is listed twice
                    report.check(
                        len(listed) == len(brute) and set(listed) == brute,
                        lambda: f"enumerated markings disagree with brute force for {chain!r}, p={p}",
                    )

    _check_points(report, all_permutations(n), check)
    return report


# --- bijections -------------------------------------------------------------


def _weight_matches(inp, out, k: int, sign: int, qk_power: int) -> bool:
    """F(out) = sign * Q_{k-1}^qk_power * F(inp), on packed Q-weights."""
    sign_in, q_in, basis_in = weight(inp)
    sign_out, q_out, basis_out = weight(out)
    if basis_out != basis_in or sign_out != sign * sign_in:
        return False
    qk = pack_monomial(QMonomial.variable(k - 1))
    return q_out + (qk if qk_power < 0 else 0) == q_in + (qk if qk_power > 0 else 0)


# (codomain, weight-law) wording of each codomain side, by the number of sides
_BRANCHES = {
    1: [("codomain", "")],
    2: [("level-k codomain", " (level-k branch)"), ("chase codomain", " (chase branch)")],
}


def _check_matching(report, name, m: Matching, domain, codomains, k) -> None:
    """
    Map each domain element forward: the image lies in its codomain side
    (of two sides, the level-k side takes the marked chains and the chase
    side the rest), obeys that side's weight law and maps back.  Unless the
    matching is its own inverse, the images are then exactly the codomain,
    and a single codomain is walked back through the inverse too.  The
    check stops at the first map that raises.
    """
    branches = _BRANCHES[len(codomains)]
    images = set()
    for q in sorted(domain, key=repr):
        try:
            img = m.forward(q, k)
        except Exception as exc:  # guaranteed constructions must not fail
            report.fail(f"{name}: forward map raised on {q}: {exc}")
            return
        b = 1 if len(codomains) == 2 and not isinstance(img, MarkedChain) else 0
        where, law = branches[b]
        report.check(img in codomains[b], lambda: f"{name}: image outside {where} for {q}")
        report.check(
            _weight_matches(q, img, k, m.sign[b], m.power),
            lambda: f"{name}: weight law fails{law} for {q}",
        )
        try:
            back = m.inverse(img, k)
        except Exception as exc:
            report.fail(f"{name}: inverse raised on image of {q}: {exc}")
            return
        report.check(back == q, lambda: f"{name}: inverse does not return {q}")
        images.add(img)
    if m.inverse is m.forward:
        return
    targets = set().union(*codomains)
    report.check(
        len(images) == len(domain),
        lambda: f"{name}: forward map is not injective ({len(images)} images, {len(domain)} inputs)",
    )
    report.check(
        images == targets,
        lambda: f"{name}: image set differs from codomain "
        f"({len(images)} images vs {len(targets)} targets)",
    )
    if len(codomains) == 2:
        return
    for q in sorted(targets, key=repr):
        try:
            back = m.inverse(q, k)
        except Exception as exc:
            report.fail(f"{name}: inverse raised on {q}: {exc}")
            return
        report.check(m.forward(back, k) == q, lambda: f"{name}: forward(inverse) misses {q}")


def check_bijections_grid(report: SuiteReport, w: Permutation, k: int, p: int) -> None:
    """Every matching of `MATCHINGS` on (w, k, p), at g = p-1 and g = p where it runs per g."""
    members = membership(w, k)
    runs = [(m, "g", g) for g in (p - 1, p) for m in MATCHINGS.values() if m.domain.universe.per_g]
    runs += [(m, "p", p) for m in MATCHINGS.values() if not m.domain.universe.per_g]
    for m, axis, anchor in runs:
        domain = set(members(m.domain, anchor))
        # an involution's codomain is its domain: the same set serves both
        codomains = [domain if c is m.domain else set(members(c, anchor)) for c in m.codomain]
        _check_matching(report, f"{m.name}[w={w.one_line()},k={k},{axis}={anchor}]", m, domain, codomains, k)


def _suite_bijections() -> SuiteReport:
    report = SuiteReport(
        "bijections", "w in S_3, columns 2..3, all marking levels"
    )
    for w in all_permutations(3):
        for k in (2, 3):
            for p in range(1, k + 1):
                check_bijections_grid(report, w, k, p)
    return report


# --- lemmas -----------------------------------------------------------------


def _suite_lemmas(n: int) -> SuiteReport:
    report = SuiteReport("lemmas", f"forbidden patterns inside S_{n}")

    def run(j: int, chunks: int) -> list:
        # the scans of one run of the starts, the runs in order being S_n;
        # the suite reads no counterexample past a scan's first
        scans = all_scans(n=n, share=(j, chunks))
        for part in scans:
            del part.counterexamples[1:]
        return scans

    for scan, *rest in zip(*_in_shares(math.factorial(n), run, _split_from("lemmas"))):
        for part in rest:
            scan.checked += part.checked
            scan.counterexamples += part.counterexamples
        report.checked += scan.checked
        if scan.name.endswith("-weakened"):
            if scan.clean and scan.checked:
                report.fail(f"{scan.name}: found nothing; scan has no sensitivity")
        elif not scan.clean:
            report.fail(f"{scan.name}: counterexample {scan.counterexamples[0]}")
    return report


# --- insertion --------------------------------------------------------------


def enumerate_surgery_paths(w: Permutation, k: int, bound: int) -> list[DirectedPath]:
    """
    Directed paths from w satisfying the surgery preconditions (P0)'-(P2)',
    with columns <= bound: the (k-1)-Pieri chains, then the k-Pieri chains
    with a (k,*) label.  The walks try no label past `bound`, so no chain
    outside it is built.
    """
    return [chain.path for chain in enumerate_pieri_chains(w, k - 1, bound)] + [
        chain.path
        for chain in enumerate_pieri_chains(w, k, bound)
        if any(a == k for a, _ in chain.labels)
    ]


def _suite_insertion(n: int) -> SuiteReport:
    bound = 5
    report = SuiteReport(
        "insertion", f"paths from S_{n} starts, columns <= {bound}, k <= 3"
    )

    def check(report: SuiteReport, w: Permutation) -> None:
        for k in (1, 2, 3):
            for path in enumerate_surgery_paths(w, k, bound):
                for d in range(k + 1, bound + 1):
                    try:
                        step = insert(path, k, d)
                    except SurgeryError:
                        continue
                    if not step.commuted:
                        report.check(
                            all(a != k for a, _ in step.path.labels),
                            lambda: f"absorbed insert kept a column label: {path!r} <- ({k},{d})",
                        )
                    back, dd = delete(step.path, k)
                    report.check(
                        back == path and dd == d,
                        lambda: f"delete(insert) misses: {path!r} <- ({k},{d})",
                    )
                try:
                    removed, d = delete(path, k)
                except SurgeryError:
                    continue
                step = insert(removed, k, d)
                report.check(
                    step.path == path,
                    lambda: f"insert(delete) misses on {path!r}",
                )

    _check_points(report, all_permutations(n), check)
    return report


# --- ledger -----------------------------------------------------------------


def _suite_ledger() -> SuiteReport:
    report = SuiteReport(
        "ledger", "assembled identities for w in S_3 at column 2"
    )
    for w in all_permutations(3):
        k = 2
        for p in (1, 2):
            for h, g in ((k - 1, p - 1), (k - 1, p), (k - 2, p - 1), (k - 2, p - 2)):
                report.check(
                    check_divisor_compatibility(w, h, g, k),
                    lambda: f"divisor compatibility fails: w={w.one_line()}, level ({h},{g})",
                )
            report.check(
                check_stage1_identity(w, k, p),
                lambda: f"stage-1 identity fails: w={w.one_line()}, k={k}, p={p}",
            )
            report.check(
                check_stage2_identity(w, k, p),
                lambda: f"stage-2 identity fails: w={w.one_line()}, k={k}, p={p}",
            )
            report.check(
                check_grand_cancellation(w, k, p),
                lambda: f"grand cancellation fails: w={w.one_line()}, k={k}, p={p}",
            )
    return report


# --- edges ------------------------------------------------------------------


def _suite_edges(n: int) -> SuiteReport:
    report = SuiteReport("edges", f"x in S_{n}, labels with column <= {n + 1}")
    labels = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 2)]

    def check(report: SuiteReport, x: Permutation) -> None:
        for a, b in labels:
            report.check(
                edge_kind(x, (a, b)) == edge_kind_by_length(x, (a, b)),
                lambda: f"edge criteria disagree at x={x.one_line()}, label ({a},{b})",
            )

    _check_points(report, all_permutations(n), check)
    return report


@dataclass(frozen=True)
class Suite:
    """A suite's runner; for a sized suite, its default bound and what the bound counts."""

    run: Callable[..., SuiteReport]
    default_n: int | None = None
    bound: str = "the n of S_n"


# every suite, in the order reports list them; the one place that says
# which suites exist, which are sized, and their default bounds
SUITES = {
    "appendix-c": Suite(_suite_appendix_c),
    "classical": Suite(_suite_classical),
    "monk": Suite(_suite_monk),
    "commutativity": Suite(_suite_commutativity, 3, "the largest factor column, with w in S_3"),
    "markings": Suite(_suite_markings, 4),
    "bijections": Suite(_suite_bijections),
    "lemmas": Suite(_suite_lemmas, 5),
    "insertion": Suite(_suite_insertion, 4),
    "ledger": Suite(_suite_ledger),
    "edges": Suite(_suite_edges, 6),
}


def bound_error(name: str, max_n: int | None, flag: str = "max_n") -> str | None:
    """
    Why `max_n` cannot bound suite `name`, or None if it can: a sized suite
    takes n >= 1, a fixed suite takes no bound.  `flag` names the bound in
    the message.
    """
    if max_n is None:
        return None
    if max_n < 1:
        return f"{flag} must be >= 1, got {max_n}"
    if SUITES[name].default_n is None:
        return f"suite {name} has a fixed universe and takes no {flag}"
    return None


def run_suite(name: str, max_n: int | None = None) -> SuiteReport:
    """Run suite `name`; `max_n` overrides a sized suite's default bound."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    error = bound_error(name, max_n)
    if error is not None:
        raise ValueError(f"bad bound for suite {name!r}: {error}")
    start = time.perf_counter()
    report = suite.run() if suite.default_n is None else suite.run(suite.default_n if max_n is None else max_n)
    report.elapsed_s = time.perf_counter() - start
    return report
