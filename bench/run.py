"""
qpieri benchmark: end-to-end metrics and an outside-in layer trace.

    python3 bench/run.py --workload sweep-s6 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  One closed-loop client: one process, one thread, one operation
at a time.  The workload is run in rounds, each in a fresh interpreter
(bench/worker.py) so that every cache starts cold.  The number of rounds
is fixed by `--seconds` and the workload's nominal round time, not by the
clock, so that a faster program is measured on as many samples as a
slower one.  All rounds of a run use the same inputs, so their outputs and
work counts must agree exactly.  The seed shuffles the order of sweep-s6
and commute-s4; expand-cli and verify-suites are fixed sets in a fixed
order (bench/workloads.py says why).

Workloads (see bench/workloads.py):
  expand-cli     120 distinct `qpieri expand` requests on long permutations
                 of S_7/S_8, k in {3,4,5}, one p per (w, k), text or JSON:
                 the user's path with cold caches, Q-weights, markings and
                 rendering; one p per (w, k) leaves a cache nothing to share.
  sweep-s6       all 6,480 (w, k, p) with w in S_6, k <= 3, every p, through
                 pieri_expand: per-call overhead, chain search, edge tests,
                 and every degree of each (w, k), where sharing shows.
  commute-s4     both factor orders of 2,184 factor pairs over S_4: reads the
                 product cache far more than it writes it; time goes to the
                 map_basis fold and Z[Q] arithmetic.
  verify-suites  the ten verify suites plus five larger universes: the
                 classical oracle and the proof kit.

With --trace 0 the result holds the end-to-end metrics.  Each operation's
time is its slowest over the untraced rounds; wall_s is the sum of these,
latency_p50_ms and latency_p90_ms their percentiles.  CPU speed on a
shared machine is not steady: on a 2-vCPU Xeon virtual machine it mostly
sat at one level and came in bursts up to 1.6 times faster that lasted
from seconds to a minute, so rounds of one commute-s4 input set took from
2.2 to 4.2 s within ten minutes.  The slowest of a fixed number of rounds
reads the usual level; over ten runs its spread (quartile distance over
median) was 0.05-0.16, against 0.11-0.29 for the median or the fastest
round.  setup_s is the median time to start an interpreter and import
qpieri, taken before and after each round, and peak_rss_mb the median over
rounds of the worker's ru_maxrss.  With --trace 1 the rounds alternate
untraced and traced, and the result holds the per-layer metrics of
bench/layers.py, the work counts and the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# what every result is checked against, besides agreement between rounds
CHECKS = {
    "expand-cli": "every request exits 0",
    "sweep-s6": "every product agrees between rounds",
    "commute-s4": "both factor orders agree on every pair",
    "verify-suites": "every suite's (checked, failures) matches the kit's inventory",
}
# set-up is timed before the rounds and again after each one, so that a
# passing burst of load on the machine moves the median little
SETUP_SAMPLES_FIRST = 5
SETUP_SAMPLES_PER_ROUND = 3
# an untraced run makes at least this many rounds, so that medians are taken
# seconds of --seconds per round: --seconds / this (at least 2) is the number
# of rounds of a run.  Roughly one round's length with its set-up and checks;
# verify-suites takes twice its share, because its median latency rests on
# a few mid-sized suites that one round times only once each
ROUND_S = {"expand-cli": 8.0, "sweep-s6": 9.0, "commute-s4": 5.0, "verify-suites": 4.0}
DEADLINE_S = 165.0  # a run ends well inside the 180 s limit


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    """Environment of the timed interpreters: the package from src/, a fixed
    hash seed, and bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict[str, str], samples: int) -> list[float]:
    """Wall times of `python3 -c "import qpieri"`: interpreter start plus import."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms steps, and the
        # time read is rounded up to the next poll
        subprocess.run([sys.executable, "-c", "import qpieri"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(env, workload: str, seed: int, round_no: int, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--round", str(round_no), "--trace", "1" if traced else "0",
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict[str, str]:
    """Machine description read from /proc (and the checkout's .git, if any)."""
    info = {"python": sys.version.split()[0]}
    cpuinfo = Path("/proc/cpuinfo").read_text()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    info["cpu"] = models[0] if models else "unknown"
    status = Path("/proc/self/status").read_text()
    allowed = next((line.split(":", 1)[1].strip() for line in status.splitlines()
                    if line.startswith("Cpus_allowed_list")), "")
    count = 0
    for part in filter(None, allowed.split(",")):
        lo, _, hi = part.partition("-")
        count += int(hi or lo) - int(lo) + 1
    info["nproc"] = str(count or len(models))
    info["loadavg"] = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    info["commit"] = commit()
    return info


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def unit_of(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def slowest_times(rounds: list[dict]) -> list[float]:
    """Each operation's slowest time over the given rounds."""
    return [max(lat) for lat in zip(*(r["latencies_s"] for r in rounds))]


def consistency_failures(rounds: list[dict]) -> tuple[int, list[str]]:
    """Ops whose outputs differ between rounds, and counts that differ."""
    problems = []
    first = rounds[0]
    differing = {i for r in rounds[1:] for i, (a, b) in enumerate(zip(first["digests"], r["digests"])) if a != b}
    if differing:
        problems.append(f"{len(differing)} operations gave different outputs in different rounds")
    for r in rounds[1:]:
        if r["counts"] != first["counts"]:
            problems.append(f"work counts differ between rounds: {first['counts']} vs {r['counts']}")
            break
    traced = [r for r in rounds if r["traced"]]
    for r in traced[1:]:
        a = {k: v for k, v in traced[0]["layers"].items() if unit_of(k) == "count"}
        b = {k: v for k, v in r["layers"].items() if unit_of(k) == "count"}
        if a != b:
            changed = sorted(k for k in a if a[k] != b.get(k))
            problems.append(f"traced counts differ between rounds: {changed[:5]}")
            break
    return len(differing), problems


def main() -> int:
    parser = argparse.ArgumentParser(description="qpieri benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qpieri" / "__init__.py").is_file():
        return fail(f"no qpieri package under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    traced = bool(args.trace)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}

    started = time.perf_counter()
    env = worker_env()
    info = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    try:
        setup_times(env, 1)  # warm-up: writes the bytecode caches of a fresh checkout
        setups = setup_times(env, SETUP_SAMPLES_FIRST)
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"cannot start an interpreter that imports qpieri: {exc}")

    n_rounds = max(2, round(args.seconds / ROUND_S[args.workload]))
    # a traced run alternates untraced and traced rounds, at least two pairs,
    # so that the tracing overhead is read from rounds next to each other
    kinds = [False, True] * max(2, n_rounds // 2) if traced else [False] * n_rounds
    rounds: list[dict] = []
    for kind in kinds:
        if rounds and time.perf_counter() - started + max(r["elapsed_s"] for r in rounds) > DEADLINE_S:
            break
        remaining = DEADLINE_S + 10 - (time.perf_counter() - started)
        t0 = time.perf_counter()
        try:
            result = run_worker(env, args.workload, args.seed, len(rounds), kind, remaining)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            return fail(f"round {len(rounds)} of {args.workload} failed: {exc}")
        result["elapsed_s"] = time.perf_counter() - t0
        rounds.append(result)
        setups += setup_times(env, SETUP_SAMPLES_PER_ROUND)

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if traced and not traced_rounds:
        return fail(f"no time left for a traced round of {args.workload}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed_ops"]) for r in rounds)
    differing, problems = consistency_failures(rounds)
    failed += differing
    for r in rounds:
        problems += r["failure_messages"]
    reference_checked = sum(r["reference_checked"] for r in untraced)

    n_ops = untraced[0]["attempted"]
    if traced:
        metrics = {}
        for name in traced_rounds[0]["layers"]:
            values = [r["layers"][name] for r in traced_rounds]
            metrics[name] = max(values) if unit_of(name) == "s" else values[0]
        metrics.update(traced_rounds[0]["counts"])
        pairs = [(sum(u["latencies_s"]), sum(t["latencies_s"])) for u, t in zip(untraced, traced_rounds)]
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        metrics["trace.overhead_share"] = statistics.median((t - u) / u for u, t in pairs)
    else:
        per_op = slowest_times(untraced)
        metrics = {
            "wall_s": sum(per_op),
            "latency_p50_ms": percentile_ms(per_op, 50),
            "latency_p90_ms": percentile_ms(per_op, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
    if set(metrics) != set(expected):
        missing, extra = sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))
        return fail(f"metrics differ from BENCHMARK.json: missing {missing[:5]}, unexpected {extra[:5]}")

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_rounds)} traced rounds of {n_ops} operations; closed loop, one client")
    if traced:
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s, "
              f"{100 * metrics['trace.overhead_share']:.1f}% of the untraced round next to it "
              f"(median over {len(traced_rounds)} pairs of rounds)")
        print("self time, slowest first (layer sums, then functions; zeros left out):")
        summed = [f"{m}.self_s" for m in layers.SUMMED]
        for group in (summed, [n for n in metrics if n.endswith(".self_s") and n not in summed]):
            for name in sorted((n for n in group if metrics[n] > 0), key=lambda n: -metrics[n]):
                print(f"  {name:<52} {metrics[name]:10.4f} s")
        print(f"chains emitted: {metrics['chains.enumerate_pieri_chains.items']}, "
              f"markings: {metrics['chains.enumerate_markings.items']}, "
              f"useful ratio: {metrics['chains.useful_ratio']:.4f}")
    else:
        for name, value in metrics.items():
            print(f"  {name:<16} {value:12.4f} {expected[name]}")
        print(f"  latency samples: {n_ops} operations")
        for q in (50, 90):
            beyond = n_ops - int(q / 100 * n_ops)
            if beyond < 10:
                print(f"  only {beyond} operations lie beyond p{q}: read latency_p{q}_ms as indicative")
    counts = rounds[0]["counts"]
    print("work counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    print(f"correctness gate: {'PASS' if not problems else 'FAIL'}; {CHECKS[args.workload]}; "
          f"{reference_checked} results recomputed through the reference path; "
          f"outputs and work counts compared over {len(rounds)} rounds")
    for message in problems[:10]:
        print(f"  {message}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": expected[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
