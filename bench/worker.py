"""
One round of a benchmark workload in a fresh interpreter, so that every
cache of the package starts cold.

    python3 bench/worker.py --workload sweep-s6 --seed 1 --round 0 --trace 0

Runs every operation of the workload once, one at a time, timing each.
Between operations, outside the timed region, each result is summarised
(digest, output terms, checks) and checked, and then dropped unless it
belongs to the seeded sample that untraced rounds recompute through the
reference path after the loop.  Peak memory and cache counts are read
when the loop ends.  Prints one JSON object on its last line of standard
output.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import layers
import qpieri.verify
import workloads


def run_round(workload: str, seed: int, round_no: int, traced: bool) -> dict:
    before = layers.cache_counts()
    warm = {k: v for k, v in before.items() if k.endswith(".currsize") and v}
    if warm:
        raise RuntimeError(f"caches are not cold before timing: {warm}")

    tracer = layers.Tracer()
    if traced:
        tracer.start()

    wl = workloads.WORKLOADS[workload]()
    ops = wl.build(seed)
    sample = set()
    if not traced and wl.check_share:
        size = max(1, round(len(ops) * wl.check_share))
        sample = set(random.Random(f"{seed}/{round_no}").sample(range(len(ops)), size))
    kept: dict[int, object] = {}
    latencies: list[float] = []
    digests: list[str] = []
    failures: dict[int, str] = {}
    counts = {"work.ops": len(ops), "work.output_terms": 0, "work.checks": 0}
    suites = {s: [0.0, 0] for s in qpieri.verify.SUITES}
    clock = time.perf_counter
    for i, spec in enumerate(ops):
        start = clock()
        try:
            result = wl.run(spec)
        except (Exception, SystemExit) as exc:
            latencies.append(clock() - start)
            digests.append("failed")
            failures[i] = f"{spec}: {type(exc).__name__}: {exc}"
            continue
        latencies.append(clock() - start)
        digest, terms, checks, failure = wl.summary(spec, result)
        digests.append(digest)
        if failure:
            failures[i] = failure
        counts["work.output_terms"] += terms
        counts["work.checks"] += checks
        if workload == "verify-suites":
            suites[spec[0]][0] += latencies[i]
            suites[spec[0]][1] += checks
        if i in sample:
            kept[i] = result
        del result
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.stop()
    counts.update(layers.cache_counts())

    for i, result in sorted(kept.items()):
        try:
            message = wl.check(ops[i], result)
        except Exception as exc:
            message = f"{ops[i]}: check raised {type(exc).__name__}: {exc}"
        if message:
            failures[i] = message

    per_layer = {}
    if traced:
        per_layer = tracer.metrics()
        for suite, (total_s, checks) in suites.items():
            per_layer[f"verify.run_suite.{suite}.total_s"] = total_s
            per_layer[f"verify.run_suite.{suite}.checks"] = checks
    return {
        "traced": traced,
        "latencies_s": latencies,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed_ops": sorted(failures),
        "failure_messages": [failures[i] for i in sorted(failures)][:5],
        "reference_checked": len(kept),
        "digests": digests,
        "counts": counts,
        "layers": per_layer,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = run_round(args.workload, args.seed, args.round, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
