"""
Command-line front end.

    qpieri expand   --w 321 --k 2 --p 2 [--format json] [--filter-sn N] [--out FILE]
    qpieri monk     --x 321 --k 1 [--format json] [--filter-sn N] [--out FILE]
    qpieri chains   --w 321 --k 2 [--p 2] [--format json] [--out FILE]
    qpieri markings --w 321 --k 2 --p 2 [--out FILE]
    qpieri verify   --suite classical [--max-n N] [--format json] [--out FILE]

`--suite` takes a name in `verify.SUITES`; `--max-n` only a sized one.

Exit codes: 0 success, 1 verification failure, 2 usage error (an --out
file that cannot be written included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .expansion import Expansion, monk_lhs_expand, pieri_expand
from .permutations import Permutation
from .qbg import Q_VARIABLES
from .render import chain_rows, chains_table, markings_table
from .verify import SUITES, run_suite


def _expansion_output(expansion: Expansion, fmt: str) -> str:
    if fmt == "json":
        return expansion.to_json() + "\n"
    return expansion.render() + "\n"


# each command returns (output text, exit code); `main` writes the text


def cmd_expand(args) -> tuple[str, int]:
    expansion = pieri_expand(args.w, args.k, args.p)
    if args.filter_sn is not None:
        expansion = expansion.filter_s_n(args.filter_sn)
    return _expansion_output(expansion, args.format), 0


def cmd_monk(args) -> tuple[str, int]:
    expansion = monk_lhs_expand(args.x, args.k)
    if args.filter_sn is not None:
        expansion = expansion.filter_s_n(args.filter_sn)
    return _expansion_output(expansion, args.format), 0


def cmd_chains(args) -> tuple[str, int]:
    p = args.p if args.p is not None else args.k
    if args.format == "json":
        records = []
        for chain, markings in chain_rows(args.w, args.k, p):
            record = chain.path.to_record()
            record["markings"] = [[list(lab) for lab in m] for m in markings]
            records.append(record)
        return json.dumps(records) + "\n", 0
    return chains_table(args.w, args.k, p), 0


def cmd_markings(args) -> tuple[str, int]:
    return markings_table(args.w, args.k, args.p), 0


def cmd_verify(args) -> tuple[str, int]:
    report = run_suite(args.suite, args.max_n)
    code = 0 if report.passed else 1
    if args.format == "json":
        return json.dumps(report.to_json_obj()) + "\n", code
    lines = [
        f"suite: {report.suite}",
        f"universe: {report.universe}",
        f"checked: {report.checked}",
        f"failures: {len(report.failures)}",
    ]
    lines += [f"  {f}" for f in report.failures[:20]]
    if len(report.failures) > 20:
        lines.append(f"  ... and {len(report.failures) - 20} more")
    return "\n".join(lines) + "\n", code


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the whole command line."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="qpieri",
        description="Quantum Pieri products via chains in the quantum Bruhat graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, perm_flag="--w"):
        p.add_argument(perm_flag, required=True, help="permutation in one-line notation")
        p.add_argument("--k", type=int, required=True, help="column of the factor")
        p.add_argument("--out", default=None, help="write output to a file")

    p_expand = sub.add_parser("expand", help="expand a product with a column factor")
    common(p_expand)
    p_expand.add_argument("--p", type=int, required=True, help="degree of the factor")
    p_expand.set_defaults(func=cmd_expand)

    p_monk = sub.add_parser("monk", help="expand the divisor-type product")
    common(p_monk, "--x")
    p_monk.set_defaults(func=cmd_monk)

    p_chains = sub.add_parser("chains", help="list chains with markings and ends")
    common(p_chains)
    p_chains.add_argument("--p", type=int, default=None, help="marking size (default k)")
    p_chains.set_defaults(func=cmd_chains)

    p_mark = sub.add_parser("markings", help="list (chain, marking) pairs")
    common(p_mark)
    p_mark.add_argument("--p", type=int, required=True, help="marking size")
    p_mark.set_defaults(func=cmd_markings)

    # each subcommand takes only the flags it reads
    for p in (p_expand, p_monk, p_chains):
        p.add_argument("--format", choices=("text", "json"), default="text")
    for p in (p_expand, p_monk):
        p.add_argument("--filter-sn", type=int, default=None, metavar="N",
                       help="drop basis terms outside S_N")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    sized = [f"{name}: {s.bound} (default {s.default_n})" for name, s in SUITES.items()
             if s.default_n is not None]
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="override the bound of a sized suite; " + "; ".join(sized))
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser, sub.choices


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers `main` uses, built on its first call and kept for the process."""
    return _build_parsers()


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """
    Check every input before any computation; a bad one is a usage error
    (exit 2), reported through `parser`, the subcommand's own parser.
    Permutation flags are replaced by the parsed permutation.
    """
    for flag in ("w", "x"):
        text = getattr(args, flag, None)
        if text is not None:
            try:
                setattr(args, flag, Permutation.from_one_line(text))
            except ValueError as exc:
                parser.error(f"bad permutation --{flag} {text!r}: {exc}")
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        parser.error(f"--k must be >= 1, got {k}")
    # a walk from the permutation reaches Q_max(support, k), in a product
    # or a chain's weight; the engine packs Q_1 .. Q_1024 only
    perm = getattr(args, "w", None) or getattr(args, "x", None)
    if perm is not None and max(perm.support, k) > Q_VARIABLES:
        parser.error(f"--k and the permutation's size must be at most {Q_VARIABLES}")
    p = getattr(args, "p", None)
    if p is not None and not 0 <= p <= k:
        parser.error(f"--p must be in 0..{k}, got {p}")
    for flag in ("filter_sn", "max_n"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if getattr(args, "max_n", None) is not None and SUITES[args.suite].default_n is None:
        parser.error(f"suite {args.suite} has a fixed universe and takes no --max-n")


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    args, unknown = parser.parse_known_args(argv)
    command = commands[args.command]
    if unknown:
        command.error(f"unrecognized arguments: {' '.join(unknown)}")
    _validate(command, args)
    text, code = args.func(args)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        command.error(f"cannot write --out {args.out}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
