"""Command-line surface: the worked examples, JSON round trips, exit codes."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import qpieri
from qpieri import expansion
from qpieri.cli import main
from qpieri.expansion import Expansion
from qpieri.golden import EX1, EX2, expected_table
from qpieri.permutations import Permutation
from qpieri.verify import SUITES, run_suite

# the directory that holds the imported package, for child interpreters
SRC = str(pathlib.Path(qpieri.__file__).parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports the same qpieri as this one."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_expand_ex1_matches_golden(capsys):
    code, out = run_cli(["expand", "--w", "321", "--k", "2", "--p", "2"], capsys)
    assert code == 0
    assert out == EX1.expansion_text + "\n"


def test_expand_ex2_matches_golden(capsys):
    code, out = run_cli(["expand", "--w", "32514", "--k", "3", "--p", "2"], capsys)
    assert code == 0
    assert out == EX2.expansion_text + "\n"


def test_chains_tables_match_goldens(capsys):
    code, out = run_cli(["chains", "--w", "321", "--k", "2", "--p", "2"], capsys)
    assert code == 0
    assert out == expected_table(EX1)
    code, out = run_cli(["chains", "--w", "32514", "--k", "3", "--p", "2"], capsys)
    assert code == 0
    assert out == expected_table(EX2)


def test_expand_degree_zero(capsys):
    code, out = run_cli(["expand", "--w", "321", "--k", "2", "--p", "0"], capsys)
    assert code == 0
    assert out == "G[321]\n"


def test_expand_rejects_bad_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--w", "321", "--k", "2", "--p", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, last_line",
    [
        (["expand", "--w", "321", "--k", "0", "--p", "0"], "qpieri expand: error: --k must be >= 1, got 0"),
        (["monk", "--x", "321", "--k", "0"], "qpieri monk: error: --k must be >= 1, got 0"),
        (["expand", "--w", "3x1", "--k", "2", "--p", "1"], None),
        (["expand", "--w", "331", "--k", "2", "--p", "1"], None),
        (["monk", "--x", "0", "--k", "1"], None),
        (["chains", "--w", "321", "--k", "2", "--p", "5"], "qpieri chains: error: --p must be in 0..2, got 5"),
        (["markings", "--w", "321", "--k", "2", "--p", "-1"], "qpieri markings: error: --p must be in 0..2, got -1"),
        (["expand", "--w", "321", "--k", "2", "--p", "2", "--filter-sn", "0"], None),
        (["verify", "--suite", "edges", "--max-n", "0"], None),
        # the factor is checked before the permutation's size
        (["expand", "--w", ",".join(map(str, [*range(2, 1027), 1])), "--k", "1", "--p", "2"],
         "qpieri expand: error: --p must be in 0..1, got 2"),
    ],
    ids=["expand-k", "monk-k", "letter", "repeat", "zero", "chains-p", "markings-p", "filter-sn",
         "max-n", "p-before-size"],
)
def test_bad_input_is_a_usage_error(args, last_line, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    if last_line is not None:
        assert captured.err.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--w", "21", "--k", "1025", "--p", "0"],
        ["monk", "--x", "21", "--k", "1025"],
        ["expand", "--w", ",".join(map(str, [*range(2, 1027), 1])), "--k", "1", "--p", "1"],
    ],
    ids=["expand-k", "monk-k", "expand-size"],
)
def test_products_past_the_packed_variables_are_a_usage_error(args, capsys):
    # the engine packs Q1..Q1024; a product reaching past them is refused up front
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 1024" in captured.err and "Traceback" not in captured.err


# s_1023 in S_1024 and s_1024 in S_1025: a k = 1 walk from either takes one edge
S_1024 = ",".join(map(str, [*range(1, 1023), 1024, 1023]))
S_1025 = ",".join(map(str, [*range(1, 1024), 1025, 1024]))


@pytest.mark.parametrize("command", ["chains", "markings"])
@pytest.mark.parametrize("w, k", [(S_1025, "1"), ("21", "1025")], ids=["size", "k"])
def test_chain_listings_past_the_packed_variables_are_a_usage_error(command, w, k, capsys):
    # a chain's weight reaches Q_max(size, k), as a product does
    with pytest.raises(SystemExit) as exc:
        main([command, "--w", w, "--k", k, "--p", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 1024" in captured.err and "Traceback" not in captured.err
    assert captured.err.startswith(f"usage: qpieri {command} ")


def test_expand_at_the_largest_column_keeps_weights_of_the_codes_seen_only(capsys):
    # the walk from 21 at k = 1024 reaches chains of 1024 labels, past
    # Python's default recursion limit; one weight per code it carries is
    # kept, not the 2 * 1025^3 entries of a full table
    code, out = run_cli(["expand", "--w", "21", "--k", "1024", "--p", "1"], capsys)
    try:
        # the one term: 21 times the Bruhat edge (1024,1025)
        assert code == 0 and out == f"G[{','.join(map(str, [2, 1, *range(3, 1024), 1025, 1024]))}]\n"
        codes = expansion._pieri_rows(Permutation.from_one_line("21").window, 1024)[2]
        assert set(expansion._weight_column(1024, 1)) == set(codes)
    finally:
        expansion.clear_caches()


@pytest.mark.parametrize("command", ["chains", "markings"])
def test_chain_listings_at_the_packed_bound_run(command, capsys):
    assert main([command, "--w", S_1024, "--k", "1", "--p", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # the chain of the one Bruhat edge (1,2), marked; `chains` lists the empty chain too
    assert [row.endswith(" ; (1,2)_B) | {(1,2)} | 2,1," + S_1024[4:]) for row in rows] == (
        [False, True] if command == "chains" else [True]
    )


@pytest.mark.parametrize(
    "args",
    [
        ["chains", "--w", "321", "--k", "2", "--filter-sn", "3"],
        ["markings", "--w", "321", "--k", "2", "--p", "2", "--filter-sn", "3"],
        ["markings", "--w", "321", "--k", "2", "--p", "2", "--format", "json"],
    ],
    ids=["chains-filter-sn", "markings-filter-sn", "markings-format"],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err
    # reported through the subcommand's own parser, like every other usage error
    assert captured.err.startswith(f"usage: qpieri {args[0]} ")


UNSIZED_SUITES = [name for name, suite in SUITES.items() if suite.default_n is None]
SIZED_SUITES = [name for name, suite in SUITES.items() if suite.default_n is not None]


@pytest.mark.parametrize("suite", UNSIZED_SUITES)
def test_max_n_on_a_fixed_universe_suite_is_a_usage_error(suite, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--max-n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes no --max-n" in captured.err and "Traceback" not in captured.err
    with pytest.raises(ValueError, match="takes no max_n"):
        run_suite(suite, max_n=3)


@pytest.mark.parametrize("suite", SIZED_SUITES)
@pytest.mark.parametrize("max_n", [0, -1])
def test_a_bound_below_one_is_a_usage_error(suite, max_n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--max-n", str(max_n)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: --max-n must be >= 1, got {max_n}\n")
    with pytest.raises(ValueError, match=f"suite '{suite}': max_n must be >= 1, got {max_n}$"):
        run_suite(suite, max_n=max_n)


def test_verify_help_names_each_sized_suite_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert SIZED_SUITES
    for name in SIZED_SUITES:
        suite = SUITES[name]
        assert f"{name}: {suite.bound} (default {suite.default_n})" in text
    assert "commutativity: the largest factor column, with w in S_3 (default 3)" in text


def test_bad_permutation_exits_2_without_traceback():
    result = run_python("-m", "qpieri.cli", "expand", "--w", "3x1", "--k", "2", "--p", "1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "bad permutation" in result.stderr


def test_chains_minimal(capsys):
    code, out = run_cli(["chains", "--w", "1", "--k", "1"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 3  # header + empty chain + one edge
    assert rows[1].startswith("(1 ; -)")
    assert "(1,2)_B" in rows[2]


def test_expand_json_round_trip(capsys):
    code, out = run_cli(
        ["expand", "--w", "32514", "--k", "3", "--p", "2", "--format", "json"], capsys
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 20
    text_code, text_out = run_cli(["expand", "--w", "32514", "--k", "3", "--p", "2"], capsys)
    assert Expansion.from_json(out) == Expansion.parse(text_out.strip())


def test_chains_json_fields(capsys):
    code, out = run_cli(
        ["chains", "--w", "321", "--k", "2", "--p", "2", "--format", "json"], capsys
    )
    records = json.loads(out)
    assert len(records) == 14
    rec = records[2]
    assert set(rec) == {"start", "labels", "kinds", "end", "qweight", "markings"}
    assert rec["start"] == "321" and rec["qweight"] == []
    quantum = next(r for r in records if r["kinds"] and r["kinds"][-1] == "Q")
    assert quantum["qweight"]


def test_monk_command(capsys):
    code, out = run_cli(["monk", "--x", "1", "--k", "1"], capsys)
    assert code == 0
    assert Expansion.parse(out.strip()) == Expansion.parse("G[1] - G[21]")


def test_markings_command(capsys):
    code, out = run_cli(["markings", "--w", "321", "--k", "2", "--p", "2"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 8  # header + the 7 marked pairs


def test_filter_sn(capsys):
    code, out = run_cli(
        ["expand", "--w", "321", "--k", "2", "--p", "2", "--filter-sn", "3"], capsys
    )
    assert out.strip() == "Q1*Q2*G[132]"
    code, out = run_cli(
        ["expand", "--w", "321", "--k", "2", "--p", "2", "--filter-sn", "1"], capsys
    )
    assert code == 0 and out == "0\n"


def test_verify_suite_pass(capsys):
    code, out = run_cli(["verify", "--suite", "classical", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"suite", "universe", "checked", "failures", "elapsed_s"}
    assert report["failures"] == []


def test_verify_snapshot_suite_passes(capsys):
    code, out = run_cli(["verify", "--suite", "appendix-c"], capsys)
    assert code == 0
    assert "failures: 0" in out


def test_verify_suite_reports_failures(capsys):
    code, out = run_cli(["verify", "--suite", "ledger", "--format", "json"], capsys)
    report = json.loads(out)
    # the degree-one identities genuinely fail; the tool reports them
    assert code == 1
    assert all("p=1" in f for f in report["failures"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, _ = run_cli(
        ["expand", "--w", "321", "--k", "2", "--p", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert target.read_text() == EX1.expansion_text + "\n"


@pytest.mark.parametrize(
    "args",
    [["expand", "--w", "321", "--k", "2", "--p", "2"], ["verify", "--suite", "appendix-c"]],
    ids=["expand", "verify"],
)
def test_an_unwritable_out_path_is_a_usage_error(args, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qpieri {args[0]}")
    assert f"cannot write --out {target}: No such file or directory" in err
    assert not target.parent.exists()


def test_console_entry_point():
    result = run_python("-m", "qpieri.cli", "expand", "--w", "321", "--k", "2", "--p", "2")
    assert result.returncode == 0
    assert result.stdout == EX1.expansion_text + "\n"


def test_usage_error_exit_code():
    result = run_python("-m", "qpieri.cli", "expand", "--w", "321")
    assert result.returncode == 2


def test_usage_errors_name_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "ledger", "--max-n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: qpieri verify")
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--w", "331", "--k", "2", "--p", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: qpieri expand")


def test_repeated_calls_in_one_process_are_independent(capsys):
    plain = ["expand", "--w", "32514", "--k", "3", "--p", "2"]
    first = run_cli(plain, capsys)
    assert first == run_cli(plain, capsys)
    # flags given to one call do not carry over to the next
    filtered = run_cli(plain + ["--filter-sn", "3"], capsys)
    as_json = run_cli(plain + ["--format", "json"], capsys)
    assert filtered != first and as_json != first
    assert run_cli(plain, capsys) == first
    with pytest.raises(SystemExit):
        main(["expand", "--w", "3x1", "--k", "2", "--p", "1"])
    capsys.readouterr()
    assert run_cli(plain, capsys) == first
    assert run_cli(plain + ["--format", "json"], capsys) == as_json


def test_the_parser_is_built_on_first_use_and_kept():
    result = run_python(
        "-c", "import qpieri, qpieri.cli as cli; print(cli._parsers.cache_info().currsize)"
    )
    assert result.returncode == 0 and result.stdout == "0\n"
    from qpieri import cli

    main(["verify", "--suite", "appendix-c", "--format", "json"])
    assert cli._parsers()[0] is cli._parsers()[0]
