"""Command-line interface: outputs, formats, and exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from beta_words import cli
from beta_words import DEFAULT_CORPUS, ExpansionOfOne, maximal_runs, run_sets_check, run_sets_formula
from beta_words import expansion as expansion_mod
from beta_words import runs as runs_mod
from beta_words import structure as structure_mod
from beta_words import verify as verify_mod
from beta_words import words as words_mod
from beta_words.errors import BetaWordsError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_seq(capsys):
    code, out, _ = run_cli(capsys, "expand", "--seq", "3,0,2,0,0,0,0,1", "--n", "10")
    assert code == 0
    assert "3020000100" in out
    assert "(30200000)*" in out
    assert "1,3,8" in out


def test_expand_beta_golden_decimal(capsys):
    code, out, _ = run_cli(capsys, "expand", "--beta", "1.618033988749",
                           "--tol", "1e-12", "--n", "6")
    assert code == 0
    assert "110000" in out


def test_expand_rejects_bad_sequence(capsys):
    code, _, err = run_cli(capsys, "expand", "--seq", "1,2")
    assert code == 2
    assert "k=1" in err


def test_expand_needs_exactly_one_spec(capsys):
    code, _, err = run_cli(capsys, "expand", "--seq", "1,1", "--beta", "1.5")
    assert code == 2


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--seq", "2,1,1")
    assert code == 0
    assert out.startswith("ok 2,1,1 beta=[2.5468")


def test_validate_periodic_text_round_trip(capsys):
    code, out, _ = run_cli(capsys, "validate", "--seq", "3,0,0,2;0,0,0,2")
    assert code == 0


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--seq", "1,1", "--n", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "word", "full"]
    assert rows[1:] == [["0", "000", "1"], ["1", "001", "0"], ["2", "010", "1"],
                        ["3", "100", "1"], ["4", "101", "0"]]


@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_start_limit_window_is_a_slice(capsys, command):
    """--start 5 --limit 3 lists rows 5..7 of the full listing; a window
    that runs past the last word stops there, and --limit 0 and
    --start count(e, n) list none."""
    argv = (command, "--seq", "1,1", "--n", "5", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    header, *rows = out.splitlines()
    assert code == 0 and len(rows) == 13
    for window, expected in [(("--start", "5", "--limit", "3"), rows[5:8]), (("--start", "11", "--limit", "5"), rows[11:]),
                             (("--limit", "0"), []), (("--start", "13"), [])]:
        code, out, _ = run_cli(capsys, *argv, *window)
        assert code == 0 and out.splitlines() == [header, *expected], window


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--start", "-1"), "--start -1 outside 0..13"),
    (("enumerate", "--start", "14"), "--start 14 outside 0..13"),
    (("classify", "--start", "14"), "--start 14 outside 0..13"),
    (("enumerate", "--limit", "-1"), "--limit must be >= 0"),
    (("classify", "--limit", "-2"), "--limit must be >= 0"),
])
def test_start_limit_out_of_range_exits_2(capsys, argv, message):
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--seq", "1,1", "--n", "5", *rest)
    assert (code, out) == (2, "")
    assert message in err


def test_classify_window_needs_n(capsys):
    code, out, err = run_cli(capsys, "classify", "--seq", "1,1", "--n-range", "1..3", "--limit", "2")
    assert (code, out) == (2, "")
    assert "--start and --limit need --n" in err


def test_classify_plain_flags(capsys):
    code, out, _ = run_cli(capsys, "classify", "--seq", "1,1", "--n", "3")
    assert code == 0
    flags = [line.split()[-1] for line in out.strip().splitlines()[1:]]
    assert flags == ["1", "0", "1", "1", "0"]


def test_classify_check_clean(capsys):
    code, out, _ = run_cli(capsys, "classify", "--seq", "1,1", "--n", "9",
                           "--check", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "word,full,tail_s,block_count,tail_l,cyl_left,cyl_right"


def test_classify_n1_row_count(capsys):
    code, out, _ = run_cli(capsys, "classify", "--seq", "3,0,2,0,0,0,0,1",
                           "--n", "1", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4  # header + eps_1 + 1 rows


def test_runs_golden(capsys):
    code, out, _ = run_cli(capsys, "runs", "--seq", "1,1", "--n", "3")
    assert code == 0
    assert "F_formula {1,2}" in out
    assert "N_formula {1}" in out
    assert "match true" in out


def test_runs_csv_records(capsys):
    code, out, _ = run_cli(capsys, "runs", "--seq", "1,1", "--n", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "start_index", "length", "first_word", "last_word"]
    assert rows[1] == ["full", "0", "1", "000", "000"]


def test_runs_integer_beta_exit_code(capsys):
    code, _, err = run_cli(capsys, "runs", "--seq", "3", "--n", "4")
    assert code == 4


def test_tau_json(capsys):
    code, out, _ = run_cli(capsys, "tau", "--seq", "1,0,1,0,0,0,1", "--n", "8",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["tau"] for r in rows] == [1, 2, 1, 2, 3, 2, 1, 2]


def test_verify_default_corpus_small_range(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-range", "1..4")
    assert code == 0
    report = json.loads(out)
    assert all(r["match"] for r in report)
    assert err == ""


def test_verify_corpus_file_and_shards_identical(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("1,1\n2,1,1\n")
    code1, out1, _ = run_cli(capsys, "verify", "--corpus", str(corpus),
                             "--n-range", "1..6", "--shards", "1")
    code2, out2, _ = run_cli(capsys, "verify", "--corpus", str(corpus),
                             "--n-range", "1..6", "--shards", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_corrupted_formula_nonzero_exit(capsys, monkeypatch):
    real = verify_mod.nonfull_run_lengths_formula

    def corrupt(e, n):
        return tuple(list(real(e, n)) + [77])

    monkeypatch.setattr(verify_mod, "nonfull_run_lengths_formula", corrupt)
    code, out, err = run_cli(capsys, "verify", "--n-range", "2..3")
    assert code == 3
    assert "77" in err or "mismatch" in err.lower() or err != ""


def test_unknown_flag_is_input_error(capsys):
    code, _, _ = run_cli(capsys, "classify", "--seq", "1,1", "--n", "3",
                         "--bogus")
    assert code == 2


def test_missing_n_uses_default(capsys):
    code, out, _ = run_cli(capsys, "expand", "--seq", "1,1")
    assert code == 0
    assert "1100000000000000" in out


def test_runs_has_no_shards_option(capsys):
    code, _, err = run_cli(capsys, "runs", "--seq", "1,1", "--n", "4", "--shards", "2")
    assert code == 2
    assert "--shards" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--seq", "1,1", "--n", "3", "--tol", "1e-9"),
    ("runs", "--seq", "1,1", "--n", "3", "--tol", "1e-9"),
    ("tau", "--seq", "1,1", "--n", "3", "--tol", "1e-9"),
    ("verify", "--n-range", "1..2", "--format", "json"),
])
def test_unread_options_are_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert argv[-2] in err


@pytest.mark.parametrize("command", ["enumerate", "classify", "runs", "tau"])
def test_beta_only_for_expand_and_validate(capsys, command):
    """Only expand and validate define --beta; the parser refuses it elsewhere."""
    code, out, err = run_cli(capsys, command, "--seq", "1,1", "--n", "3", "--beta", "1.5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --beta 1.5" in err


@pytest.mark.parametrize("command", [("verify", "--n-range", "1..3"), ("classify", "--seq", "1,1", "--n", "3")])
def test_tol_floor(capsys, command):
    """--tol stops at 2^-MAX_PRECISION: below it the precision it asks for
    has no limit, so the command exits 2 and names the floor."""
    for tol in ("1e-1234", "1e-8000", f"1/{2**4096 + 1}"):
        code, out, err = run_cli(capsys, *command, "--tol", tol)
        assert (code, out) == (2, "")
        assert "below the floor 2^-4096" in err
    code, _, err = run_cli(capsys, *command, "--tol", f"1/{2**4096}")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("tol, bound", [("1e-5000000", "below the floor 2^-4096"),
                                        ("1e+999999999", "above the ceiling 2^4096"),
                                        ("-1e+999999999", "must be positive"),
                                        ("0e-5000000", "must be positive")])
def test_tol_far_past_the_bounds_exits_at_once(capsys, tol, bound):
    """A decimal exponent is read, not expanded: 10^|exp| is never built."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--seq", "1,1", "--n", "3", f"--tol={tol}")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "") and bound in err


@pytest.mark.parametrize("command", ["expand", "validate"])
@pytest.mark.parametrize("beta, message", [("1e1000000000", "beta 1e1000000000 is above the ceiling 2^4096"),
                                           ("1e-1000000000", "beta 1e-1000000000 is below the floor 2^-4096"),
                                           ("1.5e-1000000", "beta 1.5e-1000000 is below the floor 2^-4096"),
                                           ("1/0", "cannot parse beta '1/0'"),
                                           ("-2", "beta must be positive")],
                         ids=["1e1000000000", "1e-1000000000", "1.5e-1000000", "1/0", "-2"])
def test_beta_screened_like_tol(capsys, command, beta, message):
    """--beta goes through --tol's screen: a decimal exponent is read, not
    expanded, so each of these exits 2 at once in one line, and no
    conversion error or traceback reaches the user."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--beta", beta, "--n", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_tol_ceiling_and_accepted_values():
    for tol in ("1e1234", f"{2**4096 + 1}", f"{2**4096 + 1}/1"):
        with pytest.raises(BetaWordsError, match="above the ceiling 2\\^4096"):
            cli._parse_fraction(tol, "tolerance")
    accepted = ["1e-12", "1/1000000000000", "0.5", " 2.5e-7 ", "3", "1_000", "+.5E-3", "5.", "1e-1233",
                f"1/{2**4096}", f"{2**4096}", "9.99e1232", "1e1233", "7/3", "１e-3",
                "9.6e-1234", "1.04e1233"]  # 2^-4096 = 9.58...e-1234, 2^4096 = 1.044...e1233
    for tol in accepted:
        assert cli._parse_fraction(tol, "tolerance") == Fraction(tol), tol
    for tol in ("nan", "inf", "1/0", "1__0", "0x10", "1e-99999999999999999999999"):
        with pytest.raises(BetaWordsError, match="cannot parse"):
            cli._parse_fraction(tol, "tolerance")


# --- runs: one walk, read off the records, against the two-walk path ---


def two_walk_runs(args, out, err):
    """cmd_runs as it was: run_sets_check's scan, then maximal_runs."""
    e = ExpansionOfOne.parse(args.seq)
    n = cli._parse_n(args)
    formula = run_sets_formula(e, n)
    row, failures = run_sets_check(e, n)
    records = maximal_runs(e, n)
    rows = [
        (r.kind, r.start_index, r.length, r.first_word.text(), r.last_word.text())
        for r in records
    ]
    summary = {
        "F_formula": sorted(formula.full),
        "F_enum": row["F_enum"],
        "N_formula": sorted(formula.nonfull),
        "N_enum": row["N_enum"],
        "match": row["match"] and not failures,
    }
    if args.format == "json":
        payload = {
            "records": [dict(zip(["kind", "start_index", "length", "first_word", "last_word"], r))
                        for r in rows],
            **summary,
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        cli._emit_rows(args.format, ["kind", "start_index", "length", "first_word", "last_word"], rows, out)
        if args.format == "plain":
            for key in ("F_formula", "F_enum", "N_formula", "N_enum"):
                out.write(f"{key} {{{','.join(str(v) for v in summary[key])}}}\n")
            out.write(f"match {str(summary['match']).lower()}\n")
    for message in failures:
        err.write(message + "\n")
    return cli.OK if summary["match"] else cli.MISMATCH


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_runs_output_matches_two_walk_path(text, capsys, monkeypatch):
    for n in range(1, 9):
        for fmt in ("plain", "json", "csv"):
            argv = ("runs", "--seq", text, "--n", str(n), "--format", fmt)
            got = run_cli(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_runs", two_walk_runs)
                want = run_cli(capsys, *argv)
            assert got == want, (text, n, fmt)
            assert got[0] == 0 and got[2] == ""


def test_runs_failures_match_two_walk_path(capsys, monkeypatch):
    # a wrong closed form must give the same report, messages and exit code;
    # it is wrong in both modules that call it, as a real fault would be
    real = verify_mod.full_run_lengths_formula
    for module in (verify_mod, runs_mod):
        monkeypatch.setattr(module, "full_run_lengths_formula", lambda e, n: real(e, n) + (99,))
    for text in ("1,1", "3,0,0,2;0,0,0,2"):
        argv = ("runs", "--seq", text, "--n", "5", "--format", "json")
        got = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "cmd_runs", two_walk_runs)
            want = run_cli(capsys, *argv)
        assert got == want
        assert got[0] == 3 and "differ from enumerated" in got[2]


PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())


@pytest.mark.parametrize("n_range, shards", [(r, k) for r in ("1..5", "1..12") for k in (1, 2, 4)])
def test_verify_report_matches_benchmark_pins(capsys, n_range, shards):
    """The verify report's sha256 equals the benchmark's pin, which the
    benchmark checks on every run; the file is only read here."""
    code, out, err = run_cli(capsys, "verify", "--n-range", n_range, "--shards", str(shards))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["verify_report_sha256"][n_range]


@pytest.mark.parametrize("shards", ["0", "-3"])
def test_verify_refuses_shards_below_one(capsys, monkeypatch, shards):
    """A shard count below 1 is an input error, like a bad --start or
    --limit: exit 2 and one error line, before any sweep."""
    def no_report(*args):
        raise AssertionError("verify_report ran")

    monkeypatch.setattr(cli, "verify_report", no_report)
    code, out, err = run_cli(capsys, "verify", "--n-range", "1..3", "--shards", shards)
    assert (code, out, err) == (2, "", "error: --shards must be >= 1\n")


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m beta_words` is the beta-words entry point."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["tau", "--seq", "1,1", "--n", "3"]
    done = subprocess.run([sys.executable, "-m", "beta_words", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(capsys, *argv)[1]


def test_classify_check_window_bytes_pinned(capsys):
    """Four point queries per word at n = 64 (structural, tail, length and
    the cylinder's ends); the bytes were measured before the queries shared
    one admissibility scan and the length test dropped the shared prefix."""
    code, out, err = run_cli(capsys, "classify", "--seq", "3,0,2,0,0,0,0,1", "--n", "64", "--start", "123456789",
                             "--limit", "50", "--check", "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "87a3a4742f7e9ec0cdde18aef6971c6014790dd5feec085a3ac6227fd22e4702")


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  # indented comment\n\n   \n"])
def test_verify_refuses_a_corpus_file_without_an_expansion(capsys, monkeypatch, tmp_path, text):
    """A corpus file of blank lines and comments holds nothing to check: an
    input error in one line, not an empty report that passes."""
    def no_report(*args):
        raise AssertionError("verify_report ran")

    monkeypatch.setattr(cli, "verify_report", no_report)
    corpus = tmp_path / "empty.txt"
    corpus.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert (code, out) == (2, "")
    assert err == f"error: corpus file {corpus} holds no expansion, so there is nothing to verify\n"


def test_verify_resolves_beta_near_an_integer(capsys, tmp_path):
    """With 200 twos before the 1, beta lies within about 3^-200 of 3 and
    the word 2 is non-full by a length gap of about beta^-201, which a fixed
    320-bit precision took for full: verify agrees with itself once the
    precision grows with the digit count."""
    corpus = tmp_path / "near-three.txt"
    corpus.write_text(",".join(["2"] * 200 + ["1"]) + "\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--n-range", "1..2")
    assert (code, err) == (0, "") and len(json.loads(out)) == 2


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_a_line_past_the_digit_bound_is_refused_at_once(capsys, tmp_path, command):
    """verify and classify --check solve beta in a time that grows faster
    than the cube of the digit count (more than 60 s at 512 digits); a line
    one digit past MAX_DIGITS is an input error in one line, well under a
    second."""
    line = ",".join(["2"] * cli.MAX_DIGITS + ["1"])
    corpus = tmp_path / "long.txt"
    corpus.write_text(line + "\n")
    argv = {"verify": ["verify", "--corpus", str(corpus)],
            "classify": ["classify", "--check", "--seq", line, "--n", "12"]}[command]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == (f"error: an expansion of {cli.MAX_DIGITS + 1} digits is past the bound of {cli.MAX_DIGITS} "
                   "digits (preperiod plus period) that verify and classify --check solve beta for\n")


@pytest.mark.parametrize("line", ["2," * 2_500_000 + "1", "3;" + "2,1," * 1_249_999 + "2,1"],
                         ids=["finite", "periodic"])
def test_a_long_corpus_line_is_refused_before_it_is_parsed(capsys, tmp_path, line):
    """A one-line corpus of 2.5 M digits (5 MB) is refused with the digit
    bound's message, its digits counted from the text: the traced peak
    stays within three times the line's size (parsing the line first took
    about 24 times)."""
    corpus = tmp_path / "long.txt"
    corpus.write_text(line + "\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"error: an expansion of 2500001 digits is past the bound of {cli.MAX_DIGITS} "
                   "digits (preperiod plus period) that verify and classify --check solve beta for\n")
    assert peak < 3 * len(line)


@pytest.mark.parametrize("text", ["1,1", "2,1,0,0", "20,10", "2, 1 ,0 , 0", "1000,100,00", "3,0,0,2;0,0,0,2",
                                  "1,0,0,0,0,1;0,0,0,0,0,1", "3;2,1,0", " 2 ; 1 , 0 , 1 "])
def test_spec_digits_count_as_parsing_does(text):
    """The digits counted from a spec's text are those of the parsed
    expansion: a finite spec's trailing zeros are not counted, and a
    periodic spec keeps its zeros."""
    e = ExpansionOfOne.parse(text)
    assert cli._spec_digits(text.strip()) == len(e.preperiod) + len(e.period)


# Loads a corpus file and prints the shift its one line fails at (None when
# it is valid), whether its spec reads back as the line, and the seconds taken.
LOAD_ONE_LINE = """
import sys, time
from beta_words import load_corpus
from beta_words.errors import NotSelfDominant
line = open(sys.argv[1]).read().strip()
start = time.perf_counter()
try:
    [e] = load_corpus(sys.argv[1])
    verdict, same = None, e.text() == line
except NotSelfDominant as exc:
    verdict, same = exc.shift, None
print(verdict, same, time.perf_counter() - start)
"""


@pytest.mark.parametrize("line, verdict", [("2," * 499_999 + "1", None), ("3;" + "2,1," * 249_999 + "2", None),
                                           ("1;" + "0," * 499_999 + "1", 500_000)],
                         ids=["finite", "periodic", "periodic-from-1"])
def test_a_megabyte_corpus_line_is_judged_in_under_a_second(tmp_path, line, verdict):
    """Validating a corpus line takes time linear in its digits: a 1 MB
    line, a valid one or one whose 500,000th shift equals it, is parsed or
    refused in under a second.  It runs in a child process, so a quadratic
    check fails at the timeout instead of running for hours."""
    corpus = tmp_path / "big.txt"
    corpus.write_text(line + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", LOAD_ONE_LINE, str(corpus)], env=env, capture_output=True, text=True,
                          timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    got, same, seconds = done.stdout.split()
    assert (got, same) == (str(verdict), "None" if verdict else "True")
    assert float(seconds) < 1.0


@pytest.mark.parametrize("shards", ["1", "2"])
def test_verify_past_the_deepest_sweep_is_an_input_error(tmp_path, shards):
    """verify sweeps n up to VERIFY_MAX_N, 959, the deepest n its recursive
    sweep reached at the default recursion limit; past it the command
    refuses n in one line and exits 2, with no traceback, for one n past
    the bound and for a range of 10^9 values."""
    assert cli.VERIFY_MAX_N == 959
    corpus = tmp_path / "one.txt"
    corpus.write_text("1,1\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for n_range, n in (("960..960", 960), ("1..1000000000", 10**9)):
        argv = ["verify", "--n-range", n_range, "--corpus", str(corpus), "--shards", shards]
        done = subprocess.run([sys.executable, "-m", "beta_words", *argv], env=env, capture_output=True, text=True,
                              timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: n = {n} is past verify's bound n <= 959\n"


def test_verify_sweeps_up_to_its_bound(tmp_path, capsys):
    """The greatest n verify takes runs and verifies clean."""
    corpus = tmp_path / "one.txt"
    corpus.write_text("1,1\n")
    code, out, err = run_cli(capsys, "verify", "--n-range", f"{cli.VERIFY_MAX_N}..{cli.VERIFY_MAX_N}",
                             "--corpus", str(corpus))
    assert (code, err) == (0, "") and json.loads(out)[0]["n"] == cli.VERIFY_MAX_N


HUGE_N = re.compile(r"error: n = (\d+) needs (a count table|tau rows) of about \d+ MiB, over the (\d+) MiB budget: "
                    r"1,1 allows n <= (\d+)\n")


@pytest.mark.parametrize("argv", [("enumerate", "--n", "1000000"), ("classify", "--n", "1000000"),
                                  ("classify", "--n-range", "1..1000000"), ("runs", "--n", "1000000"),
                                  ("tau", "--n", "1000000")])
def test_huge_n_refused_before_any_table(monkeypatch, capsys, argv):
    """At n = 10^6 the count table of 1,1 would take about 120 GiB, and
    tau's rows about 380 MiB; the command exits 2 in one line before it
    builds that table or any other."""
    built = []
    monkeypatch.setattr(words_mod, "_count_table", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "tau_table", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, argv[0], "--seq", "1,1", *argv[1:])
    assert (code, out, built) == (2, "", [])
    hit = HUGE_N.fullmatch(err)
    assert hit and hit.group(1) == "1000000" and int(hit.group(3)) * 2**20 == cli.COUNT_TABLE_BUDGET
    assert hit.group(2) == ("tau rows" if argv[0] == "tau" else "a count table")


def test_largest_n_under_the_table_budget_runs(monkeypatch, capsys):
    """The n the refusal names runs, and one more is refused."""
    monkeypatch.setattr(cli, "COUNT_TABLE_BUDGET", 2**17)
    e = ExpansionOfOne.parse("1,1")
    code, _, err = run_cli(capsys, "enumerate", "--seq", "1,1", "--n", "1000000", "--limit", "1")
    largest = int(HUGE_N.fullmatch(err).group(4))
    assert run_cli(capsys, "enumerate", "--seq", "1,1", "--n", str(largest), "--limit", "1")[0] == 0
    assert cli._count_table_bytes(e, largest) <= 2**17 < cli._count_table_bytes(e, largest + 1)
    code, out, err = run_cli(capsys, "enumerate", "--seq", "1,1", "--n", str(largest + 1), "--limit", "1")
    assert (code, out) == (2, "") and HUGE_N.fullmatch(err).group(4) == str(largest)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_largest_n_under_the_tau_budget_runs(monkeypatch, capsys, fmt):
    """tau is held to an estimate of the rows it prints, not to a count
    table it never builds: the n its refusal names runs, and one more is
    refused."""
    monkeypatch.setattr(cli, "COUNT_TABLE_BUDGET", 2**20)
    argv = ["tau", "--seq", "1,1", "--format", fmt, "--n"]
    largest = int(HUGE_N.fullmatch(run_cli(capsys, *argv, "1000000")[2]).group(4))
    assert cli._tau_rows_bytes(largest, fmt) <= 2**20 < cli._tau_rows_bytes(largest + 1, fmt)
    assert run_cli(capsys, *argv, str(largest))[0] == 0
    code, out, err = run_cli(capsys, *argv, str(largest + 1))
    assert (code, out) == (2, "") and HUGE_N.fullmatch(err).group(2, 4) == ("tau rows", str(largest))


@pytest.mark.parametrize("text", ["1,1", "2;1", "1000,1", "3,0,2,0,0,0,0,1"])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_tau_rows_estimate_bounds_tau(capsys, fresh_store, text, fmt):
    """tau's estimate is at least the command's traced peak at n = 50,000,
    printed rows included, and not twice it."""
    n = 50_000
    tracemalloc.start()
    try:
        code = cli.main(["tau", "--seq", text, "--n", str(n), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().err == ""
    assert peak <= cli._tau_rows_bytes(n, fmt) < 2 * peak


@pytest.mark.parametrize("text, n", [("1,1", 3000), ("3,0,2,0,0,0,0,1", 1500), ("9,9,9", 1500), ("2;1", 2000)])
def test_count_table_estimate_bounds_the_table(fresh_store, text, n):
    """The budget's estimate is at least the table's traced size, and not
    twice it."""
    e = ExpansionOfOne.parse(text)
    tracemalloc.start()
    try:
        words_mod._count_table(e, n)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= cli._count_table_bytes(e, n) < 2 * size


HUGE_DIGITS = re.compile(r"error: n = (\d+) needs digit rows of about \d+ MiB, over the (\d+) MiB budget: "
                         r"(.+) allows n <= (\d+)\n")


@pytest.mark.parametrize("argv, who", [(("expand", "--seq", "1,1"), "1,1"), (("expand", "--beta", "1.5"), "beta 1.5"),
                                       (("validate", "--beta", "1.5"), "beta 1.5")])
def test_huge_digit_n_refused_before_any_digit(monkeypatch, capsys, argv, who):
    """expand and validate --beta exit 2 in one line at n = 10^9, before
    they build a digit."""
    built = []
    for kind in (expansion_mod.ExpansionOfOne, expansion_mod.ModifiedExpansion):
        monkeypatch.setattr(kind, "digits_prefix", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "expansion_digits_from_beta", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, *argv, "--n", "1000000000")
    assert (code, out, built) == (2, "", [])
    hit = HUGE_DIGITS.fullmatch(err)
    assert hit and hit.group(1) == "1000000000" and int(hit.group(2)) * 2**20 == cli.COUNT_TABLE_BUDGET
    assert hit.group(3) == who


@pytest.mark.parametrize("argv", [("expand", "--seq", "2;1"), ("expand", "--beta", "1.5"),
                                  ("validate", "--beta", "1.5")])
def test_largest_n_under_the_digit_budget_runs(monkeypatch, capsys, argv):
    """Under a small budget, the n the refusal names runs, and one more is
    refused."""
    monkeypatch.setattr(cli, "COUNT_TABLE_BUDGET", 2**17)
    largest = int(HUGE_DIGITS.fullmatch(run_cli(capsys, *argv, "--n", "1000000")[2]).group(4))
    assert run_cli(capsys, *argv, "--n", str(largest))[0] == 0
    code, out, err = run_cli(capsys, *argv, "--n", str(largest + 1))
    assert (code, out) == (2, "") and HUGE_DIGITS.fullmatch(err).group(4) == str(largest)


@pytest.mark.parametrize("spec", [("--seq", "1,1"), ("--seq", "2;1"), ("--seq", "300;299"),
                                  ("--seq", "10,0,0,9;0,0,0,9"),
                                  ("--seq", ",".join(["9" * 200] * 5) + ";" + "9" * 199 + "8"),
                                  ("--beta", "1.5"), ("--beta", "2.5")])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_digit_rows_estimate_bounds_expand(capsys, spec, fmt):
    """The digit budget's estimate is at least expand's traced peak, and not
    three times it; validate --beta keeps less."""
    n = 3000
    top = ExpansionOfOne.parse(spec[1]).alphabet_max if spec[0] == "--seq" else int(float(spec[1]))
    for command in ("expand", "validate") if spec[0] == "--beta" else ("expand",):
        tracemalloc.start()
        try:
            code = cli.main([command, *spec, "--n", str(n), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak <= cli._digit_rows_bytes(n, top)
        assert command == "validate" or cli._digit_rows_bytes(n, top) < 3 * peak


def test_validate_beta_digits_take_linear_time(capsys):
    """1.0000001 +- 1e-12 certifies all of its first 100000 digits, 1 and
    then zeros; exact fractions took time quadratic in n (4.5 s at n = 8000)."""
    start = time.perf_counter()
    assert run_cli(capsys, "validate", "--beta", "1.0000001", "--n", "100000")[0] == 0
    assert time.perf_counter() - start < 2
    code, out, err = run_cli(capsys, "expand", "--beta", "1.0000001", "--n", "100000", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"field": "eps", "value": "1" + "0" * 99999}, {"field": "nonzero", "value": "1"}]


def test_validate_beta_reads_past_a_boundary_commit_at_once(capsys):
    """1.5 +- 1e-12 commits to a boundary at digit 65; the digits after it
    are 0 and cost no arithmetic, so n = 100000 takes well under a second."""
    start = time.perf_counter()
    assert run_cli(capsys, "validate", "--beta", "1.5", "--n", "100000")[0] == 0
    assert time.perf_counter() - start < 1
    code, out, err = run_cli(capsys, "expand", "--beta", "1.5", "--n", "100000", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)[1] == {"field": "nonzero", "value": "1,3,9,12,15,17,27,34,39,46,49,52,54,65"}


HUGE_TAIL = re.compile(r"error: (\S+) needs a tail table of about (\d+) MiB at n = (\d+), over the (\d+) MiB budget\n")


@pytest.mark.parametrize("argv", [("verify", "--corpus", "CORPUS"), ("verify", "--corpus", "CORPUS", "--shards", "2"),
                                  ("classify", "--seq", "1000000000,1", "--n", "12", "--check"),
                                  ("classify", "--seq", "1000000000,1", "--n-range", "1..12", "--check")])
def test_huge_tail_table_refused_before_it_is_built(monkeypatch, capsys, tmp_path, argv):
    """The KMP tail table of 1000000000,1 would take about 22 GiB: verify
    and classify --check exit 2 in one line naming the member, and build no
    tail table."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1,1\n1000000000,1\n")
    built = []
    monkeypatch.setattr(structure_mod, "tail_automaton", lambda *args: built.append(args))
    monkeypatch.setattr(verify_mod, "tail_automaton", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, *(str(corpus) if a == "CORPUS" else a for a in argv))
    assert (code, out, built) == (2, "", [])
    hit = HUGE_TAIL.fullmatch(err)
    assert hit and hit.group(1) == "1000000000,1" and hit.group(3) == "12"
    assert int(hit.group(4)) * 2**20 == cli.COUNT_TABLE_BUDGET


HUGE_CHECK = re.compile(r"error: n = (\d+) needs count and cylinder tables of about \d+ MiB, over the (\d+) MiB "
                        r"budget: 1,1 allows n <= (\d+)\n")


def test_classify_check_counts_its_cylinder_tables(monkeypatch, capsys):
    """classify --check also builds the cylinder tables of n, n + 1 entries
    of about 2n bits each on 1,1: at n = 40000 the count table fits
    the budget but the two together do not, and the command exits 2 in one
    line naming the largest n that fits, before it builds any table."""
    e = ExpansionOfOne.parse("1,1")
    built = []
    monkeypatch.setattr(words_mod, "_count_table", lambda *args: built.append(args))
    monkeypatch.setattr(structure_mod, "_calc", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, "classify", "--seq", "1,1", "--n", "40000", "--limit", "1", "--check")
    assert (code, out, built) == (2, "", [])
    hit = HUGE_CHECK.fullmatch(err)
    assert hit and hit.group(1) == "40000" and int(hit.group(2)) * 2**20 == cli.COUNT_TABLE_BUDGET
    largest = int(hit.group(3))

    def size(n):
        return cli._count_table_bytes(e, n) + cli._cylinder_table_bytes(e, n, structure_mod.DEFAULT_TOL)

    assert cli._count_table_bytes(e, 40000) <= cli.COUNT_TABLE_BUDGET
    assert size(largest) <= cli.COUNT_TABLE_BUDGET < size(largest + 1)


def test_largest_n_under_the_check_budget_runs(monkeypatch, capsys):
    """Under a small budget, the n the --check refusal names runs, and one
    more is refused; without --check that n + 1 runs."""
    monkeypatch.setattr(cli, "COUNT_TABLE_BUDGET", 2**17)
    argv = ("classify", "--seq", "1,1", "--limit", "1", "--check")
    code, _, err = run_cli(capsys, *argv, "--n", "1000")
    largest = int(HUGE_CHECK.fullmatch(err).group(3))
    assert run_cli(capsys, *argv, "--n", str(largest))[0] == 0
    code, out, err = run_cli(capsys, *argv, "--n", str(largest + 1))
    assert (code, out) == (2, "") and HUGE_CHECK.fullmatch(err).group(3) == str(largest)
    assert run_cli(capsys, *argv[:-1], "--n", str(largest + 1))[0] == 0


@pytest.mark.parametrize("text, n", [("1,1", 2000), ("3,0,2,0,0,0,0,1", 500), ("9,9,9", 500), ("2;1", 800),
                                     ("1000,1", 300)])
@pytest.mark.parametrize("tol", [Fraction(1, 2), structure_mod.DEFAULT_TOL, Fraction(1, 2**4096)],
                         ids=["1/2", "1e-12", "2^-4096"])
def test_cylinder_table_estimate_bounds_the_tables(text, n, tol):
    """The --check budget's cylinder estimate is at least the tables'
    traced size, and not twice it."""
    e = ExpansionOfOne.parse(text)
    structure_mod._calc.cache_clear()
    tracemalloc.start()
    try:
        structure_mod.cylinder_calc(e, n, tol)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= cli._cylinder_table_bytes(e, n, tol) < 2 * size


def test_classify_without_check_reads_no_tail_table(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(structure_mod, "tail_automaton", lambda *args: built.append(args))
    code, out, err = run_cli(capsys, "classify", "--seq", "1000000000,1", "--n", "12", "--limit", "2")
    assert (code, out, err, built) == (0, "word          full\n000000000000  1\n000000000001  1\n", "", [])


@pytest.mark.parametrize("text, n", [("100000,1", 5), ("300,0,7;5,299", 900), ("25;1", 2000),
                                     ("30,0,0,29;0,0,0,29", 900)])
def test_tail_table_estimate_bounds_the_table(text, n):
    """The tail budget's estimate is at least the table's traced size and
    its peak while built, and not twice the size.  The rows here are wider
    than the tuples Python recycles untraced, so the size is all traced."""
    e = ExpansionOfOne.parse(text)
    structure_mod.tail_automaton.cache_clear()
    tracemalloc.start()
    try:
        structure_mod.tail_automaton(e, structure_mod.tail_cap(e, n))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= peak <= cli._tail_table_bytes(e, n) < 2 * size


# --- the interface: which options each command takes, and their defaults ---

OPTION_VALUES = {"--seq": ["1,1"], "--corpus": ["FILE"], "--beta": ["1.5"], "--tol": ["1e-9"], "--n": ["3"],
                 "--n-range": ["1..3"], "--start": ["0"], "--limit": ["1"], "--shards": ["1"], "--check": [],
                 "--format": ["plain"]}
TAKES = {
    "expand": {"--seq", "--beta", "--tol", "--n", "--format"},
    "validate": {"--seq", "--beta", "--tol", "--n", "--format"},
    "enumerate": {"--seq", "--n", "--start", "--limit", "--format"},
    "classify": {"--seq", "--tol", "--n", "--n-range", "--start", "--limit", "--check", "--format"},
    "runs": {"--seq", "--n", "--format"},
    "tau": {"--seq", "--n", "--format"},
    "verify": {"--corpus", "--tol", "--n-range", "--shards"},
}


@pytest.mark.parametrize("argv", [("classify", "--seq", "1,1", "--n", "3", "--lim", "1"), ("verify", "--n", "5"),
                                  ("enumerate", "--seq", "1,1", "--n", "3", "--st", "1")])
def test_abbreviated_options_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def parsed_args(monkeypatch, capsys, *argv):
    """(exit code, stderr, the namespace main handed its command) for argv,
    with every command's handler replaced by one that only records."""
    seen = []

    def record(args, out, err=None):
        seen.append(args)
        return cli.OK

    for command in TAKES:
        monkeypatch.setattr(cli, f"cmd_{command}", record)
    code, _, err = run_cli(capsys, *argv)
    return code, err, seen[0] if seen else None


@pytest.mark.parametrize("command", sorted(TAKES))
@pytest.mark.parametrize("option", sorted(OPTION_VALUES))
def test_each_command_takes_exactly_its_options(monkeypatch, capsys, command, option):
    code, err, args = parsed_args(monkeypatch, capsys, command, option, *OPTION_VALUES[option])
    if option in TAKES[command]:
        assert (code, err) == (0, "") and args is not None
    else:
        assert (code, args) == (2, None)
        assert f"unrecognized arguments: {' '.join([option, *OPTION_VALUES[option]])}" in err


@pytest.mark.parametrize("command", sorted(TAKES))
def test_command_defaults(monkeypatch, capsys, command):
    code, err, args = parsed_args(monkeypatch, capsys, command)
    assert (code, err, args.command) == (0, "", command)
    assert getattr(args, "n", None) == (16 if command in ("expand", "validate") else None)
    defaults = {"tol": "1/1000000000000", "shards": 1, "format": "plain", "check": False}
    for dest, value in defaults.items():
        if f"--{dest}" in TAKES[command]:
            assert getattr(args, dest) == value, dest
    for dest in ("seq", "corpus", "beta", "n_range", "start", "limit"):
        if f"--{dest.replace('_', '-')}" in TAKES[command]:
            assert getattr(args, dest) is None, dest


# --- one subparser for the command that runs, and the text of every parse ---


def parser_of_every_command():
    """A parser of all seven commands with argparse's own metavar, built
    from the same tables but apart from cli._build_parser."""
    parser = argparse.ArgumentParser(prog="beta-words", allow_abbrev=False,
                                     description=cli._build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, defaults) in cli.COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **cli.OPTIONS[option])
        p.set_defaults(**defaults)
    return parser


def parse_with_every_command(capsys, argv):
    """(exit code, stdout, stderr) of argv through parser_of_every_command,
    as main maps a parse that exits; None for the code when the parse goes
    through."""
    try:
        parser_of_every_command().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = cli.INPUT_ERROR if exc.code else cli.OK
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def abbreviation(command):
    """The command's first option cut to its first four characters, a
    unique prefix of it, with a value."""
    option = cli.COMMANDS[command][1][0]
    return option[:4], OPTION_VALUES[option][0]


def parse_matrix():
    """The top-level help, no arguments and an unknown command; per command
    its help, an unrecognized option, an abbreviated option, a bad int and a
    missing value."""
    cases = [("--help",), ("-h",), (), ("bogus",), ("bogus", "--n", "3"), ("--bogus",)]
    for command, (_, options, _) in cli.COMMANDS.items():
        int_option = next(o for o in options if cli.OPTIONS[o].get("type") is int)
        cases += [(command, "--help"), (command, "--bogus"), (command, *abbreviation(command)),
                  (command, int_option, "x"), (command, options[0])]
    return cases


@pytest.mark.parametrize("argv", parse_matrix(), ids=lambda argv: " ".join(argv) or "no arguments")
def test_parse_text_matches_a_parser_of_every_command(capsys, argv):
    """main builds only the subparser of the command that runs, yet its
    stdout, stderr and exit code equal those of a parser with all seven
    commands, in this interpreter, whose argparse sets the text."""
    want = parse_with_every_command(capsys, list(argv))
    assert want[0] is not None
    assert run_cli(capsys, *argv) == want


@pytest.mark.parametrize("argv, built", [(("verify", "--n-range", "1..2"), ["verify"]),
                                         (("tau", "--seq", "1,1", "--n", "3"), ["tau"]),
                                         ((), list(cli.COMMANDS)), (("--help",), list(cli.COMMANDS)),
                                         (("bogus",), list(cli.COMMANDS))])
def test_main_builds_only_the_subparser_that_runs(monkeypatch, capsys, argv, built):
    real = argparse._SubParsersAction.add_parser
    names = []

    def spy(self, name, **kwargs):
        names.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    run_cli(capsys, *argv)
    assert names == built


def test_usage_lists_every_command_after_a_one_command_parse(capsys):
    code, out, err = run_cli(capsys, "verify", "--bogus")
    assert (code, out) == (2, "")
    assert "{expand,validate,enumerate,classify,runs,tau,verify}" in err.splitlines()[1]


# --- a reader that closes stdout early ---


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is the test's own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [("enumerate", "--seq", "1,1", "--n", "5"),
                                  ("enumerate", "--seq", "1,1", "--n", "5", "--format", "csv"),
                                  ("enumerate", "--seq", "1,1", "--n", "5", "--format", "json"),
                                  ("runs", "--seq", "1,1", "--n", "5"), ("verify", "--n-range", "1..2")])
def test_a_closed_stdout_ends_quietly(monkeypatch, capsys, tmp_path, argv):
    """A closed stdout is no input error: main prints no error line, exits
    0, and points the stream's descriptor at devnull, so the flush at exit
    raises nothing."""
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = cli.main(list(argv))
        os.write(fd, b"after the reader left\n")
    finally:
        os.close(fd)
    assert (code, capsys.readouterr().err, target.read_bytes()) == (0, "", b"")


def test_enumerate_into_a_pipe_closed_after_one_line(capsys):
    """`beta-words enumerate ... | head -1`: the process exits 0 with nothing
    on stderr, no error line and no exception at exit."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "beta_words", "enumerate", "--seq", "1,1", "--n", "22"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (first.split(), code, err) == ([b"index", b"word", b"full"], 0, b"")
