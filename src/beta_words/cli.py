"""Command-line front end: parse a beta specification, run one computation,
emit plain/CSV/JSON tables, and drive the verification harness.

Exit codes: 0 success, 2 input error, 3 verification mismatch, 4 integer
beta where the run-length theory needs beta irrational.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from math import floor, log2

from .corpus import default_corpus, load_corpus
from .errors import BetaWordsError, IntegerBeta, VerificationError
from .expansion import (
    MAX_PRECISION,
    BetaInterval,
    ExpansionOfOne,
    expansion_digits_from_beta,
    max_zero_run,
    modified_expansion,
    nonzero_sequence,
    solve_beta,
)
from .runs import FULL, maximal_runs, one_run, stitch_run_scans, tau_table
from .structure import (
    DEFAULT_TOL,
    UNDECIDED,
    _bits_for,
    cylinder,
    decompose,
    is_full,
    is_full_by_length,
    smallest_tail_length,
    tail_cap,
)
from .verify import _compare_run_sets, render_report, verify_report
from .words import Word, automaton, count, iter_words

OK = 0
INPUT_ERROR = 2
MISMATCH = 3
PRECONDITION = 4

# Bytes the exact-count table of one --n may take, as n^2 grows; classify
# --check counts its cylinder tables in it too, and verify and classify
# --check hold the tail table to it, as n * eps_1 grows.
COUNT_TABLE_BUDGET = 2**28
# The greatest n verify sweeps: its memo grows faster than n^2 on a periodic
# member, and `verify --n-range 958..958` on 3,0,0,2;0,0,0,2 alone took 8.9 s
# and peaked at 784 MiB RSS (2 vCPUs, Python 3.11).
VERIFY_MAX_N = 959
# The most digits M (preperiod plus period) of an expansion whose beta verify
# and classify --check solve.  solve_beta makes about 2 log2(bits) Horner
# passes over the degree-M root polynomial at a precision of about M times
# the bits per digit, so its time grows faster than M^3, and faster for wide
# digits: `verify` at the default 1..12 took 0.33 s on 2,...,2,1 and 5.7 s on
# 1000,...,1000,1 with 256 digits, and verify_report 1.4 s on the twos with
# 512 and 18 s on the thousands with 384 (2 vCPUs, Python 3.11, one run each).
MAX_DIGITS = 256


# Each option once, with its argparse keywords.
OPTIONS = {
    "--seq": dict(metavar="DIGITS", help="expansion of 1 as 'a,b,c' (finite) or 'a,b;c,d' (preperiod;period)"),
    "--corpus": dict(metavar="FILE", help="file with one digit-sequence spec per line (# comments)"),
    "--beta": dict(metavar="DECIMAL", help="beta as a decimal string"),
    "--tol": dict(default=str(DEFAULT_TOL), metavar="T", help="tolerance for numeric work (default 1e-12)"),
    "--n": dict(type=int, metavar="N", help="word length"),
    "--n-range": dict(metavar="A..B", help="inclusive range of word lengths"),
    "--start": dict(type=int, metavar="I", help="lex rank of the first word listed (default 0; with --n only)"),
    "--limit": dict(type=int, metavar="K", help="list at most K words (default all; with --n only)"),
    "--shards": dict(type=int, default=1, metavar="K",
                     help="worker processes for the sweeps, at most one per core and one per (member, n) (default 1)"),
    "--check": dict(action="store_true", help="cross-check all fullness criteria and fail on disagreement"),
    "--format": dict(choices=("plain", "csv", "json"), default="plain", help="output format (default plain)"),
}

# Per command: its help, its options in --help order, and the defaults it
# sets; main runs cmd_<command>(args, out, err).  verify always prints its
# JSON report, so it has no --format.
COMMANDS = {
    "expand": ("digits of eps(1,beta) and eps*(1,beta)", ("--seq", "--beta", "--tol", "--n", "--format"), {"n": 16}),
    "validate": ("check that a spec is a valid expansion of 1", ("--seq", "--beta", "--tol", "--n", "--format"),
                 {"n": 16}),
    "enumerate": ("admissible words of length n in lex order", ("--seq", "--n", "--start", "--limit", "--format"), {}),
    "classify": ("fullness of every admissible word of length n",
                 ("--seq", "--tol", "--n", "--n-range", "--start", "--limit", "--check", "--format"), {}),
    "runs": ("maximal runs and run-length sets at length n", ("--seq", "--n", "--format"), {}),
    "tau": ("greedy step counts tau(s) for s = 1..n", ("--seq", "--n", "--format"), {}),
    "verify": ("formula-vs-enumeration report over a corpus", ("--corpus", "--tol", "--n-range", "--shards"), {}),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv: only argv[0]'s subparser when that names a command, else all.
    Usage lists all either way; all seven keep argparse's metavar, which names the missing command."""
    parser = argparse.ArgumentParser(
        prog="beta-words",
        allow_abbrev=False,
        description="Full and non-full words of beta-expansions: expansions, "
                    "admissible words, fullness criteria, run-length sets.",
    )
    names = [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if names is COMMANDS else "{" + ",".join(COMMANDS) + "}")
    for command in names:
        help_text, options, defaults = COMMANDS[command]
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(**defaults)
    return parser


def _parse_fraction(text: str, what: str) -> Fraction:
    """text as a Fraction in [2^-MAX_PRECISION, 2^MAX_PRECISION], else
    BetaWordsError naming what it is.  Decimal text is screened by its
    exponent first: Fraction would build 10^|exp|."""
    digits = len(str(2**MAX_PRECISION)) - 1  # 10^digits < 2^MAX_PRECISION < 10^(digits + 1)
    try:
        screen = Decimal(text) if "/" not in text else None
    except ArithmeticError:
        raise BetaWordsError(f"cannot parse {what} {text!r}")
    if screen is not None and screen.is_finite():
        if screen <= 0:
            raise BetaWordsError(f"{what} must be positive")
        if screen.adjusted() < -digits - 1:
            raise BetaWordsError(f"{what} {text} is below the floor 2^-{MAX_PRECISION}")
        if screen.adjusted() > digits:
            raise BetaWordsError(f"{what} {text} is above the ceiling 2^{MAX_PRECISION}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BetaWordsError(f"cannot parse {what} {text!r}")
    if value <= 0:
        raise BetaWordsError(f"{what} must be positive")
    if value < Fraction(1, 2**MAX_PRECISION):
        raise BetaWordsError(f"{what} {text} is below the floor 2^-{MAX_PRECISION}")
    if value > 2**MAX_PRECISION:
        raise BetaWordsError(f"{what} {text} is above the ceiling 2^{MAX_PRECISION}")
    return value


def _parse_n(args) -> int:
    n = args.n
    if n is None:
        raise BetaWordsError("--n is required")
    if n < 1:
        raise BetaWordsError("word length n must be >= 1")
    return n


def _count_table_bytes(e: ExpansionOfOne, n: int) -> float:
    """An upper estimate of the bytes of the count table that words of
    length n read: rows 0..n, each a tuple (about 64 bytes) of one integer
    per block state, and a slot (8 bytes and spare capacity, 16 in all) in
    the state-1 column kept beside the rows; an integer of row m has at most
    m * log2(eps_1 + 1) bits, 4 bytes per 30 bits past its 36 bytes of
    header and tuple slot; averaged over the rows, n * log2(eps_1 + 1) / 15
    bytes."""
    states = len(automaton(e).cmp) - 1
    return (n + 1) * (80 + states * (36 + n * log2(e.alphabet_max + 1) / 15))


def _cylinder_table_bytes(e: ExpansionOfOne, n: int, tol: Fraction) -> float:
    """An upper estimate of the bytes of the power tables of
    structure.cylinder_calc(e, n, tol): two lists of n + 1 integers, entry
    i of at most bits - i * log2(eps_1) + 1 bits, 4 bytes per 30 bits past
    40 bytes of header, list slot and spare capacity, and 40 bytes a row to
    spare."""
    bits = _bits_for(e, n, tol) + 1 - n * log2(e.alphabet_max) / 2  # the entries' mean bound
    return (n + 1) * (3 * 40 + 2 * bits / 7.5)


def _digit_rows_bytes(n: int, top: int) -> float:
    """An upper estimate of the peak bytes of expand at length n when no
    digit passes top: per position 80 bytes of tuple and list slots, 10 per
    character of a digit's text, comma included (the digit rows' texts, the
    lines they are written in and the digit strings joined into them), and
    8 per character of a position's text (the nonzero row).  validate
    --beta keeps only the digits."""
    return n * (80 + 10 * (len(str(top)) + 1) + 8 * (len(str(n)) + 1))


def _check_budget(n: int, size, what: str, who: str) -> None:
    """Refuse, before anything is built, an n whose what would take more
    than COUNT_TABLE_BUDGET bytes by the estimate size, naming the largest n
    that fits."""
    if size(n) <= COUNT_TABLE_BUDGET:
        return
    lo, hi = 0, n - 1  # the largest n that fits lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if size(mid) <= COUNT_TABLE_BUDGET:
            lo = mid
        else:
            hi = mid - 1
    raise BetaWordsError(f"n = {n} needs {what} of about {size(n) / 2**20:.0f} MiB, "
                         f"over the {COUNT_TABLE_BUDGET // 2**20} MiB budget: {who} allows n <= {lo}")


def _check_table_budget(e: ExpansionOfOne, n: int, tol: Fraction | None = None) -> None:
    """Refuse, before any table is built, an n whose count table, and with
    tol also the cylinder tables that classify --check reads, would pass
    COUNT_TABLE_BUDGET."""

    def size(m: int) -> float:
        return _count_table_bytes(e, m) + (0 if tol is None else _cylinder_table_bytes(e, m, tol))

    _check_budget(n, size, "a count table" if tol is None else "count and cylinder tables", e.text())


def _tail_table_bytes(e: ExpansionOfOne, n: int) -> float:
    """An upper estimate of the peak bytes of the tail table that words of
    length n read, structure.tail_automaton(e, tail_cap(e, n)): cap + 1
    rows, each a tuple of eps_1 + 1 slots, and the list the next row is
    built in, at 64 bytes a header; per row also 160 bytes for two
    integers, two outer slots and a chain of two entries (a chain lists a
    state and its borders, and an expansion of 1 has few)."""
    cap = tail_cap(e, n)
    return (cap + 2) * (64 + 8 * (e.alphabet_max + 1)) + (cap + 1) * 160


def _check_digits(e: ExpansionOfOne) -> None:
    """Refuse, before beta is solved, an expansion past MAX_DIGITS digits."""
    digits = len(e.preperiod) + len(e.period)
    if digits > MAX_DIGITS:
        raise BetaWordsError(f"an expansion of {digits} digits is past the bound of {MAX_DIGITS} digits "
                             "(preperiod plus period) that verify and classify --check solve beta for")


def _check_tail_budget(e: ExpansionOfOne, n: int) -> None:
    """Refuse, before the table is built, an expansion whose tail table at
    length n would pass COUNT_TABLE_BUDGET."""
    if _tail_table_bytes(e, n) > COUNT_TABLE_BUDGET:
        raise BetaWordsError(f"{e.text()} needs a tail table of about {_tail_table_bytes(e, n) / 2**20:.0f} MiB "
                             f"at n = {n}, over the {COUNT_TABLE_BUDGET // 2**20} MiB budget")


def _parse_n_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise BetaWordsError(f"cannot parse n-range {text!r}; expected A..B")
    if lo < 1 or hi < lo:
        raise BetaWordsError(f"invalid n-range {text!r}")
    return range(lo, hi + 1)


def _word_window(e: ExpansionOfOne, n: int, args) -> Iterator[Word]:
    """The words of length n in the --start/--limit window, in lex order."""
    start = args.start or 0
    total = count(e, n)
    if not 0 <= start <= total:
        raise BetaWordsError(f"--start {start} outside 0..{total}")
    if args.limit is not None and args.limit < 0:
        raise BetaWordsError("--limit must be >= 0")
    return iter_words(e, n, start, args.limit)


def _expansion(args) -> ExpansionOfOne:
    if args.seq is None:
        raise BetaWordsError("--seq is required")
    return ExpansionOfOne.parse(args.seq)


def _decimal(value: Fraction, places: int) -> str:
    scaled = round(value * 10**places)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _places(tol: Fraction) -> int:
    places = 1
    while Fraction(1, 10**places) > tol and places < 30:
        places += 1
    return min(30, places + 2)


def _interval(lo: Fraction, hi: Fraction, places: int) -> str:
    return f"[{_decimal(lo, places)},{_decimal(hi, places)}]"


def _emit_rows(fmt: str, header: list[str], rows, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        rows = [[str(c) for c in row] for row in rows]
        widths = [len(h) for h in header]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _seq_or_beta(args) -> tuple[int, Fraction, ExpansionOfOne | None, BetaInterval | None]:
    """expand's and validate's --n and --tol, and exactly one of --seq, as
    an expansion, and --beta, as an interval of half-width tol whose n
    digits are held to COUNT_TABLE_BUDGET; the other is None."""
    n = _parse_n(args)
    tol = _parse_fraction(args.tol, "tolerance")
    if args.beta is None:
        return n, tol, _expansion(args), None
    if args.seq is not None:
        raise BetaWordsError("give exactly one of --seq and --beta")
    beta = BetaInterval.from_decimal(_parse_fraction(args.beta, "beta"), tol)
    _check_budget(n, lambda m: _digit_rows_bytes(m, floor(beta.hi)), "digit rows", f"beta {args.beta}")
    return n, tol, None, beta


def cmd_expand(args, out, err) -> int:
    n, tol, e, beta = _seq_or_beta(args)
    if beta is not None:
        digits = tuple(expansion_digits_from_beta(beta, n))
        rows = [
            ("eps", Word(digits).text()),
            ("nonzero", ",".join(str(i) for i, d in enumerate(digits, start=1) if d)),
        ]
    else:
        _check_budget(n, lambda m: _digit_rows_bytes(m, e.alphabet_max), "digit rows", e.text())
        star = modified_expansion(e)
        star_text = "(" + Word(star.period).text() + ")*"
        if star.preperiod:
            star_text = Word(star.preperiod).text() + ";" + star_text
        rows = [
            ("eps", Word(e.digits_prefix(n)).text()),
            ("eps_star", Word(star.digits_prefix(n)).text()),
            ("eps_star_rep", star_text),
            ("nonzero", ",".join(str(i) for i in nonzero_sequence(e, n))),
            (f"r_{n}", str(max_zero_run(e, n))),
        ]
    _emit_rows(args.format, ["field", "value"], rows, out)
    return OK


def cmd_validate(args, out, err) -> int:
    n, tol, e, beta = _seq_or_beta(args)
    if beta is not None:
        expansion_digits_from_beta(beta, n)
        out.write(f"ok beta in [{beta.lo}, {beta.hi}]\n")
        return OK
    beta = solve_beta(e, tol)
    out.write(f"ok {e.text()} beta={_interval(beta.lo, beta.hi, _places(tol))}\n")
    return OK


def cmd_enumerate(args, out, err) -> int:
    e = _expansion(args)
    n = _parse_n(args)
    _check_table_budget(e, n)
    rows = [(i, w.text(), int(is_full(w, e))) for i, w in enumerate(_word_window(e, n, args), args.start or 0)]
    _emit_rows(args.format, ["index", "word", "full"], rows, out)
    return OK


def cmd_classify(args, out, err) -> int:
    e = _expansion(args)
    tol = _parse_fraction(args.tol, "tolerance")
    if args.n_range is not None:
        if args.start is not None or args.limit is not None:
            raise BetaWordsError("--start and --limit need --n, not --n-range")
        n_values = _parse_n_range(args.n_range)
    else:
        n_values = [_parse_n(args)]
    if args.check:
        _check_digits(e)
    _check_table_budget(e, n_values[-1], tol if args.check else None)
    if args.check:
        _check_tail_budget(e, n_values[-1])
    places = _places(tol)
    disagreements = 0
    rows = []
    for n in n_values:
        for w in _word_window(e, n, args):
            full = is_full(w, e)
            if not args.check:
                rows.append((w.text(), int(full)))
                continue
            tail_s = smallest_tail_length(w, e)
            dec = decompose(w, e)
            cyl = cylinder(w, e, tol)
            by_tail = tail_s is None
            by_length = is_full_by_length(w, e, tol)
            if by_tail != full:
                disagreements += 1
                err.write(f"{w.text()}: structural says {full}, tail criterion says {by_tail}\n")
            if by_length is UNDECIDED:
                disagreements += 1
                err.write(f"{w.text()}: length criterion undecided at tol {tol}\n")
            elif by_length != full:
                disagreements += 1
                err.write(f"{w.text()}: structural says {full}, length criterion says {by_length}\n")
            rows.append((
                w.text(),
                int(full),
                "" if tail_s is None else tail_s,
                len(dec.blocks),
                dec.tail[0],
                _interval(*cyl.left, places),
                _interval(*cyl.right, places),
            ))
    if args.check:
        header = ["word", "full", "tail_s", "block_count", "tail_l", "cyl_left", "cyl_right"]
    else:
        header = ["word", "full"]
    _emit_rows(args.format, header, rows, out)
    if disagreements:
        err.write(f"{disagreements} criterion disagreements\n")
        return MISMATCH
    return OK


def cmd_runs(args, out, err) -> int:
    e = _expansion(args)
    n = _parse_n(args)
    _check_table_budget(e, n)
    records = maximal_runs(e, n)
    runs = stitch_run_scans(one_run(r.kind == FULL, r.length) for r in records)
    row, failures = _compare_run_sets(e, n, runs)
    rows = [
        (r.kind, r.start_index, r.length, r.first_word.text(), r.last_word.text())
        for r in records
    ]
    summary = {key: row[key] for key in ("F_formula", "F_enum", "N_formula", "N_enum")}
    summary["match"] = row["match"] and not failures
    if args.format == "json":
        payload = {
            "records": [dict(zip(["kind", "start_index", "length", "first_word", "last_word"], r))
                        for r in rows],
            **summary,
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _emit_rows(args.format, ["kind", "start_index", "length", "first_word", "last_word"], rows, out)
        if args.format == "plain":
            for key in ("F_formula", "F_enum", "N_formula", "N_enum"):
                out.write(f"{key} {{{','.join(str(v) for v in summary[key])}}}\n")
            out.write(f"match {str(summary['match']).lower()}\n")
    for message in failures:
        err.write(message + "\n")
    return OK if summary["match"] else MISMATCH


def cmd_tau(args, out, err) -> int:
    e = _expansion(args)
    n = _parse_n(args)
    _check_table_budget(e, n)
    taus = tau_table(e, n)
    rows = [(s, taus[s]) for s in range(1, n + 1)]
    _emit_rows(args.format, ["s", "tau"], rows, out)
    return OK


def cmd_verify(args, out, err) -> int:
    if args.shards < 1:
        raise BetaWordsError("--shards must be >= 1")
    tol = _parse_fraction(args.tol, "tolerance")
    n_values = _parse_n_range(args.n_range) if args.n_range else range(1, 13)
    if n_values[-1] > VERIFY_MAX_N:
        raise BetaWordsError(f"n = {n_values[-1]} is past verify's bound n <= {VERIFY_MAX_N}")
    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    if not corpus:
        raise BetaWordsError(f"corpus file {args.corpus} holds no expansion, so there is nothing to verify")
    for e in corpus:
        _check_digits(e)
        _check_tail_budget(e, n_values[-1])
    rows, failures = verify_report(corpus, n_values, tol, args.shards)
    out.write(render_report(rows))
    for message in failures:
        err.write(message + "\n")
    return MISMATCH if failures else OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code else OK
    out, err = sys.stdout, sys.stderr
    try:
        return globals()[f"cmd_{args.command}"](args, out, err)
    except IntegerBeta as exc:
        err.write(f"error: {exc}\n")
        return PRECONDITION
    except VerificationError as exc:
        err.write(f"error: {exc}\n")
        return MISMATCH
    except BrokenPipeError:  # the reader left: stop quietly, and let the flush at exit write to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), out.fileno())
        return OK
    except (BetaWordsError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
