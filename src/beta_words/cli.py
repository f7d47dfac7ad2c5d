"""Command-line front end: parse a beta specification, run one computation,
emit plain/CSV/JSON tables, and drive the verification harness.

Exit codes: 0 success, 2 input error, 3 verification mismatch, 4 integer
beta where the run-length theory needs beta irrational.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from math import log2

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
    is_full_by_length,
    smallest_tail_length,
    tail_cap,
)
from .verify import _compare_run_sets, render_report, verify_report
from .words import Word, automaton, count, start_at, walk

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
# and classify --check solve: near an integer beta the certified Newton step
# fails, so solve_beta runs Horner over the degree-M root polynomial once per
# bit of a precision that grows with M, and its time grows faster than M^3.
# `verify` at the default 1..12 on 2,...,2,1 took 3.1 s with 256 digits,
# 7.9 s with 257, 19 s with 384 and 71 s with 512; wider digits cost more,
# 1000,...,1000,1 took 9.6 s with 128 digits (2 vCPUs, Python 3.11, one run
# each).
MAX_DIGITS = 256


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beta-words",
        description="Full and non-full words of beta-expansions: expansions, "
                    "admissible words, fullness criteria, run-length sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, beta_ok=False, n_default=None, shards=False, check=False, corpus=False, tol=False,
                   window=False):
        if corpus:
            p.add_argument("--corpus", metavar="FILE",
                           help="file with one digit-sequence spec per line (# comments)")
        else:
            p.add_argument("--seq", metavar="DIGITS",
                           help="expansion of 1 as 'a,b,c' (finite) or 'a,b;c,d' (preperiod;period)")
        if beta_ok:
            p.add_argument("--beta", metavar="DECIMAL", help="beta as a decimal string")
        if tol:
            p.add_argument("--tol", default=str(DEFAULT_TOL), metavar="T",
                           help="tolerance for numeric work (default 1e-12)")
        if n_default != "range-only":
            p.add_argument("--n", type=int, metavar="N", default=n_default, help="word length")
        if n_default == "range-only" or check:
            p.add_argument("--n-range", dest="n_range", metavar="A..B",
                           help="inclusive range of word lengths")
        if window:
            p.add_argument("--start", type=int, metavar="I",
                           help="lex rank of the first word listed (default 0; with --n only)")
            p.add_argument("--limit", type=int, metavar="K",
                           help="list at most K words (default all; with --n only)")
        if shards:
            p.add_argument("--shards", type=int, default=1, metavar="K",
                           help="worker processes for the sweeps, at most one per core "
                                "and one per (member, n) (default 1)")
        if check:
            p.add_argument("--check", action="store_true",
                           help="cross-check all fullness criteria and fail on disagreement")
        if not corpus:  # verify always prints its JSON report
            p.add_argument("--format", choices=("plain", "csv", "json"), default="plain",
                           help="output format (default plain)")

    p = sub.add_parser("expand", help="digits of eps(1,beta) and eps*(1,beta)")
    add_common(p, beta_ok=True, n_default=16, tol=True)

    p = sub.add_parser("validate", help="check that a spec is a valid expansion of 1")
    add_common(p, beta_ok=True, n_default=16, tol=True)

    p = sub.add_parser("enumerate", help="admissible words of length n in lex order")
    add_common(p, window=True)

    p = sub.add_parser("classify", help="fullness of every admissible word of length n")
    add_common(p, check=True, tol=True, window=True)

    p = sub.add_parser("runs", help="maximal runs and run-length sets at length n")
    add_common(p)

    p = sub.add_parser("tau", help="greedy step counts tau(s) for s = 1..n")
    add_common(p)

    p = sub.add_parser("verify", help="formula-vs-enumeration report over a corpus")
    add_common(p, n_default="range-only", shards=True, corpus=True, tol=True)
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


def _parse_tol(args) -> Fraction:
    return _parse_fraction(args.tol, "tolerance")


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
    per block state, and an integer of row m has at most
    m * log2(eps_1 + 1) bits, 4 bytes per 30 bits past its 36 bytes of
    header and tuple slot; averaged over the rows, n * log2(eps_1 + 1) / 15
    bytes."""
    states = len(automaton(e).cmp) - 1
    return (n + 1) * (64 + states * (36 + n * log2(e.alphabet_max + 1) / 15))


def _cylinder_table_bytes(e: ExpansionOfOne, n: int, tol: Fraction) -> float:
    """An upper estimate of the bytes of the power tables of
    structure.cylinder_calc(e, n, tol): two lists of n + 1 integers, entry
    i of at most bits - i * log2(eps_1) + 1 bits, 4 bytes per 30 bits past
    40 bytes of header, list slot and spare capacity, and 40 bytes a row to
    spare."""
    bits = _bits_for(e, n, tol) + 1 - n * log2(e.alphabet_max) / 2  # the entries' mean bound
    return (n + 1) * (3 * 40 + 2 * bits / 7.5)


def _check_table_budget(e: ExpansionOfOne, n: int, tol: Fraction | None = None) -> None:
    """Refuse, before any table is built, an n whose count table, and with
    tol also the cylinder tables that classify --check reads, would pass
    COUNT_TABLE_BUDGET, naming the largest n that fits."""

    def size(m: int) -> float:
        return _count_table_bytes(e, m) + (0 if tol is None else _cylinder_table_bytes(e, m, tol))

    if size(n) <= COUNT_TABLE_BUDGET:
        return
    lo, hi = 0, n - 1  # the largest n that fits lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if size(mid) <= COUNT_TABLE_BUDGET:
            lo = mid
        else:
            hi = mid - 1
    tables = "a count table" if tol is None else "count and cylinder tables"
    raise BetaWordsError(f"n = {n} needs {tables} of about {size(n) / 2**20:.0f} MiB, "
                         f"over the {COUNT_TABLE_BUDGET // 2**20} MiB budget: {e.text()} allows n <= {lo}")


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


def _word_window(e: ExpansionOfOne, n: int, args) -> Iterator[tuple[Word, bool]]:
    """The words of length n in the --start/--limit window, in lex order,
    each with its structural verdict."""
    start = args.start or 0
    total = count(e, n)
    if not 0 <= start <= total:
        raise BetaWordsError(f"--start {start} outside 0..{total}")
    if args.limit is not None and args.limit < 0:
        raise BetaWordsError("--limit must be >= 0")
    if start == total:
        return iter(())
    digits, states = start_at(e, n, start)
    return ((Word(tuple(digits)), states[-1] == 1) for _ in walk(e, digits, states, args.limit))


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


def cmd_expand(args, out) -> int:
    n = _parse_n(args)
    tol = _parse_tol(args)
    if args.beta is not None and args.seq is not None:
        raise BetaWordsError("give exactly one of --seq and --beta")
    if args.beta is not None:
        beta = BetaInterval.from_decimal(_parse_fraction(args.beta, "beta"), tol)
        digits = tuple(expansion_digits_from_beta(beta, n))
        rows = [
            ("eps", Word(digits).text()),
            ("nonzero", ",".join(str(i) for i, d in enumerate(digits, start=1) if d)),
        ]
    else:
        e = _expansion(args)
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


def cmd_validate(args, out) -> int:
    n = _parse_n(args)
    tol = _parse_tol(args)
    if args.beta is not None and args.seq is not None:
        raise BetaWordsError("give exactly one of --seq and --beta")
    if args.beta is not None:
        beta = BetaInterval.from_decimal(_parse_fraction(args.beta, "beta"), tol)
        expansion_digits_from_beta(beta, n)
        out.write(f"ok beta in [{beta.lo}, {beta.hi}]\n")
        return OK
    e = _expansion(args)
    beta = solve_beta(e, tol)
    places = _places(tol)
    out.write(f"ok {e.text()} beta={_interval(beta.lo, beta.hi, places)}\n")
    return OK


def cmd_enumerate(args, out) -> int:
    e = _expansion(args)
    n = _parse_n(args)
    _check_table_budget(e, n)
    rows = [(i, w.text(), int(full)) for i, (w, full) in enumerate(_word_window(e, n, args), args.start or 0)]
    _emit_rows(args.format, ["index", "word", "full"], rows, out)
    return OK


def cmd_classify(args, out, err) -> int:
    e = _expansion(args)
    tol = _parse_tol(args)
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
        for w, full in _word_window(e, n, args):
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


def cmd_tau(args, out) -> int:
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
    tol = _parse_tol(args)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code else OK
    out, err = sys.stdout, sys.stderr
    try:
        if args.command == "expand":
            return cmd_expand(args, out)
        if args.command == "validate":
            return cmd_validate(args, out)
        if args.command == "enumerate":
            return cmd_enumerate(args, out)
        if args.command == "classify":
            return cmd_classify(args, out, err)
        if args.command == "runs":
            return cmd_runs(args, out, err)
        if args.command == "tau":
            return cmd_tau(args, out)
        if args.command == "verify":
            return cmd_verify(args, out, err)
        parser.error(f"unknown command {args.command!r}")
    except IntegerBeta as exc:
        err.write(f"error: {exc}\n")
        return PRECONDITION
    except VerificationError as exc:
        err.write(f"error: {exc}\n")
        return MISMATCH
    except (BetaWordsError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return INPUT_ERROR
    return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
