"""Verification harness: sweeps, theorem checks, and failure detection."""

import copy
import hashlib
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from beta_words import (
    ExpansionOfOne,
    count,
    default_corpus,
    load_corpus,
    render_report,
    run_sets_check,
    sweep_fullness,
    verify_member,
    verify_report,
    verify_theorems,
)
from beta_words import cli
from beta_words import runs as runs_mod
from beta_words import verify as verify_mod
from beta_words import words as words_mod
from beta_words.errors import NotAdmissible, VerificationError
from beta_words.structure import DEFAULT_TOL, Decomposition, cylinder_calc, is_full, tail_cap
from beta_words.words import Automaton, Word, iter_words, rank_of, word_at

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")


def windows(prefixes, k):
    """The prefix windows i*P//k of k shards, at most one per prefix."""
    k = min(k, prefixes)
    return [(i * prefixes // k, (i + 1) * prefixes // k) for i in range(k)]


def fold_windows(e, n, k, tol=DEFAULT_TOL):
    """The sweep of (e, n) cut into k prefix windows of sweep_shard and
    folded in word order: failures through the failure cap, gap sums added,
    run summaries joined by merge_runs, then the global checks.  Windows
    step back for the non-full run they start inside, so the fold must give
    the failures and the run summary of one whole-range sweep."""
    tol = Fraction(tol)
    case = e.text()
    failures = []
    words = undecided = sum_lo = sum_hi = 0
    runs = runs_mod.one_run(True, 0)
    for a, b in windows(runs_mod.prefix_count(e, n), k):
        chunk = verify_mod.sweep_shard(e, n, tol, a, b)
        for message in chunk["failures"]:
            verify_mod._record(failures, message)
        words += chunk["words"]
        undecided += chunk["undecided"]
        sum_lo += chunk["sum_lo"]
        sum_hi += chunk["sum_hi"]
        runs = verify_mod.merge_runs(runs, chunk["runs"])
    one = 1 << verify_mod._bits_for(e, n, tol)
    slack = n * ((tol.numerator * one) // tol.denominator)
    if sum_lo > sum_hi or sum_lo > one + slack or sum_hi < one - slack:
        verify_mod._record(failures, f"{case} n={n}: cylinder lengths sum to "
                                     f"[{sum_lo / one:.17g}, {sum_hi / one:.17g}], not 1 within {n}*tol")
    if words != count(e, n):
        verify_mod._record(failures, f"{case} n={n}: sweep visited {words} words, count says {count(e, n)}")
    return verify_mod.SweepResult(words, undecided, (Fraction(sum_lo, one), Fraction(sum_hi, one)), failures, runs)


def member_in_windows(monkeypatch, e, n_values, k):
    """verify_member's rows and failures with every sweep folded from k
    prefix windows by fold_windows."""
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "sweep_fullness", lambda e, n, tol, chunk=None: fold_windows(e, n, k, tol))
        return verify_member(e, n_values)


@pytest.mark.parametrize("text", ["1,1", "2,1,1", "3,0,0,2;0,0,0,2"])
def test_sweep_clean(text):
    e = ExpansionOfOne.parse(text)
    for n in (1, 2, 5, 8):
        res = sweep_fullness(e, n)
        assert res.failures == []
        assert res.undecided == 0
        assert res.words == count(e, n)


def test_sweep_sharded_matches_single():
    for k in (2, 3, 5):
        a = sweep_fullness(PEARL, 6)
        b = fold_windows(PEARL, 6, k)
        assert a.words == b.words
        assert a.failures == b.failures == []


def test_sweep_partition_sums_to_one():
    res = sweep_fullness(GOLDEN, 9)
    lo, hi = res.length_sum
    assert lo <= 1 <= hi or abs(float(lo) - 1.0) < 9e-12


def test_run_sets_check_row_shape():
    row, failures = run_sets_check(PEARL, 4)
    assert failures == []
    assert row["case_id"] == PEARL.text()
    assert row["n"] == 4
    assert row["match"] is True
    assert row["F_formula"] == row["F_enum"]
    assert row["N_formula"] == row["N_enum"]


def test_verify_member_rows():
    rows, failures = verify_member(GOLDEN, range(1, 7))
    assert failures == []
    assert [r["n"] for r in rows] == list(range(1, 7))
    assert all(r["match"] for r in rows)
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify_member(GOLDEN, [0])


def test_verify_theorems_clean_small():
    assert verify_theorems(GOLDEN, 6) == []
    assert verify_theorems(ExpansionOfOne.parse("2,1,1"), 5) == []


def test_corrupted_formula_is_caught(monkeypatch):
    """The harness must actually look at the formula output."""

    real = runs_mod.full_run_lengths_formula

    def corrupt(e, n):
        out = set(real(e, n))
        out.add(99)
        return tuple(sorted(out))

    monkeypatch.setattr(verify_mod, "full_run_lengths_formula", corrupt)
    rows, failures = verify_member(GOLDEN, [3])
    assert failures
    assert rows[0]["match"] is False


def test_corrupted_tau_is_caught(monkeypatch):
    real = runs_mod.tau_table

    def corrupt(e, bound):
        table = real(e, bound)
        if len(table) > 2:
            table[-1] += 1
        return table

    monkeypatch.setattr(verify_mod, "tau_table", corrupt)
    rows, failures = verify_member(SPARSE := ExpansionOfOne.parse("1,0,1,0,0,0,1"), [8])
    assert failures


def test_report_is_deterministic_json():
    rows, failures = verify_report([GOLDEN], range(1, 5), shards=1)
    assert failures == []
    text = render_report(rows)
    rows2, _ = verify_report([GOLDEN], range(1, 5), shards=1)
    assert render_report(rows2) == text
    assert text.endswith("\n")


def test_default_corpus_loads_and_validates():
    members = default_corpus()
    assert len(members) >= 6
    texts = {m.text() for m in members}
    assert "1,1" in texts


def test_load_corpus_skips_comments(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("# a comment\n1,1\n\n2,1,1\n")
    members = load_corpus(p)
    assert [m.text() for m in members] == ["1,1", "2,1,1"]


def test_all_ten_cases_covered_by_default_corpus():
    seen = set()
    for e in default_corpus():
        for n in range(1, 13):
            seen.add(runs_mod.nonfull_run_case(e, n))
    assert len(seen) == 10


# sha256 of `beta-words verify --n-range 1..5` on the bundled corpus.
REPORT_1_5_SHA256 = "498dbf151de5c0344bde21157281229ece46859fb75044536f2cf0e9d8bf455d"


def test_verify_report_bytes_pinned(capsys):
    assert cli.main(["verify", "--n-range", "1..5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_1_5_SHA256


class FakeExecutor:
    """Stands in for verify's _process_pool: records the pool size, maps
    in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        FakeExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cores, shards, expected", [(2, 10**6, 2), (8, 3, 3), (None, 5, 1)])
def test_pool_size_bounded_by_cores(monkeypatch, cores, shards, expected):
    """expected workers: a pool of that size, or none for one worker."""
    fake_pool(monkeypatch)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cores)
    rows, failures = verify_report([GOLDEN, PEARL], range(1, 5), shards=shards)
    assert FakeExecutor.sizes == ([expected] if expected > 1 else [])
    assert failures == []
    assert render_report(rows) == render_report(verify_report([GOLDEN, PEARL], range(1, 5))[0])


class BatchExecutor(FakeExecutor):
    """Records the items of every map call."""

    batches: list = []

    def map(self, fn, items, chunksize=1):
        items = list(items)
        BatchExecutor.batches.append(items)
        return super().map(fn, items, chunksize)


def fake_pool(monkeypatch, executor=FakeExecutor, min_work=0):
    """Hand verify_report's pools to executor, with empty records.  With
    min_work 0 every report with two or more workers is on the pool side,
    whatever its estimated work."""
    monkeypatch.setattr(FakeExecutor, "sizes", [])
    monkeypatch.setattr(BatchExecutor, "batches", [])
    monkeypatch.setattr(verify_mod, "_process_pool", executor)
    monkeypatch.setattr(verify_mod, "POOL_MIN_WORK", min_work)


def whole_sweeps(corpus, n_values):
    """The map items of sweeps that each run as one whole-range task."""
    return [(e, n, DEFAULT_TOL) for e in corpus for n in n_values]


def test_chunks_capped_at_pool_workers(monkeypatch):
    # one chunk per prefix would make count(e, n - 1) chunks for two workers
    fake_pool(monkeypatch, BatchExecutor)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    rows, failures = verify_report([GOLDEN, PEARL], range(1, 8), shards=10**6)
    assert failures == [] and FakeExecutor.sizes == [2]
    # 14 sweeps for two workers: one map, one whole-range task per sweep
    assert BatchExecutor.batches == [whole_sweeps([GOLDEN, PEARL], range(1, 8))]
    assert render_report(rows) == render_report(verify_report([GOLDEN, PEARL], range(1, 8))[0])


def test_one_sweep_starts_no_pool(monkeypatch):
    """A one-sweep report is not cut into windows for spare cores: any
    shard count sweeps it in this process and renders the bytes of one."""
    fake_pool(monkeypatch)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)
    rows, failures = verify_report([PEARL], [7], shards=10**6)
    assert FakeExecutor.sizes == [] and failures == []
    assert render_report(rows) == render_report(verify_report([PEARL], [7], shards=1)[0])


def test_member_chunks_must_match_n_values():
    chunks = [verify_mod._sweep_worker(task) for task in whole_sweeps([GOLDEN], [3, 4])]
    assert verify_member(GOLDEN, [3, 4], chunks=chunks) == verify_member(GOLDEN, [3, 4])
    for wrong in (chunks[:1], chunks + chunks[:1]):
        with pytest.raises(ValueError):
            verify_member(GOLDEN, [3, 4], chunks=wrong)


def test_sweep_fullness_checks_a_given_chunk():
    """A chunk handed in gets the global checks of one swept here."""
    chunk = verify_mod._sweep_worker(whole_sweeps([GOLDEN], [5])[0])
    assert sweep_fullness(GOLDEN, 5, chunk=chunk) == sweep_fullness(GOLDEN, 5)
    short = dict(chunk, words=chunk["words"] - 1)
    assert sweep_fullness(GOLDEN, 5, chunk=short).failures == ["1,1 n=5: sweep visited 12 words, count says 13"]


@pytest.mark.parametrize("corpus, n_values", [([], range(1, 5)), ([GOLDEN], [])])
def test_empty_report_starts_no_pool(monkeypatch, corpus, n_values):
    fake_pool(monkeypatch)
    assert verify_report(corpus, n_values, shards=2) == ([], [])
    assert FakeExecutor.sizes == []


def smallest_pool_range(corpus):
    """The least hi for which a report of corpus over 1..hi is estimated
    at POOL_MIN_WORK family bodies or more."""
    hi = 1
    while verify_mod._sweep_work(corpus, range(1, hi + 1)) < verify_mod.POOL_MIN_WORK:
        hi += 1
    return hi


def test_pool_threshold_on_the_bundled_corpus():
    """The ranges the CLI is run at stay in this process; 1..120 pools."""
    corpus = default_corpus()
    assert verify_mod._sweep_work(corpus, range(1, 15)) < verify_mod.POOL_MIN_WORK
    assert verify_mod._sweep_work(corpus, range(1, 121)) >= verify_mod.POOL_MIN_WORK


def test_sweep_work_is_the_docstring_bound():
    """n * block states * (tail_cap(e, n) + 1) * (eps_1 + 1), summed."""
    periodic = ExpansionOfOne.parse("3,0,0,2;0,0,0,2")  # 8 block states, tail_cap n
    assert verify_mod._sweep_work([periodic], [5]) == 5 * 8 * 6 * 4
    # GOLDEN: 2 block states, tail_cap 1; PEARL: 8 block states, tail_cap min(7, n)
    assert verify_mod._sweep_work([GOLDEN, PEARL], [3, 9]) == (3 * 2 * 2 * 2 + 9 * 2 * 2 * 2
                                                               + 3 * 8 * 4 * 4 + 9 * 8 * 8 * 4)
    assert verify_mod._sweep_work([], range(1, 5)) == verify_mod._sweep_work([GOLDEN], []) == 0


@pytest.mark.parametrize("n_values", [range(1, 13), range(1, 15)])
@pytest.mark.parametrize("cores", [2, 64])
def test_small_reports_start_no_pool(monkeypatch, n_values, cores):
    """Below the estimate no pool starts for any shard count or core count,
    and the report is the bytes of one shard."""
    single = render_report(verify_report(default_corpus(), n_values)[0])
    fake_pool(monkeypatch, min_work=verify_mod.POOL_MIN_WORK)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cores)
    for shards in (2, 4, 10**6):
        rows, failures = verify_report(default_corpus(), n_values, shards=shards)
        assert failures == [] and render_report(rows) == single, shards
    assert FakeExecutor.sizes == []


@pytest.mark.parametrize("cores, shards", [(2, 2), (8, 3), (64, 10**6)])
def test_pool_starts_at_the_estimated_work(monkeypatch, cores, shards):
    """One body short of the estimate the report sweeps in this process; at
    the estimate it is one map of whole sweeps over min(shards, cores,
    sweeps) workers.  Both render the bytes of one shard."""
    corpus, n_values = [GOLDEN, PEARL], range(1, 8)
    work = verify_mod._sweep_work(corpus, n_values)
    single = render_report(verify_report(corpus, n_values)[0])
    fake_pool(monkeypatch, BatchExecutor, min_work=work + 1)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cores)
    rows, failures = verify_report(corpus, n_values, shards=shards)
    assert FakeExecutor.sizes == [] and BatchExecutor.batches == []
    assert failures == [] and render_report(rows) == single
    monkeypatch.setattr(verify_mod, "POOL_MIN_WORK", work)
    rows, failures = verify_report(corpus, n_values, shards=shards)
    assert FakeExecutor.sizes == [min(shards, cores, 14)]
    assert BatchExecutor.batches == [whole_sweeps(corpus, n_values)]
    assert failures == [] and render_report(rows) == single


def test_real_pool_past_the_threshold_matches_one_shard(monkeypatch, capsys):
    """The smallest pool-side range of the bundled corpus, through the CLI:
    two real worker processes render the bytes of --shards 1."""
    hi = smallest_pool_range(default_corpus())
    argv = ["verify", "--n-range", f"1..{hi}"]
    assert cli.main(argv + ["--shards", "1"]) == 0
    single = capsys.readouterr().out
    started = []
    real = verify_mod._process_pool

    def spy(workers):
        started.append(workers)
        return real(workers)

    monkeypatch.setattr(verify_mod, "_process_pool", spy)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    assert cli.main(argv + ["--shards", "2"]) == 0
    assert started == [2]
    assert capsys.readouterr().out == single


@pytest.mark.parametrize("n_values", [[0], [3, 0], range(0, 10**6)])
def test_bad_n_refused_before_count_tables_or_pool(monkeypatch, n_values):
    fake_pool(monkeypatch)
    monkeypatch.setattr(verify_mod, "_count_table", None)
    monkeypatch.setattr(runs_mod, "count", None)  # prefix_count's count table
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify_report([GOLDEN], n_values, shards=2)
    assert FakeExecutor.sizes == []


def test_deep_range_refused_before_it_is_listed(capsys):
    """The CLI refuses a range at its greatest n, and verify_report refuses
    one at its least n, ascending or descending, before its values are
    listed, so refusing one with 10^9 or 10^6 values allocates well under a
    list of them (about 36 MB for 10^6)."""
    tracemalloc.start()
    try:
        assert cli.main(["verify", "--n-range", "1..1000000000"]) == 2
        for n_values in (range(0, 10**6), range(10**6, -1, -1)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                verify_report([GOLDEN], n_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == f"error: n = 1000000000 is past verify's bound n <= {cli.VERIFY_MAX_N}\n"


# --- one sweep per (member, n): its run summary against the run scan ---


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_sweep_run_summary_matches_scan(e):
    for n in range(1, 10):
        prefixes = runs_mod.prefix_count(e, n)
        for a, b in ((0, 0), (prefixes, prefixes)):
            assert verify_mod.sweep_shard(e, n, DEFAULT_TOL, a, b)["runs"] == runs_mod.scan_run_lengths(e, n, a, b)
        whole = sweep_fullness(e, n).runs
        for k in (1, 2, 3, 5):
            scans = []
            for a, b in windows(prefixes, k):
                scan = runs_mod.scan_run_lengths(e, n, a, b)
                assert verify_mod.sweep_shard(e, n, DEFAULT_TOL, a, b)["runs"] == scan, (n, k, a, b)
                scans.append(scan)
            stitched = runs_mod.stitch_run_scans(scans)
            assert fold_windows(e, n, k).runs == stitched == whole, (n, k)


def test_verify_walks_once(monkeypatch):
    calls = []
    real = verify_mod.scan_run_lengths

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify_mod, "scan_run_lengths", counted)
    fake_pool(monkeypatch, BatchExecutor)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    rows, failures = verify_member(PEARL, range(1, 6))
    assert failures == [] and len(rows) == 5
    # eight sweeps for two workers: the whole report is one map of one task per sweep
    rows, failures = verify_report([GOLDEN, PEARL], range(2, 6), shards=2)
    assert failures == []
    assert [len(batch) for batch in BatchExecutor.batches] == [2 * 4]
    assert calls == []
    assert render_report(rows) == render_report(verify_report([GOLDEN, PEARL], range(2, 6))[0])
    assert run_sets_check(PEARL, 4)[1] == []
    assert len(calls) == 1


def tau_off_by_one(monkeypatch):
    real = verify_mod.tau_table
    monkeypatch.setattr(verify_mod, "tau_table",
                        lambda e, bound: [t + 1 if s else t for s, t in enumerate(real(e, bound))])


def kmp_first_row(value):
    def inject(monkeypatch):
        real = verify_mod.tail_automaton

        def fake(e, cap):
            trans, chains = real(e, cap)
            return ((value,) * len(trans[0]),) + trans[1:], chains

        monkeypatch.setattr(verify_mod, "tail_automaton", fake)
    return inject


def scaled_beta_n(factor):
    def inject(monkeypatch):
        real = verify_mod.cylinder_calc

        def fake(e, n, tol):
            calc = copy.copy(real(e, n, tol))
            calc.pow_lo = calc.pow_lo[:-1] + [int(calc.pow_lo[-1] * factor)]
            calc.pow_hi = calc.pow_hi[:-1] + [int(calc.pow_hi[-1] * factor)]
            return calc

        monkeypatch.setattr(verify_mod, "cylinder_calc", fake)
    return inject


def shifted_beta_n(side, tolerances):
    """Move one end of the enclosure of beta^-n by a multiple of the
    tolerance, which puts the full last words of families just across one
    threshold of the length test.  Widened by 1.5 tolerances they are
    undecided, not True; a threshold that allowed twice the tolerance would
    still certify a one-word family.  With the upper end half a tolerance
    low they are certified longer, with the lower end half a tolerance high
    certified shorter, than beta^-n."""
    def inject(monkeypatch):
        real = verify_mod.cylinder_calc

        def fake(e, n, tol):
            calc = copy.copy(real(e, n, tol))
            tol = Fraction(tol)
            step = int(Fraction(tolerances) * tol.numerator * calc.one / tol.denominator)
            ends = calc.pow_lo if side == "lo" else calc.pow_hi
            setattr(calc, f"pow_{side}", ends[:-1] + [ends[-1] + step])
            return calc

        monkeypatch.setattr(verify_mod, "cylinder_calc", fake)
    return inject


def kmp_eps1_column(monkeypatch):
    """Send the digit eps_1 from every KMP state k >= 1 back to state 0, and
    nothing else: a state-1 family reached in such a state names its
    non-full word, so the super-family shortcut has to refuse it."""
    real = verify_mod.tail_automaton

    def fake(e, cap):
        trans, chains = real(e, cap)
        top = e.alphabet_max
        return (trans[0],) + tuple(row[:top] + (0,) for row in trans[1:]), chains

    monkeypatch.setattr(verify_mod, "tail_automaton", fake)


def widened_pow_hi_n1(monkeypatch):
    """Raise the upper end of beta^-(n-1) by beta^-n: the widest gap of a
    super-family no longer certifies short, so its shortcut is refused."""
    real = verify_mod.cylinder_calc

    def fake(e, n, tol):
        calc = copy.copy(real(e, n, tol))
        calc.pow_hi = [*calc.pow_hi[:n - 1], calc.pow_hi[n - 1] + calc.pow_hi[n], calc.pow_hi[n]]
        return calc

    monkeypatch.setattr(verify_mod, "cylinder_calc", fake)


def pinned_pow_hi_n1(monkeypatch):
    """Put the upper end of beta^-(n-1) half a tolerance above the state-1
    short threshold (eps_1 + 1) * beta^-n: a super-family with one state-1
    family then has a gap that is not certified short, though within the
    tolerance of it, so a length guard that allowed the tolerance fails."""
    real = verify_mod.cylinder_calc

    def fake(e, n, tol):
        calc = copy.copy(real(e, n, tol))
        half = int(Fraction(tol) * calc.one / 2)
        calc.pow_hi = [*calc.pow_hi[:n - 1], (e.alphabet_max + 1) * calc.pow_lo[n] + half, calc.pow_hi[n]]
        return calc

    monkeypatch.setattr(verify_mod, "cylinder_calc", fake)


TAU_1 = "ends with the first 1 digits but sits 1 above the last full word, expected tau(1) = 2"
NO_PREFIX = "is structurally non-full but ends with no prefix of the expansion"
PREFIX = "is structurally full but ends with a prefix of the expansion"
DISAGREES = "is full structurally but the cylinder-length criterion disagrees"
UNDECIDED = "words undecided by the length criterion at tol 1/1000000000000"


@pytest.mark.parametrize("inject, n, expected", [
    (tau_off_by_one, 1, ["1,1 n=1: greedy step counts over 1..1 are [2], not the full range 1..2",
                         f"1,1 n=1: word 1 {TAU_1}"]),
    (tau_off_by_one, 4, ["1,1 n=4: greedy step counts over 1..4 are [2, 3], not the full range 1..3",
                         f"1,1 n=4: word 0001 {TAU_1}", f"1,1 n=4: word 0101 {TAU_1}",
                         f"1,1 n=4: word 1001 {TAU_1}"]),
    (kmp_first_row(0), 1, [f"1,1 n=1: word 1 {NO_PREFIX}"]),
    (kmp_first_row(0), 4, [f"1,1 n=4: word 0001 {NO_PREFIX}", f"1,1 n=4: word 0101 {NO_PREFIX}",
                           f"1,1 n=4: word 1001 {NO_PREFIX}"]),
    (kmp_first_row(1), 1, [f"1,1 n=1: word 0 {PREFIX}"]),
    (kmp_first_row(1), 3, [f"1,1 n=3: word 000 {PREFIX}", f"1,1 n=3: word 100 {PREFIX}"]),
    (scaled_beta_n(0.5), 1, ["1,1 n=1: cylinder of 1 certified longer than beta^-n"]),
    (scaled_beta_n(0.5), 3, ["1,1 n=3: cylinder of 001 certified longer than beta^-n",
                             "1,1 n=3: cylinder of 010 certified longer than beta^-n",
                             "1,1 n=3: cylinder of 101 certified longer than beta^-n"]),
    (scaled_beta_n(2), 2, [f"1,1 n=2: word 10 {DISAGREES}"]),
    (scaled_beta_n(2), 4, [f"1,1 n=4: word 0010 {DISAGREES}", f"1,1 n=4: word 1010 {DISAGREES}"]),
    (shifted_beta_n("lo", -1.5), 3, [f"1,1 n=3: 1 {UNDECIDED}"]),
    (shifted_beta_n("hi", 1.5), 5, [f"1,1 n=5: 3 {UNDECIDED}"]),
    (shifted_beta_n("hi", -0.5), 3, ["1,1 n=3: cylinder of 010 certified longer than beta^-n",
                                     "1,1 n=3: cylinder lengths sum to [1.0000000000010001, "
                                     "0.99999999999900002], not 1 within 3*tol"]),
])
@pytest.mark.parametrize("shards", [1, 2])
def test_injected_fault_failure_strings_pinned(monkeypatch, inject, n, expected, shards):
    """Run-set failures come first, then the sweep's; the sweep names each
    word from its family rank, also after the prefix has moved on.  Two
    prefix windows, folded, name the same words."""
    inject(monkeypatch)
    if shards == 1:
        assert verify_member(GOLDEN, [n])[1] == expected
    else:
        assert member_in_windows(monkeypatch, GOLDEN, [n], shards)[1] == expected


TAIL_FAILURE = re.compile(r"word \S+ ends with the first \d+ digits but sits \d+ above")
FAILED_WORD = re.compile(r"(?:word|cylinder of) (\S+) (?:is|ends|certified)")
CAPS_SHARDED = (verify_mod.MAX_FAILURES, 10**9)  # the default failure cap, and none


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_sharded_tail_carry_matches_single_shard(monkeypatch, e):
    """A window that starts inside a non-full run steps back for its carry:
    under a tau table off by one, every tail failure is reported with its
    distance to the last full word, and the fold of 2..6 windows reports
    the list of the whole sweep, order included, at the default failure cap
    and without."""
    tau_off_by_one(monkeypatch)
    no_full_chunks = []
    real_merge = verify_mod.merge_runs

    def spy(acc, chunk_runs):
        if chunk_runs[5] and chunk_runs[4] == 1 and not chunk_runs[2][0]:
            no_full_chunks.append(chunk_runs)
        return real_merge(acc, chunk_runs)

    monkeypatch.setattr(verify_mod, "merge_runs", spy)
    for cap, n in product(CAPS_SHARDED, range(1, 9)):
        monkeypatch.setattr(verify_mod, "MAX_FAILURES", cap)
        single = verify_member(e, [n])[1]
        assert any(TAIL_FAILURE.search(f) for f in single), (cap, n)
        for k in range(2, 7):
            assert member_in_windows(monkeypatch, e, [n], k)[1] == single, (cap, n, k)
    if e.text() == "3,0,2,0,0,0,0,1":
        # at n = 2 with 5 windows, the chunk of prefix 3 holds only the non-full word 30
        assert (set(), set(), (False, 1), (False, 1), 1, 1) in no_full_chunks


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_sharded_failures_name_the_same_words(monkeypatch, e):
    """Under a tau table off by one, the fold of 1..6 prefix windows reports
    the failure strings of the whole sweep, in the same order, at the
    default failure cap and without, and the words they name come in lex
    order."""
    tau_off_by_one(monkeypatch)
    for cap, n in product(CAPS_SHARDED, range(1, 9)):
        monkeypatch.setattr(verify_mod, "MAX_FAILURES", cap)
        single = verify_member(e, [n])[1]
        ranks = [rank_of(Word.parse(m.group(1)), e) for f in single if (m := FAILED_WORD.search(f))]
        assert ranks and ranks == sorted(ranks), (cap, n)
        for k in range(1, 7):
            assert member_in_windows(monkeypatch, e, [n], k)[1] == single, (cap, n, k)


@pytest.mark.parametrize("n_values", [range(1, 9), [8]])
def test_report_failures_identical_for_any_shard_count(monkeypatch, n_values):
    """Under a tau table off by one, verify_report gives the failure list
    and the report bytes of shards = 1 at any shard count, fewer sweeps than
    cores included, at the default failure cap and without.  A duplicated
    member keeps its own rows and its own capped failure slice, in corpus
    order."""
    tau_off_by_one(monkeypatch)
    fake_pool(monkeypatch)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)  # 10**6 shards: 3 workers at 3 sweeps
    corpus = [GOLDEN, PEARL, GOLDEN]
    for cap in CAPS_SHARDED:
        monkeypatch.setattr(verify_mod, "MAX_FAILURES", cap)
        golden, pearl = (verify_member(e, n_values) for e in (GOLDEN, PEARL))
        rows, single = verify_report(corpus, n_values, shards=1)
        assert rows == golden[0] + pearl[0] + golden[0]
        assert golden[1] and single == golden[1] + pearl[1] + golden[1], cap
        for shards in (2, 3, 10**6):
            got_rows, got = verify_report(corpus, n_values, shards=shards)
            assert got == single, (cap, shards)
            assert render_report(got_rows) == render_report(rows), (cap, shards)


# --- the table-driven sweep against the sweep it replaced ---


def sweep_shard_oracle(e, n, tol, prefix_start, prefix_stop):
    """sweep_shard as it was before the length test moved onto per-state
    thresholds: ten big-integer operations per prefix family.  It reads
    tail_automaton, tau_table and cylinder_calc off the verify module at
    call time, so an injected fault reaches the oracle and the sweep alike.
    Its messages are formatted only when kept, as the sweep's are.  The
    non-full run it enters the window in is read off scan_run_lengths over
    the prefixes before the window, not stepped back over as the sweep does.
    A gap to the next prefix in the window drops the enclosure width of the
    digits the two prefixes share, which cancel exactly; the window's last
    gap shares none."""
    tol = Fraction(tol)
    chunk = verify_mod._empty_sweep_chunk()
    if prefix_stop <= prefix_start:
        return chunk
    failures = chunk["failures"]
    record, word_text, tail_failure = verify_mod._record, verify_mod._word_text, verify_mod._tail_run_failure
    case = e.text()
    aut = words_mod.automaton(e)
    cmp_, adv_, maxdig, zero = aut.cmp, aut.adv, aut.maxdig, aut.zero
    s_cap = tail_cap(e, n)
    trans, chains = verify_mod.tail_automaton(e, s_cap)
    kmp_nonzero = [[d for d, k in enumerate(row) if k] for row in trans]
    taus = verify_mod.tau_table(e, s_cap)
    calc = verify_mod.cylinder_calc(e, n, tol)
    pow_lo, pow_hi = calc.pow_lo, calc.pow_hi
    one = calc.one
    xn_lo, xn_hi = pow_lo[n], pow_hi[n]
    slack = (tol.numerator * one) // tol.denominator
    pcount = runs_mod.prefix_count(e, n)
    words = undecided = sum_lo = sum_hi = 0
    entry = runs_mod.scan_run_lengths(e, n, 0, prefix_start)[3]
    carry = 0 if entry[0] else entry[1]
    seen_full = False
    nonfull_pos = full_len = closed = 0
    full_runs, nonfull_runs = set(), set()
    first_run = None
    prefix, states = words_mod.start_at(e, n - 1, prefix_start)
    kstates, pl, ph = [0] * n, [0] * n, [0] * n
    for i, d in enumerate(prefix):
        kstates[i + 1] = trans[kstates[i]][d]
        pl[i + 1] = pl[i] + d * pow_lo[i + 1]
        ph[i + 1] = ph[i] + d * pow_hi[i + 1]
    last = n - 1
    for rank in range(prefix_start, prefix_stop):
        s = states[last]
        c, a = cmp_[s], adv_[s]
        kp = kstates[last]
        krow = trans[kp]
        children = c + (1 if a else 0)
        words += children
        for d in kmp_nonzero[kp]:
            if d < c:
                record(failures, lambda: f"{case} n={n}: word {word_text(e, n, rank, d)} is structurally "
                                 "full but ends with a prefix of the expansion")
        if c:
            seen_full = True
            if nonfull_pos:
                if first_run is None:
                    first_run = (False, nonfull_pos)
                else:
                    nonfull_runs.add(nonfull_pos)
                closed += 1
                nonfull_pos = 0
                full_len = c
            else:
                full_len += c
        if a:
            if full_len:
                if first_run is None:
                    first_run = (True, full_len)
                else:
                    full_runs.add(full_len)
                closed += 1
                full_len = 0
            nonfull_pos += 1
            k_adv = krow[c]
            if k_adv == 0:
                record(failures, lambda: f"{case} n={n}: word {word_text(e, n, rank, c)} is structurally "
                                 "non-full but ends with no prefix of the expansion")
            for sv in chains[k_adv]:
                pos = nonfull_pos if seen_full else carry + nonfull_pos
                if pos != taus[sv]:
                    record(failures, lambda: tail_failure(e, n, rank, c, sv, pos, taus[sv]))
            last_digit, last_full = c, False
        else:
            last_digit, last_full = c - 1, True
        cur_lo = pl[last] + last_digit * pow_lo[n]
        cur_hi = ph[last] + last_digit * pow_hi[n]
        shared = 0
        if rank != prefix_stop - 1:
            for t in range(last, 0, -1):
                st = states[t - 1]
                d = prefix[t - 1]
                if d < maxdig[st]:
                    nd = d + 1
                    prefix[t - 1] = nd
                    states[t] = adv_[st] if nd == cmp_[st] else 1
                    kstates[t] = trans[kstates[t - 1]][nd]
                    pl[t] = pl[t - 1] + nd * pow_lo[t]
                    ph[t] = ph[t - 1] + nd * pow_hi[t]
                    s2 = states[t]
                    for u in range(t, last):
                        prefix[u] = 0
                        s2 = zero[s2]
                        states[u + 1] = s2
                        kstates[u + 1] = trans[kstates[u]][0]
                        pl[u + 1] = pl[u]
                        ph[u + 1] = ph[u]
                    break
            next_lo, next_hi = pl[last], ph[last]
            shared = ph[t - 1] - pl[t - 1]  # the prefixes agree on their first t - 1 digits
        elif prefix_stop == pcount:
            next_lo = next_hi = one
        else:
            next_lo, next_hi = calc.pi_bounds(word_at(e, n - 1, prefix_stop).digits)
        len_lo = next_lo - cur_hi + shared
        len_hi = next_hi - cur_lo - shared
        sum_lo += (children - 1) * pow_lo[n] + len_lo
        sum_hi += (children - 1) * pow_hi[n] + len_hi
        if len_hi - xn_lo < 0:
            length_full = False
        elif len_lo - xn_hi > 0:
            record(failures, lambda: f"{case} n={n}: cylinder of {word_text(e, n, rank, last_digit)} "
                             "certified longer than beta^-n")
            length_full = None
        elif max(xn_hi - len_lo, len_hi - xn_lo) <= slack:
            length_full = True
        else:
            undecided += 1
            length_full = None
        if length_full is not None and length_full != last_full:
            record(failures, lambda: f"{case} n={n}: word {word_text(e, n, rank, last_digit)} is "
                             f"{'full' if last_full else 'non-full'} structurally but the "
                             "cylinder-length criterion disagrees")
    chunk.update(words=words, undecided=undecided, sum_lo=sum_lo, sum_hi=sum_hi)
    last_run = (False, nonfull_pos) if nonfull_pos else (True, full_len)
    chunk["runs"] = (full_runs, nonfull_runs, first_run or last_run, last_run, closed + 1, words)
    return chunk


SWEEP_CASES = [*default_corpus(), *map(ExpansionOfOne.parse, ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1",
                                                               "5,4,3", "9,9,1", "2,2;0,1", "1;1,0", "2,0,1"])]
SWEEP_FAULTS = {
    "none": None, "tau_off_by_one": tau_off_by_one, "kmp_first_row(0)": kmp_first_row(0),
    "kmp_first_row(1)": kmp_first_row(1), "scaled_beta_n(0.5)": scaled_beta_n(0.5),
    "scaled_beta_n(2)": scaled_beta_n(2), "shifted_beta_n(lo,-1.5)": shifted_beta_n("lo", -1.5),
    "shifted_beta_n(hi,1.5)": shifted_beta_n("hi", 1.5), "shifted_beta_n(hi,-0.5)": shifted_beta_n("hi", -0.5),
    "shifted_beta_n(lo,0.5)": shifted_beta_n("lo", 0.5), "kmp_eps1_column": kmp_eps1_column,
    "widened_pow_hi_n1": widened_pow_hi_n1, "pinned_pow_hi_n1": pinned_pow_hi_n1,
}


def seeded_windows(rng, prefixes):
    """A seeded split of [0, prefixes) into 1..4 windows, empty ones included."""
    cuts = sorted(rng.randint(0, prefixes) for _ in range(rng.randint(0, 3)))
    points = [0, *cuts, prefixes]
    return list(zip(points, points[1:])) + [(rng.randint(0, prefixes),) * 2]


@pytest.mark.parametrize("name", SWEEP_FAULTS)
def test_sweep_shard_matches_unrolled_oracle(monkeypatch, name):
    """Every chunk entry of the threshold sweep equals the old sweep's:
    sums, runs, undecided counts and failure strings, tail failures before
    the window's first full word included.  The faulted runs stop at n = 8,
    where 4;2 has a fifth of its n = 9 words.  A case stops once its
    prefixes outnumber those of 4;2 at that last n, so the wide alphabets of
    5,4,3 and 9,9,1 stop at n = 7 and 6 (5 faulted)."""
    fault = SWEEP_FAULTS[name]
    if fault is not None:
        fault(monkeypatch)
    rng = random.Random(9)
    undecided = 0
    n_top = 9 if fault is None else 8
    prefix_cap = runs_mod.prefix_count(ExpansionOfOne.parse("4;2"), n_top)
    for e in SWEEP_CASES:
        for n in range(1, n_top + 1):
            prefixes = runs_mod.prefix_count(e, n)
            if prefixes > prefix_cap:
                break
            for a, b in seeded_windows(rng, prefixes):
                got = verify_mod.sweep_shard(e, n, DEFAULT_TOL, a, b)
                assert got == sweep_shard_oracle(e, n, DEFAULT_TOL, a, b), (e.text(), n, a, b)
                undecided += got["undecided"]
    # only the widened enclosures leave a length undecided
    assert (undecided > 0) == (name.endswith("1.5)") or name.endswith("pow_hi_n1"))


def widened_pow_hi_1(monkeypatch):
    """Raise the upper end of 1/beta by beta^-n: every prefix with a nonzero
    first digit gets an enclosure wider than any length margin, so a gap
    that keeps that width is undecided."""
    real = verify_mod.cylinder_calc

    def fake(e, n, tol):
        calc = copy.copy(real(e, n, tol))
        calc.pow_hi = [calc.pow_hi[0], calc.pow_hi[1] + calc.pow_lo[n], *calc.pow_hi[2:]]
        return calc

    monkeypatch.setattr(verify_mod, "cylinder_calc", fake)


@pytest.mark.parametrize("text", ["1,1", "2;1"])
def test_shared_digits_cancel_in_the_gaps(monkeypatch, text):
    """Under a wide first power, only the gaps that split at the root, one
    per first digit below eps_1, and the last gap up to 1 read the wide
    digit on one side only.  Every other gap splits below a shared first
    digit, whose width cancels, so at most eps_1 + 1 words are undecided
    (a gap that kept the width left every family under a nonzero first
    digit undecided: 14 and 610 words), and the sweep equals the oracle
    over the whole range and in windows."""
    widened_pow_hi_1(monkeypatch)
    e, n = ExpansionOfOne.parse(text), 8
    prefixes = runs_mod.prefix_count(e, n)
    chunk = verify_mod.sweep_shard(e, n, DEFAULT_TOL)
    assert chunk == sweep_shard_oracle(e, n, DEFAULT_TOL, 0, prefixes)
    assert chunk["undecided"] <= e.alphabet_max + 1 and chunk["words"] == count(e, n)
    for a, b in seeded_windows(random.Random(text), prefixes):
        assert verify_mod.sweep_shard(e, n, DEFAULT_TOL, a, b) == sweep_shard_oracle(e, n, DEFAULT_TOL, a, b)


def body_runs(e, n, prefix_start=0, prefix_stop=None):
    """How many times sweep_shard's per-family body runs over a window, all
    prefixes by default, counted by a tracer on the calls of the nested body's
    code object, as loaded (not as the source file now reads)."""
    body_code = next(c for c in verify_mod.sweep_shard.__code__.co_consts if getattr(c, "co_name", "") == "body")
    stop = runs_mod.prefix_count(e, n) if prefix_stop is None else prefix_stop
    hits = 0

    def calls(frame, event, arg):
        nonlocal hits
        hits += event == "call" and frame.f_code is body_code

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        verify_mod.sweep_shard(e, n, DEFAULT_TOL, prefix_start, stop)
    finally:
        sys.settrace(previous)
    return hits


def reachable_pairs(e, n):
    """The most (block state, KMP state) pairs that the length-m prefixes
    reach at any one m <= n - 1: the memo's keys per depth."""
    aut = words_mod.automaton(e)
    trans = verify_mod.tail_automaton(e, tail_cap(e, n))[0]
    level = {(1, 0)}
    most = 1
    for _ in range(n - 1):
        level = {(aut.adv[j] if d == aut.cmp[j] else 1, trans[k][d])
                 for j, k in level for d in range(aut.maxdig[j] + 1)}
        most = max(most, len(level))
    return most


def body_bound(e, n):
    """n * pairs * (eps_1 + 1): each key is descended once, into at most
    eps_1 + 1 children, when every subtree is clean."""
    return n * reachable_pairs(e, n) * (e.alphabet_max + 1)


@pytest.mark.parametrize("e", SWEEP_CASES, ids=lambda e: e.text())
def test_sweep_body_runs_once_per_super_family(e):
    """A clean whole-range sweep reuses its memoized subtrees at every depth,
    so the body runs at most n * pairs * (eps_1 + 1) times, and at n = 12
    fewer times than the count(e, 10) super-families (the families of one
    length-(n-2) prefix) it ran once each when only they were tallied at
    once.  A sweep that never reused an entry would still pass every oracle
    test."""
    for n in range(1, 13):
        assert body_runs(e, n) <= body_bound(e, n), n
    assert body_runs(e, 12) < count(e, 10)


def test_verify_runs_few_bodies():
    """`verify --n-range 1..12` over the corpus ran the family body 387,431
    times before the memo; it must stay under 10,000."""
    assert sum(body_runs(e, n) for e in default_corpus() for n in range(1, 13)) < 10_000


@pytest.mark.parametrize("e", SWEEP_CASES, ids=lambda e: e.text())
def test_super_family_width_bound_holds_and_keeps_the_shortcut(e):
    """The memo's entries hold far from the prefixes they were built on, as
    the one width bound of the super-family tally did: whole-range
    sweeps at n = 12, 50 and 120 are clean, count every word and stay under
    the body bound, and a window of 64 prefixes at n = 50 runs fewer than
    64 bodies."""
    assert words_mod.automaton(e).adv[1], "the state-1 family ends with a non-full word"
    for n in (12, 50, 120):
        chunk = verify_mod.sweep_shard(e, n, DEFAULT_TOL, 0, runs_mod.prefix_count(e, n))
        assert chunk["failures"] == [] and chunk["undecided"] == 0, n
        assert chunk["words"] == count(e, n), n
        assert body_runs(e, n) <= body_bound(e, n), n
    assert body_runs(e, 50, 0, 64) < 64


def test_no_memo_survives_between_calls(monkeypatch):
    """The memo lives inside one call: a fault injected between two calls
    shows up in the second, and is gone again once it is lifted."""
    prefixes = runs_mod.prefix_count(GOLDEN, 9)
    clean = verify_mod.sweep_shard(GOLDEN, 9, DEFAULT_TOL, 0, prefixes)
    assert clean["failures"] == []
    tau_off_by_one(monkeypatch)
    faulted = verify_mod.sweep_shard(GOLDEN, 9, DEFAULT_TOL, 0, prefixes)
    assert faulted["failures"] and faulted == sweep_shard_oracle(GOLDEN, 9, DEFAULT_TOL, 0, prefixes)
    monkeypatch.undo()
    assert verify_mod.sweep_shard(GOLDEN, 9, DEFAULT_TOL, 0, prefixes) == clean


def test_sweep_shard_rejects_windows_outside_the_prefixes():
    prefixes = runs_mod.prefix_count(PEARL, 11)
    with pytest.raises(VerificationError, match="exceeds the enumeration"):
        runs_mod.scan_run_lengths(PEARL, 11, 0, prefixes + 1)
    for a, b in ((0, prefixes + 1), (-1, 5), (-3, -1), (-1, -1), (prefixes + 1, prefixes + 2),
                 (prefixes + 1, prefixes), (0, -1)):
        with pytest.raises(VerificationError, match="exceeds the enumeration"):
            verify_mod.sweep_shard(PEARL, 11, DEFAULT_TOL, a, b)
        with pytest.raises(VerificationError, match="exceeds the enumeration"):
            runs_mod.scan_run_lengths(PEARL, 11, a, b)
    with pytest.raises(VerificationError, match="exceeds the enumeration"):
        runs_mod.scan_run_lengths(GOLDEN, 5, -1, 3)
    for a in (0, 5, prefixes):
        assert verify_mod.sweep_shard(PEARL, 11, DEFAULT_TOL, a, a)["words"] == 0
        assert runs_mod.scan_run_lengths(PEARL, 11, a, a) == runs_mod.one_run(True, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_mod.sweep_shard(GOLDEN, n, DEFAULT_TOL, 0, 1)


# --- the rewritten theorem checks against their brute-force formulations ---
#
# The oracles below are the pairwise / per-word loops the checks used before
# they were rewritten to avoid the pair and word products.  They look up
# _full_words_upto, scan_states and decompose on the verify module at call
# time, so an injected fault reaches the oracle and the check alike.

CAPS = range(1, 5)
OUTSIDE_CORPUS = ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1"]
ORACLE_INPUTS = [*default_corpus(), *map(ExpansionOfOne.parse, OUTSIDE_CORPUS)]


def oracle_concat_closure(e, cap, failures):
    case = e.text()
    fulls = list(verify_mod._full_words_upto(e, cap))
    s_top = tail_cap(e, 2 * cap)
    prefix = e.digits_prefix(s_top)
    heads = [prefix[:s] for s in range(s_top + 1)]
    for u in fulls:
        for v in fulls:
            w = u + v
            top = min(s_top, len(w))
            for s in range(1, top + 1):
                if w[-s:] == heads[s]:
                    verify_mod._record(failures, f"{case}: concatenation {Word(w).text()} of full words "
                                                 f"ends with the first {s} digits of the expansion")
                    break
            if len(failures) >= verify_mod.MAX_FAILURES:
                return


def oracle_deep_suffix_closure(e, deep_cap, failures):
    case = e.text()
    for n in range(2, deep_cap + 1):
        for w in iter_words(e, n):
            if verify_mod.scan_states(w.digits, e)[-1] != 1:
                continue
            for k in range(1, n):
                if verify_mod.scan_states(w.digits[k:], e)[-1] != 1:
                    verify_mod._record(failures, f"{case}: suffix at offset {k} of full {w.text()} is not full")


def oracle_decompose(e, n_values, exhaustive_to, samples, failures):
    record = verify_mod._record
    case = e.text()
    m = e.finite_length
    for n in n_values:
        total = count(e, n)
        if n <= exhaustive_to or total <= samples:
            words = iter_words(e, n)
        else:
            step = max(1, total // samples)
            words = (word_at(e, n, i) for i in range(0, total, step))
        for w in words:
            dec = verify_mod.decompose(w, e)
            if dec.reconstruct(e) != w:
                record(failures, f"{case} n={n}: decomposition of {w.text()} reconstructs "
                                 f"to {dec.reconstruct(e).text()}")
                continue
            pieces = dec.blocks + (dec.tail,)
            if sum(length for length, _ in pieces) != n:
                record(failures, f"{case} n={n}: decomposition lengths of {w.text()} do not sum to n")
            for length, lastd in dec.blocks:
                if lastd >= e.digit(length):
                    record(failures, f"{case} n={n}: block ({length},{lastd}) of {w.text()} "
                                     "does not end strictly below the expansion digit")
                elif verify_mod.scan_states(e.digits_prefix(length - 1) + (lastd,), e)[-1] != 1:
                    record(failures, f"{case} n={n}: block ({length},{lastd}) of {w.text()} is not full")
            tail_len, tail_d = dec.tail
            if tail_d > e.digit(tail_len):
                record(failures, f"{case} n={n}: tail of {w.text()} exceeds the expansion digit")
            if m is not None:
                if any(length > m for length, _ in pieces):
                    record(failures, f"{case} n={n}: a decomposition piece of {w.text()} is longer than M")
                if tail_len == m and tail_d >= e.digit(m):
                    record(failures, f"{case} n={n}: tail of {w.text()} matches all M digits")


def both(check, oracle, *args):
    got, want = [], []
    check(*args, got)
    oracle(*args, want)
    return got, want


def all_admissible_upto(e, cap):
    return [w.digits for k in range(1, cap + 1) for w in iter_words(e, k)]


FULL_WORDS_UPTO = verify_mod._full_words_upto


def truncations_first(e, cap):
    """The non-full truncations eps|_k ahead of the full words, so that early
    pairs match across the u|v boundary."""
    heads = [e.digits_prefix(k) for k in range(1, tail_cap(e, cap) + 1)]
    return heads + list(FULL_WORDS_UPTO(e, cap))


@pytest.mark.parametrize("fault", [None, all_admissible_upto, truncations_first])
def test_concat_closure_matches_pairwise_oracle(monkeypatch, fault):
    if fault is not None:
        monkeypatch.setattr(verify_mod, "_full_words_upto", fault)
    saw_failures = False
    for e in ORACLE_INPUTS:
        for cap in CAPS:
            got, want = both(verify_mod.check_concat_closure, oracle_concat_closure, e, cap)
            assert got == want, (e.text(), cap)
            saw_failures |= bool(want)
    assert saw_failures == (fault is not None)


def full_words_of_length(e, n):
    return [w.digits for w in iter_words(e, n) if is_full(w, e)]


@pytest.mark.parametrize("pick", ["shortest", "longest"])
def test_deep_suffix_closure_matches_per_word_oracle(monkeypatch, pick):
    real = verify_mod.scan_states
    saw_failures = False
    for e in ORACLE_INPUTS:
        for cap in CAPS:
            length = 1 if pick == "shortest" else max(1, cap - 1)
            candidates = full_words_of_length(e, length)
            bad = candidates[0] if pick == "shortest" else candidates[-1]

            def fake(digits, e_, bad=bad):
                states = real(digits, e_)
                return states[:-1] + [0] if tuple(digits) == bad else states

            monkeypatch.setattr(verify_mod, "scan_states", fake)
            got, want = [], []
            verify_mod.check_suffix_closure(e, cap, cap, got)
            oracle_deep_suffix_closure(e, cap, want)
            assert got == want, (e.text(), cap, bad)
            saw_failures |= bool(want)
    assert saw_failures


def test_suffix_closure_clean_matches_oracle():
    for e in ORACLE_INPUTS:
        for cap in CAPS:
            got, want = [], []
            verify_mod.check_suffix_closure(e, cap, cap, got)
            oracle_deep_suffix_closure(e, cap, want)
            assert got == want == [], (e.text(), cap)


def test_deep_suffix_closure_streams_the_full_words():
    """The deep suffix check reads the full words as they are walked: a list
    of every full word up to length 8 would peak near 2 MiB."""
    failures = []
    tracemalloc.start()
    try:
        verify_mod.check_suffix_closure(PEARL, 8, 8, failures)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == []
    assert peak < 2**20


def oracle_prefix_family_suffix_closure(e, cap, failures):
    case = e.text()
    aut = verify_mod.automaton(e)
    cmp_ = aut.cmp
    maxdig = aut.maxdig
    for n in range(2, cap + 1):
        for p in iter_words(e, n - 1):
            c = cmp_[words_mod.scan_states(p.digits, e)[-1]]
            if c == 0:
                continue
            try:
                js = words_mod.scan_states(p.digits[1:], e)[-1]
            except NotAdmissible:
                verify_mod._record(failures, f"{case}: suffix of admissible prefix {p.text()} is not admissible")
                continue
            if c - 1 > maxdig[js]:
                verify_mod._record(failures, f"{case}: suffix of full word {Word(p.digits + (c - 1,)).text()} "
                                             "is not admissible")
            elif c > cmp_[js]:
                verify_mod._record(failures, f"{case}: suffix of full word {Word(p.digits + (cmp_[js],)).text()} "
                                             "is not full")


AUTOMATON = words_mod.automaton


def corrupted_automata(e):
    """The block-match tables with one state's largest digit moved by one,
    or one state's extension sent back to state 1.  A raised largest digit
    breaks shift invariance, so some suffixes of walked words are not
    admissible."""
    aut = AUTOMATON(e)
    for j in range(1, len(aut.cmp)):
        for step in (-1, 1):
            maxdig = list(aut.maxdig)
            maxdig[j] += step
            if 0 <= maxdig[j] <= e.alphabet_max:
                yield Automaton(aut.cmp, aut.adv, tuple(maxdig))
        if aut.adv[j] not in (0, 1):
            adv = list(aut.adv)
            adv[j] = 1
            yield Automaton(aut.cmp, tuple(adv), aut.maxdig)


def test_prefix_family_suffix_closure_matches_per_prefix_oracle(monkeypatch):
    """The walker's second state list, updated from the first changed digit,
    agrees with rescanning every prefix on corrupted tables.  Walker, scans
    and check all see the same corrupted tables."""
    kinds = set()
    for e in default_corpus():
        for bad in corrupted_automata(e):
            monkeypatch.setattr(words_mod, "automaton", lambda e_, bad=bad: bad)
            monkeypatch.setattr(verify_mod, "automaton", lambda e_, bad=bad: bad)
            for cap in range(1, 7):
                got, want = [], []
                verify_mod.check_suffix_closure(e, cap, 1, got)
                oracle_prefix_family_suffix_closure(e, cap, want)
                assert got == want, (e.text(), bad, cap)
                kinds.update(message.rsplit(" is ", 1)[-1] for message in want)
    assert kinds == {"not admissible", "not full"}


# The per-word bodies of the last-digit and decrement checks, from before
# they walked prefix families: every word of length n <= cap is walked, and
# its own states say whether it breaks the law.  They read automaton,
# start_at and walk at call time, so a monkeypatched table reaches them too.


def oracle_last_digit_bound(e, cap, failures):
    case = e.text()
    top = e.alphabet_max
    for n in range(1, cap + 1):
        digits, states = words_mod.start_at(e, n, 0)
        for _ in words_mod.walk(e, digits, states):
            if digits[-1] >= top and states[-1] == 1:
                verify_mod._record(failures, f"{case}: full word {Word(tuple(digits)).text()} ends with digit "
                                             f"{digits[-1]} >= floor(beta) = {top}")


def oracle_decrement_closure(e, cap, failures):
    case = e.text()
    aut = verify_mod.automaton(e)
    cmp_, adv_ = aut.cmp, aut.adv
    for n in range(1, cap + 1):
        digits, states = words_mod.start_at(e, n, 0)
        for _ in words_mod.walk(e, digits, states):
            d = digits[-1] - 1
            s = states[-2]
            if d >= 0 and d == cmp_[s] and adv_[s] != 1:
                verify_mod._record(failures, f"{case}: decrement of {Word(tuple(digits)).text()} is not full")


FAMILY_CHECKS = [(verify_mod.check_last_digit_bound, oracle_last_digit_bound),
                 (verify_mod.check_decrement_closure, oracle_decrement_closure)]
ORACLE_WORDS = 10**6


@pytest.mark.parametrize("check, oracle", FAMILY_CHECKS, ids=["last_digit", "decrement"])
def test_family_checks_match_per_word_oracles_clean(check, oracle):
    """On the real tables neither route records a message, at caps up to
    the decrement check's 10.  One oracle run at the largest cap stands for
    every smaller cap.  The oracle walks every word, so the caps stop at the
    largest within ORACLE_WORDS words: 9 for 4;2 (5.5 M words at n <= 10),
    10 for every other expansion."""
    for e in ORACLE_INPUTS:
        top = max(cap for cap in range(1, 11) if sum(count(e, n) for n in range(1, cap + 1)) <= ORACLE_WORDS)
        want = []
        oracle(e, top, want)
        assert want == [], e.text()
        for cap in range(1, top + 1):
            got = []
            check(e, cap, got)
            assert got == want, (e.text(), cap)


@pytest.mark.parametrize("check, oracle", FAMILY_CHECKS, ids=["last_digit", "decrement"])
def test_family_checks_match_per_word_oracles_on_corrupted_tables(monkeypatch, check, oracle):
    """Under every corrupted table the family check records the oracle's
    messages in the oracle's order, and the corrupted tables make it fail,
    some of them past MAX_FAILURES, where both keep the same first ones.
    Walker, oracle and check all see the same tables."""
    failed = capped = 0
    for e in ORACLE_INPUTS:
        for bad in corrupted_automata(e):
            monkeypatch.setattr(words_mod, "automaton", lambda e_, bad=bad: bad)
            monkeypatch.setattr(verify_mod, "automaton", lambda e_, bad=bad: bad)
            for cap in range(1, 8):
                got, want = both(check, oracle, e, cap)
                assert got == want, (e.text(), bad, cap)
                failed += bool(want)
                capped += len(want) == verify_mod.MAX_FAILURES
    assert failed and capped


def test_deep_suffix_not_admissible_is_a_failure(monkeypatch):
    """A suffix scan that raises is recorded, not propagated."""
    real = verify_mod.scan_states
    bad = (0,) * 7

    def fake(digits, e):
        if tuple(digits) == bad:
            raise NotAdmissible("injected")
        return real(digits, e)

    monkeypatch.setattr(verify_mod, "scan_states", fake)
    failures = []
    verify_mod.check_suffix_closure(GOLDEN, 8, 8, failures)
    assert failures and failures[0] == "1,1: suffix at offset 1 of full 00000000 is not admissible"
    assert verify_theorems(GOLDEN, 8)[0] == failures[0]


def unit_pieces(dec, w, e):
    """Every digit its own piece: reconstructs, but blocks ending in eps_1 are wrong."""
    return Decomposition(tuple((1, d) for d in w.digits[:-1]), (1, w.digits[-1]))


def one_tail(dec, w, e):
    """The whole word as one tail: reconstructs only for eps|_(n-1) plus a digit."""
    return Decomposition((), (len(w), w.digits[-1]))


def split_tail(dec, w, e):
    """A tail (j, d) with j >= 2 split into a block that matches eps_(j-1)
    instead of dropping below it, and a one-digit tail."""
    j, d = dec.tail
    if j < 2:
        return dec
    return Decomposition(dec.blocks + ((j - 1, e.digit(j - 1)),), (1, d))


def bumped_tail(dec, w, e):
    j, d = dec.tail
    return Decomposition(dec.blocks, (j, d + 1))


@pytest.mark.parametrize("corrupt", [unit_pieces, one_tail, split_tail, bumped_tail])
def test_decompose_check_matches_per_word_oracle(monkeypatch, corrupt):
    real = verify_mod.decompose

    def fake(w, e):
        dec = real(w, e)
        # corrupt about a third of the words, so failures come from many n
        return corrupt(dec, w, e) if sum(i * d for i, d in enumerate(w.digits, 1)) % 3 == 0 else dec

    monkeypatch.setattr(verify_mod, "decompose", fake)
    saw_failures = False
    for e in default_corpus():
        for cap in CAPS:
            for exhaustive_to, samples in ((10, 300), (2, 5)):
                args = (e, range(1, cap + 1), exhaustive_to, samples)
                got, want = both(verify_mod.check_decompose, oracle_decompose, *args)
                assert got == want, (e.text(), cap, exhaustive_to)
                saw_failures |= bool(want)
    assert saw_failures


def test_decompose_block_verdict_matches_oracle(monkeypatch):
    """A scan that calls every length-2 block word non-full reaches the
    memoized verdict and the per-word oracle alike."""
    real = verify_mod.scan_states

    def fake(digits, e):
        states = real(digits, e)
        return states[:-1] + [0] if len(digits) == 2 else states

    monkeypatch.setattr(verify_mod, "scan_states", fake)
    saw_failures = False
    for e in default_corpus():
        for cap in CAPS:
            got, want = both(verify_mod.check_decompose, oracle_decompose, e, range(1, cap + 1), 10, 300)
            assert got == want, (e.text(), cap)
            saw_failures |= bool(want)
    assert saw_failures


@pytest.mark.parametrize("text", ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1"])
def test_verify_theorems_clean_outside_corpus(text):
    e = ExpansionOfOne.parse(text)
    assert text not in {m.text() for m in default_corpus()}
    assert verify_theorems(e, 6) == []


@pytest.mark.parametrize("text, n", [("1,1", 2000), ("1,1", 5000), ("2,1,1", 3000), ("3,0,2,0,0,0,0,1", 2000)])
def test_sweep_runs_past_the_recursion_limit(text, n):
    """The descent keeps its own stack, so the sweep takes n far past the
    default recursion limit of 1000: clean, with every word counted."""
    e = ExpansionOfOne.parse(text)
    result = sweep_fullness(e, n)
    assert (result.failures, result.undecided, result.words) == ([], 0, count(e, n))


def near_the_recursion_limit(fn, room=50):
    """fn() called with about room frames left below the recursion limit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(k):
        return fn() if k <= 0 else down(k - 1)

    return down(sys.getrecursionlimit() - room - depth)


def test_sweep_opens_no_frame_per_digit(monkeypatch):
    """Called about 50 frames below the recursion limit, sweep_fullness
    still sweeps n = 200, clean: the descent opens no Python frame per
    digit.  With a fault injected it names the same failures there as at a
    shallow depth, so a failure message needs few frames too (a faulted
    sweep memoizes nothing, so it stays at n = 9)."""
    for e in (GOLDEN, PEARL):
        assert near_the_recursion_limit(lambda: sweep_fullness(e, 200)) == sweep_fullness(e, 200)
    tau_off_by_one(monkeypatch)
    faulted = sweep_fullness(PEARL, 9)
    assert faulted.failures and near_the_recursion_limit(lambda: sweep_fullness(PEARL, 9)) == faulted


def test_sweep_fullness_refuses_a_bad_n_before_any_table(monkeypatch):
    """sweep_fullness leaves the n check to sweep_shard, which refuses n < 1
    before it counts prefixes or reads a count table."""
    built = []
    monkeypatch.setattr(verify_mod, "prefix_count", lambda *args: built.append(args))
    monkeypatch.setattr(verify_mod, "_count_table", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="n must be >= 1"):
        sweep_fullness(GOLDEN, 0)
    assert built == []


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_sweep_shard_defaults_to_the_whole_range(e):
    for n in range(1, 9):
        prefixes = runs_mod.prefix_count(e, n)
        whole = verify_mod.sweep_shard(e, n, DEFAULT_TOL, 0, prefixes)
        assert verify_mod.sweep_shard(e, n, DEFAULT_TOL) == whole
        assert verify_mod.sweep_shard(e, n, DEFAULT_TOL, prefixes // 2) == verify_mod.sweep_shard(
            e, n, DEFAULT_TOL, prefixes // 2, prefixes)


@pytest.mark.parametrize("shards", [1, 2])
def test_report_refuses_n_past_its_deepest_sweep(monkeypatch, capsys, tmp_path, shards):
    """The deepest sweep a report takes is the CLI's bound VERIFY_MAX_N:
    verify refuses one n past it in one line, before any pool.  The library
    takes any n: verify_report at n = 1500 verifies clean, in this process
    and through a pool's map (two sweeps, so that two shards start a pool),
    with the same bytes."""
    fake_pool(monkeypatch)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    corpus = tmp_path / "one.txt"
    corpus.write_text("1,1\n")
    past = cli.VERIFY_MAX_N + 1
    argv = ["verify", "--n-range", f"{past}..{past}", "--corpus", str(corpus), "--shards", str(shards)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: n = {past} is past verify's bound n <= {cli.VERIFY_MAX_N}\n"
    assert FakeExecutor.sizes == []
    rows, failures = verify_report([GOLDEN, GOLDEN], [1500])
    assert failures == [] and [(row["n"], row["match"]) for row in rows] == [(1500, True)] * 2
    assert FakeExecutor.sizes == []
    swept, failures = verify_report([GOLDEN, GOLDEN], [1500], shards=shards)
    assert failures == [] and render_report(swept) == render_report(rows)
    assert FakeExecutor.sizes == ([shards] if shards > 1 else [])
