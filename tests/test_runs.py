"""Run lengths of full and non-full words: formulas against enumeration."""

import random
import time
import tracemalloc
from bisect import bisect_right

import pytest

from beta_words import expansion as expansion_mod
from beta_words import runs
from beta_words.expansion import derived
from beta_words import (
    ExpansionOfOne,
    IntegerBeta,
    RunRecord,
    Word,
    classify_last_run,
    count,
    full_run_case,
    full_run_lengths_formula,
    is_full,
    iter_words,
    max_full_run_length,
    max_nonfull_run_length,
    max_word,
    max_zero_run,
    maximal_runs,
    min_full_run_length,
    min_nonfull_run_length,
    modified_expansion,
    nonfull_run_case,
    nonfull_run_lengths_formula,
    nonzero_sequence,
    run_sets_enumerated,
    run_sets_formula,
    second_nonzero_position,
    tail_run_prediction,
    tau,
    tau_table,
    word_at,
)
from beta_words import TailMismatch, VerificationError, predecessor
from beta_words.structure import _tail_matches, tail_cap

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")
SPARSE = ExpansionOfOne.parse("1,0,1,0,0,0,1")
MEMBERS = ["1,1", "1,1,1", "2,1,1", "1,0,1,0,0,0,1", "3,0,2,0,0,0,0,1",
           "3,0,0,2;0,0,0,2", "1,0,0,0,0,1;0,0,0,0,0,1"]


def runs_by_hand(e, n):
    """Group the lex enumeration into maximal constant-fullness runs."""
    runs = []
    for idx, w in enumerate(iter_words(e, n)):
        kind = "full" if is_full(w, e) else "nonfull"
        if runs and runs[-1][0] == kind:
            runs[-1][2] += 1
            runs[-1][4] = w
        else:
            runs.append([kind, idx, 1, w, w])
    return [RunRecord(k, i, c, a, b) for k, i, c, a, b in runs]


def test_tau_golden():
    assert tau_table(GOLDEN, 8)[1:] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_tau_sparse():
    # nonzero positions 1, 3, 7 pin tau to 1 there
    assert tau_table(SPARSE, 8)[1:] == [1, 2, 1, 2, 3, 2, 1, 2]


def test_tau_pearl():
    assert tau(PEARL, 7) == 3
    assert [tau(PEARL, s) for s in (1, 3, 8)] == [1, 1, 1]


def test_tau_counts_greedy_steps():
    # tau(s) = number of greedy subtractions of nonzero positions
    for e in (GOLDEN, PEARL, SPARSE):
        for s in range(1, 20):
            t = tau(e, s)
            assert t >= 1
            if s > 1:
                assert t <= s


def test_second_nonzero_position():
    assert second_nonzero_position(GOLDEN) == 2
    assert second_nonzero_position(SPARSE) == 3
    assert second_nonzero_position(ExpansionOfOne.parse("1,0,0,0,0,1;0,0,0,0,0,1")) == 6


def test_golden_n3_records():
    assert maximal_runs(GOLDEN, 3) == [
        RunRecord("full", 0, 1, Word((0, 0, 0)), Word((0, 0, 0))),
        RunRecord("nonfull", 1, 1, Word((0, 0, 1)), Word((0, 0, 1))),
        RunRecord("full", 2, 2, Word((0, 1, 0)), Word((1, 0, 0))),
        RunRecord("nonfull", 4, 1, Word((1, 0, 1)), Word((1, 0, 1))),
    ]


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_records_match_hand_grouping(text, n):
    e = ExpansionOfOne.parse(text)
    assert maximal_runs(e, n) == runs_by_hand(e, n)


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", list(range(1, 11)))
def test_formula_equals_enumeration(text, n):
    e = ExpansionOfOne.parse(text)
    formula = run_sets_formula(e, n)
    enum = run_sets_enumerated(e, n)
    assert formula.full == enum.full, (text, n)
    assert formula.nonfull == enum.nonfull, (text, n)
    assert formula.provenance == "formula"
    assert enum.provenance == "enumerated"


def test_golden_n3_sets():
    rs = run_sets_formula(GOLDEN, 3)
    assert rs.full == (1, 2)
    assert rs.nonfull == (1,)


def test_sparse_max_nonfull():
    assert max_nonfull_run_length(SPARSE, 8) == 3


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", [2, 5, 9])
def test_extremes_agree_with_sets(text, n):
    e = ExpansionOfOne.parse(text)
    enum = run_sets_enumerated(e, n)
    assert max_full_run_length(e, n) == max(enum.full)
    assert min_full_run_length(e, n) == min(enum.full)
    if enum.nonfull:
        assert max_nonfull_run_length(e, n) == max(enum.nonfull)
        assert min_nonfull_run_length(e, n) == min(enum.nonfull)


def test_min_nonfull_run_length_cases():
    # M - 1 when 1 < beta < 2 finite with M = n2 = n; n below n2; else 1
    assert min_nonfull_run_length(GOLDEN, 2) == 1
    assert min_nonfull_run_length(ExpansionOfOne.parse("1,0,0,1"), 4) == 3
    assert min_nonfull_run_length(SPARSE, 2) == 2
    assert min_nonfull_run_length(PEARL, 5) == 1


def test_integer_beta_rejected():
    e = ExpansionOfOne.parse("3")
    for fn in (full_run_lengths_formula, nonfull_run_lengths_formula,
               run_sets_formula, classify_last_run):
        with pytest.raises(IntegerBeta):
            fn(e, 4)


# every public function of runs and words that takes a word length n
N_TAKERS = {
    "full_run_lengths_formula": full_run_lengths_formula,
    "full_run_case": full_run_case,
    "max_full_run_length": max_full_run_length,
    "min_full_run_length": min_full_run_length,
    "nonfull_run_lengths_formula": nonfull_run_lengths_formula,
    "nonfull_run_case": nonfull_run_case,
    "max_nonfull_run_length": max_nonfull_run_length,
    "min_nonfull_run_length": min_nonfull_run_length,
    "run_sets_formula": run_sets_formula,
    "run_sets_enumerated": run_sets_enumerated,
    "prefix_count": runs.prefix_count,
    "scan_run_lengths": runs.scan_run_lengths,
    "maximal_runs": maximal_runs,
    "classify_last_run": classify_last_run,
    "count": count,
    "word_at": lambda e, n: word_at(e, n, 0),
    "max_word": max_word,
    "iter_words": lambda e, n: next(iter_words(e, n)),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("name", N_TAKERS)
def test_word_length_below_one_refused(name, n):
    with pytest.raises(ValueError, match=r"^word length n must be >= 1$"):
        N_TAKERS[name](GOLDEN, n)


def test_tau_table_refuses_a_negative_bound():
    """A bound below 0 does not slice the cached row from its end."""
    e = ExpansionOfOne.parse("1,0,1,0,0,0,1")
    assert len(tau_table(e, 20)) == 21
    for bound in (-1, -3):
        with pytest.raises(ValueError, match=r"^tau_table bound must be >= 0$"):
            tau_table(e, bound)
    assert tau_table(e, 0) == [0]


def test_case_labels_cover_corpus():
    seen = set()
    for text in MEMBERS:
        e = ExpansionOfOne.parse(text)
        for n in range(1, 13):
            seen.add(nonfull_run_case(e, n))
    assert seen == {
        "eps1>=2 infinite",
        "eps1>=2 finite",
        "eps1=1 infinite n<n2",
        "eps1=1 infinite n>=n2",
        "eps1=1 finite n2=M n<M",
        "eps1=1 finite n2=M n=M",
        "eps1=1 finite n2=M n>M",
        "eps1=1 finite n2<M n<n2",
        "eps1=1 finite n2<M n2<=n<M",
        "eps1=1 finite n2<M n>=M",
    }


def test_full_case_labels():
    assert full_run_case(GOLDEN, 1) == "short-or-infinite"
    assert full_run_case(GOLDEN, 4) == "finite-multiple"
    assert full_run_case(GOLDEN, 5) == "finite-nonmultiple"
    assert full_run_case(ExpansionOfOne.parse("3,0,0,2;0,0,0,2"), 9) == "short-or-infinite"


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", list(range(1, 9)))
def test_classify_last_run_matches_enumeration(text, n):
    e = ExpansionOfOne.parse(text)
    rec = maximal_runs(e, n)[-1]
    got = classify_last_run(e, n)
    assert got.kind == rec.kind
    if got.length is not None:
        assert got.length == rec.length


def test_tail_run_prediction_counts_words_above_last_full():
    # a word ending with eps|_s sits tau(s) slots above the closest full word
    for n in (3, 5, 7):
        words = list(iter_words(SPARSE, n))
        flags = [is_full(w, SPARSE) for w in words]
        for idx, w in enumerate(words):
            if flags[idx]:
                continue
            back = next(k for k in range(1, idx + 1) if flags[idx - k])
            assert tail_run_prediction(w, SPARSE) == back


def test_run_count_parity():
    # runs alternate and the first word (all zeros) is always full
    for text in MEMBERS:
        e = ExpansionOfOne.parse(text)
        recs = maximal_runs(e, 6)
        assert recs[0].kind == "full"
        for a, b in zip(recs, recs[1:]):
            assert a.kind != b.kind
        assert sum(r.length for r in recs) == count(e, 6)


# --- the closed forms against per-position oracles ---
#
# The oracles below read one digit per position through e.digit and walk the
# greedy subtraction for every s; the library reads digit prefixes once and
# fills tau by its recursion.  Both must give the same values everywhere.

ORACLE_MEMBERS = MEMBERS + ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1"]


def oracle_nonzero_sequence(e, upto):
    return [i for i in range(1, upto + 1) if e.digit(i) != 0]


def oracle_tau_table(e, bound):
    positions = oracle_nonzero_sequence(e, bound)
    table = [0] * (bound + 1)
    for s in range(1, bound + 1):
        steps = 0
        remaining = s
        while remaining:
            remaining -= positions[bisect_right(positions, remaining) - 1]
            steps += 1
        table[s] = steps
    return table


def oracle_second_nonzero_position(e):
    return next(i for i in range(2, len(e.preperiod) + len(e.period) + 2) if e.digit(i))


def oracle_max_zero_run(e, n):
    star = modified_expansion(e)
    best = run = 0
    for i in range(1, n + 1):
        run = run + 1 if star.digit(i) == 0 else 0
        best = max(best, run)
    return best


def oracle_full_case(e, n):
    values = {e.digit(i) for i in oracle_nonzero_sequence(e, n)}
    m = e.finite_length
    if not e.is_finite or m >= n:
        return "short-or-infinite", tuple(sorted(values))
    boundary = e.digit(1) + e.digit(m)
    if n % m == 0:
        return "finite-multiple", tuple(sorted(values | {boundary}))
    values = {e.digit(i) for i in oracle_nonzero_sequence(e, n) if i != m}
    return "finite-nonmultiple", tuple(sorted(values | {boundary}))


def oracle_min_full_run_length(e, n):
    m = e.finite_length
    if e.is_finite and m < n and n % m != 0:
        return min(e.digit(i) for i in oracle_nonzero_sequence(e, m) if i != m)
    return min(e.digit(i) for i in oracle_nonzero_sequence(e, n))


def closed_forms(e, n):
    """Every public closed-form value at (e, n), looked up on the module so
    that patched helpers take effect."""
    return [
        runs.full_run_case(e, n),
        runs.full_run_lengths_formula(e, n),
        runs.max_full_run_length(e, n),
        runs.min_full_run_length(e, n),
        runs.nonfull_run_case(e, n),
        runs.nonfull_run_lengths_formula(e, n),
        runs.max_nonfull_run_length(e, n),
        runs.min_nonfull_run_length(e, n),
        runs.run_sets_formula(e, n),
        runs.classify_last_run(e, n),
    ]


@pytest.mark.parametrize("text", ORACLE_MEMBERS)
def test_closed_forms_match_per_position_oracles(text, monkeypatch):
    e = ExpansionOfOne.parse(text)
    got = [closed_forms(e, n) for n in range(1, 301)]
    monkeypatch.setattr(runs, "tau_table", oracle_tau_table)
    monkeypatch.setattr(runs, "second_nonzero_position", oracle_second_nonzero_position)
    monkeypatch.setattr(runs, "_full_case", oracle_full_case)
    monkeypatch.setattr(runs, "min_full_run_length", oracle_min_full_run_length)
    for n in range(1, 301):
        assert got[n - 1] == closed_forms(e, n), (text, n)


@pytest.mark.parametrize("text", ORACLE_MEMBERS)
def test_tau_and_positions_match_per_position_oracles(text):
    e = ExpansionOfOne.parse(text)
    table = oracle_tau_table(e, 600)
    assert tau_table(e, 600) == table
    assert [tau(e, s) for s in range(1, 601)] == table[1:]
    assert tau_table(e, 0) == [0]
    for upto in range(0, 601):
        assert nonzero_sequence(e, upto) == oracle_nonzero_sequence(e, upto), upto
    for n in range(0, 301):
        assert max_zero_run(e, n) == oracle_max_zero_run(e, n), n
    assert second_nonzero_position(e) == oracle_second_nonzero_position(e)


# --- the closed forms against the code that re-derived each expansion per call ---
#
# The head_* functions are the closed forms as they were before one record per
# expansion (runs._shape) and one prefix-max tau row took over: every call
# reads the expansion's properties again, slices its digits and scans a fresh
# tau table.  Their tau row comes from the greedy-walk oracle above.

HEAD_MEMBERS = MEMBERS + ["2;1", "4;2", "1;1,0", "1,1;0,1", "2;0,1", "1,0,1", "3,2,1", "1,1,0,1", "1000,1"]
HEAD_MAX_N = 600
HEAD_TAUS = {}


def head_tau_table(e, bound):
    if e not in HEAD_TAUS:
        HEAD_TAUS[e] = oracle_tau_table(e, HEAD_MAX_N)
    return HEAD_TAUS[e][:bound + 1]


def head_reject_integer_beta(e):
    if e.is_finite and e.finite_length == 1:
        raise IntegerBeta("closed forms require a non-integer beta")


def head_second_nonzero_position(e):
    head_reject_integer_beta(e)
    digits = e.digits_prefix(len(e.preperiod) + len(e.period) + 1)
    for i, d in enumerate(digits[1:], start=2):
        if d:
            return i
    raise VerificationError("no second nonzero digit found")


def head_nonzero_values(e, upto):
    return {d for d in e.digits_prefix(min(upto, len(e.preperiod) + len(e.period))) if d}


def head_full_case(e, n):
    head_reject_integer_beta(e)
    m = e.finite_length
    if not e.is_finite or m >= n:
        return "short-or-infinite", tuple(sorted(head_nonzero_values(e, n)))
    boundary = e.digit(1) + e.digit(m)
    if n % m == 0:
        return "finite-multiple", tuple(sorted(head_nonzero_values(e, n) | {boundary}))
    return "finite-nonmultiple", tuple(sorted(head_nonzero_values(e, m - 1) | {boundary}))


def head_max_full_run_length(e, n):
    head_reject_integer_beta(e)
    m = e.finite_length
    if e.is_finite and m < n:
        return e.alphabet_max + e.digit(m)
    return e.alphabet_max


def head_min_full_run_length(e, n):
    head_reject_integer_beta(e)
    m = e.finite_length
    if e.is_finite and m < n and n % m != 0:
        return min(head_nonzero_values(e, m - 1))
    return min(head_nonzero_values(e, n))


def head_range_set(top):
    return tuple(range(1, top + 1))


def head_with_low_range(e, n, n2):
    values = set(range(1, min(n2 - 1, n - n2 + 1) + 1))
    values.update(head_tau_table(e, n)[n2 - 1:])
    return tuple(sorted(values))


def head_nonfull_case(e, n):
    head_reject_integer_beta(e)
    m = e.finite_length
    if e.alphabet_max >= 2:
        if not e.is_finite:
            return "eps1>=2 infinite", head_range_set(max(head_tau_table(e, n)[1:]))
        return "eps1>=2 finite", head_range_set(max(head_tau_table(e, min(m - 1, n))[1:]))
    n2 = head_second_nonzero_position(e)
    if not e.is_finite:
        if n < n2:
            return "eps1=1 infinite n<n2", (n,)
        return "eps1=1 infinite n>=n2", head_with_low_range(e, n, n2)
    if n2 == m:
        if n < m:
            return "eps1=1 finite n2=M n<M", (n,)
        if n == m:
            return "eps1=1 finite n2=M n=M", (m - 1,)
        return "eps1=1 finite n2=M n>M", tuple(sorted(set(head_range_set(min(n - m, m - 1))) | {m - 1}))
    if n < n2:
        return "eps1=1 finite n2<M n<n2", (n,)
    if n < m:
        return "eps1=1 finite n2<M n2<=n<M", head_with_low_range(e, n, n2)
    return "eps1=1 finite n2<M n>=M", head_range_set(max(head_tau_table(e, m - 1)[1:]))


def head_max_nonfull_run_length(e, n):
    head_reject_integer_beta(e)
    cap = n if not e.is_finite else min(e.finite_length - 1, n)
    return max(head_tau_table(e, cap)[1:])


def head_min_nonfull_run_length(e, n):
    head_reject_integer_beta(e)
    if e.alphabet_max >= 2:
        return 1
    n2 = head_second_nonzero_position(e)
    if n < n2:
        return n
    if e.is_finite and e.finite_length == n2 == n:
        return n2 - 1
    return 1


def head_closed_forms(e, n):
    """The ten public closed-form values at (e, n), in closed_forms' order."""
    head_reject_integer_beta(e)
    full_case, nonfull_case = head_full_case(e, n), head_nonfull_case(e, n)
    if e.is_finite and n % e.finite_length == 0:
        last = runs.LastRunClassification(runs.FULL, e.digit(e.finite_length))
    else:
        last = runs.LastRunClassification(runs.NONFULL, None)
    return [
        full_case[0],
        full_case[1],
        head_max_full_run_length(e, n),
        head_min_full_run_length(e, n),
        nonfull_case[0],
        nonfull_case[1],
        head_max_nonfull_run_length(e, n),
        head_min_nonfull_run_length(e, n),
        runs.RunSets(full_case[1], nonfull_case[1], "formula"),
        last,
    ]


HEAD_EXPANSIONS = [ExpansionOfOne.parse(text) for text in HEAD_MEMBERS]
HEAD_VALUES = {}


def head_values(e, n):
    if (e, n) not in HEAD_VALUES:
        HEAD_VALUES[e, n] = head_closed_forms(e, n)
    return HEAD_VALUES[e, n]


HEAD_ORDERS = {
    "ascending": [(e, n) for e in HEAD_EXPANSIONS for n in range(1, HEAD_MAX_N + 1)],
    "descending": [(e, n) for e in HEAD_EXPANSIONS for n in range(HEAD_MAX_N, 0, -1)],
    "interleaved": [(e, n) for n in range(1, HEAD_MAX_N + 1) for e in HEAD_EXPANSIONS],
}


@pytest.mark.parametrize("order", HEAD_ORDERS)
def test_closed_forms_match_the_per_call_code(order, fresh_store):
    """Every public closed form at every n in 1..600 equals the per-call
    code's value, whichever order the (expansion, n) pairs come in and so
    however the per-expansion records and rows have grown."""
    for e, n in HEAD_ORDERS[order]:
        assert closed_forms(e, n) == head_values(e, n), (e.text(), n)
        assert second_nonzero_position(e) == head_second_nonzero_position(e), e.text()


@pytest.mark.parametrize("text", HEAD_MEMBERS)
def test_prefix_max_row_is_the_max_of_the_tau_table(text, fresh_store):
    """The record's prefix maxima, read at min(n, stable), are the maxima of
    tau over 1..tail_cap(e, n) at every n, however far the row has grown."""
    e = ExpansionOfOne.parse(text)
    sh = runs._shape(e)
    assert len(sh.top) == sh.stable + 1
    for n in [*range(1, 80), *range(HEAD_MAX_N, 79, -1)]:
        table = runs._tau(e, n)
        assert len(table) > n
        assert sh.top[min(n, sh.stable)] == max(tau_table(e, tail_cap(e, n))[1:]), n


# --- the closed forms are eventually periodic in n ---


def closed_form_period(e):
    """(n0, q) with n0 = 2L, L = |preperiod| + |period|, and q = M for a
    finite expansion, 1 for a periodic one: every closed form at n >= n0
    equals its value at n + q."""
    return 2 * (len(e.preperiod) + len(e.period)), e.finite_length if e.is_finite else 1


def check_closed_form_period(e):
    """Every closed form at n in n0..n0 + 3q + 300 equals its value at
    n + q, and at n = 10^9 and 10^18 its value at the residue in
    [n0, n0 + q)."""
    n0, q = closed_form_period(e)
    for n in range(n0, n0 + 3 * q + 301):
        assert closed_forms(e, n) == closed_forms(e, n + q), (e.text(), n)
    for n in (10**9, 10**18):
        assert closed_forms(e, n) == closed_forms(e, n0 + (n - n0) % q), (e.text(), n)


@pytest.mark.parametrize("text", HEAD_MEMBERS)
def test_closed_forms_are_eventually_periodic(text, fresh_store):
    """The record is final when built, so a fresh one answers n = 10^18 as
    it answers the residue, within a megabyte of traced memory."""
    tracemalloc.start()
    try:
        check_closed_form_period(ExpansionOfOne.parse(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("text", ["3,0,0,2;0,0,0,2", "1,0,0,0,0,1;0,0,0,0,0,1"])
def test_periodic_members_answer_a_billion_at_once(text, fresh_store):
    """Both periodic members' run sets and longest non-full run at n = 10^9,
    from a fresh record, take well under 10 ms and a megabyte."""
    e = ExpansionOfOne.parse(text)
    start = time.perf_counter()
    got = run_sets_formula(e, 10**9), max_nonfull_run_length(e, 10**9)
    elapsed = time.perf_counter() - start
    fresh_store()
    tracemalloc.start()
    try:
        assert (run_sets_formula(e, 10**9), max_nonfull_run_length(e, 10**9)) == got
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 2**20, (elapsed, peak)
    n0, q = closed_form_period(e)
    assert got == (run_sets_formula(e, n0), max_nonfull_run_length(e, n0))


def test_nonzero_values_below_m_come_off_first_positions():
    """The record's nonzero values among the first upto digits are those of
    the digit prefix, and on 2,...,2,1 with M = 20,001 the run sets at every
    n <= M take well under 0.5 s (2.5 s when each call sorted a slice of the
    first n digits)."""
    for e in HEAD_EXPANSIONS:
        sh = runs._shape(e)
        for upto in range(1, len(e.preperiod) + len(e.period) + 3):
            assert sh.nonzero(upto) == tuple(sorted(set(e.digits_prefix(upto)) - {0})), (e.text(), upto)
    e = ExpansionOfOne.finite((2,) * 20000 + (1,))
    runs._shape(e)
    start = time.perf_counter()
    got = [run_sets_formula(e, n).full for n in range(1, 20002)]
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed
    assert got == [(2,)] * 20000 + [(1, 2)]


def test_tau_reads_the_row_without_copying_it():
    """Repeated tau calls on a warm row of 10^5 entries allocate no copy of
    it (a copy's list alone is 800 kB)."""
    e = ExpansionOfOne.parse("1,0,0,0,0,1;0,0,0,0,0,1")
    bound = 10**5
    want = oracle_tau_table(e, 300)
    tau(e, bound)  # grows the row to at least bound + 1 entries
    tracemalloc.start()
    try:
        got = [tau(e, s) for s in range(1, 301)] + [tau(e, s) for s in range(bound - 300, bound + 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:300] == want[1:]
    assert peak < 2**16


@pytest.mark.parametrize("text", ["2", "7"])
def test_integer_betas_raise_from_every_closed_form(text):
    e = ExpansionOfOne.parse(text)
    for _ in range(2):
        for fn in (run_sets_formula, full_run_lengths_formula, nonfull_run_lengths_formula, full_run_case,
                   nonfull_run_case, max_full_run_length, min_full_run_length, max_nonfull_run_length,
                   min_nonfull_run_length, classify_last_run):
            for n in (1, 5, 600):
                with pytest.raises(IntegerBeta, match="^closed forms require a non-integer beta$"):
                    fn(e, n)
        with pytest.raises(IntegerBeta):
            second_nonzero_position(e)
    assert tau_table(e, 5) == oracle_tau_table(e, 5)


# --- tail_run_prediction reads one tau table ---


def oracle_tail_run_prediction(w, e, s=None):
    """The prediction with one tau table per matched s."""
    matches = _tail_matches(w, e)
    if s is None:
        if not matches:
            raise TailMismatch("word does not end with a prefix of the expansion of 1")
        s = matches[0]
    elif s not in matches:
        raise TailMismatch(f"word does not end with the first {s} expansion digits")
    if len({runs.tau_table(e, m)[m] for m in matches}) != 1:
        raise VerificationError("tail lengths disagree on the predicted run length")
    steps = runs.tau_table(e, s)[s]
    current = w
    for _ in range(steps):
        if current is None or is_full(current, e):
            raise VerificationError("predicted non-full stretch contains a full word")
        current = predecessor(current, e)
    if current is None or not is_full(current, e):
        raise VerificationError("word below the predicted stretch is not full")
    return steps


def outcome(call, *args):
    try:
        return call(*args)
    except (TailMismatch, VerificationError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("text", MEMBERS)
def test_tail_run_prediction_matches_oracle(text):
    e = ExpansionOfOne.parse(text)
    for n in range(1, 8):
        for w in iter_words(e, n):
            for s in (None, 1, 2, n):
                assert outcome(tail_run_prediction, w, e, s) == outcome(oracle_tail_run_prediction, w, e, s)


def test_tail_run_prediction_error_strings():
    assert outcome(tail_run_prediction, Word((0, 0, 0)), SPARSE) == (
        "TailMismatch", "word does not end with a prefix of the expansion of 1")
    assert outcome(tail_run_prediction, Word((0, 0, 1)), SPARSE, 2) == (
        "TailMismatch", "word does not end with the first 2 expansion digits")


def test_tail_run_prediction_builds_one_tau_table(monkeypatch):
    # 0^5 eps|_300 ends with eps|_1 = 1 and with eps|_300; the old code built
    # a tau table of length 1 and one of length 300
    e = ExpansionOfOne.parse("1,0,0,0,0,1;0,0,0,0,0,1")
    w = Word((0,) * 5 + e.digits_prefix(300))
    matches = _tail_matches(w, e)
    assert matches == [1, 300]
    expected = tau(e, 1)
    bounds = []
    real = runs.tau_table

    def spy(e_, bound):
        bounds.append(bound)
        return real(e_, bound)

    monkeypatch.setattr(runs, "tau_table", spy)
    assert tail_run_prediction(w, e) == expected
    assert bounds == [300]


def test_tail_run_prediction_reports_disagreeing_taus(monkeypatch):
    # a tau table that breaks tau(1) = tau(300) for a word matching both
    e = ExpansionOfOne.parse("1,0,0,0,0,1;0,0,0,0,0,1")
    w = Word((0,) * 5 + e.digits_prefix(300))
    real = runs.tau_table

    def faulty(e_, bound):
        table = real(e_, bound)
        if bound >= 300:
            table[300] += 1
        return table

    monkeypatch.setattr(runs, "tau_table", faulty)
    want = ("VerificationError", "tail lengths disagree on the predicted run length")
    assert outcome(tail_run_prediction, w, e) == outcome(oracle_tail_run_prediction, w, e) == want


# --- run summaries: one merge, stitching as its reduce ---


def stitch_oracle(chunks):
    """The carry state machine stitch_run_scans used to be.  Returns
    (full_set, nonfull_set, run_count, total, last_run) with the boundary
    runs closed, or last_run None when there were no words at all."""
    full: set[int] = set()
    nonfull: set[int] = set()
    runs = 0
    total = 0
    carry = None
    for chunk in chunks:
        c_full, c_nonfull, first, last, nruns, c_total = chunk
        total += c_total
        if c_total == 0:
            continue
        if carry is not None:
            if carry[0] == first[0]:
                first = (first[0], carry[1] + first[1])
                if nruns == 1:
                    carry = first
                    continue
            else:
                (full if carry[0] else nonfull).add(carry[1])
                runs += 1
        if nruns == 1:
            carry = first
            continue
        (full if first[0] else nonfull).add(first[1])
        runs += 1
        full |= c_full
        nonfull |= c_nonfull
        runs += nruns - 2
        carry = last
    if carry is not None:
        (full if carry[0] else nonfull).add(carry[1])
        runs += 1
    return full, nonfull, runs, total, carry


def seeded_windows(rng, prefixes, k):
    """k consecutive prefix windows covering [0, prefixes); from three
    windows on, the second one is empty."""
    cuts = sorted(rng.randint(0, prefixes) for _ in range(k - 1))
    if k >= 3:
        cuts[1] = cuts[0]
    edges = [0] + cuts + [prefixes]
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("text", ORACLE_MEMBERS)
def test_stitching_is_a_reduce_over_merge_runs(text):
    e = ExpansionOfOne.parse(text)
    empty = runs.one_run(True, 0)
    empties = 0
    for n in range(1, 10):
        whole = runs.scan_run_lengths(e, n)
        rng = random.Random(f"{text}/{n}")
        for k in range(1, 7):
            scans = [runs.scan_run_lengths(e, n, a, b) for a, b in seeded_windows(rng, runs.prefix_count(e, n), k)]
            empties += sum(scan[5] == 0 for scan in scans)
            stitched = runs.stitch_run_scans(scans)
            assert stitched == whole, (n, k)
            full, nonfull, count_, total, last = stitch_oracle(scans)
            assert runs.closed_run_sets(stitched) == (full, nonfull), (n, k)
            assert (stitched[4], stitched[5], stitched[3]) == (count_, total, last), (n, k)
            cut = rng.randint(0, k)
            halves = [runs.stitch_run_scans(scans[:cut]), runs.stitch_run_scans(scans[cut:])]
            assert runs.stitch_run_scans(halves) == stitched, (n, k, cut)
            for scan in scans + [stitched]:
                assert runs.merge_runs(empty, scan) == scan == runs.merge_runs(scan, empty)
    assert empties > 0


def test_closed_run_sets_of_no_words():
    assert runs.stitch_run_scans([]) == runs.one_run(True, 0)
    assert runs.closed_run_sets(runs.one_run(True, 0)) == (set(), set())
    assert runs.closed_run_sets(runs.one_run(False, 3)) == (set(), {3})


# --- one cached tau row per expansion ---


@pytest.mark.parametrize("text", ORACLE_MEMBERS)
def test_cached_tau_rows_match_a_fresh_walk_in_any_order(text, fresh_store):
    """Bounds asked in rising, falling and repeated order all read the row
    of a fresh greedy walk, and a caller's edits do not reach the store."""
    e = ExpansionOfOne.parse(text)
    fresh = oracle_tau_table(e, 300)
    rng = random.Random(text)
    bounds = [*range(0, 40), *range(300, 250, -7), 5, 5, 299, 299, 300, 0,
              *(rng.randrange(301) for _ in range(20))]
    for bound in bounds:
        table = tau_table(e, bound)
        assert table == fresh[:bound + 1], bound
        if table:
            table[-1] += 1
            table.append(-1)
    # one row per expansion, extended in place in chunks, and the prefix
    # maxima of the expansion's record, final past its stable position
    row = derived(e).tau_row
    assert len(row) >= 301
    assert row[:301] == fresh
    sh = runs._shape(e)
    assert [sh.top[min(s, sh.stable)] for s in range(1, 301)] == [
        max(fresh[1:tail_cap(e, s) + 1]) for s in range(1, 301)]


@pytest.mark.parametrize("text", ["3,0,0,2;0,0,0,2", "1,0,0,0,0,1;0,0,0,0,0,1", "2,1,1"])
def test_rising_bounds_grow_the_tau_row_in_chunks(text, monkeypatch, fresh_store):
    """Bounds 1..4096 in turn slice the digit prefix once per doubling of the
    row, 12 times, not once per bound, and read the values a fresh walk
    gives; so do the prefix maxima that max_nonfull_run_length reads."""
    e = ExpansionOfOne.parse(text)
    real = ExpansionOfOne.digits_prefix
    slices = []

    def counted(self, n):
        slices.append(n)
        return real(self, n)

    monkeypatch.setattr(ExpansionOfOne, "digits_prefix", counted)
    tables = [tau_table(e, bound) for bound in range(1, 4097)]
    assert slices == [2 ** (k + 1) - 2 for k in range(1, 13)], slices
    monkeypatch.setattr(ExpansionOfOne, "digits_prefix", real)
    fresh = oracle_tau_table(e, 4096)
    assert all(table == fresh[:len(table)] for table in tables)
    cap = tail_cap(e, 4096)
    assert [max_nonfull_run_length(e, n) for n in range(1, 4097)] == [
        max(fresh[1:min(n, cap) + 1]) for n in range(1, 4097)]


def built(e, slot, call):
    """Whether call builds e's table `slot` afresh, not reading the one the
    store keeps; the store is read without reordering it."""
    record = expansion_mod._STORE.get(e)
    before = None if record is None else getattr(record, slot)
    call()
    return getattr(expansion_mod._STORE[e], slot) is not before


def test_tau_rows_are_bounded(fresh_store):
    # 70 distinct valid expansions 2,0^k,1 overflow the 64-expansion store
    members = [ExpansionOfOne.finite((2,) + (0,) * k + (1,)) for k in range(70)]
    for e in members:
        tau_table(e, 5)
    assert len(expansion_mod._STORE) == 64 and list(expansion_mod._STORE) == members[6:]
    # a call marks its expansion most recently used, so it outlives older ones
    assert not built(members[7], "tau_row", lambda: tau(members[7], 3))
    assert built(members[0], "tau_row", lambda: tau_table(members[0], 80))  # evicts members[6]
    assert built(members[1], "tau_row", lambda: tau_table(members[1], 5))  # evicts members[8]
    assert not built(members[7], "tau_row", lambda: tau_table(members[7], 5))
    assert not built(members[0], "tau_row", lambda: tau_table(members[0], 80))
    assert tau_table(members[0], 80) == oracle_tau_table(members[0], 80)
    assert built(members[6], "tau_row", lambda: tau_table(members[6], 5))
    assert built(members[8], "tau_row", lambda: tau_table(members[8], 5))
    assert len(expansion_mod._STORE) == 64
