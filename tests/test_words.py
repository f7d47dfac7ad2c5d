"""Admissible words: enumeration, counting, ranking, neighbors."""

import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from beta_words import (
    AlphabetMismatch,
    BetaWordsError,
    ExpansionOfOne,
    NotAdmissible,
    VerificationError,
    Word,
    automaton,
    count,
    decompose,
    default_corpus,
    is_admissible,
    is_full,
    is_full_by_length,
    is_full_by_tail,
    iter_words,
    max_word,
    predecessor,
    rank_of,
    scan_states,
    successor,
    word_at,
)
from beta_words import words as words_mod
from beta_words.runs import scan_run_lengths, tail_run_prediction
from beta_words.words import Automaton, start_at, walk

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")
MEMBERS = ["1,1", "1,1,1", "2,1,1", "1,0,1,0,0,0,1", "3,0,0,2;0,0,0,2"]


def brute_words(e, n):
    """Filter the full digit box by the definitional shift comparison."""
    hits = []
    for digits in product(range(e.alphabet_max + 1), repeat=n):
        if is_admissible(Word(digits), e):
            hits.append(Word(digits))
    return hits


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_enumeration_matches_definition(text, n):
    e = ExpansionOfOne.parse(text)
    assert list(iter_words(e, n)) == brute_words(e, n)


@pytest.mark.parametrize("text", MEMBERS)
def test_count_matches_enumeration(text):
    e = ExpansionOfOne.parse(text)
    for n in range(1, 8):
        assert count(e, n) == len(list(iter_words(e, n)))


def test_golden_counts_are_fibonacci():
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        assert count(GOLDEN, n) == fib[n + 1]


def test_pearl_count_n2():
    # alphabet 0..3 at position 1; digit 3 restricts position 2 to 0
    assert count(PEARL, 2) == 13


def test_enumeration_is_sorted_lex():
    for n in (3, 6):
        ws = list(iter_words(PEARL, n))
        assert ws == sorted(ws, key=lambda w: w.digits)


def test_max_word_is_modified_expansion_prefix():
    assert max_word(GOLDEN, 5).digits == (1, 0, 1, 0, 1)
    assert max_word(PEARL, 9).digits == (3, 0, 2, 0, 0, 0, 0, 0, 3)


def test_successor_predecessor_walk():
    e = ExpansionOfOne.parse("2,1,1")
    ws = list(iter_words(e, 4))
    for a, b in zip(ws, ws[1:]):
        assert successor(a, e) == b
        assert predecessor(b, e) == a
    assert successor(ws[-1], e) is None
    assert predecessor(ws[0], e) is None


def test_word_at_rank_of_round_trip():
    for text in MEMBERS:
        e = ExpansionOfOne.parse(text)
        total = count(e, 6)
        for idx in range(0, total, max(1, total // 37)):
            w = word_at(e, 6, idx)
            assert rank_of(w, e) == idx


def test_word_at_agrees_with_iteration():
    ws = list(iter_words(PEARL, 4))
    for idx, w in enumerate(ws):
        assert word_at(PEARL, 4, idx) == w


def test_scan_states_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        scan_states((1, 1, 1), GOLDEN)


def test_iter_words_window():
    ws = list(iter_words(PEARL, 3))
    assert list(iter_words(PEARL, 3, start=4, limit=7)) == ws[4:11]


def test_admissibility_examples():
    assert is_admissible(Word((1, 0, 1)), GOLDEN)
    assert not is_admissible(Word((1, 1)), GOLDEN)
    assert is_admissible(Word((3, 0, 2, 0, 0, 0, 0, 0)), PEARL)
    assert not is_admissible(Word((3, 0, 2, 0, 0, 0, 0, 1)), PEARL)


def test_word_text_round_trip():
    assert Word.parse("3020").digits == (3, 0, 2, 0)
    w = Word((10, 0, 2))
    assert Word.parse(w.text()) == w


def common_prefix(a, b):
    k = 0
    while k < len(a) and a[k] == b[k]:
        k += 1
    return k


def walk_windows(total):
    """Rank windows [a, b): the whole range, a mid-enumeration start, the
    last word alone, and a window ending on the last word."""
    mid = total // 2
    return sorted({(0, total), (mid, min(total, mid + 7)), (total - 1, total),
                   (max(0, total - 5), total)})


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
@pytest.mark.parametrize("m", range(1, 7))
def test_walk_visits_rank_window(e, m):
    total = count(e, m)
    for a, b in walk_windows(total):
        digits, states = start_at(e, m, a)
        seen, shared = [], []
        for k in walk(e, digits, states, b - a):
            assert states == scan_states(digits, e)
            seen.append(tuple(digits))
            shared.append(k)
        assert seen == [word_at(e, m, i).digits for i in range(a, b)]
        assert shared[0] == 0
        assert shared[1:] == [common_prefix(u, v) for u, v in zip(seen, seen[1:])]


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_walk_stops_at_last_word(e):
    total = count(e, 5)
    digits, states = start_at(e, 5, total - 3)
    assert len(list(walk(e, digits, states, 10))) == 3
    assert tuple(digits) == max_word(e, 5).digits
    assert list(walk(e, digits, states, 0)) == []


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
@pytest.mark.parametrize("n", [1, 3, 6])
def test_scan_window_past_enumeration_raises(e, n):
    prefixes = count(e, n - 1) if n >= 2 else 1
    with pytest.raises(VerificationError):
        scan_run_lengths(e, n, max(0, prefixes - 2), prefixes + 3)


def fresh_count_table(e, n):
    """table[m][j], rebuilt from the automaton without any cache."""
    aut = automaton(e)
    width = len(aut.cmp)
    table = [[0] + [1] * (width - 1)]
    for _ in range(n):
        prev = table[-1]
        table.append([0] + [aut.cmp[j] * prev[1] + (prev[aut.adv[j]] if aut.adv[j] else 0)
                            for j in range(1, width)])
    return table


@pytest.mark.parametrize("text", MEMBERS)
def test_count_table_out_of_order(text):
    words_mod._count_rows.cache_clear()
    e = ExpansionOfOne.parse(text)
    fresh = fresh_count_table(e, 40)
    assert count(e, 40) == fresh[40][1]
    words = list(iter_words(e, 7))
    assert len(words) == fresh[7][1]
    for i, w in enumerate(words):
        assert word_at(e, 7, i) == w
        assert rank_of(w, e) == i
    assert [count(e, n) for n in range(1, 41)] == [fresh[n][1] for n in range(1, 41)]
    # one row list per expansion, extended in place
    assert words_mod._count_table(e, 3) is words_mod._count_rows(e)
    assert len(words_mod._count_rows(e)) == 41


def lookups(cache, call):
    """The (hits, misses) that call adds to an lru_cache."""
    before = cache.cache_info()
    call()
    after = cache.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_automaton_cache_is_bounded():
    # 70 distinct valid expansions 2,0^k,1 overflow the 64-entry cache
    members = [ExpansionOfOne.finite((2,) + (0,) * k + (1,)) for k in range(70)]
    for e in members:
        automaton(e)
    assert automaton.cache_info().currsize <= 64
    first = members[0]
    misses = automaton.cache_info().misses
    aut = automaton(first)
    assert automaton.cache_info().misses == misses + 1
    assert (aut.cmp, aut.adv, aut.maxdig) == ((0, 2, 1), (0, 2, 0), (0, 2, 0))
    assert count(first, 5) == len(brute_words(first, 5)) == len(list(iter_words(first, 5)))


def test_count_rows_are_bounded():
    # 70 distinct valid expansions 2,0^k,1 overflow the 64-expansion bound
    rows = words_mod._count_rows
    rows.cache_clear()
    members = [ExpansionOfOne.finite((2,) + (0,) * k + (1,)) for k in range(70)]
    for e in members:
        count(e, 5)
    info = rows.cache_info()
    assert (info.currsize, info.maxsize, info.misses) == (64, 64, 70)
    first = members[0]
    # the oldest was evicted: first is built again, and pushes out members[6]
    assert lookups(rows, lambda: count(first, 5)) == (0, 1)
    assert count(first, 5) == len(brute_words(first, 5)) == len(list(iter_words(first, 5)))
    # a call marks its expansion most recently used, so it outlives older ones
    assert lookups(rows, lambda: word_at(members[7], 5, 0)) == (1, 0)
    assert lookups(rows, lambda: count(ExpansionOfOne.parse("1,1"), 3)) == (0, 1)
    assert lookups(rows, lambda: count(members[7], 5)) == (1, 0)
    assert lookups(rows, lambda: count(members[8], 5)) == (0, 1)
    assert lookups(rows, lambda: count(members[6], 5)) == (0, 1)
    assert rows.cache_info().currsize == 64


# --- the one-slot scan memo ---


def oracle_states(digits, aut):
    """States after each digit, from the tables alone, without any memo."""
    states = [1]
    for d in digits:
        s = states[-1]
        assert 0 <= d <= aut.maxdig[s]
        states.append(aut.adv[s] if d == aut.cmp[s] else 1)
    return states


def test_scan_memo_ignores_lists_mutated_in_place():
    digits = [1, 0, 1, 0]
    assert scan_states(digits, GOLDEN) == oracle_states(digits, automaton(GOLDEN))
    digits[1:] = [0, 0, 1]
    assert scan_states(digits, GOLDEN) == oracle_states(digits, automaton(GOLDEN))
    digits[0] = 0
    assert scan_states(digits, GOLDEN) == oracle_states(digits, automaton(GOLDEN))
    digits[1] = 2
    with pytest.raises(AlphabetMismatch):
        scan_states(digits, GOLDEN)


def test_scan_memo_is_keyed_on_the_expansion():
    digits = (1, 0, 1, 0, 0, 0, 0)
    for text in ["1,1", "1,0,1,0,0,0,1", "2,1,1", "1,1,1", "1,1"]:
        e = ExpansionOfOne.parse(text)
        assert scan_states(digits, e) == oracle_states(digits, automaton(e)), text
    assert scan_states(digits, GOLDEN) is scan_states(digits, GOLDEN)  # a hit


def test_scan_memo_is_keyed_on_the_automaton(monkeypatch):
    """Tables swapped under a scanned tuple give the new tables' states."""
    digits = (1, 0, 0, 1, 0)
    real = automaton(GOLDEN)
    assert scan_states(digits, GOLDEN) == [1, 2, 1, 1, 2, 1]
    other = Automaton(real.cmp, (0, 1, 0), real.maxdig)  # the extension goes back to state 1
    monkeypatch.setattr(words_mod, "automaton", lambda e: other)
    assert scan_states(digits, GOLDEN) == oracle_states(digits, other) == [1, 1, 1, 1, 1, 1]
    monkeypatch.undo()
    assert scan_states(digits, GOLDEN) == [1, 2, 1, 1, 2, 1]


def test_failed_scan_is_not_remembered():
    good, bad = (1, 0, 1), (1, 1, 0)
    assert scan_states(good, GOLDEN) == [1, 2, 1, 2]
    for _ in range(2):
        with pytest.raises(NotAdmissible):
            scan_states(bad, GOLDEN)
    assert scan_states(good, GOLDEN) == [1, 2, 1, 2]
    with pytest.raises(NotAdmissible):
        scan_states(bad, GOLDEN)
    assert scan_states((0, 0, 1), GOLDEN) == [1, 1, 1, 2]


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_walking_from_a_word_leaves_its_scan_intact(e):
    """successor and iter_words from w's rank rewrite a copy of w's states,
    so the point queries after them read w's own states."""
    aut = automaton(e)
    total = count(e, 9)
    for index in sorted({0, 1, total // 3, total - 2, total - 1}):
        w = word_at(e, 9, index)
        want = oracle_states(w.digits, aut)
        for step in (lambda: successor(w, e), lambda: list(iter_words(e, 9, index))):
            assert scan_states(w.digits, e) == want
            step()
            assert scan_states(w.digits, e) == want
            assert is_full(w, e) == (want[-1] == 1)
            assert rank_of(w, e) == index


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_point_queries_on_one_word_share_one_scan(e):
    w = word_at(e, 64, count(e, 64) // 3)
    rank_of(w, e)
    states = words_mod._LAST_SCAN[0][2]
    assert states == oracle_states(w.digits, automaton(e))
    is_full(w, e)
    is_full_by_tail(w, e)
    is_full_by_length(w, e)
    successor(w, e)
    assert words_mod._LAST_SCAN[0][0] is w.digits and words_mod._LAST_SCAN[0][2] is states


# --- iter_words hands each word over with its walked scan ---


def outcome(call, *args):
    """The value of call(*args), or the type and message of its error."""
    try:
        return call(*args)
    except BetaWordsError as exc:
        return type(exc), str(exc)


def assert_walked_words_carry_their_scan(e, n, words, ranks, query_every=1):
    """Every word from the iterator is the memo entry when it arrives, with
    a copy of its own states that the next walk step leaves alone.  On every
    query_every-th word the point queries read that entry and agree with a
    fresh tuple of the same digits, and an equal but distinct tuple is
    scanned, not looked up."""
    aut = automaton(e)
    previous = None
    seen = []
    for i, w in enumerate(words):
        if previous is not None:
            assert previous[0] == previous[1], "the walk rewrote a stored scan"
        digits, stored_aut, states = words_mod._LAST_SCAN[0]
        want = oracle_states(w.digits, aut)
        assert digits is w.digits and stored_aut is aut and states == want
        previous = (states, want)
        seen.append(w.digits)
        if i % query_every:
            continue
        assert scan_states(w.digits, e) is states  # a hit
        walked = (decompose(w, e), is_full(w, e), outcome(tail_run_prediction, w, e))
        fresh = Word(tuple(list(w.digits)))
        assert fresh.digits is not w.digits
        assert (decompose(fresh, e), is_full(fresh, e), outcome(tail_run_prediction, fresh, e)) == walked
        again = tuple(list(w.digits))
        rescanned = scan_states(again, e)
        assert rescanned == want and rescanned is not states and words_mod._LAST_SCAN[0][0] is again
    if previous is not None:
        assert previous[0] == previous[1]
    assert seen == [word_at(e, n, i).digits for i in ranks]


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_iter_words_seeds_the_scan_memo(e):
    """The memo on every word at n <= 9; the point queries on every k-th
    word, k = max(1, count // 2000): on every word of an n with fewer than
    4,000 words, and on 2,000 to 4,000 words of a larger n."""
    for n in range(1, 10):
        total = count(e, n)
        assert_walked_words_carry_their_scan(e, n, iter_words(e, n), range(total), max(1, total // 2000))


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
@pytest.mark.parametrize("n", [1, 4, 9])
def test_iter_words_window_seeds_the_scan_memo(e, n):
    """A window from lex rank start, at the first word, inside, at the last
    word and at the end, with limits of none, 0, 1, 3, to the end and past
    it, is the words word_at gives at ranks start .. start + limit, cut at
    the end, each carrying its scan (the point queries on about 1,000 words
    of a window).  start == count yields nothing and a larger start raises
    word_at's ValueError."""
    total = count(e, n)
    for a in sorted({0, total // 3, total - 1, total}):
        for k in (None, 0, 1, 3, total - a, total - a + 5):
            b = total if k is None else min(a + k, total)
            words = iter_words(e, n, a, k)
            assert_walked_words_carry_their_scan(e, n, words, range(a, b), max(1, (b - a) // 1000))
    assert list(iter_words(e, n, total)) == []
    for start in (total + 1, total + 10**6, -1):
        with pytest.raises(ValueError, match="out of range"):
            next(iter_words(e, n, start))


def test_iter_words_from_rank_0_builds_no_count_table():
    e = ExpansionOfOne.parse("2,0,1")
    words_mod._count_rows.cache_clear()
    assert [w.digits for w in iter_words(e, 30, limit=2)] == [(0,) * 30, (0,) * 29 + (1,)]
    assert len(words_mod._count_rows(e)) == 1


# --- unranking by compare-and-subtract, with the scan handed over ---


def word_at_oracle(e, n, index):
    """An unranking loop of its own: a multiply, a compare, a floor division
    and a remainder per digit."""
    table = fresh_count_table(e, n)
    aut = automaton(e)
    cmp, adv = aut.cmp, aut.adv
    digits = []
    s = 1
    for m in range(n - 1, -1, -1):
        block = table[m][1]
        if cmp[s] and index < cmp[s] * block:
            digits.append(index // block)
            index %= block
            s = 1
        else:
            index -= cmp[s] * block
            digits.append(cmp[s])
            s = adv[s]
    return Word(tuple(digits))


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_word_at_matches_the_compare_loop(e):
    rng = random.Random(e.text())
    for n in [*range(1, 13), 64, 512]:
        total = count(e, n)
        for index in {0, total - 1, *(rng.randrange(total) for _ in range(8))}:
            assert word_at(e, n, index) == word_at_oracle(e, n, index), (n, index)


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_word_at_seeds_the_scan_memo(e):
    """The word arrives with its scan: the memo holds its own tuple, the
    expansion's automaton and the states an independent scan gives, and
    scan_states hands that list back without scanning."""
    aut = automaton(e)
    rng = random.Random(e.text())
    for n in [*range(1, 13), 64, 512]:
        total = count(e, n)
        for index in {0, total - 1, *(rng.randrange(total) for _ in range(8))}:
            w = word_at(e, n, index)
            digits, stored_aut, states = words_mod._LAST_SCAN[0]
            assert digits is w.digits and stored_aut is aut, (n, index)
            assert states == oracle_states(w.digits, aut), (n, index)
            assert scan_states(w.digits, e) is states, (n, index)


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
@pytest.mark.parametrize("row, fault", [(1, "row 0"), (0, "zeros")])
def test_word_at_refuses_a_count_table_out_of_step(monkeypatch, e, row, fault):
    """Row 1 of the count table set to row 0, or row 0 set to zeros, in the
    state-1 column that word_at reads: the digits read back from the largest
    index exceed what their states admit, so word_at raises, after finitely
    many subtractions, and stores no scan."""
    real = words_mod._count_column

    def out_of_step(e_, n):
        column = list(real(e_, n))
        column[row] = column[0] if fault == "row 0" else 0
        return column

    monkeypatch.setattr(words_mod, "_count_column", out_of_step)
    kept = (1,) + (0,) * 5
    scan_states(kept, e)
    before = words_mod._LAST_SCAN[0]
    with pytest.raises(VerificationError, match="not admissible"):
        word_at(e, 2, count(e, 2) - 1)
    assert words_mod._LAST_SCAN[0] is before
    assert scan_states(kept, e) is before[2]


@pytest.mark.parametrize("text", ["100000,1", "1000000000,1", "300,0,7;5,299"])
def test_word_at_work_per_digit_does_not_grow_with_the_alphabet(monkeypatch, text):
    """On expansions with a large first digit, word_at at high indices reads
    digits near eps_1 and still compares the index with each count at most
    twice; a budget on those comparisons fails the call at once if it ever
    loops per unit of a digit.  Every order comparison with a count is
    spent, whichever side and operator it is written with, so the budget is
    two per digit plus the one of word_at's range check on the index."""
    e = ExpansionOfOne.parse(text)
    real = words_mod._count_column
    budget = [0]

    def spent(compare):
        def counted(self, index):
            budget[0] -= 1
            assert budget[0] >= 0, "more than two comparisons per digit"
            return compare(int(self), index)
        return counted

    class Count(int):
        __lt__, __le__, __gt__, __ge__ = map(spent, (operator.lt, operator.le, operator.gt, operator.ge))

    def counting(e_, n):
        return [Count(c) for c in real(e_, n)]

    rng = random.Random(text)
    for n in (1, 2, 3, 12, 64):
        total = count(e, n)
        for index in {0, total - 1, total // 2, *(rng.randrange(total) for _ in range(4))}:
            monkeypatch.setattr(words_mod, "_count_column", counting)
            budget[0] = 2 * n + 1
            w = word_at(e, n, index)
            monkeypatch.setattr(words_mod, "_count_column", real)
            assert w == word_at_oracle(e, n, index), (n, index)
            assert rank_of(w, e) == index, (n, index)


def test_word_at_takes_only_integer_indices():
    for index in (2.5, 2.0, Fraction(5, 2)):
        with pytest.raises(TypeError):
            word_at(GOLDEN, 5, index)
    assert word_at(GOLDEN, 5, 2) == Word((0, 0, 0, 1, 0))
    assert word_at(GOLDEN, 5, True) == word_at(GOLDEN, 5, 1) == Word((0, 0, 0, 0, 1))
