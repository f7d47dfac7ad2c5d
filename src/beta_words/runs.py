"""Maximal runs of full and non-full words in the lex enumeration.

Consecutive admissible words group into alternating maximal runs of full and
non-full words.  The run-length sets admit closed forms: the greedy step
count tau (repeatedly subtract the largest nonzero digit position that
fits) gives the non-full run lengths, and the nonzero digit values give the
full run lengths.  This module computes both sides: closed-form sets that
dispatch on the shape of eps(1, beta), and exact enumerated sets from a
single streamed pass, so they can be checked against each other.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import IntegerBeta, TailMismatch, VerificationError
from .expansion import ExpansionOfOne, Frozen
from .structure import _tail_matches, is_full, tail_cap
from .words import Word, _check_n, automaton, count, predecessor, start_at, walk

FULL = "full"
NONFULL = "nonfull"


def _reject_integer_beta(e: ExpansionOfOne) -> None:
    if e.is_finite and e.finite_length == 1:
        raise IntegerBeta("closed forms require a non-integer beta")


def tau(e: ExpansionOfOne, s: int) -> int:
    """Greedy step count: subtract the largest nonzero digit position <= the
    remainder until s is exhausted.  Position 1 is always nonzero, so the
    greedy walk terminates."""
    if s < 1:
        raise ValueError("tau is defined for s >= 1")
    return tau_table(e, s)[s]


@lru_cache(maxsize=64)
def _tau_row(e: ExpansionOfOne) -> list[int]:
    """The tau row of e so far, tau(0) = 0 at first; tau_table extends the
    list in place."""
    return [0]


def tau_table(e: ExpansionOfOne, bound: int) -> list[int]:
    """tau(e, s) for s = 1..bound; index 0 holds tau(0) = 0.

    The greedy walk from s first subtracts P(s), the largest nonzero digit
    position <= s, and then walks on from s - P(s), so
    tau(s) = 1 + tau(s - P(s)).  One row per expansion (_tau_row) is
    extended in increasing s as far as the largest bound asked for; each
    call gets a copy of its first bound + 1 entries.
    """
    if bound < 0:
        raise ValueError("tau_table bound must be >= 0")
    table = _tau_row(e)
    start = len(table)
    if start <= bound:
        digits = e.digits_prefix(bound)
        last = next((s for s in range(start - 1, 0, -1) if digits[s - 1]), 0)
        for s in range(start, bound + 1):
            if digits[s - 1]:
                last = s
            table.append(table[s - last] + 1)
    return table[:bound + 1]


def second_nonzero_position(e: ExpansionOfOne) -> int:
    """The second nonzero digit position of eps(1, beta); requires beta not
    an integer, in which case it always exists."""
    _reject_integer_beta(e)
    digits = e.digits_prefix(len(e.preperiod) + len(e.period) + 1)
    for i, d in enumerate(digits[1:], start=2):
        if d:
            return i
    raise VerificationError("no second nonzero digit found")


# --- closed-form run-length sets ---


def _nonzero_values(e: ExpansionOfOne, upto: int) -> set[int]:
    """The nonzero digit values among the first upto digits of eps(1, beta).

    Past the first |preperiod| + |period| digits the values repeat (a finite
    expansion has only zeros there), so the prefix stops at that horizon.
    """
    return {d for d in e.digits_prefix(min(upto, len(e.preperiod) + len(e.period))) if d}


def _full_case(e: ExpansionOfOne, n: int) -> tuple[str, tuple[int, ...]]:
    _reject_integer_beta(e)
    _check_n(n)
    m = e.finite_length
    if not e.is_finite or m >= n:
        return "short-or-infinite", tuple(sorted(_nonzero_values(e, n)))
    boundary = e.digit(1) + e.digit(m)
    if n % m == 0:
        return "finite-multiple", tuple(sorted(_nonzero_values(e, n) | {boundary}))
    # m < n, so the digits past position m - 1 are eps_M and zeros
    return "finite-nonmultiple", tuple(sorted(_nonzero_values(e, m - 1) | {boundary}))


def full_run_lengths_formula(e: ExpansionOfOne, n: int) -> tuple[int, ...]:
    """Closed form for the set of full-run lengths at word length n."""
    return _full_case(e, n)[1]


def full_run_case(e: ExpansionOfOne, n: int) -> str:
    """Which closed-form branch applies: the expansion digits alone, or a
    merged boundary run when a finite expansion divides (or not) into n."""
    return _full_case(e, n)[0]


def max_full_run_length(e: ExpansionOfOne, n: int) -> int:
    _reject_integer_beta(e)
    _check_n(n)
    m = e.finite_length
    if e.is_finite and m < n:
        return e.alphabet_max + e.digit(m)
    return e.alphabet_max


def min_full_run_length(e: ExpansionOfOne, n: int) -> int:
    _reject_integer_beta(e)
    _check_n(n)
    m = e.finite_length
    if e.is_finite and m < n and n % m != 0:
        return min(_nonzero_values(e, m - 1))
    return min(_nonzero_values(e, n))


def _nonfull_case(e: ExpansionOfOne, n: int) -> tuple[str, tuple[int, ...]]:
    _reject_integer_beta(e)
    _check_n(n)
    m = e.finite_length
    if e.alphabet_max >= 2:
        if not e.is_finite:
            return "eps1>=2 infinite", _range_set(max(tau_table(e, n)[1:]))
        bound = min(m - 1, n)
        return "eps1>=2 finite", _range_set(max(tau_table(e, bound)[1:]))
    n2 = second_nonzero_position(e)
    if not e.is_finite:
        if n < n2:
            return "eps1=1 infinite n<n2", (n,)
        return "eps1=1 infinite n>=n2", _with_low_range(e, n, n2)
    if n2 == m:
        if n < m:
            return "eps1=1 finite n2=M n<M", (n,)
        if n == m:
            return "eps1=1 finite n2=M n=M", (m - 1,)
        low = _range_set(min(n - m, m - 1))
        return "eps1=1 finite n2=M n>M", tuple(sorted(set(low) | {m - 1}))
    if n < n2:
        return "eps1=1 finite n2<M n<n2", (n,)
    if n < m:
        return "eps1=1 finite n2<M n2<=n<M", _with_low_range(e, n, n2)
    return "eps1=1 finite n2<M n>=M", _range_set(max(tau_table(e, m - 1)[1:]))


def nonfull_run_lengths_formula(e: ExpansionOfOne, n: int) -> tuple[int, ...]:
    """Closed form for the set of non-full-run lengths at word length n.

    Dispatches on eps_1 >= 2 (beta > 2) versus eps_1 = 1 (1 < beta < 2), on
    the finite/infinite shape of the expansion, and on how n compares with
    the second nonzero position n2 and the finite length M.
    """
    return _nonfull_case(e, n)[1]


def nonfull_run_case(e: ExpansionOfOne, n: int) -> str:
    """Label of the closed-form branch that applies at (e, n); the ten
    labels spell out the dispatch conditions."""
    return _nonfull_case(e, n)[0]


def _range_set(top: int) -> tuple[int, ...]:
    return tuple(range(1, top + 1))


def _with_low_range(e: ExpansionOfOne, n: int, n2: int) -> tuple[int, ...]:
    taus = tau_table(e, n)
    values = set(range(1, min(n2 - 1, n - n2 + 1) + 1))
    values.update(taus[n2 - 1:])
    return tuple(sorted(values))


def max_nonfull_run_length(e: ExpansionOfOne, n: int) -> int:
    _reject_integer_beta(e)
    _check_n(n)
    return max(tau_table(e, tail_cap(e, n))[1:])


def min_nonfull_run_length(e: ExpansionOfOne, n: int) -> int:
    _reject_integer_beta(e)
    _check_n(n)
    if e.alphabet_max >= 2:
        return 1
    n2 = second_nonzero_position(e)
    if n < n2:
        return n
    if e.is_finite and e.finite_length == n2 == n:
        return n2 - 1
    return 1


# --- enumerated runs ---


class RunRecord(Frozen):
    """One maximal run of consecutive equal-fullness words."""

    __slots__ = ("kind", "start_index", "length", "first_word", "last_word")


class RunSets(Frozen):
    """Run-length sets with their provenance ('enumerated' or 'formula')."""

    __slots__ = ("full", "nonfull", "provenance")


def run_sets_formula(e: ExpansionOfOne, n: int) -> RunSets:
    return RunSets(full_run_lengths_formula(e, n), nonfull_run_lengths_formula(e, n), "formula")


def run_sets_enumerated(e: ExpansionOfOne, n: int) -> RunSets:
    """Run-length sets from one streamed pass over the lex enumeration."""
    full, nonfull = closed_run_sets(scan_run_lengths(e, n))
    return RunSets(tuple(sorted(full)), tuple(sorted(nonfull)), "enumerated")


def prefix_count(e: ExpansionOfOne, n: int) -> int:
    """Number of length-(n-1) prefixes, the shardable units of the run scan."""
    _check_n(n)
    return count(e, n - 1) if n >= 2 else 1


def scan_run_lengths(e: ExpansionOfOne, n: int, prefix_start: int = 0, prefix_stop: int | None = None):
    """Stream the words with prefixes in [prefix_start, prefix_stop), a window
    in [0, prefix_count(e, n)] (else VerificationError), into run data.

    Words sharing a length-(n-1) prefix split as eps_j full words (digits
    below the match digit) followed by at most one non-full word (the match
    digit), where j is the prefix's automaton state; the pass walks prefixes
    with words.walk and never materializes individual words.

    Returns (full_set, nonfull_set, first_run, last_run, run_count, total)
    where the sets hold interior closed runs only and first_run/last_run are
    (is_full, length) pairs that merge_runs joins across window boundaries.
    """
    prefixes = prefix_count(e, n)
    if prefix_stop is None:
        prefix_stop = prefixes
    if not (0 <= prefix_start <= prefixes and 0 <= prefix_stop <= prefixes):
        raise VerificationError("prefix range exceeds the enumeration")
    remaining = prefix_stop - prefix_start
    if remaining <= 0:
        return one_run(True, 0)
    aut = automaton(e)
    cmp, adv = aut.cmp, aut.adv
    full: set[int] = set()
    nonfull: set[int] = set()
    first_run: tuple[bool, int] | None = None
    closed = 0
    cur_full = True
    cur_len = 0
    total = 0
    prefix, states = start_at(e, n - 1, prefix_start)
    last = n - 1
    for _ in walk(e, prefix, states, remaining):
        s = states[last]
        c = cmp[s]
        a = adv[s]
        if c:
            total += c
            if cur_full:
                cur_len += c
            else:
                if first_run is None:
                    first_run = (False, cur_len)
                else:
                    nonfull.add(cur_len)
                closed += 1
                cur_full = True
                cur_len = c
        if a:
            total += 1
            if cur_full:
                if cur_len:
                    if first_run is None:
                        first_run = (True, cur_len)
                    else:
                        full.add(cur_len)
                    closed += 1
                cur_full = False
                cur_len = 1
            else:
                cur_len += 1
    last_run = (cur_full, cur_len)
    if first_run is None:
        first_run = last_run
    return full, nonfull, first_run, last_run, closed + 1, total


def one_run(is_full: bool, length: int):
    """Run summary of length consecutive words of one kind, in the shape
    scan_run_lengths returns; length 0 gives the summary of no words."""
    run = (is_full, length)
    return set(), set(), run, run, 1, length


def merge_runs(a, b):
    """Run summary of a's words followed by b's; equal-kind runs at the seam
    coalesce.  The merge is associative and one_run(True, 0) is its
    identity, so summaries of consecutive windows reduce in any grouping."""
    if not a[5]:
        return b
    if not b[5]:
        return a
    a_full, a_nonfull, a_first, a_last, a_count, a_total = a
    b_full, b_nonfull, b_first, b_last, b_count, b_total = b
    fused = a_last[0] == b_first[0]
    seam = [(a_last[0], a_last[1] + b_first[1])] if fused else [a_last, b_first]
    runs = ([a_first] if a_count > 1 else []) + seam + ([b_last] if b_count > 1 else [])
    full, nonfull = a_full | b_full, a_nonfull | b_nonfull
    for kind, length in runs[1:-1]:
        (full if kind else nonfull).add(length)
    return full, nonfull, runs[0], runs[-1], a_count + b_count - fused, a_total + b_total


def stitch_run_scans(chunks):
    """Merge ordered run summaries, such as scan_run_lengths outputs over
    consecutive prefix windows, into one summary of the same shape."""
    return reduce(merge_runs, chunks, one_run(True, 0))


def closed_run_sets(summary) -> tuple[set[int], set[int]]:
    """The (full, nonfull) run-length sets of a run summary, its first and
    last runs included."""
    full, nonfull, first, last, _, total = summary
    full, nonfull = set(full), set(nonfull)
    if total:
        for kind, length in (first, last):
            (full if kind else nonfull).add(length)
    return full, nonfull


def maximal_runs(e: ExpansionOfOne, n: int) -> list[RunRecord]:
    """All maximal runs in lex order, with boundary words and start indices."""
    _check_n(n)
    aut = automaton(e)
    cmp, adv = aut.cmp, aut.adv
    records: list[RunRecord] = []
    cur_full = True
    cur_len = 0
    cur_start = 0
    cur_first: tuple[int, ...] = (0,) * n
    last_word: tuple[int, ...] = cur_first
    index = 0
    prefix, states = start_at(e, n - 1, 0)
    last = n - 1
    for _ in walk(e, prefix, states):
        s = states[last]
        c = cmp[s]
        a = adv[s]
        base = tuple(prefix)
        if c:
            if cur_full:
                cur_len += c
            else:
                records.append(RunRecord(NONFULL, cur_start, cur_len, Word(cur_first), Word(last_word)))
                cur_full, cur_len, cur_start, cur_first = True, c, index, base + (0,)
            last_word = base + (c - 1,)
            index += c
        if a:
            if cur_full:
                if cur_len:
                    records.append(RunRecord(FULL, cur_start, cur_len, Word(cur_first), Word(last_word)))
                cur_full, cur_len, cur_start, cur_first = False, 1, index, base + (c,)
            else:
                cur_len += 1
            last_word = base + (c,)
            index += 1
    records.append(RunRecord(FULL if cur_full else NONFULL, cur_start, cur_len, Word(cur_first), Word(last_word)))
    return records


# --- predictions tied to single words ---


def tail_run_prediction(w: Word, e: ExpansionOfOne, s: int | None = None) -> int:
    """Predict and verify the non-full run ending at w.

    For w ending with eps_1..eps_s, the tau(s) consecutive words counting
    down from w (inclusive) are non-full and the next one below is full.
    Returns tau(s) after walking the predecessors to confirm; raises
    TailMismatch when w does not end with the claimed prefix.
    """
    matches = _tail_matches(w, e)
    if s is None:
        if not matches:
            raise TailMismatch("word does not end with a prefix of the expansion of 1")
        s = matches[0]
    elif s not in matches:
        raise TailMismatch(f"word does not end with the first {s} expansion digits")
    taus = tau_table(e, matches[-1])
    if len({taus[m] for m in matches}) != 1:
        raise VerificationError("tail lengths disagree on the predicted run length")
    steps = taus[s]
    current: Word | None = w
    for _ in range(steps):
        if current is None or is_full(current, e):
            raise VerificationError("predicted non-full stretch contains a full word")
        current = predecessor(current, e)
    if current is None or not is_full(current, e):
        raise VerificationError("word below the predicted stretch is not full")
    return steps


class LastRunClassification(Frozen):
    """Shape of the run containing the maximal word eps*(1, beta)|_n."""

    __slots__ = ("kind", "length")


def classify_last_run(e: ExpansionOfOne, n: int) -> LastRunClassification:
    """The maximal word's run is full of length eps_M exactly when the
    expansion is finite with M dividing n; otherwise it is non-full."""
    _reject_integer_beta(e)
    _check_n(n)
    m = e.finite_length
    if e.is_finite and n % m == 0:
        return LastRunClassification(FULL, e.digit(m))
    return LastRunClassification(NONFULL, None)
