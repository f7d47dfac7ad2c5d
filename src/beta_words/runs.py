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

from functools import reduce
from itertools import accumulate

from .errors import IntegerBeta, TailMismatch, VerificationError
from .expansion import ExpansionOfOne, Frozen, derived
from .structure import _tail_matches, is_full
from .words import Word, _check_n, automaton, count, predecessor, start_at, walk

FULL = "full"
NONFULL = "nonfull"


def _tau(e: ExpansionOfOne, bound: int) -> list[int]:
    """e's tau row, tau(0) = 0 at first, grown in place to at least bound + 1
    entries, for reading only.  tau_table and tau read it; the closed forms
    read _shape(e), which reads it once, through its stable position.

    The greedy walk from s first subtracts P(s), the largest nonzero digit
    position <= s, and then walks on from s - P(s), so
    tau(s) = 1 + tau(s - P(s)).  The row grows in chunks, to bound + 1 or
    twice its length, whichever is more, so rising bounds slice the digit
    prefix O(log bound) times, not once per bound.
    """
    record = derived(e)
    record.tau_row = table = record.tau_row or [0]
    start = len(table)
    if start <= bound:
        stop = max(bound, 2 * start)
        digits = e.digits_prefix(stop)
        last = next((s for s in range(start - 1, 0, -1) if digits[s - 1]), 0)
        for s in range(start, stop + 1):
            if digits[s - 1]:
                last = s
            table.append(table[s - last] + 1)
    return table


def tau(e: ExpansionOfOne, s: int) -> int:
    """Greedy step count: subtract the largest nonzero digit position <= the
    remainder until s is exhausted.  Position 1 is always nonzero, so the
    greedy walk terminates."""
    if s < 1:
        raise ValueError("tau is defined for s >= 1")
    return _tau(e, s)[s]


def tau_table(e: ExpansionOfOne, bound: int) -> list[int]:
    """tau(e, s) for s = 1..bound; index 0 holds tau(0) = 0.

    A copy of the first bound + 1 entries of the expansion's tau row, which
    _tau grows in chunks (see there) as far as the largest bound asked for.
    """
    if bound < 0:
        raise ValueError("tau_table bound must be >= 0")
    return _tau(e, bound)[:bound + 1]


class _Shape(Frozen):
    """What the closed forms read of one expansion, built whole once
    (_shape) and never changed: M (None when infinite), eps_1, eps_M, the
    pairs (value, first position) of the nonzero values among the first
    |preperiod| + |period| digits, in rising position (past those digits
    the nonzero values repeat), the second nonzero position n2 (the period
    holds a nonzero digit, so n2 lies among those digits), the sorted
    nonzero values of those digits, the full-run sets of the finite branches
    with M < n (M | n or not), and tau through position stable: its prefix
    maxima top (top[s] = max of tau(1..s), top[0] = 0) and its first-seen
    pairs (value, first s) for s >= n2 - 1, in rising s.

    Neither changes past stable, so top[min(n, stable)] and the pairs with
    s <= n serve every n.  A finite expansion's closed forms read tau only
    through M - 1 = stable.  For an eventually periodic one, p = |preperiod|
    and q = |period|: every q consecutive positions past p hold a nonzero
    digit, so for s >= p + q the offset s - P(s) is below q and repeats with
    period q, and tau(s) = 1 + tau(s - P(s)) = tau(s - q) for s >= p + 2q;
    stable = p + 2q - 1.  The build is linear in stable.
    """

    __slots__ = ("m", "eps_1", "eps_m", "firsts", "n2", "values", "multiple", "nonmultiple", "stable", "top",
                 "seen")

    def __init__(self, e: ExpansionOfOne):
        if e.is_finite and len(e.preperiod) == 1:
            raise IntegerBeta("closed forms require a non-integer beta")
        digits = e.preperiod + e.period
        m = len(digits) if e.is_finite else None
        eps_1, eps_m = digits[0], digits[-1]
        n2 = next(i for i, d in enumerate(digits[1:], start=2) if d)
        firsts: dict[int, int] = {}
        for i, d in enumerate(digits, start=1):
            if d:
                firsts.setdefault(d, i)
        values = tuple(sorted(firsts))
        multiple = tuple(sorted({*values, eps_1 + eps_m}))
        nonmultiple = tuple(sorted(set(digits[:-1]) - {0} | {eps_1 + eps_m}))
        stable = m - 1 if m else len(e.preperiod) + 2 * len(e.period) - 1
        taus = _tau(e, stable)
        first: dict[int, int] = {}
        for s in range(n2 - 1, stable + 1):
            first.setdefault(taus[s], s)
        Frozen.__init__(self, m, eps_1, eps_m, tuple(firsts.items()), n2, values, multiple, nonmultiple, stable,
                        tuple(accumulate(taus[:stable + 1], max)), tuple(first.items()))

    def nonzero(self, upto: int) -> tuple[int, ...]:
        """The sorted nonzero digit values among the first upto digits."""
        if upto >= self.firsts[-1][1]:
            return self.values
        return tuple(sorted(d for d, i in self.firsts if i <= upto))


def _shape(e: ExpansionOfOne) -> _Shape:
    record = derived(e)
    if record.shape is None:
        record.shape = _Shape(e)
    return record.shape


def second_nonzero_position(e: ExpansionOfOne) -> int:
    """The second nonzero digit position of eps(1, beta); requires beta not
    an integer, in which case it always exists."""
    return _shape(e).n2


# --- closed-form run-length sets ---


def _full_case(e: ExpansionOfOne, n: int) -> tuple[str, tuple[int, ...]]:
    sh = _shape(e)
    _check_n(n)
    m = sh.m
    if m is None or m >= n:
        return "short-or-infinite", sh.nonzero(n)
    if n % m == 0:
        return "finite-multiple", sh.multiple
    return "finite-nonmultiple", sh.nonmultiple


def full_run_lengths_formula(e: ExpansionOfOne, n: int) -> tuple[int, ...]:
    """Closed form for the set of full-run lengths at word length n."""
    return _full_case(e, n)[1]


def full_run_case(e: ExpansionOfOne, n: int) -> str:
    """Which closed-form branch applies: the expansion digits alone, or a
    merged boundary run when a finite expansion divides (or not) into n."""
    return _full_case(e, n)[0]


def max_full_run_length(e: ExpansionOfOne, n: int) -> int:
    return _full_case(e, n)[1][-1]


def min_full_run_length(e: ExpansionOfOne, n: int) -> int:
    return _full_case(e, n)[1][0]


def _nonfull_case(e: ExpansionOfOne, n: int) -> tuple[str, tuple[int, ...]]:
    sh = _shape(e)
    _check_n(n)
    m = sh.m
    if sh.eps_1 >= 2:
        label = "eps1>=2 infinite" if m is None else "eps1>=2 finite"
        return label, _range_set(sh.top[min(n, sh.stable)])
    n2 = sh.n2
    if m is None:
        if n < n2:
            return "eps1=1 infinite n<n2", (n,)
        return "eps1=1 infinite n>=n2", _with_low_range(sh, n)
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
        return "eps1=1 finite n2<M n2<=n<M", _with_low_range(sh, n)
    return "eps1=1 finite n2<M n>=M", _range_set(sh.top[m - 1])


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


def _with_low_range(sh: _Shape, n: int) -> tuple[int, ...]:
    """1..min(n2 - 1, n - n2 + 1) and every tau(s), n2 - 1 <= s <= n; the
    taus come off the record's first-seen pairs."""
    values = set(range(1, min(sh.n2 - 1, n - sh.n2 + 1) + 1))
    values.update(value for value, s in sh.seen if s <= n)
    return tuple(sorted(values))


def max_nonfull_run_length(e: ExpansionOfOne, n: int) -> int:
    """max tau(1..tail_cap(e, n)): tail_cap is n, or min(M - 1, n) when
    finite, and the record's prefix maxima are final past stable."""
    sh = _shape(e)
    _check_n(n)
    return sh.top[min(n, sh.stable)]


def min_nonfull_run_length(e: ExpansionOfOne, n: int) -> int:
    sh = _shape(e)
    _check_n(n)
    if sh.eps_1 >= 2:
        return 1
    if n < sh.n2:
        return n
    if sh.m == sh.n2 == n:
        return sh.n2 - 1
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
    sh = _shape(e)
    _check_n(n)
    if sh.m is not None and n % sh.m == 0:
        return LastRunClassification(FULL, sh.eps_m)
    return LastRunClassification(NONFULL, None)
