"""Cross-verification harness: every theorem-backed identity as an executable check.

Each check recomputes a quantity along two independent routes (closed form
versus exhaustive enumeration, or one fullness criterion versus another) and
reports mismatches as human-readable failure strings.  The word-level sweep
descends the tree of length-(n-1) prefixes in lex order and carries, per
node, the block-match state (structural criterion), a KMP match state
against the digits of eps(1, beta) (tail criterion: a word is non-full
exactly when its longest suffix that is a prefix of eps(1, beta) is
nonempty), and a certified fixed-point enclosure of the cylinder left
endpoint (length criterion).  Within one prefix family, consecutive
cylinders differ by exactly beta^-n, so only the last word of each family
needs a computed length, and its test is two subtractions against
thresholds built once per block state.  Words in lex order follow the
recursion S(m, j) = S(m-1, 1)^cmp[j] . S(m-1, adv[j]) (Lecomte and Rigo's
numeration systems on a regular language), so a subtree that records no
failure is memoized on (block state, KMP state, depth) and reused wherever
that key comes up again.  Each gap is bounded relative to the node where
its two families split: the digits above that node are shared and cancel,
so a subtree's verdicts and gap sums depend on nothing above it.  A clean
sweep runs about n * pairs * (eps_1 + 1) family bodies, pairs being the
(block, KMP) states reachable at one depth, not one per family.  The
same pass tallies the maximal full and non-full runs, so one sweep per
(member, n) gives both the run sets that the closed forms are checked
against and the three fullness criteria.

For multiprocess verification, verify_report hands every (member, n) sweep
to one pool map as a whole task once the report's estimated work, the
bound above summed over its sweeps, reaches POOL_MIN_WORK family bodies;
below that the sweeps cost less than the pool's start-up and run in this
process.  The pool module is imported only when a pool starts.  A sweep
is never cut into prefix windows: a window rebuilds nearly all of the
memo keys of the whole sweep, so windows cost CPU time and give no
parallel speed-up.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import NotAdmissible, TailMismatch, VerificationError
from .expansion import ExpansionOfOne, Frozen, max_zero_run, nonzero_sequence
from .runs import (
    FULL,
    classify_last_run,
    closed_run_sets,
    full_run_lengths_formula,
    max_full_run_length,
    max_nonfull_run_length,
    merge_runs,
    min_full_run_length,
    min_nonfull_run_length,
    nonfull_run_lengths_formula,
    one_run,
    prefix_count,
    scan_run_lengths,
    second_nonzero_position,
    tail_run_prediction,
    tau_table,
)
from .structure import DEFAULT_TOL, _bits_for, cylinder_calc, decompose, is_full, tail_automaton, tail_cap, tail_kmin
from .words import (Word, _check_n, _count_table, automaton, count, iter_words, max_word, scan_states, start_at,
                    walk, word_at)

MAX_FAILURES = 24
# The estimated family bodies (_sweep_work) below which verify_report
# sweeps in this process at any shard count: about what one pool start-up
# costs.  Fresh `verify --shards 2` processes on the bundled corpus, 2 vCPUs,
# Python 3.11, median wall seconds in this process -> in a two-worker pool:
# 1..25 (0.46 M bodies) 0.27 -> 0.30, 1..40 (1.6 M) 0.40 -> 0.44, 1..45
# (2.2 M) 0.51 -> 0.52, 1..50 (3.0 M) 0.70 -> 0.60, 1..60 (5.0 M) 0.92 ->
# 1.01 and 0.93 -> 0.68 in two rounds, 1..120 (36 M) 5.3 -> 3.8.
POOL_MIN_WORK = 4_000_000


def _record(failures: list[str], message: str | Callable[[], str]) -> None:
    if len(failures) < MAX_FAILURES:  # a callable message is formatted only when kept
        failures.append(message() if callable(message) else message)


def _empty_sweep_chunk() -> dict:
    return {
        "failures": [],
        "words": 0,
        "undecided": 0,
        "sum_lo": 0,
        "sum_hi": 0,
        "runs": one_run(True, 0),
    }


def _word_text(e: ExpansionOfOne, n: int, rank: int, digit: int) -> str:
    """Text of the word with length-(n-1) prefix of the given rank and the
    given last digit; the sweep builds it only when it records a failure."""
    head = word_at(e, n - 1, rank).digits if n > 1 else ()
    return Word(head + (digit,)).text()


def _tail_run_failure(e: ExpansionOfOne, n: int, rank: int, digit: int, s: int, pos: int, tau: int) -> str:
    """The failure of a word, named as in _word_text, that ends with eps|_s
    but sits pos words above the last full word instead of tau(s)."""
    return (f"{e.text()} n={n}: word {_word_text(e, n, rank, digit)} ends with the first {s} digits "
            f"but sits {pos} above the last full word, expected tau({s}) = {tau}")


@lru_cache(maxsize=64)
def _family_runs(e: ExpansionOfOne) -> tuple:
    """Per block state j, the run summary of a state-j family; every sweep of e shares it."""
    aut = automaton(e)
    return tuple(merge_runs(one_run(True, c), one_run(False, 1 if a else 0)) for c, a in zip(aut.cmp, aut.adv))


def sweep_shard(e: ExpansionOfOne, n: int, tol, prefix_start: int = 0, prefix_stop: int | None = None) -> dict:
    """Check the three fullness criteria and the tail-run prediction on all
    words whose length-(n-1) prefixes have rank in [prefix_start, prefix_stop),
    a window inside [0, prefix_count(e, n)] (else VerificationError); by
    default the whole range.

    The sweep descends the prefix tree in lex order.  A node at depth t
    carries its block state j, its KMP state k and the enclosure [pl, ph]
    of its left endpoint; its subtree's families are the length-(n-1)
    prefixes that extend it.  Every non-last word of a family has cylinder
    length exactly beta^-n by cancellation.  The last, with last digit d,
    has the gap from its prefix's endpoint to the next prefix's less
    d * beta^-n, so the gap is held against (d + 1) * beta^-n with and
    without the tolerance: four thresholds per block state, exact integer
    rearrangements of comparing the cylinder with beta^-n.  A family's gap
    is closed when the next family's left endpoint is known, at the node
    where the two prefixes split, so each subtree leaves its last family
    open for the caller.  The two prefixes share that node's digits, which
    cancel in the gap, so its enclosure width ph - pl is taken off both
    ends of the gap's enclosure; the gap then depends only on the digits
    below the split.

    A subtree that lies inside the window and records no failure and no
    undecided word is clean, and it is memoized on (j, k, t) for the rest
    of the call: its run summary, its gap sums, the non-full run length it
    was entered with when it starts with a non-full word (its leading
    tail-run positions count from there), and its open last family, each
    end relative to the node's.  A later subtree with the same key reuses
    the entry when its entry run length matches; the chunk is then the
    family-by-family result exactly.
    Otherwise, and at the window's edges, the sweep descends, so failures
    name their words by rank and come in word order.  Before the descent,
    the families before the window are stepped back over, as the window's
    right edge looks ahead, to get the length of the non-full run that ends
    just before it.  Lengths read structure.cylinder_calc, tails
    structure.tail_automaton and its tail_kmin rows, and block states
    words.automaton only.  The descent runs on a stack of generators, so no
    recursion limit bounds n.

    The chunk's "runs" entry is the shard's run summary in the shape
    runs.scan_run_lengths returns, ready for runs.merge_runs: the
    subtrees' summaries folded by merge_runs.  The tests hold it against
    scan_run_lengths.

    verify sweeps only the whole range, the default; the window arguments
    stay for perfbench's shard_balance, which times windows, and for the
    tests, which fold windows into the whole-range chunk.
    """
    _check_n(n)
    tol = Fraction(tol)
    chunk = _empty_sweep_chunk()
    pcount = prefix_count(e, n)
    if prefix_stop is None:
        prefix_stop = pcount
    if not (0 <= prefix_start <= pcount and 0 <= prefix_stop <= pcount):
        raise VerificationError("prefix range exceeds the enumeration")
    if prefix_stop <= prefix_start:
        return chunk
    failures = chunk["failures"]
    aut = automaton(e)
    cmp_, adv_, maxdig = aut.cmp, aut.adv, aut.maxdig
    s_cap = tail_cap(e, n)
    trans, chains = tail_automaton(e, s_cap)
    kmin = tail_kmin(e, s_cap)
    taus = tau_table(e, s_cap)
    calc = cylinder_calc(e, n, tol)
    pow_lo, pow_hi = calc.pow_lo, calc.pow_hi
    xn_lo, xn_hi = pow_lo[n], pow_hi[n]
    slack = (tol.numerator * calc.one) // tol.denominator
    # per block state: the last digit and verdict, thresholds
    families = [(d, not a, (d + 1) * xn_lo, (d + 1) * xn_hi, (d + 1) * xn_hi - slack, (d + 1) * xn_lo + slack)
                for c, a in zip(cmp_, adv_) for d in [c if a else c - 1]]
    family_runs = _family_runs(e)
    last = n - 1
    sizes = _count_table(e, last)  # sizes[m][j]: families below a state-j node m digits above them
    memo: dict[tuple[int, int, int], tuple] = {}
    faults = undecided = sum_lo = sum_hi = 0
    run_len = 0  # the current non-full run, counted from before the window until its first full word
    for r in range(prefix_start - 1, -1, -1):
        s = scan_states(word_at(e, last, r).digits, e)[-1]
        run_len += adv_[s] > 0
        if cmp_[s]:
            break
    pending = None  # (rank, block state, left enclosure) of the family whose gap is open

    def fail(message) -> None:
        nonlocal faults
        faults += 1
        _record(failures, message)

    def close(next_lo: int, next_hi: int, w: int) -> None:
        """Decide the open family's length from the next family's left
        endpoint; w is the enclosure width of the node where the two
        families split (0 at the top), whose digits cancel in the gap."""
        nonlocal pending, sum_lo, sum_hi, undecided, faults
        rank, j, left_lo, left_hi = pending
        pending = None
        last_digit, last_full, short_hi, long_lo, full_lo, full_hi = families[j]
        diff_lo = next_lo - left_hi + w
        diff_hi = next_hi - left_lo - w
        sum_lo += diff_lo
        sum_hi += diff_hi
        if diff_hi < short_hi:
            full = False
        elif diff_lo > long_lo:
            fail(lambda: f"{e.text()} n={n}: cylinder of {_word_text(e, n, rank, last_digit)} "
                         "certified longer than beta^-n")
            return
        elif diff_lo >= full_lo and diff_hi <= full_hi:
            full = True
        else:
            undecided += 1
            faults += 1
            return
        if full != last_full:
            fail(lambda: f"{e.text()} n={n}: word {_word_text(e, n, rank, last_digit)} is "
                         f"{'full' if last_full else 'non-full'} structurally but the "
                         "cylinder-length criterion disagrees")

    def reuse(t: int, rank: int, size: int, j: int, k: int, pl: int, ph: int):
        """Apply the memo entry of (j, k, t) to the subtree at this node and
        return its run summary, or return None when there is none or its
        entry run length differs."""
        nonlocal pending, run_len, sum_lo, sum_hi
        entry = memo.get((j, k, t))
        if entry is None:
            return None
        runs, gap_lo, gap_hi, entry_run, j_last, off_lo, off_hi = entry
        if entry_run is not None and entry_run != run_len:
            return None
        sum_lo += gap_lo
        sum_hi += gap_hi
        if runs[4] == 1 and not runs[2][0]:  # no full word
            run_len += runs[5]
        else:
            run_len = 0 if runs[3][0] else runs[3][1]
        pending = (rank + size - 1, j_last, pl + off_lo, ph + off_hi)
        return runs

    def body(rank: int, j: int, k: int, pl: int, ph: int) -> tuple:
        """Sweep the family of a depth-last node; leave its gap open."""
        nonlocal pending, run_len
        c, a = cmp_[j], adv_[j]
        krow = trans[k]
        for d in range(kmin[k], c):
            if krow[d]:
                fail(lambda: f"{e.text()} n={n}: word {_word_text(e, n, rank, d)} is "
                             "structurally full but ends with a prefix of the expansion")
        if c:
            run_len = 0
        if a:
            run_len += 1
            k_adv = krow[c]
            if k_adv == 0:
                fail(lambda: f"{e.text()} n={n}: word {_word_text(e, n, rank, c)} is structurally "
                             "non-full but ends with no prefix of the expansion")
            for sv in chains[k_adv]:
                if run_len != taus[sv]:
                    fail(lambda: _tail_run_failure(e, n, rank, c, sv, run_len, taus[sv]))
        pending = (rank, j, pl, ph)
        return family_runs[j]

    def visit(t: int, rank: int, j: int, k: int, pl: int, ph: int, whole: bool):
        """Sweep the families below a depth-t node, t < last, whose first
        family has the given rank, all of them when whole, else those in the
        window.  Yields each child visit's arguments and reads its result
        once resumed; leaves the run summary in result, and leaves the last
        family open."""
        nonlocal result
        entry_faults, entry_lo, entry_hi, entry_run = faults, sum_lo, sum_hi, run_len
        runs = one_run(True, 0)
        w = ph - pl
        below = sizes[last - t - 1]
        p_lo, p_hi = pow_lo[t + 1], pow_hi[t + 1]
        leaf = t + 1 == last
        for d in range(maxdig[j] + 1):
            cj = adv_[j] if d == cmp_[j] else 1
            size = below[cj]
            inside = whole or prefix_start <= rank and rank + size <= prefix_stop
            if not inside and (rank + size <= prefix_start or rank >= prefix_stop):
                rank += size
                continue
            cl, ch = pl + d * p_lo, ph + d * p_hi
            if pending is not None:  # the open family is in child d - 1, so the split is here
                close(cl, ch, w)
            ck = trans[k][d]
            if leaf:
                sub = body(rank, cj, ck, cl, ch)
            else:
                sub = inside and reuse(t + 1, rank, size, cj, ck, cl, ch)
                if not sub:
                    yield t + 1, rank, cj, ck, cl, ch, inside
                    sub = result
            runs = merge_runs(runs, sub)
            rank += size
        if whole and faults == entry_faults:
            _, j_last, left_lo, left_hi = pending
            memo[j, k, t] = (runs, sum_lo - entry_lo, sum_hi - entry_hi, None if runs[2][0] else entry_run,
                             j_last, left_lo - pl, left_hi - ph)
        result = runs

    if last == 0:
        result = body(0, 1, 0, 0, 0)
    else:
        # resume the deepest open visit until it yields a child or ends; it
        # leaves its run summary in result, as a return raises StopIteration
        stack = [visit(0, 0, 1, 0, 0, 0, prefix_start == 0 and prefix_stop == pcount)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(visit(*child))
    runs = result
    if prefix_stop == pcount:
        close(calc.one, calc.one, 0)
    else:
        close(*calc.pi_bounds(word_at(e, last, prefix_stop).digits), 0)
    words = runs[5]
    spare = words - (prefix_stop - prefix_start)  # the last digits' sum: a family has last digit + 1 words
    chunk["words"] = words
    chunk["undecided"] = undecided
    chunk["sum_lo"] = sum_lo + spare * (xn_lo - xn_hi)
    chunk["sum_hi"] = sum_hi + spare * (xn_hi - xn_lo)
    chunk["runs"] = runs
    return chunk


class SweepResult(Frozen):
    """Aggregated outcome of a full-word sweep at one (e, n); runs is the
    run summary of every word, in the shape runs.scan_run_lengths returns."""

    __slots__ = ("words", "undecided", "length_sum", "failures", "runs")


def sweep_fullness(e: ExpansionOfOne, n: int, tol=DEFAULT_TOL) -> SweepResult:
    """Check every word at (e, n): one whole-range sweep_shard plus the
    global checks.

    The cylinder lengths must sum to 1 within n * tol, and the visited-word
    tally must equal the counting recursion.
    """
    tol = Fraction(tol)
    chunk = sweep_shard(e, n, tol)
    case = e.text()
    failures = list(chunk["failures"])
    words, sum_lo, sum_hi = chunk["words"], chunk["sum_lo"], chunk["sum_hi"]
    one = 1 << _bits_for(e, n, tol)  # cylinder_calc(e, n, tol).one, without its power tables
    slack = n * ((tol.numerator * one) // tol.denominator)
    if sum_lo > sum_hi or sum_lo > one + slack or sum_hi < one - slack:
        _record(failures, f"{case} n={n}: cylinder lengths sum to "
                          f"[{sum_lo / one:.17g}, {sum_hi / one:.17g}], not 1 within {n}*tol")
    if words != count(e, n):
        _record(failures, f"{case} n={n}: sweep visited {words} words, count says {count(e, n)}")
    return SweepResult(words, chunk["undecided"], (Fraction(sum_lo, one), Fraction(sum_hi, one)), failures,
                       chunk["runs"])


# --- run-set checks: closed forms against enumeration ---


def run_sets_check(e: ExpansionOfOne, n: int):
    """Enumerate run lengths in one in-process scan and compare every
    closed form.

    Returns (report_row, failures); the row carries both provenances and the
    match verdict.
    """
    return _compare_run_sets(e, n, scan_run_lengths(e, n))


def _compare_run_sets(e: ExpansionOfOne, n: int, runs):
    """The report row and failures for the run summary of all words at (e, n)
    against every closed form."""
    case = e.text()
    full, nonfull = closed_run_sets(runs)
    last_run, total = runs[3], runs[5]
    f_enum = sorted(full)
    n_enum = sorted(nonfull)
    f_formula = sorted(full_run_lengths_formula(e, n))
    n_formula = sorted(nonfull_run_lengths_formula(e, n))
    row = {
        "case_id": case,
        "n": n,
        "F_formula": f_formula,
        "F_enum": f_enum,
        "N_formula": n_formula,
        "N_enum": n_enum,
        "match": f_formula == f_enum and n_formula == n_enum,
    }
    failures: list[str] = []
    if not row["match"]:
        _record(failures, f"{case} n={n}: closed-form run sets F={f_formula} N={n_formula} "
                          f"differ from enumerated F={f_enum} N={n_enum}")
    if total != count(e, n):
        _record(failures, f"{case} n={n}: run lengths sum to {total}, count says {count(e, n)}")
    if max_full_run_length(e, n) != max(f_enum):
        _record(failures, f"{case} n={n}: max full-run formula {max_full_run_length(e, n)} "
                          f"!= enumerated {max(f_enum)}")
    if min_full_run_length(e, n) != min(f_enum):
        _record(failures, f"{case} n={n}: min full-run formula {min_full_run_length(e, n)} "
                          f"!= enumerated {min(f_enum)}")
    if n_enum:
        if max_nonfull_run_length(e, n) != max(n_enum):
            _record(failures, f"{case} n={n}: max non-full-run formula {max_nonfull_run_length(e, n)} "
                              f"!= enumerated {max(n_enum)}")
        if min_nonfull_run_length(e, n) != min(n_enum):
            _record(failures, f"{case} n={n}: min non-full-run formula {min_nonfull_run_length(e, n)} "
                              f"!= enumerated {min(n_enum)}")
        bound = tail_cap(e, n)
        if max(n_enum) > bound:
            _record(failures, f"{case} n={n}: a non-full run of length {max(n_enum)} exceeds "
                              f"the guaranteed bound {bound}")
    expected = classify_last_run(e, n)
    if (expected.kind == FULL) != last_run[0]:
        _record(failures, f"{case} n={n}: run at the maximal word is "
                          f"{'full' if last_run[0] else 'non-full'}, classification says {expected.kind}")
    elif expected.length is not None and last_run[1] != expected.length:
        _record(failures, f"{case} n={n}: final full run has length {last_run[1]}, "
                          f"classification says {expected.length}")
    taus = tau_table(e, n)
    top = max(taus[1:])
    if set(taus[1:]) != set(range(1, top + 1)):
        _record(failures, f"{case} n={n}: greedy step counts over 1..{n} are {sorted(set(taus[1:]))}, "
                          f"not the full range 1..{top}")
    return row, failures


# --- theorem checks at their stated bounds (test-suite workload) ---


def check_tau_properties(e: ExpansionOfOne, bound: int, failures: list[str]) -> None:
    """Greedy step-count properties: 1 at nonzero positions, identity below
    the second nonzero position, never above s, and at most the longest zero
    run plus one."""
    case = e.text()
    taus = tau_table(e, bound)
    positions = set(nonzero_sequence(e, bound))
    n2 = second_nonzero_position(e)
    for s in range(1, bound + 1):
        if s in positions and taus[s] != 1:
            _record(failures, f"{case}: tau({s}) = {taus[s]} at a nonzero position, expected 1")
        if s <= n2 - 1 and taus[s] != s:
            _record(failures, f"{case}: tau({s}) = {taus[s]} below the second nonzero position, expected {s}")
        if taus[s] > s:
            _record(failures, f"{case}: tau({s}) = {taus[s]} exceeds s")
    r_bound = e.finite_length if e.is_finite else bound
    for s in range(1, min(bound, r_bound) + 1):
        if taus[s] > max_zero_run(e, s) + 1:
            _record(failures, f"{case}: tau({s}) = {taus[s]} exceeds the zero-run bound "
                              f"{max_zero_run(e, s)} + 1")


def check_truncations(e: ExpansionOfOne, k_max: int, failures: list[str]) -> None:
    """Prefixes of eps(1, beta) are admissible but never full (and stop being
    admissible at length M for a finite expansion); prefixes of eps*(1, beta)
    are full exactly at multiples of M."""
    case = e.text()
    m = e.finite_length
    for k in range(1, k_max + 1):
        digits = e.digits_prefix(k)
        if e.is_finite and k >= m:
            try:
                scan_states(digits, e)
                _record(failures, f"{case}: eps|_{k} should not be admissible")
            except NotAdmissible:
                pass
        elif is_full(Word(digits), e):
            _record(failures, f"{case}: the truncation eps|_{k} is full")
        star = max_word(e, k)
        expect_full = e.is_finite and k % m == 0
        if is_full(star, e) != expect_full:
            _record(failures, f"{case}: eps*|_{k} fullness is {not expect_full}, expected {expect_full}")


def _full_words_upto(e: ExpansionOfOne, cap: int) -> Iterator[tuple[int, ...]]:
    """Full words of lengths 1..cap, by length and then in lex order, streamed."""
    for k in range(1, cap + 1):
        digits, states = start_at(e, k, 0)
        for _ in walk(e, digits, states):
            if states[-1] == 1:
                yield tuple(digits)


def check_concat_closure(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """A full word followed by a full word is admissible and full.

    The block-match automaton restarts at state 1 after a full word, so the
    structural route makes this immediate; the pairs are therefore checked
    against the independent suffix criterion.  The chain of the
    structure.tail_automaton state after u + v lists every match at its
    end, the least last.  The run over v depends on u only through u's end
    state, so it costs O(|F| * cap) per distinct end state, not per pair.
    """
    case = e.text()
    fulls = list(_full_words_upto(e, cap))
    trans, chains = tail_automaton(e, tail_cap(e, 2 * cap))

    def run(k: int, w: tuple[int, ...]) -> int:
        for d in w:
            k = trans[k][d]
        return k

    hits_after: dict[int, list[tuple[int, int]]] = {}  # u's end state: (v's index, least match) per failing v
    for u in fulls:
        end = run(0, u)
        if end not in hits_after:
            hits_after[end] = [(i, chains[k][-1]) for i, v in enumerate(fulls) for k in [run(end, v)] if k]
        for i, s in hits_after[end]:
            _record(failures, f"{case}: concatenation {Word(u + fulls[i]).text()} of full words "
                              f"ends with the first {s} digits of the expansion")
            if len(failures) >= MAX_FAILURES:
                return


def check_suffix_closure(e: ExpansionOfOne, cap: int, deep_cap: int, failures: list[str]) -> None:
    """Dropping the first digit of a full word leaves a full word.

    Checked per length-(n-1) prefix family: with j the block-match state of
    the whole prefix and js the state of the prefix minus its first digit,
    every family digit d < cmp[j] yields a full word, whose one-digit-shorter
    suffix is full exactly when d < cmp[js].  Chaining over n covers all
    suffixes.  j is read off the walker; the states of the prefix minus its
    first digit are a second list, updated from the first digit the walker
    changed.  Lengths up to deep_cap also get every suffix scanned directly,
    once per distinct suffix, with the full words streamed and never listed.
    A suffix is clean once it and all its suffixes scanned full: a word's
    offsets stop at its first clean suffix, which can hide no failure, and
    its suffixes past its last failing offset become clean.
    """
    case = e.text()
    aut = automaton(e)
    cmp_, adv_, maxdig = aut.cmp, aut.adv, aut.maxdig
    for n in range(2, cap + 1):
        digits, states = start_at(e, n - 1, 0)
        rest = [1] * (n - 1)  # rest[i]: state after digits[1..i]
        valid = 1
        for t in walk(e, digits, states):
            valid = min(valid, max(t, 1))
            c = cmp_[states[-1]]
            if c == 0:
                continue
            for i in range(valid, n - 1):
                s = rest[i - 1]
                d = digits[i]
                if d > maxdig[s]:
                    break
                rest[i] = adv_[s] if d == cmp_[s] else 1
                valid = i + 1
            if valid < n - 1:
                _record(failures, f"{case}: suffix of admissible prefix {Word(tuple(digits)).text()} "
                                  "is not admissible")
                continue
            js = rest[-1]
            if c - 1 > maxdig[js]:
                _record(failures, f"{case}: suffix of full word {Word(tuple(digits) + (c - 1,)).text()} "
                                  "is not admissible")
            elif c > cmp_[js]:
                _record(failures, f"{case}: suffix of full word {Word(tuple(digits) + (cmp_[js],)).text()} "
                                  "is not full")
    clean: dict[tuple[int, ...], bool] = {}  # scanned full: True once no suffix of it failed
    for w in _full_words_upto(e, deep_cap):
        bad = 0  # the last offset whose suffix failed
        for k in range(1, len(w)):
            suffix = w[k:]
            verdict = clean.get(suffix)
            if verdict:
                break
            if verdict is not None:
                continue
            try:
                full, problem = scan_states(suffix, e)[-1] == 1, "not full"
            except NotAdmissible:
                full, problem = False, "not admissible"
            if full:
                clean[suffix] = False
            else:
                _record(failures, f"{case}: suffix at offset {k} of full {Word(w).text()} is {problem}")
                bad = k
        else:
            k = len(w)
        for i in range(bad + 1, k):
            clean[w[i:]] = True


def check_decrement_closure(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """Lowering the nonzero last digit of an admissible word gives a full
    word; chained decrements cover every smaller final digit.

    Checked per length-(n-1) prefix family p, as check_suffix_closure's
    first part is.  In p's block-match state s, read off the walker, p.d
    lowered to p.(d - 1) is non-full only when d - 1 = cmp[s] and
    adv[s] != 1, so a family's one candidate is d = cmp[s] + 1, when it
    is admissible (at most maxdig[s]).
    """
    case = e.text()
    aut = automaton(e)
    cmp_, adv_, maxdig = aut.cmp, aut.adv, aut.maxdig
    for n in range(1, cap + 1):
        digits, states = start_at(e, n - 1, 0)
        for _ in walk(e, digits, states):
            s = states[-1]
            d = cmp_[s] + 1
            if d <= maxdig[s] and adv_[s] != 1:
                _record(failures, f"{case}: decrement of {Word(tuple(digits) + (d,)).text()} is not full")


def check_last_digit_bound(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """Full words end strictly below floor(beta).

    Checked per length-(n-1) prefix family p: in p's block-match state s,
    read off the walker, p.d is full exactly when
    (adv[s] if d == cmp[s] else 1) == 1, and only the family digits
    floor(beta)..maxdig[s] are looked at, in word order.
    """
    case = e.text()
    top = e.alphabet_max
    aut = automaton(e)
    cmp_, adv_, maxdig = aut.cmp, aut.adv, aut.maxdig
    for n in range(1, cap + 1):
        digits, states = start_at(e, n - 1, 0)
        for _ in walk(e, digits, states):
            s = states[-1]
            for d in range(top, maxdig[s] + 1):
                if (adv_[s] if d == cmp_[s] else 1) == 1:
                    _record(failures, f"{case}: full word {Word(tuple(digits) + (d,)).text()} ends with digit "
                                      f"{d} >= floor(beta) = {top}")


def check_decompose(e: ExpansionOfOne, n_values, exhaustive_to: int, samples: int, failures: list[str]) -> None:
    """Reconstruction inverts decomposition, the piece lengths sum to n, and
    every block is full and ends strictly below its expansion digit.

    A piece (L, d) spells the factor eps_1..eps_(L-1) d, so once the pieces
    reconstruct an admissible word w, each factor is at most eps*|_L, and
    eps*|_L <= eps|_L.  So no tail ends above eps_L, and for a finite
    expansion of length M, no piece is longer than M (its factor would
    begin with eps|_M > eps*|_M) and no length-M tail ends at or above
    eps_M: those checks could never fail, and are not made.

    decompose and reconstruct run once per word, and a walked word arrives
    with its scan, so decompose scans nothing.  A block's verdict depends
    only on its (length, last digit), so it is worked out once per distinct
    pair, and the expansion digits come from one prefix; a word whose blocks
    all came out clean skips the per-block loop.
    """
    case = e.text()
    n_values = tuple(n_values)
    eps = e.digits_prefix(max(n_values, default=0))
    verdicts: dict[tuple[int, int], str] = {}
    good: set[tuple[int, int]] = set()  # the blocks whose verdict is clean
    for n in n_values:
        total = count(e, n)
        if n <= exhaustive_to or total <= samples:
            words = iter_words(e, n)
        else:
            step = max(1, total // samples)
            words = (word_at(e, n, i) for i in range(0, total, step))
        for w in words:
            dec = decompose(w, e)
            back = dec.reconstruct(e)
            if back.digits != w.digits:
                _record(failures, f"{case} n={n}: decomposition of {w.text()} reconstructs to {back.text()}")
                continue
            blocks = dec.blocks
            if dec.tail[0] + sum(map(itemgetter(0), blocks)) != n:
                _record(failures, f"{case} n={n}: decomposition lengths of {w.text()} do not sum to n")
            if good.issuperset(blocks):
                continue
            for block in blocks:
                verdict = verdicts.get(block)
                if verdict is None:
                    length, lastd = block
                    if lastd >= eps[length - 1]:
                        verdict = "does not end strictly below the expansion digit"
                    elif scan_states(eps[:length - 1] + (lastd,), e)[-1] != 1:
                        verdict = "is not full"
                    else:
                        verdict = ""
                        good.add(block)
                    verdicts[block] = verdict
                if verdict:
                    _record(failures, f"{case} n={n}: block ({block[0]},{block[1]}) of {w.text()} {verdict}")


def check_tail_walks(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """Walk from the canonical witnesses 0^(n-s) eps|_s down to the nearest
    full word and confirm the greedy step count; for small n do the same
    from every non-full word."""
    case = e.text()
    taus = tau_table(e, tail_cap(e, cap))
    for n in range(1, cap + 1):
        for s in range(1, tail_cap(e, n) + 1):
            w = Word((0,) * (n - s) + e.digits_prefix(s))
            try:
                steps = tail_run_prediction(w, e, s)
            except (TailMismatch, VerificationError) as exc:
                _record(failures, f"{case} n={n}: tail walk from {w.text()} failed: {exc}")
                continue
            if steps != taus[s]:
                _record(failures, f"{case} n={n}: tail walk from {w.text()} returned {steps}, "
                                  f"expected tau({s}) = {taus[s]}")
    for n in range(1, min(cap, 6) + 1):
        for w in iter_words(e, n):
            if scan_states(w.digits, e)[-1] == 1:
                continue
            try:
                tail_run_prediction(w, e)
            except (TailMismatch, VerificationError) as exc:
                _record(failures, f"{case} n={n}: tail walk from non-full {w.text()} failed: {exc}")


def verify_theorems(e: ExpansionOfOne, max_n: int) -> list[str]:
    """Run every theorem check for one expansion at its stated bound,
    trimmed to max_n where the bound exceeds it."""
    failures: list[str] = []
    check_truncations(e, 24, failures)
    check_tau_properties(e, max(30, max_n), failures)
    check_concat_closure(e, min(6, max_n), failures)
    check_suffix_closure(e, min(12, max_n), min(9, max_n), failures)
    check_decrement_closure(e, min(10, max_n), failures)
    check_last_digit_bound(e, min(8, max_n), failures)
    check_decompose(e, range(1, max_n + 1), exhaustive_to=10, samples=300, failures=failures)
    check_tail_walks(e, min(10, max_n), failures)
    return failures[:MAX_FAILURES]


def _member_row(task):
    """The report row and failures of one (e, n, tol) task: one sweep, its
    global checks, the closed forms against its run sets, and a note of any
    undecided words.  The pool pickles this function by name."""
    e, n, tol = task
    sweep = sweep_fullness(e, n, tol)
    row, failures = _compare_run_sets(e, n, sweep.runs)
    failures.extend(sweep.failures)
    if sweep.undecided:
        _record(failures, f"{e.text()} n={n}: {sweep.undecided} words undecided by the "
                          f"length criterion at tol {tol}")
    return row, failures


def _fold_member(results):
    """One member's rows and failures from its _member_row results, in n
    order; the failures stop at MAX_FAILURES."""
    results = list(results)
    return [row for row, _ in results], [line for _, fails in results for line in fails][:MAX_FAILURES]


def verify_member(e: ExpansionOfOne, n_values, tol=DEFAULT_TOL):
    """Formula-versus-enumeration rows plus criterion sweeps for one expansion.

    Returns (report_rows, failures): one row per n with the run-length sets
    from both provenances, and failure strings for anything that broke.  One
    sweep per n yields the enumerated run sets and the criterion checks.
    """
    return _fold_member(_member_row((e, n, tol)) for n in n_values)


def _sweep_work(corpus, n_values) -> int:
    """The report's estimated family bodies: per sweep the module
    docstring's n * pairs * (eps_1 + 1), pairs taken at their bound of
    block states * (tail_cap(e, n) + 1)."""
    work = 0
    for e in corpus:
        per_pair = (len(automaton(e).cmp) - 1) * (e.alphabet_max + 1)
        work += per_pair * sum(n * (tail_cap(e, n) + 1) for n in n_values)
    return work


def _process_pool(workers: int):
    """A process pool of the given size.  concurrent.futures, and with it
    multiprocessing, is imported here, so a process that starts no pool
    never loads them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def verify_report(corpus, n_values, tol=DEFAULT_TOL, shards: int = 1):
    """Rows and failures for a whole corpus: verify_member's, member by
    member in corpus order.

    Each (member, n) sweep is one whole task.  With workers =
    min(shards, cores, sweeps) above one and the report's estimated work
    (_sweep_work) at least POOL_MIN_WORK, every task is an item of one
    process-pool map over the whole report, handed out one at a time in
    report order, and each returns its finished row and failures, folded
    here member by member as verify_member folds them; otherwise
    verify_member sweeps in this process, as a pool would cost more to
    start than it saves.  A task's result is the same in either process, so
    sharded and unsharded runs render byte-identical reports.  The least n
    is checked before any table, pool or list of n (for a range) is built.
    """
    corpus = list(corpus)
    if not isinstance(n_values, range):
        n_values = list(n_values)
    if n_values:  # a range's least n is at one of its ends, so it is found without listing the range
        _check_n(min(n_values[0], n_values[-1]) if isinstance(n_values, range) else min(n_values))
    n_values = list(n_values)
    k = len(n_values)
    workers = min(shards, os.cpu_count() or 1, len(corpus) * k)
    if workers > 1 and _sweep_work(corpus, n_values) >= POOL_MIN_WORK:
        with _process_pool(workers) as executor:
            results = list(executor.map(_member_row, [(e, n, tol) for e in corpus for n in n_values]))
        members = [_fold_member(results[i * k:(i + 1) * k]) for i in range(len(corpus))]
    else:
        members = [verify_member(e, n_values, tol) for e in corpus]
    return [row for rows, _ in members for row in rows], [line for _, fails in members for line in fails]


def render_report(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
