"""Cross-verification harness: every theorem-backed identity as an executable check.

Each check recomputes a quantity along two independent routes (closed form
versus exhaustive enumeration, or one fullness criterion versus another) and
reports mismatches as human-readable failure strings.  The word-level sweep
streams the lex enumeration grouped by length-(n-1) prefixes and carries,
per prefix, the block-match state (structural criterion), a KMP match state
against the digits of eps(1, beta) (tail criterion: a word is non-full
exactly when its longest suffix that is a prefix of eps(1, beta) is
nonempty), and a certified fixed-point enclosure of the word's cylinder
left endpoint (length criterion).  Within one prefix family, consecutive
cylinders differ by exactly beta^-n, so only the last word of each family
needs a computed length, and its test is two subtractions against
thresholds built once per block state.  A length-(n-2) prefix in state j
starts maxdig[j] state-1 families exactly beta^-(n-1) apart; when tables
show none can fail, they are tallied in O(1) and the walk jumps past them.
The same pass tallies the maximal full and non-full runs, so one streamed
pass per (member, n) gives both the enumerated run sets that the closed
forms are checked against and the three fullness criteria.

Sweeps shard on prefix-rank ranges for multiprocess verification.  A shard
steps back over the families before its window for the non-full run it
starts inside, so it checks every tail-run position itself, and one fold of
runs.merge_runs joins the shards' run summaries: the result and the failures,
in word order, are those of a single-shard pass.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import and_

from .errors import NotAdmissible, TailMismatch, VerificationError
from .expansion import ExpansionOfOne, max_zero_run, nonzero_sequence
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
from .structure import DEFAULT_TOL, cylinder_calc, decompose, is_full, tail_automaton, tail_cap
from .words import Word, automaton, count, iter_words, max_word, scan_states, start_at, walk, word_at

MAX_FAILURES = 24


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


def sweep_shard(e: ExpansionOfOne, n: int, tol, prefix_start: int, prefix_stop: int) -> dict:
    """Check the three fullness criteria and the tail-run prediction on all
    words whose length-(n-1) prefixes have rank in [prefix_start, prefix_stop),
    a window inside [0, prefix_count(e, n)] (else VerificationError).

    Every non-last word of a prefix family has cylinder length exactly
    beta^-n by cancellation.  The last, with last digit d, has the gap from
    its prefix's endpoint to the next prefix's less d * beta^-n, so the gap
    is held against (d + 1) * beta^-n with and without the tolerance: four
    thresholds per block state, exact integer rearrangements of comparing
    the cylinder with beta^-n.  Before the walk, the families before the
    window are stepped back over, as the window's right edge looks ahead, to
    get carry, the length of the non-full run that ends just before it; a
    tail-run position before the shard's first full word counts from there.
    Lengths read structure.cylinder_calc, tails structure.tail_automaton and
    block states words.automaton only.

    The chunk's "runs" entry is the shard's run summary in the shape
    runs.scan_run_lengths returns, ready for runs.merge_runs.  It is
    tallied here from the structural verdicts rather than by a second walk;
    the tests hold it against scan_run_lengths.

    The families q0..qm of a length-(n-2) prefix q (state j, KMP state kq,
    enclosure width W, m = maxdig[j]) form a super-family.  Families e' < m
    are state-1 families with gaps pow[n-1] -/+ (W + e' * delta), and W is
    at most wmax = eps_1 * sum(pow_hi[i] - pow_lo[i], i <= n - 2).  If q lies
    in the window and clean_upto[kq][m], which holds both guards, they record
    nothing and are tallied at once; the chunk equals the family-by-family
    walk's.
    """
    tol = Fraction(tol)
    chunk = _empty_sweep_chunk()
    pcount = prefix_count(e, n)
    if not (0 <= prefix_start <= pcount and 0 <= prefix_stop <= pcount):
        raise VerificationError("prefix range exceeds the enumeration")
    if prefix_stop <= prefix_start:
        return chunk
    failures = chunk["failures"]
    case = e.text()
    aut = automaton(e)
    cmp_, adv_, maxdig, zero = aut.cmp, aut.adv, aut.maxdig, aut.zero
    s_cap = tail_cap(e, n)
    trans, chains = tail_automaton(e, s_cap)
    kmin = [next((d for d, k in enumerate(row) if k), len(row)) for row in trans]  # least digit into a match
    taus = tau_table(e, s_cap)
    calc = cylinder_calc(e, n, tol)
    pow_lo, pow_hi = calc.pow_lo, calc.pow_hi
    one = calc.one
    xn_lo, xn_hi = pow_lo[n], pow_hi[n]
    slack = (tol.numerator * one) // tol.denominator
    # per block state: c full words, then a non-full word if a, the last digit and verdict, thresholds
    families = [(c, a, d, not a, (d + 1) * xn_lo, (d + 1) * xn_hi, (d + 1) * xn_hi - slack,
                 (d + 1) * xn_lo + slack) for c, a in zip(cmp_, adv_) for d in [c if a else c - 1]]
    # super-families: the first maxdig[j] families of a prefix in state j are state-1 families
    eps1, lead, jump = cmp_[1], n - 2, n > 1
    p_lo, p_hi = pow_lo[n - 1], pow_hi[n - 1]
    delta = p_hi - p_lo
    # tail route: a state-1 family in KMP state k records no failure (never for an integer beta: no match)
    ok = [kmin[k] >= eps1 and row[eps1] > 0 and all(taus[sv] == 1 for sv in chains[row[eps1]])
          for k, row in enumerate(trans)]
    # length route: the widest of the m gaps is short at every W <= wmax; sums: the m gaps at W = 0
    wmax = eps1 * (sum(pow_hi[:n - 1]) - sum(pow_lo[:n - 1]))
    short = [families[1][4] - p_hi - (m - 1) * delta > wmax for m in range(1, eps1 + 1)]
    clean_upto = [[False, *map(and_, accumulate((ok[row[d]] for d in range(eps1)), and_), short)] for row in trans]
    sums = [(m * p_lo - delta * (m * m - m) // 2, m * p_hi + delta * (m * m - m) // 2) for m in range(eps1 + 1)]
    words = 0
    undecided = 0
    sum_lo = sum_hi = 0
    carry = 0  # length of the non-full run that ends just before the window
    for r in range(prefix_start - 1, -1, -1):
        s = scan_states(word_at(e, n - 1, r).digits, e)[-1]
        carry += adv_[s] > 0
        if cmp_[s]:
            break
    seen_full = False
    interior = False  # a shortcut closed runs of eps_1 full words and of one non-full word inside it
    nonfull_pos = 0  # length of the current non-full run
    full_len = 0  # length of the current full run
    full_runs: set[int] = set()
    nonfull_runs: set[int] = set()
    first_run: tuple[bool, int] | None = None
    closed = 0
    prefix, states = start_at(e, n - 1, prefix_start)
    kstates = [0] * n
    pl = [0] * n
    ph = [0] * n
    for i, d in enumerate(prefix):
        kstates[i + 1] = trans[kstates[i]][d]
        pl[i + 1] = pl[i] + d * pow_lo[i + 1]
        ph[i + 1] = ph[i] + d * pow_hi[i + 1]
    last = n - 1
    last_rank = prefix_stop - 1
    rank = prefix_start
    while rank < prefix_stop:
        if jump and not prefix[lead]:
            j, kq = states[lead], kstates[lead]
            m = maxdig[j]
            if rank + m <= last_rank and clean_upto[kq][m]:
                w = ph[lead] - pl[lead]
                # families 0..m-1 would record nothing: tally their words, sums and runs at once
                words += m * (eps1 + 1)
                sum_lo += sums[m][0] - m * w
                sum_hi += sums[m][1] + m * w
                closed += 2 * m - (0 if nonfull_pos else 1)
                if nonfull_pos:
                    if first_run is None:
                        first_run = (False, nonfull_pos)
                    else:
                        nonfull_runs.add(nonfull_pos)
                full_len += eps1
                if first_run is None:
                    first_run = (True, full_len)
                else:
                    full_runs.add(full_len)
                interior |= m > 1
                seen_full, nonfull_pos, full_len = True, 1, 0
                rank += m
                prefix[lead] = m
                states[last] = adv_[j] if m == cmp_[j] else 1
                kstates[last] = trans[kq][m]
                pl[last] = pl[lead] + m * p_lo
                ph[last] = ph[lead] + m * p_hi
        c, a, last_digit, last_full, short_hi, long_lo, full_lo, full_hi = families[states[last]]
        kp = kstates[last]
        words += last_digit + 1
        if kmin[kp] < c:
            krow = trans[kp]
            for d in range(kmin[kp], c):
                if krow[d]:
                    _record(failures, lambda: f"{case} n={n}: word {_word_text(e, n, rank, d)} is "
                                              "structurally full but ends with a prefix of the expansion")
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
            k_adv = trans[kp][c]
            if k_adv == 0:
                _record(failures, lambda: f"{case} n={n}: word {_word_text(e, n, rank, c)} is structurally "
                                          "non-full but ends with no prefix of the expansion")
            for sv in chains[k_adv]:
                if seen_full:
                    if nonfull_pos != taus[sv]:
                        _record(failures, lambda: _tail_run_failure(e, n, rank, c, sv, nonfull_pos, taus[sv]))
                elif carry + nonfull_pos != taus[sv]:
                    _record(failures, lambda: _tail_run_failure(e, n, rank, c, sv, carry + nonfull_pos, taus[sv]))
        left_lo, left_hi = pl[last], ph[last]
        if rank != last_rank:
            st = states[last - 1]
            nd = prefix[last - 1] + 1
            if nd <= maxdig[st]:  # the common advance: only the last prefix digit steps up
                prefix[last - 1] = nd
                states[last] = adv_[st] if nd == cmp_[st] else 1
                kstates[last] = trans[kstates[last - 1]][nd]
                pl[last] += pow_lo[last]
                ph[last] += pow_hi[last]
            else:  # words.walk's step, inlined: on the walker this sweep ran 1.2x slower.
                for t in range(last - 1, 0, -1):
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
                else:
                    raise VerificationError("prefix range exceeds the enumeration")
            next_lo, next_hi = pl[last], ph[last]
        elif prefix_stop == pcount:
            next_lo = next_hi = one
        else:
            next_lo, next_hi = calc.pi_bounds(word_at(e, n - 1, prefix_stop).digits)
        diff_lo = next_lo - left_hi
        diff_hi = next_hi - left_lo
        sum_lo += diff_lo
        sum_hi += diff_hi
        if diff_hi < short_hi:
            length_full = False
        elif diff_lo > long_lo:
            _record(failures, lambda: f"{case} n={n}: cylinder of {_word_text(e, n, rank, last_digit)} "
                                      "certified longer than beta^-n")
            length_full = None
        elif diff_lo >= full_lo and diff_hi <= full_hi:
            length_full = True
        else:
            undecided += 1
            length_full = None
        if length_full is not None and length_full != last_full:
            _record(failures, lambda: f"{case} n={n}: word {_word_text(e, n, rank, last_digit)} is "
                                      f"{'full' if last_full else 'non-full'} structurally but the "
                                      "cylinder-length criterion disagrees")
        rank += 1
    if interior:
        full_runs.add(eps1)
        nonfull_runs.add(1)
    spare = words - (prefix_stop - prefix_start)  # the last digits' sum: a family has last digit + 1 words
    chunk["words"] = words
    chunk["undecided"] = undecided
    chunk["sum_lo"] = sum_lo + spare * (xn_lo - xn_hi)
    chunk["sum_hi"] = sum_hi + spare * (xn_hi - xn_lo)
    last_run = (False, nonfull_pos) if nonfull_pos else (True, full_len)
    chunk["runs"] = (full_runs, nonfull_runs, first_run or last_run, last_run, closed + 1, words)
    return chunk


@dataclass
class SweepResult:
    """Aggregated outcome of a full-word sweep at one (e, n); runs is the
    run summary of every word, in the shape runs.scan_run_lengths returns."""

    words: int
    undecided: int
    length_sum: tuple[Fraction, Fraction]
    failures: list[str]
    runs: tuple


def _shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """At most one chunk per prefix; chunks past that would be empty."""
    shards = max(1, min(shards, total))
    return [(i * total // shards, (i + 1) * total // shards) for i in range(shards)]


def _sweep_worker(args):
    e, n, tol, start, stop = args
    return sweep_shard(e, n, tol, start, stop)


def sweep_fullness(e: ExpansionOfOne, n: int, tol=DEFAULT_TOL, shards: int = 1, executor=None) -> SweepResult:
    """Run the word sweep over the whole enumeration, optionally sharded.

    Folds the shards' chunks in order, their run summaries by merge_runs,
    so every shard count gives the same result and the same failures in word
    order.  Adds the global checks that need all shards: the cylinder lengths
    must sum to 1 within n * tol, and the visited-word tally must equal the
    counting recursion.
    """
    if n < 1:
        raise ValueError("word length n must be >= 1")
    tol = Fraction(tol)
    bounds = _shard_bounds(prefix_count(e, n), shards)
    if executor is not None and len(bounds) > 1:
        chunks = list(executor.map(_sweep_worker, [(e, n, tol, a, b) for a, b in bounds]))
    else:
        chunks = [sweep_shard(e, n, tol, a, b) for a, b in bounds]
    case = e.text()
    failures: list[str] = []
    words = undecided = 0
    sum_lo = sum_hi = 0
    runs = one_run(True, 0)
    for chunk in chunks:
        for message in chunk["failures"]:
            _record(failures, message)
        words += chunk["words"]
        undecided += chunk["undecided"]
        sum_lo += chunk["sum_lo"]
        sum_hi += chunk["sum_hi"]
        runs = merge_runs(runs, chunk["runs"])
    calc = cylinder_calc(e, n, tol)
    one = calc.one
    slack = n * ((tol.numerator * one) // tol.denominator)
    if sum_lo > sum_hi or sum_lo > one + slack or sum_hi < one - slack:
        _record(failures, f"{case} n={n}: cylinder lengths sum to "
                          f"[{sum_lo / one:.17g}, {sum_hi / one:.17g}], not 1 within {n}*tol")
    if words != count(e, n):
        _record(failures, f"{case} n={n}: sweep visited {words} words, count says {count(e, n)}")
    return SweepResult(words, undecided, (Fraction(sum_lo, one), Fraction(sum_hi, one)), failures, runs)


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


def _full_words_upto(e: ExpansionOfOne, cap: int) -> list[tuple[int, ...]]:
    """Full words of lengths 1..cap, by length and then in lex order."""
    fulls: list[tuple[int, ...]] = []
    for k in range(1, cap + 1):
        digits, states = start_at(e, k, 0)
        for _ in walk(e, digits, states):
            if states[-1] == 1:
                fulls.append(tuple(digits))
    return fulls


def check_concat_closure(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """A full word followed by a full word is admissible and full.

    The block-match automaton restarts at state 1 after a full word, so the
    structural route makes this immediate; the pairs are therefore checked
    against the independent suffix criterion.  A match of eps|_s at the end
    of u + v either lies inside v (s <= |v|) or straddles the boundary: u
    ends with eps|_t and v is eps_(t+1..t+|v|).  So each v keeps its
    smallest inside match and its straddle offsets t, each u its tail
    offsets, and only pairs that share an offset or have an inside match
    are visited: O(|F| * s_top) slice comparisons, not one per pair.  The
    tail matches of each word are the chain of its state in
    structure.tail_automaton.
    """
    case = e.text()
    fulls = _full_words_upto(e, cap)
    s_top = tail_cap(e, 2 * cap)
    prefix = e.digits_prefix(s_top)
    trans, chains = tail_automaton(e, s_top)

    def tail_ends(w: tuple[int, ...]) -> tuple[int, ...]:
        k = 0
        for d in w:
            k = trans[k][d]
        return chains[k]

    inside: dict[int, int] = {}
    straddles: dict[int, list[tuple[int, int]]] = {}
    for i, v in enumerate(fulls):
        ends = tail_ends(v)
        if ends:
            inside[i] = ends[-1]
        m = len(v)
        for t in range(1, s_top - m + 1):
            if prefix[t:t + m] == v:
                straddles.setdefault(t, []).append((i, t + m))
    for u in fulls:
        hits = dict(inside)
        # no straddle offset reaches s_top, so the full match never pairs
        for t in reversed(tail_ends(u)):
            for i, s in straddles.get(t, ()):
                hits.setdefault(i, s)
        for i in sorted(hits):
            _record(failures, f"{case}: concatenation {Word(u + fulls[i]).text()} of full words "
                              f"ends with the first {hits[i]} digits of the expansion")
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
    once per distinct suffix: suffixes that scanned full are kept in a set,
    so a suffix shared by many full words is looked up, not rescanned.
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
    full_suffixes: set[tuple[int, ...]] = set()
    for n in range(2, deep_cap + 1):
        digits, states = start_at(e, n, 0)
        for _ in walk(e, digits, states):
            if states[-1] != 1:
                continue
            w = tuple(digits)
            for k in range(1, n):
                suffix = w[k:]
                if suffix in full_suffixes:
                    continue
                try:
                    full = scan_states(suffix, e)[-1] == 1
                except NotAdmissible:
                    _record(failures, f"{case}: suffix at offset {k} of full {Word(w).text()} is not admissible")
                    continue
                if full:
                    full_suffixes.add(suffix)
                else:
                    _record(failures, f"{case}: suffix at offset {k} of full {Word(w).text()} is not full")


def check_decrement_closure(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """Lowering the nonzero last digit of an admissible word gives a full
    word; chained decrements cover every smaller final digit.  The state
    before the last digit is read off the walker."""
    case = e.text()
    aut = automaton(e)
    cmp_, adv_ = aut.cmp, aut.adv
    for n in range(1, cap + 1):
        digits, states = start_at(e, n, 0)
        for _ in walk(e, digits, states):
            d = digits[-1] - 1
            s = states[-2]
            if d >= 0 and d == cmp_[s] and adv_[s] != 1:
                _record(failures, f"{case}: decrement of {Word(tuple(digits)).text()} is not full")


def check_last_digit_bound(e: ExpansionOfOne, cap: int, failures: list[str]) -> None:
    """Full words end strictly below floor(beta)."""
    case = e.text()
    top = e.alphabet_max
    for n in range(1, cap + 1):
        digits, states = start_at(e, n, 0)
        for _ in walk(e, digits, states):
            if digits[-1] >= top and states[-1] == 1:
                _record(failures, f"{case}: full word {Word(tuple(digits)).text()} ends with digit "
                                  f"{digits[-1]} >= floor(beta) = {top}")


def check_decompose(e: ExpansionOfOne, n_values, exhaustive_to: int, samples: int, failures: list[str]) -> None:
    """Reconstruction inverts decomposition; blocks are full; the block and
    tail lengths obey the finite-expansion caps.

    decompose and reconstruct run once per word; a block's verdict depends
    only on its (length, last digit), so it is worked out once per distinct
    pair, and the expansion digits come from one prefix.
    """
    case = e.text()
    m = e.finite_length
    n_values = tuple(n_values)
    eps = e.digits_prefix(max(n_values, default=0))
    verdicts: dict[tuple[int, int], str] = {}
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
            if back != w:
                _record(failures, f"{case} n={n}: decomposition of {w.text()} reconstructs to {back.text()}")
                continue
            pieces = dec.blocks + (dec.tail,)
            if sum(length for length, _ in pieces) != n:
                _record(failures, f"{case} n={n}: decomposition lengths of {w.text()} do not sum to n")
            for block in dec.blocks:
                verdict = verdicts.get(block)
                if verdict is None:
                    length, lastd = block
                    if lastd >= eps[length - 1]:
                        verdict = "does not end strictly below the expansion digit"
                    elif scan_states(eps[:length - 1] + (lastd,), e)[-1] != 1:
                        verdict = "is not full"
                    else:
                        verdict = ""
                    verdicts[block] = verdict
                if verdict:
                    _record(failures, f"{case} n={n}: block ({block[0]},{block[1]}) of {w.text()} {verdict}")
            tail_len, tail_d = dec.tail
            if tail_d > eps[tail_len - 1]:
                _record(failures, f"{case} n={n}: tail of {w.text()} exceeds the expansion digit")
            if m is not None:
                if any(length > m for length, _ in pieces):
                    _record(failures, f"{case} n={n}: a decomposition piece of {w.text()} is longer than M")
                if tail_len == m and tail_d >= eps[m - 1]:
                    _record(failures, f"{case} n={n}: tail of {w.text()} matches all M digits")


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


def verify_member(e: ExpansionOfOne, n_values, tol=DEFAULT_TOL, shards: int = 1, executor=None):
    """Formula-versus-enumeration rows plus criterion sweeps for one expansion.

    Returns (report_rows, failures): one row per n with the run-length sets
    from both provenances, and failure strings for anything that broke.  One
    sweep per n yields the enumerated run sets and the criterion checks.
    """
    rows = []
    failures: list[str] = []
    for n in n_values:
        sweep = sweep_fullness(e, n, tol, shards, executor)
        row, fails = _compare_run_sets(e, n, sweep.runs)
        rows.append(row)
        failures.extend(fails)
        failures.extend(sweep.failures)
        if sweep.undecided:
            _record(failures, f"{e.text()} n={n}: {sweep.undecided} words undecided by the "
                              f"length criterion at tol {tol}")
    return rows, failures[:MAX_FAILURES]


def verify_report(corpus, n_values, tol=DEFAULT_TOL, shards: int = 1):
    """Rows and failures for a whole corpus; shards > 1 uses a process pool
    of at most one worker per core, and each sweep makes at most one chunk
    per pool worker.

    The rows depend only on (corpus, n_values), never on the shard count, so
    sharded and unsharded runs render byte-identical reports.
    """
    n_values = list(n_values)
    workers = min(shards, os.cpu_count() or 1)
    rows = []
    failures: list[str] = []
    with ProcessPoolExecutor(max_workers=workers) if shards > 1 else contextlib.nullcontext() as executor:
        for e in corpus:
            member_rows, member_failures = verify_member(e, n_values, tol, workers, executor)
            rows.extend(member_rows)
            failures.extend(member_failures)
    return rows, failures


def render_report(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
