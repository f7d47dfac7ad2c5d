"""Admissible words of the beta-shift: membership, order, enumeration, counting.

A word w of length n is admissible when sigma^k(w 0^inf) is lexicographically
smaller than eps*(1, beta) for every 0 <= k < n.  Enumeration, counting and
the successor/predecessor walk all run on a block-match automaton over the
digits of eps(1, beta): state j means the current block matches the first
j - 1 digits, a digit below eps_j closes the block, a digit equal to eps_j
extends it, anything larger (or completing all M digits of a finite
expansion) is inadmissible.  A word is full exactly when its scan ends on a
closed block, i.e. in state 1.

Every lex-order walk goes through ``walk``: it takes a word's digit list and
its state list (from ``start_at``, or a copy of what ``scan_states``
returns), rewrites both in place to each successor in turn, and yields for
every word visited the number of leading digits it shares with the previous
one (0 for the first word).  It stops after the lex-largest word or after a
given number of words.

Random access runs on the count table (table[m][j]: admissible length-m
continuations from state j).  rank_of sums each digit times the count of
the words one digit shorter; word_at reads the digits back by comparing
the index with that count, subtracting it once for a digit 1 and dividing
by it for a larger digit, and steps the block-match state as it goes.  The
point queries share one scan through a one-slot memo (scan_states), and a
word from iter_words or word_at arrives with its scan already stored there.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import repeat

from .errors import AlphabetMismatch, NotAdmissible, VerificationError
from .expansion import ExpansionOfOne, Frozen, lex_compare, modified_expansion


class Word(Frozen):
    """A fixed-length digit word over {0, ..., eps_1}."""

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]):
        if not digits:
            raise ValueError("words must have length >= 1")
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if "," in text:
            return cls(tuple(int(t) for t in text.split(",")))
        return cls(tuple(int(c) for c in text))

    def text(self) -> str:
        if all(d <= 9 for d in self.digits):
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)


class Automaton(Frozen, derived=("zero",)):
    """Block-match transition tables, 1-indexed by state (index 0 unused).

    cmp[j]: digit that extends the match in state j.
    adv[j]: state after an extension; 0 when extending is inadmissible
            (a finite expansion fully matched).
    maxdig[j]: largest admissible digit in state j.
    zero[j]: state after the digit 0 in state j.
    """

    __slots__ = ("cmp", "adv", "maxdig", "zero")

    def __init__(self, cmp: tuple[int, ...], adv: tuple[int, ...], maxdig: tuple[int, ...]):
        Frozen.__init__(self, cmp, adv, maxdig)
        object.__setattr__(self, "zero", tuple(a if c == 0 else 1 for c, a in zip(cmp, adv)))


@lru_cache(maxsize=64)
def automaton(e: ExpansionOfOne) -> Automaton:
    if e.is_finite:
        digits = e.preperiod
        m = len(digits)
        cmp = (0,) + digits
        adv = (0,) + tuple(j + 1 for j in range(1, m)) + (0,)
        maxdig = (0,) + digits[:-1] + (digits[-1] - 1,)
        return Automaton(cmp, adv, maxdig)
    pre, per = e.preperiod, e.period
    length = len(pre) + len(per)
    cmp = (0,) + pre + per
    adv = (0,) + tuple(j + 1 for j in range(1, length)) + (len(pre) + 1,)
    return Automaton(cmp, adv, cmp)


def check_alphabet(digits: Sequence[int], e: ExpansionOfOne) -> None:
    bound = e.alphabet_max
    for d in digits:
        if not 0 <= d <= bound:
            raise AlphabetMismatch(f"digit {d} outside alphabet 0..{bound}")


# The last successful scan of a digit tuple, as one (digits, automaton,
# states) entry replaced whole, so a reader never pairs one scan's keys with
# another's states.  It holds both keys, so neither identity can be reused
# while it is stored.  iter_words stores each word it yields here, and
# word_at the word it returns.
_LAST_SCAN: list[tuple] = [(None, None, None)]


def scan_states(digits: Sequence[int], e: ExpansionOfOne) -> list[int]:
    """States after each digit (length n + 1, starting at 1).

    The one admissibility pass of the point API.  No state admits a digit
    above eps_1, so a digit outside 0..eps_1 fails the scan at or before its
    own position; the failure branch then checks the alphabet of the whole
    word.  So the scan raises AlphabetMismatch when any digit lies outside
    0..eps_1, and otherwise NotAdmissible at the first offending digit.

    The point queries on one Word (rank_of, is_full, is_full_by_tail,
    successor) share one scan: a one-slot memo keeps the last successful
    scan of a tuple, keyed on the identity of the tuple and of automaton(e).
    A word from iter_words or word_at arrives with its scan stored there.  So
    the returned list may be the memo's own: read it, and copy it before
    rewriting it, as successor and iter_words do before they walk.
    """
    aut = automaton(e)
    last = _LAST_SCAN[0]
    if digits is last[0] and aut is last[1]:
        return last[2]
    cmp, adv, maxdig = aut.cmp, aut.adv, aut.maxdig
    states = [1] * (len(digits) + 1)
    s = 1
    for t, d in enumerate(digits):
        if d > maxdig[s] or d < 0:
            check_alphabet(digits, e)
            raise NotAdmissible(f"digit {d} at position {t + 1} is not admissible")
        s = adv[s] if d == cmp[s] else 1
        states[t + 1] = s
    if type(digits) is tuple:
        _LAST_SCAN[0] = digits, aut, states
    return states


def is_admissible(w: Word, e: ExpansionOfOne) -> bool:
    """Definitional test: sigma^k(w 0^inf) < eps*(1, beta) for all 0 <= k < n."""
    check_alphabet(w.digits, e)
    star = modified_expansion(e).as_pair()
    for k in range(len(w)):
        if lex_compare((w.digits[k:], (0,)), star) >= 0:
            return False
    return True


def max_word(e: ExpansionOfOne, n: int) -> Word:
    """The lex-largest admissible word of length n: eps*(1, beta)|_n."""
    _check_n(n)
    return Word(modified_expansion(e).digits_prefix(n))


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("word length n must be >= 1")


def successor(w: Word, e: ExpansionOfOne) -> Word | None:
    """The next admissible word of the same length; None at the maximum."""
    digits = list(w.digits)
    steps = walk(e, digits, scan_states(w.digits, e)[:])
    next(steps)
    return None if next(steps, None) is None else Word(tuple(digits))


def predecessor(w: Word, e: ExpansionOfOne) -> Word | None:
    """The previous admissible word of the same length; None at 0^n.

    A word ending in a nonzero digit steps down by decrementing it; a word
    ending in zero drops its last nonzero digit by one and continues with
    eps*(1, beta) from there.
    """
    scan_states(w.digits, e)
    digits = list(w.digits)
    n = len(digits)
    if all(d == 0 for d in digits):
        return None
    if digits[-1] > 0:
        digits[-1] -= 1
        return Word(tuple(digits))
    k = max(i for i in range(n - 1) if digits[i] > 0)
    star = modified_expansion(e)
    return Word(tuple(digits[:k]) + (digits[k] - 1,) + star.digits_prefix(n - k - 1))


def start_at(e: ExpansionOfOne, m: int, rank: int) -> tuple[list[int], list[int]]:
    """Digit and state lists of the length-m word at rank, ready for walk.

    m = 0 gives the empty word, whose only state is 1.
    """
    if m == 0 or rank == 0:
        return [0] * m, [1] * (m + 1)
    w = word_at(e, m, rank)
    return list(w.digits), scan_states(w.digits, e)[:]


def walk(e: ExpansionOfOne, digits: list[int], states: list[int], limit: int | None = None) -> Iterator[int]:
    """Step digits and states in place through the lex successors.

    Yields once per word visited, starting with the given word: the number of
    leading digits unchanged since the previous word (0 for the first).  The
    successor increments the last position that admits a larger digit and
    fills the rest with zeros, always an admissible continuation.  Stops
    after the lex-largest word or after limit words.
    """
    if limit is not None and limit < 1:
        return
    aut = automaton(e)
    cmp, adv, maxdig, zero = aut.cmp, aut.adv, aut.maxdig, aut.zero
    n = len(digits)
    yield 0
    for _ in repeat(None) if limit is None else range(limit - 1):
        for t in range(n - 1, -1, -1):
            s = states[t]
            d = digits[t]
            if d < maxdig[s]:
                d += 1
                digits[t] = d
                s = adv[s] if d == cmp[s] else 1
                states[t + 1] = s
                for u in range(t + 1, n):
                    digits[u] = 0
                    s = zero[s]
                    states[u + 1] = s
                break
        else:
            return
        yield t


def iter_words(
    e: ExpansionOfOne,
    n: int,
    start: Word | None = None,
    stop: Word | None = None,
) -> Iterator[Word]:
    """All admissible words of length n in lex order, optionally [start, stop).

    Each word arrives with its scan: its tuple, automaton(e) and a copy of
    its walked states (the walk rewrites its own list) become scan_states'
    memo entry, so the point queries on it scan nothing.
    """
    _check_n(n)
    aut = automaton(e)
    if start is None:
        digits, states = start_at(e, n, 0)
    else:
        if len(start) != n:
            raise ValueError("start word has the wrong length")
        states = scan_states(start.digits, e)[:]
        digits = list(start.digits)
    stop_digits = None
    if stop is not None:
        if len(stop) != n:
            raise ValueError("stop word has the wrong length")
        stop_digits = tuple(stop.digits)
    for _ in walk(e, digits, states):
        word = tuple(digits)
        if stop_digits is not None and word >= stop_digits:
            return
        _LAST_SCAN[0] = word, aut, states[:]
        yield Word(word)


@lru_cache(maxsize=64)
def _count_rows(e: ExpansionOfOne) -> list[tuple[int, ...]]:
    """The count rows of e so far, row 0 at first; _count_table extends the
    list in place."""
    return [(0,) + (1,) * (len(automaton(e).cmp) - 1)]


def _count_table(e: ExpansionOfOne, n: int) -> list[tuple[int, ...]]:
    """table[m][j] = number of admissible length-m continuations from state j.

    One row list per expansion (_count_rows), extended on demand, so it holds
    at least rows 0..n and never more rows than the largest n asked for.
    """
    table = _count_rows(e)
    if len(table) <= n:
        aut = automaton(e)
        cmp, adv = aut.cmp, aut.adv
        width = len(cmp)
        while len(table) <= n:
            prev = table[-1]
            row = [0] * width
            for j in range(1, width):
                total = cmp[j] * prev[1]
                if adv[j]:
                    total += prev[adv[j]]
                row[j] = total
            table.append(tuple(row))
    return table


def count(e: ExpansionOfOne, n: int) -> int:
    """|Sigma_beta^n| via dynamic programming on the match automaton."""
    _check_n(n)
    return _count_table(e, n)[n][1]


def word_at(e: ExpansionOfOne, n: int, index: int) -> Word:
    """The admissible word of length n at 0-based position index (lex order).

    The word arrives with its scan, as a word from iter_words does: its
    tuple, automaton(e) and the states stepped while reading its digits
    become scan_states' memo entry, so the point queries on it scan nothing.
    """
    _check_n(n)
    index = operator.index(index)
    table = _count_table(e, n)
    if not 0 <= index < table[n][1]:
        raise ValueError(f"index {index} out of range for {table[n][1]} words")
    aut = automaton(e)
    cmp, adv, maxdig = aut.cmp, aut.adv, aut.maxdig
    # rank_of sums w_t * table[n - t][1].  The terms after position t sum to
    # the rank of an admissible suffix of length m = n - t, which is below
    # table[m][1], so the digit at t is how many times table[m][1] still fits
    # into what is left of the index.  A 0 digit costs one comparison and a 1
    # digit one subtraction; a larger digit takes one divmod, so the work per
    # digit does not grow with eps_1.  The block-match state steps as in
    # scan_states.  A digit above maxdig, or a zero count that the index
    # reaches (only a count table out of step with the automaton gives
    # either), raises before anything is stored.
    digits = []
    states = [1]
    s = 1
    for row in table[n - 1::-1]:
        block = row[1]
        d = 0
        if index >= block:
            index -= block
            d = 1
            if index >= block:
                if not block:
                    raise VerificationError(f"a zero count makes the digit at position {len(states)} "
                                            "not admissible")
                q, index = divmod(index, block)
                d += q
            if d > maxdig[s]:
                raise VerificationError(f"digit {d} at position {len(states)} from the count table "
                                        "is not admissible")
        s = adv[s] if d == cmp[s] else 1
        digits.append(d)
        states.append(s)
    word = tuple(digits)
    _LAST_SCAN[0] = word, aut, states
    return Word(word)


def rank_of(w: Word, e: ExpansionOfOne) -> int:
    """0-based position of w in the lex enumeration of its length."""
    scan_states(w.digits, e)
    n = len(w)
    table = _count_table(e, n)
    rank = 0
    for d, row in zip(w.digits, table[n - 1::-1]):
        if d:
            rank += d * row[1]
    return rank
