"""Structural decomposition and fullness of admissible words.

Every admissible word splits uniquely into maximal blocks that each match a
prefix of eps(1, beta) and close with a strictly smaller digit, followed by
a tail that matches a prefix and ends with a digit at most equal to the next
one.  A word is full (its cylinder has maximal length beta^-n) exactly when
the tail also closes strictly; equivalently, when it does not end with any
prefix of eps(1, beta); equivalently, when |cylinder| equals beta^-n.  The
three criteria are implemented independently and cross-checked in tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import VerificationError
from .expansion import ExpansionOfOne, Frozen, derived, solve_beta
from .words import Word, scan_states, walk


class _Undecided:
    def __repr__(self) -> str:
        return "Undecided"

    def __bool__(self) -> bool:
        raise TypeError("Undecided is not a boolean; compare with UNDECIDED")


UNDECIDED = _Undecided()

DEFAULT_TOL = Fraction(1, 10**12)


def mismatch(w: Word, e: ExpansionOfOne) -> int | None:
    """First position where w drops strictly below eps(1, beta).

    None means w matches eps(1, beta) through its whole length (the drop, if
    any, lies beyond position n).  It is where the first block closes: the
    first position after which the block-match scan is back in state 1.
    """
    states = scan_states(w.digits, e)
    return next((k for k in range(1, len(states)) if states[k] == 1), None)


class Decomposition(Frozen):
    """Blocks and tail of an admissible word.

    Each entry is (length, last_digit): a block is eps_1..eps_{k-1} followed
    by a digit strictly below eps_k; the tail allows equality at its last
    position.
    """

    __slots__ = ("blocks", "tail")

    def __init__(self, blocks: tuple[tuple[int, int], ...], tail: tuple[int, int]):
        _set_blocks(self, blocks)
        _set_tail(self, tail)

    def reconstruct(self, e: ExpansionOfOne) -> Word:
        """The word the pieces spell, joined from e's spelled pieces; a piece with L < 1 raises ValueError."""
        record = derived(e)
        if record.spellings is None:
            record.spellings = _Spellings(e)
        spell = record.spellings
        digits: list[int] = []
        for piece in self.blocks:
            digits += spell[piece]
        digits += spell[self.tail]
        return Word(tuple(digits))


_set_blocks, _set_tail = Decomposition.blocks.__set__, Decomposition.tail.__set__
SPELL_CAP = 256  # the most pieces kept spelled per expansion, and the longest piece kept


class _Spellings(dict):
    """Piece (L, d) -> eps_1..eps_(L-1) d in one expansion, spelled on first
    use; at most SPELL_CAP pieces, of at most SPELL_CAP digits, are kept."""

    def __init__(self, e: ExpansionOfOne):
        self.e = e

    def __missing__(self, piece: tuple[int, int]) -> tuple[int, ...]:
        length, last = piece
        if length < 1:
            raise ValueError("decomposition pieces must have length >= 1")
        spelled = self.e.digits_prefix(length - 1) + (last,)
        if length <= SPELL_CAP and len(self) < SPELL_CAP:
            self[piece] = spelled
        return spelled


def decompose(w: Word, e: ExpansionOfOne) -> Decomposition:
    """Split w into full blocks and a tail, read off its block-match scan.

    A block closes at position k exactly when the scan is in state 1 after
    k digits: no extension leads back to state 1, since a purely periodic
    expansion is never self-dominant.  The tail is the last block when the
    word ends in state 1, and the digits after the last cut otherwise.
    """
    digits = w.digits
    states = scan_states(digits, e)
    segments: list[tuple[int, int]] = []
    cut = k = 0
    for s in islice(states, 1, None):
        k += 1
        if s == 1:
            segments.append((k - cut, digits[k - 1]))
            cut = k
    if cut == k:
        return Decomposition(tuple(segments[:-1]), segments[-1])
    return Decomposition(tuple(segments), (k - cut, digits[-1]))


def is_full(w: Word, e: ExpansionOfOne) -> bool:
    """Structural criterion: the tail closes with a strict drop.

    Equivalent to the block-match scan ending in state 1.
    """
    return scan_states(w.digits, e)[-1] == 1


def tail_cap(e: ExpansionOfOne, n: int) -> int:
    """Longest expansion prefix a length-n admissible word can end with: n,
    or at most M - 1 for a finite expansion, since no admissible word ends
    with all M digits."""
    return n if not e.is_finite else min(e.finite_length - 1, n)


@lru_cache(maxsize=64)
def tail_automaton(e: ExpansionOfOne, cap: int) -> tuple[tuple, tuple]:
    """(trans, chains): the KMP automaton of eps_1..eps_cap, for every user
    of the tail criterion.

    trans[k][d] is the longest suffix-prefix match after appending digit d
    in match state k; chains[k] lists every match length ending there, k
    and then its proper borders, descending.
    """
    pattern = e.digits_prefix(cap)
    trans: list[tuple[int, ...]] = []
    chains: list[tuple[int, ...]] = []
    border = 0  # the longest proper border of eps|_k, KMP's failure link
    for k in range(cap + 1):
        # state k moves as its border does, except on the digit that extends it
        row = list(trans[border]) if k else [0] * (e.alphabet_max + 1)
        chains.append((k,) + chains[border] if k else ())
        if k < cap:
            row[pattern[k]] = k + 1
            if k:
                border = trans[border][pattern[k]]
        trans.append(tuple(row))
    return tuple(trans), tuple(chains)


@lru_cache(maxsize=64)
def tail_kmin(e: ExpansionOfOne, cap: int) -> tuple[int, ...]:
    """Per state of tail_automaton(e, cap), the least digit into a match, or eps_1 + 1 if none."""
    return tuple(next((d for d, k in enumerate(row) if k), len(row)) for row in tail_automaton(e, cap)[0])


def _tail_matches(w: Word, e: ExpansionOfOne) -> list[int]:
    """Lengths s <= tail_cap, ascending, for which w ends with eps_1..eps_s.

    The KMP automaton of eps_1..eps_cap reads the last tail_cap digits of w
    and stops in the longest such s; its chain lists the others.  Linear in
    n, with the automaton built once per (e, cap); comparing the two tails
    for every s would be quadratic.
    """
    scan_states(w.digits, e)
    n = len(w)
    cap = tail_cap(e, n)
    trans, chains = tail_automaton(e, cap)
    k = 0
    for d in w.digits[n - cap:]:
        k = trans[k][d]
    return list(chains[k][::-1])


def is_full_by_tail(w: Word, e: ExpansionOfOne) -> bool:
    """Suffix criterion: w is full iff it ends with no prefix of eps(1, beta)."""
    return not _tail_matches(w, e)


def smallest_tail_length(w: Word, e: ExpansionOfOne) -> int | None:
    """Smallest s with w ending in eps_1..eps_s; None when w is full."""
    matches = _tail_matches(w, e)
    return matches[0] if matches else None


@lru_cache(maxsize=64)
def _scaled_inverse(e: ExpansionOfOne, bits: int) -> tuple[int, int]:
    """(x_lo, x_hi): 1/beta scaled by 2^bits, rounded down and up, from a
    beta bracket 2^-(bits - 16) wide.  It depends on bits only, not on n,
    so every n that shares bits solves beta once.  When e's record holds a
    bracket at least that wide, it is refined rather than beta solved again;
    refining gives the bracket solve_beta gives, bit for bit, and the
    refined bracket, the narrowest made, takes its place."""
    target = Fraction(1, 2 ** (bits - 16))
    record = derived(e)
    narrowest = record.narrowest
    wide = narrowest is not None and narrowest.width >= target
    beta = narrowest.refine(target) if wide else solve_beta(e, target)
    if wide or narrowest is None:
        record.narrowest = beta
    q, r = divmod(beta.lo.denominator << bits, beta.lo.numerator)
    return (beta.hi.denominator << bits) // beta.hi.numerator, q if r == 0 else q + 1


class CylinderCalc:
    """Certified fixed-point arithmetic for cylinder endpoints at one (e, n).

    Beta is bracketed tightly and 1/beta is scaled by 2^bits; power tables
    carry directed rounding so every word's endpoint sum [lo, hi] is a true
    enclosure.  Interval widths stay far below any practical tolerance.
    """

    def __init__(self, e: ExpansionOfOne, n: int, bits: int):
        self.e = e
        self.n = n
        self.bits = bits
        one = 1 << bits
        self.x_lo, self.x_hi = _scaled_inverse(e, bits)
        pow_lo, pow_hi = [one], [one]
        for _ in range(n):
            pow_lo.append((pow_lo[-1] * self.x_lo) >> bits)
            pow_hi.append(-((-pow_hi[-1] * self.x_hi) >> bits))
        self.pow_lo, self.pow_hi = pow_lo, pow_hi
        self.one = one

    def pi_bounds(self, digits, offset: int = 0) -> tuple[int, int]:
        """Scaled enclosure of sum_i w_i beta^-(offset + i): the digits'
        share of a word whose first offset digits are summed elsewhere."""
        lo = hi = 0
        pow_lo, pow_hi = self.pow_lo, self.pow_hi
        for i, d in enumerate(digits, start=offset + 1):
            if d:
                lo += d * pow_lo[i]
                hi += d * pow_hi[i]
        return lo, hi

    def compare_length(self, left: tuple[int, int], right: tuple[int, int], tol: Fraction):
        """Compare the cylinder length (right - left) against beta^-n."""
        length_lo = right[0] - left[1]
        length_hi = right[1] - left[0]
        diff_lo = length_lo - self.pow_hi[self.n]
        diff_hi = length_hi - self.pow_lo[self.n]
        if diff_hi < 0:
            return False
        if diff_lo > 0:
            raise VerificationError("cylinder longer than beta^-n; inconsistent input")
        if max(-diff_lo, diff_hi) * tol.denominator <= tol.numerator * self.one:
            return True
        return UNDECIDED

    def as_fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.one)


def _fraction(tol: Fraction | float | str) -> Fraction:
    """tol as a Fraction; one that is already a Fraction is taken as it is."""
    return tol if isinstance(tol, Fraction) else Fraction(tol)


def _bits_for(e: ExpansionOfOne, n: int, tol: Fraction) -> int:
    """The fixed-point precision of the cylinder arithmetic at (e, n, tol).
    A length gap can be as small as about beta^-(n + digits of e), when beta
    lies near an integer, so the digit count adds to n.  Rounded up to a
    multiple of 64, so that nearby n share one solve of beta."""
    tol_bits = max(0, tol.denominator.bit_length() - tol.numerator.bit_length())
    bits = tol_bits + (n + len(e.preperiod) + len(e.period)) * (e.alphabet_max + 1).bit_length() + 64
    return max(320, -(-bits // 64) * 64)


@lru_cache(maxsize=64)
def _calc(e: ExpansionOfOne, n: int, bits: int) -> CylinderCalc:
    return CylinderCalc(e, n, bits)


def cylinder_calc(e: ExpansionOfOne, n: int, tol: Fraction | float | str = DEFAULT_TOL) -> CylinderCalc:
    tol = _fraction(tol)
    if tol.numerator <= 0:
        raise ValueError("tolerance must be positive")
    return _calc(e, n, _bits_for(e, n, tol))


class CylinderInterval(Frozen):
    """The half-open interval [left, right) of reals whose expansion starts
    with a given word; endpoints are certified rational enclosures."""

    __slots__ = ("left", "right")

    def length_bounds(self) -> tuple[Fraction, Fraction]:
        return (max(Fraction(0), self.right[0] - self.left[1]), self.right[1] - self.left[0])


def _cylinder_ends(w: Word, e: ExpansionOfOne, tol: Fraction,
                   shifted: bool = False) -> tuple[CylinderCalc, tuple[int, int], tuple[int, int]]:
    """The calculator for (e, |w|) and the scaled enclosures of the left
    endpoint of w and of its successor (1 for the maximal word).

    One step of the lex walk from w's scan, as successor takes it, gives
    the index t it increments and the digit d it writes there; the
    successor is w's first t digits, then d, then zeros, so no successor
    word is built, and the first t digits are summed once and shared.  Both
    enclosures are the same integer sums that a full pass over each word
    gives.  When shifted, that shared prefix is left out of both ends: it
    moves both by the same real amount, which cancels in the length, so the
    ends' differences still enclose the length, without the prefix's width.
    """
    calc = cylinder_calc(e, len(w), tol)
    digits = list(w.digits)
    steps = walk(e, digits, scan_states(w.digits, e)[:])
    next(steps)
    t = next(steps, None)
    if t is None:
        return calc, calc.pi_bounds(w.digits), (calc.one, calc.one)
    lo, hi = (0, 0) if shifted else calc.pi_bounds(w.digits[:t])
    rest_lo, rest_hi = calc.pi_bounds(w.digits[t:], t)
    d = digits[t]
    return calc, (lo + rest_lo, hi + rest_hi), (lo + d * calc.pow_lo[t + 1], hi + d * calc.pow_hi[t + 1])


def cylinder(w: Word, e: ExpansionOfOne, tol: Fraction | float | str = DEFAULT_TOL) -> CylinderInterval:
    """Certified enclosures for the cylinder endpoints of w.

    The left endpoint is sum w_i beta^-i; the right endpoint is the left
    endpoint of the successor, or 1 for the maximal word.
    """
    calc, left, right = _cylinder_ends(w, e, _fraction(tol))
    return CylinderInterval(tuple(map(calc.as_fraction, left)), tuple(map(calc.as_fraction, right)))


def is_full_by_length(w: Word, e: ExpansionOfOne, tol: Fraction | float | str = DEFAULT_TOL):
    """Length criterion: |cylinder(w)| = beta^-n within tol, certified.

    Returns True, False, or UNDECIDED when the enclosures overlap too
    loosely for the requested tolerance.
    """
    tol = _fraction(tol)
    calc, left, right = _cylinder_ends(w, e, tol, shifted=True)
    return calc.compare_length(left, right, tol)
