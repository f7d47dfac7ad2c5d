"""Expansions of 1 in base beta: digit sequences, validation, and exact arithmetic.

A sequence of digits is the expansion of 1 for some beta > 1 exactly when
every shifted copy is lexicographically smaller than the sequence itself.
This module represents such sequences (finite, or eventually periodic),
derives the modified expansion used for admissibility comparisons, solves
for beta as an exact rational interval, and extracts digits from a numeric
beta with certified floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidSequence, NotSelfDominant, PrecisionExhausted

MAX_PRECISION = 4096

# An eventually periodic digit sequence as (preperiod, period); the period of
# a finite-support sequence is (0,).
SeqPair = tuple[tuple[int, ...], tuple[int, ...]]


def seq_digit(pair: SeqPair, i: int) -> int:
    """Digit at 1-based position i of an eventually periodic sequence."""
    if i < 1:
        raise ValueError(f"digit positions start at 1, got {i}")
    pre, per = pair
    if i <= len(pre):
        return pre[i - 1]
    return per[(i - len(pre) - 1) % len(per)]


def seq_prefix(pair: SeqPair, n: int) -> tuple[int, ...]:
    """The first n digits of an eventually periodic sequence (none for n < 1)."""
    pre, per = pair
    if n <= len(pre):
        return pre[:max(n, 0)]
    return (pre + per * -(-(n - len(pre)) // len(per)))[:n]


def lex_compare(a: SeqPair, b: SeqPair) -> int:
    """Decide the lexicographic order of two eventually periodic sequences.

    Returns -1, 0 or 1.  The comparison is exact: two such sequences that
    agree up to max(preperiods) + lcm(periods) positions agree everywhere.
    """
    bound = max(len(a[0]), len(b[0])) + math.lcm(len(a[1]), len(b[1]))
    for i in range(1, bound + 1):
        da, db = seq_digit(a, i), seq_digit(b, i)
        if da != db:
            return -1 if da < db else 1
    return 0


def shifted(pair: SeqPair, k: int) -> SeqPair:
    """The sequence with its first k digits removed."""
    pre, per = pair
    if k <= len(pre):
        return (pre[k:], per)
    r = (k - len(pre)) % len(per)
    return ((), per[r:] + per[:r])


@dataclass(frozen=True)
class ExpansionOfOne:
    """A validated expansion of 1: eps(1, beta) for some beta > 1.

    Finite expansions (digit at position M nonzero, zeros after) carry an
    empty period.  Construction validates shape and the shifted-comparison
    condition sigma^k(seq) < seq for every k >= 1, checked for k up to one
    full cycle past the preperiod.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        digits = self.preperiod + self.period
        if not digits:
            raise InvalidSequence("empty digit sequence")
        if any(not isinstance(d, int) or d < 0 for d in digits):
            raise InvalidSequence("digits must be nonnegative integers")
        first = digits[0] if self.preperiod else self.period[0]
        if first == 0:
            raise InvalidSequence("leading zero: eps_1 = floor(beta) must be >= 1")
        if self.period:
            if all(d == 0 for d in self.period):
                raise InvalidSequence("period of zeros: use the finite form instead")
        else:
            if self.preperiod[-1] == 0:
                raise InvalidSequence("finite expansion must end in a nonzero digit")
            if self.preperiod == (1,):
                raise InvalidSequence("sequence 1,0,0,... solves beta = 1, which is not a base")
        pair = self.as_pair()
        for k in range(1, len(self.preperiod) + max(len(self.period), 1) + 1):
            if lex_compare(shifted(pair, k), pair) >= 0:
                raise NotSelfDominant(k)

    @classmethod
    def finite(cls, digits: Sequence[int]) -> "ExpansionOfOne":
        digits = list(digits)
        while digits and digits[-1] == 0:
            digits.pop()
        if not digits:
            raise InvalidSequence("all-zero digit sequence")
        return cls(tuple(digits), ())

    @classmethod
    def eventually_periodic(cls, preperiod: Sequence[int], period: Sequence[int]) -> "ExpansionOfOne":
        if not period:
            raise InvalidSequence("empty period: use the finite form instead")
        return cls(tuple(preperiod), tuple(period))

    @classmethod
    def parse(cls, text: str) -> "ExpansionOfOne":
        """Parse ``"3,0,2,0,0,0,0,1"`` (finite) or ``"1,0;0,0,0,1"`` (preperiod;period)."""
        text = text.strip()
        try:
            if ";" in text:
                pre_text, per_text = text.split(";")
                pre = [int(t) for t in pre_text.split(",")] if pre_text.strip() else []
                per = [int(t) for t in per_text.split(",")]
                return cls.eventually_periodic(pre, per)
            return cls.finite([int(t) for t in text.split(",")])
        except ValueError as exc:
            raise InvalidSequence(f"cannot parse digit sequence {text!r}: {exc}") from None

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def finite_length(self) -> int | None:
        """M, the position of the last nonzero digit; None when infinite."""
        return len(self.preperiod) if self.is_finite else None

    @property
    def alphabet_max(self) -> int:
        """eps_1 = floor(beta); words use digits 0..alphabet_max."""
        return (self.preperiod + self.period)[0]

    def as_pair(self) -> SeqPair:
        return (self.preperiod, self.period if self.period else (0,))

    def digit(self, i: int) -> int:
        return seq_digit(self.as_pair(), i)

    def digits_prefix(self, n: int) -> tuple[int, ...]:
        return seq_prefix(self.as_pair(), n)

    def text(self) -> str:
        pre = ",".join(str(d) for d in self.preperiod)
        if self.is_finite:
            return pre
        return pre + ";" + ",".join(str(d) for d in self.period)


def validate_expansion_of_one(seq) -> ExpansionOfOne:
    """Validate a digit list (finite) or a (preperiod, period) pair.

    Raises InvalidSequence for shape problems and NotSelfDominant(k) when a
    shifted copy fails to be smaller than the sequence.
    """
    if isinstance(seq, ExpansionOfOne):
        return seq
    if isinstance(seq, str):
        return ExpansionOfOne.parse(seq)
    if isinstance(seq, tuple) and len(seq) == 2 and not isinstance(seq[0], int):
        return ExpansionOfOne.eventually_periodic(seq[0], seq[1])
    return ExpansionOfOne.finite(seq)


@dataclass(frozen=True)
class ModifiedExpansion:
    """eps*(1, beta): equal to eps(1, beta) when infinite, otherwise the
    finite expansion with its last digit decremented, repeated forever."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def as_pair(self) -> SeqPair:
        return (self.preperiod, self.period)

    def digit(self, i: int) -> int:
        return seq_digit(self.as_pair(), i)

    def digits_prefix(self, n: int) -> tuple[int, ...]:
        return seq_prefix(self.as_pair(), n)


def modified_expansion(e: ExpansionOfOne) -> ModifiedExpansion:
    if e.is_finite:
        digits = e.preperiod
        return ModifiedExpansion((), digits[:-1] + (digits[-1] - 1,))
    return ModifiedExpansion(e.preperiod, e.period)


def nonzero_sequence(e: ExpansionOfOne, upto: int) -> list[int]:
    """Positions i <= upto with a nonzero digit in eps(1, beta); starts at 1."""
    return [i for i, d in enumerate(e.digits_prefix(upto), start=1) if d]


def max_zero_run(e: ExpansionOfOne, n: int) -> int:
    """Length of the longest zero run among the first n digits of eps*(1, beta)."""
    best = run = 0
    for d in modified_expansion(e).digits_prefix(n):
        if d:
            run = 0
        else:
            run += 1
            best = max(best, run)
    return best


@dataclass(frozen=True)
class BetaInterval:
    """An exact rational interval certified to contain beta.

    lo == hi means beta is known exactly (a rational base, e.g. an integer).
    ``refine``, when present, returns a narrower certified interval for a
    requested width; intervals produced by solve_beta carry one.
    """

    lo: Fraction
    hi: Fraction
    refine: Callable[[Fraction], "BetaInterval"] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise InvalidSequence(f"beta interval [{self.lo}, {self.hi}] is not ordered or not > 1")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @classmethod
    def from_decimal(cls, text: str | Fraction, tol: Fraction | float | str = 0) -> "BetaInterval":
        center = Fraction(text)
        tol = Fraction(tol)
        if tol < 0:
            raise InvalidSequence("tolerance must be nonnegative")
        return cls(center - tol, center + tol)


def _root_polynomial(e: ExpansionOfOne) -> tuple[int, ...]:
    """Integer polynomial whose sign on b > 1 equals sum_n eps_n b^-n - 1.

    Finite form: multiply the power sum by b^M.  Eventually periodic form:
    multiply by b^P (b^Q - 1), positive for b > 1, clearing the geometric
    tail.  Entry i is the coefficient of b^i.
    """
    pre, per = e.preperiod, e.period
    if not per:
        m = len(pre)
        coeffs = [0] * (m + 1)
        coeffs[m] = -1
        for i, d in enumerate(pre, start=1):
            coeffs[m - i] += d
        return tuple(coeffs)
    p_len, q_len = len(pre), len(per)
    coeffs = [0] * (p_len + q_len + 1)
    coeffs[p_len + q_len] -= 1
    coeffs[p_len] += 1
    for i, d in enumerate(pre, start=1):
        coeffs[p_len - i + q_len] += d
        coeffs[p_len - i] -= d
    for j, d in enumerate(per, start=1):
        coeffs[q_len - j] += d
    return tuple(coeffs)


def _poly_sign_at_dyadic(coeffs: tuple[int, ...], num: int, k: int) -> int:
    """Sign of sum_i coeffs[i] x^i at x = num / 2^k, in integer arithmetic."""
    acc = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += k
        acc = acc * num + (c << shift)
    return (acc > 0) - (acc < 0)


def _poly_and_slope(coeffs: tuple[int, ...], num: int, k: int) -> tuple[int, int]:
    """p(x) 2^(kd) and p'(x) 2^(k(d-1)) at x = num / 2^k, p = sum_i
    coeffs[i] x^i of degree d; one Horner pass in integer arithmetic."""
    value, slope = coeffs[-1], 0
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += k
        slope = slope * num + value
        value = value * num + (c << shift)
    return value, slope


def _point_interval(value: Fraction) -> BetaInterval:
    return BetaInterval(value, value, lambda target: _point_interval(value))


# Bits bisected before Newton steps start, and bits each Newton step stays
# below doubling, so that the step's error (about |p''/2p'| times the
# squared bracket width) lands well inside one cell of the new level.
_NEWTON_FROM_BITS = 16
_NEWTON_SLACK_BITS = 4


def _dyadic_bisect(coeffs: tuple[int, ...], num_lo: int, k: int, target) -> BetaInterval:
    """Narrow the root's dyadic cell [num_lo, num_lo + 1] / 2^k until its
    width is at most target.

    Invariant: the polynomial is positive at num_lo / 2^k and negative at
    (num_lo + 1) / 2^k, and the root is its only one there.  Below
    _NEWTON_FROM_BITS each step bisects.  From there on each step is one
    integer Newton step from the cell's midpoint that nearly doubles the
    level, certified by the same sign test: the new cell must lie inside the
    old one, with + at its left end and - at its right end.  A step that
    fails the test, or meets a zero slope, falls back to bisecting by the
    midpoint's sign.  The cell at each level holding the root is unique, so
    the result (and its refine chain) is bit-identical to pure bisection;
    a midpoint that is the root gives the same point interval.
    """
    target = Fraction(target)
    if target <= 0:
        raise InvalidSequence("solve_beta tolerance must be positive")
    # the least level whose cell width 2^-top is at most target
    top = (-(-target.denominator // target.numerator) - 1).bit_length()
    while k < top:
        mid = 2 * num_lo + 1
        if k < _NEWTON_FROM_BITS:
            sign = _poly_sign_at_dyadic(coeffs, mid, k + 1)
        else:
            value, slope = _poly_and_slope(coeffs, mid, k + 1)
            sign = (value > 0) - (value < 0)
            step = min(max(2 * k - _NEWTON_SLACK_BITS, k + 1), top)
            if sign and slope:
                # x - p(x)/p'(x) at x = mid / 2^(k+1), floored at level step
                cell = ((mid * slope - value) << (step - k - 1)) // slope
                first, last = num_lo << (step - k), ((num_lo + 1) << (step - k)) - 1
                if (first <= cell <= last
                        and (cell == first or _poly_sign_at_dyadic(coeffs, cell, step) > 0)
                        and (cell == last or _poly_sign_at_dyadic(coeffs, cell + 1, step) < 0)):
                    num_lo, k = cell, step
                    continue
        if sign == 0:
            return _point_interval(Fraction(mid, 1 << (k + 1)))
        num_lo, k = mid if sign > 0 else mid - 1, k + 1
    refine = lambda t: _dyadic_bisect(coeffs, num_lo, k, t)
    return BetaInterval(Fraction(num_lo, 1 << k), Fraction(num_lo + 1, 1 << k), refine)


def solve_beta(e: ExpansionOfOne, tol: Fraction | float | str = Fraction(1, 10**12)) -> BetaInterval:
    """Bracket the unique beta > 1 with expansion of 1 equal to e.

    Narrows a dyadic cell of the cleared-denominator root polynomial from
    [eps_1, eps_1 + 1]: 16 bits by bisection, then certified Newton steps
    that each nearly double the bits, falling back to a bisection step when
    a step's cell fails the sign test.  The interval is the one plain
    bisection gives, with width <= tol (width 0 when the root is hit
    exactly), and carries a refine callback that resumes from it instead of
    restarting.
    """
    coeffs = _root_polynomial(e)
    base = e.alphabet_max
    # beta = eps_1 exactly only happens for the one-digit finite form
    if _poly_sign_at_dyadic(coeffs, base, 0) == 0:
        return _point_interval(Fraction(base))
    return _dyadic_bisect(coeffs, base, 0, tol)


def expansion_digits_from_beta(beta: BetaInterval, n: int) -> list[int]:
    """First n digits of eps(1, beta) for every beta in the interval.

    Each digit's floor is certified over the interval; an ambiguous floor
    triggers refinement (when the interval can refine itself) down to width
    2^-MAX_PRECISION, then raises PrecisionExhausted(position).
    """
    floor_width = Fraction(1, 2**MAX_PRECISION)
    while True:
        digits, ambiguous_at = _extract_digits(beta, n, commit_boundary=False)
        if ambiguous_at is None:
            return digits
        if beta.refine is None or beta.width <= floor_width:
            break
        target = max(beta.width / 2**16, floor_width)
        beta = beta.refine(target)
    # Refinement is unavailable or exhausted, so the interval pins beta
    # against a discontinuity of the digit map.  A floor straddling a single
    # integer is resolved by committing to the boundary: the greedy map takes
    # the upper branch when beta*x lands exactly on an integer, so this yields
    # the digits of the boundary number itself (the natural reading when the
    # input is a rounded simple Parry number).  Wider straddles stay errors.
    digits, ambiguous_at = _extract_digits(beta, n, commit_boundary=True)
    if ambiguous_at is None:
        return digits
    raise PrecisionExhausted(ambiguous_at)


def _extract_digits(beta: BetaInterval, n: int, commit_boundary: bool) -> tuple[list[int], int | None]:
    xlo, xhi = Fraction(1), Fraction(1)
    digits: list[int] = []
    for i in range(1, n + 1):
        ylo, yhi = xlo * beta.lo, xhi * beta.hi
        d = math.floor(ylo)
        top = math.floor(yhi)
        if top != d:
            if not (commit_boundary and top == d + 1):
                return digits, i
            d = top
        digits.append(d)
        xlo, xhi = max(Fraction(0), ylo - d), yhi - d
    return digits, None
