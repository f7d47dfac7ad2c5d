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
from collections.abc import Callable, Sequence
from fractions import Fraction
from operator import attrgetter

from .errors import InvalidSequence, NotSelfDominant, PrecisionExhausted, VerificationError

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


class Frozen:
    """Base of the package's immutable values.

    A subclass lists its fields in ``__slots__``, in constructor order.  Two
    values are equal, and hash alike, when their types are the same and their
    fields are equal; the repr reads ``Word(digits=(1, 0))``.  Fields cannot
    be set or deleted once built.  Class keywords: ``derived`` names slots
    that construction fills from the fields, and ``hidden`` names fields left
    out of equality, hashing and repr.
    """

    __slots__ = ()

    def __init_subclass__(cls, derived=(), hidden=()):
        cls._fields = tuple(name for name in cls.__slots__ if name not in derived)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        # rebuild through the constructor: restoring the slots one by one
        # would go through __setattr__, which refuses
        return type(self), tuple(getattr(self, name) for name in self._fields)


class ExpansionOfOne(Frozen, derived=("_hash",)):
    """A validated expansion of 1: eps(1, beta) for some beta > 1.

    Finite expansions (digit at position M nonzero, zeros after) carry an
    empty period.  Construction validates shape and the shifted-comparison
    condition sigma^k(seq) < seq for every k >= 1, checked for k up to one
    full cycle past the preperiod in one pass over the first 2 L digits,
    L = preperiod + cycle length: sigma^k(seq) and seq agree everywhere once
    they agree on L digits.
    """

    __slots__ = ("preperiod", "period", "_hash")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        digits = preperiod + period
        if not digits:
            raise InvalidSequence("empty digit sequence")
        if any(not isinstance(d, int) or d < 0 for d in digits):
            raise InvalidSequence("digits must be nonnegative integers")
        if digits[0] == 0:
            raise InvalidSequence("leading zero: eps_1 = floor(beta) must be >= 1")
        if period:
            if not any(period):
                raise InvalidSequence("period of zeros: use the finite form instead")
        else:
            if preperiod[-1] == 0:
                raise InvalidSequence("finite expansion must end in a nonzero digit")
            if preperiod == (1,):
                raise InvalidSequence("sequence 1,0,0,... solves beta = 1, which is not a base")
        Frozen.__init__(self, preperiod, period)
        span = len(preperiod) + max(len(period), 1)
        seq = seq_prefix(self.as_pair(), 2 * span)
        # lcp: the length of the common prefix of sigma^k(seq) and seq.  When
        # k passes, every k + j with 0 < j < lcp passes too: sigma^(k+j)(seq)
        # falls below sigma^j(seq) at the digit where sigma^k(seq) falls below
        # seq, and sigma^j(seq) < seq as j < k passed.  So the next k to
        # compare is k + lcp, and each digit is matched at most once.
        k = 1
        while k <= span:
            lcp = 0
            while lcp < span and seq[k + lcp] == seq[lcp]:
                lcp += 1
            if lcp == span or seq[k + lcp] > seq[lcp]:
                raise NotSelfDominant(k)
            k += lcp or 1
        object.__setattr__(self, "_hash", hash((preperiod, period)))

    def __hash__(self):
        return self._hash

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


class ModifiedExpansion(Frozen):
    """eps*(1, beta): equal to eps(1, beta) when infinite, otherwise the
    finite expansion with its last digit decremented, repeated forever."""

    __slots__ = ("preperiod", "period")

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


class BetaInterval(Frozen, hidden=("refine",)):
    """An exact rational interval certified to contain beta.

    lo == hi means beta is known exactly (a rational base, e.g. an integer).
    ``refine``, when present, returns a narrower certified interval for a
    requested width; intervals produced by solve_beta carry one.
    """

    __slots__ = ("lo", "hi", "refine")

    def __init__(self, lo: Fraction, hi: Fraction, refine: Callable[[Fraction], BetaInterval] | None = None):
        if not (1 <= lo <= hi):
            raise InvalidSequence(f"beta interval [{lo}, {hi}] is not ordered or not > 1")
        Frozen.__init__(self, lo, hi, refine)

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


def _newton_bracket(coeffs: tuple[int, ...], pre: int, per: int, num_lo: int, k: int, target) -> BetaInterval:
    """Narrow the root's dyadic cell [num_lo, num_lo + 1] / 2^k to width <= target.

    The root polynomial is p = -w g, with g(x) = 1 - sum_n eps_n x^-n and
    w(x) = x^pre (x^per - 1), or x^pre when per = 0.  Each term of g is
    increasing and concave on x > 0, so g lies below its tangents and a
    Newton step for g, g/g' = p / (p' - p w'/w), taken from a point below
    beta lands below beta again.  Each round signs the right end, except the
    first, whose cell is known to end past beta (solve_beta's start cell, or
    a bracket this function made, which refine resumes): one still
    below beta becomes the left end; one past beta at the target level ends
    the loop; otherwise the Newton step from the left end, floored at level
    2m + 1 for a step of about 2^-m (which leaves about 2^-2m), between k + 1
    and the target, is the next left end; a step of 0 (x = 1, where w = 0)
    takes level 2k + 1.  The final left end is signed too, so the bracket is
    certified as bisection's is; the root's cell at each level is unique, so
    the result and its refine chain are bit-identical to bisection's.  No
    cell end is the root: p is monic up to sign, so its rational roots are
    integers, and eps_1 < beta < eps_1 + 1.
    """
    target = Fraction(target)
    if target <= 0:
        raise InvalidSequence("solve_beta tolerance must be positive")
    # the least level whose cell width 2^-top is at most target
    top = (-(-target.denominator // target.numerator) - 1).bit_length()
    signed = True  # the right end lies past beta
    while True:
        if not signed and _poly_sign_at_dyadic(coeffs, num_lo + 1, k) > 0:
            num_lo += 1
        elif k >= top:
            break
        signed = False
        value, slope = _poly_and_slope(coeffs, num_lo, k)
        # x w'(x) / w(x) = a / b at x = num_lo / 2^k
        if per:
            power = num_lo**per
            b = power - (1 << k * per)
            a = pre * b + per * power
        else:
            a, b = pre, 1
        # the step lands at x (denom + value b) / denom, where denom is
        # (p x w'/w - p' x) b 2^(kd) = w g' x b 2^(kd) > 0 for x > 1
        denom = value * a - slope * num_lo * b
        if value <= 0 or denom <= 0:
            raise VerificationError(f"root polynomial step at {num_lo}/2^{k}: value {value}, denominator {denom}")
        move = num_lo * value * b
        m = k + denom.bit_length() - move.bit_length()
        step = min(max(k + 1, 2 * m + 1) if move else 2 * k + 1, top)
        num_lo, k = (num_lo * (denom + value * b) << (step - k)) // denom, step
    if _poly_sign_at_dyadic(coeffs, num_lo, k) <= 0:
        raise VerificationError(f"root polynomial is not positive at the bracket's left end {num_lo}/2^{k}")
    refine = lambda t: _newton_bracket(coeffs, pre, per, num_lo, k, t)
    return BetaInterval(Fraction(num_lo, 1 << k), Fraction(num_lo + 1, 1 << k), refine)


def solve_beta(e: ExpansionOfOne, tol: Fraction | float | str = Fraction(1, 10**12)) -> BetaInterval:
    """Bracket the unique beta > 1 with expansion of 1 equal to e.

    Narrows a dyadic cell of the cleared-denominator root polynomial from
    [eps_1, eps_1 + 1] by integer Newton steps for the increasing, concave
    g(x) = 1 - sum_n eps_n x^-n, which from below never pass beta and about
    double the bits each.  The interval is the one plain bisection gives,
    with width <= tol (width 0 when the root is hit exactly), and carries a
    refine callback that resumes from it instead of restarting.
    """
    coeffs = _root_polynomial(e)
    base = e.alphabet_max
    # beta = eps_1 exactly only happens for the one-digit finite form
    if _poly_sign_at_dyadic(coeffs, base, 0) == 0:
        return _point_interval(Fraction(base))
    return _newton_bracket(coeffs, len(e.preperiod), len(e.period), base, 0, tol)


def expansion_digits_from_beta(beta: BetaInterval, n: int) -> list[int]:
    """First n digits of eps(1, beta) for every beta in the interval.

    One pass of the greedy map (_extract_digits), linear in n for an
    interval of positive width, certifies each digit's floor over the
    interval.  An ambiguous floor triggers refinement (when the interval can
    refine itself) down to width 2^-MAX_PRECISION.  Past that, a floor that straddles one integer is read
    as its boundary: that digit is the upper one and every later digit is 0,
    the digits of the beta on the boundary (a decimal input rounded from a
    simple Parry number reads as that number); only the digits before it
    hold for the whole interval.  A wider straddle raises
    PrecisionExhausted(position).
    """
    floor_width = Fraction(1, 2**MAX_PRECISION)
    while True:
        digits, straddle = _extract_digits(beta, n)
        if straddle is None:
            return digits
        if beta.refine is None or beta.width <= floor_width:
            break
        target = max(beta.width / 2**16, floor_width)
        beta = beta.refine(target)
    # Refinement is unavailable or exhausted, so the interval pins beta
    # against a discontinuity of the digit map.  A floor straddling a single
    # integer is resolved by committing to the boundary: the greedy map takes
    # the upper branch when beta*x lands exactly on an integer, whose
    # remainder is 0, so every later digit is 0.  This yields the digits of
    # the boundary number itself (the natural reading when the input is a
    # rounded simple Parry number).  Wider straddles stay errors.
    position, low, top = straddle
    if top != low + 1:
        raise PrecisionExhausted(position)
    return digits + [top] + [0] * (n - position)


def _extract_digits(beta: BetaInterval, n: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """The first n digits of eps(1, beta) over the interval, and None; or
    the digits before the first floor that straddles an integer, and that
    floor's (position, lower floor, upper floor).

    A point interval steps its one remainder exactly and never straddles.  A
    wider one keeps the remainders' enclosure in fixed point at p bits,
    flooring its low end and ceiling its high end, so a step costs p-bit
    products instead of exact fractions whose denominators grow every digit.
    Rounding only widens the enclosure, so every digit holds for the whole
    interval.  p adds the bits of 1/width, of 1/(beta.lo - 1) (1/width when
    beta.lo is nearer 1), twice those of the largest digit plus one, and 64
    guard bits, which keep the widening far below the interval's own width.
    """
    if beta.lo == beta.hi:
        x, digits = Fraction(1), []
        for _ in range(n):
            x *= beta.lo
            digits.append(math.floor(x))
            x -= digits[-1]
        return digits, None
    width = beta.width
    p = (math.ceil(1 / width).bit_length() + math.ceil(1 / max(beta.lo - 1, width)).bit_length()
         + 2 * (math.floor(beta.hi) + 1).bit_length() + 64)
    lo, hi = math.floor(beta.lo * 2**p), math.ceil(beta.hi * 2**p)
    xlo = xhi = 1 << p
    digits = []
    for i in range(1, n + 1):
        ylo, yhi = xlo * lo >> p, -(-xhi * hi >> p)
        d, top = ylo >> p, yhi >> p
        if top != d:
            return digits, (i, d, top)
        digits.append(d)
        xlo, xhi = ylo - (d << p), yhi - (d << p)
    return digits, None
