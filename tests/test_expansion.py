"""Digit sequence validation, beta solving, and digit extraction."""

from fractions import Fraction

import pytest

from beta_words import (
    BetaInterval,
    ExpansionOfOne,
    InvalidSequence,
    NotSelfDominant,
    PrecisionExhausted,
    expansion_digits_from_beta,
    max_zero_run,
    modified_expansion,
    nonzero_sequence,
    solve_beta,
    validate_expansion_of_one,
)
from beta_words import DEFAULT_CORPUS
from beta_words import expansion as expansion_mod
from beta_words.expansion import _one_minus_power_sum, _point_interval, _poly_and_slope, _root_polynomial


GOLDEN = ExpansionOfOne.parse("1,1")
TRIBONACCI = ExpansionOfOne.parse("1,1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")


def eps_prefix(e, n):
    pre, per = e.preperiod, e.period
    out = []
    for i in range(n):
        if i < len(pre):
            out.append(pre[i])
        elif per:
            out.append(per[(i - len(pre)) % len(per)])
        else:
            out.append(0)
    return out


def test_parse_finite_strips_trailing_zeros():
    e = ExpansionOfOne.parse("2,1,0,0")
    assert e.preperiod == (2, 1)
    assert e.period == ()
    assert e.is_finite


def test_parse_periodic():
    e = ExpansionOfOne.parse("3,0,0,2;0,0,0,2")
    assert e.preperiod == (3, 0, 0, 2)
    assert e.period == (0, 0, 0, 2)
    assert not e.is_finite


@pytest.mark.parametrize(
    "text",
    ["", "0,1", "1", "-1,0", "1,1;0"],
)
def test_rejected_shapes(text):
    with pytest.raises(InvalidSequence):
        ExpansionOfOne.parse(text)


def test_digit_above_first_is_shift_violation():
    # 1,2 shifted by one starts with 2 > 1, so the failure is reported as a
    # shifted-comparison violation at k=1, not as a separate alphabet error
    with pytest.raises(NotSelfDominant) as info:
        ExpansionOfOne.parse("1,2")
    assert info.value.shift == 1


def test_purely_periodic_is_rejected():
    # sigma^Q of a purely periodic sequence equals the sequence itself
    with pytest.raises(NotSelfDominant) as info:
        ExpansionOfOne.parse("2,1;2,1")
    assert info.value.shift == 2


def test_self_dominance_counterexample():
    # shift by 5 gives 1,0,0,0,1,... > 1,0,0,0,0,...
    with pytest.raises(NotSelfDominant) as info:
        ExpansionOfOne.parse("1,0;0,0,0,1")
    assert info.value.shift == 5


def test_validate_accepts_many_forms():
    assert validate_expansion_of_one("1,1") == GOLDEN
    assert validate_expansion_of_one([1, 1]) == GOLDEN
    assert validate_expansion_of_one(((3, 0, 0, 2), (0, 0, 0, 2))).period == (0, 0, 0, 2)
    assert validate_expansion_of_one(GOLDEN) is GOLDEN


def test_modified_expansion_finite():
    # finite 30200001 -> (eps_1..eps_{M-1}, eps_M - 1) repeated
    star = modified_expansion(PEARL).digits_prefix(16)
    assert list(star) == [3, 0, 2, 0, 0, 0, 0, 0] * 2


def test_modified_expansion_infinite_is_expansion_itself():
    e = ExpansionOfOne.parse("3,0,0,2;0,0,0,2")
    assert list(modified_expansion(e).digits_prefix(10)) == eps_prefix(e, 10)


def test_nonzero_sequence():
    assert nonzero_sequence(PEARL, 8) == [1, 3, 8]
    assert nonzero_sequence(ExpansionOfOne.parse("1,0,1,0,0,0,1"), 7) == [1, 3, 7]


@pytest.mark.parametrize("text", ["3,0,2,0,0,0,0,1", "3,0,0,2;0,0,0,2"])
def test_digit_positions_start_at_one(text):
    e = ExpansionOfOne.parse(text)
    assert e.digit(1) == 3
    for i in (0, -1):
        with pytest.raises(ValueError):
            e.digit(i)
        with pytest.raises(ValueError):
            modified_expansion(e).digit(i)


def test_max_zero_run_uses_modified_expansion():
    # eps* of 1,1 is (10)^inf: longest zero gap in any window of length n
    assert max_zero_run(GOLDEN, 1) == 0
    assert max_zero_run(GOLDEN, 4) == 1
    assert max_zero_run(PEARL, 10) == 5


def test_solve_beta_brackets_root():
    for e in (GOLDEN, TRIBONACCI, PEARL, ExpansionOfOne.parse("3,0,0,2;0,0,0,2")):
        beta = solve_beta(e, Fraction(1, 10**12))
        assert beta.hi - beta.lo <= Fraction(1, 10**12)
        if beta.lo == beta.hi:
            assert _one_minus_power_sum(e, beta.lo) == 0
        else:
            assert _one_minus_power_sum(e, beta.lo) > 0 > _one_minus_power_sum(e, beta.hi)


def test_solve_beta_golden_value():
    beta = solve_beta(GOLDEN, Fraction(1, 10**15))
    assert abs(float(beta.lo) - (1 + 5 ** 0.5) / 2) < 1e-14


def test_solve_beta_integer_base_is_exact():
    beta = solve_beta(ExpansionOfOne.parse("4"), Fraction(1, 10))
    assert beta.lo == beta.hi == 4
    beta = solve_beta(ExpansionOfOne.parse("4"), Fraction(1, 2**200))
    assert beta.lo == beta.hi == beta.refine(Fraction(1, 2**300)).lo == 4


def test_refine_narrows_and_keeps_bracket():
    beta = solve_beta(TRIBONACCI, Fraction(1, 1000))
    tighter = beta.refine(Fraction(1, 10**9))
    assert beta.lo <= tighter.lo <= tighter.hi <= beta.hi
    assert tighter.width <= Fraction(1, 10**9)


def test_digits_from_exact_rational():
    assert expansion_digits_from_beta(BetaInterval.from_decimal("2.5"), 3) == [2, 1, 0]
    assert expansion_digits_from_beta(BetaInterval.from_decimal("3.0"), 3) == [3, 0, 0]


def test_digits_from_interval_straddling_golden():
    beta = BetaInterval(Fraction("1.61803"), Fraction("1.61804"))
    assert expansion_digits_from_beta(beta, 4) == [1, 1, 0, 0]


def test_digits_wide_interval_exhausts():
    with pytest.raises(PrecisionExhausted) as info:
        expansion_digits_from_beta(BetaInterval(Fraction(2), Fraction(4)), 3)
    assert info.value.position == 1


def test_round_trip_digits(corpus_members):
    for e in corpus_members:
        beta = solve_beta(e, Fraction(1, 10**15))
        got = expansion_digits_from_beta(beta, 30)
        assert got == eps_prefix(e, 30), e.text()


def test_precision_env_variable_is_ignored(monkeypatch):
    # refinement stops at the fixed 4096-bit cap; a 1-bit cap would give
    # wrong digits for 1,1 and exhaust on 2;1, so no variable may set one
    members = [ExpansionOfOne.parse(text) for text in ("1,1", "2;1")]
    cases = [(solve_beta(e, Fraction(1, 2**8)), 40) for e in members]
    cases.append((BetaInterval.from_decimal("2.5"), 2))
    want = [eps_prefix(e, 40) for e in members] + [[2, 1]]
    assert [expansion_digits_from_beta(beta, n) for beta, n in cases] == want
    for value in ("not-a-number", "1"):
        monkeypatch.setenv("BETA_WORDS_MAX_PRECISION", value)
        assert [expansion_digits_from_beta(beta, n) for beta, n in cases] == want


# --- certified Newton steps against the plain bisection they replace ---


SOLVE_SPECS = list(DEFAULT_CORPUS) + ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1"]
TOL_BITS = [8, 15, 16, 17, 40, 100, 333, 1112, 2200]


def bisect_oracle(coeffs, num_lo, k, target):
    """The plain one-bit-per-step bisection solve_beta used before Newton steps."""
    target = Fraction(target)
    if target <= 0:
        raise InvalidSequence("solve_beta tolerance must be positive")
    while Fraction(1, 1 << k) > target:
        num_lo, k = 2 * num_lo, k + 1
        sign = expansion_mod._poly_sign_at_dyadic(coeffs, num_lo + 1, k)
        if sign == 0:
            return _point_interval(Fraction(num_lo + 1, 1 << k))
        if sign > 0:
            num_lo += 1
    refine = lambda t: bisect_oracle(coeffs, num_lo, k, t)
    return BetaInterval(Fraction(num_lo, 1 << k), Fraction(num_lo + 1, 1 << k), refine)


def solve_oracle(e, tol):
    coeffs = _root_polynomial(e)
    if expansion_mod._poly_sign_at_dyadic(coeffs, e.alphabet_max, 0) == 0:
        return _point_interval(Fraction(e.alphabet_max))
    return bisect_oracle(coeffs, e.alphabet_max, 0, tol)


def assert_same_chain(e, tol_bits):
    """Equal brackets at 2^-tol_bits and along a chain of refines from them."""
    got, want = solve_beta(e, Fraction(1, 2**tol_bits)), solve_oracle(e, Fraction(1, 2**tol_bits))
    assert (got.lo, got.hi) == (want.lo, want.hi), (e.text(), tol_bits)
    for extra in (1, 20, 150):
        target = got.width / 2**extra
        got, want = got.refine(target), want.refine(target)
        assert (got.lo, got.hi) == (want.lo, want.hi), (e.text(), tol_bits, extra)


@pytest.mark.parametrize("text", SOLVE_SPECS)
def test_solve_beta_matches_bisection(text):
    e = ExpansionOfOne.parse(text)
    for bits in TOL_BITS:
        assert_same_chain(e, bits)
    assert solve_beta(e, Fraction(3, 7)) == solve_oracle(e, Fraction(3, 7))


def test_solve_beta_rejects_bad_tolerance():
    for tol in (0, -1):
        with pytest.raises(InvalidSequence, match="tolerance must be positive"):
            solve_beta(GOLDEN, tol)
        with pytest.raises(InvalidSequence, match="tolerance must be positive"):
            solve_beta(GOLDEN, Fraction(1, 10)).refine(tol)


def newton_levels(monkeypatch):
    """Record the level k + 1 of every Newton evaluation at a cell midpoint."""
    levels = []
    real = expansion_mod._poly_and_slope

    def spy(coeffs, num, k):
        levels.append(k)
        return real(coeffs, num, k)

    monkeypatch.setattr(expansion_mod, "_poly_and_slope", spy)
    return levels


def test_newton_fallback_is_taken_and_exact(monkeypatch):
    # at level 389 the Newton cell for this member fails the sign test; the
    # step bisects once and the next Newton step starts from level 390
    e = ExpansionOfOne.parse("1,0,0,0,0,1;0,0,0,0,0,1")
    levels = newton_levels(monkeypatch)
    assert_same_chain(e, 1112)
    steps = [b - a for a, b in zip(levels, levels[1:])]
    assert 1 in steps
    assert levels[0] == expansion_mod._NEWTON_FROM_BITS + 1


def test_zero_slope_falls_back_to_bisection(monkeypatch):
    # tribonacci's polynomial 1 + b + b^2 - b^3 has slope 0 at b = eps_1 = 1
    coeffs = _root_polynomial(TRIBONACCI)
    assert coeffs == (1, 1, 1, -1)
    assert _poly_and_slope(coeffs, 1, 0) == (2, 0)
    # Newton from the very first cell [1, 2] still gives bisection's brackets
    monkeypatch.setattr(expansion_mod, "_NEWTON_FROM_BITS", 0)
    for text in SOLVE_SPECS:
        for bits in (3, 40, 700):
            assert_same_chain(ExpansionOfOne.parse(text), bits)
    # a zero slope at every step degrades to bisection, with the same brackets
    real = expansion_mod._poly_and_slope
    monkeypatch.setattr(expansion_mod, "_poly_and_slope", lambda c, num, k: (real(c, num, k)[0], 0))
    for text in ("1,1,1", "1,0,0,0,0,1;0,0,0,0,0,1", "3,0,2,0,0,0,0,1"):
        assert_same_chain(ExpansionOfOne.parse(text), 300)


@pytest.mark.parametrize("num,k", [(0, 0), (1, 0), (3, 1), (5, 3), (-7, 2), (123456789, 40)])
def test_poly_and_slope_scaling(num, k):
    coeffs = _root_polynomial(PEARL)
    d = len(coeffs) - 1
    x = Fraction(num, 2**k)
    value, slope = _poly_and_slope(coeffs, num, k)
    assert value == sum(c * x**i for i, c in enumerate(coeffs)) * 2 ** (k * d)
    assert slope == sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i) * 2 ** (k * (d - 1))


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_solve_beta_evaluation_count(text, monkeypatch):
    # plain bisection makes one sign test per bit; the Newton steps must stay
    # under a tenth of that, counting their own evaluations too
    calls = [0]
    sign, slope = expansion_mod._poly_sign_at_dyadic, expansion_mod._poly_and_slope

    def counted(real):
        def wrapper(*args):
            calls[0] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(expansion_mod, "_poly_sign_at_dyadic", counted(sign))
    monkeypatch.setattr(expansion_mod, "_poly_and_slope", counted(slope))
    e = ExpansionOfOne.parse(text)
    solve_oracle(e, Fraction(1, 2**1112))
    bisection = calls[0]
    calls[0] = 0
    solve_beta(e, Fraction(1, 2**1112))
    assert bisection == 1113
    assert calls[0] < bisection / 10


def convex_quadratic(root):
    """(x - root)(x - 5) with integer coefficients: convex, decreasing on [1, 2]."""
    scale = root.denominator
    return (int(5 * root * scale), int(-(root + 5) * scale), scale)


# Polynomials with one root in [1, 2], positive at 1.  Newton overshoots on
# the concave root polynomials of expansions and undershoots on convex ones:
# at 7/4 + 2^-19 an undershoot lands in the cell just below 7/4, inside the
# old cell, and only the right-end sign rejects it.  A dyadic root is hit
# exactly by the linear polynomial's Newton step (level 20) and appears as a
# candidate cell's right end at 3/2 + 2^-20.  From the midpoint 3/2 of
# [1, 2] the quartic's Newton step jumps to a cell around another of its
# roots, outside the bracket.
SYNTHETIC = [
    (7, -6, 1),
    convex_quadratic(Fraction(7, 4) + Fraction(1, 2**19)),
    convex_quadratic(Fraction(3, 2) + Fraction(1, 2**20)),
    ((1 << 20) + 12345, -(1 << 20)),
    (5, -13, -9, 29, -11),
]


@pytest.mark.parametrize("coeffs", SYNTHETIC)
@pytest.mark.parametrize("newton_from", [0, 5, 16])
def test_newton_matches_bisection_on_synthetic_roots(coeffs, newton_from, monkeypatch):
    monkeypatch.setattr(expansion_mod, "_NEWTON_FROM_BITS", newton_from)
    for bits in (1, 2, 3, 8, 19, 20, 21, 25, 60, 300):
        got = expansion_mod._dyadic_bisect(coeffs, 1, 0, Fraction(1, 2**bits))
        want = bisect_oracle(coeffs, 1, 0, Fraction(1, 2**bits))
        assert (got.lo, got.hi) == (want.lo, want.hi), bits
        for extra in (1, 7, 90):
            got, want = got.refine(got.width / 2**extra), want.refine(want.width / 2**extra)
            assert (got.lo, got.hi) == (want.lo, want.hi), (bits, extra)
    root = Fraction((1 << 20) + 12345, 1 << 20)
    assert expansion_mod._dyadic_bisect(SYNTHETIC[3], 1, 0, Fraction(1, 2**40)).lo == root
