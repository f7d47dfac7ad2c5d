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
from beta_words.expansion import _one_minus_power_sum


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
        got = expansion_digits_from_beta(beta, 30, max_precision=512)
        assert got == eps_prefix(e, 30), e.text()


def test_env_precision_cap(monkeypatch):
    monkeypatch.setenv("BETA_WORDS_MAX_PRECISION", "not-a-number")
    with pytest.raises(InvalidSequence):
        expansion_digits_from_beta(BetaInterval.from_decimal("2.5"), 2)
