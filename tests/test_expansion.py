"""Digit sequence validation, beta solving, and digit extraction."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from beta_words import (
    BetaInterval,
    ExpansionOfOne,
    InvalidSequence,
    NotSelfDominant,
    PrecisionExhausted,
    VerificationError,
    expansion_digits_from_beta,
    max_zero_run,
    modified_expansion,
    nonzero_sequence,
    solve_beta,
    validate_expansion_of_one,
)
from beta_words import DEFAULT_CORPUS
from beta_words import expansion as expansion_mod
from beta_words.expansion import _point_interval, _poly_and_slope, _root_polynomial
from beta_words.structure import DEFAULT_TOL, _bits_for


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


def first_dominating_shift(pre, per):
    """The least k >= 1 with sigma^k(seq) >= seq, or None: each shift
    compared from scratch over the L = preperiod + cycle digits after which
    two such sequences agree everywhere (the quadratic check)."""
    span = len(pre) + max(len(per), 1)
    digits = list(pre) + [per[(i - len(pre)) % len(per)] if per else 0 for i in range(len(pre), 2 * span)]
    return next((k for k in range(1, span + 1) if digits[k:k + span] >= digits[:span]), None)


def test_self_dominance_matches_the_quadratic_check():
    """Every preperiod of up to 4 and period of up to 3 digits in 0..2 that
    passes the shape checks: the one-pass check accepts exactly when no
    shift dominates, and otherwise names the least such shift."""
    accepted = 0
    for pre in itertools.chain.from_iterable(itertools.product(range(3), repeat=m) for m in range(5)):
        for per in itertools.chain.from_iterable(itertools.product(range(3), repeat=m) for m in range(4)):
            if not (pre + per) or (pre + per)[0] == 0 or (per and not any(per)) \
                    or (not per and (pre[-1] == 0 or pre == (1,))):
                continue
            want = first_dominating_shift(pre, per)
            if want is None:
                ExpansionOfOne(pre, per)
                accepted += 1
            else:
                with pytest.raises(NotSelfDominant) as info:
                    ExpansionOfOne(pre, per)
                assert info.value.shift == want, (pre, per)
    assert accepted > 100


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


def power_sum_minus_one(e, b):
    """f(b) = sum_n eps_n b^(-n) - 1, exactly; decreasing in b, zero at beta."""
    pre, per = e.preperiod, e.period
    total = Fraction(0)
    for i, d in enumerate(pre, start=1):
        if d:
            total += Fraction(d) / b**i
    if per:
        q = len(per)
        tail = sum(Fraction(d) * b ** (q - j) for j, d in enumerate(per, start=1))
        total += tail / (b ** len(pre) * (b**q - 1))
    return total - 1


def test_solve_beta_brackets_root():
    for e in (GOLDEN, TRIBONACCI, PEARL, ExpansionOfOne.parse("3,0,0,2;0,0,0,2")):
        beta = solve_beta(e, Fraction(1, 10**12))
        assert beta.hi - beta.lo <= Fraction(1, 10**12)
        if beta.lo == beta.hi:
            assert power_sum_minus_one(e, beta.lo) == 0
        else:
            assert power_sum_minus_one(e, beta.lo) > 0 > power_sum_minus_one(e, beta.hi)


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


def test_digits_after_a_boundary_commit_are_zero():
    """The golden interval straddles 1 at digit 2; every later digit is that
    boundary number's, 0, not the interval's upper end's."""
    beta = BetaInterval(Fraction("1.61803"), Fraction("1.61804"))
    assert expansion_digits_from_beta(beta, 60) == [1, 1] + [0] * 58


def test_digits_wide_interval_exhausts():
    with pytest.raises(PrecisionExhausted) as info:
        expansion_digits_from_beta(BetaInterval(Fraction(2), Fraction(4)), 3)
    assert info.value.position == 1


def exact_digits_oracle(lo, hi, n):
    """The greedy map on the exact enclosure of the remainders: the digits
    and None, or the digits before the first straddling floor and (its
    position, its lower floor, its upper floor)."""
    xlo = xhi = Fraction(1)
    digits = []
    for i in range(1, n + 1):
        ylo, yhi = xlo * lo, xhi * hi
        if math.floor(ylo) != math.floor(yhi):
            return digits, (i, math.floor(ylo), math.floor(yhi))
        digits.append(math.floor(ylo))
        xlo, xhi = ylo - digits[-1], yhi - digits[-1]
    return digits, None


def test_fixed_point_digits_match_exact_fractions():
    """Random decimal intervals of widths 1e-3 to 1e-40 about centres in
    (1, 4], and a few named ones: the fixed-point pass gives the exact
    enclosure's digits and straddle."""
    rng = random.Random(30)
    cases = []
    for _ in range(300):
        k = rng.randint(3, 40)
        centre = Fraction(rng.randint(10**k + 1, 4 * 10**k), 10**k)
        half = Fraction(1, 10**rng.randint(3, 40))
        cases.append((max(Fraction(1), centre - half), centre + half, rng.randint(1, 199)))
    for text in ("1.5", "2.5", "3.0", "1.0000001", "1.618033988749"):
        cases.append((Fraction(text) - DEFAULT_TOL, Fraction(text) + DEFAULT_TOL, 150))
    cases += [(Fraction(1), Fraction(3, 2), 5), (Fraction(2), Fraction(4), 5)]
    straddles = 0
    for lo, hi, n in cases:
        want = exact_digits_oracle(lo, hi, n)
        assert expansion_mod._extract_digits(BetaInterval(lo, hi), n) == want, (lo, hi, n)
        straddles += want[1] is not None
    assert 0 < straddles < len(cases)


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


THOUSANDS = ",".join(["1000"] * 15 + ["1"])  # beta just below the integer 1001
SOLVE_SPECS = list(DEFAULT_CORPUS) + ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1", THOUSANDS, "1000;" + THOUSANDS]
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


@pytest.mark.parametrize("fault", ["zero slope", "doubled slope", "negated value"])
def test_faulty_newton_step_returns_bisection_bracket_or_raises(fault, monkeypatch):
    # the final bracket is signed by _poly_sign_at_dyadic, so a wrong value
    # or slope may cost steps or raise, but never moves the bracket
    real = expansion_mod._poly_and_slope
    faulty = {
        "zero slope": lambda value, slope: (value, 0),
        "doubled slope": lambda value, slope: (value, 2 * slope),
        "negated value": lambda value, slope: (-value, slope),
    }[fault]
    monkeypatch.setattr(expansion_mod, "_poly_and_slope", lambda c, num, k: faulty(*real(c, num, k)))
    for text in SOLVE_SPECS:
        e = ExpansionOfOne.parse(text)
        for bits in (40, 300, 1112):
            want = solve_oracle(e, Fraction(1, 2**bits))
            try:
                got = solve_beta(e, Fraction(1, 2**bits))
            except VerificationError:
                continue
            assert (got.lo, got.hi) == (want.lo, want.hi), (text, bits)


@pytest.mark.parametrize("num,k", [(0, 0), (1, 0), (3, 1), (5, 3), (-7, 2), (123456789, 40)])
def test_poly_and_slope_scaling(num, k):
    coeffs = _root_polynomial(PEARL)
    d = len(coeffs) - 1
    x = Fraction(num, 2**k)
    value, slope = _poly_and_slope(coeffs, num, k)
    assert value == sum(c * x**i for i, c in enumerate(coeffs)) * 2 ** (k * d)
    assert slope == sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i) * 2 ** (k * (d - 1))


def count_evaluations(monkeypatch):
    """Count the calls of both root-polynomial evaluators in calls[0]."""
    calls = [0]

    def counted(real):
        def wrapper(*args):
            calls[0] += 1
            return real(*args)
        return wrapper

    for name in ("_poly_sign_at_dyadic", "_poly_and_slope"):
        monkeypatch.setattr(expansion_mod, name, counted(getattr(expansion_mod, name)))
    return calls


# Newton steps double the bits, so a solve costs about 2 log2(bits)
# evaluations; bisection costs one per bit
MAX_EVALUATIONS = 48


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_solve_beta_evaluation_count(text, monkeypatch):
    calls = count_evaluations(monkeypatch)
    e = ExpansionOfOne.parse(text)
    solve_oracle(e, Fraction(1, 2**1112))
    assert calls[0] == 1113
    calls[0] = 0
    solve_beta(e, Fraction(1, 2**1112))
    assert calls[0] <= MAX_EVALUATIONS


@pytest.mark.parametrize("digit", [1000, 2])
def test_solve_beta_evaluation_count_near_an_integer(digit, monkeypatch):
    # beta lies just below digit + 1, and the cylinder arithmetic at
    # verify's n = 12 solves it to 2,800 and 624 bits
    e = ExpansionOfOne.parse(",".join([str(digit)] * 255 + ["1"]))
    calls = count_evaluations(monkeypatch)
    solve_beta(e, Fraction(1, 2 ** (_bits_for(e, 12, DEFAULT_TOL) - 16)))
    assert calls[0] <= MAX_EVALUATIONS


def newton_levels(monkeypatch):
    """The level k of every Newton round (_poly_and_slope call), in order."""
    levels = []
    real = expansion_mod._poly_and_slope

    def counted(coeffs, num, k):
        levels.append(k)
        return real(coeffs, num, k)

    monkeypatch.setattr(expansion_mod, "_poly_and_slope", counted)
    return levels


# Newton rounds at 304 and 1136 bits when each level was min(2k + 1, target)
# (the 1136-bit solve is the one behind the cylinder arithmetic at 1152 bits)
THOUSANDS_256 = ",".join(["1000"] * 255 + ["1"])
POOR_START = "1,0,0,0,0,1;0,0,0,0,0,1"
DOUBLING_ROUNDS = {**{text: (9, 11) for text in DEFAULT_CORPUS}, POOR_START: (11, 13), THOUSANDS_256: (9, 11)}


@pytest.mark.parametrize("text", list(DOUBLING_ROUNDS))
def test_newton_rounds_no_more_than_doubling_levels(text, monkeypatch):
    e = ExpansionOfOne.parse(text)
    for bits, bound in zip((304, 1136), DOUBLING_ROUNDS[text]):
        levels = newton_levels(monkeypatch)
        solve_beta(e, Fraction(1, 2**bits))
        assert len(levels) <= bound, (bits, levels)
        assert levels == sorted(levels) and all(k < bits for k in levels[:-1]), levels


def test_poor_start_runs_no_newton_round_at_the_target_level(monkeypatch):
    """At x = 1, where w vanishes, the first step is 0, and the iterates lag
    the doubling levels: those ran two Newton rounds at 1136 bits, about 2.5
    times the cost of the whole solve.  Levels read off the step run none
    there, in the same 13 rounds, and give bisection's bracket."""
    e = ExpansionOfOne.parse(POOR_START)
    levels = newton_levels(monkeypatch)
    got = solve_beta(e, Fraction(1, 2**1136))
    assert len(levels) == 13 and max(levels) < 1136, levels
    want = solve_oracle(e, Fraction(1, 2**1136))
    assert (got.lo, got.hi) == (want.lo, want.hi)


# --- the store of tables derived from one expansion ---


def read_every_table(e):
    """Build each table of e's record through the module that reads it."""
    from beta_words import runs, structure, verify, words

    runs.run_sets_formula(e, 6)  # the closed-form record and the tau row
    structure.decompose(words.word_at(e, 6, 2), e).reconstruct(e)  # automaton, count rows, spellings
    structure._scaled_inverse.__wrapped__(e, 320)  # unwrapped, as a cached bracket would not reach the record
    verify.sweep_shard(e, 3, DEFAULT_TOL)  # the family run summaries
    record = expansion_mod.derived(e)
    return record, [getattr(record, name) for name in expansion_mod.Derived.__slots__[1:]]


def test_store_keeps_the_records_read_last(fresh_store):
    """70 expansions 2,0^k,1 overflow STORE_CAP.  The store keeps the records
    of the 64 read last, in the order of their last reads, whichever call
    reads them; an equal expansion reads the same record.  An evicted
    expansion loses all its tables together, and reading it again builds
    them equal to fresh ones."""
    from beta_words import count, iter_words, tau, word_at

    store = expansion_mod._STORE
    members = [ExpansionOfOne.finite((2,) + (0,) * k + (1,)) for k in range(70)]
    records = [read_every_table(e) for e in members]
    assert expansion_mod.STORE_CAP == 64 and list(store) == members[6:]
    assert None not in [table for _, tables in records for table in tables]
    word_at(members[7], 5, 0)
    assert expansion_mod.derived(ExpansionOfOne.parse(members[9].text())) is records[9][0]
    tau(members[6], 3)
    assert list(store) == [members[8], *members[10:], members[7], members[9], members[6]]
    # members[0] comes back, and pushes out members[8], the one read longest ago
    again, tables = read_every_table(members[0])
    assert list(store) == [*members[10:], members[7], members[9], members[6], members[0]]
    assert again is not records[0][0] and tables == records[0][1]
    assert (again.automaton.cmp, again.automaton.adv, again.automaton.maxdig) == ((0, 2, 1), (0, 2, 0), (0, 2, 0))
    assert count(members[0], 5) == len(list(iter_words(members[0], 5))) == 99
    record = expansion_mod.derived(members[8])
    assert record is not records[8][0] and list(store)[-1] == members[8]
    assert [getattr(record, name) for name in expansion_mod.Derived.__slots__[1:]] == [None] * 8
