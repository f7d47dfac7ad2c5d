"""Structural decomposition, fullness criteria, and cylinder geometry."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from beta_words import (
    DEFAULT_CORPUS,
    ExpansionOfOne,
    Word,
    count,
    cylinder,
    decompose,
    is_full,
    is_full_by_length,
    is_full_by_tail,
    iter_words,
    max_word,
    mismatch,
    predecessor,
    rank_of,
    smallest_tail_length,
    successor,
    word_at,
)
from beta_words import AlphabetMismatch, BetaWordsError, NotAdmissible, VerificationError
from beta_words import structure as structure_mod
from beta_words.structure import (
    DEFAULT_TOL,
    UNDECIDED,
    Decomposition,
    _cylinder_ends,
    _tail_matches,
    cylinder_calc,
    tail_automaton,
    tail_cap,
)
from beta_words.words import check_alphabet, scan_states

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")
MEMBERS = ["1,1", "1,1,1", "2,1,1", "1,0,1,0,0,0,1", "3,0,0,2;0,0,0,2"]


def test_decompose_golden_example():
    d = decompose(Word((1, 0, 1, 0, 0)), GOLDEN)
    assert d.blocks == ((2, 0), (2, 0))
    assert d.tail == (1, 0)
    assert d.reconstruct(GOLDEN) == Word((1, 0, 1, 0, 0))


@pytest.mark.parametrize("pieces", [((0, 0),), ((2, 0), (0, 1)), ((-1, 0),)])
def test_reconstruct_rejects_empty_pieces(pieces):
    d = Decomposition(pieces[:-1], pieces[-1])
    with pytest.raises(ValueError):
        d.reconstruct(GOLDEN)


def test_decompose_pearl_example():
    d = decompose(Word((3, 0, 1, 0)), PEARL)
    assert d.blocks == ((3, 1),)
    assert d.tail == (1, 0)


def test_decompose_full_word_has_trivial_last_piece():
    # a full word is a chain of maximal blocks; the tail is itself a block
    d = decompose(Word((1, 0, 1, 0)), GOLDEN)
    assert d.blocks == ((2, 0),)
    assert d.tail == (2, 0)


@pytest.mark.parametrize("text", MEMBERS)
def test_decompose_reconstructs_everything(text):
    e = ExpansionOfOne.parse(text)
    for n in range(1, 7):
        for w in iter_words(e, n):
            d = decompose(w, e)
            assert d.reconstruct(e) == w
            assert sum(l for l, _ in d.blocks) + d.tail[0] == n


@pytest.mark.parametrize("text", MEMBERS)
def test_decompose_blocks_end_strictly_below_expansion(text):
    e = ExpansionOfOne.parse(text)
    for w in iter_words(e, 6):
        d = decompose(w, e)
        for length, digit in d.blocks:
            assert digit < e.digit(length)
        assert d.tail[1] <= e.digit(d.tail[0])


@pytest.mark.parametrize("text", MEMBERS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_three_criteria_agree(text, n):
    e = ExpansionOfOne.parse(text)
    for w in iter_words(e, n):
        structural = is_full(w, e)
        assert is_full_by_tail(w, e) == structural
        assert is_full_by_length(w, e, Fraction(1, 10**12)) == structural


def test_length_criterion_resolves_beta_near_an_integer():
    """2,...,2,1 with 200 twos puts beta within about 3^-200 of 3, so the
    cylinder of the non-full word 2 is shorter than beta^-1 by about
    beta^-201, far below the default tolerance: the precision grows with
    the expansion's digit count, so that gap is certified short, not taken
    for full within the tolerance."""
    e = ExpansionOfOne.finite((2,) * 200 + (1,))
    assert is_full(Word((2,)), e) is False
    assert is_full_by_length(Word((2,)), e) is False


def test_tail_length_none_iff_full():
    for w in iter_words(PEARL, 5):
        s = smallest_tail_length(w, PEARL)
        if is_full(w, PEARL):
            assert s is None
        else:
            assert 1 <= s <= 5
            assert w.digits[-s:] == tuple(PEARL.digits_prefix(s))


def test_mismatch_finds_first_drop_below_expansion():
    assert mismatch(Word((1,)), GOLDEN) is None
    assert mismatch(Word((1, 0, 1)), GOLDEN) == 2
    assert mismatch(Word((3, 0, 2, 0, 0, 0, 0, 0)), PEARL) == 8
    assert mismatch(Word((3, 0, 1)), PEARL) == 3


def test_cylinder_of_zero_word_starts_at_origin():
    c = cylinder(Word((0, 0, 0)), GOLDEN)
    assert c.left == (0, 0)
    lo, hi = c.length_bounds()
    assert float(lo) == pytest.approx(1.6180339887498949 ** -3, abs=1e-15)
    assert float(hi) == pytest.approx(1.6180339887498949 ** -3, abs=1e-15)


def test_cylinder_of_max_word_ends_at_one():
    c = cylinder(Word((1, 0, 1)), GOLDEN)
    assert c.right == (Fraction(1), Fraction(1))


def test_cylinders_tile_the_interval():
    """Consecutive cylinders share endpoints and lengths sum to one."""
    for e in (GOLDEN, PEARL):
        total_lo, total_hi = Fraction(0), Fraction(0)
        prev = None
        for w in iter_words(e, 4):
            c = cylinder(w, e)
            if prev is not None:
                assert prev == c.left
            prev = c.right
            lo, hi = c.length_bounds()
            total_lo, total_hi = total_lo + lo, total_hi + hi
        assert prev == (Fraction(1), Fraction(1))
        assert total_lo <= 1 <= total_hi


def test_full_cylinder_length_is_beta_power():
    # for a full word the exact length is beta^-n; the enclosure must agree
    c = cylinder(Word((1, 0, 0)), GOLDEN)
    lo, hi = c.length_bounds()
    assert hi - lo < Fraction(1, 10**40)
    assert float(lo) == pytest.approx(1.6180339887498949 ** -3, abs=1e-15)


def test_successor_shares_boundary():
    w = Word((0, 1, 0))
    c1 = cylinder(w, GOLDEN)
    c2 = cylinder(successor(w, GOLDEN), GOLDEN)
    assert c1.right == c2.left


# --- cylinder ends against two full passes ---

CYLINDER_NS = [1, 2, 3, 9, 40, 512]


def cylinder_words(e, n):
    """Rank 0, the maximal word, the last word starting with 0 (its
    successor carries into position 1) and seeded ranks."""
    total = count(e, n)
    ranks = {0, total - 1, count(e, n - 1) - 1 if n > 1 else 0}
    rng = random.Random(n)
    ranks.update(rng.randrange(total) for _ in range(12))
    return [word_at(e, n, r) for r in sorted(ranks)]


def two_pass_ends(w, e):
    calc = cylinder_calc(e, len(w), DEFAULT_TOL)
    nxt = successor(w, e)
    right = calc.pi_bounds(nxt.digits) if nxt is not None else (calc.one, calc.one)
    return calc, calc.pi_bounds(w.digits), right


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
@pytest.mark.parametrize("n", CYLINDER_NS)
def test_cylinder_ends_match_two_passes(text, n):
    e = ExpansionOfOne.parse(text)
    words = cylinder_words(e, n)
    assert words[-1] == max_word(e, n)
    if n > 1:
        carry = successor(word_at(e, n, count(e, n - 1) - 1), e)
        assert carry.digits == (1,) + (0,) * (n - 1)
    for w in words:
        calc, left, right = two_pass_ends(w, e)
        assert _cylinder_ends(w, e, DEFAULT_TOL) == (calc, left, right)
        c = cylinder(w, e)
        assert c.left == tuple(map(calc.as_fraction, left))
        assert c.right == tuple(map(calc.as_fraction, right))


def successor_built_ends(w, e, tol, shifted=False):
    """The cylinder ends as they were built from the successor Word: its
    last nonzero digit, at index t, is where it leaves w."""
    calc = cylinder_calc(e, len(w), tol)
    nxt = successor(w, e)
    if nxt is None:
        return calc, calc.pi_bounds(w.digits), (calc.one, calc.one)
    succ = nxt.digits
    t = max(i for i, d in enumerate(succ) if d)
    lo, hi = (0, 0) if shifted else calc.pi_bounds(w.digits[:t])
    rest_lo, rest_hi = calc.pi_bounds(w.digits[t:], t)
    d = succ[t]
    return calc, (lo + rest_lo, hi + rest_hi), (lo + d * calc.pow_lo[t + 1], hi + d * calc.pow_hi[t + 1])


def successor_free_words(e):
    """Every word at n <= 9; at n = 512 rank 0, the maximal word, the last
    word of each first digit below eps_1 (its successor increments position
    0) and seeded ranks."""
    words = [w for n in range(1, 10) for w in iter_words(e, n)]
    total, block = count(e, 512), count(e, 511)
    rng = random.Random(e.text())
    ranks = {0, total - 1, *((d + 1) * block - 1 for d in range(e.alphabet_max)),
             *(rng.randrange(total) for _ in range(40))}
    return words + [word_at(e, 512, r) for r in sorted(ranks)]


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_successor_free_ends_match_successor_built_ends(text):
    e = ExpansionOfOne.parse(text)
    tops = {n: max_word(e, n).digits for n in (*range(1, 9), 511)}
    increments_at_0 = 0
    for w in successor_free_words(e):
        calc, left, right = whole = successor_built_ends(w, e, DEFAULT_TOL)
        shifted = successor_built_ends(w, e, DEFAULT_TOL, shifted=True)
        assert _cylinder_ends(w, e, DEFAULT_TOL) == whole, w.text()
        assert _cylinder_ends(w, e, DEFAULT_TOL, shifted=True) == shifted, w.text()
        c = cylinder(w, e)
        assert (c.left, c.right) == (tuple(map(calc.as_fraction, left)), tuple(map(calc.as_fraction, right)))
        verdict = calc.compare_length(shifted[1], shifted[2], DEFAULT_TOL)
        assert is_full_by_length(w, e) is verdict is is_full(w, e), w.text()
        # the last word of a first digit below eps_1: its successor increments position 0
        increments_at_0 += len(w) > 1 and w.digits[0] < e.alphabet_max and w.digits[1:] == tops[len(w) - 1]
    assert increments_at_0 == 9 * e.alphabet_max  # n = 2..9 and 512


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_length_verdicts_take_tol_as_str_float_or_fraction(text):
    e = ExpansionOfOne.parse(text)
    ways = [("1e-12", 1e-12, Fraction(1, 10**12)), ("0.001", 0.001, Fraction(1, 1000)),
            ("1/1099511627776", 2.0**-40, Fraction(1, 2**40))]
    for n in (1, 5, 9, 512):
        for w in length_words(e, n):
            for spellings in ways:
                verdicts = [is_full_by_length(w, e, tol) for tol in spellings]
                ends = [cylinder(w, e, tol) for tol in spellings]
                assert verdicts[0] is verdicts[1] is verdicts[2] is is_full(w, e), (n, w.text(), spellings)
                assert ends[0] == ends[1] == ends[2], (n, w.text(), spellings)
    w = word_at(e, 5, 0)
    for tol in (0, 0.0, "0", Fraction(0), -1, "-1e-12", -0.5, Fraction(-1, 3)):
        for call in (is_full_by_length, cylinder):
            with pytest.raises(ValueError, match="^tolerance must be positive$"):
                call(w, e, tol)
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            cylinder_calc(e, 5, tol)


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_pi_bounds_split_at_any_index(text):
    e = ExpansionOfOne.parse(text)
    for n in (1, 9, 40):
        calc = cylinder_calc(e, n)
        for w in cylinder_words(e, n):
            d = w.digits
            whole = calc.pi_bounds(d)
            for t in range(n + 1):
                head, tail = calc.pi_bounds(d[:t]), calc.pi_bounds(d[t:], t)
                assert (head[0] + tail[0], head[1] + tail[1]) == whole


def test_cylinder_calc_solves_beta_once_per_member(monkeypatch):
    """All n <= 12 share the working precision, so cylinder_calc at n 1..12
    solves beta once per member; its power tables are those built from a
    fresh solve_beta, 1/beta rounded down and up at that precision."""
    real = structure_mod.solve_beta
    calls = []

    def spy(e, tol):
        calls.append(e)
        return real(e, tol)

    monkeypatch.setattr(structure_mod, "solve_beta", spy)
    members = [ExpansionOfOne.parse(text) for text in DEFAULT_CORPUS]
    structure_mod._calc.cache_clear()
    structure_mod._scaled_inverse.cache_clear()
    structure_mod._narrowest.cache_clear()
    try:
        for e in members:
            for n in range(1, 13):
                calc = cylinder_calc(e, n)
                bits, one = calc.bits, calc.one
                beta = real(e, Fraction(1, 2 ** (bits - 16)))
                x_lo = (beta.hi.denominator << bits) // beta.hi.numerator
                x_hi = -(-(beta.lo.denominator << bits) // beta.lo.numerator)
                pow_lo, pow_hi = [one], [one]
                for _ in range(n):
                    pow_lo.append((pow_lo[-1] * x_lo) >> bits)
                    pow_hi.append(-((-pow_hi[-1] * x_hi) >> bits))
                assert (calc.pow_lo, calc.pow_hi) == (pow_lo, pow_hi), (e.text(), n)
    finally:
        structure_mod._calc.cache_clear()
        structure_mod._scaled_inverse.cache_clear()
    assert calls == members


def test_wider_bits_refine_the_narrowest_bracket_made(monkeypatch):
    """On the 256-digit 1000,...,1000,1 line, verify's n = 1..12 need 1/beta
    at three precisions.  Beta is solved once; the next two brackets refine
    the one before, and every (x_lo, x_hi) equals the one a fresh solve_beta
    at the same bits gives.  Fewer bits than the narrowest bracket made are
    solved afresh, as a narrower bracket cannot be refined to a wider one,
    and that bracket stays the one to refine."""
    e = ExpansionOfOne.parse(",".join(["1000"] * 255 + ["1"]))
    widths = sorted({structure_mod._bits_for(e, n, DEFAULT_TOL) for n in range(1, 13)})
    assert widths == [2688, 2752, 2816]
    real = structure_mod.solve_beta
    calls = []

    def spy(e_, tol):
        calls.append(tol)
        return real(e_, tol)

    monkeypatch.setattr(structure_mod, "solve_beta", spy)
    structure_mod._scaled_inverse.cache_clear()
    structure_mod._narrowest.cache_clear()
    try:
        got = [structure_mod._scaled_inverse(e, bits) for bits in widths]
        assert calls == [Fraction(1, 2 ** (2688 - 16))]
        assert structure_mod._scaled_inverse(e, 320) and calls[1:] == [Fraction(1, 2 ** (320 - 16))]
        assert structure_mod._narrowest(e)[0].width == Fraction(1, 2 ** (2816 - 16))
    finally:
        structure_mod._scaled_inverse.cache_clear()
        structure_mod._narrowest.cache_clear()
    for bits, (x_lo, x_hi) in zip(widths, got):
        beta = real(e, Fraction(1, 2 ** (bits - 16)))
        assert x_lo == (beta.hi.denominator << bits) // beta.hi.numerator, bits
        assert x_hi == -(-(beta.lo.denominator << bits) // beta.lo.numerator), bits


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_rank_round_trip_at_512(text):
    e = ExpansionOfOne.parse(text)
    for w in cylinder_words(e, 512):
        assert word_at(e, 512, rank_of(w, e)) == w
    rng = random.Random(text)
    for _ in range(20):
        index = rng.randrange(count(e, 512))
        assert rank_of(word_at(e, 512, index), e) == index


# --- the one-pass tail matcher against the per-s slice comparison ---


def tail_matches_oracle(w, e):
    """Every s <= tail_cap with w ending in eps_1..eps_s, one slice pair per s."""
    check_alphabet(w.digits, e)
    scan_states(w.digits, e)
    n = len(w)
    s_max = tail_cap(e, n)
    prefix = e.digits_prefix(s_max)
    return [s for s in range(1, s_max + 1) if w.digits[n - s:] == prefix[:s]]


def tail_words(e, n, rng):
    """max_word, two seeded words and 0^(n-s) eps|_s for s = cap and a seeded s."""
    words = [max_word(e, n)]
    words += [word_at(e, n, rng.randrange(count(e, n))) for _ in range(2)]
    cap = tail_cap(e, n)
    eps = e.digits_prefix(cap)
    for s in {cap, rng.randint(1, cap)} if cap else ():
        words.append(Word((0,) * (n - s) + eps[:s]))
    return words


# every n up to 160, then a stride of 10 and the deep-n length 512 up to 600;
# the quadratic oracle makes every n up to 600 cost seconds per member
TAIL_NS = sorted(set(range(1, 161)) | set(range(170, 601, 10)) | {511, 512, 513, 599})


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
def test_tail_matches_match_slice_oracle(text):
    e = ExpansionOfOne.parse(text)
    rng = random.Random(text)
    for n in TAIL_NS:
        for w in tail_words(e, n, rng):
            assert _tail_matches(w, e) == tail_matches_oracle(w, e), (n, w.text())


@pytest.mark.parametrize("text", MEMBERS)
def test_tail_matches_every_word_small_n(text):
    e = ExpansionOfOne.parse(text)
    for n in range(1, 9):
        for w in iter_words(e, n):
            want = tail_matches_oracle(w, e)
            assert _tail_matches(w, e) == want
            assert smallest_tail_length(w, e) == (want[0] if want else None)
            assert is_full_by_tail(w, e) == (not want)


@pytest.mark.parametrize("call", [_tail_matches, is_full_by_tail, smallest_tail_length])
def test_tail_route_error_messages(call):
    with pytest.raises(AlphabetMismatch, match=r"^digit 4 outside alphabet 0\.\.3$"):
        call(Word((0, 4, 0)), PEARL)
    with pytest.raises(NotAdmissible, match=r"^digit 1 at position 2 is not admissible$"):
        call(Word((1, 1, 0)), GOLDEN)
    with pytest.raises(NotAdmissible, match=r"^digit 1 at position 8 is not admissible$"):
        call(Word((3, 0, 2, 0, 0, 0, 0, 1)), PEARL)


# --- one admissibility pass: the per-call checks it replaced as oracles ---
#
# Before scan_states checked the alphabet on its failure branch, every point
# call ran check_alphabet and then scan_states, and decompose and mismatch
# compared the word against the expansion digits once more.

EXTRA = ["2;1", "1,0,1", "3,2,1", "1,1,0,1", "4;2", "2;0,1"]


def require_admissible_oracle(w, e):
    check_alphabet(w.digits, e)
    return scan_states(w.digits, e)


def mismatch_oracle(w, e):
    require_admissible_oracle(w, e)
    for k, d in enumerate(w.digits, start=1):
        c = e.digit(k)
        if d < c:
            return k
        if d > c:
            raise NotAdmissible(f"digit at position {k} exceeds the expansion digit")
    return None


def decompose_oracle(w, e):
    require_admissible_oracle(w, e)
    eps = e.digits_prefix(len(w))
    segments = []
    j = 1
    for d in w.digits:
        if d < eps[j - 1]:
            segments.append((j, d))
            j = 1
        else:
            j += 1
    if j == 1:
        return Decomposition(tuple(segments[:-1]), segments[-1])
    return Decomposition(tuple(segments), (j - 1, w.digits[-1]))


def outcome(call, w, e):
    """The value of call(w, e), or the type and message of its error."""
    try:
        return call(w, e)
    except BetaWordsError as exc:
        return type(exc), str(exc)


POINT_CALLS = [is_full, _tail_matches, rank_of, successor, predecessor]


@pytest.mark.parametrize("text", list(DEFAULT_CORPUS) + EXTRA)
def test_one_pass_matches_per_call_checks(text):
    """Every word over -1..eps_1+1 up to length 5: the same values, or the
    same error type and message, as the checks the one pass replaced."""
    e = ExpansionOfOne.parse(text)
    for n in range(1, 6):
        for digits in itertools.product(range(-1, e.alphabet_max + 2), repeat=n):
            w = Word(digits)
            gate = outcome(require_admissible_oracle, w, e)
            assert outcome(scan_states, digits, e) == gate
            assert outcome(decompose, w, e) == outcome(decompose_oracle, w, e)
            assert outcome(mismatch, w, e) == outcome(mismatch_oracle, w, e)
            if isinstance(gate, list):
                assert is_full(w, e) == (gate[-1] == 1)
            else:
                for call in POINT_CALLS:
                    assert outcome(call, w, e) == gate, call.__name__


# decompose and reconstruct as they were before each became one pass: the
# index loop over the scan, and the pieces copied into one tuple to find the
# longest.  They read scan_states at call time.


def decompose_index_oracle(w, e):
    digits = w.digits
    states = structure_mod.scan_states(digits, e)
    segments = []
    cut = 0
    for k in range(1, len(states)):
        if states[k] == 1:
            segments.append((k - cut, digits[k - 1]))
            cut = k
    if cut == len(digits):
        return Decomposition(tuple(segments[:-1]), segments[-1])
    return Decomposition(tuple(segments), (len(digits) - cut, digits[-1]))


def reconstruct_oracle(dec, e):
    pieces = dec.blocks + (dec.tail,)
    eps = e.digits_prefix(max(length for length, _ in pieces))
    digits = []
    for length, last in pieces:
        if length < 1:
            raise ValueError("decomposition pieces must have length >= 1")
        digits.extend(eps[:length - 1])
        digits.append(last)
    return Word(tuple(digits))


WALK_ALL_UPTO = 50_000


def words_or_sample(e, n):
    """Every word of length n, walked, when there are at most WALK_ALL_UPTO
    of them; else an even sample of about WALK_ALL_UPTO / 2 by rank.  Only
    4;2 (n 8 and 9) and 3,2,1 (n 9) pass the bound at n <= 9."""
    total = count(e, n)
    if total <= WALK_ALL_UPTO:
        return iter_words(e, n)
    return (word_at(e, n, i) for i in range(0, total, total // (WALK_ALL_UPTO // 2)))


@pytest.mark.parametrize("text", list(DEFAULT_CORPUS) + EXTRA)
def test_one_pass_decompose_and_reconstruct_match_their_oracles(text):
    """Admissible words up to length 9: walked ones, which arrive with their
    scan, and unranked ones, which are scanned."""
    e = ExpansionOfOne.parse(text)
    for n in range(1, 10):
        for w in words_or_sample(e, n):
            dec = decompose(w, e)
            assert dec == decompose_index_oracle(w, e)
            assert dec.reconstruct(e) == reconstruct_oracle(dec, e) == w


@pytest.mark.parametrize("pieces", [((0, 0),), ((-1, 0),), ((2, 0), (0, 1)), ((2, 0), (-1, 1)), ((0, 1), (3, 0)),
                                    ((-1, 1), (2, 0), (1, 0)), ((3, 0), (0, 2), (2, 1))])
@pytest.mark.parametrize("text", ["1,1", "3,0,2,0,0,0,0,1", "3,0,0,2;0,0,0,2"])
def test_reconstruct_refuses_short_pieces_like_its_oracle(pieces, text):
    """A piece of length 0 or -1 anywhere, blocks or tail: the same
    ValueError and message."""
    e = ExpansionOfOne.parse(text)
    dec = Decomposition(pieces[:-1], pieces[-1])
    with pytest.raises(ValueError) as want:
        reconstruct_oracle(dec, e)
    with pytest.raises(ValueError) as got:
        dec.reconstruct(e)
    assert str(got.value) == str(want.value) == "decomposition pieces must have length >= 1"


def test_spelled_pieces_stay_with_their_expansion():
    """The same pieces spell each expansion's own digits, cold and warm, in
    either order: eps_1 eps_2 = 1,1 under 1,1 and 2,1 under 2,1,1."""
    dec = Decomposition(((2, 0), (1, 0)), (3, 0))
    golden, other = ExpansionOfOne.parse("1,1"), ExpansionOfOne.parse("2,1,1")
    for e in (golden, other, golden, other):
        assert dec.reconstruct(e) == reconstruct_oracle(dec, e)
    assert dec.reconstruct(golden).digits == (1, 0, 0, 1, 1, 0)
    assert dec.reconstruct(other).digits == (2, 0, 0, 2, 1, 0)


@pytest.mark.parametrize("pieces", [((1, 0), (0, 1)), ((0, 0), (2, 0)), ((2, 0), (1, 0), (-1, 0))])
def test_short_piece_refused_with_the_store_warm(pieces):
    e = ExpansionOfOne.parse("2,1,1")
    warm = Decomposition(((2, 0), (1, 0), (1, 1)), (2, 1))
    assert warm.reconstruct(e) == reconstruct_oracle(warm, e)
    assert set(warm.blocks) <= set(structure_mod._spellings(e))
    with pytest.raises(ValueError, match="decomposition pieces must have length >= 1"):
        Decomposition(pieces[:-1], pieces[-1]).reconstruct(e)


def test_spelled_piece_store_stays_bounded():
    """Many distinct pieces, up to twice SPELL_CAP digits long, spell right
    and leave at most SPELL_CAP pieces of at most SPELL_CAP digits kept."""
    e = ExpansionOfOne.parse("3,0,0,2;0,0,0,2")
    cap = structure_mod.SPELL_CAP
    for length in range(1, 2 * cap + 1, 3):
        dec = Decomposition(tuple((length, d) for d in range(3)), (length, 3))
        assert dec.reconstruct(e) == reconstruct_oracle(dec, e)
    kept = structure_mod._spellings(e)
    assert 0 < len(kept) <= cap and max(map(len, kept.values())) <= cap


@pytest.mark.parametrize("call", [decompose, mismatch, *POINT_CALLS])
def test_alphabet_error_wins_over_an_earlier_inadmissible_digit(call):
    # 1,1 is inadmissible at position 2 for 1,1; the digit 2 comes after it
    with pytest.raises(AlphabetMismatch, match=r"^digit 2 outside alphabet 0\.\.1$"):
        call(Word((1, 1, 2)), GOLDEN)
    with pytest.raises(AlphabetMismatch, match=r"^digit -1 outside alphabet 0\.\.1$"):
        call(Word((1, 0, 1, 1, -1)), GOLDEN)
    with pytest.raises(NotAdmissible, match=r"^digit 1 at position 2 is not admissible$"):
        call(Word((1, 1, 0)), GOLDEN)


def test_tail_automaton_cache_is_bounded():
    # 70 distinct valid expansions 2,0^k,1 overflow the 64-entry cache
    tail_automaton.cache_clear()
    members = [ExpansionOfOne.finite((2,) + (0,) * k + (1,)) for k in range(70)]
    first = tail_automaton(members[0], 1)
    assert first == (((0, 0, 1), (0, 0, 1)), ((), (1,)))
    for e in members[1:]:
        tail_automaton(e, 1)
    assert tail_automaton.cache_info().currsize == 64
    misses = tail_automaton.cache_info().misses
    again = tail_automaton(members[0], 1)
    assert tail_automaton.cache_info().misses == misses + 1
    assert again == first and again is not first
    assert tail_automaton(members[-1], 1) is tail_automaton(members[-1], 1)
    assert tail_automaton.cache_info().misses == misses + 1


# --- the prefix-free length test against the full ends ---


def compare_length_oracle(calc, left, right, tol):
    """compare_length before the integer form: the bound as a Fraction."""
    diff_lo = right[0] - left[1] - calc.pow_hi[calc.n]
    diff_hi = right[1] - left[0] - calc.pow_lo[calc.n]
    if diff_hi < 0:
        return False
    if diff_lo > 0:
        raise VerificationError("cylinder longer than beta^-n; inconsistent input")
    if max(-diff_lo, diff_hi) <= Fraction(tol) * calc.one:
        return True
    return UNDECIDED


def length_words(e, n):
    """Rank 0, the maximal word and six seeded ranks."""
    total = count(e, n)
    rng = random.Random(f"{e.text()} {n}")
    ranks = {0, total - 1, *(rng.randrange(total) for _ in range(6))}
    return [word_at(e, n, r) for r in sorted(ranks)]


def length_integers(left, right):
    """(length_lo, length_hi), the integers compare_length tests."""
    return right[0] - left[1], right[1] - left[0]


def length_outcomes(w, e, tol):
    """is_full_by_length, compare_length on the full ends, and the Fraction
    comparison on the full ends; an error counts as its type."""
    def run(call):
        try:
            return call()
        except VerificationError as exc:
            return type(exc)
    calc, left, right = _cylinder_ends(w, e, tol)
    return (run(lambda: is_full_by_length(w, e, tol)), run(lambda: calc.compare_length(left, right, tol)),
            run(lambda: compare_length_oracle(calc, left, right, tol)))


@pytest.mark.parametrize("text", DEFAULT_CORPUS)
@pytest.mark.parametrize("tol", [Fraction(1, 10**12), Fraction(1, 2**4000)], ids=["1e-12", "2^-4000"])
def test_prefix_free_length_test_matches_full_ends(text, tol):
    e = ExpansionOfOne.parse(text)
    for n in [*range(1, 13), 64, 512]:
        for w in length_words(e, n):
            got, full_ends, oracle = length_outcomes(w, e, tol)
            assert got is full_ends is oracle is is_full(w, e), (n, w.text())
            length_lo, length_hi = length_integers(*_cylinder_ends(w, e, tol, shifted=True)[1:])
            full_lo, full_hi = length_integers(*_cylinder_ends(w, e, tol)[1:])
            assert full_lo <= length_lo <= length_hi <= full_hi, (n, w.text())


@pytest.mark.parametrize("side, tolerances, verdicts", [
    ("lo", -1.5, {UNDECIDED, False}),
    ("hi", 1.5, {UNDECIDED, False}),
    ("hi", -0.5, {VerificationError, False}),
    ("lo", 0.5, {False}),
])
def test_prefix_free_length_test_matches_full_ends_off_beta_n(monkeypatch, side, tolerances, verdicts):
    """One end of beta^-n moved by a multiple of the tolerance, as in the
    sweep's fault tests: widened, the full words are undecided; narrowed,
    they are certified longer or shorter.  Every outcome agrees."""
    real = structure_mod.cylinder_calc

    def fake(e, n, tol=DEFAULT_TOL):
        calc = copy.copy(real(e, n, tol))
        tol = Fraction(tol)
        step = int(Fraction(tolerances) * tol.numerator * calc.one / tol.denominator)
        ends = calc.pow_lo if side == "lo" else calc.pow_hi
        setattr(calc, f"pow_{side}", ends[:-1] + [ends[-1] + step])
        return calc

    monkeypatch.setattr(structure_mod, "cylinder_calc", fake)
    seen = set()
    for text in DEFAULT_CORPUS:
        e = ExpansionOfOne.parse(text)
        for n in range(1, 9):
            for w in length_words(e, n):
                got, full_ends, oracle = length_outcomes(w, e, DEFAULT_TOL)
                assert got is full_ends is oracle, (text, n, w.text())
                seen.add(got)
    assert seen == verdicts


@pytest.mark.parametrize("tol, exact", [(Fraction(1, 2**40), True), (Fraction(3, 2**41), True),
                                        (Fraction(1, 10**12), False)])
def test_compare_length_bound_is_inclusive(tol, exact):
    """A length that misses beta^-n by the largest integer within tol (tol
    itself, when exact) is certified; one unit more is undecided; a Fraction
    bound gives the same verdicts."""
    calc = cylinder_calc(GOLDEN, 3, tol)
    slack = tol.numerator * calc.one // tol.denominator
    assert (slack * tol.denominator == tol.numerator * calc.one) is exact
    for extra, want in [(0, True), (1, UNDECIDED)]:
        for left, right in [((0, 0), (calc.pow_hi[3], calc.pow_lo[3] + slack + extra)),
                            ((0, slack + extra), (calc.pow_hi[3], calc.pow_lo[3]))]:
            got = calc.compare_length(left, right, tol)
            assert got is want is compare_length_oracle(calc, left, right, tol), (extra, left, right)
