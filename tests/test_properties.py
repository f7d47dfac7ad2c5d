"""Randomized invariants over the enumeration and decomposition machinery."""

from hypothesis import assume, given, settings, strategies as st

from beta_words import (
    ExpansionOfOne,
    InvalidSequence,
    Word,
    count,
    decompose,
    is_admissible,
    is_full,
    is_full_by_length,
    is_full_by_tail,
    mismatch,
    nonzero_sequence,
    rank_of,
    sweep_fullness,
    tau,
    word_at,
)
from beta_words.runs import prefix_count, scan_run_lengths
from beta_words.structure import DEFAULT_TOL, _tail_matches
from beta_words.verify import sweep_shard
from beta_words.words import automaton, scan_states
from test_runs import check_closed_form_period
from test_structure import decompose_oracle, mismatch_oracle, tail_matches_oracle
from test_verify import fold_windows, sweep_shard_oracle

MEMBERS = [
    ExpansionOfOne.parse("1,1"),
    ExpansionOfOne.parse("2,1,1"),
    ExpansionOfOne.parse("3,0,2,0,0,0,0,1"),
    ExpansionOfOne.parse("3,0,0,2;0,0,0,2"),
]

member_st = st.sampled_from(MEMBERS)


@settings(max_examples=60, deadline=None)
@given(member_st, st.integers(1, 10), st.integers(0, 10**9))
def test_rank_round_trip(e, n, seed):
    idx = seed % count(e, n)
    assert rank_of(word_at(e, n, idx), e) == idx


@settings(max_examples=60, deadline=None)
@given(member_st, st.integers(1, 9), st.integers(0, 10**9))
def test_decompose_reconstruct(e, n, seed):
    w = word_at(e, n, seed % count(e, n))
    assert decompose(w, e).reconstruct(e) == w


@settings(max_examples=40, deadline=None)
@given(member_st, st.integers(1, 8), st.integers(0, 10**9), st.integers(1, 6), st.integers(0, 10**9))
def test_full_words_absorb_any_continuation(e, n, seed, m, seed2):
    w = word_at(e, n, seed % count(e, n))
    v = word_at(e, m, seed2 % count(e, m))
    if is_full(w, e):
        assert is_admissible(Word(w.digits + v.digits), e)


@settings(max_examples=60, deadline=None)
@given(member_st, st.integers(1, 40))
def test_tau_greedy_recursion(e, s):
    steps = tau(e, s)
    positions = nonzero_sequence(e, s)
    largest = max(p for p in positions if p <= s)
    # the greedy walk itself, with the digits read one position at a time
    greedy, remaining = 0, s
    while remaining:
        remaining -= max(p for p in range(1, remaining + 1) if e.digit(p))
        greedy += 1
    assert steps == greedy
    assert 1 <= steps <= s
    if s == largest:
        assert steps == 1
    else:
        assert steps == tau(e, s - largest) + 1


@st.composite
def expansions(draw):
    """Finite and eventually periodic digit strings of length <= 8: eps_1 <= 5
    first, the other digits in 0..eps_1, kept when they expand 1."""
    top = draw(st.integers(1, 5))
    digits = [top] + draw(st.lists(st.integers(0, top), max_size=7))
    split = draw(st.integers(1, len(digits)))
    try:
        if split == len(digits):
            return ExpansionOfOne.finite(digits)
        return ExpansionOfOne.eventually_periodic(digits[:split], digits[split:])
    except InvalidSequence:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(expansions(), st.integers(1, 8), st.integers(0, 10**9))
def test_random_expansions_match_oracles(e, n, seed):
    total = count(e, n)
    for rank in {0, seed % total, (seed // 7) % total, total - 1}:
        w = word_at(e, n, rank)
        assert decompose(w, e) == decompose_oracle(w, e)
        assert mismatch(w, e) == mismatch_oracle(w, e)
        matches = _tail_matches(w, e)
        assert matches == tail_matches_oracle(w, e)
        assert is_full(w, e) == is_full_by_tail(w, e) == (is_full_by_length(w, e) is True) == (not matches)


@settings(max_examples=150, deadline=None)
@given(expansions(), st.integers(1, 7))
def test_random_expansions_sweep_clean(e, n):
    """The three fullness criteria agree on every word, in one whole sweep
    or folded from two prefix windows, and the sweep's run summary is the
    run scan's."""
    for res in (sweep_fullness(e, n), fold_windows(e, n, 2)):
        assert res.runs == scan_run_lengths(e, n)
        assert res.words == count(e, n)
        assert res.undecided == 0
        assert res.failures == []


def inside_super_family(e, n, seed):
    """A prefix rank inside the super-family of a seeded length-(n-2)
    prefix q, the length-(n-1) prefixes q0, q1, ..., at a nonzero offset
    when q has more than one of them."""
    q = word_at(e, n - 2, seed % count(e, n - 2)).digits if n > 2 else ()
    m = automaton(e).maxdig[scan_states(q, e)[-1]]
    return rank_of(Word(q + (0,)), e) + (1 + seed % m if m else 0)


@settings(max_examples=100, deadline=None)
@given(expansions(), st.integers(2, 7), st.integers(0, 10**9), st.integers(0, 10**9))
def test_windows_cut_inside_super_families_match_oracle(e, n, seed_a, seed_b):
    """Windows whose ends cut through super-families, the families of one
    length-(n-2) prefix, make the sweep descend into the subtrees they cut
    instead of reusing a memo entry; every chunk still equals the unrolled
    oracle's."""
    a, b = sorted((inside_super_family(e, n, seed_a), inside_super_family(e, n, seed_b)))
    for start, stop in ((0, a), (a, b), (b, prefix_count(e, n))):
        assert sweep_shard(e, n, DEFAULT_TOL, start, stop) == sweep_shard_oracle(e, n, DEFAULT_TOL, start, stop)


@settings(max_examples=100, deadline=None)
@given(expansions())
def test_random_closed_forms_are_eventually_periodic(e):
    """Past n0 = 2 (|preperiod| + |period|) every closed form repeats with
    period M, or 1 when the expansion is periodic, up to n = 10^18."""
    assume(not (e.is_finite and e.finite_length == 1))
    check_closed_form_period(e)
