"""Randomized invariants over the enumeration and decomposition machinery."""

from hypothesis import given, settings, strategies as st

from beta_words import (
    ExpansionOfOne,
    Word,
    count,
    decompose,
    is_admissible,
    is_full,
    nonzero_sequence,
    rank_of,
    tau,
    word_at,
)

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
