"""Verification harness: sweeps, theorem checks, and failure detection."""

import hashlib
from fractions import Fraction

import pytest

from beta_words import (
    ExpansionOfOne,
    count,
    default_corpus,
    load_corpus,
    render_report,
    run_sets_check,
    sweep_fullness,
    verify_member,
    verify_report,
    verify_theorems,
)
from beta_words import cli
from beta_words import runs as runs_mod
from beta_words import verify as verify_mod

GOLDEN = ExpansionOfOne.parse("1,1")
PEARL = ExpansionOfOne.parse("3,0,2,0,0,0,0,1")


@pytest.mark.parametrize("text", ["1,1", "2,1,1", "3,0,0,2;0,0,0,2"])
def test_sweep_clean(text):
    e = ExpansionOfOne.parse(text)
    for n in (1, 2, 5, 8):
        res = sweep_fullness(e, n)
        assert res.failures == []
        assert res.undecided == 0
        assert res.words == count(e, n)


def test_sweep_sharded_matches_single():
    for shards in (2, 3, 5):
        a = sweep_fullness(PEARL, 6, shards=1)
        b = sweep_fullness(PEARL, 6, shards=shards)
        assert a.words == b.words
        assert a.failures == b.failures == []


def test_sweep_partition_sums_to_one():
    res = sweep_fullness(GOLDEN, 9)
    lo, hi = res.length_sum
    assert lo <= 1 <= hi or abs(float(lo) - 1.0) < 9e-12


def test_run_sets_check_row_shape():
    row, failures = run_sets_check(PEARL, 4)
    assert failures == []
    assert row["case_id"] == PEARL.text()
    assert row["n"] == 4
    assert row["match"] is True
    assert row["F_formula"] == row["F_enum"]
    assert row["N_formula"] == row["N_enum"]


def test_verify_member_rows():
    rows, failures = verify_member(GOLDEN, range(1, 7))
    assert failures == []
    assert [r["n"] for r in rows] == list(range(1, 7))
    assert all(r["match"] for r in rows)


def test_verify_theorems_clean_small():
    assert verify_theorems(GOLDEN, 6) == []
    assert verify_theorems(ExpansionOfOne.parse("2,1,1"), 5) == []


def test_corrupted_formula_is_caught(monkeypatch):
    """The harness must actually look at the formula output."""

    real = runs_mod.full_run_lengths_formula

    def corrupt(e, n):
        out = set(real(e, n))
        out.add(99)
        return tuple(sorted(out))

    monkeypatch.setattr(verify_mod, "full_run_lengths_formula", corrupt)
    rows, failures = verify_member(GOLDEN, [3])
    assert failures
    assert rows[0]["match"] is False


def test_corrupted_tau_is_caught(monkeypatch):
    real = runs_mod.tau_table

    def corrupt(e, bound):
        table = real(e, bound)
        if len(table) > 2:
            table[-1] += 1
        return table

    monkeypatch.setattr(verify_mod, "tau_table", corrupt)
    rows, failures = verify_member(SPARSE := ExpansionOfOne.parse("1,0,1,0,0,0,1"), [8])
    assert failures


def test_report_is_deterministic_json():
    rows, failures = verify_report([GOLDEN], range(1, 5), shards=1)
    assert failures == []
    text = render_report(rows)
    rows2, _ = verify_report([GOLDEN], range(1, 5), shards=1)
    assert render_report(rows2) == text
    assert text.endswith("\n")


def test_default_corpus_loads_and_validates():
    members = default_corpus()
    assert len(members) >= 6
    texts = {m.text() for m in members}
    assert "1,1" in texts


def test_load_corpus_skips_comments(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("# a comment\n1,1\n\n2,1,1\n")
    members = load_corpus(p)
    assert [m.text() for m in members] == ["1,1", "2,1,1"]


def test_all_ten_cases_covered_by_default_corpus():
    seen = set()
    for e in default_corpus():
        for n in range(1, 13):
            seen.add(runs_mod.nonfull_run_case(e, n))
    assert len(seen) == 10


# sha256 of `beta-words verify --n-range 1..5` on the bundled corpus.
REPORT_1_5_SHA256 = "498dbf151de5c0344bde21157281229ece46859fb75044536f2cf0e9d8bf455d"


def test_verify_report_bytes_pinned(capsys):
    assert cli.main(["verify", "--n-range", "1..5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_1_5_SHA256


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        FakeExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cores, shards, expected", [(2, 10**6, 2), (8, 3, 3), (None, 5, 1)])
def test_pool_size_bounded_by_cores(monkeypatch, cores, shards, expected):
    monkeypatch.setattr(FakeExecutor, "sizes", [])
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cores)
    rows, failures = verify_report([GOLDEN, PEARL], range(1, 5), shards=shards)
    assert FakeExecutor.sizes == [expected]
    assert failures == []
    assert render_report(rows) == render_report(verify_report([GOLDEN, PEARL], range(1, 5))[0])


def test_shard_bounds_capped_at_prefix_count():
    assert verify_mod._shard_bounds(3, 10**9) == [(0, 1), (1, 2), (2, 3)]
    assert verify_mod._shard_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert verify_mod._shard_bounds(1, 0) == [(0, 1)]
