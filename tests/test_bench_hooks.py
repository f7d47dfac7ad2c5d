"""The names the benchmark in perfbench/ reads from the package.

perfbench/tracer.py wraps functions by module and attribute, and
perfbench/worker.py times shard stages through scan_run_lengths(...)[5] and
sweep_shard(...)["words"].  A rename or a changed return shape would leave
the benchmark measuring nothing; these tests catch it in the test suite.
They only read perfbench/.
"""

import sys
from pathlib import Path

import pytest

from beta_words import default_corpus, runs, verify, words
from beta_words.structure import DEFAULT_TOL
from beta_words.words import Word

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def selftest(monkeypatch):
    """perfbench/selftest.py, imported as its script would be; sys.path and
    the benchmark's top-level modules are put back afterwards."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest as module
    yield module
    for name in ("selftest", "run", "tracer", "calibrate"):
        if name not in before:
            sys.modules.pop(name, None)


def test_tracer_targets_present_and_restored(selftest):
    problems = []
    selftest.check_restore(problems)
    assert problems == []


def first_word_index(e, n, prefix_rank):
    """Lex index of the first length-n word whose length-(n-1) prefix has
    the given rank; a trailing 0 keeps any admissible prefix admissible."""
    if prefix_rank == runs.prefix_count(e, n):
        return words.count(e, n)
    head = words.word_at(e, n - 1, prefix_rank).digits if n > 1 else ()
    return words.rank_of(Word(head + (0,)), e)


@pytest.mark.parametrize("e", default_corpus(), ids=lambda e: e.text())
def test_shard_stage_word_totals(e):
    for n in (1, 2, 5, 8):
        prefixes = words.count(e, n - 1) if n >= 2 else 1
        for shards in (1, 2, 3):
            for i in range(shards):
                a, b = i * prefixes // shards, (i + 1) * prefixes // shards
                want = first_word_index(e, n, b) - first_word_index(e, n, a)
                assert runs.scan_run_lengths(e, n, a, b)[5] == want, (n, a, b)
                assert verify.sweep_shard(e, n, DEFAULT_TOL, a, b)["words"] == want, (n, a, b)
