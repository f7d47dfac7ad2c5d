import pytest

from beta_words import default_corpus
from beta_words import expansion


@pytest.fixture(scope="session")
def corpus_members():
    return default_corpus()


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty store of derived tables for one test, and a call that empties
    it again; the process's store comes back after the test."""
    def empty():
        monkeypatch.setattr(expansion, "_STORE", {})
        monkeypatch.setattr(expansion, "_LAST", [expansion.Derived(None)])

    empty()
    return empty
