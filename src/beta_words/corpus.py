"""Built-in expansions used by the cross-verification sweeps.

The members cover every dispatch branch of the closed-form run-length sets:
finite and eventually periodic shapes, first digit 1 versus >= 2, second
nonzero position below, at, and above the finite length, and divisibility
of the word length by the finite length.
"""

from __future__ import annotations

from .expansion import ExpansionOfOne

DEFAULT_CORPUS: tuple[str, ...] = (
    "1,1",
    "1,1,1",
    "1,0,1,0,0,0,1",
    "1,0,0,0,0,1;0,0,0,0,0,1",
    "2,1,1",
    "3,0,2,0,0,0,0,1",
    "3,0,0,2;0,0,0,2",
)


def default_corpus() -> list[ExpansionOfOne]:
    return [ExpansionOfOne.parse(spec) for spec in DEFAULT_CORPUS]


def corpus_specs(path: str) -> list[str]:
    """The expansion specs of a corpus file, one a line, unparsed; blank
    lines and # comments skipped."""
    with open(path, encoding="utf-8") as handle:
        return [text for line in handle if (text := line.split("#", 1)[0].strip())]


def load_corpus(path: str) -> list[ExpansionOfOne]:
    """Read one expansion spec per line; blank lines and # comments skipped."""
    return [ExpansionOfOne.parse(text) for text in corpus_specs(path)]
