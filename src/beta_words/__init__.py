"""Full and non-full words of beta-expansions.

A word is full when its cylinder of continuations has the maximal length
beta^-n.  The package provides the expansion of 1 and its modified form,
the admissible language (membership, order walk, counting, unranking),
the structural block decomposition with three independent fullness
criteria, the greedy step-count function tau, closed forms for the sets
of run lengths of consecutive full and non-full words, and a verification
harness that cross-checks every closed form against enumeration.

The harness, ``beta_words.verify``, loads on first use of one of its names
(``beta_words.verify`` itself, or ``verify_theorems`` and the other names
it re-exports here), so the point API imports without it.
"""

from .corpus import DEFAULT_CORPUS, default_corpus, load_corpus
from .errors import (
    AlphabetMismatch,
    BetaWordsError,
    IntegerBeta,
    InvalidSequence,
    NotAdmissible,
    NotSelfDominant,
    PrecisionExhausted,
    TailMismatch,
    VerificationError,
)
from .expansion import (
    BetaInterval,
    ExpansionOfOne,
    ModifiedExpansion,
    expansion_digits_from_beta,
    max_zero_run,
    modified_expansion,
    nonzero_sequence,
    solve_beta,
    validate_expansion_of_one,
)
from .runs import (
    FULL,
    NONFULL,
    LastRunClassification,
    RunRecord,
    RunSets,
    classify_last_run,
    full_run_case,
    full_run_lengths_formula,
    max_full_run_length,
    max_nonfull_run_length,
    maximal_runs,
    min_full_run_length,
    min_nonfull_run_length,
    nonfull_run_case,
    nonfull_run_lengths_formula,
    run_sets_enumerated,
    run_sets_formula,
    second_nonzero_position,
    tail_run_prediction,
    tau,
    tau_table,
)
from .structure import (
    DEFAULT_TOL,
    UNDECIDED,
    CylinderInterval,
    Decomposition,
    cylinder,
    decompose,
    is_full,
    is_full_by_length,
    is_full_by_tail,
    mismatch,
    smallest_tail_length,
)
from .words import (
    Automaton,
    Word,
    automaton,
    count,
    is_admissible,
    iter_words,
    max_word,
    predecessor,
    rank_of,
    scan_states,
    successor,
    word_at,
)

__all__ = [
    "AlphabetMismatch",
    "Automaton",
    "BetaInterval",
    "BetaWordsError",
    "CylinderInterval",
    "DEFAULT_CORPUS",
    "DEFAULT_TOL",
    "Decomposition",
    "ExpansionOfOne",
    "FULL",
    "IntegerBeta",
    "InvalidSequence",
    "LastRunClassification",
    "ModifiedExpansion",
    "NONFULL",
    "NotAdmissible",
    "NotSelfDominant",
    "PrecisionExhausted",
    "RunRecord",
    "RunSets",
    "SweepResult",
    "TailMismatch",
    "UNDECIDED",
    "VerificationError",
    "Word",
    "automaton",
    "classify_last_run",
    "count",
    "cylinder",
    "decompose",
    "default_corpus",
    "expansion_digits_from_beta",
    "full_run_case",
    "full_run_lengths_formula",
    "is_admissible",
    "is_full",
    "is_full_by_length",
    "is_full_by_tail",
    "iter_words",
    "load_corpus",
    "max_full_run_length",
    "max_nonfull_run_length",
    "max_word",
    "max_zero_run",
    "maximal_runs",
    "min_full_run_length",
    "min_nonfull_run_length",
    "mismatch",
    "modified_expansion",
    "nonfull_run_case",
    "nonfull_run_lengths_formula",
    "nonzero_sequence",
    "predecessor",
    "rank_of",
    "render_report",
    "run_sets_check",
    "run_sets_enumerated",
    "run_sets_formula",
    "scan_states",
    "second_nonzero_position",
    "smallest_tail_length",
    "solve_beta",
    "successor",
    "sweep_fullness",
    "tail_run_prediction",
    "tau",
    "tau_table",
    "validate_expansion_of_one",
    "verify_member",
    "verify_report",
    "verify_theorems",
    "word_at",
]

# Re-exported from the verification harness, which loads on first use.
_VERIFY_NAMES = frozenset({
    "SweepResult",
    "render_report",
    "run_sets_check",
    "sweep_fullness",
    "verify_member",
    "verify_report",
    "verify_theorems",
})


def __getattr__(name: str):
    if name == "verify" or name in _VERIFY_NAMES:
        # import_module, not `from . import verify`: the from-import looks the
        # submodule up on this package first and so would call back here.
        import importlib

        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "verify", *_VERIFY_NAMES})
