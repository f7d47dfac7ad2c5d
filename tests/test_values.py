"""Value semantics of the eleven value types on the Frozen base: equality and
hashing by type and fields, immutability, pickling and copying, and the
dataclass-style repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from beta_words import ExpansionOfOne, Word, automaton, classify_last_run, decompose, modified_expansion, \
    run_sets_formula, solve_beta
from beta_words.errors import InvalidSequence, NotSelfDominant
from beta_words.expansion import BetaInterval, Frozen, ModifiedExpansion
from beta_words.runs import LastRunClassification, RunRecord, RunSets
from beta_words.structure import CylinderInterval
from beta_words.verify import SweepResult

GOLDEN = ExpansionOfOne.parse("1,1")


def make(name):
    """A value of each type, built afresh on every call."""
    return {
        "ExpansionOfOne": lambda: ExpansionOfOne.parse("3,0,0,2;0,0,0,2"),
        "ModifiedExpansion": lambda: modified_expansion(GOLDEN),
        "BetaInterval": lambda: BetaInterval(Fraction(3, 2), Fraction(2)),
        "Word": lambda: Word((1, 0)),
        "Automaton": lambda: automaton(ExpansionOfOne.parse("1,1")),
        "Decomposition": lambda: decompose(Word((1, 0, 1)), GOLDEN),
        "CylinderInterval": lambda: CylinderInterval((Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2))),
        "RunRecord": lambda: RunRecord("full", 0, 1, Word((0, 0, 0)), Word((0, 0, 0))),
        "RunSets": lambda: run_sets_formula(GOLDEN, 3),
        "LastRunClassification": lambda: classify_last_run(GOLDEN, 4),
        "SweepResult": lambda: SweepResult(5, 0, (Fraction(1), Fraction(1)), [], (1, 2)),
    }[name]()


# The reprs the dataclass versions of these types printed.
REPRS = {
    "ExpansionOfOne": "ExpansionOfOne(preperiod=(3, 0, 0, 2), period=(0, 0, 0, 2))",
    "ModifiedExpansion": "ModifiedExpansion(preperiod=(), period=(1, 0))",
    "BetaInterval": "BetaInterval(lo=Fraction(3, 2), hi=Fraction(2, 1))",
    "Word": "Word(digits=(1, 0))",
    "Automaton": "Automaton(cmp=(0, 1, 1), adv=(0, 2, 0), maxdig=(0, 1, 0))",
    "Decomposition": "Decomposition(blocks=((2, 0),), tail=(1, 1))",
    "CylinderInterval": "CylinderInterval(left=(Fraction(1, 4), Fraction(1, 3)), "
                        "right=(Fraction(1, 2), Fraction(1, 2)))",
    "RunRecord": "RunRecord(kind='full', start_index=0, length=1, first_word=Word(digits=(0, 0, 0)), "
                 "last_word=Word(digits=(0, 0, 0)))",
    "RunSets": "RunSets(full=(1, 2), nonfull=(1,), provenance='formula')",
    "LastRunClassification": "LastRunClassification(kind='full', length=1)",
    "SweepResult": "SweepResult(words=5, undecided=0, length_sum=(Fraction(1, 1), Fraction(1, 1)), failures=[], "
                   "runs=(1, 2))",
}
NAMES = sorted(REPRS)
# The fields of each type, in constructor order.
FIELDS = {
    "ExpansionOfOne": ("preperiod", "period"),
    "ModifiedExpansion": ("preperiod", "period"),
    "BetaInterval": ("lo", "hi", "refine"),
    "Word": ("digits",),
    "Automaton": ("cmp", "adv", "maxdig"),
    "Decomposition": ("blocks", "tail"),
    "CylinderInterval": ("left", "right"),
    "RunRecord": ("kind", "start_index", "length", "first_word", "last_word"),
    "RunSets": ("full", "nonfull", "provenance"),
    "LastRunClassification": ("kind", "length"),
    "SweepResult": ("words", "undecided", "length_sum", "failures", "runs"),
}


@pytest.mark.parametrize("name", NAMES)
def test_value_types_sit_on_the_frozen_base(name):
    value = make(name)
    assert type(value).__name__ == name and isinstance(value, Frozen)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_values_and_hashes(name):
    a, b = make(name), make(name)
    assert a is not b or name == "Automaton"  # automaton(e) is cached per expansion
    assert a == b and not a != b
    if name == "SweepResult":
        # its failures are a list, so like the list it cannot be hashed
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(make(name)) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    value = make(name)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trips(name):
    value = make(name)
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is type(value) and other == value and repr(other) == repr(value)
        for field in FIELDS[name]:
            assert getattr(other, field) == getattr(value, field)


def test_a_round_trip_keeps_the_derived_slots():
    e = ExpansionOfOne.parse("2;1")
    again = pickle.loads(pickle.dumps(e))
    assert hash(again) == hash(e) == hash((e.preperiod, e.period))
    aut = automaton(ExpansionOfOne.parse("1,0,1"))
    assert copy.copy(aut).zero == pickle.loads(pickle.dumps(aut)).zero == aut.zero == (0, 1, 3, 1)


def test_types_with_the_same_fields_are_unequal_and_unequal_to_tuples():
    e = ExpansionOfOne((2,), (1,))
    m = ModifiedExpansion((2,), (1,))
    assert e != m and m != e
    for value in (e, m):
        assert value != ((2,), (1,)) and ((2,), (1,)) != value
        assert value != ((2,),) + ((1,),)
    assert Word((1, 0)) != (1, 0) and Word((1, 0)) != ((1, 0),)
    assert len({e, m, ((2,), (1,))}) == 3


def test_beta_interval_equality_and_repr_ignore_refine():
    refined = solve_beta(GOLDEN, Fraction(1, 4))
    assert refined.refine is not None
    bare = BetaInterval(refined.lo, refined.hi)
    other = BetaInterval(refined.lo, refined.hi, lambda target: bare)
    assert bare.refine is None
    assert refined == bare == other and hash(refined) == hash(bare) == hash(other)
    assert repr(refined) == repr(bare) == "BetaInterval(lo=Fraction(3, 2), hi=Fraction(7, 4))"


@pytest.mark.parametrize("build, error", [
    (lambda: Word(()), ValueError),
    (lambda: BetaInterval(Fraction(2), Fraction(3, 2)), InvalidSequence),
    (lambda: ExpansionOfOne((1, 2), ()), NotSelfDominant),
    (lambda: RunSets((1, 2), (1,)), TypeError),
    (lambda: LastRunClassification("full", 1, None), TypeError),
])
def test_construction_still_validates(build, error):
    with pytest.raises(error):
        build()


def test_slot_setters_build_frozen_values():
    """Word and Decomposition set their slots through the slot descriptors,
    the other types through the setters Frozen builds per class: either way
    the fields come out in constructor order, refuse assignment and
    deletion, and survive a pickle round trip at every protocol."""
    dec = decompose(Word((1, 0, 0, 1)), GOLDEN)
    assert (dec.blocks, dec.tail) == (((2, 0), (1, 0)), (1, 1)) and dec.reconstruct(GOLDEN) == Word((1, 0, 0, 1))
    for name in NAMES:
        value = make(name)
        assert len(type(value)._setters) == len(FIELDS[name])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
    for value in (Word((2, 0)), dec):
        for field in FIELDS[type(value).__name__]:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(value, field)
