"""The value semantics the engine relies on, pinned for every value type:
structural equality and hashing, immutable fields, and the
``Name(field=value, ...)`` repr."""

import json
import random

import pytest

from locgram.engine import CorpusItem, Decomposition, FreeBlock, MatchedBlock, SilenceReport, SilenceViolation
from locgram.grammar import LocalGrammar, Transition, load_grammar
from locgram.lattice import Lattice
from locgram.lexicon import Lexicon, LexiconEntry, load_lexicon
from locgram.randgen import Instance, random_instance
from locgram.tags import (
    AnyWord,
    Category,
    CategoryPattern,
    CompleteTag,
    LemmaPattern,
    Separator,
    SurfaceForm,
)

CATS = ("V", "CNJS")
GRAMMAR = {
    "name": "g",
    "states": [0, 1],
    "initial": 0,
    "finals": [1],
    "transitions": [{"from": 0, "to": 1, "in": "vient", "out": "<V:3>"}],
}


def _tag():
    return CompleteTag("vient", "venir", Category("V", ("X",), ("+T",)), frozenset("P3s"))


def _pairs():
    return ((SurfaceForm("vient"), CategoryPattern("V", frozenset("3"))),)


# type, field names in order, a function that makes a fresh value
VALUES = [
    (Category, "main subcats traits", lambda: Category("V", ("X",), ("+T",))),
    (CompleteTag, "surface lemma category features compound", _tag),
    (Separator, "char", lambda: Separator("-")),
    (LemmaPattern, "lemma features", lambda: LemmaPattern("venir", frozenset("3"))),
    (CategoryPattern, "main features", lambda: CategoryPattern("V", frozenset("3"))),
    (SurfaceForm, "form", lambda: SurfaceForm("vient")),
    (AnyWord, "", lambda: AnyWord()),
    (
        LexiconEntry,
        "surface surface_tokens lemma category alternatives",
        lambda: LexiconEntry("de ce", ("de", "ce"), "de/ce", Category("CNJS"), (frozenset("s"),)),
    ),
    (
        Lexicon,
        "simple compounds categories",
        lambda: load_lexicon(["vient,venir.V:P3s", "de ce,de/ce.CNJS"], CATS),
    ),
    (Transition, "src dst inp out", lambda: Transition(0, 1, SurfaceForm("vient"), AnyWord())),
    (LocalGrammar, "name states initial finals transitions", lambda: load_grammar(json.dumps(GRAMMAR), CATS)),
    (Lattice, "n_states initial final srcs dsts labels", lambda: Lattice.build("a", "b", [("a", "b", _tag())])),
    (MatchedBlock, "start end pairs", lambda: MatchedBlock(0, 1, _pairs())),
    (FreeBlock, "position", lambda: FreeBlock(2)),
    (Decomposition, "blocks", lambda: Decomposition((MatchedBlock(0, 1, _pairs()), FreeBlock(1)))),
    (CorpusItem, "sentence_id text gold", lambda: CorpusItem("s1", "il vient", "<il PRO> <venir V:P3s>")),
    (SilenceViolation, "sentence_id span grammar", lambda: SilenceViolation("s1", (0, 2), "g")),
    (
        SilenceReport,
        "violations corpus_errors",
        lambda: SilenceReport((SilenceViolation("s1", (0, 2), "g"),), (("s2", "unknown word"),)),
    ),
    (Instance, "lexicon text grammar lattice", lambda: random_instance(random.Random(3))),
]
# a lexicon holds dicts, and so does an instance through its lexicon
UNHASHABLE = (Lexicon, Instance)


@pytest.mark.parametrize("cls, fields, make", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_semantics(cls, fields, make):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b
    if cls in UNHASHABLE:
        pytest.raises(TypeError, hash, a)
    else:
        assert hash(a) == hash(b)
    for name in fields.split() or ["any_name"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields.split())
    assert repr(a) == f"{cls.__name__}({shown})"


def test_cached_values_stay_out_of_equality_hash_and_repr():
    # what a label or a lexicon keeps once computed changes none of the three
    def make():
        return _tag(), Separator("-"), load_lexicon(["vient,venir.V:P3s"], CATS)

    used, fresh = make(), make()
    tag, sep, lex = used
    tag.sort_key, tag.notation(), sep.sort_key, lex.lookup("vient")
    assert all(vars(v) for v in used)
    for u, f in zip(used, fresh):
        assert u == f and repr(u) == repr(f)
    assert [hash(u) for u in used[:2]] == [hash(f) for f in fresh[:2]]
