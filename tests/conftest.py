import json
import sys

import pytest

from locgram import build_initial_lattice, fixtures, lattice as lattice_module, tokenize
from locgram.engine import parse_tag_sequence, resolve_tag_sequence
from locgram.grammar import load_grammar
from locgram.lattice import Lattice
from locgram.tags import ConformityTable

SENTENCES = {
    "confirm-chain": "Cela vient de ce que je ne me le suis pas fait confirmer aussitôt",
    "accounts": "Ne fait-il les comptes que pour rendre service ?",
    "tell-him": "Ne lui dis pas",
    "pressing": "Pourquoi me pressent-il de le lui dire ?",
    "limit": "Mais aucun ne peut dépasser cette limite",
    "railway": "Il traverse le chemin de fer.",
    "moment": "Je ne me le suis pas fait confirmer sur le moment",
}

# 5,000 tokens, a 5,001-state lattice: far past the default recursion limit
LONG_REPEATS = 1250
LONG_TEXT = " ".join(["ne lui dis pas"] * LONG_REPEATS)

# <MOT>* followed by an input that never occurs: every state is unmatchable,
# and a matching walk from each state runs to the end of the sentence
CYCLIC_GRAMMAR = {
    "name": "mot-star",
    "states": [0, 1],
    "initial": 0,
    "finals": [1],
    "transitions": [
        {"from": 0, "to": 0, "in": "<MOT>", "out": "<MOT>"},
        {"from": 0, "to": 1, "in": "zzz", "out": "zzz"},
    ],
}


def assert_live(l):
    """Every edge of ``l`` lies on an initial-to-final path, and every
    state but the initial and final ones is the end of an edge."""
    reached, reaching = {l.initial}, {l.final}
    for e in l.edges:  # by source, and sources are numbered before targets
        if e.src in reached:
            reached.add(e.dst)
    for e in reversed(l.edges):
        if e.dst in reaching:
            reaching.add(e.src)
    assert all(e.src in reached and e.dst in reaching for e in l.edges)
    assert {l.initial, l.final, *(q for e in l.edges for q in e[:2])} == set(range(l.n_states))


def renamed(l):
    """``l`` rebuilt over other state names, its edges in reverse order."""
    name = {q: f"q{l.n_states - q}" for q in range(l.n_states)}
    edges = [(name[e.src], name[e.dst], e.label) for e in reversed(l.edges)]
    return Lattice.build(name[l.initial], name[l.final], edges)


def union_lattice(a, b):
    """A lattice whose language is the union of ``a``'s and ``b``'s: the
    two side by side, with shared initial and final states."""
    edges = []
    for side, l in (("a", a), ("b", b)):
        ends = {l.initial: "initial", l.final: "final"}
        name = {q: ends.get(q, (side, q)) for q in range(l.n_states)}
        edges += [(name[e.src], name[e.dst], e.label) for e in l.edges]
    return Lattice.build("initial", "final", edges)


@pytest.fixture(scope="session")
def categories():
    return fixtures.core_categories()


@pytest.fixture(scope="session")
def lexicon():
    return fixtures.core_lexicon()


@pytest.fixture(scope="session")
def grammars():
    return {name: fixtures.grammar(name) for name in fixtures.GRAMMAR_FILES}


@pytest.fixture(scope="session")
def lattices(lexicon):
    return {
        key: build_initial_lattice(tokenize(text), lexicon)
        for key, text in SENTENCES.items()
    }


@pytest.fixture(scope="session")
def find_path(categories):
    def _find(lattice, sequence_text):
        labels = parse_tag_sequence(sequence_text, categories)
        path = resolve_tag_sequence(lattice, labels)
        assert path is not None, f"sequence is not a path: {sequence_text}"
        return path

    return _find


@pytest.fixture
def build_calls(monkeypatch):
    """A list that grows by one entry per ``Lattice`` made, by any
    constructor: ``Lattice.build``, the private ones or the class itself."""
    calls = []
    new = Lattice.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__new__", counting)
    return calls


@pytest.fixture
def reachable_calls(monkeypatch):
    """A list that grows by one entry per call of ``lattice._reached``, the
    package's one reachability walk: True when the call is made inside a
    lattice constructor (``Lattice.build`` or ``Lattice._from_live``)."""
    calls = []
    inside = []
    reached = lattice_module._reached

    def counting_reached(*args):
        calls.append(bool(inside))
        return reached(*args)

    for module in ("lattice", "engine"):
        monkeypatch.setattr(f"locgram.{module}._reached", counting_reached)
    for name in ("build", "_from_live"):
        constructor = getattr(Lattice, name).__func__

        def counting_constructor(cls, *args, constructor=constructor, **kwargs):
            inside.append(1)
            try:
                return constructor(cls, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Lattice, name, classmethod(counting_constructor))
    return calls


@pytest.fixture
def mask_calls(monkeypatch):
    """A list that grows by one entry per ``ConformityTable.mask`` call."""
    calls = []
    mask = ConformityTable.mask

    def counting(self, label):
        calls.append(1)
        return mask(self, label)

    monkeypatch.setattr(ConformityTable, "mask", counting)
    monkeypatch.setattr("locgram.engine._Tables.last", None)  # no tables from an earlier test
    return calls


@pytest.fixture(scope="session")
def long_lattice(lexicon):
    return build_initial_lattice(tokenize(LONG_TEXT), lexicon)


@pytest.fixture(scope="session")
def cyclic_grammar(categories):
    return load_grammar(json.dumps(CYCLIC_GRAMMAR), categories)


@pytest.fixture
def default_recursion_limit():
    """Run the test under CPython's default recursion limit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)
