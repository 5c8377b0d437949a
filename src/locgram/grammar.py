"""Local disambiguation grammars: finite transducers over incomplete tags.

Each transition carries an input pattern, used to select the text portions
the grammar applies to, and an output pattern, the constraint imposed on
those portions.  Grammars are combined by giving them one shared initial
state and one shared final state; the acceptance rules then apply to the
combination as a whole, so combined grammars can behave unlike any member
taken alone.

Grammar documents are JSON::

    {"name": ..., "states": [...], "initial": ..., "finals": [...],
     "transitions": [{"from": ..., "to": ..., "in": ..., "out": ...}, ...]}

with ``in``/``out`` in tag notation.  Cycles are permitted; application to
a sentence is bounded by the sentence length.  The engine reads two tables
of a grammar, each built on first use: ``masks``, its conformity table, and
``steps``, each state's transitions with their mask bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import GrammarFormatError, TagFormatError
from .lattice import _check_id_types, _dot, _dot_quoted, _number_states, _reached, _read_document
from .tags import (
    AnyWord,
    CategoryPattern,
    ConformityTable,
    IncompleteTag,
    LemmaPattern,
    Separator,
    SurfaceForm,
    parse_incomplete_tag,
)


@dataclass(frozen=True)
class Transition:
    src: Hashable
    dst: Hashable
    inp: IncompleteTag
    out: IncompleteTag


@dataclass(frozen=True)
class LocalGrammar:
    name: str
    states: tuple[Hashable, ...]
    initial: Hashable
    finals: frozenset
    transitions: tuple[Transition, ...]

    @cached_property
    def masks(self) -> ConformityTable:
        """The grammar's conformity table: bit ``i`` of a mask stands for the
        input of ``transitions[i]``, bit ``len(transitions) + i`` for its output."""
        return ConformityTable([t.inp for t in self.transitions] + [t.out for t in self.transitions])

    @cached_property
    def steps(self) -> dict[Hashable, list[tuple[int, Transition]]]:
        """Per state, its ``(bit, transition)`` pairs, in transition order."""
        steps: dict[Hashable, list[tuple[int, Transition]]] = {s: [] for s in self.states}
        for i, t in enumerate(self.transitions):
            steps[t.src].append((1 << i, t))
        return steps


class GrammarClass(enum.IntEnum):
    """Which acceptance rule is available, from most to least special."""

    SIMPLE_INPUTS = 1
    OUTPUT_IMPLIES_INPUT = 2
    GENERAL = 3


def _validate(g: LocalGrammar) -> LocalGrammar:
    ends = [g.initial, *g.finals, *(q for t in g.transitions for q in (t.src, t.dst))]
    number = _number_states(GrammarFormatError, g.states, ends)
    names: dict[str, Hashable] = {}  # to_dot draws a state by its str
    for s in g.states:
        other = names.setdefault(str(s), s)
        if other != s:
            raise GrammarFormatError(f"state ids {other!r} and {s!r} print alike")
    if not g.finals:
        raise GrammarFormatError("grammar has no final state")
    tails, heads = [number[t.src] for t in g.transitions], [number[t.dst] for t in g.transitions]
    forward = _reached([number[g.initial]], len(number), tails, heads)
    reached = forward, _reached(map(number.__getitem__, g.finals), len(number), heads, tails)
    for problem, marks in zip(("unreachable states", "states reaching no final state"), reached):
        missing = sorted(str(s) for s, r in zip(number, marks) if not r)
        if missing:
            raise GrammarFormatError(f"{problem}: {', '.join(missing)}")
    return g


def load_grammar(text: str, categories: Iterable[str]) -> LocalGrammar:
    """Parse and validate a grammar document."""
    fields = ("name", "states", "initial", "finals", "transitions")
    arrays = ("states", "finals", "transitions")
    name, states, initial, finals, items = _read_document(text, GrammarFormatError, fields, arrays)
    try:
        ends = [q for item in items for q in (item["from"], item["to"])]
    except (KeyError, TypeError) as exc:
        raise GrammarFormatError(f"transition needs from and to members: {exc}") from exc
    _check_id_types(GrammarFormatError, [*states, initial, *finals, *ends])
    if not isinstance(name, str):
        raise GrammarFormatError(f"grammar name must be a string, not {name!r}")
    categories = tuple(categories)
    transitions = []
    for item in items:
        if not (isinstance(item.get("in"), str) and isinstance(item.get("out"), str)):
            raise GrammarFormatError(f"transition needs string in and out members: {item!r}")
        try:
            inp = parse_incomplete_tag(item["in"], categories)
            out = parse_incomplete_tag(item["out"], categories)
        except TagFormatError as exc:
            raise GrammarFormatError(f"bad transition label in {item!r}: {exc}") from exc
        transitions.append(Transition(item["from"], item["to"], inp, out))
    return _validate(LocalGrammar(name, tuple(states), initial, frozenset(finals), tuple(transitions)))


def union(grammars: Sequence[LocalGrammar]) -> LocalGrammar:
    """Combine grammars by identifying all their initial states as one
    state and all their final states as one shared final state."""
    if not grammars:
        raise ValueError("union of no grammars")

    def rename(i: int, g: LocalGrammar, s: Hashable) -> Hashable:
        if s == g.initial:
            return "I"
        if s in g.finals:
            return "F"
        return (f"g{i}", s)

    members = list(enumerate(grammars))
    states = dict.fromkeys(["I", *(rename(i, g, s) for i, g in members for s in g.states)])
    finals = frozenset(rename(i, g, s) for i, g in members for s in g.finals)
    transitions = tuple(
        Transition(rename(i, g, t.src), rename(i, g, t.dst), t.inp, t.out) for i, g in members for t in g.transitions
    )
    name = "|".join(g.name for g in grammars)
    return _validate(LocalGrammar(name, tuple(states), "I", finals, transitions))


def output_implies_input(inp: IncompleteTag, out: IncompleteTag) -> bool:
    """Sound syntactic test that every complete tag conforming to ``out``
    conforms to ``inp``: equal patterns, a same-variant pattern whose
    constraints are a subset of the output's, or the universal simple-word
    pattern against an output that only matches simple words.  Incomplete
    by design; a miss only demotes the grammar to the general rule."""
    if inp == out:
        return True
    if isinstance(inp, AnyWord):
        return isinstance(out, (SurfaceForm, AnyWord))
    if isinstance(inp, CategoryPattern) and isinstance(out, CategoryPattern):
        return inp.main == out.main and inp.features <= out.features
    if isinstance(inp, LemmaPattern) and isinstance(out, LemmaPattern):
        return inp.lemma == out.lemma and inp.features <= out.features
    return False


def classify(g: LocalGrammar) -> GrammarClass:
    """Deterministic classification from the transitions alone."""
    if all(isinstance(t.inp, (SurfaceForm, Separator)) for t in g.transitions):
        return GrammarClass.SIMPLE_INPUTS
    if all(
        isinstance(t.inp, (SurfaceForm, Separator)) or output_implies_input(t.inp, t.out)
        for t in g.transitions
    ):
        return GrammarClass.OUTPUT_IMPLIES_INPUT
    return GrammarClass.GENERAL


def to_dot(g: LocalGrammar) -> str:
    """Deterministic DOT rendering with ``in / out`` edge labels, sorted
    by the states as written."""
    rendered = sorted((str(t.src), str(t.dst), f"{t.inp.notation()} / {t.out.notation()}") for t in g.transitions)
    return _dot("grammar", lambda s: _dot_quoted(str(s)), g.initial, sorted(map(str, g.finals)), rendered)
