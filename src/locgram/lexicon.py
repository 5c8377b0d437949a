"""Morphological lexicon, tokenizer, and initial-tagging lattice builder.

Lexicon files are UTF-8, one entry per line:

    surface,lemma.CAT(;SUB)*([+TRAIT])*(:FEATS)*

``#`` starts a comment line.  Compound entries write both surface and lemma
with spaces; the lemma is stored ``/``-joined.  Several ``:FEATS`` groups
are alternatives, each expanding to one complete tag:

    suis,suivre.V:P1s:P2s:Y2s
    sur le moment,sur le moment.ADV;PDETC

The category inventory is a separate file, one main code per line.  A
load checks every line; a simple surface's entries are built when read.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .errors import LexiconFormatError, TagFormatError, UnknownWordError
from .lattice import Lattice
from .tags import (
    Category,
    CompleteTag,
    FeatureSet,
    SEPARATOR_CHARS,
    Separator,
    parse_category,
    parse_features,
)

_TOKEN_RE = re.compile(rf"[^\s{re.escape(SEPARATOR_CHARS)}]+|[{re.escape(SEPARATOR_CHARS)}]")


class LexiconEntry(NamedTuple):
    surface: str
    surface_tokens: tuple[str, ...]
    lemma: str
    category: Category
    alternatives: tuple[FeatureSet, ...]  # empty means invariable

    @property
    def compound(self) -> bool:
        return len(self.surface_tokens) > 1


class Lexicon(namedtuple("Lexicon", "simple compounds categories")):
    """Entries by first token, and the labels made from them: ``simple``
    and ``compounds`` map a surface or first token to its entries, and
    ``categories`` is the inventory.

    ``simple`` builds a surface's entries on each access, from lines the
    load has checked.  Each analysis is one label object for the
    lexicon's lifetime: the tags of a simple surface form (``lookup``)
    and of a compound entry (``analyses``) are made on first request and
    kept, so what a label computes once (sort key, notation) is computed
    once per analysis, across texts.  Only hits are kept: an unknown
    surface adds nothing, so the table is bounded by the lexicon's
    analyses.  Threads racing on a first lookup can at worst build a
    surface's entries twice and make two equal label objects, which are
    the same symbol (entries and labels compare structurally).
    """

    @cached_property
    def _labels(self) -> dict:
        """Surface -> its simple tags, compound entry -> its tags; in the
        instance ``__dict__``, so out of ``==``, ``hash`` and ``repr``."""
        return {}

    def lookup(self, surface: str) -> tuple[CompleteTag, ...]:
        """All complete tags for one simple surface form, in ``sort_key``
        order; equal tags from several entries keep their entries' order."""
        tags = self._labels.get(surface)
        if tags is None:
            entries = self.simple.get(surface, ())
            tags = (tag for entry in entries for tag in expand_entry(entry))
            tags = tuple(sorted(tags, key=attrgetter("sort_key")))
            if tags:
                self._labels[surface] = tags
        return tags

    def analyses(self, entry: LexiconEntry) -> tuple[CompleteTag, ...]:
        """``expand_entry(entry)``, made once per entry."""
        tags = self._labels.get(entry)
        if tags is None:
            tags = self._labels[entry] = expand_entry(entry)
        return tags


def expand_entry(entry: LexiconEntry) -> tuple[CompleteTag, ...]:
    """One complete tag per feature alternative (one tag if invariable)."""
    alternatives = entry.alternatives or (frozenset(),)
    return tuple(
        CompleteTag(entry.surface, entry.lemma, entry.category, feats, entry.compound)
        for feats in alternatives
    )


def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line, stripped, with its number from 1, but for blank lines
    and ``#`` comments: what every line-based input format reads."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def load_categories(lines: Iterable[str]) -> tuple[str, ...]:
    """Read the category inventory, one main code per line."""
    codes = tuple(dict.fromkeys(line for _, line in _content_lines(lines)))
    if not codes:
        raise LexiconFormatError("empty category inventory")
    return codes


def _checked_parts(
    line: str, line_no: int, categories: tuple[str, ...], parsed: dict[str, tuple]
) -> tuple[str, str, tuple]:
    """A line's surface, lemma part and parsed code tail."""
    surface, comma, rest = line.partition(",")
    surface = surface.strip()
    if not comma or not surface:
        raise LexiconFormatError(f"line {line_no}: expected 'surface,lemma.CODES'")
    lemma_part, dot, codes = rest.strip().rpartition(".")
    if not dot or not lemma_part or not codes:
        raise LexiconFormatError(f"line {line_no}: expected 'lemma.CODES' after the comma")
    tail = parsed.get(codes)
    if tail is None:
        groups = codes.split(":")
        try:
            category = parse_category(groups[0], categories)
            alternatives = tuple(parse_features(g, validate=True) for g in groups[1:])
        except TagFormatError as exc:
            raise LexiconFormatError(f"line {line_no}: {exc}") from exc
        tail = parsed[codes] = (category, alternatives)
    return surface, lemma_part, tail


class _SimpleEntries(Mapping):
    """Simple entries by surface, read as a dict.  The load keeps each
    surface's checked lines as a flat list of ``lemma part, parsed code
    tail`` pairs; each read builds the surface's entries from it, in line
    order, the first of equal ones kept, and keeps nothing.  Building
    cannot fail.  ``Lexicon.lookup`` keeps the tags it makes, so it reads
    a surface at most once."""

    def __init__(self, table: dict[str, list]):
        self._table = table

    def __getitem__(self, surface: str) -> tuple[LexiconEntry, ...]:
        lines = self._table[surface]
        pairs = zip(lines[::2], lines[1::2])
        made = (LexiconEntry(surface, (surface,), "/".join(p.split()), *t) for p, t in pairs)
        return tuple(dict.fromkeys(made))

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return repr(dict(self))


def load_lexicon(lines: Iterable[str], categories: tuple[str, ...]) -> Lexicon:
    """Load entries, grouping simple words by surface and compounds by
    their first token.  A line whose entry equals an earlier one (the same
    line, or its features in another order) is dropped.

    The load checks every line: a malformed one raises ``LexiconFormatError``
    with its number, whatever is looked up later.  So does a surface that
    is one separator character, always a separator edge in a lattice and
    never looked up.  Each distinct code tail (the ``CAT;SUB[+T]:FEATS``
    part after the last ``.``) is parsed once per call, and lines with that
    tail share its immutable parse.  A tail that
    fails is not kept, so the first line that carries it is the one named.
    Compound entries are built here; a simple surface's entries when
    read, since a text meets few of a large lexicon's surfaces.
    Equal entries share their surface, so repeats are dropped per surface."""
    simple: dict[str, list] = {}
    compounds: dict[str, list[LexiconEntry]] = {}
    parsed: dict[str, tuple] = {}  # code tail -> (category, alternatives)
    for line_no, line in _content_lines(lines):
        surface, part, tail = _checked_parts(line, line_no, categories, parsed)
        pairs = simple.get(surface)
        if pairs is None:
            tokens = tuple(_TOKEN_RE.findall(surface))
            if len(tokens) > 1:
                entry = LexiconEntry(surface, tokens, "/".join(part.split()), *tail)
                compounds.setdefault(tokens[0], []).append(entry)
                continue
            if surface in _SEPARATORS:
                raise LexiconFormatError(f"line {line_no}: surface {surface!r} is a separator, never looked up")
            pairs = simple[surface] = []
        pairs += part, tail
    return Lexicon(
        simple=_SimpleEntries(simple),
        compounds={k: tuple(dict.fromkeys(v)) for k, v in compounds.items()},
        categories=categories,
    )


def tokenize(text: str) -> list[str]:
    """The tokens as written: split on whitespace, and each apostrophe,
    hyphen or sentence punctuation character is a token of its own, a
    separator (a key of ``_SEPARATORS``).  A token's position is its index."""
    return _TOKEN_RE.findall(text)


def lookup_forms(tokens: list[str]) -> list[str]:
    """The forms dictionary consultation reads: ``tokens`` with the leading
    capital of the first word (the first token that is no separator) folded."""
    forms = list(tokens)
    for i, token in enumerate(forms):
        if token not in _SEPARATORS:
            if token[0].isupper():
                forms[i] = token[0].lower() + token[1:]
            break
    return forms


def compound_matches(forms: list[str], start: int, lexicon: Lexicon) -> list[LexiconEntry]:
    """Compound entries whose token sequence matches the lookup forms at
    ``start``, so a compound never crosses a separator unless its own
    surface includes that separator."""
    candidates = lexicon.compounds.get(forms[start], ())
    return [e for e in candidates if tuple(forms[start : start + len(e.surface_tokens)]) == e.surface_tokens]


_SEPARATORS = {char: Separator(char) for char in SEPARATOR_CHARS}


def build_initial_lattice(tokens: list[str], lexicon: Lexicon) -> Lattice:
    """Dictionary consultation: one edge per analysis.

    States are token boundaries 0..n.  The lexicon is consulted with
    ``lookup_forms(tokens)``.  Every feature alternative of every
    simple entry yields an edge over one token; compound entries span their
    whole token range as parallel branches, from a word or a separator;
    separators carry themselves.
    An unknown word aborts, named as written (guessing would risk
    eliminating the correct analysis later, so it is deliberately
    unsupported).

    Each analysis is one label object for the lexicon's lifetime, however
    often its word recurs in this text or later ones; an unknown word adds
    nothing to the lexicon (see ``Lexicon``).  Each separator character is
    one label object too.

    The lattice is made in canonical form (see ``lattice``), with no
    renumbering: the chain of tokens makes ``0..n`` the only topological
    order and puts every edge on a path, and each position's edges come
    out sorted, its one-token edges (in ``lookup`` order) before its
    compounds, which are sorted by end and then by ``sort_key``.
    """
    forms = lookup_forms(tokens)
    srcs, dsts, labels = [], [], []  # edge k: (srcs[k], dsts[k], labels[k])
    for i, form in enumerate(forms):
        if form in _SEPARATORS:
            tags = (_SEPARATORS[form],)
        else:
            tags = lexicon.lookup(form)
            if not tags:
                raise UnknownWordError(tokens[i], i)
        ends = [i + 1] * len(tags)
        if form in lexicon.compounds:
            compounds = [
                (i + len(entry.surface_tokens), tag)
                for entry in compound_matches(forms, i, lexicon)
                for tag in lexicon.analyses(entry)
            ]
            compounds.sort(key=lambda e: (e[0], e[1].sort_key))
            ends += [end for end, _ in compounds]
            tags += tuple(tag for _, tag in compounds)
        srcs += [i] * len(ends)
        dsts += ends
        labels += tags
    return Lattice(len(tokens) + 1, 0, len(tokens), tuple(srcs), tuple(dsts), tuple(labels))
