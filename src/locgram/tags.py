"""Grammatical tags: complete analyses, constraint patterns, and conformity.

A *complete tag* is one fully specified lexical analysis of a word
occurrence: lemma, category (with optional subcategories and bracketed
traits), and an inflection feature set.  Its notation is

    <lemma CAT>             e.g. <confirmer V:W>
    <lemma CAT;SUB:FEATS>   e.g. <coup/fumant N;NA:ms>
    <lemma CAT[+TRAIT]>     e.g. <ne XI[+Préd]>

Compound lemmas join their words with ``/``.  The surface form the tag
describes is carried out of band (it defaults to the lemma) so that, for
instance, ``<être V:P1s>`` can be attached to the surface ``suis``.

An *incomplete tag* is a constraint pattern denoting the set of complete
tags that satisfy it:

    <prendre>      all forms of the lemma ``prendre``
    <V>            all verbs
    <prendre:P3s>  lemma plus required features
    <V:3s>         category plus required features
    vient          a literal simple surface form
    <MOT>          any simple word (never a compound, never a separator)
    -              a literal separator character

Feature strings decompose into single-character atoms: ``P3s`` is the set
{P, 3, s}.  Conformity of features is set inclusion, so ``<prendre:s>``
matches every singular form of ``prendre``.

A label keeps its notation and sort key once computed (``cached_property``);
the lexicon keeps one label per analysis, so each is computed once per analysis.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import TagFormatError

# Characters that split words during tokenization.  Separators are lattice
# edges in their own right, so grammars can constrain them literally.
SEPARATOR_CHARS = "-'’.,;:!?…"

ANY_WORD_NAME = "MOT"

# Each class of feature code: at most one code of each in a complete tag,
# and formatted in this order, after the unclassed codes.
_CLASSES = {"person": "123", "gender": "mf", "number": "sp"}
_RANK = {atom: rank for rank, codes in enumerate(_CLASSES.values(), start=1) for atom in codes}

FeatureSet = frozenset


def parse_features(text: str, *, validate: bool = False) -> FeatureSet:
    """Decompose a feature string such as ``P3s`` into its atom set.

    With ``validate`` (used for complete tags only), reject strings that
    carry more than one person, gender, or number code.
    """
    if not text:
        raise TagFormatError("empty feature group")
    atoms = tuple(text)
    if any(ch.isspace() for ch in atoms):
        raise TagFormatError(f"whitespace in feature string {text!r}")
    if validate:
        for label, codes in _CLASSES.items():
            if sum(a in codes for a in atoms) > 1:
                raise TagFormatError(f"duplicate {label} code in feature string {text!r}")
    return frozenset(atoms)


def format_features(features: FeatureSet) -> str:
    return "".join(sorted(features, key=lambda a: (_RANK.get(a, 0), a)))


def _feature_tail(features: FeatureSet) -> str:
    """The ``:FEATS`` tail that every notation writes, or nothing."""
    feats = format_features(features)
    return f":{feats}" if feats else ""


@dataclass(frozen=True)
class Category:
    """Main category code plus optional subcategories and bracketed traits."""

    main: str
    subcats: tuple[str, ...] = ()
    traits: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "".join([self.main, *(f";{s}" for s in self.subcats), *(f"[{t}]" for t in self.traits)])


_CATEGORY_RE = re.compile(r"([^\[\]]+)((?:\[[^\[\]]*\])*)")


def parse_category(text: str, categories: Iterable[str]) -> Category:
    m = _CATEGORY_RE.fullmatch(text.strip())
    if not m:
        raise TagFormatError(f"malformed category part {text!r}")
    body, trait_part = m.groups()
    traits = []
    for raw in re.findall(r"\[([^\[\]]*)\]", trait_part):
        marker = re.sub(r"\s+", "", raw)
        if not marker:
            raise TagFormatError(f"empty trait marker in {text!r}")
        traits.append(marker)
    parts = [p.strip() for p in body.split(";")]
    main = parts[0]
    subcats = tuple(parts[1:])
    if not main:
        raise TagFormatError(f"missing main category in {text!r}")
    if main not in set(categories):
        raise TagFormatError(f"unknown main category {main!r}")
    if any(not s for s in subcats):
        raise TagFormatError(f"empty subcategory in {text!r}")
    return Category(main, subcats, tuple(traits))


@dataclass(frozen=True)
class CompleteTag:
    """One fully specified analysis, attached to an exact surface form."""

    surface: str
    lemma: str
    category: Category
    features: FeatureSet = frozenset()
    compound: bool = False

    def notation(self) -> str:
        return self._notation

    @cached_property
    def _notation(self) -> str:
        return f"<{self.lemma} {self.category}{_feature_tail(self.features)}>"

    @cached_property
    def sort_key(self) -> tuple:
        """Total, injective ordering key over edge labels: separators
        first, then tags by surface, lemma, category, features and
        compoundness."""
        return (
            1,
            self.surface,
            self.lemma,
            str(self.category),
            format_features(self.features),
            self.compound,
        )

    def display(self) -> str:
        """Lexicon-entry style rendering, ``lemma.CAT:FEATS``."""
        return f"{self.lemma}.{self.category}{_feature_tail(self.features)}"


@dataclass(frozen=True)
class Separator:
    """A literal separator character; doubles as edge label and pattern."""

    char: str

    @property
    def surface(self) -> str:
        return self.char

    def notation(self) -> str:
        return self.char

    @cached_property
    def sort_key(self) -> tuple:
        """Separators sort before tags; see ``CompleteTag.sort_key``."""
        return (0, self.char, "", "", "", False)


@dataclass(frozen=True)
class LemmaPattern:
    """Matches complete tags with this lemma and at least these features."""

    lemma: str
    features: FeatureSet = frozenset()

    def notation(self) -> str:
        return f"<{self.lemma}{_feature_tail(self.features)}>"


@dataclass(frozen=True)
class CategoryPattern:
    """Matches complete tags with this main category and these features."""

    main: str
    features: FeatureSet = frozenset()

    def notation(self) -> str:
        return f"<{self.main}{_feature_tail(self.features)}>"


@dataclass(frozen=True)
class SurfaceForm:
    """Matches every analysis of one literal simple form."""

    form: str

    def notation(self) -> str:
        return self.form


@dataclass(frozen=True)
class AnyWord:
    """Matches any simple-word tag; never compounds, never separators."""

    def notation(self) -> str:
        return f"<{ANY_WORD_NAME}>"


EdgeLabel = Union[CompleteTag, Separator]
IncompleteTag = Union[LemmaPattern, CategoryPattern, SurfaceForm, AnyWord, Separator]


def _is_simple_form_text(text: str) -> bool:
    return bool(text) and not any(ch.isspace() or ch in SEPARATOR_CHARS for ch in text)


def parse_complete_tag(text: str, categories: Iterable[str], surface: str | None = None) -> CompleteTag:
    """Parse ``<lemma CAT(;SUB)*([+TRAIT])*(:FEATS)?>`` notation.

    ``surface`` supplies the attached form out of band; it defaults to the
    lemma (compound lemmas turn their ``/`` joints back into spaces).
    Multiple ``:FEATS`` groups are rejected here: in lexicon lines they
    denote alternatives and are expanded by the lexicon loader.
    """
    stripped = text.strip()
    if not (stripped.startswith("<") and stripped.endswith(">") and len(stripped) > 2):
        raise TagFormatError(f"complete tag must be bracketed: {text!r}")
    inner = stripped[1:-1].strip()
    lemma, _, rest = inner.partition(" ")
    if not lemma or not rest.strip():
        raise TagFormatError(f"expected '<lemma CATEGORY...>' in {text!r}")
    groups = rest.strip().split(":")
    if len(groups) > 2:
        raise TagFormatError(
            f"multiple feature groups in {text!r} denote lexicon alternatives, not one tag"
        )
    category = parse_category(groups[0], categories)
    features = parse_features(groups[1], validate=True) if len(groups) == 2 else frozenset()
    if surface is None:
        surface = lemma.replace("/", " ")
    compound = any(ch.isspace() or ch in SEPARATOR_CHARS for ch in surface)
    return CompleteTag(surface, lemma, category, features, compound)


def parse_separator(text: str) -> Separator:
    """The separator ``text`` writes: one ``SEPARATOR_CHARS`` character,
    the only kind the tokenizer makes."""
    if len(text) != 1 or text not in SEPARATOR_CHARS:
        raise TagFormatError(f"neither a bracketed tag nor one separator character: {text!r}")
    return Separator(text)


def parse_label(text: str, categories: Iterable[str], surface: str | None = None) -> EdgeLabel:
    """An edge label's text: a bracketed complete tag, attached to
    ``surface`` as in ``parse_complete_tag``, or one separator character."""
    if text.startswith("<"):
        return parse_complete_tag(text, categories, surface)
    return parse_separator(text)


def parse_incomplete_tag(text: str, categories: Iterable[str]) -> IncompleteTag:
    """Parse a constraint pattern.

    Bracketed text naming a known main category yields a category pattern,
    ``<MOT>`` the universal simple-word pattern, and anything else bracketed
    a lemma pattern.  Unbracketed text is a literal surface form or a single
    separator character.
    """
    stripped = text.strip()
    if not stripped:
        raise TagFormatError("empty incomplete tag")
    if stripped.startswith("<") and stripped.endswith(">"):
        inner = stripped[1:-1].strip()
        if not inner:
            raise TagFormatError(f"empty pattern {text!r}")
        groups = inner.split(":")
        if len(groups) > 2:
            raise TagFormatError(f"multiple feature groups in pattern {text!r}")
        head = groups[0].strip()
        features = parse_features(groups[1]) if len(groups) == 2 else frozenset()
        if not head:
            raise TagFormatError(f"missing head in pattern {text!r}")
        if head == ANY_WORD_NAME:
            if features:
                raise TagFormatError(f"<{ANY_WORD_NAME}> takes no features")
            return AnyWord()
        if head in set(categories):
            return CategoryPattern(head, features)
        if not all(_is_simple_form_text(part) for part in head.split("/")):
            raise TagFormatError(f"malformed lemma {head!r}")
        return LemmaPattern(head, features)
    if stripped[0] in SEPARATOR_CHARS:
        return parse_separator(stripped)
    if not _is_simple_form_text(stripped):
        raise TagFormatError(f"surface pattern must be one simple form: {text!r}")
    return SurfaceForm(stripped)


def conforms(label: EdgeLabel, pattern: IncompleteTag) -> bool:
    """Decide whether an edge label satisfies a pattern.  Total function.

    Lemma and category constraints compare for equality, feature constraints
    by set inclusion.  A surface-form pattern matches exactly the simple
    tags attached to that form; separators match only themselves.
    """
    if isinstance(pattern, Separator):
        return label == pattern
    if isinstance(label, Separator):
        return False
    if isinstance(pattern, AnyWord):
        return not label.compound
    if isinstance(pattern, SurfaceForm):
        return not label.compound and label.surface == pattern.form
    if isinstance(pattern, CategoryPattern):
        return label.category.main == pattern.main and pattern.features <= label.features
    if isinstance(pattern, LemmaPattern):
        return label.lemma == pattern.lemma and pattern.features <= label.features
    raise TypeError(f"not an incomplete tag: {pattern!r}")


class ConformityTable:
    """``conforms`` compiled over a fixed pattern sequence.

    ``mask(label)`` has bit ``i`` set exactly when
    ``conforms(label, patterns[i])``.  Patterns are grouped by the one
    label field they test for equality, so a mask costs a few dictionary
    lookups and feature-inclusion tests, whatever the number of patterns.
    """

    def __init__(self, patterns: Iterable[IncompleteTag]):
        self.separators: dict[str, int] = {}
        self.surfaces: dict[str, int] = {}
        self.any_word = 0
        mains: dict[str, dict[FeatureSet, int]] = {}
        lemmas: dict[str, dict[FeatureSet, int]] = {}
        for i, pattern in enumerate(patterns):
            bit = 1 << i
            if isinstance(pattern, Separator):
                self.separators[pattern.char] = self.separators.get(pattern.char, 0) | bit
            elif isinstance(pattern, AnyWord):
                self.any_word |= bit
            elif isinstance(pattern, SurfaceForm):
                self.surfaces[pattern.form] = self.surfaces.get(pattern.form, 0) | bit
            elif isinstance(pattern, CategoryPattern):
                by_features = mains.setdefault(pattern.main, {})
                by_features[pattern.features] = by_features.get(pattern.features, 0) | bit
            elif isinstance(pattern, LemmaPattern):
                by_features = lemmas.setdefault(pattern.lemma, {})
                by_features[pattern.features] = by_features.get(pattern.features, 0) | bit
            else:
                raise TypeError(f"not an incomplete tag: {pattern!r}")
        # field value -> ((required features, bits), ...)
        self.mains = {k: tuple(v.items()) for k, v in mains.items()}
        self.lemmas = {k: tuple(v.items()) for k, v in lemmas.items()}

    def mask(self, label: EdgeLabel) -> int:
        if isinstance(label, Separator):
            return self.separators.get(label.char, 0)
        bits = 0 if label.compound else self.any_word | self.surfaces.get(label.surface, 0)
        features = label.features
        for required, group in self.mains.get(label.category.main, ()):
            if required <= features:
                bits |= group
        for required, group in self.lemmas.get(label.lemma, ()):
            if required <= features:
                bits |= group
        return bits


def equivalent(a: Sequence[EdgeLabel], b: Sequence[EdgeLabel]) -> bool:
    """True iff two tag sequences describe the same text with the same
    delimitation into simple and compound words: equal length and
    item-by-item identical surfaces."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        return False
    return all(
        x.surface == y.surface and isinstance(x, Separator) == isinstance(y, Separator)
        for x, y in zip(a, b)
    )


def collation_key(text: str) -> str:
    """Accent-insensitive ordering key for stable display listings."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))
