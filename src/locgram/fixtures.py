"""Paths of the bundled demonstration lexicon and grammars, and loaders for them."""

from __future__ import annotations

from pathlib import Path

from .grammar import LocalGrammar, load_grammar
from .lexicon import Lexicon, load_categories, load_lexicon

GRAMMAR_FILES = {
    "de-ce-que-chain": "de_ce_que_chain.json",
    "subject-inversion": "subject_inversion.json",
    "ne-verb": "ne_verb.json",
    "ne-lui": "ne_lui.json",
    "preverb-pronouns": "preverb_pronouns.json",
    "de-le-and-inversion": "de_le_inversion.json",
    "aucun-pronoun": "aucun_pronoun.json",
}


def data_path(name: str) -> str:
    """Filesystem path of a bundled data file (for CLI invocations)."""
    return str(Path(__file__).parent / "data" / name)


def categories_path() -> str:
    return data_path("categories.txt")


def lexicon_path() -> str:
    return data_path("french_core.dic")


def corpus_path() -> str:
    return data_path("demo_corpus.txt")


def grammar_path(name: str) -> str:
    return data_path(GRAMMAR_FILES[name])


def core_categories() -> tuple[str, ...]:
    return load_categories(Path(categories_path()).read_text(encoding="utf-8").splitlines())


def core_lexicon() -> Lexicon:
    lines = Path(lexicon_path()).read_text(encoding="utf-8").splitlines()
    return load_lexicon(lines, core_categories())


def grammar(name: str) -> LocalGrammar:
    return load_grammar(Path(grammar_path(name)).read_text(encoding="utf-8"), core_categories())
