"""Seeded inputs for the locgram benchmark.

Everything here depends only on the seed and on the files in
``perfbench/data`` (verbatim copies of the bundled demo lexicon, category
inventory and grammars), never on ``locgram`` itself.  The inputs therefore
stay byte-identical across commits that change ``src/``, and a change to the
program cannot change what it is measured on.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# The tokenizer's rule, restated so generated golds line up with tokens.
SEPARATORS = "-'’.,;:!?…"
_TOKEN_RE = re.compile(rf"[^\s{re.escape(SEPARATORS)}]+|[{re.escape(SEPARATORS)}]")

BUNDLED_GRAMMARS = (
    "de_ce_que_chain.json",
    "subject_inversion.json",
    "ne_verb.json",
    "ne_lui.json",
    "preverb_pronouns.json",
    "de_le_inversion.json",
    "aucun_pronoun.json",
)

# Worked sentences of the paper with hand-written gold taggings (the first
# gold of each is the correct one; the others are the worked mistaggings).
WORKED = {
    "confirm-chain": (
        "Cela vient de ce que je ne me le suis pas fait confirmer aussitôt",
        (
            "<cela PRO:ms> <venir V:P3s> <de PREP> <ce PRO:3s> <que CNJS> <je PRO:1s> "
            "<ne XI> <me PRO:1s> <le PRO:3ms> <être V:P1s> <pas ADV> <faire V:Kms> "
            "<confirmer V:W> <aussitôt ADV>",
        ),
    ),
    "accounts": (
        "Ne fait-il les comptes que pour rendre service ?",
        (
            "<ne XI[+Préd]> <faire V:P3s> - <il PRO:3ms> <le DET:mp> <compte N:mp> "
            "<que CNJS> <pour PREP> <rendre V:W> <service N:ms> ?",
            "<ne XI[+Préd]> <fait N:ms> - <il PRO:3ms> <le DET:mp> <compte N:mp> "
            "<que CNJS> <pour PREP> <rendre V:W> <service N:ms> ?",
        ),
    ),
    "tell-him": (
        "Ne lui dis pas",
        (
            "<ne XI> <lui PRO:3s> <dire V:Y2s> <pas ADV>",
            "<ne XI> <luire V:Kms> <dire V:Y2s> <pas ADV>",
        ),
    ),
    "pressing": (
        "Pourquoi me pressent-il de le lui dire ?",
        (
            "<pourquoi ADV> <me PRO:1s> <presser V:P3p> - <il PRO:3ms> <de PREP> "
            "<le PRO:3ms> <lui PRO:3s> <dire V:W> ?",
            "<pourquoi ADV> <me PRO:1s> <presser V:P3p> - <il PRO:3ms> <de PREP> "
            "<le PRO:3ms> <luire V:Kms> <dire V:W> ?",
        ),
    ),
    "limit": (
        "Mais aucun ne peut dépasser cette limite",
        (
            "<mais CNJC> <aucun PRO:ms> <ne XI> <pouvoir V:P3s> <dépasser V:W> "
            "<ce DET:fs> <limite N:fs>",
            "<mais CNJC> <aucun DET:ms> <ne XI> <pouvoir V:P3s> <dépasser V:W> "
            "<ce DET:fs> <limite N:fs>",
        ),
    ),
    "railway": (
        "Il traverse le chemin de fer.",
        ("<il PRO:3ms> <traverser V:P3s> <le DET:ms> <chemin/de/fer N;NDN:ms> .",),
    ),
    "moment": (
        "Je ne me le suis pas fait confirmer sur le moment",
        (
            "<je PRO:1s> <ne XI> <me PRO:1s> <le PRO:3ms> <être V:P1s> <pas ADV> "
            "<faire V:Kms> <confirmer V:W> <sur/le/moment ADV;PDETC>",
        ),
    ),
}

# The paper's worked verdicts: (sentence, gold index, grammar files, accepted).
# They hold whatever the seed, so they are a fixed expected output.
WORKED_VERDICTS = (
    ("confirm-chain", 0, ("de_ce_que_chain.json",), True),
    ("accounts", 0, ("subject_inversion.json",), True),
    ("accounts", 0, ("ne_verb.json",), True),
    ("accounts", 0, ("subject_inversion.json", "ne_verb.json"), False),
    ("accounts", 1, ("ne_verb.json",), False),
    ("tell-him", 0, ("ne_verb.json",), False),
    ("tell-him", 0, ("ne_lui.json",), True),
    ("tell-him", 0, ("ne_verb.json", "ne_lui.json"), True),
    ("tell-him", 1, ("ne_lui.json",), False),
    ("tell-him", 1, ("ne_verb.json", "ne_lui.json"), True),
    ("pressing", 1, ("preverb_pronouns.json",), False),
    ("pressing", 1, ("de_le_inversion.json",), False),
    ("pressing", 1, ("preverb_pronouns.json", "de_le_inversion.json"), True),
    ("limit", 0, ("aucun_pronoun.json",), True),
    ("limit", 1, ("aucun_pronoun.json",), False),
)

# Demo words that filler text borrows, so the bundled grammars fire there too.
# "ne" is left out: after a synthetic determiner with no pronoun reading it
# makes aucun-pronoun reject every tagging, and one such sentence would empty
# a whole document's filtered lattice.
_FUNCTION_WORDS = ("le", "de", "que", "ce", "il", "les", "lui", "me", "pas", "je", "fait", "sur")
_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo fu ga go gu ka ke ki ko ku la li lo lu "
    "ma mi mo mu na ni no nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to "
    "tu va ve vi vo vu za ze zi zo zu bra cro dri fla gli pla tre vor nal sim tur mel"
).split()
_CATEGORY_WEIGHTS = (
    ("N", 30), ("V", 25), ("A", 20), ("ADV", 8), ("PRO", 4), ("DET", 4),
    ("PREP", 3), ("CNJS", 2), ("CNJC", 2), ("INT", 2),
)
_FEATURES = {
    "N": ("ms", "mp", "fs", "fp"),
    "A": ("ms", "mp", "fs", "fp"),
    "V": ("P1s", "P3s", "P3p", "Kms", "Kfp", "W", "G", "I3s", "F1p", "Y2s"),
    "PRO": ("3ms", "3fs", "1s", "3p"),
    "DET": ("ms", "fs", "mp"),
}
_OUTPUT_PATTERNS = ("<N>", "<N:s>", "<V>", "<V:3s>", "<V:W>", "<A>", "<A:f>", "<PRO>", "<DET>", "<ADV>", "<PREP>")


def tokens_of(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _notation(lemma: str, category: str, feats: str) -> str:
    return f"<{lemma} {category}:{feats}>" if feats else f"<{lemma} {category}>"


@dataclass
class Vocabulary:
    """What the generated lexicon says, in gold notation: simple surface ->
    analyses, and first token -> (compound tokens, analysis)."""

    simple: dict
    compounds: dict

    def add_line(self, line: str) -> None:
        surface, _, rest = line.partition(",")
        lemma_part, _, codes = rest.rpartition(".")
        category, *alternatives = codes.split(":")
        lemma = "/".join(lemma_part.split())
        tags = [_notation(lemma, category, feats) for feats in alternatives or ("",)]
        toks = tuple(tokens_of(surface))
        if len(toks) == 1:
            self.simple.setdefault(surface, []).extend(tags)
        else:
            self.compounds.setdefault(toks[0], []).extend((toks, t) for t in tags)

    def random_path(self, rng: random.Random, toks: list[str]) -> list[str]:
        """One admitted tagging, chosen uniformly among the alternatives at
        each position (a compound counts as one alternative)."""
        gold: list[str] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            if tok in SEPARATORS:
                gold.append(tok)
                i += 1
                continue
            options = [(1, t) for t in self.simple[tok]]
            options += [
                (len(ctoks), t)
                for ctoks, t in self.compounds.get(tok, ())
                if tuple(toks[i : i + len(ctoks)]) == ctoks
            ]
            width, tag = rng.choice(options)
            gold.append(tag)
            i += width
        return gold


def demo_lexicon_lines() -> list[str]:
    return [
        line
        for line in (DATA / "french_core.dic").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


@dataclass
class Language:
    """A seeded lexicon and the text generator that draws on it."""

    lines: list[str]
    vocab: Vocabulary
    frequent: list[str]
    synthetic: list[str]
    compound_surfaces: list[str]

    def filler_word(self, rng: random.Random) -> str:
        roll = rng.random()
        if roll < 0.05:
            return rng.choice(_FUNCTION_WORDS)
        if roll < 0.4:
            return rng.choice(self.frequent)
        return rng.choice(self.synthetic)

    def filler(self, rng: random.Random, n_words: int) -> list[str]:
        toks: list[str] = []
        while len(toks) < n_words:
            if toks and rng.random() < 0.08:
                toks.append(",")
            elif rng.random() < 0.06:
                toks.extend(tokens_of(rng.choice(self.compound_surfaces)))
            else:
                toks.append(self.filler_word(rng))
        return toks


def make_language(rng: random.Random, n_words: int, n_compounds: int) -> Language:
    """The bundled demo entries plus ``n_words`` synthetic surfaces (1-3
    entries each) and ``n_compounds`` two-word compounds."""
    vocab = Vocabulary({}, {})
    lines = demo_lexicon_lines()
    for line in lines:
        vocab.add_line(line)
    taken = set(vocab.simple)
    surfaces: list[str] = []
    while len(surfaces) < n_words:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            surfaces.append(word)
    lemmas = surfaces[: max(1, n_words // 3)]
    cats = [c for c, _ in _CATEGORY_WEIGHTS]
    weights = [w for _, w in _CATEGORY_WEIGHTS]
    for surface in surfaces:
        for _ in range(rng.choices((1, 2, 3), (50, 35, 15))[0]):
            category = rng.choices(cats, weights)[0]
            lemma = surface if rng.random() < 0.5 else rng.choice(lemmas)
            feats = _FEATURES.get(category, ())
            groups = rng.sample(feats, rng.randint(1, min(2, len(feats)))) if feats else []
            line = f"{surface},{lemma}.{category}" + "".join(f":{g}" for g in groups)
            lines.append(line)
            vocab.add_line(line)
    compound_surfaces = []
    for _ in range(n_compounds):
        a, b = rng.choice(surfaces), rng.choice(surfaces)
        surface = f"{a} {b}"
        line = f"{surface},{surface}.{rng.choice(('N;NA:ms', 'N;NA:fs', 'ADV;PDETC'))}"
        compound_surfaces.append(surface)
        lines.append(line)
        vocab.add_line(line)
    return Language(lines, vocab, surfaces[:300], surfaces, compound_surfaces)


def bundled_grammar_texts() -> dict[str, str]:
    return {name: (DATA / name).read_text(encoding="utf-8") for name in BUNDLED_GRAMMARS}


def synthetic_grammar(rng: random.Random, language: Language, index: int) -> str:
    """A small chain transducer anchored on a literal word.  The remaining
    inputs rotate through literal forms, patterns implied by their outputs,
    and general patterns; every third grammar carries a ``<MOT>`` or
    category self-loop, so the union is cyclic."""
    kind = ("literal", "implied", "general")[index % 3]
    n_trans = rng.randint(2, 4)
    transitions = []
    for k in range(n_trans):
        out = rng.choice(_OUTPUT_PATTERNS)
        if k == 0 or kind == "literal":
            inp = rng.choice(language.frequent[:60])
        elif kind == "implied":
            inp = out.split(":")[0] + ">" if ":" in out else out
        else:
            inp = rng.choice(("<MOT>", "<N>", "<V>", "<A>", "<ADV>", f"<{rng.choice(language.frequent[:60])}>"))
        transitions.append({"from": k, "to": k + 1, "in": inp, "out": out})
    if kind == "implied":
        loop = rng.randint(1, n_trans - 1)
        pattern = rng.choice(("<MOT>", "<A>", "<ADV>"))
        transitions.append({"from": loop, "to": loop, "in": pattern, "out": pattern})
    doc = {
        "name": f"synthetic-{index}",
        "states": list(range(n_trans + 1)),
        "initial": 0,
        "finals": [n_trans],
        "transitions": transitions,
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def _sentence_tokens(text: str) -> list[str]:
    toks = tokens_of(text)
    toks[0] = toks[0][0].lower() + toks[0][1:]
    return toks


@dataclass(frozen=True)
class Document:
    text: str
    segments: tuple  # sentence texts; the document is their concatenation


def make_document(rng: random.Random, language: Language, n_tokens: int) -> Document:
    """Worked sentences and synthetic filler clauses, each ending in
    sentence punctuation, until ``n_tokens`` tokens."""
    segments = []
    count = 0
    names = sorted(WORKED)
    while count < n_tokens:
        if rng.random() < 0.3:
            toks = _sentence_tokens(WORKED[rng.choice(names)][0])
        else:
            toks = language.filler(rng, rng.randint(4, 9))
        if toks[-1] not in ".?!":
            toks.append(rng.choice(".!") if rng.random() < 0.1 else ".")
        segments.append(" ".join(toks))
        count += len(toks)
    return Document(" ".join(segments), tuple(segments))


def make_corpus_item(rng: random.Random, language: Language, random_share: float) -> tuple[str, str]:
    """One corpus sentence of 1-3 worked sentences with filler clauses
    between them, and its gold tagging: hand-written for the worked parts,
    seeded for filler words, or (``random_share``) one random lattice path."""
    toks: list[str] = []
    gold: list[str] = []
    names = sorted(WORKED)
    for part in range(rng.randint(1, 3)):
        if part or rng.random() < 0.5:
            filler = language.filler(rng, rng.randint(2, 6)) + [","]
            toks += filler
            gold += language.vocab.random_path(rng, filler)
        text, golds = WORKED[rng.choice(names)]
        toks += _sentence_tokens(text)
        gold += rng.choice(golds).split()
    if toks[-1] not in ".?!":
        toks.append(".")
        gold.append(".")
    if rng.random() < random_share:
        gold = language.vocab.random_path(rng, toks)
    return " ".join(toks), " ".join(gold)


def corpus_text(items: list[tuple[str, str]]) -> str:
    return "".join(f"T: {text}\nG: {gold}\n" for text, gold in items)


# Grammar-author loop: argv lists run against the bundled data.
_DATA_DIR = "src/locgram/data"


def _grammar_args(*names: str) -> list[str]:
    args: list[str] = []
    for name in names:
        args += ["--grammar", f"{_DATA_DIR}/{name}"]
    return args


def cli_catalogue() -> list[list[str]]:
    """Every command the ``cli-edit-loop`` workload issues; the seed only
    orders them."""
    grammars_for = {
        "confirm-chain": ("de_ce_que_chain.json", "ne_verb.json"),
        "accounts": ("subject_inversion.json", "ne_verb.json"),
        "tell-him": ("ne_verb.json", "ne_lui.json"),
        "pressing": ("preverb_pronouns.json", "de_le_inversion.json"),
        "limit": ("aucun_pronoun.json", "ne_verb.json"),
        "railway": ("subject_inversion.json", "de_le_inversion.json"),
        "moment": ("preverb_pronouns.json", "ne_verb.json"),
    }
    commands: list[list[str]] = []
    for name in sorted(WORKED):
        text = WORKED[name][0]
        first, second = grammars_for[name]
        commands += [
            ["tag", text],
            ["tag", "--format", "lattice", text],
            ["apply", *_grammar_args(first), "--format", "paths", text],
            ["apply", *_grammar_args(first, second), "--format", "paths", text],
            ["apply", "--sequential", *_grammar_args(first, second), "--format", "paths", text],
        ]
        if name in ("tell-him", "pressing", "limit", "railway"):
            commands.append(["diff-oracle", *_grammar_args(first, second), text])
    corpus = f"{_DATA_DIR}/demo_corpus.txt"
    commands += [
        ["check", *_grammar_args("ne_verb.json"), corpus],
        ["check", *_grammar_args("ne_lui.json"), corpus],
        ["check", *_grammar_args("ne_verb.json", "ne_lui.json"), "--format", "report", corpus],
    ]
    return commands


def cli_key(argv: list[str]) -> str:
    return json.dumps(argv, ensure_ascii=False)
