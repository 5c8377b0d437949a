"""Randomized (lexicon, sentence, grammar) instances for differential
testing of the filtering engine against the brute-force oracle.

Instances stay desk-sized: short sentences, few analyses per form, small
transducers (cycles included).  Sentences whose lattice exceeds a path cap
are resampled so the enumeration oracle stays cheap.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .grammar import GrammarClass, LocalGrammar, classify, load_grammar
from .lattice import Lattice, _reached, count_paths
from .lexicon import Lexicon, build_initial_lattice, load_lexicon, tokenize

_SURFACES = ["ga", "bo", "ti", "ra", "mu", "ze", "ko", "da", "fe", "lu"]
_CATS = ["V", "N", "A", "ADV", "PRO", "DET"]
_MAX_STATES = 4
_TENSE = ["P", "K", "W"]
_CATEGORIES = tuple(_CATS)


class Instance(NamedTuple):
    lexicon: Lexicon
    text: str
    grammar: LocalGrammar
    lattice: Lattice


def _feature_string(rng: random.Random) -> str:
    atoms = []
    if rng.random() < 0.7:
        atoms.append(rng.choice(_TENSE))
    if rng.random() < 0.4:
        atoms.append(rng.choice("123"))
    if rng.random() < 0.4:
        atoms.append(rng.choice("mf"))
    if rng.random() < 0.5:
        atoms.append(rng.choice("sp"))
    return "".join(atoms)


def random_lexicon(rng: random.Random) -> Lexicon:
    surfaces = rng.sample(_SURFACES, rng.randint(4, 7))
    lines = []
    for surface in surfaces:
        for _ in range(rng.randint(1, 2)):
            lemma = rng.choice(surfaces)
            cat = rng.choice(_CATS)
            groups = []
            for _ in range(rng.randint(0, 2)):
                feats = _feature_string(rng)
                if feats:
                    groups.append(feats)
            lines.append(f"{surface},{lemma}.{cat}" + "".join(f":{g}" for g in groups))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(surfaces), rng.choice(surfaces)
        lines.append(f"{a} {b},{a} {b}.{rng.choice(_CATS)}")
    return load_lexicon(lines, _CATEGORIES)


def random_sentence(rng: random.Random, lexicon: Lexicon, max_tokens: int) -> str:
    surfaces = sorted(lexicon.simple)
    pieces = []
    for _ in range(rng.randint(0, max_tokens)):
        if pieces and rng.random() < 0.15:
            pieces.append("-")
        else:
            pieces.append(rng.choice(surfaces))
    return " ".join(pieces)


def _random_pattern(rng: random.Random, lexicon: Lexicon, *, output: bool) -> str:
    surfaces = sorted(lexicon.simple)
    lemmas = sorted({e.lemma for es in lexicon.simple.values() for e in es})
    kind = rng.random()
    if kind < 0.35:
        feats = _feature_string(rng) if rng.random() < 0.5 else ""
        cat = rng.choice(_CATS)
        return f"<{cat}:{feats}>" if feats else f"<{cat}>"
    if kind < 0.55:
        feats = _feature_string(rng) if rng.random() < 0.4 else ""
        lemma = rng.choice(lemmas)
        return f"<{lemma}:{feats}>" if feats else f"<{lemma}>"
    if kind < 0.75:
        return rng.choice(surfaces)
    if kind < 0.85 and not output:
        return "<MOT>"
    if kind < 0.9:
        return "-"
    return rng.choice(surfaces)


def _weaken(rng: random.Random, out_label: str) -> str:
    """An input label implied by the output label."""
    if rng.random() < 0.3:
        return out_label
    if out_label.startswith("<") and ":" in out_label:
        head, feats = out_label[1:-1].split(":", 1)
        kept = "".join(a for a in feats if rng.random() < 0.5)
        return f"<{head}:{kept}>" if kept else f"<{head}>"
    if not out_label.startswith("<") and len(out_label) > 1:
        # a surface form; the universal simple-word pattern is implied
        return "<MOT>" if rng.random() < 0.3 else out_label
    return out_label


def random_grammar(rng: random.Random, lexicon: Lexicon, mode: str) -> LocalGrammar:
    """``mode``: ``simple`` (surface inputs only), ``oii`` (outputs imply
    inputs), or ``general``."""
    surfaces = sorted(lexicon.simple)
    for _ in range(60):
        n = rng.randint(2, _MAX_STATES)
        states = list(range(n))
        transitions = []
        for _ in range(rng.randint(1, 5)):
            src = rng.choice(states[:-1])
            dst = rng.choice(states)
            out = _random_pattern(rng, lexicon, output=True)
            if mode == "simple":
                inp = "-" if out == "-" else rng.choice(surfaces)
            elif mode == "oii":
                inp = rng.choice(surfaces) if rng.random() < 0.4 else _weaken(rng, out)
            else:
                inp = _random_pattern(rng, lexicon, output=False)
            transitions.append({"from": src, "to": dst, "in": inp, "out": out})
        doc = {
            "name": f"random-{mode}",
            "states": states,
            "initial": 0,
            "finals": [n - 1],
            "transitions": transitions,
        }
        doc = _prune_document(doc)
        if doc is None:
            continue
        g = load_grammar(json.dumps(doc), _CATEGORIES)
        if mode == "simple" and classify(g) is not GrammarClass.SIMPLE_INPUTS:
            continue
        if mode == "oii" and classify(g) is not GrammarClass.OUTPUT_IMPLIES_INPUT:
            continue
        return g
    raise RuntimeError("could not draw a valid grammar")


def _prune_document(doc: dict) -> dict | None:
    """Drop unreachable and dead states so the document validates, or None
    when the initial state is dead; its states are ``0..n-1``.  A kept
    initial state keeps a final state and the arcs of a path to it."""
    finals = set(doc["finals"])
    tails, heads = [t["from"] for t in doc["transitions"]], [t["to"] for t in doc["transitions"]]
    n = len(doc["states"])
    forward, backward = _reached([doc["initial"]], n, tails, heads), _reached(finals, n, heads, tails)
    keep = {q for q in doc["states"] if forward[q] and backward[q]}
    if doc["initial"] not in keep:
        return None
    return {
        "name": doc["name"],
        "states": sorted(keep),
        "initial": doc["initial"],
        "finals": sorted(finals & keep),
        "transitions": [t for t in doc["transitions"] if t["from"] in keep and t["to"] in keep],
    }


def random_instance(
    rng: random.Random,
    *,
    mode: str = "general",
    max_tokens: int = 10,
    path_cap: int = 2000,
) -> Instance:
    while True:
        lexicon = random_lexicon(rng)
        grammar = random_grammar(rng, lexicon, mode)
        text = random_sentence(rng, lexicon, max_tokens)
        lattice = build_initial_lattice(tokenize(text), lexicon)
        if count_paths(lattice) <= path_cap:
            return Instance(lexicon, text, grammar, lattice)
