#!/usr/bin/env python3
"""Print one sha256 per kind of pipeline output, so that two checkouts can
be compared for byte-identical output with one command each.

The inputs are the bundled demo corpus under each bundled grammar and
their union, plus seeded ``randgen.random_instance`` draws in the three
grammar modes.  For every (lattice, grammar) pair the digests cover
``to_json`` of the initial, filtered and minimised lattices, ``to_dot`` of
the three, and the ``silence_check`` report lines.  A random instance's
corpus is its own text with the first few lattice paths as gold taggings.
``grammar_dot`` covers ``grammar.to_dot`` of every grammar used, and
``lexicon`` the entries of the bundled lexicon and of every random
instance's lexicon, in table order.

    PYTHONPATH=src python scripts/output_digest.py --trials 200

Run it in two checkouts with the same arguments; the outputs must match.
"""

import argparse
import hashlib
import random
from itertools import islice

from locgram import build_initial_lattice, fixtures, tokenize, union
from locgram.engine import CorpusItem, filter as filter_lattice, load_corpus, silence_check
from locgram.grammar import to_dot as grammar_to_dot
from locgram.lattice import iter_paths, minimize, path_labels, to_dot, to_json
from locgram.randgen import random_instance
from locgram.tags import format_features

KINDS = ("initial_json", "filtered_json", "minimized_json", "dot", "silence_lines", "grammar_dot", "lexicon")


class Digests:
    def __init__(self):
        self.hashes = {kind: hashlib.sha256() for kind in KINDS}

    def add(self, kind: str, text: str) -> None:
        self.hashes[kind].update(text.encode("utf-8") + b"\0")

    def lexicon(self, lexicon) -> None:
        """One line per entry: surface, lemma, category and alternatives.
        Features go through ``format_features``, since a frozenset's
        ``repr`` order depends on the string hash seed."""
        for table in (lexicon.simple, lexicon.compounds):
            for entries in table.values():
                for e in entries:
                    feats = ":".join(map(format_features, e.alternatives))
                    self.add("lexicon", f"{e.surface}\t{e.lemma}\t{e.category}\t{feats}")

    def pipeline(self, grammar, lattice, corpus, lexicon) -> None:
        filtered = filter_lattice(grammar, lattice)
        minimized = minimize(filtered)
        self.add("initial_json", to_json(lattice))
        self.add("filtered_json", to_json(filtered))
        self.add("minimized_json", to_json(minimized))
        for l in (lattice, filtered, minimized):
            self.add("dot", to_dot(l))
        self.add("silence_lines", "\n".join(silence_check(grammar, corpus, lexicon).lines()))


def gold_corpus(text: str, lattice, paths: int) -> list:
    """The text once per path, for the first ``paths`` paths, that path as
    its gold tagging."""
    return [
        CorpusItem(f"p{k}", text, " ".join(label.notation() for label in path_labels(p)))
        for k, p in enumerate(islice(iter_paths(lattice), paths))
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=200, help="random instances per mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paths", type=int, default=8, help="gold taggings per random instance")
    args = parser.parse_args()

    digests = Digests()
    lexicon = fixtures.core_lexicon()
    digests.lexicon(lexicon)
    grammars = [fixtures.grammar(name) for name in fixtures.GRAMMAR_FILES]
    grammars.append(union(grammars))
    for g in grammars:
        digests.add("grammar_dot", grammar_to_dot(g))
    with open(fixtures.corpus_path(), encoding="utf-8") as f:
        corpus = load_corpus(f)
    for item in corpus:
        lattice = build_initial_lattice(tokenize(item.text), lexicon)
        for g in grammars:
            digests.pipeline(g, lattice, [item], lexicon)

    for mode in ("general", "simple", "oii"):
        rng = random.Random(f"{args.seed}:{mode}")
        for _ in range(args.trials):
            inst = random_instance(rng, mode=mode)
            digests.add("grammar_dot", grammar_to_dot(inst.grammar))
            digests.lexicon(inst.lexicon)
            corpus = gold_corpus(inst.text, inst.lattice, args.paths)
            digests.pipeline(inst.grammar, inst.lattice, corpus, inst.lexicon)

    for kind in KINDS:
        print(f"{kind:15s} {digests.hashes[kind].hexdigest()}")


if __name__ == "__main__":
    main()
