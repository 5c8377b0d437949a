#!/usr/bin/env python3
"""Walk through the bundled demonstration scenarios end to end: initial
tagging, per-grammar verdicts, combination effects, and filtering."""

from locgram import accepts, build_initial_lattice, classify, fixtures, tokenize, union
from locgram.cli import alternative_listing
from locgram.engine import filter as filter_lattice, parse_tag_sequence, resolve_tag_sequence
from locgram.lattice import count_paths, minimize


def lattice_for(text, lexicon):
    return build_initial_lattice(tokenize(text), lexicon)


def path_for(lattice, sequence, categories):
    labels = parse_tag_sequence(sequence, categories)
    path = resolve_tag_sequence(lattice, labels)
    assert path is not None, sequence
    return path


def main():
    lexicon = fixtures.core_lexicon()
    categories = lexicon.categories
    grammars = {name: fixtures.grammar(name) for name in fixtures.GRAMMAR_FILES}

    print("== grammar classes ==")
    for name, g in grammars.items():
        print(f"  {name:22s} {classify(g).name}")

    print("\n== initial tagging ==")
    print(alternative_listing(tokenize("Je ne me le suis pas fait confirmer sur le moment"), lexicon))

    print("\n== verdicts ==")
    scenarios = [
        (
            "Cela vient de ce que je ne me le suis pas fait confirmer aussitôt",
            "<cela PRO:ms> <venir V:P3s> <de PREP> <ce PRO:3s> <que CNJS> <je PRO:1s> "
            "<ne XI> <me PRO:1s> <le PRO:3ms> <être V:P1s> <pas ADV> <faire V:Kms> "
            "<confirmer V:W> <aussitôt ADV>",
            [["de-ce-que-chain"]],
        ),
        (
            "Ne fait-il les comptes que pour rendre service ?",
            "<ne XI[+Préd]> <faire V:P3s> - <il PRO:3ms> <le DET:mp> <compte N:mp> "
            "<que CNJS> <pour PREP> <rendre V:W> <service N:ms> ?",
            [["subject-inversion"], ["ne-verb"], ["subject-inversion", "ne-verb"]],
        ),
        (
            "Ne lui dis pas",
            "<ne XI> <lui PRO:3s> <dire V:Y2s> <pas ADV>",
            [["ne-verb"], ["ne-lui"], ["ne-verb", "ne-lui"]],
        ),
        (
            "Pourquoi me pressent-il de le lui dire ?",
            "<pourquoi ADV> <me PRO:1s> <presser V:P3p> - <il PRO:3ms> <de PREP> "
            "<le PRO:3ms> <luire V:Kms> <dire V:W> ?",
            [["preverb-pronouns"], ["de-le-and-inversion"],
             ["preverb-pronouns", "de-le-and-inversion"]],
        ),
        (
            "Mais aucun ne peut dépasser cette limite",
            "<mais CNJC> <aucun PRO:ms> <ne XI> <pouvoir V:P3s> <dépasser V:W> "
            "<ce DET:fs> <limite N:fs>",
            [["aucun-pronoun"]],
        ),
    ]
    for text, sequence, grammar_sets in scenarios:
        l = lattice_for(text, lexicon)
        p = path_for(l, sequence, categories)
        print(f"  {text}")
        for names in grammar_sets:
            g = grammars[names[0]] if len(names) == 1 else union([grammars[n] for n in names])
            verdict = "accepts" if accepts(g, p, l) else "rejects"
            print(f"    {'|'.join(names):42s} {verdict}")

    print("\n== filtering ==")
    text = "Cela vient de ce que je ne me le suis pas fait confirmer aussitôt"
    l = lattice_for(text, lexicon)
    filtered = filter_lattice(grammars["de-ce-que-chain"], l)
    before = count_paths(l)
    after = count_paths(minimize(filtered))
    print(f"  {text}")
    print(f"  taggings before: {before}, after: {after}")


if __name__ == "__main__":
    main()
