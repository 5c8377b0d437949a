"""Reference code the tests check the package against: a grammar's
document writer and the languages its paths spell, read off the
transitions by plain enumeration.  No program runs these, so they live
beside the tests rather than in ``locgram``."""

from __future__ import annotations

import json

from locgram.grammar import LocalGrammar


def dumps_grammar(g: LocalGrammar) -> str:
    doc = {
        "name": g.name,
        "states": list(g.states),
        "initial": g.initial,
        "finals": sorted(g.finals, key=str),
        "transitions": [
            {"from": t.src, "to": t.dst, "in": t.inp.notation(), "out": t.out.notation()}
            for t in g.transitions
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def input_sequences(g: LocalGrammar, max_len: int) -> frozenset:
    """All input label sequences along initial-to-final paths of length at
    most ``max_len`` (cycles are unrolled up to the bound)."""
    return frozenset(tuple(i for i, _ in s) for s in path_label_pairs(g, max_len))


def path_label_pairs(g: LocalGrammar, max_len: int) -> frozenset:
    """All (input, output) pair sequences along initial-to-final paths of
    length at most ``max_len``; the language the union laws speak about.
    Depth-first with an explicit stack, so ``max_len`` is not bounded by
    the recursion limit."""
    found: set[tuple] = set()
    stack = [(g.initial, ())]
    while stack:
        state, acc = stack.pop()
        if state in g.finals:
            found.add(acc)
        if len(acc) < max_len:
            stack.extend((tr.dst, acc + ((tr.inp, tr.out),)) for tr in g.transitions if tr.src == state)
    return frozenset(found)


