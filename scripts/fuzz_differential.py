#!/usr/bin/env python3
"""Randomized differential testing: the product-construction filter must
agree with the brute-force enumeration oracle on every instance, and the
general rule's verdict on each of the first paths of an instance must agree
with membership in the filtered language (``--mode general``) or with the
restricted rule whose precondition holds (``simple``, ``oii``).  In
``general`` mode, ``language_equal`` must also agree with the enumerated
languages on filter against oracle and filter against input.  In every
mode, ``minimize`` of each instance's lattice and of its filtered lattice
must keep the language, be deterministic, and equal ``minimize`` of the
same lattice rebuilt by ``Lattice.build`` over other state names."""

import argparse
import random
import sys
from itertools import islice

from locgram.engine import (
    accepts,
    accepts_case_a,
    accepts_case_b,
    filter as filter_lattice,
    filter_oracle,
)
from locgram.lattice import Lattice, iter_paths, language, language_equal, minimize, path_labels
from locgram.randgen import random_instance


def minimize_ok(l):
    m = minimize(l)
    rebuilt = Lattice.build(
        ("q", l.initial), ("q", l.final), [(("q", e.src), ("q", e.dst), e.label) for e in reversed(l.edges)]
    )
    deterministic = len({(e.src, e.label.sort_key) for e in m.edges}) == len(m.edges)
    return language(m) == language(l) and deterministic and m == minimize(rebuilt)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=["general", "simple", "oii"], default="general")
    parser.add_argument("--paths-per-instance", type=int, default=30)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for trial in range(args.trials):
        inst = random_instance(rng, mode=args.mode)
        g, l = inst.grammar, inst.lattice
        paths = list(islice(iter_paths(l), args.paths_per_instance))
        f = filter_lattice(g, l)
        if not (minimize_ok(l) and minimize_ok(f)):
            print(f"MINIMIZE seed={args.seed} trial={trial} text={inst.text!r}")
            print(f"grammar: {g}")
            return 1
        if args.mode == "general":
            o = filter_oracle(g, l)
            accepted, full = language(f), language(l)
            if accepted != language(o):
                print(f"MISMATCH seed={args.seed} trial={trial} text={inst.text!r}")
                print(f"grammar: {g}")
                return 1
            if not language_equal(f, o) or language_equal(f, l) != (accepted == full):
                print(f"LANGUAGE_EQUAL seed={args.seed} trial={trial} text={inst.text!r}")
                print(f"grammar: {g}")
                return 1
            expected = [path_labels(p) in accepted for p in paths]
        else:
            restricted = accepts_case_a if args.mode == "simple" else accepts_case_b
            expected = [restricted(g, p, l) for p in paths]
        if [accepts(g, p, l) for p in paths] != expected:
            print(f"DISAGREEMENT seed={args.seed} trial={trial} text={inst.text!r}")
            print(f"grammar: {g}")
            return 1
    print(f"OK ({args.trials} {args.mode} instances, seed={args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
