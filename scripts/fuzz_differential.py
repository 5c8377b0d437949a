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
same lattice rebuilt by ``Lattice.build`` over other state names.  Each
instance also brings a random non-token DAG, made by ``Lattice.build``,
that must pass the same ``minimize`` check; where ``minimize`` raises, its
language must not be prefix-free."""

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
from locgram.errors import LatticeFormatError
from locgram.lattice import Lattice, iter_paths, language, language_equal, minimize, path_labels
from locgram.randgen import random_instance
from locgram.tags import parse_complete_tag

DAG_LABELS = [parse_complete_tag(t, ("N", "V", "A")) for t in ("<ga N:ms>", "<bo V:P3s>", "<ti A>")]


def random_dag(rng):
    """2-8 states, 1-14 forward edges over three labels, dead ones
    included: subsets in ``minimize`` that token lattices rarely make."""
    n = rng.randint(2, 8)
    edges = [(*sorted(rng.sample(range(n), 2)), rng.choice(DAG_LABELS)) for _ in range(rng.randint(1, 14))]
    return Lattice.build(0, n - 1, edges)


def minimize_ok(l):
    rebuilt = Lattice.build(
        ("q", l.initial), ("q", l.final), [(("q", e.src), ("q", e.dst), e.label) for e in reversed(l.edges)]
    )
    try:
        m, m_rebuilt = minimize(l), minimize(rebuilt)
    except LatticeFormatError:  # only a language with a word that prefixes another
        words = language(l)
        return any(w[:i] in words for w in words for i in range(len(w)))
    deterministic = len({(e.src, e.label.sort_key) for e in m.edges}) == len(m.edges)
    return language(m) == language(l) and deterministic and m == m_rebuilt


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=["general", "simple", "oii"], default="general")
    parser.add_argument("--paths-per-instance", type=int, default=30)
    args = parser.parse_args()

    rng, dag_rng = random.Random(args.seed), random.Random(f"dag {args.mode} {args.seed}")
    for trial in range(args.trials):
        dag = random_dag(dag_rng)
        if not minimize_ok(dag):
            edges = [(e.src, e.dst, e.label.notation()) for e in dag.edges]
            print(f"MINIMIZE seed={args.seed} trial={trial} dag edges: {edges}")
            return 1
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
