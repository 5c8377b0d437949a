import random

from locgram import fixtures
from locgram.grammar import GrammarClass, classify
from locgram.lattice import count_paths
from locgram.randgen import random_instance


def test_instances_are_deterministic_by_seed():
    a = random_instance(random.Random(99))
    b = random_instance(random.Random(99))
    assert a.text == b.text
    assert a.grammar == b.grammar
    assert a.lattice == b.lattice


def test_modes_yield_the_requested_class():
    rng = random.Random(3)
    for _ in range(20):
        assert classify(random_instance(rng, mode="simple").grammar) is GrammarClass.SIMPLE_INPUTS
        assert (
            classify(random_instance(rng, mode="oii").grammar)
            is GrammarClass.OUTPUT_IMPLIES_INPUT
        )


def test_lattices_stay_under_the_path_cap():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, path_cap=500)
        assert count_paths(inst.lattice) <= 500


def test_bundled_grammars_all_load():
    assert set(fixtures.GRAMMAR_FILES) == {
        "de-ce-que-chain",
        "subject-inversion",
        "ne-verb",
        "ne-lui",
        "preverb-pronouns",
        "de-le-and-inversion",
        "aucun-pronoun",
    }
    for name in fixtures.GRAMMAR_FILES:
        grammar = fixtures.grammar(name)
        assert grammar.name == name


def test_path_cap_keeps_a_draw_with_exactly_that_many_paths():
    first = random_instance(random.Random(0))
    c = count_paths(first.lattice)
    assert c > 1
    kept = random_instance(random.Random(0), path_cap=c)
    assert (kept.text, kept.lattice) == (first.text, first.lattice)
    redrawn = random_instance(random.Random(0), path_cap=c - 1)
    assert redrawn.text != first.text
    assert count_paths(redrawn.lattice) < c
