"""Acceptance suite: the worked scenarios are reproduced exactly and the
engine agrees with independent oracles on fixtures and randomized
instances.  Run with ``pytest tests/test_acceptance.py -s`` to see one
verdict line per criterion."""

import random
from itertools import islice

from locgram import fixtures, lookup_forms, tokenize, union
from locgram.cli import main
from locgram.engine import (
    accepts,
    accepts_case_a,
    accepts_case_b,
    filter as filter_lattice,
    filter_oracle,
)
from locgram.grammar import GrammarClass, classify
from locgram.lattice import (
    all_paths,
    iter_paths,
    language,
    language_equal,
    minimize,
    to_dot,
)
from locgram.randgen import random_instance
from locgram.tags import SEPARATOR_CHARS, Separator

from conftest import SENTENCES
from test_cli import EXPECTED_MOMENT_LISTING
from test_engine import (
    ACCOUNTS_GOOD,
    ACCOUNTS_NOUN_MISTAG,
    CONFIRM_CHAIN_GOOD,
    LIMIT_DET_VARIANT,
    LIMIT_GOOD,
    PRESSING_MISTAG,
    TELL_HIM_MISTAG,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_initial_tagging_listing(capsys):
    code = main(["tag", "Je ne me le suis pas fait confirmer sur le moment"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXPECTED_MOMENT_LISTING
    # the three expanded inflections of the suis/suivre entry and the
    # compound branch are all present
    assert '"suivre.V:P1s" + "suivre.V:P2s" + "suivre.V:Y2s"' in out
    assert '"sur/le/moment.ADV;PDETC"' in out
    with capsys.disabled():
        report(1, "initial tagging listing reproduced token for token")


def test_criterion_2_railway_lattice(lexicon, lattices, capsys):
    l = lattices["railway"]
    compound_edges = [e for e in l.edges if getattr(e.label, "compound", False)]
    assert len(compound_edges) == 1
    assert compound_edges[0].label.lemma == "chemin/de/fer"
    simple_span_words = {
        e.label.surface
        for e in l.edges
        if not isinstance(e.label, Separator) and not e.label.compound
    }
    assert {"chemin", "de", "fer"} <= simple_span_words
    traverse_mains = {
        e.label.category.main
        for e in l.edges
        if not isinstance(e.label, Separator) and e.label.surface == "traverse"
    }
    assert traverse_mains == {"N", "V"}
    # independent oracle: product of per-token analysis counts for the
    # simple reading, plus the compound branch over the three-token span
    forms = lookup_forms(tokenize(SENTENCES["railway"]))
    counts = [1 if f in SEPARATOR_CHARS else len(lexicon.lookup(f)) for f in forms]
    simple = 1
    for c in counts:
        simple *= c
    outside_compound = 1
    for c in counts[:3] + counts[6:]:
        outside_compound *= c
    expected = simple + outside_compound
    assert len(all_paths(l)) == expected == 12
    with capsys.disabled():
        report(2, "compound and simple branches coexist; path count matches oracle")


def test_criterion_3_worked_verdicts(grammars, lattices, find_path, capsys):
    chain = grammars["de-ce-que-chain"]
    inversion = grammars["subject-inversion"]
    ne_verb = grammars["ne-verb"]
    aucun = grammars["aucun-pronoun"]
    l_chain = lattices["confirm-chain"]
    l_accounts = lattices["accounts"]
    l_limit = lattices["limit"]
    checks = [
        accepts(chain, find_path(l_chain, CONFIRM_CHAIN_GOOD), l_chain) is True,
        accepts(inversion, find_path(l_accounts, ACCOUNTS_GOOD), l_accounts) is True,
        accepts(ne_verb, find_path(l_accounts, ACCOUNTS_NOUN_MISTAG), l_accounts) is False,
        accepts(aucun, find_path(l_limit, LIMIT_GOOD), l_limit) is True,
        accepts(aucun, find_path(l_limit, LIMIT_DET_VARIANT), l_limit) is False,
    ]
    assert all(checks), checks
    with capsys.disabled():
        report(3, "five worked acceptance verdicts reproduced exactly")


def test_criterion_4_interaction_suite(grammars, lattices, find_path, capsys):
    inversion = grammars["subject-inversion"]
    ne_verb = grammars["ne-verb"]
    ne_lui = grammars["ne-lui"]
    preverb = grammars["preverb-pronouns"]
    de_le = grammars["de-le-and-inversion"]
    l_tell = lattices["tell-him"]
    l_accounts = lattices["accounts"]
    l_pressing = lattices["pressing"]
    mistag = find_path(l_tell, TELL_HIM_MISTAG)
    good = find_path(l_accounts, ACCOUNTS_GOOD)
    pressing = find_path(l_pressing, PRESSING_MISTAG)
    checks = [
        accepts(ne_lui, mistag, l_tell) is False,
        accepts(union([ne_verb, ne_lui]), mistag, l_tell) is True,
        accepts(inversion, good, l_accounts) is True
        and accepts(ne_verb, good, l_accounts) is True,
        accepts(union([inversion, ne_verb]), good, l_accounts) is False,
        accepts(preverb, pressing, l_pressing) is False
        and accepts(de_le, pressing, l_pressing) is False,
        accepts(union([preverb, de_le]), pressing, l_pressing) is True,
    ]
    assert all(checks), checks
    with capsys.disabled():
        report(4, "combination effects: repair, joint rejection, joint acceptance")


def test_criterion_5_oracle_equivalence(grammars, lattices, capsys):
    for key, l in lattices.items():
        for name, g in grammars.items():
            assert language_equal(filter_lattice(g, l), filter_oracle(g, l)), (key, name)
    rng = random.Random(20260810)
    trials = 500
    for trial in range(trials):
        inst = random_instance(rng, max_tokens=10)
        left = filter_lattice(inst.grammar, inst.lattice)
        right = filter_oracle(inst.grammar, inst.lattice)
        assert language_equal(left, right), (
            f"mismatch at trial {trial}: text={inst.text!r} grammar={inst.grammar.name}"
        )
    with capsys.disabled():
        report(5, f"filter equals oracle on all fixtures and {trials} random instances")


def test_criterion_6_special_case_agreement(capsys):
    rng = random.Random(20260811)
    trials = 500
    per_instance_paths = 30
    for trial in range(trials):
        inst = random_instance(rng, mode="simple", max_tokens=8)
        assert classify(inst.grammar) is GrammarClass.SIMPLE_INPUTS
        paths = islice(iter_paths(inst.lattice), per_instance_paths)
        for p in paths:
            general = accepts(inst.grammar, p, inst.lattice)
            assert accepts_case_a(inst.grammar, p, inst.lattice) == general, trial
            assert accepts_case_b(inst.grammar, p, inst.lattice) == general, trial
    rng = random.Random(20260812)
    for trial in range(trials):
        inst = random_instance(rng, mode="oii", max_tokens=8)
        assert classify(inst.grammar) is GrammarClass.OUTPUT_IMPLIES_INPUT
        paths = islice(iter_paths(inst.lattice), per_instance_paths)
        for p in paths:
            assert accepts_case_b(inst.grammar, p, inst.lattice) == accepts(
                inst.grammar, p, inst.lattice
            ), trial
    with capsys.disabled():
        report(6, f"restricted rules agree with the general rule on 2x{trials} instances")


def test_criterion_7_soundness_and_silence(grammars, lattices, capsys):
    for key, l in lattices.items():
        full = language(l)
        for name, g in grammars.items():
            assert language(filter_lattice(g, l)) <= full, (key, name)
    code_single = main(
        ["check", "--grammar", fixtures.grammar_path("ne-verb"), fixtures.corpus_path()]
    )
    assert code_single == 1
    code_combined = main(
        [
            "check",
            "--grammar", fixtures.grammar_path("ne-verb"),
            "--grammar", fixtures.grammar_path("ne-lui"),
            fixtures.corpus_path(),
        ]
    )
    assert code_combined == 0
    with capsys.disabled():
        report(7, "filtering is sound; silence found alone, repaired by combination")


def test_criterion_8_automaton_hygiene(grammars, lattices, capsys):
    for key, l in lattices.items():
        m = minimize(l)
        assert language(m) == language(l), key
        again = minimize(m)
        assert (again.n_states, len(again.edges)) == (m.n_states, len(m.edges)), key
        assert to_dot(l) == to_dot(l)
    for name, g in grammars.items():
        from locgram.grammar import to_dot as grammar_dot

        assert grammar_dot(g) == grammar_dot(g)
    filtered = filter_lattice(grammars["de-ce-que-chain"], lattices["confirm-chain"])
    m = minimize(filtered)
    assert language(m) == language(filtered)
    assert (minimize(m).n_states, len(minimize(m).edges)) == (m.n_states, len(m.edges))
    with capsys.disabled():
        report(8, "minimize preserves language and is idempotent; DOT deterministic")
