import ast
import json
import random
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import locgram
from locgram import build_initial_lattice, fixtures, tokenize, union
from locgram.engine import (
    CorpusItem,
    FreeBlock,
    MatchedBlock,
    accepts,
    accepts_case_a,
    accepts_case_b,
    decompose,
    filter as filter_lattice,
    filter_oracle,
    load_corpus,
    matchable,
    parse_tag_sequence,
    resolve_tag_sequence,
    silence_check,
)
from locgram.errors import CorpusFormatError, TagFormatError
from locgram.grammar import load_grammar
from locgram.lexicon import _SEPARATORS, compound_matches, expand_entry, load_lexicon, lookup_forms
from locgram.lattice import (
    Edge,
    Lattice,
    all_paths,
    count_paths,
    iter_paths,
    language,
    language_equal,
    minimize,
    path_labels,
    to_json,
)
from locgram.randgen import random_instance
from locgram.tags import Separator, conforms, parse_complete_tag
from conftest import LONG_REPEATS, LONG_TEXT, SENTENCES, assert_live, renamed, union_lattice

CATS = ("V", "N", "A", "ADV", "PRO", "DET", "PREP", "CNJS", "CNJC", "XI", "INT")

CONFIRM_CHAIN_GOOD = (
    "<cela PRO:ms> <venir V:P3s> <de PREP> <ce PRO:3s> <que CNJS> <je PRO:1s> "
    "<ne XI> <me PRO:1s> <le PRO:3ms> <être V:P1s> <pas ADV> <faire V:Kms> "
    "<confirmer V:W> <aussitôt ADV>"
)
ACCOUNTS_GOOD = (
    "<ne XI[+Préd]> <faire V:P3s> - <il PRO:3ms> <le DET:mp> <compte N:mp> "
    "<que CNJS> <pour PREP> <rendre V:W> <service N:ms> ?"
)
ACCOUNTS_NOUN_MISTAG = (
    "<ne XI[+Préd]> <fait N:ms> - <il PRO:3ms> <le DET:mp> <compte N:mp> "
    "<que CNJS> <pour PREP> <rendre V:W> <service N:ms> ?"
)
TELL_HIM_GOOD = "<ne XI> <lui PRO:3s> <dire V:Y2s> <pas ADV>"
TELL_HIM_MISTAG = "<ne XI> <luire V:Kms> <dire V:Y2s> <pas ADV>"
PRESSING_MISTAG = (
    "<pourquoi ADV> <me PRO:1s> <presser V:P3p> - <il PRO:3ms> <de PREP> "
    "<le PRO:3ms> <luire V:Kms> <dire V:W> ?"
)
LIMIT_GOOD = (
    "<mais CNJC> <aucun PRO:ms> <ne XI> <pouvoir V:P3s> <dépasser V:W> "
    "<ce DET:fs> <limite N:fs>"
)
LIMIT_DET_VARIANT = (
    "<mais CNJC> <aucun DET:ms> <ne XI> <pouvoir V:P3s> <dépasser V:W> "
    "<ce DET:fs> <limite N:fs>"
)

# two analyses listed twice, ``venir V:P3s`` (also in ``:P3s:W``) and
# ``sur/le/moment N:ms`` (also in ``:ms:fs``): equal labels on parallel edges
TWINS_LEXICON = [
    "il,il.PRO:3ms",
    "vient,venir.V:P3s",
    "vient,venir.V:P3s:W",
    "sur,sur.PREP",
    "le,le.DET:ms",
    "moment,moment.N:ms",
    "sur le moment,sur le moment.N:ms:fs",
    "sur le moment,sur le moment.ADV;PDETC",
    "sur le moment,sur le moment.N:ms",
]
TWINS_TEXT = "il vient sur le moment"


class TestMatchable:
    def test_chain_matches_exactly_before_de(self, grammars, lattices):
        index = matchable(lattices["confirm-chain"], grammars["de-ce-que-chain"])
        assert [q for q, hit in enumerate(index) if hit] == [2]

    def test_all_false_on_empty_lattice(self, grammars, lexicon):
        l = build_initial_lattice([], lexicon)
        for g in grammars.values():
            assert matchable(l, g) == [False]

    def test_result_is_the_callers_own(self, grammars, lattices):
        l, g = lattices["tell-him"], grammars["ne-verb"]
        before = to_json(filter_lattice(g, l))
        index = matchable(l, g)
        index[:] = [False] * len(index)
        after = filter_lattice(g, l)
        assert to_json(after) == before and count_paths(after) == 24

    def test_ne_verb_matches_via_other_tagging(self, grammars, lattices):
        # the portion's own tags need not match: another analysis of the
        # same text (lui as a past participle) provides the input match
        index = matchable(lattices["tell-him"], grammars["ne-verb"])
        assert [q for q, hit in enumerate(index) if hit] == [0]


class TestAccepts:
    def test_chain_accepts_correct_tagging(self, grammars, lattices, find_path):
        l = lattices["confirm-chain"]
        p = find_path(l, CONFIRM_CHAIN_GOOD)
        assert accepts(grammars["de-ce-que-chain"], p, l)

    def test_chain_witness_structure(self, grammars, lattices, find_path):
        l = lattices["confirm-chain"]
        p = find_path(l, CONFIRM_CHAIN_GOOD)
        d = decompose(grammars["de-ce-que-chain"], p, l)
        kinds = [type(b) for b in d.blocks]
        assert kinds == [FreeBlock] * 2 + [MatchedBlock] + [FreeBlock] * 5
        matched = d.blocks[2]
        assert (matched.start, matched.end) == (2, 9)
        assert [out.notation() for _, out in matched.pairs] == [
            "<PREP>", "<PRO>", "<CNJS>", "<PRO>", "<XI>", "<PRO>", "<PRO>",
        ]

    def test_inversion_accepts_correct_tagging(self, grammars, lattices, find_path):
        l = lattices["accounts"]
        p = find_path(l, ACCOUNTS_GOOD)
        assert accepts(grammars["subject-inversion"], p, l)

    def test_ne_verb_rejects_noun_mistag(self, grammars, lattices, find_path):
        l = lattices["accounts"]
        p = find_path(l, ACCOUNTS_NOUN_MISTAG)
        assert not accepts(grammars["ne-verb"], p, l)

    def test_general_rule_uses_same_span_witness(self, grammars, lattices, find_path):
        l = lattices["limit"]
        assert accepts(grammars["aucun-pronoun"], find_path(l, LIMIT_GOOD), l)
        assert not accepts(grammars["aucun-pronoun"], find_path(l, LIMIT_DET_VARIANT), l)

    def test_combination_can_reject_what_members_accept(self, grammars, lattices, find_path):
        l = lattices["accounts"]
        p = find_path(l, ACCOUNTS_GOOD)
        inversion, ne_verb = grammars["subject-inversion"], grammars["ne-verb"]
        assert accepts(inversion, p, l)
        assert accepts(ne_verb, p, l)
        assert not accepts(union([inversion, ne_verb]), p, l)

    def test_combination_can_accept_what_members_reject(self, grammars, lattices, find_path):
        l = lattices["pressing"]
        p = find_path(l, PRESSING_MISTAG)
        preverb, de_le = grammars["preverb-pronouns"], grammars["de-le-and-inversion"]
        assert not accepts(preverb, p, l)
        assert not accepts(de_le, p, l)
        assert accepts(union([preverb, de_le]), p, l)

    def test_silence_repaired_by_combination(self, grammars, lattices, find_path):
        l = lattices["tell-him"]
        good = find_path(l, TELL_HIM_GOOD)
        bad = find_path(l, TELL_HIM_MISTAG)
        ne_verb, ne_lui = grammars["ne-verb"], grammars["ne-lui"]
        assert not accepts(ne_verb, good, l)  # wrongly rejected alone
        assert accepts(ne_lui, good, l)
        assert accepts(union([ne_verb, ne_lui]), good, l)
        assert not accepts(ne_lui, bad, l)
        assert accepts(union([ne_verb, ne_lui]), bad, l)

    def test_empty_path_accepted_by_every_grammar(self, grammars, lexicon):
        l = build_initial_lattice([], lexicon)
        for g in grammars.values():
            assert accepts(g, (), l)

    def test_rejects_foreign_path(self, grammars, lattices, find_path):
        l = lattices["tell-him"]
        other = lattices["limit"]
        p = find_path(other, LIMIT_GOOD)
        with pytest.raises(ValueError):
            accepts(grammars["ne-verb"], p, l)
        with pytest.raises(ValueError, match="does not join"):
            accepts(grammars["ne-verb"], p[:-1], other)
        with pytest.raises(ValueError, match="does not continue"):
            accepts(grammars["ne-verb"], p[1:], other)
        # the first edge again, from its own target: found only in an earlier state's run
        with pytest.raises(ValueError, match="does not continue"):
            accepts(grammars["ne-verb"], (p[0], *p), other)

    def test_invariant_under_dead_branches(self, grammars, lattices, find_path):
        # out of every state hangs a dead copy of the whole lattice: it
        # spells the sentence's taggings from every position, but its final
        # state joins nothing, so it is no admitted tagging
        l = lattices["tell-him"]
        p = find_path(l, TELL_HIM_GOOD)
        dead = [
            (q if e.src == l.initial else ("copy", q, e.src), ("copy", q, e.dst), e.label)
            for q in range(l.n_states)
            for e in l.edges
        ]
        with_dead = Lattice.build(l.initial, l.final, [*l.edges, *dead])
        assert with_dead == l
        for g in grammars.values():
            assert accepts(g, p, with_dead) == accepts(g, p, l)

    def test_paths_of_equal_edges_decompose_as_own_paths(self, categories, grammars, lattices):
        # a path need not hold the lattice's own objects: one rebuilt from
        # fresh edges and labels is found by value, among many edges of one
        # span, or among equal parallel edges, whichever of them it finds
        twins = build_initial_lattice(tokenize(TWINS_TEXT), load_lexicon(TWINS_LEXICON, categories))
        assert len(set(twins.edges)) == len(twins.edges) - 2
        for l, g in (
            (lattices["confirm-chain"], grammars["de-ce-que-chain"]),
            (twins, union(list(grammars.values()))),
        ):
            for p in iter_paths(l):
                fresh = tuple(Edge(e.src, e.dst, type(e.label)(*e.label)) for e in p)
                assert fresh == p and all(f.label is not e.label for f, e in zip(fresh, p))
                assert decompose(g, fresh, l) == decompose(g, p, l)

    def test_dead_branch_does_not_decide_a_verdict(self):
        # the dead branch <c N> would make the initial state matchable for
        # the grammar <c>/<c>, and so forbid the free portion that <a N>
        # needs; it is on no path, so both filter and accepts keep <a N> <b V>
        g = load_grammar(
            json.dumps(
                {
                    "name": "c",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "<c>", "out": "<c>"}],
                }
            ),
            CATS,
        )
        a, b, c = (parse_complete_tag(text, CATS) for text in ("<a N>", "<b V>", "<c N>"))
        l = Lattice.build(0, 2, [(0, 1, a), (1, 2, b), (0, 3, c)])
        (p,) = all_paths(l)
        assert accepts(g, p, l)
        assert len(all_paths(filter_lattice(g, l))) == 1
        assert language_equal(filter_oracle(g, l), l)


def _assert_valid_witness(g, p, l, d):
    """``d`` is a valid partition of ``p``, checked with the reference
    predicate ``conforms`` instead of the engine's mask tables."""
    index = matchable(l, g)
    pos = 0  # the blocks tile the path positions in order
    for b in d.blocks:
        if isinstance(b, FreeBlock):
            assert b.position == pos and not index[p[pos].src]
            pos += 1
            continue
        assert b.start == pos < b.end and len(b.pairs) == b.end - b.start
        states = {g.initial}
        for e, (inp, out) in zip(p[b.start:b.end], b.pairs):
            states = {
                t.dst for t in g.transitions
                if t.src in states and (t.inp, t.out) == (inp, out)
            }
            assert conforms(e.label, out)
            assert any(
                f.dst == e.dst and conforms(f.label, inp) for f in l.edges_by_source[e.src]
            )
        assert states & set(g.finals)
        pos = b.end
    assert pos == len(p)


class TestWitnessValidity:
    def test_fixture_sentences(self, grammars, lattices):
        members = list(grammars.values())
        accepted = 0
        for l in lattices.values():
            paths = all_paths(l)
            for g in members + [union(members)]:
                for p in paths:
                    d = decompose(g, p, l)
                    if d is not None:
                        accepted += 1
                        _assert_valid_witness(g, p, l, d)
        assert accepted > 1000

    @pytest.mark.parametrize("mode", ["general", "simple", "oii"])
    def test_random_instances(self, mode):
        rng = random.Random(20)
        accepted = 0
        for _ in range(150):
            inst = random_instance(rng, mode=mode)
            g, l = inst.grammar, inst.lattice
            for p in islice(iter_paths(l), 30):
                d = decompose(g, p, l)
                if d is not None:
                    accepted += 1
                    _assert_valid_witness(g, p, l, d)
        assert accepted > 300


class TestSpecialCaseRules:
    def test_case_a_requires_simple_inputs(self, grammars, lattices, find_path):
        l = lattices["accounts"]
        p = find_path(l, ACCOUNTS_GOOD)
        with pytest.raises(ValueError):
            accepts_case_a(grammars["subject-inversion"], p, l)

    def test_case_b_rejects_general_grammars(self, grammars, lattices, find_path):
        l = lattices["limit"]
        p = find_path(l, LIMIT_GOOD)
        with pytest.raises(ValueError):
            accepts_case_b(grammars["aucun-pronoun"], p, l)

    def test_case_a_on_chain(self, grammars, lattices, find_path):
        l = lattices["confirm-chain"]
        p = find_path(l, CONFIRM_CHAIN_GOOD)
        assert accepts_case_a(grammars["de-ce-que-chain"], p, l)

    def test_case_a_all_free_when_no_surface_matches(self, grammars, lexicon):
        l = build_initial_lattice(tokenize("pas"), lexicon)
        for p in all_paths(l):
            assert accepts_case_a(grammars["ne-lui"], p, l)

    def test_case_b_on_inversion(self, grammars, lattices, find_path):
        l = lattices["accounts"]
        assert accepts_case_b(grammars["subject-inversion"], find_path(l, ACCOUNTS_GOOD), l)
        assert not accepts_case_b(grammars["ne-verb"], find_path(l, ACCOUNTS_NOUN_MISTAG), l)

    def test_rules_agree_on_fixture_paths(self, grammars, lattices):
        from locgram.grammar import GrammarClass, classify

        for key, l in lattices.items():
            paths = list(islice(iter_paths(l), 40))
            for g in grammars.values():
                cls = classify(g)
                for p in paths:
                    general = accepts(g, p, l)
                    if cls is GrammarClass.SIMPLE_INPUTS:
                        assert accepts_case_a(g, p, l) == general
                    if cls is not GrammarClass.GENERAL:
                        assert accepts_case_b(g, p, l) == general


class TestFilter:
    def test_chain_forces_output_tags(self, grammars, lattices):
        filtered = filter_lattice(grammars["de-ce-que-chain"], lattices["confirm-chain"])
        expected_mains = ["PREP", "PRO", "CNJS", "PRO", "XI", "PRO", "PRO"]
        for seq in language(filtered):
            window = seq[2:9]
            assert [lab.category.main for lab in window] == expected_mains

    def test_filter_is_sound(self, grammars, lattices):
        for key, l in lattices.items():
            full = language(l)
            for name, g in grammars.items():
                assert language(filter_lattice(g, l)) <= full, (key, name)

    def test_no_match_keeps_language(self, grammars, lattices):
        # no input sequence of the ne-lui grammar matches in the railway
        # sentence, so every analysis survives
        l = lattices["railway"]
        g = grammars["ne-lui"]
        assert not any(matchable(l, g))
        assert language_equal(filter_lattice(g, l), l)

    def test_empty_result_flagged(self, lattices):
        g = load_grammar(
            json.dumps(
                {
                    "name": "il-noun",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "il", "out": "<N>"}],
                }
            ),
            CATS,
        )
        filtered = filter_lattice(g, lattices["railway"])
        assert filtered.is_empty_language()

    def test_forced_verb_after_il_keeps_both_delimitations(self, lattices):
        # hand enumeration: il must be a pronoun followed by a verbal
        # traverse; both the compound reading and the simple reading of
        # chemin de fer survive, noun readings of traverse do not
        g = load_grammar(
            json.dumps(
                {
                    "name": "il-verb",
                    "states": [0, 1, 2],
                    "initial": 0,
                    "finals": [2],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "il", "out": "<PRO>"},
                        {"from": 1, "to": 2, "in": "<V>", "out": "<V>"},
                    ],
                }
            ),
            CATS,
        )
        l = lattices["railway"]
        filtered_language = language(filter_lattice(g, l))
        assert len(filtered_language) == 8
        assert all(seq[1].category.main == "V" for seq in filtered_language)
        assert any(any(getattr(lab, "compound", False) for lab in seq) for seq in filtered_language)
        assert any(all(not getattr(lab, "compound", False) for lab in seq) for seq in filtered_language)

    def test_matches_oracle_on_all_fixture_pairs(self, grammars, lattices):
        for key, l in lattices.items():
            for name, g in grammars.items():
                assert language_equal(filter_lattice(g, l), filter_oracle(g, l)), (key, name)

    def test_matches_oracle_on_fixture_unions(self, grammars, lattices):
        import itertools

        l = lattices["accounts"]
        for a, b in itertools.combinations(grammars.values(), 2):
            u = union([a, b])
            assert language_equal(filter_lattice(u, l), filter_oracle(u, l)), u.name

    def test_result_is_trim_on_fixture_pairs(self, grammars, lattices):
        members = list(grammars.values())
        for key, l in lattices.items():
            for g in members + [union(members)]:
                assert_live(filter_lattice(g, l))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["general", "simple", "oii"]))
    def test_result_is_trim_on_random_instances(self, seed, mode):
        # random grammars leave many dead product states behind
        inst = random_instance(random.Random(seed), mode=mode)
        assert_live(filter_lattice(inst.grammar, inst.lattice))

    def test_builds_one_lattice(self, grammars, lattices, build_calls):
        for g in grammars.values():
            build_calls.clear()
            filter_lattice(g, lattices["accounts"])
            assert len(build_calls) == 1, g.name

    def test_build_makes_no_reachability_pass(self, grammars, lattices, lexicon, reachable_calls):
        # every product state is reached from the start, and filter keeps
        # only the edges into states that reach the goal: its own backward
        # pass is the only one, and no constructor makes one
        named = {**grammars, "union": union(list(grammars.values()))}
        scale = build_initial_lattice(tokenize(SCALE_TEXT), lexicon)
        for key, l in {**lattices, "scale": scale}.items():
            for name, g in named.items():
                reachable_calls.clear()
                filter_lattice(g, l)
                assert reachable_calls == [False], (key, name)

    def test_apply_pipeline_builds_three_lattices(self, grammars, lexicon, build_calls):
        # initial, filtered and minimised: no intermediate rebuilds
        g = union(list(grammars.values()))
        build_calls.clear()
        l = build_initial_lattice(tokenize("Ne fait-il les comptes que pour rendre service ?"), lexicon)
        f = filter_lattice(g, l)
        to_json(f)
        to_json(minimize(f))
        assert len(build_calls) == 3

    def test_empty_lattice_passes_through(self, grammars, lexicon):
        l = build_initial_lattice([], lexicon)
        for g in grammars.values():
            assert language_equal(filter_lattice(g, l), l)
            assert language_equal(filter_oracle(g, l), l)

    def test_final_initial_state_matches_everywhere(self, lexicon):
        # with a final initial state the empty input sequence matches at
        # every position, so no free portion is ever available
        g = load_grammar(
            json.dumps(
                {
                    "name": "eps",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [0, 1],
                    "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
                }
            ),
            CATS,
        )
        l = build_initial_lattice(tokenize("Ne lui dis pas"), lexicon)
        assert language_equal(filter_lattice(g, l), filter_oracle(g, l))
        assert filter_lattice(g, l).is_empty_language()

    def test_cyclic_grammar_bounded_by_sentence(self, lexicon):
        g = load_grammar(
            json.dumps(
                {
                    "name": "loop",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "ne", "out": "<XI>"},
                        {"from": 1, "to": 1, "in": "ne", "out": "<XI>"},
                    ],
                }
            ),
            CATS,
        )
        l = build_initial_lattice(tokenize("Ne lui dis pas"), lexicon)
        assert language_equal(filter_lattice(g, l), filter_oracle(g, l))

    def test_compound_lemma_portion(self, lexicon, lattices):
        # the compound tagging conforms to the input at the span start, so
        # free portions are unavailable there; only the compound survives
        g = load_grammar(
            json.dumps(
                {
                    "name": "cmp",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "<sur/le/moment>", "out": "<ADV>"}
                    ],
                }
            ),
            CATS,
        )
        l = lattices["moment"]
        filtered = filter_lattice(g, l)
        assert language_equal(filtered, filter_oracle(g, l))
        assert all(
            any(getattr(label, "compound", False) for label in seq)
            for seq in language(filtered)
        )


class TestSilenceCheck:
    def test_single_violation_with_span(self, grammars, lexicon):
        corpus = [CorpusItem("s1", "Ne lui dis pas", TELL_HIM_GOOD)]
        report = silence_check(grammars["ne-verb"], corpus, lexicon)
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.sentence_id == "s1"
        assert violation.grammar == "ne-verb"
        assert violation.span == (0, 2)
        assert report.lines() == ["SILENCE s1 0-2 ne-verb"]

    def test_combination_has_no_violation(self, grammars, lexicon):
        corpus = [CorpusItem("s1", "Ne lui dis pas", TELL_HIM_GOOD)]
        u = union([grammars["ne-verb"], grammars["ne-lui"]])
        report = silence_check(u, corpus, lexicon)
        assert report.violations == ()

    def test_empty_corpus(self, grammars, lexicon):
        report = silence_check(grammars["ne-verb"], [], lexicon)
        assert report.violations == ()
        assert report.corpus_errors == ()

    def test_inconsistent_gold_is_corpus_error(self, grammars, lexicon):
        corpus = [CorpusItem("s1", "Ne lui dis pas", "<ne XI> <lui DET:ms> <dire V:Y2s> <pas ADV>")]
        report = silence_check(grammars["ne-verb"], corpus, lexicon)
        assert report.violations == ()
        assert len(report.corpus_errors) == 1

    def test_unknown_word_is_corpus_error(self, grammars, lexicon):
        corpus = [CorpusItem("s1", "Ne xyzzy pas", "<ne XI> <pas ADV>")]
        report = silence_check(grammars["ne-verb"], corpus, lexicon)
        assert report.violations == ()
        assert len(report.corpus_errors) == 1


class TestMaskTables:
    """Each rule's per-edge masks are computed once per lattice and grammar:
    at most one input and one output mask per lattice edge."""

    def test_filter_oracle_masks_each_edge_once(self, grammars, lattices, mask_calls):
        l = lattices["confirm-chain"]
        assert count_paths(l) > 1000
        filter_oracle(grammars["de-ce-que-chain"], l)
        assert 0 < len(mask_calls) <= 2 * len(l.edges)

    def test_silence_check_masks_each_edge_once(self, grammars, lexicon, mask_calls):
        corpus = [CorpusItem("s1", "Ne lui dis pas", TELL_HIM_GOOD)]
        report = silence_check(grammars["ne-verb"], corpus, lexicon)
        assert report.lines() == ["SILENCE s1 0-2 ne-verb"]
        l = build_initial_lattice(tokenize("Ne lui dis pas"), lexicon)
        assert 0 < len(mask_calls) <= 2 * len(l.edges)

    def test_accepts_every_path_masks_each_edge_once(self, grammars, lexicon, mask_calls):
        # a lattice of its own, so no earlier test has met this pair
        l = build_initial_lattice(tokenize(SENTENCES["confirm-chain"]), lexicon)
        g = grammars["de-ce-que-chain"]
        paths = all_paths(l)
        assert len(paths) > 1000
        for p in paths:
            assert accepts(g, p, l) == accepts_case_a(g, p, l) == accepts_case_b(g, p, l)
        assert 0 < len(mask_calls) <= 2 * len(l.edges)


class TestParseTagSequence:
    def test_bare_separators_alone_or_adjacent(self, categories):
        labels = parse_tag_sequence("<il PRO:3ms> -, <faire V:P3s> .", categories)
        assert labels[1:3] == [Separator("-"), Separator(",")] and labels[4] == Separator(".")

    @pytest.mark.parametrize("gold, piece", [("<ne XI> lui <pas ADV>", "lui"), ("l' <a N>", "l")])
    def test_other_bare_text_is_named(self, categories, gold, piece):
        with pytest.raises(TagFormatError, match=f"separator character: {piece!r}$"):
            parse_tag_sequence(gold, categories)


class TestLoadCorpus:
    def test_pairs(self):
        items = load_corpus(["# c", "T: Ne lui dis pas", f"G: {TELL_HIM_GOOD}"])
        assert len(items) == 1
        assert items[0].sentence_id == "s1"
        assert items[0].text == "Ne lui dis pas"

    def test_gold_without_text_rejected(self):
        with pytest.raises(CorpusFormatError):
            load_corpus(["G: <ne XI>"])

    def test_dangling_text_rejected(self):
        with pytest.raises(CorpusFormatError):
            load_corpus(["T: Ne lui dis pas"])


@pytest.mark.usefixtures("default_recursion_limit")
class TestLongSentence:
    """Every walk is iterative: a 5,000-token sentence runs under the
    default recursion limit."""

    GOLD = " ".join([TELL_HIM_GOOD] * LONG_REPEATS)

    def test_matchable_and_filter_under_cyclic_grammar(self, cyclic_grammar, long_lattice):
        assert not any(matchable(long_lattice, cyclic_grammar))
        # every state is unmatchable, so every path survives as free portions
        assert to_json(filter_lattice(cyclic_grammar, long_lattice)) == to_json(long_lattice)

    def test_resolve_tag_sequence(self, long_lattice, categories):
        labels = parse_tag_sequence(self.GOLD, categories)
        path = resolve_tag_sequence(long_lattice, labels)
        assert path is not None and len(path) == len(labels) == 4 * LONG_REPEATS
        assert path[0].src == long_lattice.initial and path[-1].dst == long_lattice.final
        dire = parse_complete_tag("<dire V:Y2s>", categories)
        assert resolve_tag_sequence(long_lattice, labels[:-1] + [dire]) is None

    def test_accepts(self, grammars, cyclic_grammar, long_lattice, find_path):
        path = find_path(long_lattice, self.GOLD)
        assert accepts(cyclic_grammar, path, long_lattice)
        assert accepts(union([grammars["ne-verb"], grammars["ne-lui"]]), path, long_lattice)
        assert not accepts(grammars["ne-verb"], path, long_lattice)

    def test_silence_check_accepted_and_rejected_gold(self, grammars, lexicon):
        corpus = [CorpusItem("s1", LONG_TEXT, self.GOLD)]
        report = silence_check(union([grammars["ne-verb"], grammars["ne-lui"]]), corpus, lexicon)
        assert report.violations == () and report.corpus_errors == ()
        report = silence_check(grammars["ne-verb"], corpus, lexicon)
        assert report.lines() == ["SILENCE s1 0-2 ne-verb"]


# The seven fixture sentences, ten times over: 640 tokens and far too
# many paths to enumerate
SCALE_TEXT = " ".join([text[0].lower() + text[1:] for text in SENTENCES.values()] * 10)
SCALE_CASES = [
    *(("sentences", name) for name in (*fixtures.GRAMMAR_FILES, "union")),
    ("long", "ne-verb"),
    ("long", "union"),
]


def _random_path(rng, l):
    """A path of ``l`` taking a random edge out of each state it meets."""
    path, q = [], l.initial
    while q != l.final:
        path.append(rng.choice(l.edges_by_source[q]))
        q = path[-1].dst
    return tuple(path)


def _path_with_labels(l, labels):
    """A path of ``l`` that carries ``labels``, which must be in its
    language: the states each label prefix reaches, each with one edge
    into it, are read back from the final state."""
    layers = [{l.initial: None}]
    for label in labels:
        layers.append({})
        for q in layers[-2]:
            for e in l.edges_by_source[q]:
                if e.label == label:
                    layers[-1].setdefault(e.dst, e)
    path, q = [], l.final
    for layer in reversed(layers[1:]):
        path.append(layer[q])
        q = path[-1].src
    return tuple(reversed(path))


def _member(m, labels):
    """Whether the deterministic lattice ``m`` has a path carrying ``labels``."""
    q = m.initial
    for label in labels:
        q = next((e.dst for e in m.edges_by_source[q] if e.label == label), None)
        if q is None:
            return False
    return q == m.final


@pytest.fixture(scope="module")
def at_scale(lexicon, grammars, long_lattice):
    """``(grammar, lattice, filtered lattice)`` for a case of ``SCALE_CASES``,
    each filtered once."""
    lattices = {
        "sentences": build_initial_lattice(tokenize(SCALE_TEXT), lexicon),
        "long": long_lattice,
    }
    named = {**grammars, "union": union(list(grammars.values()))}
    filtered = {}

    def case(key, name):
        if (key, name) not in filtered:
            g, l = named[name], lattices[key]
            filtered[key, name] = (g, l, filter_lattice(g, l))
        return filtered[key, name]

    return case


@pytest.mark.usefixtures("default_recursion_limit")
class TestAtScale:
    """Differential checks on lattices whose paths are far too many to
    enumerate; every comparison is by minimal form."""

    @pytest.mark.parametrize("case", SCALE_CASES, ids="/".join)
    def test_filter_equals_its_rebuild(self, at_scale, case):
        _, _, f = at_scale(*case)
        assert language_equal(f, renamed(f))

    @pytest.mark.parametrize("case", SCALE_CASES, ids="/".join)
    def test_filter_is_within_its_input(self, at_scale, case):
        # the union of the two has the input's language exactly when the
        # filtered language is a subset; and the union differs from the
        # filtered language exactly when the filter removed something
        _, l, f = at_scale(*case)
        both = union_lattice(f, l)
        assert language_equal(both, l)
        assert language_equal(both, f) == language_equal(f, l)

    @pytest.mark.parametrize(
        "case", [c for c in SCALE_CASES if c != ("long", "union")], ids="/".join
    )
    def test_accepts_agrees_with_filtered_membership(self, at_scale, case):
        # paths drawn from the input are nearly all rejected, paths drawn
        # from the filtered lattice are all accepted; the union keeps every
        # path of ``LONG_TEXT``, so only one verdict could occur there
        g, l, f = at_scale(*case)
        m = minimize(f)
        rng = random.Random(0)
        paths = [_random_path(rng, l) for _ in range(4)]
        paths += [_path_with_labels(l, path_labels(_random_path(rng, f))) for _ in range(4)]
        verdicts = [accepts(g, p, l) for p in paths]
        assert verdicts == [_member(m, path_labels(p)) for p in paths]
        assert set(verdicts) == {True, False}


def _built_initial_lattice(tokens, lexicon):
    """The initial lattice as ``Lattice.build`` makes it from every
    analysis of each token, in lexicon order, with no kept label."""
    edges = []
    forms = lookup_forms(tokens)
    for i, form in enumerate(forms):
        entries = compound_matches(forms, i, lexicon)
        if form in _SEPARATORS:
            edges.append((i, i + 1, Separator(form)))
        else:
            entries = [*lexicon.simple.get(form, ()), *entries]
        edges += [
            (i, i + len(entry.surface_tokens), tag) for entry in entries for tag in expand_entry(entry)
        ]
    return Lattice.build(0, len(tokens), edges)


class TestCanonicalForm:
    """``build_initial_lattice``, ``filter`` and ``minimize`` make their
    lattices without ``Lattice.build``, yet each must be what ``build``
    makes of its own edges: the same numbering, and parallel edges in
    ``sort_key`` order with their multiplicity."""

    @staticmethod
    def assert_pipeline(text, lexicon, grammars):
        tokens = tokenize(text)
        l = build_initial_lattice(tokens, lexicon)
        assert l == _built_initial_lattice(tokens, lexicon), text
        made = [l]
        for g in grammars:
            f = filter_lattice(g, l)
            made += [f, minimize(f)]
        for m in made:
            assert Lattice.build(m.initial, m.final, m.edges) == m, text

    def test_fixture_sentences(self, lexicon, grammars):
        named = [*grammars.values(), union(list(grammars.values()))]
        for text in [*SENTENCES.values(), SCALE_TEXT]:
            self.assert_pipeline(text, lexicon, named)
        self.assert_pipeline(LONG_TEXT, lexicon, named[-1:])

    @pytest.mark.parametrize("mode", ["general", "simple", "oii"])
    def test_random_instances(self, mode):
        # the random lexicons draw their surfaces from one small set, so
        # successive ones share surfaces with other analyses
        rng = random.Random(12)
        for _ in range(150):
            inst = random_instance(rng, mode=mode)
            self.assert_pipeline(inst.text, inst.lexicon, [inst.grammar])

    def test_duplicate_parallel_edges(self, categories, grammars):
        lexicon = load_lexicon(TWINS_LEXICON, categories)
        self.assert_pipeline(TWINS_TEXT, lexicon, [*grammars.values(), union(list(grammars.values()))])
        l = build_initial_lattice(tokenize(TWINS_TEXT), lexicon)
        for tag, span in (("<venir V:P3s>", (1, 2)), ("<sur/le/moment N:ms>", (2, 5))):
            label = parse_complete_tag(tag, categories)
            on_span = [(e.label.lemma, e.label.features) for e in l.edges if e[:2] == span]
            assert on_span.count((label.lemma, label.features)) == 2

    def test_compounds_from_a_separator(self, categories, grammars):
        lexicon = load_lexicon(
            [
                "ne,ne.XI",
                "vient,venir.V:P3s",
                "t,te.PRO:2s",
                "il,il.PRO:3ms",
                "-t-il,-t-il.PRO:3ms",
                "- t,- t.ADV",
                "-t-il,-t-il.PRO:3ms",
                "-t-il,-t-il.PRO:3fs",
            ],
            categories,
        )
        text = "ne vient-t-il - t"
        self.assert_pipeline(text, lexicon, [*grammars.values(), union(list(grammars.values()))])
        l = build_initial_lattice(tokenize(text), lexicon)
        assert [e.dst for e in l.edges_by_source[2]] == [3, 4, 6, 6]
        assert [e.dst for e in l.edges_by_source[6]] == [7, 8]

    def test_lexicons_sharing_surfaces(self, categories):
        shared = ["moment,moment.N:ms"]
        a = ["fait,faire.V:P3s", "fait,fait.N:ms", "le,le.DET:ms", "le moment,le moment.N:ms"]
        b = ["fait,fait.A:ms", "le,le.PRO:3ms", "le moment,le moment.ADV"]
        a, b = (load_lexicon([*shared, *lines], categories) for lines in (a, b))
        for lexicon in (a, b, a, b):
            self.assert_pipeline("fait le moment", lexicon, [])


class TestFlatEdges:
    """A lattice holds its edges as three arrays, ``srcs``, ``dsts`` and
    ``labels``.  ``edges`` is made from them when first read, and the
    apply pipeline never reads it."""

    def test_apply_pipeline_makes_no_edge_tuples(self, lexicon, grammars):
        l = build_initial_lattice(tokenize(SCALE_TEXT), lexicon)
        f = filter_lattice(union(list(grammars.values())), l)
        to_json(f)
        m = minimize(f)
        to_json(m)
        for made in (l, f, m):
            assert "edges" not in vars(made)

    @staticmethod
    def assert_edges_are_the_arrays(l, grammars):
        made = [l]
        for g in grammars:
            f = filter_lattice(g, l)
            made += [f, minimize(f)]
        for m in made:
            assert m.edges == tuple(map(Edge._make, zip(m.srcs, m.dsts, m.labels)))

    def test_fixtures(self, lattices, grammars):
        named = [*grammars.values(), union(list(grammars.values()))]
        for l in lattices.values():
            self.assert_edges_are_the_arrays(l, named)

    @pytest.mark.parametrize("mode", ["general", "simple", "oii"])
    def test_random_instances(self, mode):
        rng = random.Random(22)
        for _ in range(100):
            inst = random_instance(rng, mode=mode)
            self.assert_edges_are_the_arrays(inst.lattice, [inst.grammar])


def _gc_uses(source: str) -> list[int]:
    """Lines of ``source`` that import ``gc``, name it, or spell it as a string (``__import__("gc")``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
            or isinstance(node, ast.Name) and node.id == "gc"
            or isinstance(node, ast.Constant) and node.value == "gc"
        ):
            found.append(node.lineno)
    return sorted(found)


def test_library_leaves_the_collector_to_its_caller():
    """``gc.disable``, ``gc.freeze`` and ``gc.set_threshold`` change state
    that belongs to the whole process, so no module of the package imports
    or calls ``gc``."""
    assert _gc_uses("import gc as c\nfrom gc import freeze\ngc.disable()\n__import__('gc')") == [1, 2, 3, 4]
    modules = sorted(Path(locgram.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert _gc_uses(path.read_text(encoding="utf-8")) == [], path.name
