import itertools
import json

import pytest

from locgram.errors import GrammarFormatError
from locgram.grammar import GrammarClass, classify, load_grammar, output_implies_input, to_dot, union
from locgram.tags import CategoryPattern, LemmaPattern, Separator, SurfaceForm
from reference import dumps_grammar, input_sequences, path_label_pairs

CATS = ("V", "N", "A", "ADV", "PRO", "DET", "PREP", "CNJS", "CNJC", "XI", "INT")


def make(doc):
    return load_grammar(json.dumps(doc), CATS)


class TestLoadGrammar:
    def test_chain_grammar_shape(self, grammars):
        g = grammars["de-ce-que-chain"]
        assert len(g.states) == 8
        assert len(g.transitions) == 7
        inputs = [t.inp for t in g.transitions]
        assert inputs == [SurfaceForm(w) for w in ["de", "ce", "que", "je", "ne", "me", "le"]]
        outputs = [t.out.notation() for t in g.transitions]
        assert outputs == ["<PREP>", "<PRO>", "<CNJS>", "<PRO>", "<XI>", "<PRO>", "<PRO>"]

    def test_ne_verb_shape(self, grammars):
        g = grammars["ne-verb"]
        assert len(g.states) == 3
        assert [(t.inp.notation(), t.out.notation()) for t in g.transitions] == [
            ("ne", "<XI>"),
            ("<V>", "<V>"),
        ]

    def test_no_finals_rejected(self):
        with pytest.raises(GrammarFormatError, match="final"):
            make({"name": "g", "states": [0], "initial": 0, "finals": [], "transitions": []})

    def test_unreachable_state_rejected(self):
        with pytest.raises(GrammarFormatError, match="[Uu]nreachable"):
            make(
                {
                    "name": "g",
                    "states": [0, 1, 2],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
                }
            )

    def test_dead_state_rejected(self):
        with pytest.raises(GrammarFormatError, match="no final"):
            make(
                {
                    "name": "g",
                    "states": [0, 1, 2],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "ne", "out": "<XI>"},
                        {"from": 0, "to": 2, "in": "me", "out": "<PRO>"},
                    ],
                }
            )

    def test_unparsable_label_rejected(self):
        with pytest.raises(GrammarFormatError, match="label"):
            make(
                {
                    "name": "g",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "<V:>", "out": "<V>"}],
                }
            )

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"transitions": [{"to": 1, "in": "ne", "out": "<XI>"}]}, "needs from and to members: 'from'"),
            ({"transitions": 5}, "field 'transitions' must be a JSON array"),
            ({"states": [[0], 1]}, r"state ids must be integers or strings, not \[0\]"),
            ({"initial": [0]}, r"state ids must be integers or strings, not \[0\]"),
            ({"transitions": [{"from": [0], "to": 1, "in": "ne", "out": "<XI>"}]}, r"strings, not \[0\]"),
            ({"name": 5}, "grammar name must be a string, not 5"),
            ({"initial": 5}, "state id 5 is not declared in states"),
            ({"finals": [1, 7]}, "state id 7 is not declared in states"),
            ({"transitions": [{"from": 0, "to": 9, "in": "ne", "out": "<XI>"}]}, "state id 9 is not declared"),
            # ``True == 1.0 == 1``: these ids would pass for the states 0 and 1
            ({"states": [0, True]}, "state ids must be integers or strings, not True"),
            ({"initial": 0.0}, "state ids must be integers or strings, not 0.0"),
            ({"finals": [1.0]}, "state ids must be integers or strings, not 1.0"),
            ({"transitions": [{"from": 0, "to": True, "in": "ne", "out": "<XI>"}]}, "strings, not True"),
            ({"states": [0, 1, None], "transitions": [{"from": 0, "to": None, "in": "ne", "out": "<XI>"}]},
             "state ids must be integers or strings, not None"),
            ({"states": [0, 1, 1]}, "repeated state id 1"),
            ({"transitions": [{"from": 0, "to": 1, "in": 5, "out": "<XI>"}]},
             r"^transition needs string in and out members: \{'from': 0, 'to': 1, 'in': 5, "),
            ({"transitions": [{"from": 0, "to": 1, "out": "<XI>"}]},
             r"^transition needs string in and out members: \{'from': 0, 'to': 1, 'out'"),
            ({"transitions": [{"from": 0, "to": 1, "in": "ne", "out": None}]},
             r"^transition needs string in and out members: \{'from': 0, 'to': 1, 'in': 'ne', 'out': None\}"),
            ("{", "^invalid JSON: "),
            ("[0, 1]", "^the document is not a JSON object$"),
            ('{"name": "g", "states": [0], "initial": 0, "finals": [0]}', "^missing field 'transitions'$"),
        ],
        ids=[
            "transition-without-from",
            "transitions-not-a-list",
            "list-state-id",
            "list-initial-state",
            "list-transition-endpoint",
            "name-not-a-string",
            "initial-undeclared",
            "final-undeclared",
            "transition-endpoint-undeclared",
            "bool-state-id",
            "float-initial-state",
            "float-final-state",
            "bool-transition-endpoint",
            "null-state-id",
            "repeated-state",
            "int-transition-input",
            "transition-without-input",
            "null-transition-output",
            "invalid-json",
            "not-an-object",
            "missing-field",
        ],
    )
    def test_malformed_document_rejected(self, change, match):
        # a string ``change`` is the whole document
        doc = {
            "name": "g",
            "states": [0, 1],
            "initial": 0,
            "finals": [1],
            "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
        }
        with pytest.raises(GrammarFormatError, match=match):
            load_grammar(change, CATS) if isinstance(change, str) else make({**doc, **change})

    @pytest.mark.parametrize("field", ["states", "finals", "transitions"])
    def test_string_where_an_array_belongs_rejected(self, field):
        # a string is iterable too: "finals": "ab" would read as the finals "a" and "b"
        doc = {
            "name": "g",
            "states": ["a", "b", "ab"],
            "initial": "a",
            "finals": ["a", "b"],
            "transitions": [{"from": "a", "to": "b", "in": "ne", "out": "<XI>"}],
        }
        with pytest.raises(GrammarFormatError, match=f"field '{field}' must be a JSON array"):
            make({**doc, field: "ab"})

    @pytest.mark.parametrize(
        "states, finals, arcs, match",
        [
            ([0, 0, 1], [1], [(0, 1)], "repeated state id 0"),
            (["a", "b", "a"], ["b"], [("a", "b")], "repeated state id 'a'"),
            ([0, 1, "1"], [1, "1"], [(0, 1), (0, "1")], "1 and '1' print alike"),
            ([0, "0", 1], [1], [(0, "0"), ("0", 1)], "0 and '0' print alike"),
        ],
        ids=["repeated-int", "repeated-str", "int-and-str-finals", "int-and-str-inner"],
    )
    def test_state_ids_distinct_and_printed_distinctly(self, states, finals, arcs, match):
        # each document is valid but for its ids; to_dot draws a state by its str
        doc = {
            "name": "g",
            "states": states,
            "initial": states[0],
            "finals": finals,
            "transitions": [{"from": q, "to": r, "in": "<V>", "out": "<V>"} for q, r in arcs],
        }
        with pytest.raises(GrammarFormatError, match=match):
            make(doc)

    def test_cycles_permitted(self):
        g = make(
            {
                "name": "g",
                "states": [0, 1],
                "initial": 0,
                "finals": [1],
                "transitions": [
                    {"from": 0, "to": 0, "in": "ne", "out": "<XI>"},
                    {"from": 0, "to": 1, "in": "me", "out": "<PRO>"},
                ],
            }
        )
        assert len(g.transitions) == 2

    def test_dump_round_trip(self, grammars):
        for name, g in grammars.items():
            assert load_grammar(dumps_grammar(g), CATS) == g, name

    def test_dump_round_trip_every_pattern_kind(self):
        patterns = ["<prendre>", "<prendre:P3s>", "<V>", "<V:3s>", "vient", "<MOT>", "-"]
        g = make(
            {
                "name": "g",
                "states": [0, 1],
                "initial": 0,
                "finals": [1],
                "transitions": [{"from": 0, "to": 1, "in": p, "out": p} for p in patterns],
            }
        )
        assert [t.inp.notation() for t in g.transitions] == patterns
        assert load_grammar(dumps_grammar(g), CATS) == g


class TestClassify:
    def test_fixture_classes(self, grammars):
        expected = {
            "de-ce-que-chain": GrammarClass.SIMPLE_INPUTS,
            "subject-inversion": GrammarClass.OUTPUT_IMPLIES_INPUT,
            "ne-verb": GrammarClass.OUTPUT_IMPLIES_INPUT,
            "ne-lui": GrammarClass.SIMPLE_INPUTS,
            "preverb-pronouns": GrammarClass.OUTPUT_IMPLIES_INPUT,
            "de-le-and-inversion": GrammarClass.OUTPUT_IMPLIES_INPUT,
            "aucun-pronoun": GrammarClass.GENERAL,
        }
        assert {name: classify(g) for name, g in grammars.items()} == expected

    def test_implication_cases(self):
        v = CategoryPattern("V")
        v3s = CategoryPattern("V", frozenset("3s"))
        assert output_implies_input(v, v3s)
        assert not output_implies_input(v3s, v)
        assert output_implies_input(v, v)
        assert not output_implies_input(CategoryPattern("PRO"), CategoryPattern("DET"))
        assert output_implies_input(Separator("-"), Separator("-"))
        assert not output_implies_input(LemmaPattern("x"), CategoryPattern("V"))

    def test_patterns_of_two_kinds_with_equal_fields(self):
        # the two tuples compare equal, but a lemma constrains no category
        assert LemmaPattern("V") == CategoryPattern("V")
        assert not output_implies_input(LemmaPattern("V"), CategoryPattern("V"))
        assert not output_implies_input(CategoryPattern("V"), LemmaPattern("V"))

    def test_union_class_is_weakest_member(self, grammars):
        for a, b in itertools.combinations(grammars.values(), 2):
            assert classify(union([a, b])) == max(classify(a), classify(b))


class TestUnion:
    def test_shared_endpoints(self, grammars):
        u = union([grammars["subject-inversion"], grammars["ne-verb"]])
        assert u.initial == "I"
        assert u.finals == frozenset({"F"})
        assert u.name == "subject-inversion|ne-verb"

    def test_input_sequences_combined(self, grammars, categories):
        from locgram.tags import parse_incomplete_tag

        u = union([grammars["subject-inversion"], grammars["ne-verb"]])
        seqs = input_sequences(u, max_len=5)
        parse = lambda text: parse_incomplete_tag(text, categories)
        assert (parse("<V>"), parse("-"), parse("il")) in seqs
        assert (parse("ne"), parse("<V>")) in seqs

    def test_singleton_union_preserves_pair_language(self, grammars):
        for name, g in grammars.items():
            assert path_label_pairs(union([g]), 6) == path_label_pairs(g, 6), name

    def test_associative_up_to_pair_language(self, grammars):
        gs = [grammars["ne-verb"], grammars["ne-lui"], grammars["subject-inversion"]]
        left = union([union(gs[:2]), gs[2]])
        right = union([gs[0], union(gs[1:])])
        flat = union(gs)
        assert path_label_pairs(left, 6) == path_label_pairs(right, 6) == path_label_pairs(flat, 6)

    def test_member_accepting_the_empty_sequence(self, grammars):
        # a member whose initial state is final makes the shared initial state final
        g = make(
            {
                "name": "g",
                "states": [0, 1],
                "initial": 0,
                "finals": [0, 1],
                "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
            }
        )
        u = union([g, grammars["ne-verb"]])
        assert u.finals == frozenset({"I", "F"})
        assert () in path_label_pairs(u, 2)
        assert () not in path_label_pairs(union([grammars["ne-verb"]]), 2)

    def test_state_order_is_first_appearance(self, grammars):
        # "I" first, then each member's states in its own order, with "F" where it first appears
        u = union([grammars["ne-verb"], grammars["ne-lui"], grammars["subject-inversion"]])
        assert u.states == ("I", ("g0", 1), "F", ("g1", 1), ("g2", 1), ("g2", 2), ("g2", 4))

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            union([])


class TestInputSequences:
    def test_chain_has_one_sequence(self, grammars):
        seqs = input_sequences(grammars["de-ce-que-chain"], max_len=10)
        assert len(seqs) == 1
        (seq,) = seqs
        assert [i.notation() for i in seq] == ["de", "ce", "que", "je", "ne", "me", "le"]

    def test_combined_pair_has_two(self, grammars):
        u = union([grammars["ne-verb"], grammars["ne-lui"]])
        seqs = input_sequences(u, max_len=4)
        assert len(seqs) == 2
        assert all(len(s) == 2 for s in seqs)

    def test_cycles_unrolled_to_bound(self):
        g = make(
            {
                "name": "loop",
                "states": [0, 1],
                "initial": 0,
                "finals": [1],
                "transitions": [
                    {"from": 0, "to": 0, "in": "ne", "out": "<XI>"},
                    {"from": 0, "to": 1, "in": "me", "out": "<PRO>"},
                ],
            }
        )
        seqs = input_sequences(g, max_len=3)
        assert {len(s) for s in seqs} == {1, 2, 3}

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_long_bound_within_recursion_limit(self, cyclic_grammar):
        # <MOT>^k zzz for k < 1500
        assert len(input_sequences(cyclic_grammar, 1500)) == 1500


class TestDot:
    def test_deterministic(self, grammars):
        g = grammars["subject-inversion"]
        assert to_dot(g) == to_dot(g)

    def test_renders_in_out_pairs(self, grammars):
        dot = to_dot(grammars["ne-verb"])
        assert "ne / <XI>" in dot
        assert "<V> / <V>" in dot

    def test_state_names_escaped(self):
        g = make(
            {
                "name": "g",
                "states": ['a"b', "c\\d"],
                "initial": 'a"b',
                "finals": ["c\\d"],
                "transitions": [{"from": 'a"b', "to": "c\\d", "in": "ne", "out": "<XI>"}],
            }
        )
        lines = to_dot(g).splitlines()
        assert '  "a\\"b" [style=bold];' in lines
        assert '  "c\\\\d" [shape=doublecircle];' in lines
        assert '  "a\\"b" -> "c\\\\d" [label="ne / <XI>"];' in lines

    def test_union_dot_deterministic(self, grammars):
        u1 = union([grammars["ne-verb"], grammars["ne-lui"]])
        u2 = union([grammars["ne-verb"], grammars["ne-lui"]])
        assert to_dot(u1) == to_dot(u2)
