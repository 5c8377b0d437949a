import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from locgram import engine, fixtures
from locgram.cli import main
from locgram.errors import InputError
from locgram.lattice import Lattice, from_json, to_json
from conftest import CYCLIC_GRAMMAR, LONG_TEXT

CHAIN = fixtures.grammar_path("de-ce-que-chain")
NE_VERB = fixtures.grammar_path("ne-verb")
NE_LUI = fixtures.grammar_path("ne-lui")

CONFIRM_CHAIN = "Cela vient de ce que je ne me le suis pas fait confirmer aussitôt"

ROOT = Path(__file__).resolve().parent.parent
# Where the locgram under test lives, so that child processes import the same copy.
PACKAGE_ROOT = str(Path(engine.__file__).resolve().parents[1])

EXPECTED_MOMENT_LISTING = """\
("je.PRO:1s")
("ne.XI" + "ne.XI[+Préd]")
("me.PRO:1s")
("le.DET:ms" + "le.PRO:3ms")
("être.V:P1s" + "suivre.V:P1s" + "suivre.V:P2s" + "suivre.V:Y2s")
("pas.ADV" + "pas.N:mp" + "pas.N:ms" + "pas.XI")
("faire.V:Kms" + "faire.V:P3s" + "fait.A:ms" + "fait.N:ms" + "fait.XI[+Préd]")
("confirmer.V:W")
(
"sur/le/moment.ADV;PDETC"
+
("sur.A:ms" + "sur.PREP")
("le.DET:ms" + "le.PRO:3ms")
("moment.N:ms")
)
"""

EXPECTED_OVERLAP_LISTING = """\
(
"a/b.N"
+
"b/c.ADV"
+
("a.N")
("b.N:p" + "b.N:s")
("c.V")
)
-
(
"a-b.N"
+
("a.N")
-
("b.N:p" + "b.N:s")
)
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTag:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "tag", "Je ne me le suis pas fait confirmer sur le moment")
        assert code == 0
        assert out == EXPECTED_MOMENT_LISTING

    def test_empty_input(self, capsys):
        code, out, _ = run(capsys, "tag", "")
        assert code == 0
        assert out == ""

    def test_unknown_word_exits_2(self, capsys):
        code, _, err = run(capsys, "tag", "Il traverse le pont")
        assert code == 2
        assert "pont" in err

    def test_lattice_format_parses(self, capsys, categories):
        from locgram.lattice import from_json

        code, out, _ = run(capsys, "tag", "--format", "lattice", "Ne lui dis pas")
        assert code == 0
        lattice = from_json(out, categories)
        assert lattice.n_states == 5

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "tag", "--format", "dot", "Ne lui dis pas")
        assert code == 0
        assert out.startswith("digraph lattice {")

    def test_explicit_lexicon_files(self, capsys):
        code, out, _ = run(
            capsys,
            "tag",
            "--lexicon", fixtures.lexicon_path(),
            "--categories", fixtures.categories_path(),
            "Ne lui dis pas",
        )
        assert code == 0
        assert '"lui.PRO:3s" + "luire.V:Kms"' in out

    def test_listing_flattens_overlapping_compounds(self, capsys, tmp_path):
        # "a b" and "b c" overlap, so one block covers all three tokens;
        # "a-b" spans a separator, which its block lists in place
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(
            "a,a.N\nb,b.N:s:p\nc,c.V\na b,a b.N\nb c,b c.ADV\na-b,a-b.N\n", encoding="utf-8"
        )
        categories = tmp_path / "categories.txt"
        categories.write_text("N\nV\nADV\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "tag", "--lexicon", str(lexicon), "--categories", str(categories),
            "a b c - a-b",
        )
        assert code == 0
        assert out == EXPECTED_OVERLAP_LISTING

    def test_compound_from_a_separator(self, capsys, tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(
            "vient,venir.V:P3s\nt,te.PRO:2s\nil,il.PRO:3ms\n-t-il,-t-il.PRO:3ms\n", encoding="utf-8"
        )
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("T: vient-t-il\nG: <venir V:P3s> <-t-il PRO:3ms>\n", encoding="utf-8")
        inputs = ["--lexicon", str(lexicon), "--categories", fixtures.categories_path()]
        code, out, _ = run(capsys, "tag", *inputs, "vient-t-il")
        assert (code, out) == (
            0, '("venir.V:P3s")\n(\n"-t-il.PRO:3ms"\n+\n-\n("te.PRO:2s")\n-\n("il.PRO:3ms")\n)\n'
        )
        code, out, _ = run(capsys, "check", *inputs, "--grammar", NE_VERB, str(corpus))
        assert (code, out) == (0, "")


class TestApply:
    def test_chain_constrains_survivors(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--grammar", CHAIN, "--format", "paths", CONFIRM_CHAIN
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 160
        for line in lines:
            assert "<de PREP> <ce PRO:3s> <que CNJS> <je PRO:1s>" in line
            assert "<me PRO:1s> <le PRO:3ms>" in line

    def test_no_match_keeps_language(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--grammar", NE_LUI, "--format", "paths",
            "Il traverse le chemin de fer.",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    @pytest.mark.parametrize("limit", [[], ["--limit", "2"]], ids=["default-limit", "limit-2"])
    def test_paths_lists_each_tagging_once(self, capsys, tmp_path, limit):
        # overlapping lexicon lines give two parallel edges with one label;
        # the listing and its limit count distinct taggings, not paths
        lexicon = tmp_path / "overlap.dic"
        lexicon.write_text("vient,venir.V:P3s\nvient,venir.V:P3s:W\n", encoding="utf-8")
        code, out, err = run(
            capsys, "apply", "--lexicon", str(lexicon), "--grammar", NE_VERB,
            "--format", "paths", *limit, "vient",
        )
        assert (code, err) == (0, "")
        assert out == "<venir V:P3s>\n<venir V:W>\n"

    def test_default_format_is_lattice_json(self, capsys):
        code, out, _ = run(capsys, "apply", "--grammar", NE_VERB, "Ne lui dis pas")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"states", "initial", "final", "edges"}

    def test_empty_result_exits_3(self, capsys, tmp_path):
        grammar = tmp_path / "il_noun.json"
        grammar.write_text(
            json.dumps(
                {
                    "name": "il-noun",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "il", "out": "<N>"}],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "apply", "--grammar", str(grammar), "Il traverse le chemin de fer."
        )
        assert code == 3
        assert "rejected" in err

    def test_bad_grammar_exits_4(self, capsys, tmp_path):
        grammar = tmp_path / "bad.json"
        grammar.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "apply", "--grammar", str(grammar), "Ne lui dis pas")
        assert code == 4

    @pytest.mark.parametrize(
        "change",
        [
            {"transitions": [{"to": 1, "in": "ne", "out": "<XI>"}]},
            {"transitions": 5},
            {"states": [[0], 1]},
        ],
        ids=["transition-without-from", "transitions-not-a-list", "list-state-id"],
    )
    def test_malformed_grammar_document_exits_4(self, capsys, tmp_path, change):
        doc = {
            "name": "g",
            "states": [0, 1],
            "initial": 0,
            "finals": [1],
            "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
        }
        grammar = tmp_path / "malformed.json"
        grammar.write_text(json.dumps({**doc, **change}), encoding="utf-8")
        code, _, err = run(capsys, "apply", "--grammar", str(grammar), "Ne lui dis pas")
        assert code == 4
        assert err.startswith("error: ") and "Traceback" not in err

    def test_limit_below_one_exits_4(self, capsys):
        code, _, err = run(
            capsys, "apply", "--grammar", NE_VERB, "--format", "paths", "--limit", "0",
            "Ne lui dis pas",
        )
        assert code == 4
        assert "--limit" in err

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_long_sentence_overflow_exits_5(self, capsys, tmp_path):
        grammar = tmp_path / "mot_star.json"
        grammar.write_text(json.dumps(CYCLIC_GRAMMAR), encoding="utf-8")
        code, out, err = run(
            capsys, "apply", "--format", "paths", "--limit", "10", "--grammar", str(grammar),
            LONG_TEXT,
        )
        assert code == 5
        assert out == ""
        assert "more than 10 paths" in err

    def test_missing_grammar_flag_exits_4(self, capsys):
        code, _, err = run(capsys, "apply", "Ne lui dis pas")
        assert code == 4

    def test_sequential_differs_from_union(self, capsys):
        # applied one after another the two grammars wipe the lattice (the
        # first alone wrongly rejects the correct tagging); combined with a
        # shared initial/final state they keep it
        code, out, _ = run(
            capsys, "apply", "--sequential",
            "--grammar", NE_VERB, "--grammar", NE_LUI,
            "--format", "paths", "Ne lui dis pas",
        )
        assert code == 3
        code, out, _ = run(
            capsys, "apply",
            "--grammar", NE_VERB, "--grammar", NE_LUI,
            "--format", "paths", "Ne lui dis pas",
        )
        assert code == 0
        assert "<ne XI> <lui PRO:3s> <dire V:Y2s> <pas ADV>" in out

    def test_dot_round_trips_through_serializer(self, capsys, categories):
        from locgram.lattice import from_json, to_dot

        code, json_out, _ = run(capsys, "apply", "--grammar", NE_VERB, "Ne lui dis pas")
        assert code == 0
        code, dot_out, _ = run(
            capsys, "apply", "--grammar", NE_VERB, "--format", "dot", "Ne lui dis pas"
        )
        assert code == 0
        assert to_dot(from_json(json_out, categories)) == dot_out


class TestCheck:
    def test_violation_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", "--grammar", NE_VERB, fixtures.corpus_path())
        assert code == 1
        assert out.startswith("SILENCE s1 ")

    def test_combination_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "check", "--grammar", NE_VERB, "--grammar", NE_LUI, fixtures.corpus_path()
        )
        assert code == 0
        assert out == ""

    def test_empty_corpus_exits_0(self, capsys, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("# nothing\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "--grammar", NE_VERB, str(corpus))
        assert code == 0

    def test_structured_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "--grammar", NE_VERB, "--format", "report", fixtures.corpus_path()
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"][0]["sentence"] == "s1"

    def test_malformed_corpus_exits_4(self, capsys, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("T: Ne lui dis pas\n", encoding="utf-8")
        code, _, _ = run(capsys, "check", "--grammar", NE_VERB, str(corpus))
        assert code == 4

    def test_broken_gold_tag_is_a_corpus_error(self, capsys, tmp_path):
        corpus = tmp_path / "broken.txt"
        corpus.write_text(
            "T: Ne lui dis pas\nG: <ne XI> <lui PRO:3ms <dire V:P3s> <pas ADV>\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "check", "--grammar", NE_VERB, str(corpus))
        assert code == 0
        assert out.startswith("CORPUS-ERROR s1 ")

    def test_bare_word_in_gold_is_named(self, capsys, tmp_path):
        # bare text in a gold line is a separator or nothing: the message
        # names the piece, not a lexicon mismatch of its letters
        corpus = tmp_path / "bare.txt"
        corpus.write_text(
            "T: Ne lui dis pas\nG: <ne XI> lui <dire V:Y2s> <pas ADV>\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "check", "--grammar", NE_VERB, str(corpus))
        assert code == 0
        assert out.startswith("CORPUS-ERROR s1 ") and "'lui'" in out
        assert "not admitted" not in out

    def test_unknown_word_is_named_as_written_at_its_position(self, capsys, tmp_path):
        # a first word's folded capital is for lookup only; the position
        # counts separators
        corpus = tmp_path / "unknown.txt"
        corpus.write_text(
            "T: Xyzzy pas\nG: <pas ADV>\n"
            "T: - Xyzzy\nG: - <pas ADV>\n"
            "T: Il traverse le pont\nG: <il PRO:3ms>\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "check", "--grammar", NE_VERB, str(corpus))
        assert code == 0
        assert out == (
            "CORPUS-ERROR s1 unknown word 'Xyzzy' at position 0\n"
            "CORPUS-ERROR s2 unknown word 'Xyzzy' at position 1\n"
            "CORPUS-ERROR s3 unknown word 'pont' at position 3\n"
        )


class TestExitCodes:
    def test_internal_error_exits_6(self, capsys, monkeypatch):
        def crash(g, l):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "filter", crash)
        code, out, err = run(capsys, "apply", "--grammar", NE_VERB, "Ne lui dis pas")
        assert code == 6
        assert out == ""
        assert "internal error: RuntimeError('boom')" in err
        assert "Traceback" in err

    def test_internal_error_in_check_exits_6(self, capsys, monkeypatch):
        # a crash while reading a sentence is no corpus error
        def crash(tokens, lexicon):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "build_initial_lattice", crash)
        code, out, err = run(capsys, "check", "--grammar", NE_VERB, fixtures.corpus_path())
        assert code == 6
        assert out == ""
        assert "internal error" in err

    def test_closed_stdout_exits_141_quietly(self, capsys, monkeypatch, tmp_path):
        # what a reader that exits early (``| head``) leaves: print raises
        class ClosedPipe:
            def __init__(self, file):
                self.fileno = file.fileno

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with open(tmp_path / "stdout", "w") as file:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(file))
            code = main(["tag", "--format", "lattice", "Ne lui dis pas"])
        assert code == 141
        assert capsys.readouterr().err == ""
        assert (tmp_path / "stdout").read_text() == ""

    def test_directory_as_grammar_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "apply", "--grammar", str(tmp_path), "Ne lui dis pas")
        assert code == 4
        assert err.startswith("error: ")

    def test_string_for_grammar_finals_exits_4(self, capsys, tmp_path):
        # read as the finals "a" and "b", this grammar would be valid
        path = tmp_path / "finals.json"
        path.write_text(
            json.dumps(
                {
                    "name": "g",
                    "states": ["a", "b", "ab"],
                    "initial": "a",
                    "finals": "ab",
                    "transitions": [
                        {"from": "a", "to": "b", "in": "ne", "out": "<XI>"},
                        {"from": "a", "to": "ab", "in": "lui", "out": "<PRO>"},
                        {"from": "ab", "to": "b", "in": "dis", "out": "<V>"},
                    ],
                }
            )
        )
        code, out, err = run(capsys, "apply", "--grammar", str(path), "Ne lui dis pas")
        assert (code, out) == (4, "")
        assert "field 'finals' must be a JSON array" in err

    def test_bool_grammar_state_exits_4(self, capsys, tmp_path):
        # ``true == 1``: read as the state 1, the chain <V> pas would end in a pas loop
        path = tmp_path / "bool_state.json"
        path.write_text(
            json.dumps(
                {
                    "name": "g",
                    "states": [0, 1, True],
                    "initial": 0,
                    "finals": [True],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "<V>", "out": "<V>"},
                        {"from": 1, "to": True, "in": "pas", "out": "<ADV>"},
                    ],
                }
            )
        )
        code, out, err = run(capsys, "apply", "--grammar", str(path), "Ne lui dis pas")
        assert (code, out) == (4, "")
        assert "integers or strings" in err

    def test_grammar_states_that_print_alike_exit_4(self, capsys, tmp_path):
        # to_dot would draw the states 1 and "1" as one node
        path = tmp_path / "alike.json"
        path.write_text(
            json.dumps(
                {
                    "name": "g",
                    "states": [0, 1, "1"],
                    "initial": 0,
                    "finals": [1, "1"],
                    "transitions": [
                        {"from": 0, "to": 1, "in": "<V>", "out": "<V>"},
                        {"from": 0, "to": "1", "in": "pas", "out": "<ADV>"},
                    ],
                }
            )
        )
        code, out, err = run(capsys, "apply", "--grammar", str(path), "Ne lui dis pas")
        assert (code, out) == (4, "")
        assert "print alike" in err

    def test_user_lexicon_with_a_repeated_bad_tail_exits_4(self, capsys, tmp_path):
        # the bad tail's parse is never kept, so its first line is the one named
        path = tmp_path / "bad.dic"
        path.write_text("le,le.DET:ms\nsuis,être.V:P12s\nla,le.DET:fs\nfais,faire.V:P12s\n", encoding="utf-8")
        code, out, err = run(capsys, "tag", "--lexicon", str(path), "le")
        assert (code, out) == (4, "")
        assert err.startswith("error: line 2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            ("grammar", "parse_incomplete_tag", ("apply", "--grammar", NE_VERB, "Ne lui dis pas")),
            ("lexicon", "parse_category", ("tag", "Ne lui dis pas")),
        ],
        ids=["grammar-label", "lexicon-category"],
    )
    def test_fault_in_an_input_parser_exits_6(self, capsys, monkeypatch, module, name, argv):
        # only malformed notation is malformed input; any other exception is a fault
        def crash(*args):
            raise KeyError("internal fault")

        monkeypatch.setattr(importlib.import_module(f"locgram.{module}"), name, crash)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (6, "")
        assert "internal error: KeyError('internal fault')" in err

    def test_lone_separator_in_user_lexicon_exits_4(self, capsys, tmp_path):
        path = tmp_path / "sep.dic"
        path.write_text("a,a.N\nb,b.N\n-,moins.ADV\n", encoding="utf-8")
        code, out, err = run(capsys, "tag", "--lexicon", str(path), "a - b")
        assert (code, out) == (4, "")
        assert err == "error: line 3: surface '-' is a separator, never looked up\n"

    def test_directory_as_corpus_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--grammar", NE_VERB, str(tmp_path))
        assert code == 4
        assert err.startswith("error: ")


# Bytes the input mutations insert: JSON and lexicon punctuation, tag
# brackets, digits, letters, and the halves of a two-byte UTF-8 character
_FUZZ_BYTES = b'{}[]<>:;,.="\'\\-+#| \n019aeAZ\xc3\xa9\xff'


def _mutate(rng, data: bytes) -> bytes:
    """One to three edits: delete, insert, overwrite or duplicate a few
    bytes, swap two lines, or cut the rest off."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(1, 8))
        kind = rng.randrange(6)
        if kind == 0:
            data = data[:i] + data[j:]
        elif kind == 1:
            data = data[:i] + bytes(rng.choices(_FUZZ_BYTES, k=rng.randint(1, 3))) + data[i:]
        elif kind == 2:
            data = data[:i] + bytes(rng.choices(_FUZZ_BYTES, k=j - i)) + data[j:]
        elif kind == 3:
            data = data[:j] + data[i:j] + data[j:]
        elif kind == 4:
            lines = data.split(b"\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            data = b"\n".join(lines)
        else:
            data = data[:i]
    return data


_FUZZ_VALUES = [0, -1, 7, 1.5, True, None, "", "x", "<", "<ne XI>", "-", [], [0], {}, {"from": 0}]


def _mutate_document(rng, text: str) -> str:
    """A JSON document with one member or element dropped or given a
    value of another kind."""
    doc = json.loads(text)
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(slots)
    if rng.random() < 0.3:
        del node[key]
    else:
        node[key] = rng.choice(_FUZZ_VALUES)
    return json.dumps(doc, ensure_ascii=False)


_FUZZ_CHARS = _FUZZ_BYTES.decode("utf-8", "ignore")  # the same, whole characters only


def _edit_characters(rng, text: str) -> str:
    """One to three characters deleted, inserted or overwritten."""
    for _ in range(rng.randint(1, 3)):
        i, kind = rng.randrange(len(text) + 1), rng.randrange(3)
        text = text[:i] + (rng.choice(_FUZZ_CHARS) if kind else "") + text[i + (kind != 1) :]
    return text


class TestExitCodeFuzz:
    """Seeded mutations of the bundled input files: every run ends in a
    verdict or an input error, never in a crash."""

    def test_character_edits_never_crash(self, capsys, tmp_path):
        # the edits keep a file valid UTF-8, so they reach past the decoder
        # into each reader; the texts hold only words of the bundled lexicon
        rng = random.Random(0)
        bundled = {
            "categories": fixtures.categories_path(),
            "lexicon": fixtures.lexicon_path(),
            "ne-verb": NE_VERB,
            "subject-inversion": fixtures.grammar_path("subject-inversion"),
            "corpus": fixtures.corpus_path(),
        }
        texts = ["Ne lui dis pas", CONFIRM_CHAIN, "Ne fait-il les comptes que pour rendre service ?"]
        codes = []
        for trial in range(300):
            name, source = rng.choice(list(bundled.items()))
            edited = tmp_path / f"{trial}-{Path(source).name}"
            edited.write_text(_edit_characters(rng, Path(source).read_text("utf-8")), "utf-8")
            files = {**bundled, name: str(edited)}
            lexicon = ["--categories", files["categories"], "--lexicon", files["lexicon"]]
            grammars = [*lexicon, "--grammar", files["ne-verb"], "--grammar", files["subject-inversion"]]
            text = rng.choice(texts)
            commands = [
                ["tag", *lexicon, text],
                ["apply", *grammars, text],
                ["apply", *grammars, "--sequential", "--format", "paths", text],
                ["check", *grammars, files["corpus"]],
            ]
            argv = rng.choice([c for c in commands if str(edited) in c])  # one that reads the edit
            code, _, err = run(capsys, *argv)
            assert 0 <= code <= 4 and "internal error" not in err, (argv, edited.read_text("utf-8"), err)
            codes.append(code)
        assert {0, 1, 4} <= set(codes)

    def test_mutated_inputs_never_crash(self, capsys, tmp_path):
        rng = random.Random(0)
        grammar_names = sorted(fixtures.GRAMMAR_FILES)
        texts = ["Ne lui dis pas", CONFIRM_CHAIN, "Il traverse le chemin de fer."]
        codes = []
        for trial in range(300):
            target = ["grammar", "lexicon", "categories", "corpus"][trial % 4]
            grammar = fixtures.grammar_path(rng.choice(grammar_names))
            source = {
                "grammar": grammar,
                "lexicon": fixtures.lexicon_path(),
                "categories": fixtures.categories_path(),
                "corpus": fixtures.corpus_path(),
            }[target]
            mutated = tmp_path / f"{trial}-{Path(source).name}"
            mutated.write_bytes(_mutate(rng, Path(source).read_bytes()))
            text = rng.choice(texts)
            if target == "grammar":
                grammar = str(mutated)
            inputs = [f"--{target}", str(mutated)] if target in ("lexicon", "categories") else []
            corpus = str(mutated) if target == "corpus" else fixtures.corpus_path()
            commands = [["check", *inputs, "--grammar", grammar, corpus]]
            if target != "corpus":
                commands.append(["apply", *inputs, "--grammar", grammar, "--format", "paths", text])
                # the oracle enumerates every path: a short text keeps it quick
                commands.append(["diff-oracle", *inputs, "--grammar", grammar, "Ne lui dis pas"])
            if inputs:
                commands.append(["tag", *inputs, "--format", "lattice", text])
            for argv in commands:
                code, _, err = run(capsys, *argv)
                assert code in {0, 1, 2, 3, 4}, (argv, mutated.read_bytes(), err)
                assert "Traceback" not in err, (argv, err)
                codes.append(code)
        # the mutations reach past the readers: verdicts and input errors both occur
        assert {0, 4} <= set(codes)

    def test_mutated_lattice_documents_are_read_or_rejected(self, lattices, grammars, categories):
        rng = random.Random(0)
        filtered = engine.filter(grammars["de-ce-que-chain"], lattices["confirm-chain"])
        documents = [to_json(l) for l in [*lattices.values(), filtered]]
        # a one-edge document that declares none of its states
        edge = {"from": 0, "to": 1, "surface": "-", "tag": "-"}
        documents.append(json.dumps({"states": [], "initial": 0, "final": 1, "edges": [edge]}))
        outcomes = set()
        for trial in range(400):
            document = rng.choice(documents)
            if trial % 2:
                document = _mutate(rng, document.encode("utf-8")).decode("utf-8", "replace")
            else:
                document = _mutate_document(rng, document)
            try:
                outcomes.add(type(from_json(document, categories)))
            except InputError:
                outcomes.add(InputError)
        assert outcomes == {Lattice, InputError}


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [("bogus",), (), ("apply", "--limit", "abc", "x"), ("tag", "--lexicon", "", "Ne lui dis pas")],
        ids=["unknown-command", "no-command", "non-integer-limit", "empty-lexicon-path"],
    )
    def test_usage_error_exits_4(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("tag", "--lexicon", "", "Ne lui dis pas"), "--lexicon"),
            (("tag", "--categories", "", "Ne lui dis pas"), "--categories"),
            (("apply", "--grammar", "", "Ne lui dis pas"), "--grammar"),
            (("check", "--grammar", NE_VERB, ""), "the corpus argument"),
        ],
        ids=["lexicon", "categories", "grammar", "corpus"],
    )
    def test_empty_file_name_is_named(self, capsys, argv, named):
        # Path('') is the current directory: the error used to be
        # "[Errno 21] Is a directory: '.'", naming no flag
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == f"error: {named} is empty; it must name a file\n"

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "diff-oracle" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("tag", "--format", "report", "Ne lui dis pas"),
            ("check", "--grammar", NE_VERB, "--format", "dot", fixtures.corpus_path()),
            ("tag", "--grammar", NE_VERB, "Ne lui dis pas"),
            ("check", "--grammar", NE_VERB, "--limit", "5", fixtures.corpus_path()),
            ("apply", "--grammar", NE_VERB, "--seed", "1", "Ne lui dis pas"),
        ],
        ids=["tag-report", "check-dot", "tag-grammar", "check-limit", "apply-seed"],
    )
    def test_option_the_command_does_not_read_exits_4(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "error: " in err and "Traceback" not in err


class TestEncoding:
    def test_latin1_lexicon_exits_4(self, capsys, tmp_path):
        lexicon = tmp_path / "latin1.dic"
        lexicon.write_text("été,été.N:ms\n", encoding="latin-1")
        code, out, err = run(capsys, "tag", "--lexicon", str(lexicon), "été")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_latin1_grammar_exits_4(self, capsys, tmp_path):
        grammar = tmp_path / "latin1.json"
        grammar.write_text(
            json.dumps(
                {
                    "name": "é",
                    "states": [0, 1],
                    "initial": 0,
                    "finals": [1],
                    "transitions": [{"from": 0, "to": 1, "in": "ne", "out": "<XI>"}],
                },
                ensure_ascii=False,
            ),
            encoding="latin-1",
        )
        code, out, err = run(capsys, "apply", "--grammar", str(grammar), "Ne lui dis pas")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1


class TestDiffOracle:
    def test_fixtures_equal(self, capsys):
        code, out, _ = run(capsys, "diff-oracle", "--grammar", CHAIN, CONFIRM_CHAIN)
        assert code == 0
        assert out.strip() == "EQUAL"

    def test_limit_exceeded_exits_5(self, capsys):
        code, _, err = run(
            capsys, "diff-oracle", "--grammar", CHAIN, "--limit", "10", CONFIRM_CHAIN
        )
        assert code == 5

    def test_seed_mode_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "diff-oracle", "--seed", "7")
        code2, out2, _ = run(capsys, "diff-oracle", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed=7" in out1

    def test_needs_text_or_seed(self, capsys):
        code, _, _ = run(capsys, "diff-oracle")
        assert code == 4

    @pytest.mark.parametrize(
        "inputs",
        [
            ("--grammar", "/nonexistent.json", "--lexicon", "/nonexistent.dic", "bogus text"),
            ("--grammar", NE_VERB),
            ("--lexicon", fixtures.lexicon_path()),
            ("--categories", fixtures.categories_path()),
            ("Ne lui dis pas",),
            ("",),
        ],
        ids=["all", "grammar", "lexicon", "categories", "text", "empty-text"],
    )
    def test_seed_takes_no_inputs(self, capsys, inputs):
        code, out, err = run(capsys, "diff-oracle", "--seed", "7", *inputs)
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_takes_limit(self, capsys):
        code, out, _ = run(capsys, "diff-oracle", "--seed", "7", "--limit", "2000")
        assert (code, out.strip()) == (0, "EQUAL (50 randomized instances, seed=7)")

    @pytest.mark.parametrize(
        "argv",
        [("--grammar", CHAIN, CONFIRM_CHAIN), ("--seed", "0")],
        ids=["text", "seed"],
    )
    def test_mismatch_exits_1(self, capsys, monkeypatch, argv):
        # an oracle whose language is the empty sequence alone
        monkeypatch.setattr(engine, "filter_oracle", lambda g, l, limit: Lattice.build(0, 0, []))
        code, out, err = run(capsys, "diff-oracle", *argv)
        assert code == 1
        assert out.startswith("MISMATCH") and err == ""

    def test_randgen_is_imported_only_for_seed(self):
        # the random instances are all that needs it; no other command pays for its import
        probe = "import sys, locgram.cli; print('locgram.randgen' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, b"False\n"), proc.stderr


class TestStartup:
    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # value types are named tuples, so a CLI process pays for no dataclass
        # code generation and none of the modules ``dataclasses`` pulls in
        probe = "import locgram.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tag", "Je ne me le suis pas fait confirmer sur le moment"),
            ("tag", "--format", "lattice", "Il traverse le chemin de fer."),
            ("apply", "--grammar", CHAIN, "--format", "paths", CONFIRM_CHAIN),
            ("apply", "--grammar", NE_VERB, "--format", "dot", "Ne lui dis pas"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestBundledData:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--lexicon", fixtures.lexicon_path()),
            ("--categories", fixtures.categories_path()),
            ("--lexicon", fixtures.lexicon_path(), "--categories", fixtures.categories_path()),
        ],
        ids=["lexicon", "categories", "both"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("tag", "--format", "lattice", CONFIRM_CHAIN),
            ("apply", "--grammar", CHAIN, "--format", "paths", CONFIRM_CHAIN),
        ],
        ids=["tag", "apply"],
    )
    def test_flags_naming_the_bundled_files_change_nothing(self, capsys, flags, argv):
        # one loading path: a missing flag reads the bundled file like a given one
        expected = run(capsys, *argv)
        command, *rest = argv
        assert run(capsys, command, *flags, *rest) == expected
        assert expected[0] == 0 and expected[1]


class TestBenchmarkCatalogue:
    def test_outputs_match_committed_digests(self, capsys, monkeypatch):
        """Every ``cli-edit-loop`` command keeps its exit code and stdout
        digest in ``perfbench/cli_expected.json``."""
        perfbench = ROOT / "perfbench"
        spec = importlib.util.spec_from_file_location("perfbench_gen", perfbench / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
        spec.loader.exec_module(gen)
        expected = json.loads((perfbench / "cli_expected.json").read_text(encoding="utf-8"))
        monkeypatch.chdir(ROOT)
        mismatches = []
        for argv in gen.cli_catalogue():
            code, out, _ = run(capsys, *argv)
            want = expected[gen.cli_key(argv)]
            got = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
            if got != want:
                mismatches.append((argv, got, want))
        assert mismatches == []


class TestCommittedScriptOutputs:
    @staticmethod
    def check(script, **env):
        """Run with its default arguments, the script prints its committed
        ``scripts/<script>.expected`` byte for byte."""
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT, **env}
        proc = subprocess.run(
            [sys.executable, f"scripts/{script}.py"], cwd=ROOT, env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert proc.stdout == (ROOT / "scripts" / f"{script}.expected").read_bytes()

    @pytest.mark.parametrize("script", ["output_digest", "show_worked_examples"])
    def test_stdout_matches_expected_file(self, script):
        self.check(script)

    def test_digests_under_another_hash_seed(self):
        # no output may follow set or dict order of hashed strings
        self.check("output_digest", PYTHONHASHSEED="7")
