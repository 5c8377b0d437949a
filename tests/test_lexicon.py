import importlib.util
import random
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from locgram import build_initial_lattice, fixtures, lookup_forms, tokenize
from locgram.errors import LexiconFormatError, UnknownWordError
from locgram.lattice import all_paths, count_paths, iter_paths
from locgram.lexicon import LexiconEntry, load_categories, load_lexicon
from locgram.tags import SEPARATOR_CHARS, Separator
from conftest import SENTENCES

ROOT = Path(__file__).resolve().parent.parent


def generated_lexicon_lines(n_words: int) -> list[str]:
    """A ``perfbench/gen.py`` lexicon: the bundled entries plus ``n_words``
    synthetic surfaces.  ``gen`` imports nothing from locgram."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look it up
    try:
        spec.loader.exec_module(gen)
        return gen.make_language(random.Random("lexicon:1"), n_words, n_words // 20).lines
    finally:
        del sys.modules[spec.name]


class TestLoadLexicon:
    def test_alternatives_expand(self, lexicon):
        tags = {t.notation() for t in lexicon.lookup("suis")}
        assert tags == {"<être V:P1s>", "<suivre V:P1s>", "<suivre V:P2s>", "<suivre V:Y2s>"}

    def test_listing_entries_for_fait(self, lexicon):
        tags = {t.notation() for t in lexicon.lookup("fait")}
        assert {"<faire V:Kms>", "<fait N:ms>"} <= tags
        assert len(tags) >= 4

    def test_compound_entry(self, lexicon):
        entries = lexicon.compounds["sur"]
        (entry,) = [e for e in entries if e.surface == "sur le moment"]
        assert entry.lemma == "sur/le/moment"
        assert entry.category.main == "ADV"
        assert entry.category.subcats == ("PDETC",)

    def test_malformed_line_reports_number(self, categories):
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_lexicon(["suis,être.V:P1s", "no-dot-here"], categories)

    def test_bad_feature_reports_number(self, categories):
        with pytest.raises(LexiconFormatError, match="line 1"):
            load_lexicon(["suis,être.V:"], categories)

    def test_duplicates_dropped(self, categories):
        # "DET:sm" is another code tail, parsed on its own, but the same entry
        for second in ("le,le.DET:ms", "le,le.DET:sm"):
            lex = load_lexicon(["le,le.DET:ms", second], categories)
            assert len(lex.simple["le"]) == 1

    @pytest.mark.parametrize("source", ["bundled", "generated"])
    def test_each_line_loads_as_if_alone(self, categories, source):
        # lines sharing a code tail share its parse; each entry must still
        # be the one its own line makes
        if source == "bundled":
            with open(fixtures.lexicon_path(), encoding="utf-8") as f:
                lines = f.read().splitlines()
        else:
            lines = generated_lexicon_lines(2000)
        expected: dict[str, dict] = {"simple": {}, "compounds": {}}
        for line in lines:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            alone = load_lexicon([line], categories)
            for name in expected:
                for key, (entry,) in getattr(alone, name).items():
                    entries = expected[name].setdefault(key, [])
                    if entry not in entries:
                        entries.append(entry)
        lex = load_lexicon(lines, categories)
        assert expected["simple"] and expected["compounds"]
        assert lex.simple == {k: tuple(v) for k, v in expected["simple"].items()}
        assert lex.compounds == {k: tuple(v) for k, v in expected["compounds"].items()}

    def test_lines_with_one_code_tail_share_its_parse(self, categories):
        lex = load_lexicon(["suis,être.V:P1s:P2s", "fais,faire.V:P1s:P2s"], categories)
        (suis,), (fais,) = lex.simple["suis"], lex.simple["fais"]
        assert suis.category is fais.category
        assert suis.alternatives is fais.alternatives

    def test_each_load_reads_its_own_inventory(self):
        # a code tail's parse must not outlive the load that made it
        line = "suis,être.V:P1s"
        (entry,) = load_lexicon([line], ("V", "N")).simple["suis"]
        assert entry.category.main == "V"
        with pytest.raises(LexiconFormatError, match="^line 1: unknown main category 'V'"):
            load_lexicon([line], ("N",))
        assert load_lexicon([line], ("V",)).simple["suis"] == (entry,)

    @pytest.mark.parametrize(
        "tail, message",
        [("V:P12s", "duplicate person code"), ("XYZ:ms", "unknown main category 'XYZ'")],
        ids=["feature", "category"],
    )
    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (["le,le.DET:ms", "a,a.{tail}", "la,le.DET:fs", "b,b.{tail}"], 2),
            (["le,le.DET:ms", "suis,être.V:P1s", "a,a.{tail}", "b,b.{tail}"], 3),
        ],
        ids=["repeated", "first-seen-late"],
    )
    def test_bad_code_tail_reports_its_first_line(self, categories, tail, message, lines, line_no):
        with pytest.raises(LexiconFormatError, match=f"^line {line_no}: {message}"):
            load_lexicon([line.format(tail=tail) for line in lines], categories)

    def test_load_builds_compounds_only(self, categories, monkeypatch):
        # a simple surface's entries are built on its first lookup, and only its own
        lines = generated_lexicon_lines(2000)
        compound_lines = sum(" " in line.partition(",")[0] for line in lines)
        surface_lines = sum(line.startswith("le,") for line in lines)
        built = []
        new = LexiconEntry.__new__
        monkeypatch.setattr(LexiconEntry, "__new__", lambda cls, *a: built.append(1) or new(cls, *a))
        lex = load_lexicon(lines, categories)
        at_load = len(built)
        assert at_load <= compound_lines < len(lines) // 10
        assert lex.lookup("le")
        assert len(built) == at_load + surface_lines
        lex.lookup("le")
        assert len(built) == at_load + surface_lines

    def test_tables_read_alike_before_and_after_lookups(self, categories):
        with open(fixtures.lexicon_path(), encoding="utf-8") as f:
            lines = f.read().splitlines()
        # key order of the eager load: each surface or first token where it first appears
        order: dict[str, list] = {"simple": [], "compounds": []}
        for line in lines:
            if line.strip() and not line.lstrip().startswith("#"):
                alone = load_lexicon([line], categories)
                for name, keys in order.items():
                    keys += [k for k in getattr(alone, name) if k not in keys]
        fresh, used = (load_lexicon(lines, categories) for _ in range(2))
        for text in SENTENCES.values():
            build_initial_lattice(tokenize(text), used)
        assert used == fresh
        for name, keys in order.items():
            assert list(getattr(fresh, name)) == list(getattr(used, name)) == keys
            assert dict(getattr(fresh, name)) == dict(getattr(used, name))
        assert "sur" in used.simple and "pont" not in used.simple
        assert used.simple.get("pont") is None
        assert "'suis': (LexiconEntry(surface='suis'" in repr(fresh)

    def test_threads_racing_on_first_lookups_agree(self, categories):
        lines = generated_lexicon_lines(500)
        shared, alone = (load_lexicon(lines, categories) for _ in range(2))
        surfaces = list(alone.simple)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append([shared.lookup(s) for s in surfaces]))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[alone.lookup(s) for s in surfaces]] * len(threads)
        assert shared == alone

    @pytest.mark.parametrize(
        "last, message",
        [("zzz,zzz.V:P12s", "duplicate person code"), ("le,le.", "expected")],
        ids=["unseen-surface", "known-surface"],
    )
    def test_last_line_checked_at_load(self, categories, last, message):
        # no lookup reaches the last line, yet the load reports it
        lines = [*generated_lexicon_lines(200), last]
        with pytest.raises(LexiconFormatError, match=f"^line {len(lines)}: {message}"):
            load_lexicon(lines, categories)

    @pytest.mark.parametrize("surface", ["-", " ’ ", "…"])
    def test_lone_separator_surface_rejected(self, categories, surface):
        # ``tokenize`` makes the character a separator edge, so the entry
        # would never be read; a longer surface over separators is a compound
        lines = ["le,le.DET:ms", f"{surface},moins.ADV", "-t-il,-t-il.PRO:3ms"]
        with pytest.raises(LexiconFormatError, match=f"^line 2: surface '{surface.strip()}' is a separator"):
            load_lexicon(lines, categories)
        assert load_lexicon([lines[0], lines[2]], categories).compounds["-"]

    def test_blank_and_comment_lines_skipped(self, categories):
        lex = load_lexicon(["", "# entry", "le,le.DET:ms"], categories)
        assert len(lex.simple["le"]) == 1

    def test_repeated_codes_keep_the_first_in_order(self):
        assert load_categories(["V", "N", "V", "# x", "A"]) == ("V", "N", "A")

    def test_empty_inventory_rejected(self):
        with pytest.raises(LexiconFormatError):
            load_categories(["# nothing"])


class TestTokenize:
    def test_hyphen_splits(self):
        assert tokenize("Ne fait-il les comptes") == ["Ne", "fait", "-", "il", "les", "comptes"]

    def test_empty(self):
        assert tokenize("") == []
        assert lookup_forms([]) == []

    def test_plain_words(self):
        assert tokenize("pomme  de\tterre\ncuite") == ["pomme", "de", "terre", "cuite"]

    def test_apostrophe_is_separator(self):
        assert tokenize("l'expérience") == ["l", "'", "expérience"]

    def test_initial_capital_folded_for_lookup_only(self):
        tokens = tokenize("Je ne")
        assert lookup_forms(tokens) == ["je", "ne"]
        assert tokens == ["Je", "ne"]

    def test_fold_applies_to_first_word_only(self):
        # the fold skips leading separators and stops at the first word
        assert lookup_forms(tokenize("- Je Ne")) == ["-", "je", "Ne"]

    @given(st.text(alphabet="aAéÉz \t\n" + SEPARATOR_CHARS))
    def test_tokens_and_lookup_forms(self, text):
        tokens = tokenize(text)
        assert "".join(tokens) == "".join(text.split())
        for token in tokens:
            one_separator = len(token) == 1 and token in SEPARATOR_CHARS
            assert one_separator or token.split() == [token] and not set(token) & set(SEPARATOR_CHARS)
        forms = lookup_forms(tokens)
        changed = [i for i, (t, f) in enumerate(zip(tokens, forms)) if t != f]
        words = [i for i, t in enumerate(tokens) if t not in SEPARATOR_CHARS]
        assert len(forms) == len(tokens) and changed in ([], words[:1])
        for i in changed:
            assert forms[i][1:] == tokens[i][1:] and forms[i][0] == tokens[i][0].lower()


class TestBuildInitialLattice:
    def test_railway_has_compound_and_simple_branches(self, lexicon, lattices):
        l = lattices["railway"]
        compound = [e for e in l.edges if getattr(e.label, "compound", False)]
        assert len(compound) == 1
        assert compound[0].label.lemma == "chemin/de/fer"
        # the simple reading of the same span is present as well
        assert any(
            not isinstance(e.label, Separator)
            and not e.label.compound
            and e.label.surface == "chemin"
            for e in l.edges
        )

    def test_railway_traverse_is_noun_and_verb(self, lattices):
        mains = {
            e.label.category.main
            for e in lattices["railway"].edges
            if not isinstance(e.label, Separator) and e.label.surface == "traverse"
        }
        assert mains == {"N", "V"}

    def test_period_is_separator_edge(self, lattices):
        assert any(e.label == Separator(".") for e in lattices["railway"].edges)

    def test_repeated_word_shares_labels_within_one_call(self, lexicon):
        text = "Je ne me le suis pas fait confirmer sur le moment"
        l = build_initial_lattice(tokenize(text), lexicon)

        def span_labels(lattice, src, dst):
            return [e.label for e in lattice.edges_by_source[src] if e.dst == dst]

        first, second = span_labels(l, 3, 4), span_labels(l, 9, 10)
        assert len(first) > 1
        assert all(a is b for a, b in zip(first, second, strict=True))
        # kept for the lexicon's lifetime: a later call shares them too
        again = build_initial_lattice(tokenize(text), lexicon)
        assert all(a is b for a, b in zip(first, span_labels(again, 3, 4), strict=True))

    def test_second_call_shares_every_analysis(self, lexicon):
        for text in SENTENCES.values():
            first, second = (build_initial_lattice(tokenize(text), lexicon) for _ in range(2))
            assert first == second
            for a, b in zip(first.edges, second.edges, strict=True):
                assert a.label is b.label, text

    def test_compound_labels_shared_across_calls(self, lexicon):
        def compound_labels():
            l = build_initial_lattice(tokenize(SENTENCES["railway"]), lexicon)
            return [e.label for e in l.edges if getattr(e.label, "compound", False)]

        first, second = compound_labels(), compound_labels()
        assert [label.lemma for label in first] == ["chemin/de/fer"]
        assert first[0] is second[0]

    def test_unknown_surface_is_not_kept(self, lexicon):
        known = lexicon.lookup("fait")
        size = len(lexicon._labels)
        for surface in ("pont", "Fait", "fai", ""):
            assert lexicon.lookup(surface) == ()
        with pytest.raises(UnknownWordError):
            build_initial_lattice(tokenize("fait pont"), lexicon)
        assert len(lexicon._labels) == size
        assert lexicon.lookup("fait") is known

    def test_unknown_word_aborts_with_token(self, lexicon):
        with pytest.raises(UnknownWordError) as info:
            build_initial_lattice(tokenize("Il traverse le pont"), lexicon)
        assert (info.value.word, info.value.position) == ("pont", 3)

    def test_empty_text_single_state(self, lexicon):
        l = build_initial_lattice([], lexicon)
        assert l.n_states == 1
        assert l.initial == l.final
        assert list(iter_paths(l)) == [()]

    def test_path_surfaces_reproduce_tokens(self, lexicon, lattices):
        from conftest import SENTENCES

        from locgram.lexicon import _TOKEN_RE

        for key, text in SENTENCES.items():
            expected = lookup_forms(tokenize(text))
            for path in islice(iter_paths(lattices[key]), 50):
                flat = [
                    piece
                    for e in path
                    for piece in _TOKEN_RE.findall(e.label.surface)
                ]
                assert flat == expected, key

    def test_moment_path_count_matches_per_token_product(self, lexicon, lattices):
        # independent oracle: product of per-token tag counts, plus the
        # compound branch replacing the last three tokens
        forms = lookup_forms(tokenize("Je ne me le suis pas fait confirmer sur le moment"))
        counts = [len(lexicon.lookup(f)) for f in forms]
        simple = 1
        for c in counts:
            simple *= c
        prefix = 1
        for c in counts[:-3]:
            prefix *= c
        expected = simple + prefix  # one compound alternative over the tail
        l = lattices["moment"]
        assert len(all_paths(l)) == count_paths(l) == expected

    def test_compounds_do_not_cross_separators(self, lexicon):
        l = build_initial_lattice(tokenize("sur , le moment"), lexicon)
        assert not any(getattr(e.label, "compound", False) for e in l.edges)

    def test_compound_may_start_with_a_separator(self, categories):
        lexicon = load_lexicon(
            ["vient,venir.V:P3s", "t,te.PRO:2s", "il,il.PRO:3ms", "-t-il,-t-il.PRO:3ms"], categories
        )
        l = build_initial_lattice(tokenize("vient-t-il"), lexicon)
        assert [(e.src, e.dst, e.label.notation()) for e in l.edges_by_source[1]] == [
            (1, 2, "-"),
            (1, 5, "<-t-il PRO:3ms>"),
        ]
        assert count_paths(l) == 2
