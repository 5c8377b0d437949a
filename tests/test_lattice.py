import json
import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from locgram import build_initial_lattice, lattice as lattice_module, load_lexicon, tokenize, union
from locgram.engine import _trie_lattice, filter as filter_lattice, filter_oracle
from locgram.errors import EnumerationOverflow, InputError, LatticeFormatError
from locgram.grammar import load_grammar
from locgram.lattice import (
    Lattice,
    all_paths,
    count_paths,
    from_json,
    iter_paths,
    language,
    language_equal,
    minimize,
    path_labels,
    to_dot,
    to_json,
)
from locgram.lexicon import _SEPARATORS, compound_matches, expand_entry, lookup_forms
from locgram.randgen import random_instance
from locgram.tags import Category, CompleteTag, Separator, parse_complete_tag
from conftest import LONG_TEXT, SENTENCES, assert_live, renamed, union_lattice

CATS = ("V", "N", "A", "ADV", "PRO", "DET", "PREP", "CNJS", "CNJC", "XI", "INT")


def tag(text, surface=None):
    return parse_complete_tag(text, CATS, surface=surface)


A = tag("<pomme N:fs>")
B = tag("<terre N:fs>")
C = tag("<cuire V:Kfs>", surface="cuite")
D = tag("<de PREP>")
E = tag("<et CNJC>")
F = tag("<chat N:ms>")


def test_build_rejects_cycles():
    with pytest.raises(LatticeFormatError):
        Lattice.build(0, 1, [(0, 1, A), (1, 0, B)])


def test_build_renumbers_topologically():
    l = Lattice.build("start", "end", [("start", "mid", A), ("mid", "end", B)])
    assert l.initial == 0
    assert l.final == l.n_states - 1
    assert all(e.src < e.dst for e in l.edges)


class TestEnumeratePaths:
    def test_single_edge(self):
        l = Lattice.build(0, 1, [(0, 1, A)])
        assert len(all_paths(l)) == count_paths(l) == 1

    def test_limit_sets_flag(self):
        l = Lattice.build(0, 1, [(0, 1, A), (0, 1, B), (0, 1, C)])
        with pytest.raises(EnumerationOverflow, match="more than 2 paths"):
            all_paths(l, limit=2)
        assert len(all_paths(l, limit=3)) == 3

    def test_lexicographic_order(self):
        l = Lattice.build(0, 1, [(0, 1, B), (0, 1, A)])
        assert [path_labels(p)[0] for p in iter_paths(l)] == [A, B]

    def test_long_sentence_within_recursion_limit(self, long_lattice, default_recursion_limit):
        l = long_lattice
        paths = list(islice(iter_paths(l), 10))
        assert count_paths(l) > 10
        assert len(set(paths)) == 10
        for p in paths:
            assert p[0].src == l.initial and p[-1].dst == l.final
            assert all(a.dst == b.src for a, b in zip(p, p[1:]))
        # the first path takes the first edge out of every state it meets
        first, q = [], l.initial
        while q != l.final:
            first.append(l.edges_by_source[q][0])
            q = first[-1].dst
        assert paths[0] == tuple(first)

    def test_railway_contains_both_readings(self, lattices):
        langs = language(lattices["railway"])
        assert any(any(getattr(lab, "compound", False) for lab in seq) for seq in langs)
        assert any(
            sum(1 for lab in seq if getattr(lab, "surface", "") in ("chemin", "de", "fer")) == 3
            for seq in langs
        )


def _raw_language(initial, final, edges):
    """The label sequences of the initial-to-final walks over raw
    ``(src, dst, label)`` edges, depth first; a walk never revisits a
    state, which only a cycle through live states would need."""
    found = set()
    stack = [(initial, (), {initial})]
    while stack:
        q, labels, seen = stack.pop()
        if q == final:
            found.add(labels)
        for src, dst, label in edges:
            if src == q and dst not in seen:
                stack.append((dst, labels + (label,), seen | {dst}))
    return found


@st.composite
def raw_edge_lists(draw):
    """``(initial, final, edges)``: forward edges over states 0..n-1, which
    leave states off every path and edges out of the final state, and
    maybe a dead cycle that has only in-edges, only out-edges, or neither."""
    n = draw(st.integers(1, 6))
    final = draw(st.integers(0, n - 1))
    states, labels = st.integers(0, n - 1), st.sampled_from([A, B, C, D])
    raw = draw(st.lists(st.tuples(states, states, labels), max_size=12))
    edges = [(a, b, label) for a, b, label in raw if a < b]
    cycle = [("c", 0), ("c", 1)]
    attach = draw(st.sampled_from(["no cycle", "in", "out", "none"]))
    if attach != "no cycle":
        edges += [(cycle[0], cycle[1], draw(labels)), (cycle[1], cycle[0], draw(labels))]
    if attach == "in":
        edges.append((draw(states), cycle[0], draw(labels)))
    elif attach == "out":
        edges.append((cycle[1], draw(states), draw(labels)))
    return 0, final, draw(st.permutations(edges))


def _token_path_count(text, lexicon):
    """The number of paths of ``text``'s initial lattice, by a dynamic
    program over token positions read from the lexicon alone: each token's
    analyses lead one position on, each compound's analyses to its end."""
    forms = lookup_forms(tokenize(text))
    ways = [1] + [0] * len(forms)
    for i, form in enumerate(forms):
        if form in _SEPARATORS:  # one edge, the separator itself
            ways[i + 1] += ways[i]
            continue
        ways[i + 1] += ways[i] * len(lexicon.lookup(form))
        for entry in compound_matches(forms, i, lexicon):
            ways[i + len(entry.surface_tokens)] += ways[i] * len(expand_entry(entry))
    return ways[-1]


class TestCountPaths:
    def test_equals_enumeration_on_fixtures(self, lattices, grammars):
        members = list(grammars.values())
        for key, l in lattices.items():
            for f in [l, *(filter_lattice(g, l) for g in [*members, union(members)])]:
                for x in (f, minimize(f)):
                    assert count_paths(x) == len(all_paths(x)), key

    @pytest.mark.parametrize("mode", ["general", "simple", "oii"])
    def test_equals_enumeration_on_random_instances(self, mode):
        rng = random.Random(13)
        for _ in range(150):
            l = random_instance(rng, mode=mode).lattice
            assert count_paths(l) == len(all_paths(l))

    def test_long_text_matches_token_count(self, long_lattice, lexicon, default_recursion_limit):
        assert count_paths(long_lattice) == _token_path_count(LONG_TEXT, lexicon)

    def test_fixtures_match_token_count(self, lattices, lexicon):
        for key, l in lattices.items():
            assert count_paths(l) == _token_path_count(SENTENCES[key], lexicon), key

    def test_empty_text_and_empty_language(self, lexicon):
        assert count_paths(build_initial_lattice([], lexicon)) == 1
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
        filtered = filter_lattice(g, build_initial_lattice(tokenize("Il traverse"), lexicon))
        assert filtered.is_empty_language()
        assert count_paths(filtered) == 0

    def test_counts_paths_not_taggings(self, categories):
        # identical lines are dropped, but overlapping ones give one
        # tagging twice: two parallel edges with the same label
        lexicon = load_lexicon(["vient,venir.V:P3s", "vient,venir.V:P3s:P3p"], categories)
        l = build_initial_lattice(tokenize("vient"), lexicon)
        assert count_paths(l) == 3
        assert len(language(l)) == count_paths(minimize(l)) == 2


class TestOverflow:
    def test_found_before_enumerating(self, long_lattice, monkeypatch):
        def fail(l):
            raise AssertionError("enumerated")

        monkeypatch.setattr(lattice_module, "iter_paths", fail)
        with pytest.raises(EnumerationOverflow, match="more than 10 paths"):
            all_paths(long_lattice, 10)

    def test_limit_equal_to_count_returns_every_path(self, lattices):
        l = lattices["confirm-chain"]
        paths = all_paths(l, count_paths(l))
        assert paths == tuple(iter_paths(l))
        assert len(set(paths)) == count_paths(l)


class TestTrim:
    def test_trim_is_identity_on_initial_lattices(self, lattices):
        for l in lattices.values():
            assert Lattice.build(l.initial, l.final, l.edges) == l

    def test_dead_branch_removed(self):
        l = Lattice.build(0, 2, [(0, 1, A), (1, 2, B), (0, 3, C)])
        assert l == Lattice.build(0, 2, [(0, 1, A), (1, 2, B)])
        assert l.n_states == 3
        assert len(l.edges) == 2

    def test_empty_language_reduces_to_edgeless(self):
        l = Lattice.build(0, 2, [(0, 1, A)])
        assert l.is_empty_language()
        assert (l.n_states, l.edges) == (2, ())

    @pytest.mark.parametrize(
        "cycle",
        [[(3, 4, C), (4, 3, D)], [(1, 3, C), (3, 4, D), (4, 3, D)], [(3, 4, C), (4, 3, D), (3, 1, C)]],
        ids=["isolated", "reached", "reaching"],
    )
    def test_dead_cycle_dropped(self, cycle):
        live = [(0, 1, A), (1, 2, B)]
        assert Lattice.build(0, 2, live + cycle) == Lattice.build(0, 2, live)

    def test_live_cycle_rejected(self):
        with pytest.raises(LatticeFormatError):
            Lattice.build(0, 2, [(0, 1, A), (1, 2, B), (1, 3, C), (3, 1, D)])

    @given(raw_edge_lists())
    def test_every_state_on_a_path(self, raw):
        initial, final, edges = raw
        l = Lattice.build(initial, final, edges)
        assert_live(l)
        assert set(language(l)) == _raw_language(initial, final, edges)


class TestNumbering:
    @given(raw_edge_lists(), st.randoms(use_true_random=False))
    def test_fixed_point_whatever_the_state_names(self, raw, rng):
        # ``build`` of its own output, or of its input under an injective
        # renaming of the states into ints, strings and tuples, changes nothing
        initial, final, edges = raw
        l = Lattice.build(initial, final, edges)
        assert Lattice.build(l.initial, l.final, l.edges) == l
        states = list(dict.fromkeys([initial, final, *(q for e in edges for q in e[:2])]))
        codes = rng.sample(range(100), len(states))
        name = {q: rng.choice([k, f"s{k}", ("t", k)]) for q, k in zip(states, codes)}
        assert Lattice.build(name[initial], name[final], [(name[a], name[b], lab) for a, b, lab in edges]) == l


class TestMinimize:
    def test_singleton_fixed_point(self):
        l = Lattice.build(0, 0, [])
        assert minimize(l) == l

    def test_merges_duplicate_suffixes(self):
        l = Lattice.build(
            0,
            3,
            [(0, 1, A), (0, 2, B), (1, 3, C), (2, 3, C)],
        )
        m = minimize(l)
        assert language(m) == language(l)
        assert m.n_states < l.n_states

    def test_removes_duplicate_paths(self):
        l = Lattice.build(0, 2, [(0, 1, A), (0, 1, A), (1, 2, B)])
        m = minimize(l)
        assert language(m) == language(l)
        assert len(all_paths(m)) == 1

    def test_language_preserved_on_fixtures(self, lattices):
        for key, l in lattices.items():
            assert language(minimize(l)) == language(l), key

    def test_idempotent_on_fixtures(self, lattices):
        for key, l in lattices.items():
            m = minimize(l)
            again = minimize(m)
            assert (again.n_states, len(again.edges)) == (m.n_states, len(m.edges)), key

    def test_dead_branches_are_not_followed(self):
        # dead ends: a second A-edge out of the initial state, a C-edge
        # to a state that never reaches the final one, and an edge out of
        # the final state itself; the lattice built holds none of them, so
        # minimize gives what it gives on the live edges alone
        live = [(0, 1, A), (1, 2, B)]
        l = Lattice.build(0, 2, live + [(0, 3, A), (0, 4, C), (3, 5, D), (2, 6, D)])
        assert l == Lattice.build(0, 2, live)
        assert language(minimize(l)) == language(l)

    def test_non_prefix_free_language_rejected(self):
        # a valid single-final acyclic lattice can still encode one label
        # sequence as a prefix of another; its minimal deterministic form
        # would need a final state with outgoing edges, so minimize refuses
        l = Lattice.build(0, 3, [(0, 1, A), (0, 3, A), (1, 3, B)])
        with pytest.raises(LatticeFormatError):
            minimize(l)

    def test_state_count_can_shrink_or_grow(self, lattices, grammars):
        # filtering changes the automaton size in either direction while
        # only ever shrinking the path set; minimize keeps the language
        l = lattices["confirm-chain"]
        filtered = filter_lattice(grammars["de-ce-que-chain"], l)
        m = minimize(filtered)
        assert language(m) == language(filtered)

    def test_nondeterministic_random_lattices(self):
        # randgen lattices with some edges doubled and some same-label
        # siblings added: a sibling is a new state reached by an edge's
        # label, continuing by part of that edge's target's out-edges, so
        # the language stays the same.  A state with two moves on one
        # label sends its subset through the grouping path; every other
        # state takes the singleton path.
        rng = random.Random(0)
        shapes = set()
        for k in range(150):
            l = random_instance(rng, mode=rng.choice(["general", "simple", "oii"])).lattice
            edges = list(l.edges)
            for j, e in enumerate(l.edges):
                if rng.random() < 0.1:
                    edges.append(e)
                elif rng.random() < 0.1 and e.dst != l.final:
                    sibling = ("sibling", j)
                    edges.append((e.src, sibling, e.label))
                    out = l.edges_by_source[e.dst]
                    kept = rng.sample(out, rng.randint(1, len(out)))
                    edges += [(sibling, f.dst, f.label) for f in kept]
            perturbed = Lattice.build(l.initial, l.final, edges)
            moves = [(e.src, e.label) for e in perturbed.edges]
            shapes.add(len(set(moves)) < len(moves))
            m = minimize(perturbed)
            assert language(m) == language(l), k
            assert len({(e.src, e.label) for e in m.edges}) == len(m.edges), k  # deterministic
            assert m == minimize(l), k  # canonical
        assert shapes == {True, False}

    @staticmethod
    def assert_minimal(m, l, states):
        assert language(m) == language(l)
        assert len({(e.src, e.label) for e in m.edges}) == len(m.edges)  # deterministic
        assert m.n_states == states

    def test_subset_sharing_its_smallest_member_with_a_singleton(self):
        # canonically 0 -A-> {1, 4} and 0 -B-> {1}: the subset and the
        # singleton have the same smallest member, and the subset's C-move
        # goes to {3}, whose largest member is below the subset's
        l = Lattice.build("0", "f", [
            ("0", "1", A), ("0", "x", A), ("0", "1", B), ("0", "g", E),
            ("g", "x", F), ("1", "2", C), ("2", "f", D), ("x", "f", E),
        ])
        assert [(e.src, e.dst) for e in l.edges if e.label == A] == [(0, 1), (0, 4)]
        m = minimize(l)
        self.assert_minimal(m, l, 7)
        # the same language, deterministic from the start
        dfa = Lattice.build("q", "F", [
            ("q", "a", A), ("q", "b", B), ("q", "g", E), ("a", "d", C), ("a", "F", E),
            ("b", "d", C), ("g", "e", F), ("d", "F", D), ("e", "F", E),
        ])
        assert m == minimize(dfa)

    def test_nondeterminism_reached_only_through_a_subset(self):
        # {1, 2} is reached on A; neither 1 nor 2 has two moves on one
        # label, but together they do: {3, 4} on C exists only as the
        # subset's target, and on D it reaches {5, 6}
        l = Lattice.build(0, 9, [
            (0, 1, A), (0, 2, A), (1, 3, C), (2, 4, C), (2, 7, B),
            (3, 5, D), (4, 6, D), (5, 9, E), (6, 8, F), (7, 9, B), (8, 9, B),
        ])
        m = minimize(l)
        self.assert_minimal(m, l, 6)
        dfa = Lattice.build(0, 9, [
            (0, 1, A), (1, 3, C), (1, 7, B), (3, 5, D), (5, 9, E), (5, 8, F), (7, 9, B), (8, 9, B),
        ])
        assert m == minimize(dfa)

    def test_non_prefix_free_dag_rejected_through_a_subset(self):
        # A B and A B C: the prefix shows only in the subset {2, 3}
        # reached on A, whose B-move reaches the final state and a state
        # with a C-move
        l = Lattice.build(0, 5, [(0, 1, A), (0, 2, A), (1, 5, B), (2, 3, B), (3, 5, C)])
        with pytest.raises(LatticeFormatError):
            minimize(l)


class TestBuildCount:
    def test_minimize_builds_only_its_result(self, lattices, build_calls):
        build_calls.clear()
        for l in lattices.values():
            minimize(l)
        assert len(build_calls) == len(lattices)


class TestLanguageEqual:
    @pytest.mark.parametrize("mode", ["general", "simple", "oii"])
    def test_agrees_with_enumeration_on_random_instances(self, mode):
        # per draw: filter against oracle, against its input and against
        # its own minimal form, oracle against input, and input against
        # the next draw's input
        rng = random.Random(0)
        draws = [random_instance(rng, mode=mode) for _ in range(101)]
        verdicts = []
        for inst, following in zip(draws, draws[1:]):
            g, l = inst.grammar, inst.lattice
            f, o = filter_lattice(g, l), filter_oracle(g, l)
            for a, b in [(f, o), (f, l), (f, minimize(f)), (o, l), (l, following.lattice)]:
                verdict = language_equal(a, b)
                assert verdict == (language(a) == language(b)), (mode, inst.text, g.name)
                verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_minimal_form_is_canonical(self, lattices, grammars):
        # the minimal form does not depend on state names, edge order,
        # duplicate edges or how the automaton was built, deterministic
        # or not
        filtered = filter_lattice(grammars["de-ce-que-chain"], lattices["confirm-chain"])
        for l in [*lattices.values(), filtered]:
            expected = to_json(minimize(l))
            rebuilds = [
                renamed(l),
                Lattice.build(l.initial, l.final, l.edges + l.edges),
                _trie_lattice([path_labels(p) for p in reversed(all_paths(l))]),
                union_lattice(l, renamed(l)),
            ]
            for rebuilt in rebuilds:
                assert to_json(minimize(rebuilt)) == expected

    def test_non_prefix_free_language_rejected(self):
        l = Lattice.build(0, 3, [(0, 1, A), (0, 3, A), (1, 3, B)])
        with pytest.raises(LatticeFormatError):
            language_equal(l, l)

    def test_reflexive(self, lattices):
        l = lattices["railway"]
        assert language_equal(l, l)

    def test_equal_to_minimized(self, lattices):
        l = lattices["moment"]
        assert language(l) == language(minimize(l))

    def test_detects_missing_compound_branch(self, lattices):
        l = lattices["railway"]
        pruned_edges = [e for e in l.edges if not getattr(e.label, "compound", False)]
        pruned = Lattice.build(l.initial, l.final, pruned_edges)
        assert not language_equal(l, pruned)

    def test_overflow_raises(self):
        l = Lattice.build(0, 1, [(0, 1, A), (0, 1, B)])
        with pytest.raises(EnumerationOverflow):
            language(l, limit=1)


class TestDot:
    def test_deterministic(self, lattices):
        l = lattices["railway"]
        assert to_dot(l) == to_dot(l)
        rebuilt = Lattice.build(l.initial, l.final, list(l.edges))
        assert to_dot(rebuilt) == to_dot(l)

    def test_header_only_for_edgeless(self):
        l = Lattice.build(0, 0, [])
        dot = to_dot(l)
        assert dot.startswith("digraph lattice {")
        assert "->" not in dot

    def test_compound_edge_labeled(self, lattices):
        assert "<chemin/de/fer N;NDN:ms>" in to_dot(lattices["railway"])


class TestJson:
    def test_round_trip(self, lattices, categories):
        for key, l in lattices.items():
            doc = to_json(l)
            back = from_json(doc, categories)
            assert back == l, key

    def test_separator_surface_checked(self, categories):
        bad = '{"states": [0, 1], "initial": 0, "final": 1, "edges": [{"from": 0, "to": 1, "surface": "-", "tag": "?"}]}'
        with pytest.raises(LatticeFormatError):
            from_json(bad, categories)

    @pytest.mark.parametrize("text", ["xyz", "--", ""])
    def test_bare_tag_must_be_one_separator(self, categories, text):
        # the CLI exits 4 on an ``InputError``
        edge = {"from": 0, "to": 1, "surface": text, "tag": text}
        doc = {"states": [0, 1], "initial": 0, "final": 1, "edges": [edge]}
        with pytest.raises(InputError, match="separator character"):
            from_json(json.dumps(doc), categories)

    def test_dead_branch_and_isolated_state_dropped(self, categories):
        def doc(states, edges):
            edges = [{"from": a, "to": b, "surface": "-", "tag": "-"} for a, b in edges]
            return json.dumps({"states": states, "initial": 0, "final": 2, "edges": edges})

        live = from_json(doc([0, 1, 2], [(0, 1), (1, 2)]), categories)
        assert from_json(doc([0, 1, 2, 3, 9], [(0, 1), (1, 2), (0, 3)]), categories) == live
        assert live.n_states == 3

    @pytest.mark.parametrize(
        "edge",
        [
            {"from": 0, "to": 1, "surface": "-"},
            {"from": 0, "to": 1, "surface": "-", "tag": 5},
            [0, 1, "-", "-"],
            {"from": [0], "to": 1, "surface": "-", "tag": "-"},
        ],
        ids=["missing-tag", "non-string-tag", "edge-as-list", "list-endpoint"],
    )
    def test_malformed_edge_rejected(self, categories, edge):
        doc = {"states": [0, 1], "initial": 0, "final": 1, "edges": [edge]}
        with pytest.raises(LatticeFormatError):
            from_json(json.dumps(doc), categories)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"final": True}, "state ids must be integers or strings, not True"),
            ({"edges": [{"from": False, "to": 1, "surface": "-", "tag": "-"}]}, "integers or strings, not False"),
            ({"states": "01"}, "field 'states' must be a JSON array"),
            ({"edges": {"from": 0, "to": 1, "surface": "-", "tag": "-"}}, "field 'edges' must be a JSON array"),
            ({"states": []}, "state id 0 is not declared in states"),
            ({"states": [0]}, "state id 1 is not declared in states"),
            ({"initial": 2}, "state id 2 is not declared in states"),
            ({"edges": [{"from": 0, "to": 2, "surface": "-", "tag": "-"}]}, "state id 2 is not declared"),
            ({"states": [0, 0, 0], "initial": "a", "final": "b",
              "edges": [{"from": "a", "to": "b", "surface": "-", "tag": "-"}]}, "repeated state id 0"),
            ({"states": [0, 1, 1]}, "repeated state id 1"),
            # the message names the one bad id, not every id of the document
            ({"states": list(range(2001)), "final": True,
              "edges": [{"from": i, "to": i + 1, "surface": "-", "tag": "-"} for i in range(2000)]},
             "^state ids must be integers or strings, not True$"),
            ("{", "^invalid JSON: "),
            ("[0, 1]", "^the document is not a JSON object$"),
            ('{"states": [0, 1], "initial": 0, "edges": []}', "^missing field 'final'$"),
        ],
        ids=[
            "bool-final",
            "bool-endpoint",
            "states-not-an-array",
            "edges-not-an-array",
            "no-state-declared",
            "final-undeclared",
            "initial-undeclared",
            "endpoint-undeclared",
            "repeated-states-none-used",
            "repeated-state",
            "bool-final-long-document",
            "invalid-json",
            "not-an-object",
            "missing-field",
        ],
    )
    def test_malformed_document_rejected(self, categories, change, match):
        # ``True == 1``: a bool state id would pass for the state 1.  A
        # string ``change`` is the whole document.
        edge = {"from": 0, "to": 1, "surface": "-", "tag": "-"}
        doc = {"states": [0, 1], "initial": 0, "final": 1, "edges": [edge]}
        from_json(json.dumps(doc), categories)
        with pytest.raises(LatticeFormatError, match=match):
            from_json(change if isinstance(change, str) else json.dumps({**doc, **change}), categories)

    def test_layout_matches_json_dumps(self, lattices):
        def reference(l):
            doc = {
                "states": list(range(l.n_states)),
                "initial": l.initial,
                "final": l.final,
                "edges": [
                    {"from": e.src, "to": e.dst, "surface": e.label.surface, "tag": e.label.notation()}
                    for e in l.edges
                ],
            }
            return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

        awkward = [
            CompleteTag('dit "oui"', 'dire/"oui"', Category("V"), frozenset("P3s"), True),
            CompleteTag("a\\b", "a\\b", Category("N", ("NA",), ("+Préd",)), frozenset("ms")),
            CompleteTag("tab\tnl\ncr\r\x00\x1f", "ctl\x7f", Category("ADV")),
            CompleteTag("ça—’«»", "çà/œ", Category("PRO"), frozenset("3fp"), True),
            CompleteTag("\U0001f600\u2028", "emoji", Category("INT")),
        ]
        cases = [
            *lattices.values(),
            Lattice.build(0, 0, []),
            Lattice.build(0, 1, []),
            Lattice.build(0, 2, [(0, 1, lab) for lab in awkward] + [(1, 2, Separator("’"))]),
        ]
        for l in cases:
            assert to_json(l) == reference(l)
