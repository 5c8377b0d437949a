import json

import pytest

from locgram.errors import EnumerationOverflow, LatticeFormatError
from locgram.lattice import (
    Lattice,
    enumerate_paths,
    from_json,
    language,
    language_equal,
    minimize,
    path_labels,
    to_dot,
    to_json,
    trim,
)
from locgram.tags import Category, CompleteTag, Separator, parse_complete_tag

CATS = ("V", "N", "A", "ADV", "PRO", "DET", "PREP", "CNJS", "CNJC", "XI", "INT")


def tag(text, surface=None):
    return parse_complete_tag(text, CATS, surface=surface)


A = tag("<pomme N:fs>")
B = tag("<terre N:fs>")
C = tag("<cuire V:Kfs>", surface="cuite")
D = tag("<de PREP>")


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
        enum = enumerate_paths(l)
        assert len(enum.paths) == 1
        assert not enum.truncated

    def test_limit_sets_flag(self):
        l = Lattice.build(0, 1, [(0, 1, A), (0, 1, B), (0, 1, C)])
        enum = enumerate_paths(l, limit=2)
        assert len(enum.paths) == 2
        assert enum.truncated

    def test_lexicographic_order(self):
        l = Lattice.build(0, 1, [(0, 1, B), (0, 1, A)])
        enum = enumerate_paths(l)
        assert [path_labels(p)[0] for p in enum.paths] == [A, B]

    def test_long_sentence_within_recursion_limit(self, long_lattice, default_recursion_limit):
        l = long_lattice
        enum = enumerate_paths(l, 10)
        assert enum.truncated
        assert len(set(enum.paths)) == 10
        for p in enum.paths:
            assert p[0].src == l.initial and p[-1].dst == l.final
            assert all(a.dst == b.src for a, b in zip(p, p[1:]))
        # the first path takes the first edge out of every state it meets
        first, q = [], l.initial
        while q != l.final:
            first.append(l.edges_by_source[q][0])
            q = first[-1].dst
        assert enum.paths[0] == tuple(first)

    def test_railway_contains_both_readings(self, lattices):
        langs = language(lattices["railway"])
        assert any(any(getattr(lab, "compound", False) for lab in seq) for seq in langs)
        assert any(
            sum(1 for lab in seq if getattr(lab, "surface", "") in ("chemin", "de", "fer")) == 3
            for seq in langs
        )


class TestTrim:
    def test_trim_is_identity_on_initial_lattices(self, lattices):
        for l in lattices.values():
            assert trim(l) == l

    def test_dead_branch_removed(self):
        l = Lattice.build(0, 2, [(0, 1, A), (1, 2, B), (0, 3, C)])
        trimmed = trim(l)
        assert language_equal(trimmed, l)
        assert trimmed.n_states == 3
        assert len(trimmed.edges) == 2

    def test_empty_language_reduces_to_edgeless(self):
        l = Lattice.build(0, 2, [(0, 1, A)])
        trimmed = trim(l)
        assert trimmed.is_empty_language()
        assert trimmed.edges == ()


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
        assert language_equal(m, l)
        assert m.n_states < l.n_states

    def test_removes_duplicate_paths(self):
        l = Lattice.build(0, 2, [(0, 1, A), (0, 1, A), (1, 2, B)])
        m = minimize(l)
        assert language_equal(m, l)
        enum = enumerate_paths(m)
        assert len(enum.paths) == 1

    def test_language_preserved_on_fixtures(self, lattices):
        for key, l in lattices.items():
            assert language_equal(minimize(l), l), key

    def test_idempotent_on_fixtures(self, lattices):
        for key, l in lattices.items():
            m = minimize(l)
            again = minimize(m)
            assert (again.n_states, len(again.edges)) == (m.n_states, len(m.edges)), key

    def test_dead_branches_are_not_followed(self):
        # dead ends: a second A-edge out of the initial state, a C-edge
        # to a state that never reaches the final one, and an edge out of
        # the final state itself; minimize follows none of them and gives
        # what it gives on the trim lattice
        l = Lattice.build(
            0,
            2,
            [(0, 1, A), (1, 2, B), (0, 3, A), (0, 4, C), (3, 5, D), (2, 6, D)],
        )
        assert trim(l) != l
        assert minimize(l) == minimize(trim(l))
        assert language_equal(minimize(l), l)

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
        from locgram.engine import filter as filter_lattice

        l = lattices["confirm-chain"]
        filtered = filter_lattice(grammars["de-ce-que-chain"], l)
        m = minimize(filtered)
        assert language_equal(m, filtered)


class TestBuildCount:
    def test_minimize_builds_only_its_result(self, lattices, build_calls):
        trimmed = [trim(l) for l in lattices.values()]
        build_calls.clear()
        for l in trimmed:
            minimize(l)
        assert len(build_calls) == len(trimmed)


class TestLanguageEqual:
    def test_reflexive(self, lattices):
        l = lattices["railway"]
        assert language_equal(l, l)

    def test_equal_to_minimized(self, lattices):
        l = lattices["moment"]
        assert language_equal(l, minimize(l))

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

    def test_invalid_json_rejected(self, categories):
        with pytest.raises(LatticeFormatError):
            from_json("{", categories)

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
            Lattice.build(0, 1, [], extra_states=(0, 1)),
            Lattice.build(0, 2, [(0, 1, lab) for lab in awkward] + [(1, 2, Separator("’"))]),
        ]
        for l in cases:
            assert to_json(l) == reference(l)
