import pytest
from hypothesis import given, strategies as st

from locgram.errors import TagFormatError
from locgram.grammar import LocalGrammar, Transition
from locgram.tags import (
    AnyWord,
    Category,
    CategoryPattern,
    CompleteTag,
    ConformityTable,
    LemmaPattern,
    Separator,
    SurfaceForm,
    SEPARATOR_CHARS,
    conforms,
    equivalent,
    format_features,
    parse_complete_tag,
    parse_features,
    parse_incomplete_tag,
)

CATS = ("V", "N", "A", "ADV", "PRO", "DET", "PREP", "CNJS", "CNJC", "XI", "INT")


def complete(text, surface=None):
    return parse_complete_tag(text, CATS, surface=surface)


def incomplete(text):
    return parse_incomplete_tag(text, CATS)


class TestParseCompleteTag:
    def test_simple_verb(self):
        tag = complete("<suivre V:P2s>")
        assert tag.lemma == "suivre"
        assert tag.category == Category("V")
        assert tag.features == frozenset("P2s")
        assert tag.surface == "suivre"
        assert not tag.compound

    def test_compound_with_subcategory(self):
        tag = complete("<coup/fumant N;NA:ms>")
        assert tag.lemma == "coup/fumant"
        assert tag.category == Category("N", ("NA",))
        assert tag.features == frozenset("ms")
        assert tag.surface == "coup fumant"
        assert tag.compound

    def test_trait_marker(self):
        tag = complete("<ne XI[+Préd]>")
        assert tag.category == Category("XI", (), ("+Préd",))
        assert tag.features == frozenset()

    def test_spaced_trait_normalized(self):
        assert complete("<ne XI[+ Préd]>") == complete("<ne XI[+Préd]>")

    def test_out_of_band_surface(self):
        tag = complete("<être V:P1s>", surface="suis")
        assert tag.surface == "suis"
        assert not tag.compound

    def test_empty_feature_group_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<être V:>")

    def test_multiple_feature_groups_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<suivre V:P1s:P2s>")

    def test_unknown_category_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<suivre QQQ:P2s>")

    def test_duplicate_person_code_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<suivre V:P12s>")

    def test_duplicate_gender_code_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<beau A:mfs>")

    def test_missing_category_rejected(self):
        with pytest.raises(TagFormatError):
            complete("<suivre>")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<suivre V:P2 s>", "whitespace"),
            ("<ne XI[ ]>", "empty trait"),
            ("<coup ;NA:ms>", "missing main category"),
            ("<coup N;:ms>", "empty subcategory"),
        ],
    )
    def test_malformed_category_or_features_rejected(self, text, message):
        with pytest.raises(TagFormatError, match=message):
            complete(text)


class TestParseIncompleteTag:
    def test_category_with_features(self):
        assert incomplete("<V:3s>") == CategoryPattern("V", frozenset("3s"))

    def test_bare_category(self):
        assert incomplete("<V>") == CategoryPattern("V")

    def test_lemma(self):
        assert incomplete("<prendre>") == LemmaPattern("prendre")

    def test_lemma_with_features(self):
        assert incomplete("<prendre:P>") == LemmaPattern("prendre", frozenset("P"))

    def test_compound_lemma(self):
        assert incomplete("<coup/fumant:ms>") == LemmaPattern("coup/fumant", frozenset("ms"))

    def test_surface_form(self):
        assert incomplete("suis") == SurfaceForm("suis")

    def test_separator(self):
        assert incomplete("-") == Separator("-")

    def test_any_word(self):
        assert incomplete("<MOT>") == AnyWord()

    def test_empty_rejected(self):
        with pytest.raises(TagFormatError):
            incomplete("")

    def test_malformed_feature_group_rejected(self):
        with pytest.raises(TagFormatError):
            incomplete("<V:>")

    def test_surface_with_separator_rejected(self):
        with pytest.raises(TagFormatError):
            incomplete("fait-il")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("< >", "empty pattern"),
            ("<V:3:s>", "multiple feature groups"),
            ("<:s>", "missing head"),
            ("<MOT:s>", "takes no features"),
            ("<a b>", "malformed lemma"),
            ("--", "one separator character"),
            ("-a", "one separator character"),
        ],
    )
    def test_malformed_pattern_rejected(self, text, message):
        with pytest.raises(TagFormatError, match=message):
            incomplete(text)


class TestConforms:
    def test_category_match(self):
        assert conforms(complete("<suivre V:P2s>"), incomplete("<V>"))

    def test_feature_inclusion(self):
        assert conforms(complete("<être V:P1s>"), incomplete("<V:P>"))
        assert not conforms(complete("<être V:P1s>"), incomplete("<V:3s>"))

    def test_lemma_mismatch(self):
        assert not conforms(complete("<suivre V:P2s>"), incomplete("<être>"))

    def test_lemma_match(self):
        assert conforms(complete("<suivre V:P2s>"), incomplete("<suivre>"))

    def test_any_word_rejects_compounds(self):
        assert not conforms(complete("<coup/fumant N;NA:ms>"), incomplete("<MOT>"))
        assert conforms(complete("<fait N:ms>"), incomplete("<MOT>"))

    def test_surface_form_uses_attached_surface(self):
        assert conforms(complete("<être V:P1s>", surface="suis"), incomplete("suis"))
        assert not conforms(complete("<être V:P1s>"), incomplete("suis"))

    def test_non_pattern_raises(self):
        with pytest.raises(TypeError, match="not an incomplete tag"):
            conforms(complete("<fait N:ms>"), "x")

    def test_category_ignores_subcats_and_traits(self):
        assert conforms(complete("<ne XI[+Préd]>"), incomplete("<XI>"))
        assert conforms(complete("<sur/le/moment ADV;PDETC>"), incomplete("<ADV>"))

    def test_separator_matches_itself_only(self):
        assert conforms(Separator("-"), incomplete("-"))
        assert not conforms(Separator("?"), incomplete("-"))
        assert not conforms(Separator("-"), incomplete("<MOT>"))
        assert not conforms(complete("<fait N:ms>"), incomplete("-"))


class TestEquivalent:
    def test_same_surfaces_different_analyses(self):
        a = [complete("<superbe N:fs>"), complete("<gaulliste A:fs>")]
        b = [complete("<superbe A:fs>"), complete("<gaulliste N:fs>")]
        assert equivalent(a, b)

    def test_different_delimitation(self):
        a = [complete("<pomme/de/terre N;NDN:fs>"), complete("<cuire V:Kfs>", surface="cuite")]
        b = [
            complete("<pomme N:fs>"),
            complete("<de PREP>"),
            complete("<terre/cuite N;NA:fs>"),
        ]
        assert not equivalent(a, b)

    def test_reflexive(self):
        seq = [complete("<fait N:ms>"), Separator("-"), complete("<il PRO:3ms>")]
        assert equivalent(seq, seq)


# hypothesis strategies over well-formed tag material

features = st.sets(
    st.sampled_from(list("PKWYG") + list("123") + list("mf") + list("sp")), max_size=4
).map(
    lambda s: frozenset(
        list({a for a in s if a in "123"})[:1]
        + list({a for a in s if a in "mf"})[:1]
        + list({a for a in s if a in "sp"})[:1]
        + [a for a in s if a not in "123mfsp"]
    )
)
lemmas = st.sampled_from(["suivre", "être", "faire", "coup/fumant", "sur/le/moment", "ne"])
cats = st.builds(
    Category,
    st.sampled_from(CATS),
    st.sampled_from([(), ("NA",), ("NDN", "PDETC")]),
    st.sampled_from([(), ("+Préd",)]),
)
complete_tags = st.builds(
    lambda lemma, cat, feats: CompleteTag(
        lemma.replace("/", " "), lemma, cat, feats, "/" in lemma
    ),
    lemmas,
    cats,
    features,
)


@given(complete_tags)
def test_notation_round_trip(tag):
    assert parse_complete_tag(tag.notation(), CATS) == tag


@given(complete_tags, st.sampled_from(CATS), features, features)
def test_conformity_monotone_in_features(tag, main, f1, f2):
    wider = CategoryPattern(main, f1 | f2)
    narrower = CategoryPattern(main, f1)
    if conforms(tag, wider):
        assert conforms(tag, narrower)


@given(complete_tags, lemmas, features, features)
def test_lemma_conformity_monotone_in_features(tag, lemma, f1, f2):
    if conforms(tag, LemmaPattern(lemma, f1 | f2)):
        assert conforms(tag, LemmaPattern(lemma, f1))


@given(st.lists(complete_tags, max_size=5), st.lists(complete_tags, max_size=5),
       st.lists(complete_tags, max_size=5))
def test_equivalent_is_an_equivalence_relation(a, b, c):
    assert equivalent(a, a)
    if equivalent(a, b):
        assert equivalent(b, a)
    if equivalent(a, b) and equivalent(b, c):
        assert equivalent(a, c)


@given(complete_tags)
def test_any_word_never_matches_compounds(tag):
    if tag.compound:
        assert not conforms(tag, AnyWord())


def test_any_word_rejects_every_fixture_compound():
    from locgram import expand_entry, fixtures

    lexicon = fixtures.core_lexicon()
    compound_tags = [
        tag
        for entries in lexicon.compounds.values()
        for entry in entries
        for tag in expand_entry(entry)
    ]
    assert compound_tags
    assert all(not conforms(tag, AnyWord()) for tag in compound_tags)


def test_feature_formatting_order():
    assert format_features(parse_features("s3P")) == "P3s"
    assert format_features(parse_features("msK")) == "Kms"
    assert format_features(frozenset()) == ""


surfaces = st.sampled_from(["suis", "être", "fait", "ne", "coup fumant", "sur le moment"])
separators = st.sampled_from(list(SEPARATOR_CHARS)).map(Separator)
edge_labels = st.one_of(
    complete_tags,
    # out-of-band surfaces, and compoundness independent of the surface, so
    # that surface-form and <MOT> patterns meet compounds spelled like them
    st.builds(CompleteTag, surfaces, lemmas, cats, features, st.booleans()),
    separators,
)
patterns = st.one_of(
    st.builds(LemmaPattern, lemmas, features),
    st.builds(CategoryPattern, st.sampled_from(CATS), features),
    st.builds(SurfaceForm, surfaces),
    st.just(AnyWord()),
    separators,
)


@given(st.lists(edge_labels, min_size=1, max_size=6), st.lists(st.tuples(patterns, patterns), max_size=12))
def test_compiled_masks_agree_with_conforms(labels, pairs):
    transitions = tuple(Transition("I", "F", inp, out) for inp, out in pairs)
    masks = LocalGrammar("g", ("I", "F"), "I", frozenset({"F"}), transitions).masks
    width = len(transitions)
    for label in labels:
        mask = masks.mask(label)
        for i, t in enumerate(transitions):
            assert bool(mask >> i & 1) == conforms(label, t.inp)
            assert bool(mask >> (width + i) & 1) == conforms(label, t.out)
        assert mask >> (2 * width) == 0


def test_conformity_table_rejects_non_patterns():
    with pytest.raises(TypeError):
        ConformityTable([complete("<fait N:ms>")])


@given(edge_labels)
def test_sort_key_is_the_field_tuple(label):
    if isinstance(label, Separator):
        expected = (0, label.char, "", "", "", False)
    else:
        expected = (
            1,
            label.surface,
            label.lemma,
            str(label.category),
            format_features(label.features),
            label.compound,
        )
    assert label.sort_key == expected
    assert label.sort_key is label.sort_key
