"""Finite-state lexical disambiguation toolkit.

Two independent stages: a morphological lexicon turns a text into an
acyclic lattice of complete grammatical tags (all analyses of every word,
compounds as parallel branches), then local grammars — finite transducers
over incomplete tags — reduce the ambiguity.  The acceptance rules
guarantee a zero silence rate: a tag sequence the grammar accepts is never
eliminated, so filtering only discards analyses that are provably excluded.
"""

from .engine import (
    Decomposition,
    FreeBlock,
    MatchedBlock,
    accepts,
    accepts_case_a,
    accepts_case_b,
    decompose,
    filter_oracle,
    matchable,
    resolve_tag_sequence,
    silence_check,
)
from .engine import filter as filter_lattice
from .errors import (
    CorpusFormatError,
    EnumerationOverflow,
    GrammarFormatError,
    InputError,
    LatticeFormatError,
    LexiconFormatError,
    TagFormatError,
    UnknownWordError,
)
from .grammar import (
    GrammarClass,
    LocalGrammar,
    Transition,
    classify,
    load_grammar,
    union,
)
from .lattice import (
    DEFAULT_PATH_LIMIT,
    Edge,
    Lattice,
    all_paths,
    count_paths,
    iter_paths,
    language,
    language_equal,
    minimize,
    path_labels,
)
from .lexicon import (
    Lexicon,
    LexiconEntry,
    build_initial_lattice,
    expand_entry,
    load_categories,
    load_lexicon,
    lookup_forms,
    tokenize,
)
from .tags import (
    AnyWord,
    Category,
    CategoryPattern,
    CompleteTag,
    LemmaPattern,
    Separator,
    SurfaceForm,
    conforms,
    equivalent,
    parse_complete_tag,
    parse_incomplete_tag,
)

__version__ = "0.1.0"
