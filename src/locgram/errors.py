"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input, the CLI's exit 4; each kind of input has its own subclass."""


class TagFormatError(InputError):
    """Malformed tag notation."""


class LexiconFormatError(InputError):
    """Malformed lexicon or category-inventory line."""


class UnknownWordError(LookupError):
    """A word token has no lexicon entry; initial tagging cannot proceed."""

    def __init__(self, word: str, position: int):
        self.word, self.position = word, position
        super().__init__(f"unknown word {word!r} at position {position}")


class LatticeFormatError(InputError):
    """Invalid lattice structure or serialization."""


class GrammarFormatError(InputError):
    """Invalid grammar document or structure."""


class CorpusFormatError(InputError):
    """Malformed corpus file."""


class EnumerationOverflow(RuntimeError):
    """A path enumeration exceeded the configured limit."""
