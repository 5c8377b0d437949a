"""Command-line pipeline: initial tagging, grammar application, silence
checking, and oracle cross-checks.

Exit codes: 0 ok, 1 silence violations (or oracle mismatch), 2 unknown
word, 3 empty filtering result, 4 bad grammar/lexicon/corpus input or
option value, 5 enumeration overflow, 6 internal error (reported with its
traceback; a crash is never a verdict).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import engine, fixtures, grammar as grammar_mod, lattice as lattice_mod
from .errors import (
    CorpusFormatError,
    EnumerationOverflow,
    GrammarFormatError,
    LatticeFormatError,
    LexiconFormatError,
    TagFormatError,
    UnknownWordError,
)
from .lexicon import (
    Lexicon,
    TokenKind,
    build_initial_lattice,
    compound_matches,
    expand_entry,
    load_categories,
    load_lexicon,
    tokenize,
)
from .randgen import random_instance
from .tags import collation_key


def _load_categories(args: argparse.Namespace) -> tuple[str, ...]:
    if args.categories is None:
        return fixtures.core_categories()
    return load_categories(Path(args.categories).read_text(encoding="utf-8").splitlines())


def _load_lexicon(args: argparse.Namespace) -> Lexicon:
    categories = _load_categories(args)
    if args.lexicon is None:
        if args.categories is None:
            return fixtures.core_lexicon()
        path = fixtures.lexicon_path()
    else:
        path = args.lexicon
    return load_lexicon(Path(path).read_text(encoding="utf-8").splitlines(), categories)


def _load_grammars(args: argparse.Namespace, categories) -> list:
    if not args.grammars:
        raise GrammarFormatError("at least one --grammar file is required")
    return [
        grammar_mod.load_grammar(Path(p).read_text(encoding="utf-8"), categories)
        for p in args.grammars
    ]


def _combined(grammars: list) -> grammar_mod.LocalGrammar:
    """One grammar as is; several by shared initial and final states."""
    return grammars[0] if len(grammars) == 1 else grammar_mod.union(grammars)


def _quoted(tag) -> str:
    return f'"{tag.display()}"'


def _group(token, lexicon: Lexicon) -> str:
    tags = lexicon.lookup(token.lookup)
    if not tags:
        raise UnknownWordError(token)
    ordered = sorted({_quoted(t) for t in tags}, key=collation_key)
    return "(" + " + ".join(ordered) + ")"


def alternative_listing(tokens, lexicon: Lexicon) -> str:
    """Parenthesized per-token alternative listing.  Token spans covered by
    compound entries open a block giving the compounds first, then the
    simple-word reading of the same span; overlapping compound spans are
    flattened into one block."""
    lines: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if token.kind is TokenKind.SEPARATOR:
            lines.append(token.text)
            i += 1
            continue
        end = i + 1
        compounds = []
        j = i
        while j < end:
            if tokens[j].kind is TokenKind.WORD:
                for entry in compound_matches(tokens, j, lexicon):
                    compounds.append(entry)
                    end = max(end, j + len(entry.surface_tokens))
            j += 1
        if not compounds:
            lines.append(_group(token, lexicon))
            i += 1
            continue
        lines.append("(")
        compound_tags = [t for entry in compounds for t in expand_entry(entry)]
        for quoted in sorted({_quoted(t) for t in compound_tags}, key=collation_key):
            lines.append(quoted)
            lines.append("+")
        for k in range(i, end):
            inner = tokens[k]
            if inner.kind is TokenKind.SEPARATOR:
                lines.append(inner.text)
            else:
                lines.append(_group(inner, lexicon))
        lines.append(")")
        i = end
    return "\n".join(lines)


def _paths_listing(l, limit: int) -> str:
    enum = lattice_mod.enumerate_paths(l, limit)
    if enum.truncated:
        raise EnumerationOverflow(f"more than {limit} paths")
    lines = sorted(
        " ".join(label.notation() for label in lattice_mod.path_labels(p)) for p in enum.paths
    )
    return "\n".join(lines)


def _render_lattice(l, fmt: str | None, limit: int) -> str:
    fmt = fmt or "lattice"
    if fmt == "paths":
        return _paths_listing(l, limit)
    if fmt == "lattice":
        return lattice_mod.to_json(l).rstrip("\n")
    if fmt == "dot":
        return lattice_mod.to_dot(l).rstrip("\n")
    raise GrammarFormatError(f"format {fmt!r} does not apply to this command")


def cmd_tag(args: argparse.Namespace, text: str) -> str:
    """Initial tagging.  ``paths`` format prints the alternative listing;
    ``lattice``/``dot`` serialize the automaton."""
    lexicon = _load_lexicon(args)
    tokens = tokenize(text)
    fmt = args.format or "paths"
    if fmt == "paths":
        return alternative_listing(tokens, lexicon)
    l = build_initial_lattice(tokens, lexicon)
    return _render_lattice(l, fmt, args.limit)


def _apply_grammars(args: argparse.Namespace, text: str):
    lexicon = _load_lexicon(args)
    categories = lexicon.categories
    grammars = _load_grammars(args, categories)
    l = build_initial_lattice(tokenize(text), lexicon)
    if args.sequential:
        filtered = l
        for g in grammars:
            filtered = engine.filter(g, filtered)
    else:
        combined = _combined(grammars)
        filtered = engine.filter(combined, l)
    return filtered


def cmd_apply(args: argparse.Namespace, text: str) -> tuple[str, bool]:
    """Filter the initial lattice; returns output text and an emptiness
    flag (grammars combine by shared initial/final state unless
    ``--sequential`` chains them, re-deriving context at each step)."""
    filtered = _apply_grammars(args, text)
    empty = filtered.is_empty_language()
    return _render_lattice(filtered, args.format, args.limit), empty


def cmd_check(args: argparse.Namespace, corpus_file: str) -> tuple[str, bool]:
    """Zero-silence check of the combined grammars against gold taggings."""
    lexicon = _load_lexicon(args)
    grammars = _load_grammars(args, lexicon.categories)
    combined = _combined(grammars)
    corpus = engine.load_corpus(Path(corpus_file).read_text(encoding="utf-8").splitlines())
    report = engine.silence_check(combined, corpus, lexicon)
    if args.format == "report":
        import json

        doc = {
            "grammar": combined.name,
            "violations": [
                {"sentence": v.sentence_id, "span": list(v.span), "grammar": v.grammar}
                for v in report.violations
            ],
            "corpus_errors": [
                {"sentence": sid, "message": msg} for sid, msg in report.corpus_errors
            ],
        }
        text = json.dumps(doc, ensure_ascii=False, indent=2)
    else:
        text = "\n".join(report.lines())
    return text, bool(report.violations)


def _oracle_agrees(g: grammar_mod.LocalGrammar, l, limit: int) -> bool:
    """Product filtering and the brute-force oracle give the same language."""
    return lattice_mod.language_equal(engine.filter(g, l), engine.filter_oracle(g, l, limit), limit)


def cmd_diff_oracle(args: argparse.Namespace, text: str | None) -> tuple[str, bool]:
    """Compare product filtering against the brute-force oracle, either on
    the given text with the configured grammars, or on randomized
    instances when ``--seed`` is set."""
    if args.seed is not None:
        rng = random.Random(args.seed)
        trials = 50
        for trial in range(trials):
            inst = random_instance(rng)
            if not _oracle_agrees(inst.grammar, inst.lattice, args.limit):
                return (
                    f"MISMATCH seed={args.seed} trial={trial} text={inst.text!r} "
                    f"grammar={inst.grammar.name}",
                    False,
                )
        return f"EQUAL ({trials} randomized instances, seed={args.seed})", True
    if text is None:
        raise GrammarFormatError("diff-oracle needs a text argument or --seed")
    lexicon = _load_lexicon(args)
    grammars = _load_grammars(args, lexicon.categories)
    combined = _combined(grammars)
    l = build_initial_lattice(tokenize(text), lexicon)
    if _oracle_agrees(combined, l, args.limit):
        return "EQUAL", True
    return "MISMATCH", False


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lexicon", metavar="F", help="lexicon file (default: bundled)")
    common.add_argument("--categories", metavar="F", help="category inventory file")
    common.add_argument(
        "--grammar",
        dest="grammars",
        metavar="F",
        action="append",
        default=[],
        help="grammar file (repeatable)",
    )
    common.add_argument(
        "--sequential", action="store_true", help="apply grammars one after another"
    )
    common.add_argument("--format", choices=["paths", "lattice", "dot", "report"])
    common.add_argument("--limit", type=int, default=lattice_mod.DEFAULT_PATH_LIMIT, metavar="N")
    common.add_argument("--seed", type=int, metavar="N")

    parser = argparse.ArgumentParser(prog="locgram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_tag = sub.add_parser("tag", parents=[common], help="initial tagging of a text")
    p_tag.add_argument("text", nargs="?", default="")
    p_apply = sub.add_parser("apply", parents=[common], help="filter a text's lattice")
    p_apply.add_argument("text")
    p_check = sub.add_parser("check", parents=[common], help="zero-silence corpus check")
    p_check.add_argument("corpus")
    p_diff = sub.add_parser("diff-oracle", parents=[common], help="filter vs oracle verdict")
    p_diff.add_argument("text", nargs="?")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.limit < 1:
        print(f"error: --limit must be positive, not {args.limit}", file=sys.stderr)
        return 4
    try:
        if args.command == "tag":
            out = cmd_tag(args, args.text)
            if out:
                print(out)
            return 0
        if args.command == "apply":
            out, empty = cmd_apply(args, args.text)
            if out:
                print(out)
            if empty:
                print("warning: every tagging was rejected", file=sys.stderr)
                return 3
            return 0
        if args.command == "check":
            out, violations = cmd_check(args, args.corpus)
            if out:
                print(out)
            return 1 if violations else 0
        if args.command == "diff-oracle":
            out, ok = cmd_diff_oracle(args, args.text)
            print(out)
            return 0 if ok else 1
        raise AssertionError(args.command)
    except UnknownWordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        GrammarFormatError,
        LexiconFormatError,
        CorpusFormatError,
        LatticeFormatError,
        TagFormatError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EnumerationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:
        import traceback  # only a crash needs it; every CLI start would pay for it

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 6


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
