"""Command-line pipeline: initial tagging, grammar application, silence
checking, and oracle cross-checks.

Each command takes the parsed arguments and returns its stdout text and
its exit code: 0 ok, 1 silence violations (or oracle mismatch), 3 empty
filtering result.  ``main`` maps exceptions to the other codes: 2 unknown
word, 4 usage error or bad grammar/lexicon/corpus input (a file that is
not UTF-8 included), 5 enumeration overflow, 6 internal error (reported
with its traceback; a crash is never a verdict).  A reader that closes
stdout early (``| head``) ends the run with 141 (128 + SIGPIPE) and no
message, stdout pointed at ``os.devnull`` so that the exit flush cannot fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import engine, fixtures, grammar as grammar_mod, lattice as lattice_mod
from .errors import EnumerationOverflow, GrammarFormatError, InputError, UnknownWordError
from .lexicon import Lexicon, build_initial_lattice, load_categories, load_lexicon, tokenize
from .tags import Separator, collation_key


def _read(path: str, what: str) -> str:
    """The text of the file that ``what``, a flag or argument, names.  An empty
    name (``Path`` reads it as ``.``) and a file not in UTF-8 are malformed input."""
    if not path:
        raise InputError(f"{what} is empty; it must name a file")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _load_lexicon(args: argparse.Namespace) -> Lexicon:
    """The category inventory, then the lexicon, each from its flag's file
    or, with no flag, the bundled one."""
    inventory = fixtures.categories_path() if args.categories is None else args.categories
    entries = fixtures.lexicon_path() if args.lexicon is None else args.lexicon
    categories = load_categories(_read(inventory, "--categories").splitlines())
    return load_lexicon(_read(entries, "--lexicon").splitlines(), categories)


def _inputs(args: argparse.Namespace) -> tuple[Lexicon, list]:
    """The lexicon, then the grammars over its categories."""
    lexicon = _load_lexicon(args)
    if not args.grammars:
        raise GrammarFormatError("at least one --grammar file is required")
    grammars = [grammar_mod.load_grammar(_read(p, "--grammar"), lexicon.categories) for p in args.grammars]
    return lexicon, grammars


def _combined(grammars: list) -> grammar_mod.LocalGrammar:
    """One grammar as is; several by shared initial and final states."""
    return grammars[0] if len(grammars) == 1 else grammar_mod.union(grammars)


def alternative_listing(tokens, lexicon: Lexicon) -> str:
    """Render the initial lattice as a parenthesized per-token listing.

    Its states are the token boundaries, so the edges ``i -> i+1`` are the
    simple readings of token ``i`` (or its one separator) and the longer
    edges are compounds.  A span covered by compounds opens a block giving
    the compounds first, then the simple readings of the same span;
    overlapping compound spans are flattened into one block."""
    by_source = build_initial_lattice(tokens, lexicon).edges_by_source

    def quoted(edges) -> list[str]:
        return sorted({f'"{e.label.display()}"' for e in edges}, key=collation_key)

    def simple(i: int) -> str:
        first = by_source[i][0]  # a separator's one-token edge; compounds from it end further
        if isinstance(first.label, Separator):
            return first.label.char
        return "(" + " + ".join(quoted(e for e in by_source[i] if e.dst == i + 1)) + ")"

    lines: list[str] = []
    i = 0
    while i < len(tokens):
        end, j = i + 1, i
        while j < end:
            end = max(end, by_source[j][-1].dst)  # edges sort by target: the last goes furthest
            j += 1
        if end == i + 1:
            lines.append(simple(i))
        else:
            lines.append("(")
            for label in quoted(e for k in range(i, end) for e in by_source[k] if e.dst > k + 1):
                lines += [label, "+"]
            lines.extend(simple(k) for k in range(i, end))
            lines.append(")")
        i = end
    return "\n".join(lines)


def _paths_listing(l, limit: int) -> str:
    lines = sorted(
        " ".join(label.notation() for label in lattice_mod.path_labels(p))
        for p in lattice_mod.all_paths(lattice_mod.minimize(l), limit)
    )
    return "\n".join(lines)


def _render_lattice(l, args: argparse.Namespace) -> str:
    """``l`` in ``args.format``; ``paths`` lists at most ``args.limit`` distinct taggings."""
    if args.format == "paths":
        return _paths_listing(l, args.limit)
    return (lattice_mod.to_dot if args.format == "dot" else lattice_mod.to_json)(l).rstrip("\n")


def cmd_tag(args: argparse.Namespace) -> tuple[str, int]:
    """Initial tagging.  ``paths`` format prints the alternative listing;
    ``lattice``/``dot`` serialize the automaton."""
    lexicon = _load_lexicon(args)
    tokens = tokenize(args.text)
    if args.format == "paths":
        return alternative_listing(tokens, lexicon), 0
    return _render_lattice(build_initial_lattice(tokens, lexicon), args), 0


def cmd_apply(args: argparse.Namespace) -> tuple[str, int]:
    """Filter the initial lattice; exit 3 when no tagging survives.
    Grammars combine by shared initial/final state unless ``--sequential``
    chains them, re-deriving context at each step."""
    lexicon, grammars = _inputs(args)
    filtered = build_initial_lattice(tokenize(args.text), lexicon)
    for g in grammars if args.sequential else [_combined(grammars)]:
        filtered = engine.filter(g, filtered)
    out = _render_lattice(filtered, args)
    return out, 3 if filtered.is_empty_language() else 0


def cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    """Zero-silence check of the combined grammars against gold taggings."""
    lexicon, grammars = _inputs(args)
    combined = _combined(grammars)
    corpus = engine.load_corpus(_read(args.corpus, "the corpus argument").splitlines())
    report = engine.silence_check(combined, corpus, lexicon)
    if args.format == "report":
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
    return text, 1 if report.violations else 0


def _oracle_agrees(g: grammar_mod.LocalGrammar, l, limit: int) -> bool:
    """Product filtering and the brute-force oracle give the same language."""
    return lattice_mod.language_equal(engine.filter(g, l), engine.filter_oracle(g, l, limit))


def cmd_diff_oracle(args: argparse.Namespace) -> tuple[str, int]:
    """Compare product filtering against the brute-force oracle, either on
    the given text with the configured grammars, or on randomized
    instances, which bring their own inputs, when ``--seed`` is set."""
    if args.seed is not None:
        if args.grammars or (args.lexicon, args.categories, args.text) != (None, None, None):
            raise InputError("--seed takes no --grammar, --lexicon, --categories or text")
        import random  # only --seed needs them; every CLI start would pay for them
        from .randgen import random_instance
        rng = random.Random(args.seed)
        trials = 50
        for trial in range(trials):
            inst = random_instance(rng)
            if not _oracle_agrees(inst.grammar, inst.lattice, args.limit):
                return (
                    f"MISMATCH seed={args.seed} trial={trial} text={inst.text!r} "
                    f"grammar={inst.grammar.name}",
                    1,
                )
        return f"EQUAL ({trials} randomized instances, seed={args.seed})", 0
    if args.text is None:
        raise GrammarFormatError("diff-oracle needs a text argument or --seed")
    lexicon, grammars = _inputs(args)
    l = build_initial_lattice(tokenize(args.text), lexicon)
    if _oracle_agrees(_combined(grammars), l, args.limit):
        return "EQUAL", 0
    return "MISMATCH", 1


COMMANDS = {"tag": cmd_tag, "apply": cmd_apply, "check": cmd_check, "diff-oracle": cmd_diff_oracle}
# The exit code of each error that main reports in one line; any other exception is a crash.
EXIT_CODES = {UnknownWordError: 2, InputError: 4, OSError: 4, EnumerationOverflow: 5}


def positive_int(text: str) -> int:
    """``--limit``'s type; argparse reports its ValueError as an invalid value."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, from parent parsers: each takes only the options it reads."""
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--lexicon", metavar="F", help="lexicon file (default: bundled)")
    inputs.add_argument("--categories", metavar="F", help="category inventory file")
    grammars = argparse.ArgumentParser(add_help=False, parents=[inputs])
    grammars.add_argument(
        "--grammar",
        dest="grammars",
        metavar="F",
        action="append",
        default=[],
        help="grammar file (repeatable)",
    )
    filters = argparse.ArgumentParser(add_help=False, parents=[grammars])
    filters.add_argument(
        "--limit", type=positive_int, default=lattice_mod.DEFAULT_PATH_LIMIT, metavar="N"
    )
    rendered = ["paths", "lattice", "dot"]

    parser = argparse.ArgumentParser(prog="locgram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_tag = sub.add_parser("tag", parents=[inputs], help="initial tagging of a text")
    p_tag.add_argument("--format", choices=rendered, default="paths")
    p_tag.add_argument("text", nargs="?", default="")
    p_apply = sub.add_parser("apply", parents=[filters], help="filter a text's lattice")
    p_apply.add_argument(
        "--sequential", action="store_true", help="apply grammars one after another"
    )
    p_apply.add_argument("--format", choices=rendered, default="lattice")
    p_apply.add_argument("text")
    p_check = sub.add_parser("check", parents=[grammars], help="zero-silence corpus check")
    p_check.add_argument("--format", choices=["report"], help="a JSON report instead of lines")
    p_check.add_argument("corpus")
    p_diff = sub.add_parser("diff-oracle", parents=[filters], help="filter vs oracle verdict")
    p_diff.add_argument("--seed", type=int, metavar="N")
    p_diff.add_argument("text", nargs="?")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (0) or a usage error (2)
        return 4 if exc.code else 0
    try:
        out, code = COMMANDS[args.command](args)
        if out:
            print(out)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        if code == 3:
            print("warning: every tagging was rejected", file=sys.stderr)
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    except Exception as exc:
        import traceback  # only a crash needs it; every CLI start would pay for it

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 6


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
