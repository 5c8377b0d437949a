#!/usr/bin/env python3
"""The mutant catalogue: deliberate faults in ``src/locgram`` and the
checks that must catch each one.

Each entry names a file under ``src/``, an exact snippet of it, the
faulty replacement, and the commands that must fail once it is in: test
ids, or a ``fuzz_differential.py`` mode and seed.  For each entry the
script copies ``src/`` to a temporary directory, applies the one
replacement there, and runs each command from the repository root (so the
tests that read ``perfbench/`` still find it) with ``PYTHONPATH`` pointing
at the copy.  Before that, every command must pass on an unmutated copy,
and each copy must be the ``locgram`` its children import.

An entry is ``killed`` when every command fails with exit 1 (a failed test
or a reported disagreement), and ``SURVIVED`` when one passes.  Any other
outcome is an ``ERROR``: a snippet not found exactly once (so a refactor
cannot quietly retire a mutant), a usage or collection error, a timeout.
A command must run the package in its own process; the tests that start
a child of their own point its ``PYTHONPATH`` at the ``locgram`` they
imported, so the child sees the mutated copy too.

    python scripts/mutants.py

Exits 0 when every entry is killed, 1 otherwise.  A claim that a check
kills a fault is made by adding an entry here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def tests(*ids: str) -> list[tuple[str, ...]]:
    """One command per test id, each of which must fail on its own."""
    return [("-m", "pytest", "-q", "-p", "no:cacheprovider", test_id) for test_id in ids]


def fuzz(mode: str, seed: int) -> list[tuple[str, ...]]:
    return [("scripts/fuzz_differential.py", "--seed", str(seed), "--mode", mode)]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    commands: list[tuple[str, ...]]


ENGINE, LATTICE, LEXICON = "locgram/engine.py", "locgram/lattice.py", "locgram/lexicon.py"
CLI, GRAMMAR, TAGS = "locgram/cli.py", "locgram/grammar.py", "locgram/tags.py"

CATALOGUE = [
    Mutant(
        "own-rule-without-input",  # rules A and B check the output alone
        ENGINE,
        "return [m >> k & m for m in self.masks]",
        "return [m >> k for m in self.masks]",
        tests(
            "tests/test_engine.py::TestSpecialCaseRules::test_rules_agree_on_fixture_paths",
            "tests/test_acceptance.py::test_criterion_6_special_case_agreement",
        ),
    ),
    Mutant(
        "witness-from-own-label",  # the general rule reads the edge's own input, not its span's
        ENGINE,
        "return [m >> k & span_or[span] for span, m in zip(spans, self.masks)]",
        "return [m >> k & m for span, m in zip(spans, self.masks)]",
        tests(
            "tests/test_engine.py::TestAccepts::test_general_rule_uses_same_span_witness",
            "tests/test_acceptance.py::test_criterion_3_worked_verdicts",
        ),
    ),
    Mutant(
        "witness-without-input",
        ENGINE,
        "return [m >> k & span_or[span] for span, m in zip(spans, self.masks)]",
        "return [m >> k for span, m in zip(spans, self.masks)]",
        tests("tests/test_acceptance.py::test_criterion_4_interaction_suite"),
    ),
    Mutant(
        "index-without-lands-final",  # no input sequence ever completes
        ENGINE,
        "lands_final = reduce(or_, (into[s] for s in g.finals), 0)",
        "lands_final = 0",
        tests(
            "tests/test_acceptance.py::test_criterion_3_worked_verdicts",
            "tests/test_acceptance.py::test_criterion_4_interaction_suite",
            "tests/test_acceptance.py::test_criterion_7_soundness_and_silence",
            "tests/test_cli.py::TestApply::test_empty_result_exits_3",
        ),
    ),
    Mutant(
        "walk-without-upper-bound",  # a path's edge looked up in its state's run and every later one
        ENGINE,
        "edges.index(e, starts[q], starts[q + 1])",
        "edges.index(e, starts[q])",
        tests("tests/test_engine.py::TestAccepts::test_rejects_foreign_path"),
    ),
    Mutant(
        "walk-without-lower-bound",  # a path's edge looked up in its state's run and every earlier one
        ENGINE,
        "edges.index(e, starts[q], starts[q + 1])",
        "edges.index(e, 0, starts[q + 1])",
        tests("tests/test_engine.py::TestAccepts::test_rejects_foreign_path"),
    ),
    Mutant(
        "matchable-shares-its-index",  # a caller's writes reach the engine's cached tables
        ENGINE,
        "return list(_tables(l, g).index)",
        "return _tables(l, g).index",
        tests("tests/test_engine.py::TestMatchable::test_result_is_the_callers_own"),
    ),
    Mutant(
        "filter-keeps-dead-edges",
        ENGINE,
        "kept = list(map(live.__getitem__, dsts))",
        "kept = [True] * len(dsts)",
        tests(
            "tests/test_engine.py::TestFilter::test_result_is_trim_on_fixture_pairs",
            "tests/test_engine.py::TestCanonicalForm::test_fixture_sentences",
        ),
    ),
    Mutant(
        "from-live-reversed-ties",  # edges of one span leave sort_key order
        LATTICE,
        "by_span = sorted(range(len(spans)), key=spans.__getitem__)",
        "by_span = sorted(reversed(range(len(spans))), key=spans.__getitem__)",
        tests(
            "tests/test_engine.py::TestCanonicalForm::test_fixture_sentences",
            "tests/test_engine.py::TestCanonicalForm::test_duplicate_parallel_edges",
        ),
    ),
    Mutant(
        "minimize-by-largest-member",  # classes ordered by each subset's largest state
        LATTICE,
        "smallest = [*range(n), *(m[0] for m in members)]",
        "smallest = [*range(n), *(m[-1] for m in members)]",
        tests("tests/test_lattice.py::TestMinimize::test_subset_sharing_its_smallest_member_with_a_singleton")
        + fuzz("general", 0),
    ),
    Mutant(
        "module-level-tag-cache",  # one surface's tags shared across lexicons
        LEXICON,
        "tags = lexicon.lookup(form)",
        "tags = build_initial_lattice.__dict__.setdefault(form, lexicon.lookup(form))",
        tests("tests/test_engine.py::TestCanonicalForm::test_lexicons_sharing_surfaces"),
    ),
    Mutant(
        "fold-every-word",  # every word's leading capital folded, not the first word's alone
        LEXICON,
        "                forms[i] = token[0].lower() + token[1:]\n            break\n",
        "                forms[i] = token[0].lower() + token[1:]\n",
        tests("tests/test_lexicon.py::TestTokenize::test_fold_applies_to_first_word_only"),
    ),
    Mutant(
        "unknown-word-folded",  # an unknown word named by its lookup form, not as written
        LEXICON,
        "UnknownWordError(tokens[i], i)",
        "UnknownWordError(form, i)",
        tests("tests/test_cli.py::TestCheck::test_unknown_word_is_named_as_written_at_its_position"),
    ),
    Mutant(
        "tail-memo-by-category",  # a code tail's parse reused for every tail of its category
        LEXICON,
        "    tail = parsed.get(codes)\n"
        "    if tail is None:\n"
        '        groups = codes.split(":")\n',
        '    groups = codes.split(":")\n'
        "    tail = parsed.get(groups[0])\n"
        "    if tail is None:\n"
        "        codes = groups[0]\n",
        tests(
            "tests/test_lexicon.py::TestLoadLexicon::test_each_line_loads_as_if_alone[bundled]",
            "tests/test_lexicon.py::TestLoadLexicon::test_each_line_loads_as_if_alone[generated]",
        ),
    ),
    Mutant(
        "dot-top-to-bottom",  # DOT drawings laid out top to bottom
        LATTICE,
        '"  rankdir=LR;"',
        '"  rankdir=TB;"',
        tests("tests/test_cli.py::TestCommittedScriptOutputs::test_stdout_matches_expected_file[output_digest]"),
    ),
    Mutant(
        "union-initial-never-final",  # a member's final initial state renamed to the shared final
        GRAMMAR,
        '        if s == g.initial:\n            return "I"\n        if s in g.finals:\n            return "F"\n',
        '        if s in g.finals:\n            return "F"\n        if s == g.initial:\n            return "I"\n',
        tests("tests/test_grammar.py::TestUnion::test_member_accepting_the_empty_sequence"),
    ),
    Mutant(
        "features-unranked",  # feature codes written in plain character order
        TAGS,
        "(_RANK.get(a, 0), a)",
        "(0, a)",
        tests("tests/test_tags.py::test_feature_formatting_order"),
    ),
    Mutant(
        "dataclasses-imported",  # a CLI process imports dataclasses and the modules it pulls in
        TAGS,
        "from collections import namedtuple\n",
        "import dataclasses\nfrom collections import namedtuple\n",
        tests("tests/test_cli.py::TestStartup::test_cli_imports_neither_dataclasses_nor_inspect"),
    ),
    Mutant(
        "overflow-exits-4",  # an enumeration overflow reported as malformed input
        CLI,
        "EnumerationOverflow: 5",
        "EnumerationOverflow: 4",
        tests("tests/test_cli.py::TestApply::test_long_sentence_overflow_exits_5"),
    ),
]


def _copy(root: Path, mutant: Mutant | None) -> Path:
    """``src/`` under ``root``, with ``mutant`` applied; raises ValueError
    when its snippet is not found exactly once."""
    src = root / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            raise ValueError(f"snippet found {count} times in src/{mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _run(src: Path, command: tuple[str, ...]) -> int | str:
    """The command's exit code with ``src`` first on the path, or ``"timeout"``."""
    try:
        proc = subprocess.run(
            [sys.executable, *command], cwd=ROOT, env=_env(src), capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return proc.returncode


def _imports_copy(src: Path) -> bool:
    probe = [sys.executable, "-c", "import locgram; print(locgram.__file__)"]
    out = subprocess.run(probe, cwd=ROOT, env=_env(src), capture_output=True, text=True).stdout.strip()
    return bool(out) and Path(out).resolve().is_relative_to(src.resolve())


def _verdict(mutant: Mutant | None, commands: list[tuple[str, ...]]) -> tuple[str, str]:
    """``(outcome, detail)`` of running ``commands`` on a copy with ``mutant``."""
    with tempfile.TemporaryDirectory(prefix="locgram-mutant-") as tmp:
        try:
            src = _copy(Path(tmp), mutant)
        except ValueError as exc:
            return "ERROR", str(exc)
        if not _imports_copy(src):
            return "ERROR", "the children do not import the copy"
        codes = [(_run(src, c), c) for c in commands]
    if mutant is None:
        bad = [f"exit {code}: {' '.join(c)}" for code, c in codes if code != 0]
        return ("ERROR", "; ".join(bad)) if bad else ("passed", f"{len(codes)} commands")
    survived = [" ".join(c) for code, c in codes if code == 0]
    if survived:
        return "SURVIVED", "passed: " + "; ".join(survived)
    errors = [f"exit {code}: {' '.join(c)}" for code, c in codes if code != 1]
    if errors:
        return "ERROR", "; ".join(errors)
    return "killed", f"{len(codes)} of {len(codes)} commands failed"


def main() -> int:
    start = time.perf_counter()
    baseline = list(dict.fromkeys(c for m in CATALOGUE for c in m.commands))
    outcome, detail = _verdict(None, baseline)
    print(f"{outcome:8s} unmutated: {detail}", flush=True)
    failed = outcome != "passed"
    for m in CATALOGUE:
        outcome, detail = _verdict(m, m.commands)
        print(f"{outcome:8s} {m.name}: {detail}", flush=True)
        failed |= outcome != "killed"
    print(f"{len(CATALOGUE)} entries in {time.perf_counter() - start:.1f} s")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
