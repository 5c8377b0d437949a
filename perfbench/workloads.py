"""The benchmark's workloads.

Each workload writes its seeded inputs as plain lexicon, grammar, corpus and
text files, sets the program up from those files, checks the program's
outputs outside the timed region, and exposes one op for the closed loop.
Spans are recorded here, around calls into locgram's public functions.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen
from harness import OutputMismatch, count_paths, digest, log10_int, now_ns

from locgram import engine, lattice
from locgram.grammar import load_grammar, union
from locgram.lexicon import build_initial_lattice, load_categories, load_lexicon, tokenize

HERE = Path(__file__).resolve().parent
# filter_oracle enumerates every path; the sample it checks stays below this.
ORACLE_PATH_CAP = 2000


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _ms(ns: int, n: int) -> float:
    return ns / 1e6 / n if n else 0.0


def language_contains(l, labels) -> bool:
    """Whether some initial-to-final path of ``l`` spells ``labels``."""
    states = {l.initial}
    for label in labels:
        states = {e.dst for q in states for e in l.edges_by_source[q] if e.label == label}
        if not states:
            return False
    return l.final in states


def random_path(rng: random.Random, l) -> tuple:
    """A uniformly chosen edge at each state, from initial to final; every
    state but the final one of an initial or trimmed lattice has one."""
    path, q = [], l.initial
    while q != l.final:
        edge = rng.choice(l.edges_by_source[q])
        path.append(edge)
        q = edge.dst
    return tuple(path)


def verdict_problem(g, l, f, paths, what: str) -> str | None:
    """The acceptance rule (``accepts``, path by path) and the product
    filter's result ``f`` must agree on every path in ``paths``."""
    for p in paths:
        if engine.accepts(g, p, l) != language_contains(f, lattice.path_labels(p)):
            return f"accepts and filter disagree on {what}"
    return None


def oracle_problem(g, l, what: str) -> str | None:
    """Product filtering must keep exactly the paths the brute-force
    oracle keeps."""
    try:
        equal = lattice.language_equal(engine.filter(g, l), engine.filter_oracle(g, l))
    except Exception as exc:  # reported as a gate failure
        return f"{what}: {type(exc).__name__}: {exc}"
    return None if equal else f"filter and filter_oracle disagree on {what}"


class InProcessWorkload:
    """Setup is reading and loading the lexicon and the grammars, then
    combining the grammars; one process, no threads."""

    setup_runs = 5

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: dict):
        self.workdir = workdir
        self.seed = seed
        self.sizes = {**self.SIZES, **sizes}
        self.grammar_files: list[Path] = []
        self.lexicon = None
        self.grammar = None

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{stream}:{self.seed}")

    def write_language(self) -> gen.Language:
        language = gen.make_language(
            self.rng("lexicon"), self.sizes["lexicon_words"], self.sizes["lexicon_compounds"]
        )
        _write(self.workdir / "lexicon.dic", "\n".join(language.lines) + "\n")
        shutil.copyfile(gen.DATA / "categories.txt", self.workdir / "categories.txt")
        for name, text in gen.bundled_grammar_texts().items():
            self.grammar_files.append(_write(self.workdir / "grammars" / name, text))
        return language

    def setup(self) -> dict:
        self.lexicon = self.grammar = None  # one loaded copy at a time
        t0 = time.perf_counter()
        categories = load_categories(_read(self.workdir / "categories.txt").splitlines())
        lines = _read(self.workdir / "lexicon.dic").splitlines()
        lexicon = load_lexicon(lines, categories)
        t1 = time.perf_counter()
        grammars = [load_grammar(_read(p), categories) for p in self.grammar_files]
        t2 = time.perf_counter()
        combined = union(grammars)
        t3 = time.perf_counter()
        self.lexicon, self.grammar = lexicon, combined
        self.by_file = {p.name: g for p, g in zip(self.grammar_files, grammars)}
        return {
            "total_s": t3 - t0,
            "lexicon_s": t1 - t0,
            "lexicon_lines": len(lines),
            "grammar_load_s": t2 - t1,
            "union_s": t3 - t2,
        }

    def traced(self, tracer):
        return contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def lattice_of(self, text: str):
        return build_initial_lattice(tokenize(text), self.lexicon)


class ApplyLong(InProcessWorkload):
    """Document-scale texts filtered by the union of the bundled grammars,
    then serialised, minimised and serialised again."""

    name = "apply-long"
    SIZES = {
        "lexicon_words": 28000,
        "lexicon_compounds": 3000,
        "documents": 16,
        "document_tokens": 800,
        "crosscheck_sentences": 40,
        "oracle_sentences": 3,
    }

    def write_inputs(self) -> None:
        language = self.write_language()
        rng = self.rng("documents")
        self.docs = []
        for k in range(self.sizes["documents"]):
            doc = gen.make_document(rng, language, self.sizes["document_tokens"])
            path = _write(self.workdir / "texts" / f"doc-{k}.txt", doc.text)
            self.docs.append((_read(path), doc.segments))

    def reference(self) -> list[str]:
        """Expected output digests, one untimed op per document.  Each
        document is a concatenation of sentences no grammar input can cross,
        so its filtered and minimised path counts must equal the products of
        the per-sentence counts.  The acceptance rule (``accepts``) must
        agree with the product filter on random paths of a seeded sample of
        sentences, on paths the filter kept, and on the worked golds; and
        product filtering must match the enumeration oracle."""
        g = self.grammar
        problems = []
        self.expected = []
        self.doc_paths = []
        per_sentence: dict[str, tuple[int, int, int]] = {}
        for k, (text, segments) in enumerate(self.docs):
            self.expected.append(None)
            self.doc_paths.append((0.0, 0.0))
            try:
                l = self.lattice_of(text)
                f = engine.filter(g, l)
                m = lattice.minimize(f)
                self.expected[k] = (digest(lattice.to_json(f)), digest(lattice.to_json(m)))
                self.doc_paths[k] = (log10_int(count_paths(l)), log10_int(count_paths(f)))
                product_f = product_m = 1
                for sentence in segments:
                    if sentence not in per_sentence:
                        sl = self.lattice_of(sentence)
                        sf = engine.filter(g, sl)
                        per_sentence[sentence] = (
                            count_paths(sl), count_paths(sf), count_paths(lattice.minimize(sf))
                        )
                    _, n_f, n_m = per_sentence[sentence]
                    product_f *= n_f
                    product_m *= n_m
            except Exception as exc:  # reported; the timed ops still run
                problems.append(f"doc {k}: {type(exc).__name__}: {exc}")
                continue
            if count_paths(f) != product_f or count_paths(m) != product_m:
                problems.append(f"doc {k}: path counts are not the product of its sentences'")
        rng = self.rng("sample")
        for sentence in rng.sample(sorted(per_sentence), min(len(per_sentence), self.sizes["crosscheck_sentences"])):
            try:
                l = self.lattice_of(sentence)
                f = engine.filter(g, l)
                paths = [random_path(rng, l) for _ in range(2)]
                if not f.is_empty_language():
                    kept = (lattice.path_labels(random_path(rng, f)) for _ in range(2))
                    paths += [engine.resolve_tag_sequence(l, labels) for labels in kept]
                problem = verdict_problem(g, l, f, paths, repr(sentence))
            except Exception as exc:
                problem = f"{sentence!r}: {type(exc).__name__}: {exc}"
            if problem:
                problems.append(problem)
        for name, (text, golds) in gen.WORKED.items():
            try:
                l = self.lattice_of(text)
                categories = self.lexicon.categories
                paths = [engine.resolve_tag_sequence(l, engine.parse_tag_sequence(gold, categories)) for gold in golds]
                problem = verdict_problem(g, l, engine.filter(g, l), paths, f"the worked golds of {name}")
            except Exception as exc:
                problem = f"worked golds of {name}: {type(exc).__name__}: {exc}"
            if problem:
                problems.append(problem)
        small = sorted(s for s, (n, _, _) in per_sentence.items() if n <= ORACLE_PATH_CAP)
        for sentence in rng.sample(small, min(len(small), self.sizes["oracle_sentences"])):
            problem = oracle_problem(g, self.lattice_of(sentence), repr(sentence))
            if problem:
                problems.append(problem)
        return problems

    def op(self, i: int, tr) -> None:
        k = i % len(self.docs)
        text = self.docs[k][0]
        g = self.grammar
        with tr.span("lexicon.tokenize"):
            tokens = tokenize(text)
        with tr.span("lexicon.build_initial_lattice") as build:
            l = build_initial_lattice(tokens, self.lexicon)
        if tr.enabled:
            build.count(tokens=len(tokens), edges=len(l.edges))
            with tr.span("engine.matchable"):
                engine.matchable(l, g)
        with tr.span("engine.filter") as filt:
            f = engine.filter(g, l)
        with tr.span("lattice.to_json"):
            filtered_json = lattice.to_json(f)
        with tr.span("lattice.minimize") as mini:
            m = lattice.minimize(f)
        with tr.span("lattice.to_json"):
            minimal_json = lattice.to_json(m)
        if tr.enabled:
            paths_in, paths_out = self.doc_paths[k]
            filt.count(edges_in=len(l.edges), edges_out=len(f.edges),
                       paths_log10_in=paths_in, paths_log10_out=paths_out)
            mini.count(edges_in=len(f.edges), edges_out=len(m.edges))
        if (digest(filtered_json), digest(minimal_json)) != self.expected[k]:
            raise OutputMismatch(f"document {k}: output differs from the reference run")

    def layer_metrics(self, stats, n_ops: int) -> dict:
        def ms(name):
            return _ms(stats[name].self_ns, n_ops) if name in stats else 0.0

        build = stats["lexicon.build_initial_lattice"].counts
        filt = stats["engine.filter"]
        mini = stats["lattice.minimize"].counts
        calls = filt.calls or 1
        return {
            "lexicon.tokenize_ms": ms("lexicon.tokenize"),
            "lexicon.build_initial_lattice_ms": ms("lexicon.build_initial_lattice"),
            "lexicon.edges_per_token": build["edges"] / max(build["tokens"], 1),
            "engine.matchable_ms": ms("engine.matchable"),
            "engine.filter_ms": ms("engine.filter"),
            "engine.filter.edges_in": filt.counts["edges_in"] / calls,
            "engine.filter.edges_out": filt.counts["edges_out"] / calls,
            "engine.filter.edge_keep_ratio": filt.counts["edges_out"] / max(filt.counts["edges_in"], 1),
            "engine.filter.paths_log10_in": filt.counts["paths_log10_in"] / calls,
            "engine.filter.paths_log10_out": filt.counts["paths_log10_out"] / calls,
            "lattice.minimize_ms": ms("lattice.minimize"),
            "lattice.to_json_ms": ms("lattice.to_json"),
            "lattice.minimize.edge_ratio": mini["edges_out"] / max(mini["edges_in"], 1),
        }


# engine.silence_check steps timed in the traced run: the name silence_check
# calls, and the span it is recorded under.
_CHECK_STEPS = {
    "tokenize": "lexicon.tokenize",
    "build_initial_lattice": "lexicon.build_initial_lattice",
    "parse_tag_sequence": "engine.parse_tag_sequence",
    "resolve_tag_sequence": "engine.resolve_tag_sequence",
    "decompose": "engine.decompose",
}


class CheckCorpus(InProcessWorkload):
    """Zero-silence checking of many short sentences against a large grammar
    set and a large lexicon, one sentence per op."""

    name = "check-corpus"
    SIZES = {
        "lexicon_words": 28000,
        "lexicon_compounds": 3000,
        "synthetic_grammars": 56,
        "sentences": 1000,
        "random_gold_share": 0.25,
        "crosscheck_sentences": 40,
        "oracle_sentences": 4,
    }

    def write_inputs(self) -> None:
        language = self.write_language()
        rng = self.rng("grammars")
        for k in range(self.sizes["synthetic_grammars"]):
            text = gen.synthetic_grammar(rng, language, k)
            self.grammar_files.append(_write(self.workdir / "grammars" / f"synthetic-{k}.json", text))
        rng = self.rng("corpus")
        items = [
            gen.make_corpus_item(rng, language, self.sizes["random_gold_share"])
            for _ in range(self.sizes["sentences"])
        ]
        path = _write(self.workdir / "corpus.txt", gen.corpus_text(items))
        self.corpus = engine.load_corpus(_read(path).splitlines())

    def check(self, g, item) -> str:
        return "\n".join(engine.silence_check(g, [item], self.lexicon).lines())

    def reference(self) -> list[str]:
        """Expected report digests, one untimed op per sentence.  On a
        seeded sample, the silence verdict must match membership of the gold
        path in the product filter's result, and product filtering must
        match the enumeration oracle.  The paper's worked verdicts hold
        whatever the seed."""
        g = self.grammar
        problems = []
        self.expected = []
        for item in self.corpus:
            try:
                report = self.check(g, item)
            except Exception as exc:  # reported; the timed ops still run
                problems.append(f"{item.sentence_id}: {type(exc).__name__}: {exc}")
                report = None
            if report is not None and "CORPUS-ERROR" in report:
                problems.append(f"{item.sentence_id}: {report}")
            self.expected.append(None if report is None else digest(report))
        sample = self.rng("sample").sample(self.corpus, self.sizes["crosscheck_sentences"])
        oracle_budget = self.sizes["oracle_sentences"]
        for item in sample:
            try:
                l = self.lattice_of(item.text)
                path = engine.resolve_tag_sequence(
                    l, engine.parse_tag_sequence(item.gold, self.lexicon.categories)
                )
                kept = language_contains(engine.filter(g, l), lattice.path_labels(path))
                silenced = "SILENCE" in self.check(g, item)
                oracle = None
                if oracle_budget and count_paths(l) <= ORACLE_PATH_CAP:
                    oracle_budget -= 1
                    oracle = oracle_problem(g, l, item.sentence_id)
            except Exception as exc:
                problems.append(f"{item.sentence_id}: {type(exc).__name__}: {exc}")
                continue
            if kept == silenced:
                problems.append(f"{item.sentence_id}: silence_check and filter disagree")
            if oracle:
                problems.append(oracle)
        for name, gold_index, files, accepted in gen.WORKED_VERDICTS:
            text, golds = gen.WORKED[name]
            members = [self.by_file[f] for f in files]
            grammar = members[0] if len(members) == 1 else union(members)
            item = engine.CorpusItem(name, text, golds[gold_index])
            try:
                silenced = "SILENCE" in self.check(grammar, item)
            except Exception as exc:
                problems.append(f"worked verdict {name}: {type(exc).__name__}: {exc}")
                continue
            if silenced == accepted:
                problems.append(f"worked verdict differs: {name} gold {gold_index} under {files}")
        return problems

    def op(self, i: int, tr) -> None:
        k = i % len(self.corpus)
        with tr.span("engine.silence_check") as span:
            report = engine.silence_check(self.grammar, [self.corpus[k]], self.lexicon)
        text = "\n".join(report.lines())
        if report.violations:
            span.rename("engine.silence_check.rejected")
        if digest(text) != self.expected[k]:
            raise OutputMismatch(f"sentence {k}: report differs from the reference run")

    @contextlib.contextmanager
    def traced(self, tracer):
        """Route silence_check's own calls through spans for the traced
        phase only."""
        originals = {name: getattr(engine, name) for name in _CHECK_STEPS}

        def wrap(name, fn):
            def timed(*args, **kwargs):
                with tracer.span(_CHECK_STEPS[name]) as span:
                    out = fn(*args, **kwargs)
                if name == "build_initial_lattice":
                    span.count(tokens=len(args[0]), edges=len(out.edges))
                elif name == "decompose":
                    span.count(accepted=out is not None)
                return out

            return timed

        try:
            for name, fn in originals.items():
                setattr(engine, name, wrap(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(engine, name, fn)

    def layer_metrics(self, stats, n_ops: int) -> dict:
        def ms(name):
            return _ms(stats[name].self_ns, n_ops) if name in stats else 0.0

        build = stats["lexicon.build_initial_lattice"].counts
        decompose = stats["engine.decompose"]
        rejected = stats["engine.silence_check.rejected"]
        return {
            "lexicon.tokenize_ms": ms("lexicon.tokenize"),
            "lexicon.build_initial_lattice_ms": ms("lexicon.build_initial_lattice"),
            "lexicon.edges_per_token": build["edges"] / max(build["tokens"], 1),
            "engine.parse_tag_sequence_ms": ms("engine.parse_tag_sequence"),
            "engine.resolve_tag_sequence_ms": ms("engine.resolve_tag_sequence"),
            "engine.decompose_ms": ms("engine.decompose"),
            "engine.decompose.accept_ratio": decompose.counts["accepted"] / max(decompose.calls, 1),
            "engine.diagnose_ms": _ms(rejected.self_ns, rejected.calls),
        }


class CliEditLoop:
    """A grammar author's loop: one ``python -m locgram`` child per op on the
    bundled data, outputs checked against committed digests."""

    name = "cli-edit-loop"
    setup_runs = 9
    SIZES: dict = {}
    EXPECTED = HERE / "cli_expected.json"

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: dict):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def write_inputs(self) -> None:
        self.commands = gen.cli_catalogue()
        random.Random(f"cli:{self.seed}").shuffle(self.commands)
        self.expected = json.loads(_read(self.EXPECTED))

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env, capture_output=True, timeout=60
        )

    def setup(self) -> dict:
        t0 = time.perf_counter()
        proc = self._run(["-c", "import locgram.cli"])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import locgram.cli failed: {proc.stderr.decode()[-500:]}")
        return {"total_s": elapsed}

    def reference(self) -> list[str]:
        missing = [c for c in self.commands if gen.cli_key(c) not in self.expected]
        return [f"no expected output for {gen.cli_key(c)}" for c in missing]

    def traced(self, tracer):
        return contextlib.nullcontext()

    def op(self, i: int, tr) -> None:
        argv = self.commands[i % len(self.commands)]
        if tr.enabled:
            times_file = self.workdir / "cli-times.json"
            spawn = now_ns()
            proc = self._run([str(HERE / "cli_probe.py"), str(times_file), *argv])
            end = now_ns()
            times = json.loads(_read(times_file))
            times_file.unlink()
            process = tr.add("cli.process", spawn, end)
            tr.add("cli.interpreter", spawn, times["start"], process)
            tr.add("cli.import", *times["import"], process)
            tr.add(f"cli.main.{argv[0]}", *times["main"], process)
        else:
            proc = self._run(["-m", "locgram", *argv])
        want = self.expected[gen.cli_key(argv)]
        if proc.returncode != want["exit"] or digest(proc.stdout) != want["stdout_sha256"]:
            raise OutputMismatch(
                f"{argv[0]}: exit {proc.returncode}, expected {want['exit']}; "
                f"stderr {proc.stderr.decode()[-200:]!r}"
            )

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_metrics(self, stats, n_ops: int) -> dict:
        def mean_ms(name):
            return _ms(stats[name].total_ns, stats[name].calls) if name in stats else 0.0

        metrics = {
            "cli.interpreter_ms": mean_ms("cli.interpreter"),
            "cli.import_ms": mean_ms("cli.import"),
            "cli.process_ms": mean_ms("cli.process"),
        }
        for command in ("tag", "apply", "check", "diff-oracle"):
            metrics[f"cli.main_ms.{command}"] = mean_ms(f"cli.main.{command}")
        return metrics


WORKLOADS = {w.name: w for w in (ApplyLong, CheckCorpus, CliEditLoop)}


def write_cli_expected(root: Path) -> None:
    """Record the stdout digest and exit code of every catalogue command at
    the current commit (run when the CLI output contract changes on purpose)."""
    loop = CliEditLoop(root, root, 0, {})
    expected = {}
    for argv in gen.cli_catalogue():
        proc = loop._run(["-m", "locgram", *argv])
        expected[gen.cli_key(argv)] = {"exit": proc.returncode, "stdout_sha256": digest(proc.stdout)}
    _write(CliEditLoop.EXPECTED, json.dumps(expected, ensure_ascii=False, indent=1) + "\n")
