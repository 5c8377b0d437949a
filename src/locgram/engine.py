"""Acceptance of tag sequences under a grammar, lattice filtering, and
zero-silence checking.

A complete tag sequence (a lattice path) is accepted when it can be cut
into consecutive, non-overlapping portions of two kinds:

* a *matched portion* follows one initial-to-final transducer path,
  conforming edge by edge to the output labels, while some tagging of the
  same text span conforms to the paired input labels;
* a *free portion* is one single edge such that no tagging of the text
  starting there conforms to any complete input sequence of the grammar.

The free-portion condition looks beyond the tag at hand: it quantifies
over every analysis the lattice still admits from that state.  Filtering
therefore never eliminates a sequence the grammar accepts, whatever the
other sequences are.

Two restricted rules are available when the grammar's shape allows them.
Rule B, when conformity to each output implies conformity to its input,
lets a matched portion check its own tags against the inputs directly.
Rule A, for grammars with only surface-form inputs, is rule B's walk
under a stricter precondition: every such grammar passes rule B's, and
its input masks are the literal lookup of each edge's written form.

Conformity is decided on integers.  Each grammar has one conformity
table (``LocalGrammar.masks``) that maps a label, in one call, to one
mask: the bits of the transition inputs it can satisfy, then of the
outputs; ``tags.conforms`` stays the reference predicate it must agree
with.  Each step of a matched portion is then one ``&`` of the edge's
output half, its span's input half and the transition's bit.

One holder, ``_Tables``, keeps the tables of a lattice and grammar, each
built on first use: one mask per edge, witness masks (general rule) and
own-tag masks (rules A and B), each a flat int list aligned with the
lattice's edge arrays, and the one matchable index, a bool per state,
that every rule reads.  The tables and ``filter`` read only the
arrays and make no ``Edge``.  A state's edges are one run of indices
(``Lattice._starts``), so a walk over them reads a range, and one
``tuple.index`` over its source's run finds a path's ``Edge``.  Every
verdict reads the holder.  The engine keeps one slot, the holder of the
last pair, matched by identity, never by hash, which would hash every
label: checking many paths of one lattice builds its tables once, and at
most one lattice's tables outlive a call.  A cache on the lattice would
keep tables for every grammar it meets, and make the work of a call
depend on the calls before it.

A path's verdict, its witness and a rejected path's silence span come
from one forward walk over its positions, ``_walk``.  Every walk is
iterative, over lattice states in topological order or path positions in
order, so no sentence length meets Python's recursion limit.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import CorpusFormatError, TagFormatError, UnknownWordError
from .grammar import GrammarClass, LocalGrammar, classify
from .lattice import DEFAULT_PATH_LIMIT, Edge, Lattice, Path, _reached, all_paths, path_labels
from .lexicon import Lexicon, _content_lines, build_initial_lattice, tokenize
from .tags import SEPARATOR_CHARS, EdgeLabel, Separator, parse_label


class MatchedBlock(NamedTuple):
    """A transducer-covered portion: edge positions [start, end) of the
    path, with the (input, output) pair consumed at each position."""

    start: int
    end: int
    pairs: tuple


class FreeBlock(NamedTuple):
    """A single-edge portion at this path position."""

    position: int


class Decomposition(NamedTuple):
    """A witness partition of a path into matched and free portions."""

    blocks: tuple


class _Tables:
    """The tables of one (lattice, grammar) pair: one int per edge, aligned
    with ``l``'s edge arrays, or one bool per state (``index``).  A matched
    portion's step over an edge needs its output to conform to the edge's
    label, and its input to some label on the same span (``witness``, the
    general rule) or to the edge's own label (``own``, rules A and B).
    With ``k`` transitions, ``m >> k`` is a mask's output half, and
    ``m >> k & x`` keeps only input bits of ``x``, as ``m >> k < 2**k``."""

    last: _Tables | None = None  # the engine's one slot

    def __init__(self, l: Lattice, g: LocalGrammar):
        self.l, self.g = l, g

    @cached_property
    def masks(self) -> list[int]:
        """Input bits, then output bits (see ``LocalGrammar.masks``): one mask per edge."""
        return list(map(self.g.masks.mask, self.l.labels))

    @cached_property
    def index(self) -> list[bool]:
        """Per lattice state: does some path from it match a complete input
        sequence of the grammar, an edge taking the transitions whose input
        bit is set in its mask?  A backward pass: every step consumes an
        edge and states are numbered in topological order, so a state's
        successors are settled before it, whatever cycles the grammar has.
        ``lands[q]`` holds the bits of the transitions into grammar states
        from which some path out of lattice state ``q`` completes an input
        sequence: input bits only, so and-ing it with a mask reads the
        mask's input half."""
        l, g, masks = self.l, self.g, self.masks
        into = dict.fromkeys(g.states, 0)
        leaving = dict.fromkeys(g.states, 0)
        for i, t in enumerate(g.transitions):
            into[t.dst] |= 1 << i
            leaving[t.src] |= 1 << i
        lands_final = reduce(or_, (into[s] for s in g.finals), 0)
        non_final = [(leaving[s], into[s]) for s in g.states if s not in g.finals]
        dsts, starts = l.dsts, l._starts
        lands = [0] * l.n_states
        live = [0] * l.n_states  # per state: the transitions some path out of it can take
        lands_of: dict[int, int] = {}  # ``lands`` as a function of ``live``, per value met
        for q in range(l.n_states - 1, -1, -1):
            bits = 0
            for i in range(starts[q], starts[q + 1]):
                bits |= masks[i] & lands[dsts[i]]
            live[q] = bits
            lands[q] = lands_of.get(bits)
            if lands[q] is None:
                lands[q] = lands_of[bits] = reduce(
                    or_, (in_bits for out_bits, in_bits in non_final if out_bits & bits), lands_final
                )
        if g.initial in g.finals:
            return [True] * l.n_states
        start = leaving[g.initial]
        return [bool(start & bits) for bits in live]

    @cached_property
    def witness(self) -> list[int]:
        """Each edge's output mask, and-ed with the union of its span's
        masks (a span: every edge from its source to its target)."""
        n, k = self.l.n_states, len(self.g.transitions)
        spans = [src * n + dst for src, dst in zip(self.l.srcs, self.l.dsts)]
        span_or: dict[int, int] = {}
        for span, m in zip(spans, self.masks):
            span_or[span] = span_or.get(span, 0) | m
        return [m >> k & span_or[span] for span, m in zip(spans, self.masks)]

    @cached_property
    def own(self) -> list[int]:
        k = len(self.g.transitions)
        return [m >> k & m for m in self.masks]


def _tables(l: Lattice, g: LocalGrammar) -> _Tables:
    """The last call's holder if it was for these very objects, else a new one."""
    t = _Tables.last
    if t is None or t.l is not l or t.g is not g:
        t = _Tables.last = _Tables(l, g)
    return t


def matchable(l: Lattice, g: LocalGrammar) -> list[bool]:
    """Per lattice state: does some admitted tagging from it conform to a
    complete input sequence of the grammar?  A copy of the engine's own list."""
    return list(_tables(l, g).index)


def _walk(t: _Tables, p: Sequence[Edge], masks: list[int]) -> tuple:
    """The one forward walk over path ``p`` of ``t.l``: each edge's entry
    in ``masks``, and ``via[j]``, the first ``(start, block)`` found to
    end at position ``j`` when scanning reached positions from the left
    (None while unreached).  Free portions start where ``t.index`` is
    false, where no matched portion can; matched portions take the
    transitions ``masks`` allows: checking the path's own tags against
    inputs, or any same-span edge (the witness table), which realizes
    equivalence: same text, same delimitation.  One ``tuple.index`` over
    its source's run finds each path edge; equal edges there have equal
    masks, so any of them gives the same walk."""
    edges, starts, index = t.l.edges, t.l._starts, t.index
    q, ok, free = t.l.initial, [], []
    for e in p:
        try:
            i = edges.index(e, starts[q], starts[q + 1])
        except ValueError:
            raise ValueError(f"edge {e!r} does not continue a path of the lattice") from None
        ok.append(masks[i])
        free.append(not index[q])
        q = e.dst
    if q != t.l.final:
        raise ValueError("sequence does not join the initial state to the final state")
    via: list[tuple | None] = [()] + [None] * len(ok)
    for i, is_free in enumerate(free):
        if via[i] is None:
            continue
        for end, pairs in [(i + 1, ())] if is_free else _portion_walk(t.g, ok, i)[0]:
            if via[end] is None:
                via[end] = (i, FreeBlock(i) if is_free else MatchedBlock(i, end, pairs))
    return ok, via


def _decompose(t: _Tables, p: Sequence[Edge], masks: list[int]) -> Decomposition | None:
    """The witness ``_walk`` found, read backwards from the path's end."""
    _, via = _walk(t, p, masks)
    blocks, j = [], len(via) - 1
    while j and via[j] is not None:
        j, block = via[j]
        blocks.append(block)
    return None if j else Decomposition(tuple(reversed(blocks)))


def decompose(g: LocalGrammar, p: Path, l: Lattice) -> Decomposition | None:
    """Witness partition under the general rule, or None when rejected.
    Any valid partition would do.  This one is read back from the path's
    end: the block that ends at each position is the one with the leftmost
    start that earlier blocks reach."""
    t = _tables(l, g)
    return _decompose(t, p, t.witness)


def accepts(g: LocalGrammar, p: Path, l: Lattice) -> bool:
    """General acceptance rule; ``p`` must be a path of ``l``."""
    return decompose(g, p, l) is not None


def accepts_case_a(g: LocalGrammar, p: Path, l: Lattice) -> bool:
    """Restricted rule for grammars whose inputs are all literal forms:
    matched portions check their own tags against input and output, free
    portions require the raw text to match no input sequence.  This is rule
    B's walk (see the module docstring): a compound tag's surface holds a
    space or a separator, so no surface form matches it, and neither does
    a hand-built ``CompleteTag(compound=True)`` with a simple surface,
    which no constructor in the package makes (``tags.conforms``)."""
    if classify(g) is not GrammarClass.SIMPLE_INPUTS:
        raise ValueError("rule requires a grammar with only surface-form inputs")
    return accepts_case_b(g, p, l)


def accepts_case_b(g: LocalGrammar, p: Path, l: Lattice) -> bool:
    """Restricted rule for grammars where conformity to each output label
    implies conformity to its input label (literal inputs included)."""
    if classify(g) is GrammarClass.GENERAL:
        raise ValueError("rule requires output labels that imply their input labels")
    t = _tables(l, g)
    return _decompose(t, p, t.own) is not None


_FREE = None  # product mode marker for "between portions"


def filter(g: LocalGrammar, l: Lattice) -> Lattice:
    """Lattice whose paths are exactly the accepted paths of ``l``.

    Product of the lattice with the portion structure: states are
    (lattice state, mode) where mode is free or an in-portion transducer
    state; free moves need an unmatchable source state, portion moves
    follow the transducer checking outputs against the edge and inputs
    against same-span edges of the original lattice.  No portion starts
    at an unmatchable state: a witness bit says that some edge of the
    same span conforms to the transition's input, so a portion completed
    from ``q`` would be an input walk from ``q``, and ``index[q]`` would
    be true; every product state such a start would reach is dead, and
    none is made.  One backward ``_reached`` walk from the goal drops the
    product edges on no start-to-goal path, and ``Lattice._from_live``
    makes the canonical lattice of the rest, in their order.  An empty
    result is permitted; callers can test ``is_empty_language``.
    """
    t = _tables(l, g)
    index, portion = t.index, t.witness
    finals = g.finals
    lattice_dsts, lattice_labels, starts = l.dsts, l.labels, l._starts

    # Product states are numbered in discovery order; ``states`` is also
    # the breadth-first worklist, which the loop extends as it walks it.
    states = [(l.initial, _FREE)]
    number = {states[0]: 0}
    srcs, dsts, labels = [], [], []  # product edge k: (srcs[k], dsts[k], labels[k])
    for src, (q, mode) in enumerate(states):
        free = mode is _FREE and not index[q]  # between portions, at an unmatchable state
        moves = g.steps[g.initial if mode is _FREE else mode]
        for i in range(starts[q], starts[q + 1]):
            q_dst, ok = lattice_dsts[i], portion[i]
            targets = [(q_dst, _FREE)] if free else []
            if ok and not free:
                for bit, tr in moves:
                    if ok & bit:
                        targets.append((q_dst, tr.dst))
                        if tr.dst in finals:
                            targets.append((q_dst, _FREE))
            for target in targets:
                dst = number.get(target)
                if dst is None:
                    dst = number[target] = len(states)
                    states.append(target)
                srcs.append(src)
                dsts.append(dst)
            labels += [lattice_labels[i]] * len(targets)
    # Every product state was reached from the start; keeping only the
    # edges into states that reach the goal leaves no dead edge.  Product
    # edges that share ``(src, dst)`` come from one lattice span, in its
    # edges' order, which is ``sort_key`` order.
    goal = number.get((l.final, _FREE), len(states))
    live = _reached([goal], len(states) + 1, dsts, srcs)
    kept = list(map(live.__getitem__, dsts))
    return Lattice._from_live(0, goal, *(list(compress(column, kept)) for column in (srcs, dsts, labels)))


def filter_oracle(g: LocalGrammar, l: Lattice, limit: int = DEFAULT_PATH_LIMIT) -> Lattice:
    """Brute-force reference: enumerate every path, keep the accepted ones,
    and rebuild a lattice as the trie union of the survivors."""
    survivors = [path_labels(p) for p in all_paths(l, limit) if decompose(g, p, l) is not None]
    return _trie_lattice(survivors)


def _trie_lattice(sequences: list[tuple]) -> Lattice:
    if sequences == [()]:
        return Lattice.build(0, 0, [])
    # Trie nodes are ints: the root 0, one shared leaf END, and each inner
    # node numbered when first reached.  Edges are listed in order of
    # first use.  Labels are keyed by their injective sort key.
    END = -1
    edges = []
    targets: dict[tuple, int] = {}  # (node, label key, is last label) -> node
    for seq in sequences:
        node = 0
        for i, label in enumerate(seq, 1):
            last = i == len(seq)
            key = (node, label.sort_key, last)
            target = targets.get(key)
            if target is None:
                target = targets[key] = END if last else len(targets) + 1
                edges.append((node, target, label))
            node = target
    return Lattice.build(0, END, edges)


class CorpusItem(NamedTuple):
    sentence_id: str
    text: str
    gold: str  # tag sequence in notation


class SilenceViolation(NamedTuple):
    sentence_id: str
    span: tuple
    grammar: str


class SilenceReport(NamedTuple):
    violations: tuple
    corpus_errors: tuple

    def lines(self) -> list[str]:
        out = [
            f"SILENCE {v.sentence_id} {v.span[0]}-{v.span[1]} {v.grammar}"
            for v in self.violations
        ]
        out.extend(f"CORPUS-ERROR {sid} {message}" for sid, message in self.corpus_errors)
        return out


def parse_tag_sequence(text: str, categories: Iterable[str]) -> list[EdgeLabel]:
    """Parse a whitespace-separated sequence of complete tags and bare
    separator characters, e.g. ``<faire V:P3s> - <il PRO:3ms>``.  Other
    bare text is refused, each run of it as one piece."""
    pieces = re.findall(rf"<[^<>]*>|[^\s<>{re.escape(SEPARATOR_CHARS)}]+|\S", text)
    return [parse_label(piece, categories) for piece in pieces]


def _label_matches_gold(edge_label: EdgeLabel, gold: EdgeLabel) -> bool:
    # Gold tags carry lemma-derived surfaces; match on the analysis proper.
    if isinstance(gold, Separator) or isinstance(edge_label, Separator):
        return edge_label == gold
    return (
        edge_label.lemma == gold.lemma
        and edge_label.category == gold.category
        and edge_label.features == gold.features
    )


def resolve_tag_sequence(l: Lattice, labels: Sequence[EdgeLabel]) -> Path | None:
    """Find a lattice path whose edges carry the given analyses, matching
    separators literally and tags by lemma, category, and features.  The
    first such path in edge order, found depth-first with an explicit stack;
    a (state, position) pair that led nowhere is never tried again."""
    by_source = l.edges_by_source
    failed: set[tuple[int, int]] = set()
    path: list[Edge] = []
    pending = [iter(by_source[l.initial])]  # per state on the path: edges not yet tried
    while pending:
        i = len(path)
        q = path[-1].dst if path else l.initial
        if i == len(labels) and q == l.final:
            return tuple(path)
        for e in pending[-1] if i < len(labels) else ():
            if (e.dst, i + 1) not in failed and _label_matches_gold(e.label, labels[i]):
                path.append(e)
                pending.append(iter(by_source[e.dst]))
                break
        else:
            failed.add((q, i))
            pending.pop()
            if path:
                path.pop()
    return None


def _portion_walk(g: LocalGrammar, ok: Sequence[int], start: int) -> tuple[list, int]:
    """Every transducer walk over path positions ``start..``, where
    position ``i`` may take the transitions set in ``ok[i]``, visiting each
    (position, transducer state) once: the matched portions that can start
    there, as ``(end, pairs)`` by increasing end, and the last position a
    walk examined."""
    found = []
    touched = start
    visited = {(start, g.initial)}
    stack = [(start, g.initial, ())]
    while stack:
        pos, t, pairs = stack.pop()
        if t in g.finals and pos > start:
            found.append((pos, pairs))
        if pos >= len(ok):
            continue
        touched = max(touched, pos)
        for bit, tr in reversed(g.steps[t]):
            if ok[pos] & bit and (pos + 1, tr.dst) not in visited:
                visited.add((pos + 1, tr.dst))
                stack.append((pos + 1, tr.dst, pairs + ((tr.inp, tr.out),)))
    found.sort(key=itemgetter(0))
    return found, touched


def _failure_span(t: _Tables, p: Path) -> tuple:
    """Diagnostic for a path the general rule rejects: the furthest
    position reachable by valid portions, extended over the longest
    portion attempt stuck there."""
    ok, via = _walk(t, p, t.witness)
    stuck = max(j for j, reached in enumerate(via) if reached is not None)
    _, touched = _portion_walk(t.g, ok, stuck)
    return (stuck, touched + 1)


def silence_check(g: LocalGrammar, corpus: Sequence[CorpusItem], lexicon: Lexicon) -> SilenceReport:
    """Report every corpus item whose gold tagging the grammar rejects.

    A gold sequence that is no path of its sentence's initial lattice is a
    corpus error, not silence.
    """
    violations = []
    errors = []
    for item in corpus:
        try:
            tokens = tokenize(item.text)
            l = build_initial_lattice(tokens, lexicon)
            labels = parse_tag_sequence(item.gold, lexicon.categories)
        except (UnknownWordError, TagFormatError) as exc:  # malformed input, not a crash
            errors.append((item.sentence_id, str(exc)))
            continue
        path = resolve_tag_sequence(l, labels)
        if path is None:
            errors.append((item.sentence_id, "gold tagging is not admitted by the lexicon"))
            continue
        if decompose(g, path, l) is None:
            span = _failure_span(_tables(l, g), path)
            violations.append(SilenceViolation(item.sentence_id, span, g.name))
    return SilenceReport(tuple(violations), tuple(errors))


def load_corpus(lines: Iterable[str]) -> list[CorpusItem]:
    """Parse the flat corpus format: alternating ``T:`` text lines and
    ``G:`` gold tag sequence lines."""
    items = []
    pending_text = None
    count = 0
    for line_no, line in _content_lines(lines):
        if line.startswith("T:"):
            if pending_text is not None:
                raise CorpusFormatError(f"line {line_no}: text line without a gold line before it")
            pending_text = line[2:].strip()
        elif line.startswith("G:"):
            if pending_text is None:
                raise CorpusFormatError(f"line {line_no}: gold line without a preceding text line")
            count += 1
            items.append(CorpusItem(f"s{count}", pending_text, line[2:].strip()))
            pending_text = None
        else:
            raise CorpusFormatError(f"line {line_no}: expected 'T:' or 'G:'")
    if pending_text is not None:
        raise CorpusFormatError("corpus ends with a text line missing its gold line")
    return items
