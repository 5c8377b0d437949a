"""Acyclic automata over tag-labeled edges.

A lattice has one initial and one final state and represents the finite
set of tag sequences currently admitted for a text.  Edge labels are
complete tags or separators and are treated as opaque symbols: two labels
are the same symbol only when structurally equal, surface included.
Ambiguity reduction may shrink the path set while the number of states
and transitions grows or shrinks independently.

Every lattice is in one canonical form: it keeps exactly the edges on
some initial-to-final path, its states are numbered in a deterministic
topological order, and its edges are sorted by ``(src, dst,
label.sort_key)``.  So every state but the initial and final ones lies
on a path, the engine's matchable index and ``minimize`` see only
admitted taggings, state ``q``'s edges are one contiguous run of edge
indices, and one pass over them counts the paths (``count_paths``).
Edge ``i`` is held in three parallel arrays, ``srcs[i]``, ``dsts[i]``
and ``labels[i]``, not as an object: ``edges``, the ``Edge`` tuples that
paths are made of, is made from them when first read, and the apply
pipeline reads and writes only the arrays.
``Lattice._from_live`` makes the canonical form from int states of a
small range and no dead edge, whose edges that share ``(src, dst)``
arrive in ``sort_key`` order: the initial state is then the one source,
Kahn's order from it (Kahn 1962) numbers the states whatever the ids
are, and a stable sort on ``(src, dst)`` orders the edges.  Its callers:

* ``Lattice.build`` takes any hashable states and any edges.  It interns
  the states as ints, keeps the live edges by two ``_reached`` walks and
  hands them on.  Reading JSON and the oracle's trie use it.
* ``engine.filter`` and ``minimize``, which make no dead edge.
* ``build_initial_lattice`` makes what ``_from_live`` would, with the
  dataclass constructor itself: its states are the token boundaries,
  which the chain of tokens numbers ``0..n`` in the only topological
  order, and it emits each position's edges in order.

The apply pipeline (initial lattice, ``engine.filter``, ``minimize``)
makes exactly one lattice per stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, pairwise
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationOverflow, InputError, LatticeFormatError
from .tags import EdgeLabel, Separator, parse_label

DEFAULT_PATH_LIMIT = 100_000


class Edge(NamedTuple):
    src: int
    dst: int
    label: EdgeLabel


_as_edge = partial(tuple.__new__, Edge)  # ``Edge(*triple)`` without the Python-level ``Edge.__new__``
_sort_key = attrgetter("sort_key")

Path = tuple  # consecutive edges from the initial to the final state


@dataclass(frozen=True)
class Lattice:
    n_states: int
    initial: int
    final: int
    srcs: tuple[int, ...]  # edge i goes from srcs[i] to dsts[i] with label labels[i]
    dsts: tuple[int, ...]
    labels: tuple[EdgeLabel, ...]

    @classmethod
    def build(
        cls,
        initial: Hashable,
        final: Hashable,
        edges: Iterable[tuple[Hashable, Hashable, EdgeLabel]],
    ) -> "Lattice":
        """Construct from ``(src, dst, label)`` edges over arbitrary hashable
        states, keeping the initial and final states and exactly the edges on
        some initial-to-final path, renumbered in a deterministic topological
        order.  A cycle through states on such paths raises
        ``LatticeFormatError``; a dead cycle, on no such path, is dropped
        like any other dead edge.

        The states become ints in order of first appearance, a forward and
        a backward ``_reached`` walk keep the live edges, and ``_from_live``
        numbers and sorts them."""
        number = {initial: 0}
        ints = [
            (number.setdefault(a, len(number)), number.setdefault(b, len(number)), label) for a, b, label in edges
        ]
        end = number.setdefault(final, len(number))
        srcs, dsts = [e[0] for e in ints], [e[1] for e in ints]
        forward, backward = _reached([0], len(number), srcs, dsts), _reached([end], len(number), dsts, srcs)
        live = [e for e in ints if forward[e[0]] and backward[e[1]]]
        # Kahn's pass frees a state at its last in-edge from its last
        # predecessor, so moving each ``(src, dst)`` run to where it last
        # occurs keeps the numbering of the given order, and the run can
        # then be in ``sort_key`` order, as ``_from_live`` requires.
        last = {e[:2]: i for i, e in enumerate(live)}
        live.sort(key=lambda e: (last[e[:2]], e[2].sort_key))
        return cls._from_live(0, end, *(list(zip(*live)) or [(), (), ()]))

    @classmethod
    def _from_live(cls, initial: int, final: int, srcs: Sequence, dsts: Sequence, labels: Sequence) -> Lattice:
        """The canonical lattice of the edges in ``srcs``, ``dsts`` and
        ``labels`` (see the module docstring): Kahn's order, first in first
        out from ``initial`` over each state's successors in edge order,
        numbers the states, and a stable sort of the edge indices on
        ``(src, dst)`` orders the edges without comparing labels."""
        if not srcs:
            return cls(1 if initial == final else 2, 0, int(initial != final), (), (), ())
        size = max(initial, max(dsts)) + 1
        successors, starts = _grouped(size, srcs, dsts)
        indegree = [0] * size
        for t in dsts:
            indegree[t] += 1
        order = [] if indegree[initial] else [initial]  # an edge into it closes a cycle
        for s in order:  # extended as it is walked
            for t in successors[starts[s] : starts[s + 1]]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    order.append(t)
        if any(indegree):
            raise LatticeFormatError("lattice has a cycle")
        rank, n = [0] * size, len(order)
        for r, q in enumerate(order):
            rank[q] = r
        srcs, dsts = list(map(rank.__getitem__, srcs)), list(map(rank.__getitem__, dsts))
        spans = [src * n + dst for src, dst in zip(srcs, dsts)]
        by_span = sorted(range(len(spans)), key=spans.__getitem__)
        return cls(n, 0, rank[final], *(tuple(map(c.__getitem__, by_span)) for c in (srcs, dsts, labels)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The ``Edge`` tuples, in edge order, made when first read."""
        return tuple(map(_as_edge, zip(self.srcs, self.dsts, self.labels)))

    @cached_property
    def _starts(self) -> list[int]:
        """State ``q``'s edges are the indices ``_starts[q]`` up to ``_starts[q + 1]``."""
        return _offsets(self.n_states, self.srcs)

    @cached_property
    def edges_by_source(self) -> tuple[tuple[Edge, ...], ...]:
        """State ``q``'s edges at index ``q``, in edge order."""
        starts, edges = self._starts, self.edges
        return tuple(edges[a:b] for a, b in pairwise(starts))

    def is_empty_language(self) -> bool:
        """True when no path joins the initial to the final state: every
        edge lies on such a path, so exactly when there are none."""
        return self.initial != self.final and not self.srcs


def _offsets(n: int, keys: Iterable[int]) -> list[int]:
    """Entry ``q``: how many of ``keys``, each in ``0..n-1``, are below ``q``."""
    counts = [0] * (n + 1)
    for k in keys:
        counts[k + 1] += 1
    return list(accumulate(counts))


def _grouped(n: int, keys: Sequence[int], values: Sequence) -> tuple[list, list[int]]:
    """``values`` stably sorted by their ``keys``, and ``_offsets(n, keys)``, which bound each key's run."""
    return list(map(values.__getitem__, sorted(range(len(keys)), key=keys.__getitem__))), _offsets(n, keys)


def _reached(starts: Iterable[int], n: int, tails: Sequence[int], heads: Sequence[int]) -> list[bool]:
    """Per node ``0..n-1``: whether one of ``starts`` reaches it along the arcs ``tails[i] -> heads[i]``."""
    adjacent, offsets = _grouped(n, tails, heads)
    reached = [False] * n
    stack = list(starts)
    while stack:
        q = stack.pop()
        if not reached[q]:
            reached[q] = True
            stack += adjacent[offsets[q] : offsets[q + 1]]
    return reached


def path_labels(path: Sequence[Edge]) -> tuple[EdgeLabel, ...]:
    return tuple(e.label for e in path)


def count_paths(l: Lattice) -> int:
    """The number of initial-to-final paths, not taggings (parallel
    duplicate edges count twice), by one forward pass with Python ints.
    Exact because ``l`` is canonical: its states are numbered in
    topological order and its edges sorted by source."""
    ways = [0] * l.n_states
    ways[l.initial] = 1
    for src, dst in zip(l.srcs, l.dsts):
        ways[dst] += ways[src]
    return ways[l.final]


def iter_paths(l: Lattice) -> Iterator[Path]:
    """Every initial-to-final path in lexicographic edge order, depth
    first with an explicit stack: no recursion limit bounds its length."""
    by_source = l.edges_by_source
    if l.initial == l.final:
        yield ()
    path: list[Edge] = []
    pending = [iter(by_source[l.initial])]  # per state on the path: edges not yet taken
    while pending:
        e = next(pending[-1], None)
        if e is None:
            pending.pop()
            del path[-1:]  # the edge into the exhausted state, if any
            continue
        path.append(e)
        if e.dst == l.final:
            yield tuple(path)
        pending.append(iter(by_source[e.dst]))


def all_paths(l: Lattice, limit: int = DEFAULT_PATH_LIMIT) -> tuple[Path, ...]:
    """Every path, in ``iter_paths`` order.  Raises ``EnumerationOverflow``
    when ``count_paths`` finds more than ``limit``, before enumerating."""
    if count_paths(l) > limit:
        raise EnumerationOverflow(f"more than {limit} paths")
    return tuple(iter_paths(l))


def language(l: Lattice, limit: int = DEFAULT_PATH_LIMIT) -> frozenset:
    """The set of path label sequences, by enumeration: the reference that
    ``language_equal`` is tested against.  Raises on enumeration overflow."""
    return frozenset(map(path_labels, all_paths(l, limit)))


def language_equal(a: Lattice, b: Lattice) -> bool:
    """Equal path label sequence sets, decided on the canonical minimal
    forms (see ``minimize``) without enumerating.  Raises
    ``LatticeFormatError`` where ``minimize`` does."""
    return minimize(a) == minimize(b)


def minimize(l: Lattice) -> Lattice:
    """Deterministic minimal acyclic automaton with the same path label
    sequence set: subset construction, then merging of states with equal
    right languages.

    Every state of ``l`` reaches the final state, so the result, the one
    lattice built, has no dead edge, and a lattice with an empty language
    is its own minimal form.

    Lattices anchored on token boundaries have prefix-free path label sets;
    for other inputs whose minimal automaton would need a final state with
    outgoing edges, this raises rather than silently changing the language.

    The result is canonical: lattices with the same language give equal
    results.  The minimal acyclic DFA is unique (Revuz 1992), and its
    numbering is fixed: each class's edges are emitted once, in label
    order, and ``Lattice._from_live`` numbers the classes by Kahn's pass
    from the initial class, which depends on nothing else.

    The construction runs on ints.  A subset is found from the initial
    state, breadth first; a singleton is its state's own id, and a subset
    of several states, which only moves that share a label make, gets the
    next id from ``n_states`` up.  A singleton whose state has no two moves
    on one label, as in most of a filtered lattice, takes its moves as they
    are, sorted by label; any other subset groups its members' moves by
    label.  Classes are then assigned in descending order of each subset's
    smallest member.  ``l``'s states are numbered in topological order, so
    every successor of a subset has a larger smallest member: this order
    is reverse topological, and a subset's targets have their classes
    before its signature, its moves' labels and classes, is read.  The one
    empty signature is the final class's.
    """
    if l.is_empty_language():
        return l
    n, dsts, labels, starts = l.n_states, l.dsts, l.labels, l._starts
    keys = list(map(_sort_key, labels))
    members: list[tuple[int, ...]] = []  # per subset id from n up: its sorted states
    subset_id: dict[tuple[int, ...], int] = {}
    outgoing: list[tuple | None] = [None] * n  # per subset reached: its moves' edges and subsets, by label
    queue = [l.initial]
    for s in queue:  # extended as it is walked
        out = None
        if s < n:
            run = range(starts[s], starts[s + 1])
            if len(run) > 1:
                run = sorted(run, key=keys.__getitem__)
            if len(set(map(keys.__getitem__, run))) == len(run):
                out = run, list(map(dsts.__getitem__, run))
        if out is None:
            grouped: dict[tuple, tuple[int, set[int]]] = {}
            for q in members[s - n] if s >= n else (s,):
                for i in range(starts[q], starts[q + 1]):
                    grouped.setdefault(keys[i], (i, set()))[1].add(dsts[i])
            if s >= n and l.final in members[s - n]:
                raise LatticeFormatError("path label set is not prefix-free; cannot keep a single final state")
            out = [], []
            for key in sorted(grouped):
                i, targets = grouped[key]
                if len(targets) > 1:
                    target = tuple(sorted(targets))
                    if target not in subset_id:
                        subset_id[target] = n + len(members)
                        members.append(target)
                        outgoing.append(None)
                    targets = [subset_id[target]]
                out[0].append(i)
                out[1].extend(targets)  # a singleton: its state's id
        outgoing[s] = out
        for t in out[1]:
            if outgoing[t] is None:
                outgoing[t] = ()  # queued
                queue.append(t)

    smallest = [*range(n), *(m[0] for m in members)]
    state_class = [0] * len(outgoing)
    classes: dict[tuple, int] = {}  # by signature: the moves' label keys, then their classes
    class_srcs, class_dsts, class_labels = [], [], []  # each class's edges once, by label
    for s in sorted(queue, key=smallest.__getitem__, reverse=True):
        run, targets = outgoing[s]
        targets = list(map(state_class.__getitem__, targets))
        size = len(classes)
        c = state_class[s] = classes.setdefault((*map(keys.__getitem__, run), *targets), size)
        if c == size:  # a new class
            class_srcs += [c] * len(targets)
            class_dsts += targets
            class_labels += map(labels.__getitem__, run)
    return Lattice._from_live(state_class[l.initial], classes[()], class_srcs, class_dsts, class_labels)


def to_dot(l: Lattice) -> str:
    """Render in DOT, one edge per transition.  Output is deterministic:
    byte-identical across runs for equal lattices."""
    return _dot("lattice", str, l.initial, [l.final], zip(l.srcs, l.dsts, [x.notation() for x in l.labels]))


def _dot(name: str, node: Callable, initial, finals: Iterable, edges: Iterable[tuple]) -> str:
    """The DOT graph ``name`` drawn left to right: ``initial`` in bold,
    ``finals`` doubly circled, then one arrow per ``(src, dst, label)``,
    in the order given.  ``node`` writes a state; a label is quoted."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];", f"  {node(initial)} [style=bold];"]
    lines += [f"  {node(q)} [shape=doublecircle];" for q in finals]
    lines += [f"  {node(src)} -> {node(dst)} [label={_dot_quoted(label)}];" for src, dst, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# What ``json.JSONEncoder(ensure_ascii=False).encode`` returns for a string,
# without the Python frame it takes to get there
_encode_string = json.encoder.encode_basestring


def _json_list(items: list[str]) -> str:
    """A list-valued top-level member in the ``indent=2`` layout."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def to_json(l: Lattice) -> str:
    """The document ``{"states", "initial", "final", "edges"}``, laid out
    byte for byte as ``json.dumps(doc, ensure_ascii=False, indent=2)``
    plus a newline.  Only the strings go through the encoder, which stays
    on its C path without ``indent``."""
    edges = [
        f'{{\n      "from": {src},\n      "to": {dst},\n'
        f'      "surface": {_encode_string(label.surface)},\n'
        f'      "tag": {_encode_string(label.notation())}\n    }}'
        for src, dst, label in zip(l.srcs, l.dsts, l.labels)
    ]
    return (
        f'{{\n  "states": {_json_list([str(q) for q in range(l.n_states)])},\n'
        f'  "initial": {l.initial},\n  "final": {l.final},\n'
        f'  "edges": {_json_list(edges)}\n}}\n'
    )


def _read_document(text: str, error: type[InputError], fields: Sequence[str], arrays: Sequence[str]) -> list:
    """The values of ``fields`` in the JSON object ``text``, in order.
    Raises ``error`` on invalid JSON, on a document that is no object or
    lacks a field, and on a field of ``arrays`` that is no JSON array."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("the document is not a JSON object")
    for field in fields:
        if field not in doc:
            raise error(f"missing field {field!r}")
    for field in arrays:
        if not isinstance(doc[field], list):
            raise error(f"field {field!r} must be a JSON array")
    return [doc[field] for field in fields]


def _check_id_types(error: type[InputError], ids: Iterable) -> None:
    """Raise ``error`` on the first state id of a JSON document that is no
    integer or string: ``True == 1.0 == 1`` would pass for the state 1."""
    for q in ids:
        if type(q) not in (int, str):
            raise error(f"state ids must be integers or strings, not {q!r}")


def _number_states(error: type[InputError], states: Iterable[Hashable], used: Iterable[Hashable]) -> dict:
    """Each of ``states`` numbered in order.  Raises ``error`` on a
    repeated state and on one of ``used`` that is not among them."""
    number: dict[Hashable, int] = {}
    for q in states:
        if q in number:
            raise error(f"repeated state id {q!r}")
        number[q] = len(number)
    for q in used:
        if q not in number:
            raise error(f"state id {q!r} is not declared in states")
    return number


def from_json(text: str, categories: Iterable[str]) -> Lattice:
    """Read a ``to_json`` document, whose ``states`` declare each state id
    once; ``Lattice.build`` drops what is on no path."""
    fields = ("states", "initial", "final", "edges")
    states, initial, final, raw_edges = _read_document(text, LatticeFormatError, fields, ("states", "edges"))
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise LatticeFormatError(f"edge is not an object: {item!r}")
        src, dst, tag_text, surface = map(item.get, ("from", "to", "tag", "surface"))
        if not (isinstance(tag_text, str) and isinstance(surface, str)):
            raise LatticeFormatError(f"edge needs string tag and surface members: {item!r}")
        label = parse_label(tag_text, categories, surface)
        if isinstance(label, Separator) and tag_text != surface:
            raise LatticeFormatError(f"separator edge with mismatched surface: {item!r}")
        edges.append((src, dst, label))
    ends = [initial, final, *(q for e in edges for q in e[:2])]
    _check_id_types(LatticeFormatError, [*states, *ends])
    _number_states(LatticeFormatError, states, ends)
    return Lattice.build(initial, final, edges)
