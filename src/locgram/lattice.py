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
admitted taggings, state ``q``'s edges are one contiguous run of
``edges``, and one pass over them counts the paths (``count_paths``).
Three constructors make it, each relying on what its caller guarantees:

* ``Lattice.build`` takes any hashable states and any edges.  It drops
  the dead ones, numbers the states by Kahn's order over the states in
  order of first appearance, and sorts by the key above.  Reading JSON,
  the oracle's trie and random instances use it.
* ``Lattice._from_live`` takes int states from a small range with no dead
  edge, whose edges that share ``(src, dst)`` arrive in ``sort_key``
  order.  The initial state is then the one source, so Kahn's order from
  it alone, over per-state lists, is ``build``'s numbering whatever the
  ids are.  It sorts stably on ``(src, dst)`` alone.  ``engine.filter``
  and ``minimize`` use it.
* The dataclass constructor itself takes a lattice already in canonical
  form.  ``build_initial_lattice`` uses it: its states are the token
  boundaries, which the chain of tokens numbers ``0..n`` in the only
  topological order, and it emits each position's edges in order.

The apply pipeline (initial lattice, ``engine.filter``, ``minimize``)
makes exactly one lattice per stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, pairwise
from operator import attrgetter, itemgetter
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationOverflow, LatticeFormatError
from .tags import EdgeLabel, Separator, parse_complete_tag

DEFAULT_PATH_LIMIT = 100_000


class Edge(NamedTuple):
    src: int
    dst: int
    label: EdgeLabel


# ``Edge(*triple)`` without the Python-level ``Edge.__new__``, for the
# thousands of edges a lattice is made of
_as_edge = partial(tuple.__new__, Edge)
_sort_key = attrgetter("sort_key")

Path = tuple  # consecutive edges from the initial to the final state


@dataclass(frozen=True)
class Lattice:
    n_states: int
    initial: int
    final: int
    edges: tuple[Edge, ...]

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

        In an acyclic graph every edge is on such a path exactly when only
        ``initial`` lacks an in-edge and only ``final`` an out-edge, so the
        reachability passes run only when that fails or a cycle is found."""
        edges = list(edges)
        heads, tails = set(map(itemgetter(0), edges)), set(map(itemgetter(1), edges))
        if heads - tails <= {initial} and tails - heads <= {final}:
            try:
                return cls._numbered(initial, final, edges)
            except LatticeFormatError:
                pass  # a cycle, which may be dead
        forward = _reachable((initial,), (e[:2] for e in edges))
        backward = _co_reachable((final,), edges)
        live = [e for e in edges if e[0] in forward and e[1] in backward]
        return cls._numbered(initial, final, live)

    @classmethod
    def _numbered(cls, initial: Hashable, final: Hashable, edges: list[tuple]) -> "Lattice":
        """``edges`` as they are, renumbered (see ``_numbering``) and sorted."""
        number = _numbering(initial, final, edges)
        renumbered = sorted(
            (Edge(number[src], number[dst], label) for src, dst, label in edges),
            key=lambda e: (e.src, e.dst, e.label.sort_key),
        )
        return cls(len(number), number[initial], number[final], tuple(renumbered))

    @classmethod
    def _from_live(cls, initial: int, final: int, edges: list[tuple]) -> "Lattice":
        """What ``build`` makes of ``edges`` under the preconditions in the
        module docstring: Kahn's order from ``initial`` numbers the states,
        and a stable sort on ``(src, dst)`` puts the edges in ``build``'s
        order without comparing labels."""
        if not edges:
            return cls(1 if initial == final else 2, 0, int(initial != final), ())
        successors: list[list[int]] = [[] for _ in range(max(initial, *map(itemgetter(1), edges)) + 1)]
        for src, dst, _ in edges:
            successors[src].append(dst)
        order = _topological_order(successors, [initial])
        rank, n = [0] * len(successors), len(order)
        for r, q in enumerate(order):
            rank[q] = r
        renumbered = [(rank[src], rank[dst], label) for src, dst, label in edges]
        renumbered.sort(key=lambda e: e[0] * n + e[1])
        return cls(n, 0, rank[final], tuple(map(_as_edge, renumbered)))

    @cached_property
    def _starts(self) -> list[int]:
        """State ``q``'s edges are ``edges[_starts[q]:_starts[q + 1]]``."""
        counts = [0] * (self.n_states + 1)
        for e in self.edges:
            counts[e.src + 1] += 1
        return list(accumulate(counts))

    @cached_property
    def edges_by_source(self) -> tuple[tuple[Edge, ...], ...]:
        """State ``q``'s edges at index ``q``, in edge order."""
        starts, edges = self._starts, self.edges
        return tuple(edges[a:b] for a, b in pairwise(starts))

    def is_empty_language(self) -> bool:
        """True when no path joins the initial to the final state: every
        edge lies on such a path, so exactly when there are none."""
        return self.initial != self.final and not self.edges


def _numbering(initial: Hashable, final: Hashable, edges: list[tuple]) -> dict:
    """Each state's number: Kahn's order (``_topological_order``) over the
    states in order of first appearance, ``initial`` first and ``final``
    last among the new.  Raises on cycles."""
    ends = list(map(itemgetter(0, 1), edges))
    order = list(dict.fromkeys(chain((initial,), chain.from_iterable(ends), (final,))))
    first = {s: i for i, s in enumerate(order)}
    successors: list[list[int]] = [[] for _ in order]
    for src, dst in ends:
        successors[first[src]].append(first[dst])
    return {order[i]: rank for rank, i in enumerate(_topological_order(successors))}


def _reachable(starts: Iterable[Hashable], arcs: Iterable[tuple[Hashable, Hashable]]) -> set:
    """States reachable from any of ``starts`` along ``(from, to)`` arcs."""
    successors: dict[Hashable, list[Hashable]] = {}
    for a, b in arcs:
        successors.setdefault(a, []).append(b)
    reached = set(starts)
    stack = list(reached)
    while stack:
        for b in successors.get(stack.pop(), ()):
            if b not in reached:
                reached.add(b)
                stack.append(b)
    return reached


def _co_reachable(finals: Iterable[Hashable], edges: Sequence[tuple]) -> set:
    """States from which one of ``finals`` is reachable over
    ``(src, dst, ...)`` edges."""
    return _reachable(finals, ((e[1], e[0]) for e in edges))


def path_labels(path: Sequence[Edge]) -> tuple[EdgeLabel, ...]:
    return tuple(e.label for e in path)


def count_paths(l: Lattice) -> int:
    """The number of initial-to-final paths, not taggings (parallel
    duplicate edges count twice), by one forward pass with Python ints.
    Exact because ``l`` is canonical: its states are numbered in
    topological order and its edges sorted by source."""
    ways = [0] * l.n_states
    ways[l.initial] = 1
    for src, dst, _ in l.edges:
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
    before its signature, its ``(label, class)`` moves, is read.  The one
    empty signature is the final class's.
    """
    if l.is_empty_language():
        return l
    n, edges, starts = l.n_states, l.edges, l._starts
    keys = list(map(_sort_key, map(itemgetter(2), edges)))
    members: list[tuple[int, ...]] = []  # per subset id from n up: its sorted states
    subset_id: dict[tuple[int, ...], int] = {}
    outgoing: list[list | None] = [None] * n  # per subset reached: (edge, subset), by label
    queue = [l.initial]
    for s in queue:  # extended as it is walked
        out = None
        if s < n:
            run = range(starts[s], starts[s + 1])
            if len(run) > 1:
                run = sorted(run, key=keys.__getitem__)
            if len(set(map(keys.__getitem__, run))) == len(run):
                out = [(i, edges[i][1]) for i in run]
        if out is None:
            grouped: dict[tuple, tuple[int, set[int]]] = {}
            for q in members[s - n] if s >= n else (s,):
                for i in range(starts[q], starts[q + 1]):
                    grouped.setdefault(keys[i], (i, set()))[1].add(edges[i][1])
            if s >= n and l.final in members[s - n]:
                raise LatticeFormatError("path label set is not prefix-free; cannot keep a single final state")
            out = []
            for key in sorted(grouped):
                i, targets = grouped[key]
                if len(targets) > 1:
                    target = tuple(sorted(targets))
                    if target not in subset_id:
                        subset_id[target] = n + len(members)
                        members.append(target)
                        outgoing.append(None)
                    out.append((i, subset_id[target]))
                else:
                    out.append((i, *targets))  # a singleton: its state's id
        outgoing[s] = out
        for _, t in out:
            if outgoing[t] is None:
                outgoing[t] = []  # queued
                queue.append(t)

    smallest = [*range(n), *(m[0] for m in members)]
    state_class = [0] * len(outgoing)
    classes: dict[tuple, int] = {}
    merged: list[tuple] = []  # each class's edges once, by label
    for s in sorted(queue, key=smallest.__getitem__, reverse=True):
        out = outgoing[s]
        size = len(classes)
        c = state_class[s] = classes.setdefault(tuple([(keys[i], state_class[t]) for i, t in out]), size)
        if c == size:  # a new class
            merged += [(c, state_class[t], edges[i][2]) for i, t in out]
    return Lattice._from_live(state_class[l.initial], classes[()], merged)


def _topological_order(successors: list[list[int]], sources: list[int] | None = None) -> list[int]:
    """Kahn's order of the nodes ``0..n-1`` of a graph given as per-node
    successor lists: first-in first-out, seeded with ``sources``, by
    default every node without a predecessor, in node order.  Raises on
    cycles."""
    indegree = [0] * len(successors)
    for out in successors:
        for t in out:
            indegree[t] += 1
    order = [s for s, d in enumerate(indegree) if d == 0] if sources is None else sources
    for s in order:  # extended as it is walked
        for t in successors[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    if any(indegree):
        raise LatticeFormatError("lattice has a cycle")
    return order


def to_dot(l: Lattice) -> str:
    """Render as a DOT digraph, one edge per transition.  Output is
    deterministic: byte-identical across runs for equal lattices."""
    lines = [
        "digraph lattice {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        f"  {l.initial} [style=bold];",
        f"  {l.final} [shape=doublecircle];",
    ]
    for e in l.edges:
        label = e.label.notation().replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {e.src} -> {e.dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
        f'{{\n      "from": {e.src},\n      "to": {e.dst},\n'
        f'      "surface": {_encode_string(e.label.surface)},\n'
        f'      "tag": {_encode_string(e.label.notation())}\n    }}'
        for e in l.edges
    ]
    return (
        f'{{\n  "states": {_json_list([str(q) for q in range(l.n_states)])},\n'
        f'  "initial": {l.initial},\n  "final": {l.final},\n'
        f'  "edges": {_json_list(edges)}\n}}\n'
    )


def from_json(text: str, categories: Iterable[str]) -> Lattice:
    """Read a ``to_json`` document; ``Lattice.build`` drops what is on no path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeFormatError(f"invalid JSON: {exc}") from exc
    try:
        states = list(doc["states"])
        initial = doc["initial"]
        final = doc["final"]
        raw_edges = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise LatticeFormatError(f"missing or malformed lattice field: {exc}") from exc
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise LatticeFormatError(f"edge is not an object: {item!r}")
        src, dst, tag_text, surface = map(item.get, ("from", "to", "tag", "surface"))
        if not (isinstance(tag_text, str) and isinstance(surface, str)):
            raise LatticeFormatError(f"edge needs string tag and surface members: {item!r}")
        if tag_text.startswith("<"):
            label: EdgeLabel = parse_complete_tag(tag_text, categories, surface=surface)
        else:
            if tag_text != surface:
                raise LatticeFormatError(f"separator edge with mismatched surface: {item!r}")
            label = Separator(tag_text)
        edges.append((src, dst, label))
    ids = [*states, initial, final, *(q for e in edges for q in e[:2])]
    if not all(isinstance(q, (int, str)) for q in ids):
        raise LatticeFormatError(f"state ids must be integers or strings: {ids!r}")
    return Lattice.build(initial, final, edges)
