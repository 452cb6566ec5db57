"""Per-query multigraphs: type collapse, concrete counts, canonical shortest paths.

A query graph's edges are the triple patterns of the type-collapsed query:
each edge runs from its subject to its object.  Only ``build_graph`` applies
type collapse.  A graph holds edges and hops only; a query's concrete nodes
are read from its patterns (``workload.concrete_node_terms``: a tuple
without duplicates, in first-occurrence order), as type collapse never adds
or removes one.

A hop along an edge, either way, is a ``Step``.  The graph keeps each node's
distinct hops, so parallel edges with the same predicate and orientation are
walked once.  ``shortest_path`` walks hops from the endpoint with the lesser
sort key, and a path's signature is its walked steps with the variables
renamed by position (``positional_name``, the one renaming function).  Paths
of one and two hops need no search.  A direct hop between the endpoints
comes first: the least renamed one is the path.  Next, each hop out of the
walk's start is paired with each hop out of its waypoint that reaches the
other endpoint, so the pairs run through the endpoints' common neighbours,
and the least renamed pair is the path.  Only a path of three or more hops
takes a breadth-first search from the other endpoint, which stops at the
layer that reaches the walk's start, and a walk that enumerates the
equal-length paths.  Sort keys are built only when a second equal-length
path turns up, and then only for the first step where it differs from the
least path so far.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from .parser import ParsedQuery
from .terms import RDF_TYPE, IRI, VARIABLE, Term, TriplePattern, interned

FORWARD = "forward"
BACKWARD = "backward"


class Step(NamedTuple):
    """One hop of a path: the edge's predicate, the direction it is walked in
    relative to its as-written orientation, and the node it reaches."""

    predicate: Term
    direction: str
    waypoint: Term


def _step_key(step: Step) -> tuple:
    return (step.predicate.sort_key(), step.direction, step.waypoint.sort_key())


def _steps_key(steps) -> tuple:
    return tuple(map(_step_key, steps))


def _steps_less(a: tuple[Step, ...], b: tuple[Step, ...]) -> bool:
    """``_steps_key(a) < _steps_key(b)`` for steps of equal length, with keys
    built only where the two first differ."""
    for s, t in zip(a, b):
        if s != t:
            s_key, t_key = _step_key(s), _step_key(t)
            if s_key != t_key:
                return s_key < t_key
    return False


class PathSignature(NamedTuple):
    """Canonical form of one query path.

    Endpoints are ordered by term sort key and variables are renamed
    positionally (v0, v1, ...), so two alpha-equivalent paths — or the same
    path read from either end — compare and hash equal.  Each step keeps the
    as-written direction of its edge so emitted triples preserve the original
    subject/object orientation.
    """

    steps: tuple[Step, ...]
    endpoints: tuple[Term, Term]

    def sort_key(self):
        return (_steps_key(self.steps), self.endpoints[0].sort_key(), self.endpoints[1].sort_key())


# builds a signature from its field tuple in C, without the NamedTuple's Python __new__
_signature = partial(tuple.__new__, PathSignature)


class QueryGraph:
    """Undirected labeled multigraph induced by one query after type collapse.

    ``edges`` are the collapsed query's triple patterns; the subject-to-object
    direction of each is its as-written orientation.  Each node's hops are the
    distinct ``Step``s out of it, both ways along its edges: parallel edges
    with the same predicate and orientation are one hop.

    ``table`` is shared by the graphs of one workload: each distinct ``Step``
    and each distinct tuple of a node's hops is one object in it.  Built by
    ``build_graph``.
    """

    __slots__ = ("edges", "_hops")

    def __init__(self, edges, table: dict):
        self.edges: tuple[TriplePattern, ...] = tuple(edges)
        hops: dict[Term, dict[Step, None]] = {}
        for subject, predicate, obj in self.edges:
            hops.setdefault(subject, {})[interned(table, Step, (predicate, FORWARD, obj))] = None
            hops.setdefault(obj, {})[interned(table, Step, (predicate, BACKWARD, subject))] = None
        self._hops: dict[Term, tuple[Step, ...]] = {}
        for node, steps in hops.items():
            steps = tuple(steps)
            self._hops[node] = table.setdefault(steps, steps)


def _type_relabel(patterns) -> dict[Term, Term]:
    """Map each variable with concrete rdf:type classes to its least class."""
    least: dict[Term, Term] = {}
    for pattern in patterns:
        if (
            pattern.predicate == RDF_TYPE
            and pattern.subject.kind == VARIABLE
            and pattern.object.kind == IRI
        ):
            current = least.get(pattern.subject)
            if current is None or pattern.object.sort_key() < current.sort_key():
                least[pattern.subject] = pattern.object
    return least


def build_graph(query: ParsedQuery, intern: dict | None = None) -> QueryGraph:
    """Build the type-collapsed graph of one query.

    A variable with rdf:type patterns naming concrete classes is relabeled by
    its class everywhere; the pattern naming the chosen class is absorbed.
    With several distinct classes the lexicographically least one is chosen
    and the other type patterns stay as ordinary edges.  A pattern that
    collapse leaves unchanged is its own edge, and a query with nothing to
    collapse has its patterns tuple as its edges.  ``intern`` is the table the
    graphs of one workload share (see ``QueryGraph``); a pattern that
    collapse rewrites is one object in it too.
    """
    table = {} if intern is None else intern
    relabel = _type_relabel(query.patterns)
    if not relabel:
        return QueryGraph(query.patterns, table)

    edges: list[TriplePattern] = []
    for pattern in query.patterns:
        subject = relabel.get(pattern.subject, pattern.subject)
        predicate = relabel.get(pattern.predicate, pattern.predicate)
        obj = relabel.get(pattern.object, pattern.object)
        absorbed = (
            pattern.predicate == RDF_TYPE
            and pattern.subject in relabel
            and pattern.object == relabel[pattern.subject]
        )
        if not absorbed:
            edge = (subject, predicate, obj)
            edges.append(pattern if edge == pattern else interned(table, TriplePattern, edge))
    return QueryGraph(edges, table)


def _bfs_distances(graph: QueryGraph, end: Term, start: Term) -> dict[Term, int]:
    """Hop distances from ``end``, layer by layer, up to the layer that
    reaches ``start``: every node nearer ``end`` than ``start`` has its
    distance, and no node farther than ``start`` has one."""
    hops = graph._hops
    dist = {end: 0}
    layer = [end]
    depth = 0
    while layer and start not in dist:
        depth += 1
        reached = []
        for node in layer:
            for step in hops.get(node, ()):
                if step.waypoint not in dist:
                    dist[step.waypoint] = depth
                    reached.append(step.waypoint)
        layer = reached
    return dist


@lru_cache(maxsize=None)
def _canonical_variable(index: int) -> Term:
    return Term(VARIABLE, f"v{index}")


def positional_name(term: Term, names: dict[Term, Term]) -> Term:
    """``term`` in a renaming by position: a variable met for the first time
    takes the next name of v0, v1, ..., recorded in ``names``, which one
    renaming shares across its calls; any other term is itself."""
    if term.kind != VARIABLE:
        return term
    name = names.get(term)
    if name is None:
        name = names[term] = _canonical_variable(len(names))
    return name


def _renamed(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """``steps`` with their variables renamed by position, predicate before
    waypoint in each step; a step with no variable stays the graph's own."""
    names: dict[Term, Term] = {}
    return tuple([
        Step(positional_name(step.predicate, names), step.direction,
             positional_name(step.waypoint, names))
        if step.predicate.kind == VARIABLE or step.waypoint.kind == VARIABLE else step
        for step in steps
    ])


def shortest_path(graph: QueryGraph, x: Term, y: Term) -> PathSignature | None:
    """Minimum-hop path between two concrete terms, as a canonical signature.

    The path is walked from the endpoint with the lesser sort key (compared
    by kind and lexical, and by the keys only when both tie), and among
    equal-length paths the lexicographically least renamed signature wins.
    There are three stages, each run only when the one before finds nothing:
    a direct hop to the other endpoint; a common neighbour, that is a hop
    out of the start paired with a hop out of its waypoint to the other
    endpoint; and a walk that follows the distances of a breadth-first
    search from the other endpoint, stopped at the layer reaching the
    walk's start.  The first two run no search, and a pair of hops is
    renamed only when it holds a variable.  Sort keys are built only
    for the first step where a later path differs from the least one so far.
    Returns None when either endpoint has no hop in the graph (it is absent,
    or only a predicate there) or they are not connected.
    """
    if x == y:
        raise ValueError("path endpoints must differ")
    if x.kind == VARIABLE or y.kind == VARIABLE:
        raise ValueError("path endpoints must be concrete")
    # as tuples, terms order by kind and lexical as their sort keys do; only
    # a tie there needs the keys, which read a missing tag or datatype as ""
    if x.kind != y.kind or x.lexical != y.lexical:
        start, end = (x, y) if x < y else (y, x)
    else:
        start, end = (x, y) if x.sort_key() < y.sort_key() else (y, x)
    hops = graph._hops
    out = hops.get(start)
    if out is None or end not in hops:
        return None

    best = None
    for step in out:
        if step.waypoint == end:
            if step.predicate.kind == VARIABLE:
                (step,) = _renamed((step,))
            if best is None or _step_key(step) < _step_key(best):
                best = step
    if best is not None:
        return _signature(((best,), (start, end)))

    for first in out:
        for second in hops[first.waypoint]:
            if second.waypoint == end:
                steps = (first, second)
                if VARIABLE in (first.predicate.kind, first.waypoint.kind, second.predicate.kind):
                    steps = _renamed(steps)
                if best is None or _steps_less(steps, best):
                    best = steps
    if best is not None:
        return _signature((best, (start, end)))

    dist = _bfs_distances(graph, end, start)
    if start not in dist:
        return None
    stack = [(start, ())]
    while stack:
        node, steps = stack.pop()
        if node == end:
            steps = _renamed(steps)
            if best is None or _steps_less(steps, best):
                best = steps
            continue
        remaining = dist[node] - 1
        for step in hops[node]:
            if dist.get(step.waypoint) == remaining:
                stack.append((step.waypoint, steps + (step,)))
    return _signature((best, (start, end)))
