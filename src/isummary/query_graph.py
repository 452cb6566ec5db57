"""Per-query multigraphs: type collapse, concrete counts, canonical shortest paths.

A query graph's edges are the triple patterns of the type-collapsed query:
each edge runs from its subject to its object.  Only ``build_graph`` applies
type collapse.  It relabels a variable only by the IRI object of one of its
own ``?v rdf:type C`` patterns, which is a concrete node already, so
``concrete_node_terms`` reads the node set from the patterns.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .parser import ParsedQuery
from .terms import RDF_TYPE, IRI, VARIABLE, Term, TriplePattern

FORWARD = "forward"
BACKWARD = "backward"


class Step(NamedTuple):
    predicate: Term
    direction: str
    waypoint: Term


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
        return (
            tuple((s.predicate.sort_key(), s.direction, s.waypoint.sort_key()) for s in self.steps),
            self.endpoints[0].sort_key(),
            self.endpoints[1].sort_key(),
        )


class QueryGraph:
    """Undirected labeled multigraph induced by one query after type collapse.

    ``edges`` are the collapsed query's triple patterns; the subject-to-object
    direction of each is its as-written orientation.
    """

    __slots__ = ("nodes", "edges", "_adj")

    def __init__(self, nodes, edges):
        self.nodes: frozenset[Term] = frozenset(nodes)
        self.edges: tuple[TriplePattern, ...] = tuple(edges)
        self._adj: dict[Term, list[tuple[Term, int, str]]] = {}
        for idx, edge in enumerate(self.edges):
            self._adj.setdefault(edge.subject, []).append((edge.object, idx, FORWARD))
            self._adj.setdefault(edge.object, []).append((edge.subject, idx, BACKWARD))


def _type_relabel(patterns) -> dict[Term, Term]:
    """Map each variable with concrete rdf:type classes to its least class."""
    classes: dict[Term, list[Term]] = {}
    for pattern in patterns:
        if (
            pattern.predicate == RDF_TYPE
            and pattern.subject.kind == VARIABLE
            and pattern.object.kind == IRI
        ):
            seen = classes.setdefault(pattern.subject, [])
            if pattern.object not in seen:
                seen.append(pattern.object)
    return {v: min(cs, key=Term.sort_key) for v, cs in classes.items()}


def concrete_node_terms(query: ParsedQuery) -> frozenset[Term]:
    """Concrete subject and object terms, i.e. the concrete nodes of ``build_graph(query)``.

    Type collapse never adds or removes one: a variable collapses only to the
    class object of its own rdf:type pattern, which is counted here already.
    """
    return frozenset(
        t for p in query.patterns for t in (p.subject, p.object) if t.kind != VARIABLE
    )


def build_graph(query: ParsedQuery) -> QueryGraph:
    """Build the type-collapsed graph of one query.

    A variable with rdf:type patterns naming concrete classes is relabeled by
    its class everywhere; the pattern naming the chosen class is absorbed.
    With several distinct classes the lexicographically least one is chosen
    and the other type patterns stay as ordinary edges.  A pattern that
    collapse leaves unchanged is its own edge.
    """
    relabel = _type_relabel(query.patterns)

    nodes: set[Term] = set()
    edges: list[TriplePattern] = []
    for pattern in query.patterns:
        subject = relabel.get(pattern.subject, pattern.subject)
        predicate = relabel.get(pattern.predicate, pattern.predicate)
        obj = relabel.get(pattern.object, pattern.object)
        nodes.add(subject)
        nodes.add(obj)
        absorbed = (
            pattern.predicate == RDF_TYPE
            and pattern.subject in relabel
            and pattern.object == relabel[pattern.subject]
        )
        if not absorbed:
            edge = (subject, predicate, obj)
            edges.append(pattern if edge == pattern else TriplePattern(*edge))
    return QueryGraph(nodes, edges)


def concrete_edges(graph: QueryGraph) -> list[TriplePattern]:
    """Edges with a concrete predicate; variable endpoints are permitted."""
    return [e for e in graph.edges if e.predicate.concrete]


def _bfs_distances(graph: QueryGraph, start: Term) -> dict[Term, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor, _, _ in graph._adj.get(node, ()):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def _make_signature(graph: QueryGraph, start: Term, walk) -> PathSignature:
    nodes = [start]
    predicates = []
    directions = []
    for edge_idx, direction in walk:
        edge = graph.edges[edge_idx]
        predicates.append(edge.predicate)
        directions.append(direction)
        nodes.append(edge.object if direction == FORWARD else edge.subject)

    if nodes[0].sort_key() > nodes[-1].sort_key():
        nodes.reverse()
        predicates.reverse()
        directions = [BACKWARD if d == FORWARD else FORWARD for d in reversed(directions)]

    renames: dict[str, str] = {}

    def canon(term: Term) -> Term:
        if term.kind != VARIABLE:
            return term
        name = renames.setdefault(term.lexical, f"v{len(renames)}")
        return Term(VARIABLE, name)

    steps = tuple(
        Step(canon(predicates[i]), directions[i], canon(nodes[i + 1]))
        for i in range(len(predicates))
    )
    return PathSignature(steps, (nodes[0], nodes[-1]))


def shortest_path(graph: QueryGraph, x: Term, y: Term) -> PathSignature | None:
    """Minimum-hop path between two concrete terms, as a canonical signature.

    Among equal-length paths the lexicographically least signature wins.
    Returns None when either endpoint is absent or unreachable.
    """
    if x == y:
        raise ValueError("path endpoints must differ")
    if not (x.concrete and y.concrete):
        raise ValueError("path endpoints must be concrete")
    if x not in graph.nodes or y not in graph.nodes:
        return None
    dist = _bfs_distances(graph, y)
    if x not in dist:
        return None

    best: PathSignature | None = None
    best_key = None
    stack = [(x, dist[x], ())]
    while stack:
        node, remaining, walk = stack.pop()
        if remaining == 0:
            sig = _make_signature(graph, x, walk)
            key = sig.sort_key()
            if best_key is None or key < best_key:
                best, best_key = sig, key
            continue
        seen_moves = set()
        for neighbor, edge_idx, direction in graph._adj.get(node, ()):
            if dist.get(neighbor) != remaining - 1:
                continue
            # parallel edges with equal label and orientation yield the same
            # signature; walk only one of them
            move = (neighbor, graph.edges[edge_idx].predicate, direction)
            if move in seen_moves:
                continue
            seen_moves.add(move)
            stack.append((neighbor, remaining - 1, walk + ((edge_idx, direction),)))
    return best
