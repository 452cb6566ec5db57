import importlib.util
from collections import Counter, deque
from pathlib import Path

import pytest

from isummary.parser import parse_query
from isummary.query_graph import BACKWARD, FORWARD, PathSignature, Step
from isummary.synth import write_queries
from isummary.terms import VARIABLE, Term
from isummary.workload import WorkloadStore

FIXTURES = Path(__file__).parent / "fixtures"
UNIVERSITY_FILE = FIXTURES / "university_workload.txt"
BENCH_ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"

# The benchmark's oracle, loaded by path so that no bench module lands on
# sys.path.  It imports nothing from the package and reads terms and triple
# patterns as the plain tuples they are.
_spec = importlib.util.spec_from_file_location("bench_oracle", BENCH_ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# The five-query university workload used as the running fixture.
UNIVERSITY_QUERIES = [
    line for line in UNIVERSITY_FILE.read_text(encoding="utf-8").splitlines() if line
]


def generate_synthetic(spec, path):
    """Write ``spec``'s workload to ``path`` as a raw-lines log."""
    with open(path, "w", encoding="utf-8") as fh:
        write_queries(spec, fh)


def store_from_texts(texts):
    queries = [
        parse_query(text, query_id=i, source_line=i + 1) for i, text in enumerate(texts)
    ]
    return WorkloadStore(queries)


def _random_store(rng, n_queries):
    vocab_classes = [f"C{i}" for i in range(6)]
    vocab_preds = [f"p{i}" for i in range(5)]
    texts = []
    for _ in range(n_queries):
        length = 1 + rng.randrange(4)
        parts = []
        var = 0
        for _ in range(length):
            roll = rng.random()
            if roll < 0.4:
                parts.append(f"?v{var} a {vocab_classes[rng.randrange(6)]}")
            elif roll < 0.7:
                parts.append(f"?v{var} {vocab_preds[rng.randrange(5)]} ?v{var + 1}")
                var += 1
            else:
                parts.append(
                    f"?v{var} {vocab_preds[rng.randrange(5)]} E{rng.randrange(8)}"
                )
        texts.append("SELECT ?v0 WHERE { " + " . ".join(parts) + " }")
    return store_from_texts(texts)


def collapsed_nodes(query):
    """Oracle: the node set of the query's type-collapsed graph, variables
    included: ``oracle.collapse``'s concrete nodes plus its edges' ends (an
    absorbed type pattern has only concrete ends)."""
    nodes, edges = oracle.collapse(query.patterns)
    return nodes | {t for subject, _, obj in edges for t in (subject, obj)}


def scanned_node_terms(query):
    """Oracle: the query's concrete subjects and objects, each once, in the
    order a scan of its patterns first meets them (subject before object)."""
    seen = []
    for pattern in query.patterns:
        for term in (pattern.subject, pattern.object):
            if term.concrete and term not in seen:
                seen.append(term)
    return tuple(seen)


def scanned_slot_counts(store, anchor, anchor_slot, slot):
    """Oracle: per member query, one for each distinct concrete term in
    ``slot`` of its patterns that hold ``anchor`` in ``anchor_slot``."""
    counts = Counter()
    for q in store.queries:
        seen = set()
        for pattern in q.patterns:
            term = getattr(pattern, slot)
            if getattr(pattern, anchor_slot) == anchor and term.concrete:
                seen.add(term)
        for term in seen:
            counts[term] += 1
    return counts


def _oracle_signature(start, hops):
    """Orient a walk of ``(predicate, direction, node)`` hops from ``start`` so
    that the lesser end comes first, then rename its variables positionally."""
    nodes = [start] + [node for _, _, node in hops]
    predicates = [predicate for predicate, _, _ in hops]
    directions = [direction for _, direction, _ in hops]
    if nodes[0].sort_key() > nodes[-1].sort_key():
        nodes.reverse()
        predicates.reverse()
        directions = [BACKWARD if d == FORWARD else FORWARD for d in reversed(directions)]
    renames = {}

    def canon(term):
        if term.kind != VARIABLE:
            return term
        return Term(VARIABLE, renames.setdefault(term.lexical, f"v{len(renames)}"))

    steps = tuple(
        Step(canon(predicates[i]), directions[i], canon(nodes[i + 1]))
        for i in range(len(predicates))
    )
    return PathSignature(steps, (nodes[0], nodes[-1]))


def oracle_shortest_path(graph, x, y):
    """Every minimum-hop walk from ``x`` to ``y`` over every edge of
    ``graph.edges``, each made a signature; the least one by ``sort_key``."""
    adj = {}
    for edge in graph.edges:
        adj.setdefault(edge.subject, []).append((edge.predicate, FORWARD, edge.object))
        adj.setdefault(edge.object, []).append((edge.predicate, BACKWARD, edge.subject))
    dist = {y: 0}
    queue = deque([y])
    while queue:
        node = queue.popleft()
        for _, _, neighbor in adj.get(node, ()):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    if x not in dist:
        return None
    signatures = []
    stack = [(x, ())]
    while stack:
        node, hops = stack.pop()
        if node == y:
            signatures.append(_oracle_signature(x, hops))
            continue
        for hop in adj.get(node, ()):
            if dist.get(hop[2]) == dist[node] - 1:
                stack.append((hop[2], hops + (hop,)))
    return min(signatures, key=PathSignature.sort_key)


@pytest.fixture(scope="session")
def university_store():
    return store_from_texts(UNIVERSITY_QUERIES)


@pytest.fixture
def university_file():
    return UNIVERSITY_FILE
