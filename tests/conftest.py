import importlib.util
from collections import Counter, deque
from pathlib import Path

import pytest

from isummary.parser import _ESCAPE_RE, _STRING_ESCAPES, _TERM_KEYWORDS, END, _Parser, parse_query
from isummary.query_graph import BACKWARD, FORWARD, PathSignature, Step
from isummary.synth import write_queries
from isummary.terms import BLANK, IRI, LITERAL, VARIABLE, Term, interned
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


def term_key(term):
    """Oracle: the order of terms spelled out, apart from their tuple order:
    kind, then lexical, then the datatype or language tag, a missing one
    read as ``""``."""
    return (term.kind, term.lexical, term.datatype_or_lang or "")


def signature_key(signature):
    """Oracle: a path signature's order by ``term_key``: steps, then ends."""
    steps = tuple((term_key(p), d, term_key(w)) for p, d, w in signature.steps)
    return (steps, tuple(map(term_key, signature.endpoints)))


def oracle_terms(terms):
    """``terms``, a term or a nest of tuples of them, in the benchmark
    oracle's form: plain tuples ``(kind, lexical, datatype_or_lang)``, with
    None for a missing tag."""
    if isinstance(terms, Term):
        return (terms.kind, terms.lexical, terms.datatype_or_lang)
    return tuple(map(oracle_terms, terms))


def collapsed_nodes(query):
    """Oracle: the node set of the query's type-collapsed graph, variables
    included: ``oracle.collapse``'s concrete nodes plus its edges' ends (an
    absorbed type pattern has only concrete ends)."""
    nodes, edges = oracle.collapse(oracle_terms(query.patterns))
    return {Term(*t) for t in nodes} | {Term(*t) for s, _, o in edges for t in (s, o)}


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
    if term_key(nodes[0]) > term_key(nodes[-1]):
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
    ``graph.edges``, each made a signature; the least by ``signature_key``."""
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
    return min(signatures, key=signature_key)


class _TermRuleParser(_Parser):
    """Oracle: the full parser's term rules as they were before they became
    module functions that work on the token list (the subject and object
    part; the one-term reader never reads a predicate).  Each rule is a
    method that steps through the parser's own tokens."""

    def _interned(self, tok, make, fields: tuple):
        try:
            return interned(self.table, make, fields)
        except ValueError as exc:
            self._error(str(exc), tok)

    def _parse_term(self) -> Term:
        tok = self._peek()
        kind, value, _ = tok
        self._advance()
        if kind == "VAR":
            term = self._interned(tok, Term, (VARIABLE, value[1:], ""))
        elif kind == "NAME":
            if value.upper() in _TERM_KEYWORDS:
                self._error(f"unsupported construct: {value}", tok)
            else:
                term = self._term_from_name(tok)
        elif kind == "IRIREF":
            term = self._iri_from_ref(tok)
        elif kind == "STRING":
            term = self._finish_literal(tok)
        elif kind == "BLANK":
            term = self._interned(tok, Term, (BLANK, value[2:], ""))
        elif kind == "NUMBER":
            term = self._interned(tok, Term, (LITERAL, value, ""))
        elif kind == "OTHER":
            self._error(f"unexpected character {value!r}", tok)
        else:
            self._error("expected term", tok)
        return term

    def _iri_from_ref(self, tok) -> Term:
        inner = tok[1][1:-1]
        if not inner:
            self._error("empty IRI", tok)
        return self._interned(tok, Term, (IRI, inner, ""))

    def _term_from_name(self, tok) -> Term:
        value = tok[1]
        if ":" in value:
            prefix, _, local = value.partition(":")
            if prefix not in self.prefixes:
                self._error(f"unknown prefix {prefix + ':'!r}", tok)
            expanded = self.prefixes[prefix] + local
            if not expanded:
                self._error("empty IRI", tok)
            return self._interned(tok, Term, (IRI, expanded, ""))
        return self._interned(tok, Term, (IRI, self.base_prefix + value, ""))

    def _finish_literal(self, tok) -> Term:
        lexical = self._decode_string(tok)
        kind, value, _ = self._peek()
        if kind == "LANGTAG":
            self._advance()
            return self._interned(tok, Term, (LITERAL, lexical, value))
        if kind == "DTSEP":
            self._advance()
            dt_tok = self._advance()
            if dt_tok[0] == "IRIREF":
                dt = self._iri_from_ref(dt_tok)
            elif dt_tok[0] == "NAME" and ":" in dt_tok[1]:
                dt = self._term_from_name(dt_tok)
            else:
                self._error("expected datatype IRI", dt_tok)
            return self._interned(tok, Term, (LITERAL, lexical, dt.lexical))
        return self._interned(tok, Term, (LITERAL, lexical, ""))

    def _decode_string(self, tok) -> str:
        # the STRING token pairs every backslash with the character after it
        def escape(match):
            if match.group(1) not in _STRING_ESCAPES:
                self._error("bad string escape", tok)
            return _STRING_ESCAPES[match.group(1)]

        return _ESCAPE_RE.sub(escape, tok[1][1:-1])


def oracle_read_term(text, base_prefix, table):
    """Oracle: the term that ``text`` spells whole, read by a full parser
    built for it (`_TermRuleParser`) and interned in ``table``;
    ``ParseError`` otherwise."""
    parser = _TermRuleParser(text, base_prefix, table)
    term = parser._parse_term()
    if parser._peek()[0] != END:
        parser._error("trailing content after term")
    return term


@pytest.fixture(scope="session")
def university_store():
    return store_from_texts(UNIVERSITY_QUERIES)


@pytest.fixture
def university_file():
    return UNIVERSITY_FILE
