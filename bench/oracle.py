"""Computations the benchmark makes apart from the program, to check its outputs.

Terms are plain tuples ``(kind, lexical, datatype_or_lang)`` here, so nothing
in this module depends on the package under test.  It re-derives, from the
README's rules and the generator's own records:

* the pinned splitmix64 / xorshift64* stream and its Fisher-Yates shuffle;
* the type collapse of a query (its concrete nodes and its edges);
* the coverage of a summary against test queries, by brute force.
"""

from __future__ import annotations

import hashlib
from collections import Counter

IRI, LITERAL, BLANK, VARIABLE = "iri", "literal", "blank", "variable"
RDF_TYPE = (IRI, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", None)

_MASK = (1 << 64) - 1


def sort_key(term):
    return (term[0], term[1], term[2] or "")


def concrete(term) -> bool:
    return term[0] != VARIABLE


def term_from_json(obj) -> tuple:
    """A term from the program's JSON form ``{kind, lexical, datatypeOrLang}``."""
    return (obj["kind"], obj["lexical"], obj["datatypeOrLang"])


def ntriples_term(term) -> str:
    """N-Triples form of a concrete term, as the README's output format writes it."""
    kind, lexical, extra = term
    if kind == IRI:
        return f"<{lexical}>"
    if kind == BLANK:
        return f"_:{lexical}"
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    body = "".join(escapes.get(c, c) for c in lexical)
    if extra is None:
        return f'"{body}"'
    if extra.startswith("@"):
        return f'"{body}"{extra}'
    return f'"{body}"^^<{extra}>'


# -- the pinned generator, re-derived from the README -------------------------

def _splitmix64(value: int) -> int:
    z = (value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """xorshift64* seeded through one splitmix64 step (state forced non-zero)."""

    def __init__(self, seed: int):
        self.state = _splitmix64(seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, xs) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def fold_split(n_queries: int, rng_seed: int, fold: int, split_ratio: float):
    """Train and test query ids of one fold: ids 0..n-1 shuffled with seed rng_seed+fold."""
    ids = list(range(n_queries))
    Stream(rng_seed + fold).shuffle(ids)
    cut = int(n_queries * split_ratio)
    return ids[:cut], ids[cut:]


def cell_stream_seed(rng_seed: int, fold: int, seed_sparql: str, k: int, strategy: str) -> int:
    """Random-baseline stream seed of one cell: SHA-256 of ``rng_seed|fold|seed|k|strategy``."""
    tag = f"{rng_seed}|{fold}|{seed_sparql}|{k}|{strategy}"
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


# -- type collapse ---------------------------------------------------------------

def collapse(patterns):
    """(concrete nodes, edges) of a query after type collapse.

    A variable typed by concrete IRI classes is replaced everywhere by its
    least class, and the type pattern naming that class is dropped from the
    edges.  Edges are (source, predicate, target) triples.
    """
    classes = {}
    for s, p, o in patterns:
        if p == RDF_TYPE and s[0] == VARIABLE and o[0] == IRI:
            classes.setdefault(s, set()).add(o)
    relabel = {v: min(cs, key=sort_key) for v, cs in classes.items()}
    nodes = set()
    edges = []
    for s, p, o in patterns:
        s2, p2, o2 = relabel.get(s, s), relabel.get(p, p), relabel.get(o, o)
        nodes.add(s2)
        nodes.add(o2)
        if not (p == RDF_TYPE and s in relabel and o == relabel[s]):
            edges.append((s2, p2, o2))
    return {n for n in nodes if concrete(n)}, edges


def term_set(patterns) -> set:
    """Concrete terms in any position of the patterns."""
    return {t for pattern in patterns for t in pattern if concrete(t)}


def node_frequencies(records, ids, exclude=()):
    """Distinct-record counts of the concrete collapsed nodes of the given records."""
    freq = Counter()
    for i in ids:
        freq.update(collapse(records[i])[0])
    for term in exclude:
        freq.pop(term, None)
    return freq


def ranked(freq: Counter):
    return sorted(freq.items(), key=lambda kv: (-kv[1], sort_key(kv[0])))


def brute_coverage(summary_nodes, summary_triples, test_records, seeds, w_node, w_edge):
    """Mean node, edge and combined coverage over test records containing all seeds.

    Linear scans only: no index, no caching.  Returns (n, node, edge, combined).
    """
    universe = set(summary_nodes)
    for triple in summary_triples:
        universe.update(triple)
    node_sum = edge_sum = combined_sum = 0.0
    n = 0
    for patterns in test_records:
        if not set(seeds) <= term_set(patterns):
            continue
        nodes, edges = collapse(patterns)
        edges = [e for e in edges if concrete(e[1])]
        node_fraction = sum(1 for t in nodes if t in universe) / len(nodes) if nodes else 0.0
        hit = 0
        for source, predicate, target in edges:
            for s, p, o in summary_triples:
                if p != predicate:
                    continue
                if concrete(source) and source != s:
                    continue
                if concrete(target) and target != o:
                    continue
                hit += 1
                break
        edge_fraction = hit / len(edges) if edges else 0.0
        n += 1
        node_sum += node_fraction
        edge_sum += edge_fraction
        combined_sum += w_node * node_fraction + w_edge * edge_fraction
    if not n:
        return 0, 0.0, 0.0, 0.0
    return n, node_sum / n, edge_sum / n, combined_sum / n
