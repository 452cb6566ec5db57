from pathlib import Path

import pytest

from isummary.parser import parse_query
from isummary.synth import write_queries
from isummary.workload import WorkloadStore

FIXTURES = Path(__file__).parent / "fixtures"
UNIVERSITY_FILE = FIXTURES / "university_workload.txt"

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


_RDF_TYPE = ("iri", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", None)


def collapsed_nodes(query):
    """Oracle: the node set of the query's type-collapsed graph, variables
    included, computed without calling the package.

    A variable with rdf:type patterns naming IRIs is relabeled by its least
    class (by IRI text); each pattern's relabeled subject and object is a
    node.  Its concrete part must be the store's node terms: type collapse
    never adds or removes a concrete node.
    """
    classes = {}
    for subject, predicate, obj in query.patterns:
        if predicate == _RDF_TYPE and subject.kind == "variable" and obj.kind == "iri":
            classes.setdefault(subject, []).append(obj)
    relabel = {v: min(cs, key=lambda c: c.lexical) for v, cs in classes.items()}
    return {relabel.get(t, t) for subject, _, obj in query.patterns for t in (subject, obj)}


def collapsed_concrete_nodes(query):
    return {t for t in collapsed_nodes(query) if t.kind != "variable"}


@pytest.fixture(scope="session")
def university_store():
    return store_from_texts(UNIVERSITY_QUERIES)


@pytest.fixture
def university_file():
    return UNIVERSITY_FILE
