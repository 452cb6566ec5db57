import importlib.util
from pathlib import Path

import pytest

from isummary.parser import parse_query
from isummary.synth import write_queries
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
    included, computed without calling the package.

    A variable with rdf:type patterns naming IRIs is relabeled by its least
    class (by IRI text); each pattern's relabeled subject and object is a
    node.  Its concrete part is ``oracle.collapse``'s node set, which must be
    the store's node terms: type collapse never adds or removes a concrete
    node.
    """
    classes = {}
    for subject, predicate, obj in query.patterns:
        if predicate == oracle.RDF_TYPE and subject.kind == "variable" and obj.kind == "iri":
            classes.setdefault(subject, []).append(obj)
    relabel = {v: min(cs, key=lambda c: c.lexical) for v, cs in classes.items()}
    return {relabel.get(t, t) for subject, _, obj in query.patterns for t in (subject, obj)}


@pytest.fixture(scope="session")
def university_store():
    return store_from_texts(UNIVERSITY_QUERIES)


@pytest.fixture
def university_file():
    return UNIVERSITY_FILE
