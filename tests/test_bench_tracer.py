"""The benchmark's tracer must still find and restore every name it wraps.

``bench/tracer.py`` patches functions at the names the package's modules
call (``isummary.workload.build_graph``, ``WorkloadStore.node_terms``, ...).
A renamed or deleted name makes its ``install`` fail, so this test puts that
failure in the default suite and not only in ``pytest bench``.  A name that
is still defined but no longer called would make its per-layer metric read 0
without an error, so a small traced run must reach every wrapped name.
"""

import importlib
from pathlib import Path

from isummary import summarizer, workload
from isummary.terms import iri

from conftest import UNIVERSITY_FILE

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_then_restore_puts_back_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracer")
    coverage = importlib.import_module("isummary.coverage")
    owners = (workload, summarizer, coverage, workload.WorkloadStore)
    before = [dict(vars(owner)) for owner in owners]

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = {
            (owner, attr)
            for owner, snapshot in zip(owners, before)
            for attr, value in vars(owner).items()
            if snapshot.get(attr) is not value
        }
    finally:
        tracer.restore()

    assert (workload, "concrete_node_terms") in patched
    assert (workload.WorkloadStore, "node_terms") in patched
    assert (coverage, "coverage") in patched
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert after.keys() == snapshot.keys()
        assert all(after[attr] is value for attr, value in snapshot.items())


def test_every_traced_name_is_called(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracer")
    coverage = importlib.import_module("isummary.coverage")

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        store = workload.load_workload(UNIVERSITY_FILE)
        for strategy in summarizer.STRATEGIES:
            request = summarizer.SummaryRequest((iri("Person"),), 3, strategy, random_seed=1)
            summary = summarizer.summarize(store, request)
            summarizer.to_ntriples(summary)
            summarizer.to_json(summary)
        config = coverage.CoverageConfig(split_ratio=0.6, folds=2, sample_seeds=2, rng_seed=3)
        coverage.evaluate(store, config, [2], [summarizer.ISUMMARY])
    finally:
        tracer.restore()

    by_name, _ = tracer.totals()
    assert sorted(name for name in tracer.names if by_name[name][0] == 0) == []
    for counter in ("workload.graph.calls", "workload.node_terms.calls",
                    "workload.node_terms.builds"):
        assert tracer.counts[counter] > 0, counter
