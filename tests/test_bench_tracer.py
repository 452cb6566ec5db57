"""The benchmark's tracer must still find and restore every name it wraps.

``bench/tracer.py`` patches functions at the names the package's modules
call (``isummary.workload.build_graph``, ``WorkloadStore.node_terms``, ...).
A renamed or deleted name makes its ``install`` fail, so this test puts that
failure in the default suite and not only in ``pytest bench``.
"""

import importlib
from pathlib import Path

from isummary import summarizer, workload

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
