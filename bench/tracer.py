"""Spans and counters around the program's public functions, for the traced run.

The package's modules import each other's functions by name, so a wrapper is
installed at the name each caller looks up (``isummary.workload.parse_query``
is what ``load_workload`` calls, ``isummary.summarizer.shortest_path`` what
``link`` calls, and so on), and on the class for ``WorkloadStore`` methods.
A span is (name, start, end, parent); spans are kept in flat arrays while the
run lasts and written out when it ends.  A span's self time is its duration
minus the durations of its direct children.  Calls too frequent for a
span each (``WorkloadStore.graph`` and ``node_terms``) are only counted.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original))

    def span(self, owner, attr: str, name: str, on_result=None, on_error=None):
        """Record a span named ``name`` for every call of ``owner.attr``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                sid = len(starts)
                names.append(name_id)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    ends[sid] = clock()
                    starts[sid] = t0
                    stack.pop()
                    if on_error is not None:
                        on_error(exc)
                    raise
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
                if on_result is not None:
                    on_result(result)
                return result
            traced.__wrapped__ = fn
            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, counter: str):
        """Count the calls of ``owner.attr`` without a span (for very frequent calls)."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        self._replace(owner, attr, make)

    def restore(self):
        """Put every original function back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Per span name, and per (name, parent name): [calls, total s, self s]."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * len(starts)))
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        by_name: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        by_parent: dict[tuple[str, str], list] = {}
        for sid, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            parent = parents[sid]
            parent_name = self.names[self.span_name[parent]] if parent >= 0 else ""
            duration = ends[sid] - starts[sid]
            for row in (by_name[name], by_parent.setdefault((name, parent_name), [0, 0.0, 0.0])):
                row[0] += 1
                row[1] += duration
                row[2] += duration - child[sid]
        return by_name, by_parent

    def write(self, path) -> None:
        """Spans as one JSON header line, then the raw name, parent, start and end columns."""
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end)]
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [[label, column.typecode] for label, column in columns],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, column in columns:
                column.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from isummary import summarizer, workload

    coverage = importlib.import_module("isummary.coverage")

    counts = tracer.counts

    def rejected(exc):
        if isinstance(exc, workload.ParseError):
            counts["parser.parse_query.rejected"] += 1

    def ids_returned(result):
        counts["workload.filter.ids_returned"] += len(result)

    def path_found(result):
        if result is not None:
            counts["query_graph.shortest_path.found"] += 1

    def linked(result):
        if result is not None:
            counts["summarizer.link.linked"] += 1

    tracer.span(workload, "load_workload", "workload.load_workload")
    tracer.span(workload, "parse_query", "parser.parse_query", on_error=rejected)
    tracer.span(workload.WorkloadStore, "__init__", "workload.index")
    tracer.span(workload.WorkloadStore, "subset", "workload.subset")
    tracer.span(workload.WorkloadStore, "filter", "workload.filter", on_result=ids_returned)
    tracer.count(workload.WorkloadStore, "graph", "workload.graph.calls")
    tracer.count(workload.WorkloadStore, "node_terms", "workload.node_terms.calls")
    tracer.span(workload, "build_graph", "query_graph.build_graph")
    tracer.count(workload, "concrete_node_terms", "workload.node_terms.builds")
    tracer.span(summarizer, "shortest_path", "query_graph.shortest_path", on_result=path_found)
    tracer.span(summarizer, "summarize", "summarizer.summarize")
    tracer.span(summarizer, "link", "summarizer.link", on_result=linked)
    tracer.span(summarizer, "resolve_variables", "summarizer.resolve_variables")
    tracer.span(summarizer, "node_frequencies", "summarizer.node_frequencies")
    tracer.span(summarizer, "to_ntriples", "summarizer.serialize")
    tracer.span(summarizer, "to_json", "summarizer.serialize")
    tracer.span(coverage, "evaluate", "coverage.evaluate")
    tracer.span(coverage, "summarize", "coverage.summarize")
    tracer.span(coverage, "coverage", "coverage.coverage")
    tracer.span(coverage, "node_frequencies", "coverage.node_frequencies")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    by_name, by_parent = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return by_name.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    return {
        "parser.parse_query.calls": calls("parser.parse_query"),
        "parser.parse_query.self_s": own("parser.parse_query"),
        "parser.parse_query.rejected": counts["parser.parse_query.rejected"],
        "workload.load_workload.self_s": own("workload.load_workload"),
        # store construction during the load; subsets count theirs in workload.subset.s
        "workload.index.self_s": by_parent.get(
            ("workload.index", "workload.load_workload"), [0, 0.0, 0.0])[2],
        "workload.subset.calls": calls("workload.subset"),
        "workload.subset.s": total("workload.subset"),
        "workload.filter.calls": calls("workload.filter"),
        "workload.filter.self_s": own("workload.filter"),
        "workload.filter.ids_returned": counts["workload.filter.ids_returned"],
        "workload.graph.calls": counts["workload.graph.calls"],
        "workload.graph.builds": calls("query_graph.build_graph"),
        "workload.node_terms.calls": counts["workload.node_terms.calls"],
        "workload.node_terms.builds": counts["workload.node_terms.builds"],
        "query_graph.build_graph.self_s": own("query_graph.build_graph"),
        "query_graph.shortest_path.calls": calls("query_graph.shortest_path"),
        "query_graph.shortest_path.self_s": own("query_graph.shortest_path"),
        "query_graph.shortest_path.found_ratio": _ratio(
            counts["query_graph.shortest_path.found"], calls("query_graph.shortest_path")),
        "summarizer.summarize.calls": calls("summarizer.summarize"),
        "summarizer.summarize.s": total("summarizer.summarize"),
        "summarizer.link.calls": calls("summarizer.link"),
        "summarizer.link.self_s": own("summarizer.link"),
        "summarizer.link.linked_ratio": _ratio(
            counts["summarizer.link.linked"], calls("summarizer.link")),
        "summarizer.resolve_variables.calls": calls("summarizer.resolve_variables"),
        "summarizer.resolve_variables.self_s": own("summarizer.resolve_variables"),
        "summarizer.node_frequencies.self_s": own("summarizer.node_frequencies"),
        "summarizer.serialize.s": total("summarizer.serialize"),
        "coverage.evaluate.s": total("coverage.evaluate"),
        "coverage.summarize.s": total("coverage.summarize"),
        "coverage.coverage.calls": calls("coverage.coverage"),
        "coverage.coverage.self_s": own("coverage.coverage"),
        "coverage.node_frequencies.self_s": own("coverage.node_frequencies"),
    }


UNITS = {
    "calls": "count", "rejected": "count", "builds": "count", "ids_returned": "count",
    "self_s": "s", "s": "s", "found_ratio": "ratio", "linked_ratio": "ratio",
    "overhead_ratio": "ratio",
}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
