#!/usr/bin/env python3
"""Measure how the load and one summary request grow with the log.

The paper claims summary time linear in the number of queries.  The tests
hold the request's work counts to linear growth; this script shows whether
the time per unit of work stays flat too.  At each size it synthesizes a log
(``SyntheticSpec(n_queries=N, rng_seed=1)``, as ``isummary synth
--n-queries N`` writes it) and measures it in a fresh process, one size at
a time:

* ``load_s``: the seconds ``load_workload`` takes;
* ``max_rss_mb``: the process's maximum resident set, after the load and
  the requests;
* the work of a cold ``Class0`` k=10 request (criterion 5's request):
  ``relevant`` ids, ``shortest_path`` calls and ``build_graph`` calls;
* ``warm_ms``: the best time of the same request over five warm runs,
  each on a fresh full view of the store, and ``us_per_call``: that time
  per ``shortest_path`` call of the request.

The collector is frozen after the load, so a warm request does not pay
for collections over the store.  Nothing is asserted and the numbers
depend on the machine; the script is opt-in and no test runs it.  The
output is one header line, then one whitespace-separated row per size.

Example:
    python3 scripts/scaling.py                            # 100k and 300k records
    python3 scripts/scaling.py --sizes 100000,300000,1000000
"""

import argparse
import concurrent.futures
import gc
import multiprocessing
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from isummary import summarizer, workload
from isummary.summarizer import SummaryRequest, summarize
from isummary.synth import SyntheticSpec, write_queries
from isummary.terms import iri

COLUMNS = ("records", "load_s", "max_rss_mb", "relevant", "shortest_path", "build_graph",
           "warm_ms", "us_per_call")
REQUEST = SummaryRequest((iri("Class0"),), 10)
WARM_RUNS = 5


def _counted(tally, name, fn):
    def counted(*args):
        tally[name] += 1
        return fn(*args)
    return counted


def measure(path: str) -> dict:
    """One size's row; run in a process of its own, so the max RSS is its own."""
    start = time.perf_counter()
    store = workload.load_workload(path)
    load_s = time.perf_counter() - start
    gc.freeze()
    tally = Counter(relevant=len(store.filter(REQUEST.seeds)))
    shortest_path, build_graph = summarizer.shortest_path, workload.build_graph
    summarizer.shortest_path = _counted(tally, "shortest_path", shortest_path)
    workload.build_graph = _counted(tally, "build_graph", build_graph)
    try:
        summarize(store, REQUEST)
    finally:
        summarizer.shortest_path, workload.build_graph = shortest_path, build_graph
    warm = []
    for _ in range(WARM_RUNS):
        view = store.subset(store.ids())
        start = time.perf_counter()
        summarize(view, REQUEST)
        warm.append(time.perf_counter() - start)
    best = min(warm)
    # kilobytes on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = rss / 2**20 if sys.platform == "darwin" else rss / 2**10
    return {
        "records": len(store) + store.rejected_count, "load_s": f"{load_s:.2f}",
        "max_rss_mb": f"{rss_mb:.0f}", **{name: tally[name] for name in COLUMNS[3:6]},
        "warm_ms": f"{best * 1000:.1f}",
        "us_per_call": f"{best * 1e6 / max(tally['shortest_path'], 1):.2f}",
    }


def _sizes(text: str) -> list[int]:
    sizes = [int(part) for part in text.split(",")]
    if any(size < 1 for size in sizes):
        raise ValueError("sizes must be >= 1")
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=_sizes, default=[100_000, 300_000],
                        help="comma-separated record counts (default 100000,300000)")
    args = parser.parse_args(argv)

    print(" ".join(COLUMNS), flush=True)
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        for size in args.sizes:
            path = Path(tmp) / f"synth{size}.txt"
            with open(path, "w", encoding="utf-8") as fh:
                write_queries(SyntheticSpec(n_queries=size, rng_seed=1), fh)
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
                row = pool.submit(measure, str(path)).result()
            print(" ".join(str(row[name]) for name in COLUMNS), flush=True)
            path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
