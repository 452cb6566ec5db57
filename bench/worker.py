"""One benchmark worker process: load the log, run the timed phase, check outputs.

Run by ``run.py`` with the checkout's ``src`` on the path::

    python3 bench/worker.py --workload NAME --inputs DIR --mode setup
    python3 bench/worker.py --workload NAME --inputs DIR --mode run \
        (--seconds S | --rounds N) [--trace 1 --spans FILE]

``setup`` mode times ``load_workload`` alone.  ``run`` mode loads, collects
garbage, runs whole rounds of the workload's operations (until ``--seconds``
have passed, or exactly ``--rounds`` rounds), reads ``ru_maxrss``, and then
checks the outputs.  The last line of standard output is one JSON object.
The worker is single-threaded and acts as one closed-loop client.

Every timing is taken twice: as measured, and at the nominal machine speed
(``pace``).  A reference unit runs after every operation, and a few around
each load.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import oracle
import pace as pacing
import tracer as tracing
from isummary import summarizer, workload
from isummary.terms import Term

# the package exports a function named coverage, which hides the module
coverage = importlib.import_module("isummary.coverage")

clock = time.perf_counter


LOAD_SEGMENT_RECORDS = 200


def _load(inputs: Path, plan: dict, pace: pacing.Pace):
    """The store, the load's time as measured, and that time at the nominal speed.

    The load is cut into pace segments of ``LOAD_SEGMENT_RECORDS`` records, by
    a counter at ``isummary.workload.parse_query``, the name the load calls.
    The units' own time is left out of both figures.
    """
    parse = workload.parse_query
    calls = itertools.count(1)

    def paced_parse(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        finally:
            if next(calls) % LOAD_SEGMENT_RECORDS == 0:
                pace.mark()

    pace.reset()
    workload.parse_query = paced_parse
    pace.start()
    try:
        store = workload.load_workload(inputs / "log.txt", base_prefix=plan["base_prefix"])
    finally:
        pace.mark()
        workload.parse_query = parse
    setup_s, setup_norm = pace.raw(), pace.normalized()
    pace.reset()
    return store, setup_s, setup_norm


def _rounds(plan_rounds, seconds, rounds, min_rounds, pace: pacing.Pace):
    """Whole rounds to run: exactly ``rounds``, or at least ``min_rounds`` and until
    ``seconds`` of work at the nominal speed are done, so that a run on a busy
    machine does the same work as one on a quiet machine.  The plan repeats
    from its start if it runs out."""
    for index in itertools.count():
        if rounds is not None and index >= rounds:
            return
        if rounds is None and index >= min_rounds and pace.normalized() >= seconds:
            return
        yield plan_rounds[index % len(plan_rounds)]


class Timed:
    """What the timed phase did: operations, failures, latencies, produced outputs."""

    def __init__(self, pace: pacing.Pace):
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.latencies: list[tuple[float, int]] = []  # (seconds, pace segment)
        self.outputs: list = []
        self.cells = 0
        self.summaries = 0
        self.wall = 0.0

    def fail(self, what, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"operation failed: {what}: {exc!r}", file=sys.stderr)

    def latency(self, seconds: float) -> None:
        """Record one latency and close its pace segment."""
        self.latencies.append((seconds, self.pace.mark()))


def _request(req: dict) -> summarizer.SummaryRequest:
    seed = Term(*req["seed"])
    return summarizer.SummaryRequest((seed,), req["k"], req["strategy"],
                                     random_seed=req["random_seed"])


def _serve(store, req: dict) -> checks.Output:
    """One interactive request as the CLI serves it: summarize, then both serializations."""
    summary = summarizer.summarize(store, _request(req))
    return checks.Output(req, summarizer.to_ntriples(summary), summarizer.to_json(summary))


# -- summarize-100k ---------------------------------------------------------------

def run_summarize(store, plan, seconds, rounds, timed: Timed) -> None:
    start = clock()
    timed.pace.start()
    for batch in _rounds(plan["rounds"], seconds, rounds, plan["min_rounds"], timed.pace):
        for req in batch:
            timed.attempted += 1
            t0 = clock()
            try:
                out = _serve(store, req)
            except Exception as exc:
                timed.fail(req, exc)
                timed.pace.mark()
                continue
            timed.latency(clock() - t0)
            timed.outputs.append(out)
    timed.wall = clock() - start
    timed.summaries = timed.cells = len(timed.outputs)


def rerun_sample(outputs, count: int):
    """A deterministic spread of outputs: the heaviest seeds first, then every n-th."""
    by_weight = sorted(range(len(outputs)), key=lambda i: (-outputs[i].request["weight"], i))
    step = max(1, len(outputs) // count)
    picked = list(dict.fromkeys(by_weight[:3] + list(range(0, len(outputs), step))))
    return [outputs[i] for i in picked[:count]]


def check_summarize(store, plan, inputs: Path, timed: Timed) -> dict:
    records, rejected = gen.load_side(inputs / "side.json")
    checks.check_load(len(store), store.rejected_count, records, rejected)
    checks.check_ledgers(timed.outputs)
    pairs = checks.check_monotone(timed.outputs)
    sample = rerun_sample(timed.outputs, 12)
    reruns = [_serve(store, out.request) for out in sample]
    repeats = checks.check_repeats(timed.outputs, reruns)
    checks.check_frequencies(sample, checks.RecordIndex(records))
    return {"monotone_pairs": pairs, "repeats_compared": repeats, "recounted": len(sample)}


# -- long-paths ----------------------------------------------------------------------

def _chain_request(plan, item) -> dict:
    pair = plan["pairs"][item["pair"]]
    return {"seed": pair["ends"][item["seed_end"]], "k": plan["k"], "strategy": "isummary",
            "random_seed": 0, "pair": item["pair"], "seed_end": item["seed_end"]}


def run_long_paths(store, plan, seconds, rounds, timed: Timed) -> None:
    requests = [[_chain_request(plan, item) for item in batch] for batch in plan["rounds"]]
    run_summarize(store, {"rounds": requests, "min_rounds": plan["min_rounds"]},
                  seconds, rounds, timed)


def check_long_paths(store, plan, inputs: Path, timed: Timed) -> dict:
    records, rejected = gen.load_side(inputs / "side.json")
    checks.check_load(len(store), store.rejected_count, records, rejected)
    checks.check_chains(timed.outputs, plan["pairs"])
    return {"chains_checked": len(timed.outputs)}


# -- evaluate-50k --------------------------------------------------------------------

def _config(plan, rng_seed: int) -> coverage.CoverageConfig:
    return coverage.CoverageConfig(rng_seed=rng_seed, **plan["config"])


def run_evaluate(store, plan, seconds, rounds, timed: Timed) -> None:
    # time each summary the protocol builds, at the name evaluate calls
    original = coverage.summarize

    def timed_summarize(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            timed.latency(clock() - t0)

    coverage.summarize = timed_summarize
    start = clock()
    timed.pace.start()
    try:
        for rng_seed in _rounds(plan["rng_seeds"], seconds, rounds, plan["min_rounds"],
                                timed.pace):
            timed.attempted += 1
            try:
                result = coverage.evaluate(store, _config(plan, rng_seed), plan["k"],
                                           plan["strategies"])
            except Exception as exc:
                timed.fail(f"evaluate rng_seed={rng_seed}", exc)
                continue
            finally:
                timed.pace.mark()
            timed.outputs.append((rng_seed, result))
            skipped = sum(1 for w in result.warnings if w.startswith("SkippedCell"))
            timed.cells += len(result.rows)
            timed.summaries += len(result.rows) + skipped
    finally:
        timed.wall = clock() - start
        coverage.summarize = original


def check_evaluate(store, plan, inputs: Path, timed: Timed) -> dict:
    records, rejected = gen.load_side(inputs / "side.json")
    checks.check_load(len(store), store.rejected_count, records, rejected)
    config = plan["config"]
    rescored = 0
    for call, (rng_seed, result) in enumerate(timed.outputs):
        checks.check_rows(result.rows, result.warnings, config, plan["k"], plan["strategies"])
        # rescore a few cells of one fold per call with the brute-force scorer
        fold = call % config["folds"]
        rows = [r for r in result.rows if r.fold == fold]
        picked = rows[::max(1, len(rows) // 4)][:4]
        train_ids, test_ids = oracle.fold_split(
            len(records), rng_seed, fold, config["split_ratio"])
        train = store.subset(train_ids)
        test_records = [records[i] for i in test_ids]
        for row in picked:
            seed_text = oracle.ntriples_term((row.seed.kind, row.seed.lexical,
                                              row.seed.datatype_or_lang))
            request = summarizer.SummaryRequest(
                (row.seed,), row.k, row.strategy,
                random_seed=oracle.cell_stream_seed(rng_seed, fold, seed_text, row.k,
                                                    row.strategy))
            summary = summarizer.summarize(train, request)
            nodes = [(t.kind, t.lexical, t.datatype_or_lang) for t, _ in summary.nodes]
            triples = [tuple((t.kind, t.lexical, t.datatype_or_lang) for t in tr.terms())
                       for tr in summary.triples]
            checks.check_rescored(row, nodes, triples, test_records, config)
            rescored += 1
    return {"rescored_cells": rescored}


RUNNERS = {
    gen.SUMMARIZE: (run_summarize, check_summarize),
    gen.LONG_PATHS: (run_long_paths, check_long_paths),
    gen.EVALUATE: (run_evaluate, check_evaluate),
}


def _quantiles(latencies):
    deciles = statistics.quantiles(latencies, n=10)
    return deciles[4], deciles[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "run"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    plan = json.loads((args.inputs / "plan.json").read_text(encoding="utf-8"))

    pace = pacing.Pace()
    if args.mode == "setup":
        _, setup_s, setup_norm = _load(args.inputs, plan, pace)
        print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_norm}))
        return 0
    if (args.seconds is None) == (args.rounds is None):
        parser.error("run mode takes exactly one of --seconds and --rounds")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        # the reference units get spans of their own, so no layer's self time holds them
        tracer.span(pace, "unit", "bench.pace")
    store, setup_s, setup_norm = _load(args.inputs, plan, pace)
    gc.collect()
    run, check = RUNNERS[args.workload]
    timed = Timed(pace)
    run(store, plan, args.seconds, args.rounds, timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    result = {
        "setup_s": setup_s, "setup_norm_s": setup_norm,
        "timed_s": timed.wall, "busy_s": pace.raw(), "busy_norm_s": pace.normalized(),
        "attempted": timed.attempted, "failed": timed.failed,
        "summaries": timed.summaries, "cells": timed.cells,
        "latency_samples": len(timed.latencies), "peak_rss_mb": peak_rss_mb,
    }
    result["p50_s"], result["p90_s"] = _quantiles([s for s, _ in timed.latencies])
    result["p50_norm_s"], result["p90_norm_s"] = _quantiles(
        [s * pace.factor(segment) for s, segment in timed.latencies])
    try:
        result["checks"] = check(store, plan, args.inputs, timed)
        result["correct"] = True
    except checks.CheckFailed as exc:
        result["correct"] = False
        result["problem"] = str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:
        result["correct"] = False
        result["problem"] = "check raised"
        traceback.print_exc()
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(tracer)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
