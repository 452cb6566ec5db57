"""Fast tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root.

Every workload runs at a small size through the same runner and checks as a
real run, and every check is shown to fail on a deliberately perturbed output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import gen  # noqa: E402
import pace as pacing  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

SMALL_EVAL = {"folds": 3, "sample_seeds": 5, "split_ratio": 0.8, "w_node": 0.5, "w_edge": 0.5}


def _small_inputs(tmp, name):
    out = tmp / name
    out.mkdir()
    if name == gen.SUMMARIZE:
        gen.summarize_inputs(5, out, n_queries=3000, rounds=3, slots=30)
    elif name == gen.EVALUATE:
        gen.evaluate_inputs(5, out, n_queries=3000, calls=2, config=SMALL_EVAL)
    else:
        gen.long_paths_inputs(5, out, depths=(7, 6, 5, 4), pair_sets=2, filler=200)
    return out


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Each workload at a small size: (store, plan, inputs, timed) after two rounds."""
    tmp = tmp_path_factory.mktemp("inputs")
    results = {}
    for name in gen.WORKLOADS:
        inputs = _small_inputs(tmp, name)
        plan = json.loads((inputs / "plan.json").read_text())
        pace = pacing.Pace(pool_records=500)
        store, _, _ = worker._load(inputs, plan, pace)
        timed = worker.Timed(pace)
        worker.RUNNERS[name][0](store, plan, None, 2, timed)
        results[name] = (store, plan, inputs, timed)
    return results


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_workload_runs_and_passes_its_checks(ran, name):
    store, plan, inputs, timed = ran[name]
    assert timed.failed == 0
    assert timed.attempted == 2 * (1 if name == gen.EVALUATE else len(plan["rounds"][0]))
    assert timed.latencies and timed.summaries and timed.cells
    worker.RUNNERS[name][1](store, plan, inputs, timed)


def test_generator_side_record_matches_what_the_program_parses(ran):
    for name in gen.WORKLOADS:
        store, _, inputs, _ = ran[name]
        records, rejected = gen.load_side(inputs / "side.json")
        assert store.rejected_count == rejected
        for query, patterns in zip(store.queries, records):
            parsed = sorted(tuple((t.kind, t.lexical, t.datatype_or_lang) for t in p.terms())
                            for p in query.patterns)
            assert parsed == sorted(patterns)


def test_summarize_log_mixes_rich_and_rejected_records(ran):
    _, _, inputs, _ = ran[gen.SUMMARIZE]
    text = (inputs / "log.txt").read_text()
    for marker in ("PREFIX ex:", " ; ", "OPTIONAL {", " UNION ", "FILTER", "@en", "^^",
                   "CONSTRUCT", "{ SELECT", "/ex:rel1"):
        assert marker in text, marker


# -- every check fails on a perturbed output ------------------------------------------

def _with_report(out, edit):
    report = json.loads(out.report)
    edit(report)
    return checks.Output(out.request, out.ntriples, json.dumps(report))


def _greedy_with_triples(timed):
    """A greedy output with a full ledger (no shortfall) of at least three nodes."""
    return next(o for o in timed.outputs if o.request["strategy"] == "isummary"
                and len(o.ledger()) == o.request["k"] and o.ntriples)


def test_load_check_catches_a_wrong_rejected_count(ran):
    store, _, inputs, _ = ran[gen.SUMMARIZE]
    records, rejected = gen.load_side(inputs / "side.json")
    with pytest.raises(checks.CheckFailed):
        checks.check_load(len(store), store.rejected_count + 1, records, rejected)
    with pytest.raises(checks.CheckFailed):
        checks.check_load(len(store) - 1, store.rejected_count, records, rejected)


def test_ledger_checks_catch_weight_order_and_shortfall(ran):
    timed = ran[gen.SUMMARIZE][3]
    out = _greedy_with_triples(timed)

    def bump_seed(report):
        report["nodes"][0]["frequency"] += 1

    def swap_order(report):
        report["nodes"][1], report["nodes"][2] = report["nodes"][2], report["nodes"][1]
        if report["nodes"][1]["frequency"] == report["nodes"][2]["frequency"]:
            report["nodes"][2]["frequency"] += 1

    def flag_shortfall(report):
        report["warnings"].append({"kind": "BudgetShortfall", "message": "", "term": None})

    for edit in (bump_seed, swap_order, flag_shortfall):
        with pytest.raises(checks.CheckFailed):
            checks.check_ledgers([_with_report(out, edit)])
    short = next((o for o in timed.outputs if "BudgetShortfall" in o.warning_kinds()), None)
    if short is not None:
        def drop_shortfall(report):
            report["warnings"] = [w for w in report["warnings"] if w["kind"] != "BudgetShortfall"]
        with pytest.raises(checks.CheckFailed):
            checks.check_ledgers([_with_report(short, drop_shortfall)])


def test_monotone_check_catches_a_missing_triple(ran):
    timed = ran[gen.SUMMARIZE][3]
    assert checks.check_monotone(timed.outputs) > 0
    small = large = None
    for a in timed.outputs:
        for b in timed.outputs:
            if (a.request["strategy"] == b.request["strategy"] == "isummary"
                    and a.request["seed"] == b.request["seed"]
                    and a.request["k"] < b.request["k"] and a.ntriples):
                small, large = a, b
    assert small is not None
    kept = [line for line in large.ntriples.splitlines(keepends=True)
            if line != small.ntriples.splitlines(keepends=True)[0]]
    broken = checks.Output(large.request, "".join(kept), large.report)
    with pytest.raises(checks.CheckFailed):
        checks.check_monotone([small, broken])


def test_repeat_check_catches_different_bytes(ran):
    timed = ran[gen.SUMMARIZE][3]
    out = timed.outputs[0]
    assert checks.check_repeats([out], [checks.Output(out.request, out.ntriples, out.report)]) == 1
    with pytest.raises(checks.CheckFailed):
        checks.check_repeats([out], [checks.Output(out.request, out.ntriples + " ", out.report)])


def test_frequency_recount_catches_a_wrong_ledger(ran):
    store, _, inputs, timed = ran[gen.SUMMARIZE]
    records, _ = gen.load_side(inputs / "side.json")
    index = checks.RecordIndex(records)
    out = _greedy_with_triples(timed)
    checks.check_frequencies([out], index)

    def bump_last(report):
        report["nodes"][-1]["frequency"] += 1

    with pytest.raises(checks.CheckFailed):
        checks.check_frequencies([_with_report(out, bump_last)], index)
    rand = next(o for o in timed.outputs if o.request["strategy"] == "random" and len(o.ledger()) > 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_frequencies([_with_report(rand, bump_last)], index)


def test_chain_check_catches_a_wrong_path_and_ledger(ran):
    _, plan, _, timed = ran[gen.LONG_PATHS]
    out = timed.outputs[0]
    lines = out.ntriples.splitlines(keepends=True)
    swapped = checks.Output(out.request, "".join([lines[1], lines[0]] + lines[2:]), out.report)
    with pytest.raises(checks.CheckFailed):
        checks.check_chains([swapped], plan["pairs"])

    def bump(report):
        report["nodes"][1]["frequency"] += 1

    with pytest.raises(checks.CheckFailed):
        checks.check_chains([_with_report(out, bump)], plan["pairs"])


def test_row_checks_catch_count_formula_range_and_ordering(ran):
    _, plan, _, timed = ran[gen.EVALUATE]
    _, result = timed.outputs[0]
    rows, warnings = list(result.rows), list(result.warnings)
    args = (plan["config"], plan["k"], plan["strategies"])
    checks.check_rows(rows, warnings, *args)
    with pytest.raises(checks.CheckFailed):
        checks.check_rows(rows[1:], warnings, *args)
    off = dataclasses.replace(rows[0], coverage=rows[0].coverage + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_rows([off] + rows[1:], warnings, *args)
    wide = dataclasses.replace(rows[0], node_cov=1.5, edge_cov=0.0, coverage=0.75)
    with pytest.raises(checks.CheckFailed):
        checks.check_rows([wide] + rows[1:], warnings, *args)
    flat = [dataclasses.replace(r, node_cov=0.0, edge_cov=0.0, coverage=0.0)
            if r.strategy == "isummary" else r for r in rows]
    with pytest.raises(checks.CheckFailed):
        checks.check_rows(flat, warnings, *args)


def test_rescore_check_catches_a_wrong_row(ran, monkeypatch):
    store, plan, inputs, timed = ran[gen.EVALUATE]
    rng_seed, result = timed.outputs[0]
    rows = [dataclasses.replace(r, edge_cov=r.edge_cov + 1e-6) if r.fold == 0 else r
            for r in result.rows]
    broken = worker.Timed(timed.pace)
    broken.outputs = [(rng_seed, dataclasses.replace(result, rows=tuple(rows)))]
    monkeypatch.setattr(checks, "check_rows", lambda *args: None)
    with pytest.raises(checks.CheckFailed):
        worker.check_evaluate(store, plan, inputs, broken)


# -- tracing and the command ------------------------------------------------------------

def test_traced_run_reports_every_per_layer_metric_and_restores(tmp_path):
    from isummary import summarizer, workload

    inputs = _small_inputs(tmp_path, gen.SUMMARIZE)
    plan = json.loads((inputs / "plan.json").read_text())
    originals = (workload.parse_query, workload.WorkloadStore.filter, summarizer.link)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        pace = pacing.Pace(pool_records=500)
        store, _, _ = worker._load(inputs, plan, pace)
        timed = worker.Timed(pace)
        worker.run_summarize(store, plan, None, 1, timed)
    finally:
        tracer.restore()
    assert (workload.parse_query, workload.WorkloadStore.filter, summarizer.link) == originals
    metrics = tracing.per_layer(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert names == set(metrics) | {"trace.overhead_ratio"}
    assert metrics["parser.parse_query.calls"] == len(store) + store.rejected_count
    assert metrics["parser.parse_query.rejected"] == store.rejected_count
    assert metrics["summarizer.summarize.calls"] == len(timed.outputs)
    assert metrics["workload.graph.builds"] <= metrics["workload.graph.calls"]
    for name in names:
        unit = next(m["unit"] for m in declared["per_layer"] if m["name"] == name)
        assert tracing.unit(name) == unit
    spans = tmp_path / "spans"
    tracer.write(spans)
    header = json.loads(spans.read_bytes().split(b"\n", 1)[0])
    assert header["spans"] == len(tracer.span_start)


def test_declared_end_to_end_metrics_match_the_command():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", gen.LONG_PATHS, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
