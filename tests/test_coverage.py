import hashlib
import io
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isummary.coverage import (
    SEED_SAMPLING_SHORTFALL,
    CoverageConfig,
    InsufficientWorkload,
    NO_MATCHING_TEST_QUERIES,
    _node_holders,
    _sample_seed_terms,
    _seed_pool,
    coverage,
    evaluate,
    write_csv,
)
from isummary.query_graph import build_graph
from isummary.rng import XorShift64Star
from isummary.summarizer import Summary, node_frequencies
from isummary.synth import SyntheticSpec
from isummary.terms import BLANK, Term, TriplePattern, iri
from isummary.workload import WorkloadStore, load_workload

from conftest import (
    UNIVERSITY_QUERIES,
    _random_store,
    collapsed_nodes,
    generate_synthetic,
    oracle,
    store_from_texts,
    term_key,
)
from test_metamorphic import _OBJECTS, _PREDICATES, _SUBJECTS, _texts

PERSON = iri("Person")
ORGANIZATION = iri("Organization")
CFG = CoverageConfig()

T1_SUMMARY = Summary(
    triples=(TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON),),
    nodes=((PERSON, 3), (ORGANIZATION, 2)),
    warnings=(),
    seeds=(PERSON,),
    k=2,
    strategy="isummary",
)


def test_full_coverage_on_q2(university_store):
    test = university_store.subset([1])
    report = coverage(T1_SUMMARY, test, [PERSON], CFG)
    assert report.per_query == ((1, 1.0, 1.0, 1.0),)
    assert report.mean == 1.0 and report.n == 1


def test_partial_coverage_on_q1(university_store):
    test = university_store.subset([0])
    report = coverage(T1_SUMMARY, test, [PERSON], CFG)
    assert report.per_query == ((0, 0.5, 0.0, 0.25),)
    assert report.mean == 0.25


def test_empty_summary_scores_zero(university_store):
    empty = Summary((), (), (), (PERSON,), 1, "isummary")
    report = coverage(empty, university_store, [PERSON], CFG)
    assert all(row[3] == 0.0 for row in report.per_query)
    assert report.mean == 0.0


def test_only_seed_queries_count(university_store):
    report = coverage(T1_SUMMARY, university_store, [PERSON], CFG)
    assert [row[0] for row in report.per_query] == [0, 1, 2]
    assert report.n == 3


def test_no_matching_queries_warns(university_store):
    report = coverage(T1_SUMMARY, university_store, [iri("Nowhere")], CFG)
    assert report.n == 0 and report.mean == 0.0
    assert NO_MATCHING_TEST_QUERIES in report.warnings


def test_edge_match_requires_same_orientation():
    store = store_from_texts(["SELECT * WHERE {?x a Person. ?y a Organization. ?x affiliatedOf ?y}"])
    report = coverage(T1_SUMMARY, store, [PERSON], CFG)
    # summary triple runs Organization -> Person, the query edge the other way
    assert report.per_query[0][2] == 0.0


def test_variable_endpoints_match_anything():
    store = store_from_texts(["SELECT * WHERE {?x affiliatedOf ?y}"])
    report = coverage(T1_SUMMARY, store, [iri("affiliatedOf")], CFG)
    qid, node_fraction, edge_fraction, combined = report.per_query[0]
    assert node_fraction == 0.0  # no concrete node in the query
    assert edge_fraction == 1.0
    assert combined == 0.5


def test_weights_respected(university_store):
    test = university_store.subset([0])
    lopsided = CoverageConfig(w_node=1.0, w_edge=0.0)
    report = coverage(T1_SUMMARY, test, [PERSON], lopsided)
    assert report.per_query[0][3] == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        CoverageConfig(w_node=0.7, w_edge=0.5)
    with pytest.raises(ValueError):
        CoverageConfig(split_ratio=1.0)
    with pytest.raises(ValueError):
        CoverageConfig(folds=0)


def test_monotone_in_summary(university_store):
    bigger = Summary(
        triples=T1_SUMMARY.triples + (TriplePattern(PERSON, iri("advisor"), iri("Professor")),),
        nodes=T1_SUMMARY.nodes + ((iri("Professor"), 1),),
        warnings=(),
        seeds=(PERSON,),
        k=3,
        strategy="isummary",
    )
    small = coverage(T1_SUMMARY, university_store, [PERSON], CFG)
    large = coverage(bigger, university_store, [PERSON], CFG)
    for a, b in zip(small.per_query, large.per_query):
        assert b[3] >= a[3]
    assert large.mean >= small.mean


def test_duplicated_test_queries_leave_mean_unchanged(university_store):
    report = coverage(T1_SUMMARY, university_store, [PERSON], CFG)
    doubled = store_from_texts(UNIVERSITY_QUERIES + UNIVERSITY_QUERIES)
    report2 = coverage(T1_SUMMARY, doubled, [PERSON], CFG)
    assert report2.n == 2 * report.n
    assert report2.mean == pytest.approx(report.mean)


def test_containing_whole_query_graph_is_full_coverage(university_store):
    query = university_store.query(2)
    graph = build_graph(query)
    nodes = tuple((t, 1) for t in sorted(collapsed_nodes(query)))
    summary = Summary(
        triples=graph.edges,
        nodes=nodes,
        warnings=(),
        seeds=(PERSON,),
        k=len(nodes),
        strategy="isummary",
    )
    report = coverage(summary, university_store.subset([2]), [PERSON], CFG)
    assert report.per_query[0][3] == 1.0


# -- evaluate ------------------------------------------------------------------

def small_store():
    rng = XorShift64Star(5)
    return _random_store(rng, 60)


def test_evaluate_row_count_and_sorting():
    store = small_store()
    config = CoverageConfig(folds=2, sample_seeds=3, rng_seed=9)
    result = evaluate(store, config, [2, 3], ["isummary", "random"])
    assert len(result.rows) == 2 * 3 * 2 * 2 - sum(
        1 for w in result.warnings if w.startswith("SkippedCell")
    )
    keys = [(r.fold, term_key(r.seed), r.k, r.strategy) for r in result.rows]
    assert keys == sorted(keys)
    assert len(result.fold_stats.fold_means) == 2


def _pool_inputs(store):
    """The store's node counts, their terms in sort order and each term's
    node holders, as ``evaluate`` computes them once per call."""
    counts = node_frequencies(store, store.ids())
    order = sorted(counts, key=term_key)
    return counts, order, _node_holders(store, counts, order)


def test_sampled_seeds_occur_in_test_part():
    # Lab is a node of the train part only; the shared index still knows it
    store = store_from_texts([
        "SELECT ?x WHERE {?x a Person. ?x worksAt Lab}",
        "SELECT ?x WHERE {?x a Person}",
    ])
    test = store.subset([1])
    _, order, holders = _pool_inputs(store)
    pool = _seed_pool(order, holders, [ids[0] for ids in holders], set(test.ids()))
    assert list(pool) == [iri("Lab"), PERSON]
    for rng_seed in range(20):
        # a shortfall: evaluate warns for it
        assert (_sample_seed_terms(pool, store, set(test.ids()), 2, XorShift64Star(rng_seed))
                == [PERSON])


# metamorphic logs, where "p" is also an object: a predicate in one query, a node in another
_pool_logs = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                  st.sampled_from(_OBJECTS + ["p"])),
        min_size=1, max_size=5,
    ),
    min_size=1, max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(log=_pool_logs, test_ids=st.sets(st.integers(min_value=0, max_value=7)))
# p: a predicate in train, a node in test; C and _:b nodes of test only, A of train only
@example(log=[[("A", "p", "B")], [("B", "q", "p"), ("_:b", "q", "C")]], test_ids={1})
def test_seed_pool_is_the_train_parts_sorted_nodes(log, test_ids):
    store = store_from_texts(_texts(log))
    train, test = store.subset(set(store.ids()) - test_ids), store.subset(test_ids)
    _, order, holders = _pool_inputs(store)
    # oracle: the seed pool as each fold once built it, the train part's node counts, sorted
    records = {q.id: q.patterns for q in store.queries}
    train_counts = oracle.node_frequencies(records, train.ids())
    pool = _seed_pool(order, holders, [ids[0] for ids in holders], set(test.ids()))
    assert list(pool) == sorted(train_counts, key=oracle.sort_key)


@settings(max_examples=200, deadline=None)
@given(log=_pool_logs, asked=st.sets(st.integers(min_value=0, max_value=7)))
# p: a predicate in record 0 and a node in record 1, so its posting is no holder list
@example(log=[[("A", "p", "B")], [("B", "q", "p")]], asked={1})
def test_node_holders_match_pattern_scan_on_roots_and_views(log, asked):
    root = store_from_texts(_texts(log))
    for store in (root, root.subset(asked)) + root.split(asked):
        _, order, holders = _pool_inputs(store)
        records = {q.id: q.patterns for q in store.queries}
        assert set(order) == set(oracle.node_frequencies(records, store.ids()))
        assert [list(ids) for ids in holders] == [
            [qid for qid in store.ids()
             if any(term in (p.subject, p.object) for p in records[qid])]
            for term in order
        ]


def _list_pool(counts, order, test):
    """Oracle: the seed pool as a list, filtered from the whole sorted vocabulary."""
    in_test = node_frequencies(test, test.ids()).get
    return [t for t in order if counts[t] > in_test(t, 0)]


def _filtered_draws(pool, test, count, rng):
    """Oracle: the seed draws as each fold once made them, listing each
    candidate's test holders with ``test.filter``."""
    chosen = []
    for _ in range(50 * count):
        if len(chosen) == count or not pool:
            break
        candidate = pool[rng.randrange(len(pool))]
        if candidate not in chosen and test.filter((candidate,)):
            chosen.append(candidate)
    return chosen


# sort order of the node terms: _:b, then the IRIs A B C p, then the literals 7 "l" "l"@en
@settings(max_examples=300, deadline=None)
@given(log=_pool_logs, test_ids=st.sets(st.integers(min_value=0, max_value=7)))
# a dropped term at the first position (_:b), and at the last ("l"@en)
@example(log=[[("_:b", "q", "A")], [("A", "q", "B")]], test_ids={0})
@example(log=[[("A", "p", '"l"@en')], [("A", "p", "B")]], test_ids={0})
# adjacent dropped runs: _:b A, then C p; B and 7 stay
@example(log=[[("_:b", "p", "A"), ("?x", "q", "C"), ("?x", "q", "p")],
              [("?x", "p", "B"), ("?x", "p", "7")]], test_ids={0})
# every term dropped (an empty pool), and none dropped
@example(log=[[("A", "p", "B")], [("B", "q", "_:b")]], test_ids={0, 1})
@example(log=[[("A", "p", "B")], [("A", "q", "B")]], test_ids={1})
def test_seed_pool_draws_match_list_oracle(log, test_ids):
    store = store_from_texts(_texts(log))
    test = store.subset(test_ids)
    counts, order, holders = _pool_inputs(store)
    pool = _seed_pool(order, holders, [ids[0] for ids in holders], set(test.ids()))
    expected = _list_pool(counts, order, test)
    assert len(pool) == len(expected)
    assert [pool[i] for i in range(len(pool))] == expected
    for bound in (len(pool), len(pool) + 1, -1):
        with pytest.raises(IndexError):
            pool[bound]
    for rng_seed in range(31):
        rng, oracle_rng = XorShift64Star(rng_seed), XorShift64Star(rng_seed)
        assert (_sample_seed_terms(pool, store, set(test.ids()), 3, rng)
                == _filtered_draws(expected, test, 3, oracle_rng))
        assert rng.next_u64() == oracle_rng.next_u64()


@pytest.mark.parametrize("view", ["subset", "split-train", "nested"])
def test_evaluate_on_a_view_equals_evaluate_on_a_fresh_root(tmp_path, view):
    # a view shares its root's postings; evaluate must read only its members.
    # A Zipf log has many rare nodes, held by a few queries inside the view
    # and more outside it.
    path = tmp_path / "synth.txt"
    generate_synthetic(SyntheticSpec(n_queries=300, rng_seed=3), path)
    store = load_workload(path)
    ids = store.ids()
    if view == "subset":
        part = store.subset(i for i in ids if i % 3)
    elif view == "split-train":
        part, _ = store.split(ids[::4])
    else:
        part = store.split(ids[::4])[0].subset(i for i in ids if i % 3)
    fresh = WorkloadStore(part.queries)
    config = CoverageConfig(folds=3, sample_seeds=5, rng_seed=7)
    args = (config, [2, 4], ["isummary", "random"])
    result = evaluate(part, *args)
    assert result.rows
    assert result == evaluate(fresh, *args)


def test_evaluate_deterministic():
    store = small_store()
    config = CoverageConfig(folds=2, sample_seeds=2, rng_seed=4)
    a = evaluate(store, config, [2], ["isummary"])
    b = evaluate(store, config, [2], ["isummary"])
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_csv(a.rows, buf_a)
    write_csv(b.rows, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_evaluate_csv_format():
    store = small_store()
    config = CoverageConfig(folds=1, sample_seeds=1, rng_seed=2)
    result = evaluate(store, config, [2], ["isummary"])
    buf = io.StringIO()
    write_csv(result.rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "fold,seed,k,strategy,n,node_cov,edge_cov,coverage"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "isummary"
    assert all(len(cell.split(".")[-1]) == 6 for cell in first[5:])


@pytest.mark.parametrize("text, drawn", [
    ("SELECT * WHERE {?x p ?y}", 0),  # no node term, so an empty seed pool
    ("SELECT ?x WHERE {?x a Person}", 1),
], ids=["empty-pool", "one-term-pool"])
def test_evaluate_warns_on_every_seed_shortfall_with_its_fold(text, drawn):
    store = store_from_texts([text] * 10)
    config = CoverageConfig(folds=2, sample_seeds=3, rng_seed=0)
    result = evaluate(store, config, [1], ["isummary"])
    assert len(result.rows) == 2 * drawn
    assert [w for w in result.warnings if w.startswith(SEED_SAMPLING_SHORTFALL)] == [
        f"{SEED_SAMPLING_SHORTFALL}: drew {drawn} of 3 seeds in fold {fold}" for fold in (0, 1)
    ]


def test_evaluate_insufficient_workload(university_store):
    config = CoverageConfig(folds=1, sample_seeds=1, split_ratio=0.05, rng_seed=0)
    with pytest.raises(InsufficientWorkload):
        evaluate(university_store.subset([0]), config, [2], ["isummary"])


def _evaluated_store(tmp_path):
    """A synthetic store after one `evaluate` call, with the call's arguments."""
    path = tmp_path / "synth.txt"
    generate_synthetic(SyntheticSpec(n_queries=400, rng_seed=1), path)
    store = load_workload(path)
    args = (CoverageConfig(folds=3, sample_seeds=3, rng_seed=42), [2, 5], ["isummary", "random"])
    evaluate(store, *args)
    return store, args


def test_evaluate_slot_count_keys_are_terms_of_the_store(tmp_path):
    store, _ = _evaluated_store(tmp_path)
    # the train parts hold 80% of the store, so their counts were derived from its memo
    assert store._slot_counts
    assert all(anchor in store.term_index for anchor, _, _ in store._slot_counts)
    # a term the store does not hold (an unresolved waypoint's blank node) adds no key
    keys = set(store._slot_counts)
    assert store.slot_counts(Term(BLANK, "u0"), "subject", "predicate") == Counter()
    assert set(store._slot_counts) == keys


def test_repeated_evaluate_adds_no_slot_count_key(tmp_path):
    store, args = _evaluated_store(tmp_path)
    keys = set(store._slot_counts)
    evaluate(store, *args)
    assert set(store._slot_counts) == keys


def test_evaluate_ignores_the_order_of_budgets_and_strategies(tmp_path):
    # a seed's cells share one greedy run, which a budget may extend or cut
    path = tmp_path / "synth.txt"
    generate_synthetic(SyntheticSpec(n_queries=400, rng_seed=2), path)
    store = load_workload(path)
    config = CoverageConfig(folds=3, sample_seeds=4, rng_seed=9)
    ordered = evaluate(store, config, [2, 5, 10], ["isummary", "random"])
    shuffled = evaluate(store, config, [10, 2, 5], ["random", "isummary"])
    assert len(ordered.rows) == 3 * 4 * 3 * 2
    assert shuffled.rows == ordered.rows
    assert Counter(shuffled.warnings) == Counter(ordered.warnings)
    assert len(shuffled.fold_stats.fold_means) == len(ordered.fold_stats.fold_means)
    for a, b in zip(shuffled.fold_stats.fold_means, ordered.fold_stats.fold_means):
        assert math.isclose(a, b)
    assert math.isclose(shuffled.fold_stats.mean, ordered.fold_stats.mean)
    assert math.isclose(shuffled.fold_stats.std, ordered.fold_stats.std, abs_tol=1e-12)


def test_evaluate_rng_seed_changes_folds():
    store = small_store()
    a = evaluate(store, CoverageConfig(folds=1, sample_seeds=2, rng_seed=1), [2], ["isummary"])
    b = evaluate(store, CoverageConfig(folds=1, sample_seeds=2, rng_seed=2), [2], ["isummary"])
    assert [r.seed for r in a.rows] != [r.seed for r in b.rows] or a.rows != b.rows


# sha256 of the CSV below; any change to folds, seed sampling, subsets,
# summaries or scoring shows up here as a different hash
GOLDEN_SYNTH_CSV_SHA256 = "f867fc0c3371ae44b142bd42b3874bd0e4c8208fb6234da096fb966a511a7b6c"


def test_evaluate_golden_csv_on_synthetic_log(tmp_path):
    path = tmp_path / "synth.txt"
    generate_synthetic(SyntheticSpec(n_queries=3000, rng_seed=1), path)
    store = load_workload(path)
    config = CoverageConfig(folds=3, sample_seeds=5, rng_seed=42)
    result = evaluate(store, config, [2, 5, 10], ["isummary", "random"])
    buf = io.StringIO()
    write_csv(result.rows, buf)
    assert len(result.rows) == 90
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == GOLDEN_SYNTH_CSV_SHA256
