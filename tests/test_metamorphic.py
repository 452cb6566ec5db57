"""Metamorphic relations of the method: related logs must give related outputs.

Each relation transforms a log and compares the outputs on both sides, so it
needs no oracle (Chen, Cheung & Yiu, 1998).  Logs are small stores with IRIs,
literals, ``_:b`` labels, variable predicates and variables with several types.
"""

import io

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from isummary.coverage import CoverageConfig, InsufficientWorkload, evaluate, write_csv
from isummary.summarizer import (
    BUDGET_SHORTFALL, OFF_LEDGER_RESOURCE, NoRelevantQueries, SummaryRequest, summarize,
    to_json, to_ntriples,
)
from isummary.terms import blank, iri, literal

from conftest import UNIVERSITY_QUERIES, store_from_texts

VARIABLES = ["?x", "?y", "?z"]
_SUBJECTS = ["A", "B", "_:b"] + VARIABLES
_PREDICATES = ["p", "q", "a", "?x", "?v"]
_OBJECTS = ["A", "B", "C", '"l"', '"l"@en', "7", "_:b"] + VARIABLES
_SEEDS = [iri("A"), iri("B"), iri("C"), literal("l"), literal("7"), blank("b")]

# a log is a list of queries, a query a list of (subject, predicate, object) tokens
_logs = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                  st.sampled_from(_OBJECTS)),
        min_size=1, max_size=5,
    ),
    min_size=1, max_size=8,
)
_requests = st.tuples(
    st.lists(st.sampled_from(_SEEDS), min_size=1, max_size=2, unique=True),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)

UNIVERSITY_LOG = [
    [tuple(p.split()) for p in text[text.index("{") + 1:text.rindex("}")].split(".") if p.strip()]
    for text in UNIVERSITY_QUERIES
]


def _texts(log):
    return ["SELECT * WHERE { " + " . ".join(" ".join(p) for p in q) + " }" for q in log]


def _summary(log, seeds, k, strategy, random_seed=0, render=to_json):
    """``render`` of one summary, or the name of the error it raised."""
    try:
        summary = summarize(store_from_texts(_texts(log)),
                            SummaryRequest(tuple(seeds), k, strategy, random_seed=random_seed))
    except NoRelevantQueries:
        return "NoRelevantQueries"
    return render(summary)


def _without_messages(summary):
    """Triples, ledger and warning kinds and terms: warning messages quote the
    query's own variable names, which a renaming changes."""
    return to_ntriples(summary), summary.nodes, [(w.kind, w.term) for w in summary.warnings]


def _evaluate(log, rng_seed, strategies=("isummary", "random")):
    """CSV, warnings and fold means of a small fold protocol, or the error raised."""
    config = CoverageConfig(folds=2, sample_seeds=2, split_ratio=0.5, rng_seed=rng_seed)
    try:
        result = evaluate(store_from_texts(_texts(log)), config, [2, 4], strategies)
    except InsufficientWorkload:
        return "InsufficientWorkload"
    buf = io.StringIO()
    write_csv(result.rows, buf)
    return buf.getvalue(), result.warnings, result.fold_stats


def _renamed(log, renamings):
    """Each query with its variables renamed by its own bijection."""
    return [[tuple(rename.get(t, t) for t in p) for p in q] for q, rename in zip(log, renamings)]


_renamings = st.lists(
    st.permutations(VARIABLES + ["?v", "?w"]).map(
        lambda names: dict(zip(VARIABLES + ["?v"], names))),
    min_size=8, max_size=8,
)


# -- record order ---------------------------------------------------------------

def _check_record_order(log, order, seeds, k):
    permuted = [log[i] for i in order]
    assert _summary(permuted, seeds, k, "isummary") == _summary(log, seeds, k, "isummary")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), log=_logs, request=_requests)
def test_record_order_leaves_greedy_summaries_unchanged(data, log, request):
    seeds, k, _ = request
    order = data.draw(st.permutations(range(len(log))))
    _check_record_order(log, order, seeds, k)


def test_record_order_on_university_log():
    order = [4, 2, 0, 3, 1]
    for seed in ("Person", "Organization", "Publication"):
        for k in (2, 3, 5):
            _check_record_order(UNIVERSITY_LOG, order, [iri(seed)], k)


# -- variable renaming ----------------------------------------------------------

def _check_renaming(log, renamings, seeds, k, random_seed, strategy):
    renamed = _renamed(log, renamings)
    assert (_summary(renamed, seeds, k, strategy, random_seed, render=_without_messages)
            == _summary(log, seeds, k, strategy, random_seed, render=_without_messages))
    strategies = ("isummary", "random") if strategy == "random" else (strategy,)
    assert _evaluate(renamed, random_seed, strategies) == _evaluate(log, random_seed, strategies)


@settings(max_examples=150, deadline=None)
@given(log=_logs, renamings=_renamings, request=_requests)
def test_variable_renaming_leaves_greedy_outputs_unchanged(log, renamings, request):
    seeds, k, random_seed = request
    _check_renaming(log, renamings, seeds, k, random_seed, "isummary")


# Renaming ``?z`` to ``?v`` below once moved ``?z q B`` ahead of ``?x p B`` in
# the random baseline's sorted incident edges, and the draw picked the other edge.
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(log=_logs, renamings=_renamings, request=_requests)
@example(log=[[("A", "p", "A"), ("?x", "p", "B"), ("?z", "q", "B")]],
         renamings=[{"?z": "?v", "?v": "?z"}] * 8, request=([iri("A")], 2, 0))
def test_variable_renaming_leaves_random_outputs_unchanged(log, renamings, request):
    seeds, k, random_seed = request
    _check_renaming(log, renamings, seeds, k, random_seed, "random")


def test_variable_renaming_on_university_log():
    renamings = [{"?x": "?w", "?y": "?x"}, {"?x": "?y", "?y": "?x"}] * 3
    for seed in ("Person", "Organization"):
        for strategy in ("isummary", "random"):
            _check_renaming(UNIVERSITY_LOG, renamings, [iri(seed)], 3, 7, strategy)


# -- pattern order --------------------------------------------------------------

def _check_pattern_order(log, orders, seeds, k, random_seed):
    reordered = [[q[i] for i in order] for q, order in zip(log, orders)]
    for strategy in ("isummary", "random"):
        assert (_summary(reordered, seeds, k, strategy, random_seed)
                == _summary(log, seeds, k, strategy, random_seed))
    assert _evaluate(reordered, random_seed) == _evaluate(log, random_seed)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), log=_logs, request=_requests)
def test_pattern_order_leaves_outputs_unchanged(data, log, request):
    seeds, k, random_seed = request
    orders = [data.draw(st.permutations(range(len(q)))) for q in log]
    _check_pattern_order(log, orders, seeds, k, random_seed)


def test_pattern_order_on_university_log():
    orders = [list(reversed(range(len(q)))) for q in UNIVERSITY_LOG]
    for seed in ("Person", "Organization"):
        _check_pattern_order(UNIVERSITY_LOG, orders, [iri(seed)], 3, 7)


# -- doubled log ----------------------------------------------------------------

def _check_doubled(log, seeds, k):
    request = SummaryRequest(tuple(seeds), k)
    try:
        once = summarize(store_from_texts(_texts(log)), request)
    except NoRelevantQueries:
        once = None
    try:
        twice = summarize(store_from_texts(_texts(log + log)), request)
    except NoRelevantQueries:
        assert once is None
        return
    assert once is not None
    assert twice.triples == once.triples
    assert twice.warnings == once.warnings
    assert twice.nodes == tuple((term, 2 * weight) for term, weight in once.nodes)


@settings(max_examples=150, deadline=None)
@given(log=_logs, request=_requests)
def test_doubled_log_doubles_ledger_weights_only(log, request):
    seeds, k, _ = request
    _check_doubled(log, seeds, k)


def test_doubled_university_log():
    for seed in ("Person", "Organization", "Publication"):
        for k in (2, 3, 5):
            _check_doubled(UNIVERSITY_LOG, [iri(seed)], k)


# -- budget nesting -------------------------------------------------------------

def _budget_blind_warnings(summary):
    """The warnings except a shortfall and off-ledger resources, which depend
    on the budget: a larger one can fill up or put an off-ledger node on the ledger."""
    return [w for w in summary.warnings if w.kind not in (BUDGET_SHORTFALL, OFF_LEDGER_RESOURCE)]


def _check_budget_nesting(log, seeds, k, larger_k):
    """The greedy summary at budget k is a prefix of the one at ``larger_k``."""
    store = store_from_texts(_texts(log))
    try:
        small = summarize(store, SummaryRequest(tuple(seeds), k))
    except NoRelevantQueries:
        with pytest.raises(NoRelevantQueries):
            summarize(store, SummaryRequest(tuple(seeds), larger_k))
        return
    large = summarize(store, SummaryRequest(tuple(seeds), larger_k))
    assert large.triples[:len(small.triples)] == small.triples
    assert large.nodes[:len(small.nodes)] == small.nodes
    warnings = _budget_blind_warnings(small)
    assert _budget_blind_warnings(large)[:len(warnings)] == warnings


@settings(max_examples=150, deadline=None)
@given(log=_logs, request=_requests, more=st.integers(min_value=1, max_value=4))
def test_greedy_summaries_are_prefix_nested_in_k(log, request, more):
    seeds, k, _ = request
    _check_budget_nesting(log, seeds, k, k + more)


def test_greedy_summaries_are_prefix_nested_in_k_on_university_log():
    for seeds in ([iri("Person")], [iri("Person"), iri("Organization")]):
        for k in (2, 3, 4):
            _check_budget_nesting(UNIVERSITY_LOG, seeds, k, 6)
