import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isummary import summarizer, workload
from isummary.query_graph import FORWARD, shortest_path
from isummary.rng import XorShift64Star
from isummary.summarizer import (
    BUDGET_SHORTFALL,
    ISOLATED_NODE,
    MULTI_SEED_FALLBACK,
    OFF_LEDGER_RESOURCE,
    RESOLVED_VARIABLE,
    UNRESOLVED_VARIABLE,
    InvalidRequest,
    NoRelevantQueries,
    SummaryRequest,
    SummaryWork,
    _name_blind_key,
    link,
    node_frequencies,
    resolve_variables,
    select_top_nodes,
    summarize,
    to_json,
    to_ntriples,
)
from isummary.synth import SyntheticSpec
from isummary.terms import RDF_TYPE, Term, TriplePattern, blank, iri, literal, variable
from isummary.workload import WorkloadStore, load_workload

from conftest import (
    UNIVERSITY_QUERIES,
    _random_store,
    generate_synthetic,
    oracle,
    oracle_shortest_path,
    scanned_slot_counts,
    signature_key,
    store_from_texts,
    term_key,
)

PERSON = iri("Person")
ORGANIZATION = iri("Organization")
PROFESSOR = iri("Professor")
PUBLICATION = iri("Publication")


def warning_kinds(summary):
    return {w.kind for w in summary.warnings}


# -- small stores drawn by hypothesis ------------------------------------------

# "p" is a predicate that also appears as a subject and an object
_SLOT_SUBJECTS = ["A", "B", "p", "?x", "_:b"]
_SLOT_PREDICATES = ["p", "q", "a", "?x", "?v"]
_SLOT_OBJECTS = ["A", "B", "p", "?x", '"l"', "7"]
_SLOT_ENDS = [iri("A"), iri("B"), iri("p"), blank("b"), literal("l"), literal("7"), variable("x")]

_slot_queries = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_SLOT_SUBJECTS), st.sampled_from(_SLOT_PREDICATES),
                  st.sampled_from(_SLOT_OBJECTS)),
        min_size=1, max_size=5,
    ).map(lambda ps: "SELECT * WHERE {" + " . ".join(" ".join(p) for p in ps) + "}"),
    min_size=1, max_size=6,
)


def _store_nodes(store):
    return sorted(set().union(*map(store.node_terms, store.ids())))


# -- select_top_nodes ---------------------------------------------------------

def test_top_one_is_organization(university_store):
    relevant = university_store.filter([PERSON])
    top = select_top_nodes(university_store, relevant, 1, exclude={PERSON})
    assert top == [(ORGANIZATION, 2)]


def test_top_two_breaks_tie_toward_professor(university_store):
    relevant = university_store.filter([PERSON])
    top = select_top_nodes(university_store, relevant, 2, exclude={PERSON})
    # Professor and "FORTH" both occur once; the iri kind sorts first
    assert top == [(ORGANIZATION, 2), (PROFESSOR, 1)]


def test_top_nodes_empty_pool(university_store):
    assert select_top_nodes(university_store, [], 3) == []


def test_top_nodes_counts_queries_not_occurrences(university_store):
    store = store_from_texts([
        "SELECT * WHERE {?x a Person. ?y a Person. ?x knows ?y}",
        "SELECT * WHERE {?x a Person}",
    ])
    top = select_top_nodes(store, [0, 1], 1)
    assert top == [(PERSON, 2)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_slot_queries)
def test_select_top_nodes_matches_full_sort(data, texts):
    store = store_from_texts(texts)
    ids = data.draw(st.lists(st.sampled_from(store.ids()), unique=True))
    exclude = data.draw(st.lists(st.sampled_from(_store_nodes(store) + _SLOT_ENDS), unique=True))
    # oracle: rank every candidate, then cut
    ranked = oracle.ranked(oracle.node_frequencies(
        {q.id: q.patterns for q in store.queries}, ids, exclude))
    # every cut: 0, inside runs of tied counts, and at or past the candidate count
    for count in range(len(ranked) + 2):
        assert select_top_nodes(store, ids, count, exclude) == ranked[:count]


# -- link ----------------------------------------------------------------------

def test_link_organization_to_person(university_store):
    relevant = university_store.filter([PERSON])
    sig = link(university_store, relevant, ORGANIZATION, [PERSON])
    assert sig is not None
    assert len(sig.steps) == 1
    assert sig.steps[0].predicate == iri("affiliatedOf")
    assert sig.endpoints == (ORGANIZATION, PERSON)


def test_link_professor_prefers_q1_edge(university_store):
    relevant = university_store.filter([PERSON])
    sig = link(university_store, relevant, PROFESSOR, [PERSON, ORGANIZATION])
    assert len(sig.steps) == 1
    assert sig.steps[0].predicate == iri("advisor")
    assert sig.endpoints == (PERSON, PROFESSOR)
    assert sig.steps[0].direction == FORWARD  # written Person -> Professor


def test_link_no_shared_query(university_store):
    relevant = university_store.filter([PERSON])
    assert link(university_store, relevant, PUBLICATION, [PERSON]) is None


def test_link_frequency_beats_length():
    store = store_from_texts([
        "SELECT * WHERE {A direct B}",
        "SELECT * WHERE {A step M. M step2 B}",
        "SELECT * WHERE {A step M. M step2 B}",
        "SELECT * WHERE {A step M. M step2 B}",
    ])
    sig = link(store, [0, 1, 2, 3], iri("B"), [iri("A")])
    assert len(sig.steps) == 2  # the two-hop path occurs in three queries


@settings(max_examples=150, deadline=None)
@given(data=st.data(), texts=_slot_queries)
def test_link_same_for_relevant_ids_as_list_or_set(data, texts):
    store = store_from_texts(texts)
    nodes = _store_nodes(store)
    assume(len(nodes) >= 2)
    ids = data.draw(st.lists(st.sampled_from(store.ids()), unique=True))
    x = data.draw(st.sampled_from(nodes))
    visited = data.draw(st.lists(st.sampled_from([t for t in nodes if t != x]),
                                 min_size=1, unique=True))
    assert link(store, ids, x, visited) == link(store, set(ids), x, visited)


def _oracle_link(store, relevant_ids, x, visited):
    """``link`` as it once chose, one full key per distinct tallied signature,
    over the paths of the all-paths enumerator oracle."""
    relevant = set(relevant_ids)
    tally = Counter()
    for y in visited:
        for qid in store.filter((x, y)):
            if qid in relevant:
                signature = oracle_shortest_path(store.graph(qid), x, y)
                if signature is not None:
                    tally[signature] += 1
    if not tally:
        return None
    return min(tally, key=lambda s: (-tally[s], len(s.steps), signature_key(s)))


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: each ``draw``
    returns the next of the given values, whatever the strategy, and a run
    that draws them all leaves the next run to start from the first."""

    def __init__(self, *values):
        self._values = itertools.cycle(values)

    def draw(self, strategy):
        return next(self._values)


_TIED_TEXTS = ["SELECT * WHERE {A q B}"] + [
    "SELECT * WHERE {A p ?x . " + last + "}"
    for last in ("?x q B", "B q ?x", "?x p B") for _ in range(2)
]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), texts=_slot_queries)
# three two-hop signatures tie at the top count 2 and first differ at their
# second step, inserted greatest first; the direct hop counts only 1
@example(data=_Draws(list(range(7)), iri("A"), [iri("B")]), texts=_TIED_TEXTS)
# one signature alone at the top count, one that a tie-break would pick below it
@example(data=_Draws([0, 1, 2], iri("A"), [iri("B")]),
         texts=["SELECT * WHERE {A q B}", "SELECT * WHERE {A q B}", "SELECT * WHERE {A p B}"])
def test_link_matches_full_min_oracle(data, texts):
    store = store_from_texts(texts)
    nodes = _store_nodes(store)
    assume(len(nodes) >= 2)
    ids = data.draw(st.lists(st.sampled_from(store.ids()), unique=True))
    x = data.draw(st.sampled_from(nodes))
    visited = data.draw(st.lists(st.sampled_from([t for t in nodes if t != x]),
                                 min_size=1, unique=True))
    assert link(store, ids, x, visited) == _oracle_link(store, ids, x, visited)


def test_link_renames_predicate_before_waypoint():
    # the path A -?v-> ?x -q-> B names its variable predicate before its waypoint
    store = store_from_texts(["SELECT * WHERE { A ?v ?x . ?x q B }"])
    ids = store.ids()
    assert link(store, ids, iri("A"), [iri("B")]) == _oracle_link(store, ids, iri("A"), [iri("B")])


def check_link_calls(monkeypatch, store, ids, x, visited):
    """One ``link`` on a fresh store makes one ``shortest_path`` call per
    (relevant node holder of ``x``, partner among its node terms), fetches
    each such holder's graph once and builds it once.  A record holding
    ``x`` only as a predicate has no path from it, so it costs no call."""
    expected = Counter({(qid, y): 1 for qid in ids
                        if any(x in (p.subject, p.object) for p in store.query(qid).patterns)
                        for y in set(visited).intersection(store.node_terms(qid))})
    paths, graphs, builds, records = Counter(), Counter(), [], {}
    graph, build = WorkloadStore.graph, workload.build_graph

    def counted_graph(self, qid):
        graphs[qid] += 1
        g = graph(self, qid)
        records[id(g)] = qid
        return g

    def counted_path(g, u, v):
        paths[records[id(g)], v if u == x else u] += 1
        return shortest_path(g, u, v)

    with monkeypatch.context() as patch:
        patch.setattr(WorkloadStore, "graph", counted_graph)
        patch.setattr(workload, "build_graph", lambda *args: builds.append(args) or build(*args))
        patch.setattr(summarizer, "shortest_path", counted_path)
        link(store, ids, x, visited)
    assert paths == expected
    holders = {qid for qid, _ in expected}
    assert set(graphs) == holders and max(graphs.values(), default=0) <= 1
    assert len(builds) == len(holders)


def test_link_calls_per_record_on_university_fixture(monkeypatch):
    nodes = _store_nodes(store_from_texts(UNIVERSITY_QUERIES))
    partnered = 0
    for x in nodes:
        store = store_from_texts(UNIVERSITY_QUERIES)
        visited = [t for t in nodes if t != x]
        check_link_calls(monkeypatch, store, store.ids(), x, visited)
        partnered += any(len(set(visited).intersection(store.node_terms(q))) > 1
                         for q in store.filter([x]))
    assert partnered  # some record holds x and more than one partner


def test_link_calls_skip_predicate_only_holders(monkeypatch):
    # record 0 holds p only as a predicate, record 1 as a node; p's posting
    # (0, 1) is longer than the first two relevant sets and no longer than the rest
    texts = ["SELECT * WHERE {A p B}", "SELECT * WHERE {A q p . p q B}", "SELECT * WHERE {A q B}"]
    for ids in ([0], [1], [0, 1], [0, 1, 2]):
        check_link_calls(monkeypatch, store_from_texts(texts), ids, iri("p"), [iri("A")])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), texts=_slot_queries)
def test_link_calls_per_record_on_random_stores(data, texts):
    store = store_from_texts(texts)
    nodes = _store_nodes(store)
    assume(len(nodes) >= 2)
    ids = data.draw(st.lists(st.sampled_from(store.ids()), unique=True))
    x = data.draw(st.sampled_from(_SLOT_ENDS[:-1]))
    visited = data.draw(st.lists(st.sampled_from([t for t in nodes if t != x]),
                                 min_size=1, unique=True))
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_link_calls(monkeypatch, store, ids, x, visited)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_slot_queries)
def test_holders_match_node_holder_scan(data, texts):
    store = store_from_texts(texts)
    ids = store.ids()
    # relevant sets from empty to all ids, so each posting is both longer
    # and no longer than some of them
    order = data.draw(st.permutations(ids))
    relevant_sets = [set(order[:n]) for n in range(len(order) + 1)]
    # p is both a predicate and a node, q and rdf:type only predicates; no query holds D
    terms = [t for t in _SLOT_ENDS if t.concrete] + [iri("q"), RDF_TYPE, iri("D")]
    for term in terms:
        for relevant in relevant_sets:
            scanned = sorted(qid for qid in relevant if any(
                term in (p.subject, p.object) for p in store.query(qid).patterns))
            holders = summarizer._holders(store, relevant, term)
            # each holder comes with the node terms its test read
            assert all(nodes == store.node_terms(qid) for qid, nodes in holders)
            held = [qid for qid, _ in holders]
            assert sorted(held) == scanned and len(set(held)) == len(held)


def test_link_precondition_checks(university_store):
    with pytest.raises(ValueError):
        link(university_store, [0], PERSON, [])
    with pytest.raises(ValueError):
        link(university_store, [0], PERSON, [PERSON])


# -- slot counts -----------------------------------------------------------------

_SLOT_KEYS = [
    (predicate, "predicate", side)
    for predicate in (iri("p"), iri("q"), iri("A"), RDF_TYPE) for side in ("subject", "object")
] + [(anchor, side, "predicate") for anchor in _SLOT_ENDS if anchor.concrete
     for side in ("subject", "object")]


def _check_slot_counts(store):
    """Every memoized slot count of ``store`` equals the scan of its own members."""
    for key in _SLOT_KEYS:
        assert store.slot_counts(*key) == scanned_slot_counts(store, *key)


@settings(max_examples=150, deadline=None)
@given(texts=_slot_queries)
@example(texts=["SELECT * WHERE {A p B . A p B . p q A . ?x ?v p}",
                'SELECT * WHERE {A p "l" . _:b p 7 . B p A}'])
def test_slot_counts_match_position_and_predicate_oracles(texts):
    _check_slot_counts(store_from_texts(texts))


def _most_of(data, store):
    """A view of ``store`` lacking fewer than half of its members, so it
    derives its slot counts from the store's."""
    ids = store.ids()
    lacks = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=(len(ids) - 1) // 2))
    view = store.subset(set(ids) - set(lacks))
    assert view._parent is store
    return view


@settings(max_examples=150, deadline=None)
@given(data=st.data(), texts=_slot_queries, root_first=st.booleans())
def test_slot_counts_memo_is_per_view(data, texts, root_first):
    root = store_from_texts(texts)
    member_ids = st.lists(st.sampled_from(root.ids()), unique=True)
    early = root.subset(data.draw(member_ids))
    most = _most_of(data, root)
    # root first: `most` derives from the root's memo; else its misses fill it
    for store in ((root, early, most) if root_first else (most, early, root)):
        _check_slot_counts(store)
    # views made after their parent's memo is filled start with their own
    late = root.subset(data.draw(member_ids))
    _check_slot_counts(late)
    inner = late.subset(data.draw(member_ids))
    _check_slot_counts(inner)
    # views of views holding most of their parent: one over a filled memo, and
    # one filled first over a new root, so each miss goes down two empty levels
    most_inner = _most_of(data, most)
    fresh = _most_of(data, store_from_texts(texts))
    fresh_inner = _most_of(data, fresh)
    for store in (most_inner, fresh_inner, fresh):
        _check_slot_counts(store)
    for store in (root, early, most, late, inner, most_inner, fresh, fresh_inner):
        _check_slot_counts(store)


# -- node frequencies -------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data(), texts=_slot_queries)
def test_node_frequencies_match_counting_loop(data, texts):
    store = store_from_texts(texts)
    ids = data.draw(st.lists(st.sampled_from(store.ids()), unique=True))
    # excluded terms drawn from the store's own nodes and from terms it may lack
    exclude = data.draw(st.lists(st.sampled_from(_store_nodes(store) + _SLOT_ENDS), unique=True))
    records = {q.id: q.patterns for q in store.queries}
    assert node_frequencies(store, ids, exclude) == oracle.node_frequencies(records, ids, exclude)
    assert node_frequencies(store, ids) == oracle.node_frequencies(records, ids)


# -- resolve_variables ----------------------------------------------------------

def test_resolve_no_waypoints(university_store):
    relevant = university_store.filter([PERSON])
    sig = link(university_store, relevant, ORGANIZATION, [PERSON])
    triples, warnings = resolve_variables(sig, university_store)
    assert triples == [TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON)]
    assert warnings == []


def test_resolve_mines_most_frequent_position():
    # v0 sits between advisor (object side) and worksAt (subject side);
    # Plexousakis fills both positions in other queries
    store = store_from_texts([
        "SELECT * WHERE {Person advisor ?v. ?v worksAt Institute}",
        "SELECT * WHERE {Plexousakis worksAt ?z}",
        "SELECT * WHERE {?w advisor Plexousakis}",
        "SELECT * WHERE {Other worksAt ?z}",
    ])
    sig = link(store, [0], iri("Institute"), [iri("Person")])
    assert sig is not None and len(sig.steps) == 2
    triples, warnings = resolve_variables(sig, store)
    assert TriplePattern(iri("Person"), iri("advisor"), iri("Plexousakis")) in triples
    assert TriplePattern(iri("Plexousakis"), iri("worksAt"), iri("Institute")) in triples
    assert any(w.kind == RESOLVED_VARIABLE and w.term == iri("Plexousakis") for w in warnings)


def test_resolve_never_puts_literal_in_subject_position():
    # "V1" is the most frequent filler for ?v, but ?v goes on as a subject
    store = store_from_texts([
        "SELECT * WHERE {A p ?v. ?v q B}",
        'SELECT * WHERE {?x p "V1"}',
        'SELECT * WHERE {?y p "V1"}',
        "SELECT * WHERE {Sub q ?z}",
    ])
    sig = link(store, [0], iri("B"), [iri("A")])
    triples, _ = resolve_variables(sig, store)
    assert TriplePattern(iri("A"), iri("p"), iri("Sub")) in triples
    assert TriplePattern(iri("Sub"), iri("q"), iri("B")) in triples


def test_resolve_falls_back_to_blank_node():
    store = store_from_texts([
        "SELECT * WHERE {Person advisor ?v. ?v worksAt Institute}",
    ])
    sig = link(store, [0], iri("Institute"), [iri("Person")])
    triples, warnings = resolve_variables(sig, store)
    blank_terms = {t for tr in triples for t in (tr.subject, tr.object) if t.kind == "blank"}
    assert blank_terms == {Term("blank", "u0")}
    assert any(w.kind == UNRESOLVED_VARIABLE for w in warnings)


@pytest.mark.parametrize("strategy,fresh", [
    ("isummary", lambda b: TriplePattern(iri("s"), iri("p"), b)),
    ("random", lambda b: TriplePattern(b, iri("q"), iri("t"))),
], ids=["isummary", "random"])
def test_fresh_blank_node_skips_the_workloads_labels(strategy, fresh):
    # ?x has no concrete filler, and the log already holds _:u0: the fresh
    # node must not merge with it
    store = store_from_texts([
        "SELECT * WHERE { <s> <p> ?x . ?x <q> <t> }",
        "SELECT * WHERE { <s> <r> _:u0 }",
    ])
    summary = summarize(store, SummaryRequest((iri("s"),), 3, strategy))
    assert fresh(blank("u1")) in summary.triples
    assert fresh(blank("u0")) not in summary.triples
    assert [w.term for w in summary.warnings if w.kind == UNRESOLVED_VARIABLE] == [blank("u1")]


def test_resolve_variable_predicate_mined_or_dropped():
    store = store_from_texts([
        "SELECT * WHERE {A ?p B}",
        "SELECT * WHERE {A rel ?x}",
        "SELECT * WHERE {A rel B2}",
    ])
    sig = link(store, [0], iri("B"), [iri("A")])
    triples, warnings = resolve_variables(sig, store)
    assert triples == [TriplePattern(iri("A"), iri("rel"), iri("B"))]

    lone = store_from_texts(["SELECT * WHERE {A ?p B}"])
    sig = link(lone, [0], iri("B"), [iri("A")])
    triples, warnings = resolve_variables(sig, lone)
    assert triples == []
    assert any(w.kind == UNRESOLVED_VARIABLE for w in warnings)


# -- summarize: the running example ---------------------------------------------

def test_two_node_summary(university_store):
    summary = summarize(university_store, SummaryRequest((PERSON,), 2))
    assert summary.triples == (TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON),)
    assert summary.nodes == ((PERSON, 3), (ORGANIZATION, 2))
    assert summary.warnings == ()


def test_three_node_summary(university_store):
    summary = summarize(university_store, SummaryRequest((PERSON,), 3))
    assert summary.triples == (
        TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON),
        TriplePattern(PERSON, iri("advisor"), PROFESSOR),
    )
    assert summary.nodes == ((PERSON, 3), (ORGANIZATION, 2), (PROFESSOR, 1))


def test_unknown_seed_raises(university_store):
    with pytest.raises(NoRelevantQueries):
        summarize(university_store, SummaryRequest((iri("Nonexistent"),), 3))


def test_empty_view_raises(university_store):
    with pytest.raises(NoRelevantQueries, match="the workload store is empty"):
        summarize(university_store.subset([]), SummaryRequest((PERSON,), 3))


def test_invalid_requests(university_store):
    with pytest.raises(InvalidRequest):
        SummaryRequest((), 3)
    with pytest.raises(InvalidRequest):
        SummaryRequest((PERSON, ORGANIZATION), 1)
    with pytest.raises(InvalidRequest):
        SummaryRequest((PERSON,), 2, strategy="clever")
    with pytest.raises(InvalidRequest):
        SummaryRequest((PERSON, PERSON), 3)
    from isummary.terms import variable

    with pytest.raises(InvalidRequest):
        SummaryRequest((variable("x"),), 2)


def test_budget_shortfall_warning(university_store):
    summary = summarize(university_store, SummaryRequest((PUBLICATION,), 5))
    assert BUDGET_SHORTFALL in warning_kinds(summary)
    assert len(summary.nodes) < 5


def test_multi_seed_shares_queries(university_store):
    summary = summarize(university_store, SummaryRequest((PERSON, ORGANIZATION), 3))
    assert summary.nodes[0] == (PERSON, 2)
    assert summary.nodes[1] == (ORGANIZATION, 2)
    assert summary.triples[0] == TriplePattern(ORGANIZATION, iri("affiliatedOf"), PERSON)
    # third node is the only remaining candidate, "FORTH", linked one hop away
    assert summary.nodes[2] == (literal("FORTH"), 1)
    assert TriplePattern(ORGANIZATION, iri("orgName"), literal("FORTH")) in summary.triples


def test_multi_seed_fallback_and_isolated(university_store):
    summary = summarize(university_store, SummaryRequest((PERSON, PUBLICATION), 2))
    assert MULTI_SEED_FALLBACK in warning_kinds(summary)
    assert ISOLATED_NODE in warning_kinds(summary)
    assert summary.nodes == ((PERSON, 4), (PUBLICATION, 4))
    assert summary.triples == ()


def test_nesting_and_weight_monotonicity(university_store):
    previous = None
    for k in range(1, 6):
        summary = summarize(university_store, SummaryRequest((PERSON,), k))
        assert len(summary.nodes) <= k
        if previous is not None:
            assert set(previous.triples) <= set(summary.triples)
            assert {n for n, _ in previous.nodes} <= {n for n, _ in summary.nodes}
            assert (
                sum(f for _, f in summary.nodes) >= sum(f for _, f in previous.nodes)
            )
        frequencies = [f for _, f in summary.nodes[1:]]
        assert frequencies == sorted(frequencies, reverse=True)
        previous = summary


def test_deterministic_output(university_store):
    a = summarize(university_store, SummaryRequest((PERSON,), 3))
    b = summarize(university_store, SummaryRequest((PERSON,), 3))
    assert to_json(a) == to_json(b)
    assert to_ntriples(a) == to_ntriples(b)


def test_off_ledger_waypoint_flagged():
    # FORTH links to Person through Organization, which is outside the budget
    store = store_from_texts(UNIVERSITY_QUERIES + [
        'SELECT * WHERE {?y orgName "FORTH". ?x a Person. ?y affiliatedOf ?x}',
        'SELECT * WHERE {?y orgName "FORTH". ?x a Person. ?y affiliatedOf ?x}',
        'SELECT * WHERE {?y orgName "FORTH". ?x a Person. ?y affiliatedOf ?x}',
    ])
    summary = summarize(store, SummaryRequest((literal("FORTH"),), 2))
    ledger = {t for t, _ in summary.nodes}
    loose = {
        t
        for tr in summary.triples
        for t in (tr.subject, tr.object)
        if t.concrete and t not in ledger
    }
    flagged = {w.term for w in summary.warnings if w.term is not None}
    assert loose <= flagged


def test_ntriples_rendering(university_store):
    summary = summarize(university_store, SummaryRequest((PERSON,), 3))
    assert to_ntriples(summary) == (
        "<Organization> <affiliatedOf> <Person> .\n<Person> <advisor> <Professor> .\n"
    )


# -- a work object shared across requests ----------------------------------------

def _shared_summaries(store, seed, budgets):
    """The greedy summary at each budget in turn through one work object, each
    checked equal to the one made without it; the last made per budget."""
    work = SummaryWork(store, (seed,))
    summaries = {}
    for k in budgets:
        request = SummaryRequest((seed,), k)
        summaries[k] = summarize(store, request, work)
        assert summaries[k] == summarize(store, request)
    return summaries


def test_shared_work_shortfall_only_at_the_larger_budget():
    store = store_from_texts(["SELECT * WHERE {S p A}", "SELECT * WHERE {S q B}"])
    summaries = _shared_summaries(store, iri("S"), [4, 2, 3, 4, 2])
    assert BUDGET_SHORTFALL not in warning_kinds(summaries[2])
    assert BUDGET_SHORTFALL not in warning_kinds(summaries[3])
    assert [w.message for w in summaries[4].warnings if w.kind == BUDGET_SHORTFALL] == [
        "only 2 candidate node(s) available for a budget of 3"]


def test_shared_work_off_ledger_node_joins_the_ledger_at_the_larger_budget():
    # T, U and Z tie at 2 queries, so the ledger takes them in term order;
    # T's path runs through Z, which is off the ledger until k=4
    store = store_from_texts(["SELECT * WHERE {S p Z . Z q T}"] * 2
                             + ["SELECT * WHERE {S r U}"] * 2)
    summaries = _shared_summaries(store, iri("S"), [4, 2, 3, 4, 2])
    through_z = TriplePattern(iri("S"), iri("p"), iri("Z"))
    for k, off_ledger in ((2, [iri("Z")]), (3, [iri("Z")]), (4, [])):
        assert through_z in summaries[k].triples
        assert [w.term for w in summaries[k].warnings
                if w.kind == OFF_LEDGER_RESOURCE] == off_ledger


def test_shared_work_draws_fresh_blanks_across_the_extension_point():
    # neither ?v nor ?w has a concrete filler: T's path draws _:u0 at k=2,
    # and U's draws _:u1 when k=3 extends the run
    store = store_from_texts(["SELECT * WHERE {S p ?v . ?v q T}"] * 2
                             + ["SELECT * WHERE {S r ?w . ?w s U}"])
    summaries = _shared_summaries(store, iri("S"), [2, 3])
    assert [w.term for w in summaries[2].warnings if w.kind == UNRESOLVED_VARIABLE] == [
        blank("u0")]
    assert [w.term for w in summaries[3].warnings if w.kind == UNRESOLVED_VARIABLE] == [
        blank("u0"), blank("u1")]
    assert TriplePattern(blank("u1"), iri("s"), iri("U")) in summaries[3].triples


def test_shared_work_belongs_to_one_store_and_seed_tuple(university_store):
    work = SummaryWork(university_store, (PERSON,))
    summarize(university_store, SummaryRequest((PERSON,), 3), work)
    with pytest.raises(ValueError):
        summarize(university_store.subset(university_store.ids()),
                  SummaryRequest((PERSON,), 3), work)
    with pytest.raises(ValueError):
        summarize(university_store, SummaryRequest((ORGANIZATION,), 3), work)
    with pytest.raises(ValueError):
        summarize(university_store, SummaryRequest((PERSON, ORGANIZATION), 3), work)


# -- the random baseline ---------------------------------------------------------

def test_random_strategy_reproducible(university_store):
    req = SummaryRequest((PERSON,), 3, strategy="random", random_seed=7)
    a = summarize(university_store, req)
    b = summarize(university_store, req)
    assert to_json(a) == to_json(b)


def test_random_strategy_seed_changes_output(university_store):
    outputs = {
        to_json(summarize(
            university_store,
            SummaryRequest((PERSON,), 3, strategy="random", random_seed=seed),
        ))
        for seed in range(12)
    }
    assert len(outputs) > 1


def test_random_strategy_respects_budget_and_pool(university_store):
    for seed in range(8):
        summary = summarize(
            university_store,
            SummaryRequest((PERSON,), 3, strategy="random", random_seed=seed),
        )
        assert len(summary.nodes) <= 3
        assert summary.nodes[0] == (PERSON, 3)
        pool = {ORGANIZATION, PROFESSOR, literal("FORTH")}
        assert {t for t, _ in summary.nodes[1:]} <= pool
        frequencies = [f for _, f in summary.nodes[1:]]
        assert frequencies == sorted(frequencies, reverse=True)
        # sampled edges come from relevant queries only
        predicates = {t.predicate for t in summary.triples}
        assert predicates <= {iri("affiliatedOf"), iri("advisor"), iri("orgName")}


def test_every_triple_term_is_ledgered_or_flagged():
    # across both strategies on randomized stores: concrete endpoints either
    # sit in the node ledger or carry warning provenance, and predicates all
    # occur somewhere in the workload
    rng = XorShift64Star(2)
    for trial in range(40):
        store = _random_store(rng, 6 + rng.randrange(12))
        pool = sorted(
            {t for q in store.queries for p in q.patterns for t in p.terms() if t.concrete},
        )
        seed = pool[rng.randrange(len(pool))]
        strategy = "isummary" if trial % 2 else "random"
        try:
            summary = summarize(
                store,
                SummaryRequest((seed,), 2 + rng.randrange(4), strategy, random_seed=trial),
            )
        except NoRelevantQueries:
            continue
        ledger = {t for t, _ in summary.nodes}
        flagged = {w.term for w in summary.warnings if w.term is not None}
        workload_predicates = {
            p.predicate for q in store.queries for p in q.patterns if p.predicate.concrete
        }
        for triple in summary.triples:
            for term in (triple.subject, triple.object):
                assert not term.concrete or term in ledger or term in flagged
            assert triple.predicate in workload_predicates


def _int_numbered_key(edge):
    """Oracle: the random baseline's edge key as first written, each variable
    numbered 0, 1, 2 by its first occurrence in the edge."""
    names = {}
    return tuple(
        ("variable", names.setdefault(t, len(names)), "") if t.kind == "variable" else term_key(t)
        for t in edge
    )


_key_variables = st.sampled_from([variable(n) for n in ("x", "y", "z")])
_key_iris = st.sampled_from([iri("A"), iri("B"), iri("v0")])
_key_blanks = st.sampled_from([blank("A"), blank("v1")])
_key_literals = st.sampled_from([literal("A"), literal("v0"), literal("1", "@en")])
_key_edges = st.builds(
    TriplePattern,
    st.one_of(_key_iris, _key_blanks, _key_variables),
    st.one_of(_key_iris, _key_variables),
    st.one_of(_key_iris, _key_blanks, _key_literals, _key_variables),
)


@settings(max_examples=300)
@given(st.lists(_key_edges, min_size=1, max_size=8))
def test_name_blind_key_orders_and_groups_as_int_numbering(edges):
    new = [_name_blind_key(e) for e in edges]
    old = [_int_numbered_key(e) for e in edges]
    for i, (a_new, a_old) in enumerate(zip(new, old)):
        # the shared renamer writes the oracle's number n as the variable vn
        assert a_new == tuple(
            (k[0], f"v{k[1]}", k[2]) if k[0] == "variable" else k for k in a_old)
        for b_new, b_old in zip(new[i:], old[i:]):
            assert (a_new == b_new) == (a_old == b_old)
            assert (a_new < b_new) == (a_old < b_old)
    assert sorted(range(len(edges)), key=new.__getitem__) == sorted(
        range(len(edges)), key=old.__getitem__)


# typed variables (type collapse makes a class an edge end), literals, blank
# labels and variable predicates
_EDGE_SUBJECTS = ["A", "B", "_:b", "?x", "?y"]
_EDGE_PREDICATES = ["p", "q", "a", "?v", "?x"]
_EDGE_OBJECTS = ["A", "B", "C", '"l"', "7", "_:b", "?x", "?y"]

_edge_logs = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_EDGE_SUBJECTS), st.sampled_from(_EDGE_PREDICATES),
                  st.sampled_from(_EDGE_OBJECTS)),
        min_size=1, max_size=5,
    ).map(lambda ps: "SELECT * WHERE {" + " . ".join(" ".join(p) for p in ps) + "}"),
    min_size=1, max_size=8,
)


def _walk_every_relevant_graph(store, relevant, term):
    """Oracle: the random baseline's edges at ``term`` as first gathered, by a
    walk of every relevant graph that checks both edge ends."""
    edges = set()
    for qid in relevant:
        for edge in store.graph(qid).edges:
            if edge.subject == term or edge.object == term:
                edges.add(edge)
    return edges


def _random_outcome(store, request):
    try:
        summary = summarize(store, request)
    except NoRelevantQueries:
        return "NoRelevantQueries"
    return summary.triples, summary.nodes, summary.warnings


@settings(max_examples=300, deadline=None)
@given(data=st.data(), texts=_edge_logs)
def test_random_summary_matches_a_walk_of_every_relevant_graph(data, texts):
    store = store_from_texts(texts)
    if data.draw(st.booleans(), label="view"):
        store = store.subset(data.draw(st.lists(st.sampled_from(store.ids()), min_size=1)))
    assume(store.term_index)
    seeds = data.draw(st.lists(st.sampled_from(sorted(store.term_index)),
                               min_size=1, max_size=2, unique=True))
    request = SummaryRequest(
        tuple(seeds), len(seeds) + data.draw(st.integers(1, 5)), "random",
        random_seed=data.draw(st.integers(0, 2**64 - 1)),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(summarizer, "_incident_edges", _walk_every_relevant_graph)
        reference = _random_outcome(store, request)
    assert _random_outcome(store, request) == reference


def test_random_strategy_grounds_variables(university_store):
    store = store_from_texts(["SELECT * WHERE {?x knows Target. Seed p Target}"])
    summary = summarize(
        store, SummaryRequest((iri("Seed"),), 2, strategy="random", random_seed=3)
    )
    for triple in summary.triples:
        for term in triple.terms():
            assert term.kind != "variable"


# sha256 over the outputs of GOLDEN_REQUESTS, in order; any change to ranking,
# linking, variable resolution, the random baseline or serialization shows up
# here as a different hash
GOLDEN_REQUESTS = (
    ("Class0", 5, "isummary"), ("Class0", 10, "random"), ("Class0", 15, "isummary"),
    ("Entity0", 5, "random"), ("Entity0", 10, "isummary"), ("Entity0", 15, "random"),
)
GOLDEN_SYNTH_NTRIPLES_SHA256 = "e522a5a1d7b72f652207879af5fa473300b2e6d450af8cb654971e9db74f1460"
GOLDEN_SYNTH_JSON_SHA256 = "6d83657ccd7f0cce4c367a00254ed0ee8a0ee4ff17517cee93457150f54a126f"


def test_summarize_golden_hashes_on_synthetic_log(tmp_path):
    path = tmp_path / "synth.txt"
    generate_synthetic(SyntheticSpec(n_queries=3000, rng_seed=1), path)
    store = load_workload(path)
    ntriples, json_text = hashlib.sha256(), hashlib.sha256()
    for seed, k, strategy in GOLDEN_REQUESTS:
        summary = summarize(store, SummaryRequest((iri(seed),), k, strategy, random_seed=7))
        ntriples.update(to_ntriples(summary).encode("utf-8"))
        json_text.update(to_json(summary).encode("utf-8"))
    assert ntriples.hexdigest() == GOLDEN_SYNTH_NTRIPLES_SHA256
    assert json_text.hexdigest() == GOLDEN_SYNTH_JSON_SHA256
