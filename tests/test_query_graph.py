import itertools
import signal

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isummary import query_graph
from isummary.parser import ParsedQuery, parse_query
from isummary.query_graph import (
    BACKWARD,
    FORWARD,
    Step,
    _steps_key,
    _steps_less,
    build_graph,
    shortest_path,
)
from isummary.rng import XorShift64Star
from isummary.terms import RDF_TYPE, Term, TriplePattern, iri, literal, variable
from isummary.workload import concrete_node_terms

from conftest import collapsed_nodes, oracle, oracle_shortest_path, scanned_node_terms


def graph_of(text):
    return build_graph(parse_query(text))


def concrete_edges(graph):
    """The edges coverage scores: those with a concrete predicate."""
    return [e for e in graph.edges if e.predicate.concrete]


def node_term_set(query):
    """The query's node terms as a set, once the tuple is checked to be
    duplicate-free and in first-occurrence order."""
    terms = concrete_node_terms(query)
    assert terms == scanned_node_terms(query)
    assert len(set(terms)) == len(terms)
    return set(terms)


def check_nodes(text, expected):
    """The collapsed graph of ``text`` has the nodes ``expected`` (by the
    oracle), and its concrete ones are the query's node terms."""
    query = parse_query(text)
    assert collapsed_nodes(query) == expected
    assert node_term_set(query) == {t for t in expected if t.concrete}


Q3 = 'SELECT ?x ?y WHERE {?x a Person. ?y a Organization. ?y affiliatedOf ?x. ?y orgName "FORTH".}'


def test_q3_type_collapse():
    g = graph_of(Q3)
    check_nodes(Q3, {iri("Person"), iri("Organization"), literal("FORTH")})
    assert set(g.edges) == {
        TriplePattern(iri("Organization"), iri("affiliatedOf"), iri("Person")),
        TriplePattern(iri("Organization"), iri("orgName"), literal("FORTH")),
    }


def test_single_pattern_collapses_to_lone_node():
    text = "SELECT ?y WHERE {?y a Organization.}"
    check_nodes(text, {iri("Organization")})
    assert graph_of(text).edges == ()


def test_no_collapse_without_type_patterns():
    text = "SELECT * WHERE {?x p ?y. ?y q ?z.}"
    check_nodes(text, {variable("x"), variable("y"), variable("z")})
    query = parse_query(text)
    # with nothing to collapse the edges are the query's own patterns tuple
    assert build_graph(query).edges is query.patterns
    assert set(query.patterns) == {
        TriplePattern(variable("x"), iri("p"), variable("y")),
        TriplePattern(variable("y"), iri("q"), variable("z")),
    }


def test_multi_typed_variable_keeps_least_class():
    text = "SELECT ?x WHERE {?x a Zebra. ?x a Animal. ?x eats Grass.}"
    check_nodes(text, {iri("Animal"), iri("Zebra"), iri("Grass")})
    g = graph_of(text)
    assert TriplePattern(iri("Animal"), RDF_TYPE, iri("Zebra")) in g.edges
    assert TriplePattern(iri("Animal"), iri("eats"), iri("Grass")) in g.edges


def test_type_flood_builds_within_a_cap():
    # one variable typed 20,000 times, least class last: the build must stay
    # near linear (a per-class list scan took about 8 s); the cap is generous
    x = variable("x")
    classes = [iri(f"C{i}") for i in range(20_000)]
    query = ParsedQuery(0, tuple(TriplePattern(x, RDF_TYPE, c) for c in reversed(classes)))

    def expired(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    # the failure is reported outside the handler: a traceback that ends in a
    # signal raised mid-loop can have no line number to show
    graph = None
    try:
        graph = build_graph(query)
    except TimeoutError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert graph is not None, "build_graph exceeded its 2 s cap"
    least = min(classes, key=Term.sort_key)
    assert len(graph.edges) == len(classes) - 1
    assert {e.subject for e in graph.edges} == {least}
    assert TriplePattern(least, RDF_TYPE, least) not in graph.edges


def test_concrete_subject_type_pattern_stays_edge():
    g = graph_of("SELECT * WHERE {Fanis a Person.}")
    assert TriplePattern(iri("Fanis"), RDF_TYPE, iri("Person")) in g.edges


def test_variable_class_type_pattern_stays_edge():
    g = graph_of("SELECT * WHERE {?x a ?c.}")
    assert g.edges == (TriplePattern(variable("x"), RDF_TYPE, variable("c")),)


def test_patterns_left_unchanged_by_collapse_are_the_edges():
    query = parse_query(
        "SELECT * WHERE {?x a Person. ?x knows ?y. ?y name ?n. Ann knows Bob. ?x a Agent.}"
    )
    edges = build_graph(query).edges
    # ?x collapses to Agent: its patterns change, the other two stay as written
    assert edges[2] is query.patterns[2] and edges[3] is query.patterns[3]
    assert edges[:2] == (
        TriplePattern(iri("Agent"), RDF_TYPE, iri("Person")),
        TriplePattern(iri("Agent"), iri("knows"), variable("y")),
    )
    assert len(edges) == 4


def test_collapse_idempotent():
    g = graph_of(Q3)
    # rebuilding from the collapsed edge list finds nothing left to absorb
    requeried = parse_query(
        "SELECT * WHERE { "
        + " . ".join(e.to_sparql() for e in g.edges)
        + " }"
    )
    g2 = build_graph(requeried)
    assert set(g2.edges) == set(g.edges)


def test_build_graph_order_invariant():
    base = parse_query(Q3)
    for perm in itertools.permutations(base.patterns):
        query = parse_query(
            "SELECT * WHERE { " + " . ".join(p.to_sparql() for p in perm) + " }"
        )
        assert node_term_set(query) == node_term_set(base)
        assert collapsed_nodes(query) == collapsed_nodes(base)
        assert set(build_graph(query).edges) == set(graph_of(Q3).edges)


def test_concrete_counts_q3():
    assert concrete_node_terms(parse_query(Q3)) == (
        iri("Person"), iri("Organization"), literal("FORTH"))
    assert len(concrete_edges(graph_of(Q3))) == 2


def test_concrete_counts_variables_only():
    text = "SELECT * WHERE {?x p ?y}"
    assert concrete_node_terms(parse_query(text)) == ()
    assert len(concrete_edges(graph_of(text))) == 1


def test_variable_predicate_edge_not_concrete():
    g = graph_of("SELECT * WHERE {?x ?p ?y. ?x q ?y}")
    assert len(concrete_edges(g)) == 1


# -- shortest paths ----------------------------------------------------------

def test_direct_edge_path():
    g = graph_of(Q3)
    sig = shortest_path(g, iri("Person"), iri("Organization"))
    assert sig is not None
    assert len(sig.steps) == 1
    assert sig.endpoints == (iri("Organization"), iri("Person"))
    assert sig.steps[0].predicate == iri("affiliatedOf")
    assert sig.steps[0].direction == FORWARD


def test_two_hop_path():
    g = graph_of(Q3)
    sig = shortest_path(g, literal("FORTH"), iri("Person"))
    assert sig is not None and len(sig.steps) == 2
    waypoints = [s.waypoint for s in sig.steps]
    assert iri("Organization") in waypoints


def test_missing_endpoint_is_no_path():
    g = graph_of(Q3)
    assert shortest_path(g, iri("Person"), iri("Publication")) is None


def test_disconnected_is_no_path():
    g = graph_of("SELECT * WHERE {A p B. C q D}")
    assert shortest_path(g, iri("A"), iri("C")) is None


def test_equal_endpoints_rejected():
    g = graph_of(Q3)
    with pytest.raises(ValueError):
        shortest_path(g, iri("Person"), iri("Person"))
    with pytest.raises(ValueError):
        shortest_path(g, variable("x"), iri("Person"))


def test_signature_symmetric_in_endpoint_order():
    g = graph_of(Q3)
    assert shortest_path(g, iri("Person"), literal("FORTH")) == shortest_path(
        g, literal("FORTH"), iri("Person")
    )


def test_alpha_equivalent_paths_share_signature():
    g1 = graph_of("SELECT * WHERE {A p ?x. ?x q B}")
    g2 = graph_of("SELECT * WHERE {A p ?other. ?other q B}")
    assert shortest_path(g1, iri("A"), iri("B")) == shortest_path(g2, iri("A"), iri("B"))


def test_direction_recorded_for_backward_steps():
    g = graph_of("SELECT * WHERE {B p A}")
    sig = shortest_path(g, iri("A"), iri("B"))
    # canonical start is A; the edge was written B -> A, so the step runs backward
    assert sig.endpoints == (iri("A"), iri("B"))
    assert sig.steps[0].direction == BACKWARD


def test_tie_break_least_signature():
    g = graph_of("SELECT * WHERE {A p B. A q B}")
    sig = shortest_path(g, iri("A"), iri("B"))
    assert sig.steps[0].predicate == iri("p")


# -- oracle equivalence on random small graphs --------------------------------

def _random_query_graph(rng, node_count, edge_count):
    names = [f"N{i}" for i in range(node_count)]
    terms = [iri(n) if i % 3 else literal(n) for i, n in enumerate(names)]
    patterns = []
    for _ in range(edge_count):
        a = terms[rng.randrange(node_count)]
        b = terms[rng.randrange(node_count)]
        if a == b or (a.kind == "literal" and b.kind == "literal"):
            continue
        pred = iri(f"p{rng.randrange(4)}")
        subject, obj = (a, b) if a.kind != "literal" else (b, a)
        patterns.append(f"{subject.to_sparql()} {pred.to_sparql()} {obj.to_sparql()}")
    if not patterns:
        patterns.append(f"{terms[0].to_sparql() if terms[0].kind != 'literal' else '<X>'} <p0> {terms[1].to_sparql()}")
    return build_graph(parse_query("SELECT * WHERE { " + " . ".join(patterns) + " }"))


def test_shortest_path_length_matches_networkx_oracle():
    rng = XorShift64Star(99)
    checked = 0
    for _ in range(300):
        g = _random_query_graph(rng, 3 + rng.randrange(6), 2 + rng.randrange(8))
        # no type patterns here, so every node is an edge end
        nodes = sorted({t for e in g.edges for t in (e.subject, e.object)}, key=Term.sort_key)
        if len(nodes) < 2:
            continue
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(nodes)
        nxg.add_edges_from((e.subject, e.object) for e in g.edges)
        x, y = nodes[rng.randrange(len(nodes))], nodes[rng.randrange(len(nodes))]
        if x == y or not (x.concrete and y.concrete):
            continue
        sig = shortest_path(g, x, y)
        try:
            expected = nx.shortest_path_length(nxg, x, y)
        except nx.NetworkXNoPath:
            assert sig is None
            continue
        assert sig is not None and len(sig.steps) == expected
        checked += 1
    assert checked > 100


# -- oracle equivalence: the all-paths enumerator -----------------------------

_Q_SUBJECTS = ["A", "B", "_:b", "?x", "?y", "?z"]
_Q_PREDICATES = ["p", "q", "a", "?x", "?p"]
_Q_OBJECTS = ["A", "B", "C", "D", '"l"', '"l"@en', "7", "_:b", "?x", "?y", "?z"]

# a query is a list of (subject, predicate, object) tokens; `a` with several
# classes makes type collapse merge variables into parallel edges
_small_queries = st.lists(
    st.tuples(st.sampled_from(_Q_SUBJECTS), st.sampled_from(_Q_PREDICATES),
              st.sampled_from(_Q_OBJECTS)),
    min_size=1, max_size=7,
)


@settings(max_examples=400, deadline=None)
@given(tokens=_small_queries)
def test_shortest_path_matches_enumerator_oracle(tokens):
    query = parse_query("SELECT * WHERE { " + " . ".join(" ".join(t) for t in tokens) + " }")
    graph = build_graph(query)
    concrete = sorted(oracle.collapse(query.patterns)[0], key=Term.sort_key)
    absent = iri("Absent")
    for x, y in itertools.permutations(concrete + [absent], 2):
        assert shortest_path(graph, x, y) == oracle_shortest_path(graph, x, y), (x, y)


_step = st.builds(
    Step,
    st.sampled_from([iri("p"), iri("q"), variable("v0")]),
    st.sampled_from([FORWARD, BACKWARD]),
    st.sampled_from([iri("A"), literal("A"), variable("v0"), variable("v1")]),
)


@settings(max_examples=300)
@given(data=st.data(), length=st.integers(min_value=1, max_value=4))
def test_steps_less_orders_as_steps_key(data, length):
    a, b = (tuple(data.draw(st.lists(_step, min_size=length, max_size=length)))
            for _ in range(2))
    for x, y in ((a, b), (b, a), (a, a)):
        assert _steps_less(x, y) == (_steps_key(x) < _steps_key(y))


_ENDS = {"A": iri("A"), "B": iri("B"), '"l"': literal("l")}


# two ends joined by parallel hops, so the least renamed hop is the path, plus
# detours of 2-3 hops that must lose to it
@settings(max_examples=300, deadline=None)
@given(
    ends=st.sampled_from([("A", "B"), ("B", "A"), ("A", '"l"')]),
    hops=st.lists(st.tuples(st.sampled_from(["p", "q", "a", "?p", "?q"]), st.booleans()),
                  min_size=1, max_size=4),
    collapsed=st.booleans(),
    detours=st.lists(st.lists(st.sampled_from(["p", "q", "?p"]), min_size=2, max_size=3),
                     max_size=2),
)
def test_direct_hops_match_enumerator_oracle(ends, hops, collapsed, detours):
    a, b = ends
    patterns = []
    for predicate, backward in hops:
        subject, obj = (b, a) if backward and b in ("A", "B") else (a, b)
        patterns.append(f"{subject} {predicate} {obj}")
    if collapsed and b in ("A", "B"):
        # ?c and ?d both collapse to A, each leaving an `A a B` edge
        patterns += [f"?{v} a {end}" for v in "cd" for end in (a, b)]
    for i, predicates in enumerate(detours):
        nodes = [a] + [f"?m{i}_{j}" for j in range(len(predicates) - 1)] + [b]
        patterns += [f"{nodes[j]} {predicate} {nodes[j + 1]}"
                     for j, predicate in enumerate(predicates)]
    graph = build_graph(parse_query("SELECT * WHERE { " + " . ".join(patterns) + " }"))
    x, y = _ENDS[a], _ENDS[b]
    for u, v in ((x, y), (y, x)):
        signature = shortest_path(graph, u, v)
        assert signature == oracle_shortest_path(graph, u, v)
        assert len(signature.steps) == 1


_LEG_PREDICATES = ["p", "q", "a", "?p", "?q", "?m"]


def _leg(subject, predicate, obj):
    """One pattern between a waypoint and an end, turned round where a literal
    would be its subject or where ``?m a <end>`` would collapse ``?m``."""
    if subject.startswith('"') or (predicate == "a" and subject == "?m" and obj in ("A", "B")):
        subject, obj = obj, subject
    return f"{subject} {predicate} {obj}"


# two ends that are not neighbours, joined through 1-4 common neighbours
# (concrete or variable, each reached by one or more parallel legs), so the
# least renamed pair of hops is the path; ?p and ?m may repeat across legs and
# ?m is both a waypoint and a predicate.  Around them: the duplicate `A a M`
# edges type collapse leaves, a self-loop at an end and 3-4-hop detours that
# must lose.
@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    ends=st.sampled_from([("A", "B"), ("B", "A"), ("A", '"l"')]),
    collapsed=st.booleans(),
    loop=st.sampled_from([None, ("p", 0), ("?p", 0), ("q", 1)]),
    detours=st.lists(st.lists(st.sampled_from(["p", "q", "?p"]), min_size=3, max_size=4),
                     max_size=2),
)
def test_two_hop_paths_match_enumerator_oracle(data, ends, collapsed, loop, detours):
    a, b = ends
    pool = ["M", "?m", "_:w"] + (['"w"'] if b != '"l"' else [])
    waypoints = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    patterns = []
    for waypoint in waypoints:
        legs = data.draw(st.lists(
            st.tuples(st.sampled_from(_LEG_PREDICATES), st.booleans(),
                      st.sampled_from(_LEG_PREDICATES), st.booleans()),
            min_size=1, max_size=2))
        for first, first_back, second, second_back in legs:
            patterns.append(_leg(*((waypoint, first, a) if first_back else (a, first, waypoint))))
            patterns.append(_leg(*((b, second, waypoint) if second_back else (waypoint, second, b))))
    if collapsed:
        # ?c and ?d both collapse to each IRI end, each leaving an `<end> a M` edge
        patterns += [f"?{v}{i} a {cls}" for i, end in enumerate((a, b)) if end in ("A", "B")
                     for v in "cd" for cls in (end, "M")]
    if loop is not None and ends[loop[1]] in ("A", "B"):
        patterns.append(f"{ends[loop[1]]} {loop[0]} {ends[loop[1]]}")
    for i, predicates in enumerate(detours):
        nodes = [a] + [f"?t{i}_{j}" for j in range(len(predicates) - 1)] + [b]
        patterns += [_leg(nodes[j], predicate, nodes[j + 1])
                     for j, predicate in enumerate(predicates)]
    graph = build_graph(parse_query("SELECT * WHERE { " + " . ".join(patterns) + " }"))
    x, y = _ENDS[a], _ENDS[b]
    for u, v in ((x, y), (y, x)):
        signature = shortest_path(graph, u, v)
        assert signature == oracle_shortest_path(graph, u, v)
        assert len(signature.steps) == 2


def test_one_and_two_hop_paths_run_no_search(monkeypatch):
    searches = []
    bfs = query_graph._bfs_distances
    monkeypatch.setattr(query_graph, "_bfs_distances",
                        lambda *args: searches.append(args) or bfs(*args))
    graph = graph_of("SELECT * WHERE {A p B . B q ?m . ?m r C . C s D}")
    for x, y, hops in (("A", "B", 1), ("B", "C", 2), ("A", "C", 3), ("B", "D", 3)):
        searches.clear()
        assert len(shortest_path(graph, iri(x), iri(y)).steps) == hops
        assert (len(searches) >= 1) == (hops >= 3), (x, y, len(searches))


def test_endpoint_only_a_predicate_is_no_path():
    graph = graph_of("SELECT * WHERE {A p B. B q C}")
    for end in (iri("A"), iri("B"), iri("C")):
        for u, v in ((iri("p"), end), (end, iri("p"))):
            assert shortest_path(graph, u, v) is None
            assert oracle_shortest_path(graph, u, v) is None


def test_enumerator_oracle_on_parallel_collapsed_edges():
    # ?x and ?y both collapse to A, so `A a B` appears twice as a parallel edge
    graph = graph_of("SELECT * WHERE {?x a A. ?x a B. ?y a A. ?y a B. ?y p C.}")
    assert graph.edges.count(TriplePattern(iri("A"), RDF_TYPE, iri("B"))) == 2
    for x, y in itertools.permutations([iri("A"), iri("B"), iri("C")], 2):
        assert shortest_path(graph, x, y) == oracle_shortest_path(graph, x, y)
