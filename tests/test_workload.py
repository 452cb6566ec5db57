import importlib
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isummary import parser
from isummary.parser import parse_query
from isummary.terms import RDF_TYPE, iri, literal
from isummary.workload import EmptyWorkload, IoError, WorkloadStore, load_workload

from conftest import (
    UNIVERSITY_FILE,
    UNIVERSITY_QUERIES,
    oracle,
    scanned_slot_counts,
    store_from_texts,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_load_raw_lines(university_file):
    store = load_workload(university_file, format="raw-lines")
    assert len(store) == 5
    assert store.rejected_count == 0
    assert [q.id for q in store.queries] == [0, 1, 2, 3, 4]
    assert store.query(2).source_line == 3


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyWorkload):
        load_workload(path, format="raw-lines")


def test_missing_path():
    with pytest.raises(IoError):
        load_workload("/no/such/file.txt", format="raw-lines")


def test_garbage_lines_counted(tmp_path, caplog):
    path = tmp_path / "log.txt"
    path.write_text(
        "SELECT ?x WHERE {?x a Person}\n"
        "not sparql\n"
        "SELECT ?y WHERE {?y a Robot}\n"
        "also || not % sparql\n"
        "SELECT ?z WHERE {?z a Alien}\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        store = load_workload(path, format="raw-lines")
    assert len(store) == 3
    assert store.rejected_count == 2
    assert "line 2" in caplog.text and "line 4" in caplog.text


_REPEATS_LOG = (
    "SELECT ?x WHERE {?x a Person. ?x advisor ?y}\n"
    "not sparql\n"
    "\n"
    "SELECT ?x WHERE {?x a Person. ?x advisor ?y}\n"
    "not sparql\n"
    "SELECT ?x WHERE {?x a Person. ?x advisor ?y}\n"
)


def test_repeated_records_keep_their_ids_lines_and_rejections(tmp_path, caplog):
    path = tmp_path / "log.txt"
    path.write_text(_REPEATS_LOG, encoding="utf-8")
    with caplog.at_level("WARNING", logger="isummary.workload"):
        store = load_workload(path, format="raw-lines")
    assert [(q.id, q.source_line) for q in store.queries] == [(0, 1), (1, 4), (2, 6)]
    assert store.rejected_count == 2
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    assert "line 2 " in warnings[0] and "line 5 " in warnings[1]
    assert all("(byte 0)" in w for w in warnings)


def test_repeated_record_text_shares_one_patterns_tuple(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(_REPEATS_LOG, encoding="utf-8")
    store = load_workload(path, format="raw-lines")
    assert store.query(0).patterns is store.query(1).patterns is store.query(2).patterns
    alone = parse_query(_REPEATS_LOG.splitlines()[0])
    assert store.query(2).patterns == alone.patterns


def test_load_builds_each_distinct_triple_once(tmp_path, monkeypatch):
    from isummary.terms import TriplePattern

    path = tmp_path / "log.txt"
    path.write_text(
        _REPEATS_LOG
        + "SELECT ?x WHERE {?x a Person. ?x name ?n}\n"
        + "SELECT ?y WHERE {?y advisor ?z. ?x advisor ?y. ?x a Person}\n",
        encoding="utf-8",
    )
    built = []
    new = TriplePattern.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(TriplePattern, "__new__", counting)
    store = load_workload(path, format="raw-lines")
    distinct = {p for q in store.queries for p in q.patterns}
    assert len(store) == 5
    assert len(built) == len(distinct) == 4


def test_deeply_nested_record_counted_as_rejected(tmp_path):
    depth = 2000
    path = tmp_path / "log.txt"
    path.write_text(
        "SELECT * WHERE " + "{" * depth + " ?s ?p ?o " + "}" * depth + "\n"
        "SELECT ?x WHERE {?x a Person}\n",
        encoding="utf-8",
    )
    store = load_workload(path, format="raw-lines")
    assert len(store) == 1
    assert store.rejected_count == 1


def test_empty_prefix_iri_record_counted_as_rejected(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "PREFIX e: <> SELECT * WHERE { e: <p> <o> }\n"
        "SELECT ?x WHERE {?x a Person}\n",
        encoding="utf-8",
    )
    store = load_workload(path, format="raw-lines")
    assert len(store) == 1
    assert store.rejected_count == 1


def test_malformed_iri_record_counted_as_rejected(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "SELECT * WHERE { <http://a\u00a0b> <p> ?x }\n"
        "SELECT ?x WHERE {?x a Person}\n",
        encoding="utf-8",
    )
    store = load_workload(path, format="raw-lines")
    assert len(store) == 1
    assert store.rejected_count == 1


def test_rejection_warnings_rate_limited(tmp_path, caplog):
    path = tmp_path / "log.txt"
    path.write_text("not sparql\n" * 50 + "SELECT ?x WHERE {?x a Person}\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="isummary.workload"):
        store = load_workload(path, format="raw-lines")
    assert store.rejected_count == 50
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 21
    assert "50" in warnings[-1].getMessage()


_KEYWORDS = ("CONSTRUCT", "ASK", "DESCRIBE", "BIND", "VALUES", "GRAPH", "SERVICE")
_KEYWORD_ROWS = "".join(f"2\t{word} {{ ?x ?y ?z }}\n" * (8 - i) for i, word in enumerate(_KEYWORDS))


@pytest.mark.parametrize("text, tsv_column, rejected, histogram", [
    ("SELECT ?x WHERE {?x <p>+ ?y}\n" * 12 + "not sparql\n" * 18 + "SELECT ?x WHERE {?x a P}\n",
     None, 30,
     "18 'expected SELECT', 12 'property paths are not supported'"),
    # at most five reasons, then how many others; a tsv row without a query has its own
    ("id\tquery\n" + "1\n" * 10 + _KEYWORD_ROWS + "3\tSELECT ?x WHERE {?x a P}\n", 1, 45,
     "10 'row has no query in column 1', 8 'unsupported construct: CONSTRUCT', "
     "7 'unsupported construct: ASK', 6 'unsupported construct: DESCRIBE', "
     "5 'unsupported construct: BIND', 3 other reasons"),
], ids=["two-reasons", "five-reasons-then-others"])
def test_closing_warning_counts_rejections_per_reason(tmp_path, caplog, text, tsv_column,
                                                      rejected, histogram):
    path = tmp_path / "log.txt"
    path.write_text(text, encoding="utf-8")
    with caplog.at_level("WARNING", logger="isummary.workload"):
        store = load_workload(path, format="raw-lines" if tsv_column is None else "tsv",
                              tsv_column=tsv_column)
    assert store.rejected_count == rejected
    closing = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"][-1]
    assert closing.endswith(f"logged at DEBUG; by reason: {histogram}")


def _load_outcome(path, caplog):
    caplog.clear()
    with caplog.at_level("WARNING", logger="isummary.workload"):
        store = load_workload(path, format="raw-lines", base_prefix="http://example.org/isummary/")
    queries = [(q.id, q.source_line, q.patterns) for q in store.queries]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    # within one load, a term or triple that two queries share is one object
    first = {}
    for query in store.queries:
        for pattern in query.patterns:
            assert all(first.setdefault(part, part) is part for part in (pattern, *pattern))
    return queries, store.rejected_count, warnings


def test_load_is_the_same_when_the_fast_path_always_gives_up(tmp_path, monkeypatch, caplog):
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    gen.summarize_inputs(1, tmp_path, n_queries=2000)  # 10% rich records, 2% rejected
    path = tmp_path / "mixed.txt"
    path.write_text(UNIVERSITY_FILE.read_text(encoding="utf-8")
                    + (tmp_path / "log.txt").read_text(encoding="utf-8"), encoding="utf-8")
    fast = _load_outcome(path, caplog)
    monkeypatch.setattr(parser, "_fast_patterns", lambda *args: None)
    assert _load_outcome(path, caplog) == fast
    assert fast[1] == 40 and len(fast[0]) == 2005


def test_urlencoded_lines(tmp_path):
    encoded = quote("SELECT ?x WHERE {?x a Person. ?x name \"Ann Smith\"}")
    path = tmp_path / "log.txt"
    path.write_text(encoded + "\n", encoding="utf-8")
    store = load_workload(path, format="urlencoded-lines")
    assert len(store) == 1
    assert store.query(0).patterns[1].object == literal("Ann Smith")


def test_rq_directory_lexicographic(tmp_path):
    (tmp_path / "b.rq").write_text("SELECT ?x WHERE {?x a Robot}", encoding="utf-8")
    (tmp_path / "a.rq").write_text("SELECT ?x WHERE {?x a Person}", encoding="utf-8")
    (tmp_path / "ignored.txt").write_text("junk", encoding="utf-8")
    store = load_workload(tmp_path, format="rq-directory")
    assert [q.patterns[0].object for q in store.queries] == [iri("Person"), iri("Robot")]


def test_rq_directory_skips_subdirectories(tmp_path):
    (tmp_path / "a.rq").write_text("SELECT ?x WHERE {?x a Person}", encoding="utf-8")
    (tmp_path / "b.rq").mkdir()
    (tmp_path / "b.rq" / "c.rq").write_text("SELECT ?x WHERE {?x a Robot}", encoding="utf-8")
    store = load_workload(tmp_path, format="rq-directory")
    assert [q.patterns[0].object for q in store.queries] == [iri("Person")]
    assert store.rejected_count == 0


def test_tsv_with_failing_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text(
        "timestamp\tquery\n"
        "123\tSELECT ?x WHERE {?x a Person}\n"
        "456\tbroken\n",
        encoding="utf-8",
    )
    store = load_workload(path, format="tsv", tsv_column=1)
    assert len(store) == 1
    assert store.rejected_count == 1  # header skip is not a rejection


def test_tsv_short_row_is_a_rejected_record(tmp_path, caplog):
    path = tmp_path / "log.tsv"
    path.write_text(
        "1\tSELECT ?x WHERE {?x a Person}\n"
        "2\n"
        "\n"
        "3\tSELECT ?y WHERE {?y a Robot}\n"
        "4\t \n",
        encoding="utf-8",
    )
    store = load_workload(path, format="tsv", tsv_column=1)
    assert len(store) == 2
    assert store.rejected_count == 2  # the blank line is still skipped
    assert "line 2" in caplog.text and "line 5" in caplog.text
    assert "no query in column 1" in caplog.text


def test_tsv_short_first_row_is_a_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("query\n1\tSELECT ?x WHERE {?x a Person}\n", encoding="utf-8")
    store = load_workload(path, format="tsv", tsv_column=1)
    assert len(store) == 1
    assert store.rejected_count == 0


def test_tsv_header_is_the_first_non_blank_row(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("\nid\tquery\n1\tSELECT ?x WHERE {?x a Person}\n", encoding="utf-8")
    store = load_workload(path, format="tsv", tsv_column=1)
    assert len(store) == 1
    assert store.rejected_count == 0


def test_tsv_column_flag_validation(tmp_path, university_file):
    with pytest.raises(ValueError):
        load_workload(university_file, format="raw-lines", tsv_column=1)
    with pytest.raises(ValueError):
        load_workload(university_file, format="tsv")


def test_lone_cr_stays_inside_its_record(tmp_path):
    path = tmp_path / "log.txt"
    path.write_bytes(
        b"SELECT * WHERE { ?s <p> ?o .\r ?o <q> <B> }\n"
        b"SELECT * WHERE { ?a <p> <C> }\r\n"
    )
    store = load_workload(path, format="raw-lines")
    assert [q.source_line for q in store.queries] == [1, 2]
    assert store.rejected_count == 0
    assert len(store.query(0).patterns) == 2


def test_invalid_utf8_inside_an_iri_becomes_replacement_characters(tmp_path):
    path = tmp_path / "log.txt"
    path.write_bytes(b"SELECT * WHERE { ?s <p> <http://ex.org/a\xff\xfeb> }\n")
    store = load_workload(path, format="raw-lines")
    assert len(store) == 1
    assert store.rejected_count == 0
    assert store.query(0).patterns[0].object == iri("http://ex.org/a\ufffd\ufffdb")


def test_crlf_log_loads_as_lf_log(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(_REPEATS_LOG.encode("utf-8"))
    crlf.write_bytes(_REPEATS_LOG.replace("\n", "\r\n").encode("utf-8"))
    a, b = load_workload(lf, format="raw-lines"), load_workload(crlf, format="raw-lines")
    assert [(q.source_line, q.patterns) for q in b.queries] == [
        (q.source_line, q.patterns) for q in a.queries]
    assert b.rejected_count == a.rejected_count == 2


# record texts by outcome; a raw CR sits inside some, where it is whitespace
_CR_RECORDS = {
    "query": ("SELECT * WHERE { ?s <p> ?o .\r ?o <q> <B> }", "SELECT * WHERE {\r?a <p> <C> }",
              "SELECT ?x WHERE { ?x a Person }"),
    "rejected": ("not sparql", "SELECT * WHERE { ?s\r", "\rbroken"),
    "blank": ("", " ", "\r", " \r "),
}


@settings(max_examples=150, deadline=None)
@given(
    format=st.sampled_from(("raw-lines", "urlencoded-lines", "tsv")),
    records=st.lists(
        st.tuples(
            st.sampled_from([(o, t) for o, texts in _CR_RECORDS.items() for t in texts]),
            st.booleans(),
        ),
        min_size=1, max_size=8,
    ),
    final_newline=st.booleans(),
)
def test_records_are_the_lf_lines_of_the_file(tmp_path_factory, format, records, final_newline):
    """Queries plus rejected records are the non-blank LF-delimited lines,
    and each query's source line is its 1-based LF line number, whatever CRs
    the lines hold; a line loses one trailing CR (CRLF logs)."""
    lines = ["id\tquery"] if format == "tsv" else []
    expected_lines, expected_rejected = [], 0
    for (outcome, text), crlf in records:
        if format == "urlencoded-lines":
            text = "\r".join(quote(chunk) for chunk in text.split("\r"))
        elif format == "tsv" and outcome != "blank":
            text = f"{len(lines)}\t{text}"
        lines.append(text + ("\r" if crlf else ""))
        if outcome == "query":
            expected_lines.append(len(lines))
        expected_rejected += outcome == "rejected"
    path = tmp_path_factory.mktemp("cr") / "log"
    path.write_bytes(("\n".join(lines) + ("\n" if final_newline else "")).encode("utf-8"))
    tsv_column = 1 if format == "tsv" else None
    if not expected_lines:
        with pytest.raises(EmptyWorkload):
            load_workload(path, format=format, tsv_column=tsv_column)
        return
    store = load_workload(path, format=format, tsv_column=tsv_column)
    assert [q.source_line for q in store.queries] == expected_lines
    assert store.rejected_count == expected_rejected


def test_deterministic_reload(university_file):
    a = load_workload(university_file, format="raw-lines")
    b = load_workload(university_file, format="raw-lines")
    assert [q.patterns for q in a.queries] == [q.patterns for q in b.queries]
    assert a.term_index == b.term_index


# -- filter ------------------------------------------------------------------

def test_filter_person(university_store):
    assert university_store.filter([iri("Person")]) == [0, 1, 2]


def test_filter_publication(university_store):
    assert university_store.filter([iri("Publication")]) == [4]


def test_filter_empty_set_matches_all(university_store):
    assert university_store.filter([]) == [0, 1, 2, 3, 4]


def test_filter_predicate_and_literal_positions(university_store):
    assert university_store.filter([iri("advisor")]) == [0]
    assert university_store.filter([literal("FORTH")]) == [2]


def test_filter_conjunction(university_store):
    assert university_store.filter([iri("Person"), iri("Organization")]) == [1, 2]
    assert university_store.filter([iri("Person"), iri("Publication")]) == []


def test_filter_requires_concrete(university_store):
    from isummary.terms import variable

    with pytest.raises(ValueError):
        university_store.filter([variable("x")])


def _scanned_index(store):
    """Oracle: each concrete term's holders, by a linear scan of the patterns,
    as an ascending tuple (the index's posting layout)."""
    scanned = {}
    for q in store.queries:
        for t in oracle.term_set(q.patterns):
            scanned.setdefault(t, set()).add(q.id)
    return {t: tuple(sorted(ids)) for t, ids in scanned.items()}


def test_term_index_matches_linear_scan(university_store):
    # also no phantom entries: every indexed term occurs somewhere
    assert university_store.term_index == _scanned_index(university_store)


def test_subset_preserves_ids(university_store):
    sub = university_store.subset([1, 3])
    assert [q.id for q in sub.queries] == [1, 3]
    assert sub.filter([iri("Organization")]) == [1, 3]


_vocab = [iri(n) for n in ("A", "B", "C", "D")] + [literal("x")]


@settings(max_examples=100, deadline=None)
@given(
    a=st.sets(st.sampled_from(_vocab), max_size=3),
    b=st.sets(st.sampled_from(_vocab), max_size=3),
)
def test_filter_conjunction_property(a, b):
    store = store_from_texts(UNIVERSITY_QUERIES + [
        "SELECT ?x WHERE {A p B. C q D}",
        'SELECT ?x WHERE {?x p "x". A q ?x}',
        "SELECT ?x WHERE {B p D}",
    ])
    union = set(store.filter(a | b))
    both = set(store.filter(a)) & set(store.filter(b))
    assert union == both


_query_texts = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "?x", "?y"]),
            st.sampled_from(["p", "q", "a"]),
            st.sampled_from(["A", "B", "C", "?x", '"x"']),
        ),
        min_size=1, max_size=4,
    ).map(lambda ps: "SELECT * WHERE {" + " . ".join(" ".join(p) for p in ps) + "}"),
    min_size=1, max_size=8,
)


def _shuffled_store(data, texts):
    """A store over ``texts`` whose query ids are a drawn permutation, so the
    build order differs from id order."""
    ids = data.draw(st.permutations(range(len(texts))))
    return WorkloadStore(parse_query(t, query_id=i) for t, i in zip(texts, ids))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_query_texts)
def test_subset_view_property(data, texts):
    # ids in shuffled order, so "parent order" differs from id order
    store = _shuffled_store(data, texts)
    ids = store.ids()
    # id lists may repeat an id and name ids the store does not hold
    id_lists = st.lists(st.integers(min_value=0, max_value=len(texts) + 2))
    asked, others = data.draw(id_lists), data.draw(id_lists)
    members = set(asked) & set(ids)
    terms = data.draw(st.sets(st.sampled_from(_vocab + [iri("p"), iri("q")]), max_size=3))
    sub = store.subset(asked)

    assert sub.filter(terms) == [i for i in store.filter(terms) if i in members]
    assert sub.ids() == [i for i in store.ids() if i in members]
    # oracle: the members in store order
    oracle = [q for q in store.queries if q.id in set(asked)]
    assert sub.queries == oracle
    assert len(sub) == len(members) and sub.rejected_count == 0
    for outsider in set(ids) - members:
        with pytest.raises(KeyError):
            sub.query(outsider)

    nested, direct = sub.subset(others), store.subset(members & set(others))
    assert [q.id for q in nested.queries] == [q.id for q in direct.queries]
    nested_oracle = [q for q in sub.queries if q.id in set(others)]
    assert nested.queries == nested_oracle
    for outsider in set(ids) - (members & set(others)):
        with pytest.raises(KeyError):
            nested.query(outsider)
    assert nested.filter(terms) == direct.filter(terms)
    # the view shares the index; no lookup may have changed it
    assert store.term_index == _scanned_index(store)


_SLOTS = ("subject", "predicate", "object")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_query_texts)
def test_split_partitions_a_store_and_derives_train_counts(data, texts):
    root = store_from_texts(texts)
    nested = root.subset(data.draw(st.lists(st.sampled_from(root.ids()), min_size=1)))
    anchors = sorted(root.term_index, key=lambda t: t.sort_key()) + [iri("D")]
    keys = [(anchor, anchor_slot, slot) for anchor in anchors
            for anchor_slot in _SLOTS for slot in _SLOTS if slot != anchor_slot]
    # outsiders: ids the store lacks (the root's ids outside the nested view
    # too) and ids no query has
    outsiders = st.lists(st.integers(min_value=0, max_value=len(texts) + 2))
    for store in (root, nested):
        ids = store.ids()
        # fewer than half of the members, so the train part derives its slot
        # counts from the store's, or any of them
        size = data.draw(st.sampled_from([(len(ids) - 1) // 2, len(ids)]))
        asked = data.draw(st.lists(st.sampled_from(ids), max_size=size)) + data.draw(outsiders)
        train, test = store.split(asked)

        # ids has no repeats, so the parts are disjoint too
        assert sorted(train.ids() + test.ids()) == ids
        direct = store.subset(asked)
        assert test.ids() == direct.ids() and test.queries == direct.queries
        assert train.rejected_count == test.rejected_count == 0
        assert (train._parent is store) == (2 * len(train) > len(store))
        train_direct = store.subset(train.ids())
        for key in keys:
            expected = scanned_slot_counts(train, *key)
            assert train.slot_counts(*key) == expected
            assert train_direct.slot_counts(*key) == expected
            assert test.slot_counts(*key) == scanned_slot_counts(test, *key)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_query_texts)
def test_postings_are_strictly_ascending_tuples(data, texts):
    store = _shuffled_store(data, texts)
    for posting in store.term_index.values():
        assert type(posting) is tuple
        assert all(a < b for a, b in zip(posting, posting[1:]))
    assert store.term_index == _scanned_index(store)


def _filter_oracle(store, terms):
    """Oracle: the sorted intersection of the members with each term's
    holders, by a linear scan of the members' patterns."""
    held = set(store.ids())
    for term in terms:
        held &= {q.id for q in store.queries if term in oracle.term_set(q.patterns)}
    return sorted(held)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=_query_texts)
def test_filter_matches_intersection_oracle_on_roots_and_views(data, texts):
    root = _shuffled_store(data, texts)
    ids = root.ids()
    asked = data.draw(st.lists(st.sampled_from(ids)))
    sub = root.subset(asked)
    nested = sub.subset(data.draw(st.lists(st.sampled_from(ids))))
    stores = (root, root.subset(ids), sub, nested) + root.split(asked) + sub.split(asked[::2])
    vocab = sorted(root.term_index, key=lambda t: t.sort_key()) + [iri("D")]
    for size in (1, 2, 3):
        terms = data.draw(st.lists(st.sampled_from(vocab), min_size=size, max_size=size))
        for store in stores:
            assert store.filter(terms) == _filter_oracle(store, terms)


def test_graphs_of_a_store_and_its_views_share_steps_and_hop_tuples():
    store = store_from_texts([
        "SELECT * WHERE {?x a Person. ?x advisor <Ann>}",
        "SELECT * WHERE {?z a Person. ?z advisor <Ann>. <Ann> name ?n}",
    ])
    first, second = store.graph(0), store.subset([1]).graph(1)
    person, ann = iri("Person"), iri("Ann")
    assert first._hops[person] is second._hops[person]
    assert first._hops[ann][0] is second._hops[ann][0]
    assert first.edges[0] is second.edges[0]
    assert first._hops[ann] != second._hops[ann]


def test_subset_view_shares_root_index_and_memos(university_store):
    sub = university_store.subset([1, 3]).subset([3])
    assert sub.term_index is university_store.term_index
    assert sub._by_id is university_store._by_id
    assert sub.graph(3) is university_store.graph(3)


@settings(max_examples=200, deadline=None)
@given(texts=_query_texts)
@example(texts=["SELECT * WHERE {?x a B . ?x a A . ?x p ?y . ?y a C . ?y a A}"])
@example(texts=["SELECT * WHERE {?x a C . ?x a B . ?x a ?y . ?y a A}"])
def test_node_terms_match_collapsed_graph(texts):
    # node terms skip type collapse; the collapsed graph must have the same
    # concrete nodes (by the oracle), and its edges end at no other
    store = store_from_texts(texts)
    for qid in store.ids():
        nodes = store.node_terms(qid)
        assert nodes == oracle.collapse(store.query(qid).patterns)[0]
        ends = {t for e in store.graph(qid).edges for t in (e.subject, e.object)}
        assert {t for t in ends if t.concrete} <= nodes


# -- term table ----------------------------------------------------------------

_SPELLINGS_LOG = (
    "PREFIX ex: <http://ex.org/> SELECT * WHERE { <http://ex.org/A> ex:p ?x . ?x ex:q \"v\"@en }\n"
    "PREFIX ex: <http://ex.org/> SELECT * WHERE { ex:A ex:q \"5\"^^ex:int . ?x ex:p ex:int }\n"
    "SELECT * WHERE { A p ?x . ?x q \"v\"@en . _:b p A . ?y ?x 7 }\n"
    "SELECT * WHERE { A p 7 . _:b q ?y }\n"
)


def test_load_builds_each_distinct_term_once(tmp_path, monkeypatch):
    from isummary.terms import Term

    path = tmp_path / "log.txt"
    path.write_text(_SPELLINGS_LOG, encoding="utf-8")
    built = []
    new = Term.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Term, "__new__", counting)
    store = load_workload(path, format="raw-lines", base_prefix="http://ex.org/")
    spelled = {t for q in store.queries for p in q.patterns for t in p.terms()}
    assert len(store) == 4
    assert len(built) == len(spelled) == 10


def test_load_shares_one_object_per_iri_across_spellings(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(_SPELLINGS_LOG, encoding="utf-8")
    store = load_workload(path, format="raw-lines", base_prefix="http://ex.org/")
    a_ref, a_prefixed, a_bare = (store.query(i).patterns[0].subject for i in (0, 1, 2))
    assert a_ref == iri("http://ex.org/A")
    assert a_ref is a_prefixed is a_bare is store.query(3).patterns[0].subject
    # without a table the parser still returns equal terms
    alone = [parse_query(line, base_prefix="http://ex.org/")
             for line in _SPELLINGS_LOG.splitlines()]
    assert [q.patterns for q in alone] == [q.patterns for q in store.queries]


@pytest.mark.parametrize("order", [1, -1])
def test_load_keeps_one_rdf_type_object_across_spellings(tmp_path, order):
    # ``a`` and both spellings of its IRI denote one term: one object per load
    lines = [
        "SELECT ?x WHERE { ?x a <C> }",
        "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <D> }",
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
        "SELECT ?x WHERE { ?x rdf:type <E> }",
        "SELECT ?x WHERE { ?x a <F> }",
    ][::order]
    path = tmp_path / "log.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    store = load_workload(path, format="raw-lines")
    first, *others = (q.patterns[0].predicate for q in store.queries)
    assert first == RDF_TYPE
    assert all(predicate is first for predicate in others)


def test_negative_tsv_column_rejected(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("1\tSELECT ?x WHERE {?x a Person}\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_workload(path, format="tsv", tsv_column=-1)
