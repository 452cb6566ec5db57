import pytest

from isummary.parser import ParsedQuery
from isummary.query_graph import FORWARD, PathSignature, Step
from isummary.terms import (
    RDF_TYPE,
    Term,
    TriplePattern,
    blank,
    iri,
    literal,
    variable,
)


def test_structural_equality():
    assert iri("Person") == iri("Person")
    assert iri("Person") != literal("Person")
    assert literal("5", "http://www.w3.org/2001/XMLSchema#int") != literal("5")
    assert variable("x") == variable("x")


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        iri("has space")
    with pytest.raises(ValueError):
        iri("")


def test_variable_name_rules():
    variable("x_1")
    with pytest.raises(ValueError):
        variable("1x")
    with pytest.raises(ValueError):
        variable("")


def test_datatype_only_on_literals():
    with pytest.raises(ValueError):
        Term("iri", "x", "http://dt")
    literal("x", "@en")


def test_concrete_flag():
    assert iri("a").concrete
    assert literal("a").concrete
    assert blank("b").concrete
    assert not variable("v").concrete


def test_sort_key_orders_iri_before_literal():
    # the tie-break rule: kind first, so <Professor> sorts before "FORTH"
    assert iri("Professor").sort_key() < literal("FORTH").sort_key()


def test_sparql_rendering():
    assert iri("Person").to_sparql() == "<Person>"
    assert variable("x").to_sparql() == "?x"
    assert blank("u0").to_sparql() == "_:u0"
    assert literal("FORTH").to_sparql() == '"FORTH"'
    assert literal("hi", "@en").to_sparql() == '"hi"@en'
    assert literal("5", "http://dt").to_sparql() == '"5"^^<http://dt>'
    assert literal('a"b\\c\nd').to_sparql() == '"a\\"b\\\\c\\nd"'


def test_ntriples_rejects_variables():
    with pytest.raises(ValueError):
        variable("x").to_ntriples()


def test_json_round_trip():
    for term in (iri("x"), literal("v", "@en"), literal("5", "http://dt"), blank("b")):
        obj = term.to_json()
        assert Term(obj["kind"], obj["lexical"], obj["datatypeOrLang"]) == term


def test_pattern_membership():
    with pytest.raises(ValueError):
        TriplePattern(literal("x"), iri("p"), iri("y"))
    with pytest.raises(ValueError):
        TriplePattern(iri("x"), literal("p"), iri("y"))
    with pytest.raises(ValueError):
        TriplePattern(iri("x"), blank("p"), iri("y"))
    TriplePattern(blank("b"), variable("p"), literal("v"))


def test_pattern_is_a_tuple_of_its_terms():
    s, p, o = iri("x"), iri("p"), literal("v")
    pattern = TriplePattern(s, p, o)
    assert hash(pattern) == hash((s, p, o))
    assert pattern == (s, p, o) and pattern.terms() == (s, p, o)
    assert (pattern.subject, pattern.predicate, pattern.object) == (s, p, o)
    with pytest.raises(AttributeError):
        pattern.extra = 1


def test_terms_queries_and_signatures_are_tuples_of_their_fields():
    term = literal("v", "@en")
    query = ParsedQuery(3, (TriplePattern(iri("x"), iri("p"), term),), 4)
    signature = PathSignature((Step(iri("p"), FORWARD, term),), (iri("x"), term))
    for value, fields in (
        (term, ("literal", "v", "@en")),
        (query, (3, query.patterns, 4)),
        (signature, (signature.steps, signature.endpoints)),
    ):
        assert value == fields and hash(value) == hash(fields)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            value.__dict__
    with pytest.raises(AttributeError):
        term.lexical = "w"


def test_pattern_ntriples_line():
    pattern = TriplePattern(iri("Organization"), iri("affiliatedOf"), iri("Person"))
    assert pattern.to_ntriples() == "<Organization> <affiliatedOf> <Person> ."


def test_rdf_type_constant():
    assert RDF_TYPE.lexical.endswith("#type")
