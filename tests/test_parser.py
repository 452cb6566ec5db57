import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isummary.parser import (
    END,
    ParseError,
    _fast_patterns,
    _TERM_KEYWORDS,
    _Parser,
    _read_term,
    _tokenize,
    parse_query,
    parse_term,
)
from isummary.terms import RDF_TYPE, Term, TriplePattern, iri, literal, variable

from conftest import oracle_read_term
from test_acceptance import _conformance_corpus


def patterns_of(text, **kwargs):
    return parse_query(text, **kwargs).patterns


def test_example_query_q1():
    patterns = patterns_of(
        "SELECT ?x ?y WHERE {?x a Person. ?y a Professor. ?x advisor ?y.}"
    )
    assert len(patterns) == 3
    assert patterns[2] == TriplePattern(variable("x"), iri("advisor"), variable("y"))
    assert patterns[0] == TriplePattern(variable("x"), RDF_TYPE, iri("Person"))


def test_example_query_q4():
    patterns = patterns_of("SELECT ?y WHERE {?y a Organization.}")
    assert patterns == (TriplePattern(variable("y"), RDF_TYPE, iri("Organization")),)


def test_property_path_rejected():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x WHERE {?x <p>+ ?y}")
    assert "property path" in exc.value.reason


def test_parse_error_carries_byte_offset():
    text = "SELECT ?x WHERE {?x <p>/<q> ?y}"
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert exc.value.offset == text.index("/")


def test_prefix_expansion():
    patterns = patterns_of(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        "SELECT ?x WHERE {?x foaf:name ?n.}"
    )
    assert patterns[0].predicate == iri("http://xmlns.com/foaf/0.1/name")


def test_default_prefix():
    patterns = patterns_of("PREFIX : <http://ex.org/> SELECT ?x WHERE {?x :p :o}")
    assert patterns[0].predicate == iri("http://ex.org/p")
    assert patterns[0].object == iri("http://ex.org/o")


def test_empty_prefix_iri_rejected():
    # a prefixed name that expands to nothing is an empty IRI, not a crash
    for text in (
        "PREFIX e: <> SELECT * WHERE { e: <p> <o> }",
        'PREFIX e: <> SELECT * WHERE { <s> <p> "5"^^e: }',
    ):
        with pytest.raises(ParseError) as exc:
            parse_query(text)
        assert exc.value.reason == "empty IRI"


# U+00A0 and U+2003 pass the IRIREF token but not a Term's IRI check; the
# marker is the token the error must point at
_MALFORMED_IRIS = [
    ("SELECT * WHERE { <http://a\u00a0b> <p> ?x }", "<http://a"),
    ('SELECT * WHERE { ?x <p> "v"^^<http://t\u2003y> }', "<http://t"),
    ("PREFIX ex: <http://a\u00a0b/> SELECT * WHERE { ex:A <p> ?x }", "ex:A"),
    ("SELECT * WHERE { <s> <p> \"v\" ; <p\u2003q> ?x }", "<p\u2003"),
]


@pytest.mark.parametrize("text,marker", _MALFORMED_IRIS,
                         ids=["iri", "datatype", "prefixed-name", "predicate"])
def test_malformed_iri_is_parse_error_at_its_token(text, marker):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert exc.value.reason.startswith("malformed IRI")
    assert exc.value.offset == len(text[:text.index(marker)].encode("utf-8"))


def test_malformed_iri_in_parse_term_is_parse_error():
    with pytest.raises(ParseError):
        parse_term("Person", base_prefix="http://a b/")
    with pytest.raises(ParseError):
        parse_term("<http://a\u00a0b>")


def test_unknown_prefix_rejected():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x WHERE {?x foaf:name ?n}")
    assert "unknown prefix" in exc.value.reason


def test_base_prefix_applies_to_bare_names():
    patterns = patterns_of(
        "SELECT ?x WHERE {?x a Person}", base_prefix="http://ex.org/"
    )
    assert patterns[0].object == iri("http://ex.org/Person")


def test_literals_with_lang_and_datatype():
    patterns = patterns_of(
        'SELECT ?x WHERE {?x p "hi"@en. ?x q "5"^^<http://dt>. ?x r \'single\'}'
    )
    assert patterns[0].object == literal("hi", "@en")
    assert patterns[1].object == literal("5", "http://dt")
    assert patterns[2].object == literal("single")


def test_numeric_literal():
    patterns = patterns_of("SELECT ?x WHERE {?x p 42}")
    assert patterns[0].object == literal("42")


def test_string_escapes_decoded():
    patterns = patterns_of('SELECT ?x WHERE {?x p "a\\"b\\nc"}')
    assert patterns[0].object == literal('a"b\nc')


def test_optional_flattened():
    patterns = patterns_of(
        "SELECT ?x WHERE {?x a Person. OPTIONAL {?x knows ?y. ?y a Person.}}"
    )
    assert len(patterns) == 3


def test_union_flattened():
    patterns = patterns_of(
        "SELECT ?x WHERE {{?x a Person} UNION {?x a Robot} UNION {?x a Alien}}"
    )
    assert len(patterns) == 3
    assert {p.object for p in patterns} == {iri("Person"), iri("Robot"), iri("Alien")}


def test_filter_skipped():
    patterns = patterns_of(
        'SELECT ?x WHERE {?x age ?a. FILTER (?a > 30). ?x a Person.}'
    )
    assert len(patterns) == 2
    patterns = patterns_of(
        'SELECT ?x WHERE {?x name ?n. FILTER regex(?n, "^A", "i")}'
    )
    assert len(patterns) == 1


def test_filter_exists_skipped():
    patterns = patterns_of(
        "SELECT ?x WHERE {?x a Person. FILTER EXISTS {?x knows ?y}}"
    )
    assert len(patterns) == 1


# SPARQL 1.1 §19.8 (GroupGraphPatternSub): a '.' closes a triples block before
# the next one, and a term keyword is no term in any position, predicate
# included; offsets count from the start of the whole text
@pytest.mark.parametrize("group,reason,offset", [
    ("?s <p> ?o ?t <q> ?u", "expected '.'", 27),
    ("?s FILTER ?o", "unsupported construct: FILTER", 20),
    ("?s SELECT ?o", "unsupported construct: SELECT", 20),
    ("?s <p> ?o BIND(1)", "unsupported construct: BIND", 27),
    ("?s a/<p> ?o", "property paths are not supported", 21),
    ("?s a* ?o", "property paths are not supported", 21),
    (". ?s <p> ?o . .", "unexpected '.'", 17),
    ("?s <p> ?o . .", "unexpected '.'", 29),
    ("FILTER(?o) . . ?s <p> ?o", "unexpected '.'", 30),
    ("?s <p> ?o OPTIONAL { ?s <q> ?u } UNION { ?s <r> ?v }",
     "UNION without a preceding group", 50),
    ('"l" <p> ?o , ?u', "triple subject cannot be a literal", 17),
], ids=["unclosed-block", "filter-predicate", "select-predicate", "keyword-before-dot",
        "path-after-a", "star-after-a", "leading-dot", "second-dot-after-block",
        "second-dot-after-filter", "union-after-optional", "literal-subject"])
def test_group_rejects_at_the_offending_token(group, reason, offset):
    with pytest.raises(ParseError) as exc:
        parse_query(f"SELECT * WHERE {{ {group} }}")
    assert (exc.value.reason, exc.value.offset) == (reason, offset)


# ... but after FILTER, OPTIONAL or a nested group the '.' may be left out
@pytest.mark.parametrize("group,count", [
    ("?s <p> ?o FILTER(?o) ?t <q> ?u", 2),
    ("?s <p> ?o OPTIONAL { ?s <q> ?u } ?t <r> ?v", 3),
    ("{ ?s <p> ?o } ?t <q> ?u", 2),
], ids=["filter", "optional", "nested-group"])
def test_triples_block_needs_no_dot_after_a_non_triples_pattern(group, count):
    assert len(patterns_of(f"SELECT * WHERE {{ {group} }}")) == count


# one '.' may follow each triples block, FILTER, OPTIONAL or group; OPTIONAL
# takes one group, which may hold a UNION
@pytest.mark.parametrize("group,count", [
    ("?s <p> ?o ; .", 1),
    ("FILTER(?o) . ?s <p> ?o", 1),
    ("OPTIONAL { ?s <p> ?o } . ?s <q> ?u .", 2),
    ("OPTIONAL { { ?s <p> ?o } UNION { ?s <q> ?u } }", 2),
    ("{ ?s <p> ?o } UNION { ?s <q> ?u } . ?s <r> ?v", 3),
], ids=["after-dangling-semicolon", "after-filter", "after-optional",
        "union-inside-optional", "after-union"])
def test_group_accepts_one_dot_after_each_pattern(group, count):
    assert len(patterns_of(f"SELECT * WHERE {{ {group} }}")) == count


def test_subquery_rejected():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x WHERE {{SELECT ?x WHERE {?x a Person}}}")
    assert "subquer" in exc.value.reason


def test_deep_nesting_rejected():
    depth = 2000
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT * WHERE " + "{" * depth + " ?s ?p ?o " + "}" * depth)
    assert exc.value.reason == "group nesting too deep"


def test_moderate_nesting_flattened():
    depth = 50
    patterns = patterns_of("SELECT * WHERE " + "{" * depth + " ?s p ?o " + "}" * depth)
    assert patterns == (TriplePattern(variable("s"), iri("p"), variable("o")),)


def test_semicolon_and_comma_sugar():
    patterns = patterns_of("SELECT ?x WHERE {?x a Person; knows ?y, ?z.}")
    assert len(patterns) == 3
    assert patterns[1].subject == patterns[2].subject == variable("x")
    assert patterns[2].object == variable("z")


def test_blank_node_terms():
    patterns = patterns_of("SELECT ?x WHERE {_:b knows ?x}")
    assert patterns[0].subject == Term("blank", "b")


def test_select_star_and_distinct():
    assert len(patterns_of("SELECT * WHERE {?x a Person}")) == 1
    assert len(patterns_of("SELECT DISTINCT ?x WHERE {?x a Person}")) == 1


def test_limit_offset_tolerated():
    assert len(patterns_of("SELECT ?x WHERE {?x a Person} LIMIT 10 OFFSET 5")) == 1


def test_unsupported_keywords_rejected():
    for text in (
        "SELECT ?x WHERE {?x a Person} ORDER BY ?x",
        "SELECT ?x WHERE {BIND(1 AS ?x)}",
        "SELECT ?x WHERE {?x a Person. MINUS {?x a Robot}}",
        "ASK {?x a Person}",
        "SELECT ?x WHERE {?x a Person. SERVICE <http://e> {?x p ?y}}",
    ):
        with pytest.raises(ParseError):
            parse_query(text)


def test_empty_bgp_rejected():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x WHERE {}")
    assert "empty" in exc.value.reason


def test_literal_subject_rejected():
    with pytest.raises(ParseError):
        parse_query('SELECT ?x WHERE {"lit" p ?x}')


def test_parse_term_forms():
    assert parse_term("Person") == iri("Person")
    assert parse_term("<http://ex/P>") == iri("http://ex/P")
    assert parse_term('"FORTH"') == literal("FORTH")
    assert parse_term("Person", base_prefix="http://ex/") == iri("http://ex/Person")
    with pytest.raises(ParseError):
        parse_term("Person extra")


# -- the one-term reader against its oracle ------------------------------------

def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda lower: "".join(c.lower() if flip else c for c, flip in zip(word, lower)))


# the piece's first token; each alphabet also holds characters the token excludes
_term_heads = st.one_of(
    st.text(alphabet='ab:/#.-\u00a0\u2003 "<>{}|^`\\', max_size=6).map(lambda body: f"<{body}>"),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,5}", fullmatch=True),
    st.from_regex(r"([A-Za-z_][A-Za-z0-9_]{0,3})?:[A-Za-z0-9_\-]{0,4}", fullmatch=True),
    st.sampled_from(sorted(_TERM_KEYWORDS) + ["a", "DISTINCT", "LIMIT", "EXISTS"]).flatmap(_any_case),
    st.from_regex(r"[?$][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"_:?[A-Za-z0-9_\-]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,2})?", fullmatch=True),
    st.builds(lambda quote, body, close, suffix: quote + body + (quote if close else "") + suffix,
              st.sampled_from('"\''),
              st.lists(st.sampled_from(("a", "b", " ", "a", "b", "\\n", '\\"', "\\'", "\\q",
                                        '"', "'", "\n")), max_size=5).map("".join),
              st.booleans(), st.sampled_from(("", "", "@en", "@en-GB", "^^<http://dt>",
                                              "^^<a\u00a0b>", "^^xsd:int", "^^<>", "^^a"))),
    st.sampled_from(("", " ", "*", "{", "(", "@en", "^^", "/", "|", "%", "\\")),
)
# what may follow it: a language tag, a datatype, glued punctuation, more tokens
_term_tails = st.one_of(st.just(""), st.lists(st.sampled_from((
    "@en", "@en-GB", "@", "^^", "^^<http://dt>", "^^<>", "^^xsd:int", "^^ex:", "^^int",
    "^^?x", ".", ";", ",", "}", ")", " ", "\t", " x", "?o", "<p>", '"s"',
)), min_size=1, max_size=2).map("".join))


@settings(max_examples=500)
@example(["<a>.", "?x;", "_:b,", '"v"@en.', '"5"^^<http://dt>;', '"5"^^xsd:int'], None)
@example(["Person", "<http://a\u00a0b>", "<a b>", "Select", "uNiOn", "a", " ?x \n", ""],
         "http://ex.org/")
@example(['"a\\qb"', '"a\\"b"', "'it\\'s'", '"x"^^', '"x"^^"y"', "$1", "_:", "3.", "e:"],
         "http://ex.org/>")
@given(st.lists(st.builds(lambda lead, head, tail: lead + head + tail,
                          st.sampled_from(("",) * 6 + (" ", "\n")), _term_heads, _term_tails),
                min_size=1, max_size=8),
       st.sampled_from((None, "", "http://ex.org/", "http://ex.org/>")))
def test_term_reader_matches_the_per_token_parser_oracle(pieces, base_prefix):
    """`_read_term` reads a piece as `oracle_read_term` does, a full parser
    built per piece: the same interned object from a shared table, or a
    ParseError with the same reason and offset."""

    def outcome(read):
        try:
            return read()
        except ParseError as exc:
            return exc.reason, exc.offset

    shared = {}
    for piece in pieces:
        expected = outcome(lambda: oracle_read_term(piece, base_prefix, shared))
        got = outcome(lambda: _read_term(piece, base_prefix, shared))
        assert got is expected if isinstance(expected, Term) else got == expected
        assert outcome(lambda: parse_term(piece, base_prefix)) == expected


# -- round-trip property -----------------------------------------------------

_iris = st.from_regex(r"[A-Za-z][A-Za-z0-9_:/#.\-~%]{0,20}", fullmatch=True).map(iri)
_variables = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).map(variable)
_blanks = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True).map(
    lambda s: Term("blank", s)
)
_literals = st.builds(
    literal,
    st.text(min_size=0, max_size=12),
    st.one_of(
        st.none(),
        st.from_regex(r"@[a-z]{2}", fullmatch=True),
        st.from_regex(r"[A-Za-z][A-Za-z0-9:/#.\-]{0,15}", fullmatch=True),
    ),
)

_subjects = st.one_of(_iris, _blanks, _variables)
_predicates = st.one_of(_iris, _variables)
_objects = st.one_of(_iris, _blanks, _variables, _literals)
_patterns = st.builds(TriplePattern, _subjects, _predicates, _objects)


def canonical_text(patterns):
    """The patterns as one query text, each in SPARQL surface syntax."""
    return "SELECT * WHERE { " + " . ".join(p.to_sparql() for p in patterns) + " }"


@settings(max_examples=200)
@given(st.lists(_patterns, min_size=1, max_size=5))
def test_canonical_round_trip(patterns):
    assert parse_query(canonical_text(patterns)).patterns == tuple(patterns)


# -- fuzz property --------------------------------------------------------------

_SOUP_PROLOGUES = (
    "", "SELECT * WHERE {", "PREFIX e: <> SELECT * WHERE {",
    "PREFIX : <http://ex/> SELECT ?x WHERE {",
)
_SOUP_TOKENS = (
    "PREFIX", "PREFIX e: <>", "PREFIX : <http://ex/>", "e:", "e:x", ":", ":o", "<>",
    "<http://ex/p>", "SELECT", "DISTINCT", "*", "WHERE", "?x", "$y", "_:b", "a", "Person",
    "42", "3.5", '"lit"', "'s'", '"lit"@en', "@en", '"5"^^e:', '"5"^^<http://dt>',
    "^^", "^^e:x", "{", "}", "(", ")", ".", ";", ",", "/", "|", "+", "^", "!", "?",
    "OPTIONAL", "UNION", "FILTER", "EXISTS", "NOT", "LIMIT", "OFFSET", "ORDER", "\\", '"',
    "<http://a\u00a0b>",
)


@settings(max_examples=300)
@given(
    st.sampled_from(_SOUP_PROLOGUES),
    st.lists(st.tuples(st.sampled_from(_SOUP_TOKENS), st.sampled_from((" ", "", "\n"))),
             max_size=25),
)
def test_token_soup_parses_or_raises_parse_error(prologue, soup):
    text = prologue + "".join(token + sep for token, sep in soup)
    try:
        parsed = parse_query(text)
    except ParseError:
        return
    assert parsed.patterns



# whitespace that the IRIREF token accepts (it excludes only up to U+0020)
_UNICODE_SPACES = "\u0085\u00a0\u1680\u2003\u2028\u3000"
_spaced_iris = st.text(alphabet="ab:/" + _UNICODE_SPACES, min_size=1, max_size=6).map(
    lambda body: f"<{body}>")


@settings(max_examples=300)
@given(
    _spaced_iris,
    st.lists(st.one_of(_spaced_iris, st.sampled_from(_SOUP_TOKENS + ("u:", "u:x", '"v"^^u:'))),
             max_size=12),
)
def test_unicode_whitespace_soup_parses_or_raises_parse_error(prefix_iri, soup):
    text = f"PREFIX u: {prefix_iri} SELECT * WHERE {{ " + " ".join(soup)
    try:
        parsed = parse_query(text)
    except ParseError:
        return
    assert parsed.patterns


def _outcome(text, intern):
    try:
        return parse_query(text, intern=intern).patterns
    except ParseError as exc:
        return (exc.reason, exc.offset, str(exc))


_soup_texts = st.builds(
    lambda prologue, soup: prologue + "".join(token + sep for token, sep in soup),
    st.sampled_from(_SOUP_PROLOGUES),
    st.lists(st.tuples(st.sampled_from(_SOUP_TOKENS), st.sampled_from((" ", "", "\n"))),
             max_size=12),
)


@settings(max_examples=200)
@given(st.lists(st.one_of(_soup_texts, st.sampled_from((
    "SELECT * WHERE { ?x a Person . ?x <p> \"v\" }", "SELECT * WHERE { ?x a Person }",
)))))
def test_intern_table_parses_each_text_as_without_one(texts):
    table = {}
    for text in texts + texts:
        shared = _outcome(text, table)
        assert shared == _outcome(text, None)
        if isinstance(shared, tuple) and shared and isinstance(shared[0], TriplePattern):
            assert shared is _outcome(text, table)
            assert all(p is table[tuple(p)] for p in shared)
    # a rejected text is parsed again at each occurrence: the table keeps no rejection
    assert not any(isinstance(v, ParseError) for v in table.values())


def test_long_whitespace_runs_tokenize_in_linear_time():
    # a token regex that folds whitespace in front of each token rescans a
    # trailing run from each of its positions: minutes for this text
    pad = " " * 100_000
    start = time.perf_counter()
    patterns = patterns_of(pad + "SELECT * WHERE { ?s <p> ?o }" + pad + "\t" + pad)
    assert time.perf_counter() - start < 2.0
    assert len(patterns) == 1

# -- tokenizer oracle ---------------------------------------------------------

# The tokenizer as it was when every whitespace run was a token of its own and
# every token an object: the new tokens must equal its non-WS ones.
_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<BLANK>_:[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<DTSEP>\^\^)
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
  | (?P<NAME>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?|[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<PUNCT>[{}().;,*])
  | (?P<PATHOP>[/|^+!?])
  | (?P<OTHER>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _OracleToken:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _oracle_tokenize(text):
    tokens = []
    for m in _ORACLE_TOKEN_RE.finditer(text):
        if m.lastgroup == "WS":
            continue
        tokens.append(_OracleToken(m.lastgroup, m.group(), m.start()))
    return tokens


_TOKEN_FRAGMENTS = _SOUP_TOKENS + (
    "<http://ex/é>", '"héllo wörld"', "'日本語'", "ü", "日本", "e:naïve", "?ß", "@en-GB",
    '"unterminated', "'half", '"esc\\"aped"', '"line\nbreak"', "<open", "open>", "<a b>",
    "#", "%", "~", "&", "=", "[", "]", "`", "\x00", "-", "_", "_:", "$", "1.", ".5", "\u2028",
)
_WHITESPACE = st.text(st.sampled_from(" \t\n\r\u00a0\x0b\x0c"), max_size=4)


@settings(max_examples=500)
@given(st.lists(st.tuples(_WHITESPACE, st.sampled_from(_TOKEN_FRAGMENTS)), max_size=30),
       _WHITESPACE)
def test_tokenizer_matches_oracle(pieces, trailing):
    text = "".join(ws + fragment for ws, fragment in pieces) + trailing
    expected = [(t.kind, t.value, t.pos) for t in _oracle_tokenize(text)]
    assert _tokenize(text) == expected + [(END, "", len(text))]


# -- fast path oracle -----------------------------------------------------------

# the keywords a bare name in a term position may not spell, in upper case
_TERM_POSITION_KEYWORDS = {
    "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "MINUS", "BIND", "VALUES", "GRAPH", "SERVICE",
    "ORDER", "GROUP", "HAVING", "INSERT", "DELETE", "SELECT", "WHERE", "PREFIX", "FILTER",
    "OPTIONAL", "UNION",
}
# a string body whose every backslash starts one of the escapes the grammar decodes
_VALID_ESCAPES = re.compile(r"""(?:[^\\]|\\[\\"'ntr])*""", re.DOTALL)
_PLAIN_SHAPE = re.compile(r"Sv+W\{(?:[viab][via][vilab]\.)*[viab][via][vilab]\.?\}")


def _chunk_symbol(chunk):
    """One symbol for a run of tokens with no whitespace between them:
    ``S``, ``W`` or ``a`` for those words, ``v`` a variable, ``i`` an IRI
    (a non-empty ``<…>`` or a bare name that is no term keyword), ``b`` a
    blank node, ``l`` a literal, a lone punctuation mark itself, else ``x``."""
    kinds = tuple(kind for kind, _ in chunk)
    value = chunk[0][1]
    if kinds == ("NAME",):
        if value in ("SELECT", "WHERE", "a"):
            return value[0]
        return "x" if ":" in value or value.upper() in _TERM_POSITION_KEYWORDS else "i"
    if kinds == ("IRIREF",):
        return "x" if value == "<>" else "i"
    if kinds == ("VAR",):
        return "v"
    if kinds == ("BLANK",):
        return "b"
    if kinds == ("NUMBER",):
        return "l"
    if kinds == ("PUNCT",):
        return value
    if (kinds[0] == "STRING" and _VALID_ESCAPES.fullmatch(value[1:-1])
            and (kinds in (("STRING",), ("STRING", "LANGTAG"))
                 or kinds == ("STRING", "DTSEP", "IRIREF") and chunk[2][1] != "<>")):
        return "l"
    return "x"


def _plain_shape(text):
    """Oracle of the texts the fast path takes, from the tokenizer's tokens:
    no whitespace inside a token, and the runs of tokens between whitespace
    spell ``SELECT``, variables, ``WHERE {``, then triples split by ``.``
    with an optional last one, then ``}``.  Each subject or object is one
    run that reads as a whole term (no term keyword, no prefixed name, only
    valid escapes), the subject no literal; each predicate is ``a`` or one
    IRI or variable."""
    tokens = _tokenize(text)[:-1]
    if any(c.isspace() for _, value, _ in tokens for c in value):
        return False
    chunks = []
    end = None
    for kind, value, start in tokens:
        if start == end:
            chunks[-1].append((kind, value))
        else:
            chunks.append([(kind, value)])
        end = start + len(value)
    return bool(_PLAIN_SHAPE.fullmatch("".join(map(_chunk_symbol, chunks))))


def _full_outcome(text, base_prefix):
    try:
        return _Parser(text, base_prefix).parse()
    except ParseError:
        return None


# the soup's tokens, keywords in several cases, and near misses of the plain shape
_FAST_PATH_TERMS = _SOUP_TOKENS + (
    "?v0", "?x.", "A", "p", "foo-bar", "_", "<p>", "<a<b>", '"v"', '""', '"a b"',
    '"a\\"b"', '"a\\nb"', "<u\u2003v>", "@en", "SELECT*{?s<p>?o}", "select", "Select",
    "where", "limit", "filter", "optional", "union", "Union", "distinct", "prefix",
    "CONSTRUCT", "ask", "Exists", "not", "offset", "Reduced", "GRAPH", "Bind",
    '"a\\qb"', "'a\\'b'", '"x"@en-GB', '"5"^^<>', '"5"^^xsd:int', "5.", "_:b.", "<p>?o",
)
_plain_subjects = st.sampled_from(
    ("?x", "$y", "<http://ex/p>", "Person", "foo-bar", "_", "A", '"v"', "_:b", "a", "limit",
     "Distinct", "42", "'s'", "_:b."))
_plain_objects = st.sampled_from(
    ("?x", "$y", "<http://ex/p>", "Person", "foo-bar", "_", "A", '"v"', '""', "a", "_:b",
     "42", "3.5", "'s'", '"x"@en', '"5"^^<http://dt>', '"a\\"b\\n"', "limit", "?o."))


def _edited(plain, edits):
    """``plain``'s tokens with each edit's token put in place of, or in
    front of, the token at its index (modulo the length, the end included)."""
    tokens = list(plain)
    for index, token, replace in edits:
        index %= len(tokens) + 1
        tokens[index:index + replace] = [token]
    return tokens


# plain texts, then the same with one or two tokens replaced or inserted
_fast_path_tokens = st.builds(
    _edited,
    st.builds(
        lambda select, head, where, triples, last_dot: [
            select, *head, where, "{", *(token for triple in triples for token in (*triple, "."))
        ][:None if last_dot else -1] + ["}"],
        st.sampled_from(("SELECT",) * 6 + ("select", "Select")),
        st.lists(st.sampled_from(("?x", "$y", "?v0")), min_size=1, max_size=3),
        st.sampled_from(("WHERE",) * 6 + ("where", "Where")),
        st.lists(st.tuples(_plain_subjects, st.one_of(st.just("a"), _plain_subjects),
                           _plain_objects), min_size=1, max_size=4),
        st.booleans(),
    ),
    st.one_of(st.just(()), st.lists(st.tuples(
        st.integers(0, 30), st.one_of(st.sampled_from(_FAST_PATH_TERMS), _spaced_iris),
        st.booleans()), min_size=1, max_size=2)),
)
_fast_path_space = st.sampled_from((" ",) * 20 + ("\t", "\n  ", "", "\u00a0", "\u2003",
                                                  "\u2028", "\x0c", "\u3000"))
# each token takes the space after it; 30 is more than any drawn text has tokens
_edited_texts = st.builds(lambda tokens, spaces: "".join(t + w for t, w in zip(tokens, spaces)),
                          _fast_path_tokens, st.lists(_fast_path_space, min_size=30, max_size=30))
_fast_path_texts = st.one_of(
    _edited_texts,
    _edited_texts,
    _soup_texts,
    st.sampled_from([text for text, _ in _conformance_corpus()]),
)


@settings(max_examples=400)
@example(["SELECT*{?s<p>?o}", "SELECT ?o WHERE { SELECT*{?s<p>?o} <p> ?o }"], None)
@example(["SELECT ?x WHERE { ?x a Person } LIMIT 5"], None)
@example(["select ?x where { ?x a Person }"], None)
@example(['SELECT ?x WHERE { "v" <p> ?x }'], None)
@example(["SELECT ?x WHERE { a <p> limit . _:b a distinct . ?x <p> a }"], "http://ex.org/")
@example(["SELECT ?x WHERE { ?x <p> 42 . ?x <p> 'it\\'s' . ?x <p> \"a\\\"b\" }"], None)
@example(['SELECT ?x WHERE { ?x <p> "x"@en . ?x <p> "5"^^<http://dt> }'], None)
@example(["SELECT ?x WHERE { ?x <p> ?o. }", "SELECT ?x WHERE { ?x <p> \"a\\qb\" }"], None)
@example(['SELECT ?x WHERE { ?x <p> "5"^^xsd:int }', "SELECT ?x WHERE { ?x FILTER ?o }"], None)
@example(["SELECT ?x WHERE { ?x _:b ?o }", "SELECT ?x WHERE { 42 <p> ?o }"], None)
@given(st.lists(_fast_path_texts, min_size=1, max_size=6),
       st.sampled_from((None, "", "http://ex.org/")))
def test_fast_path_gives_up_or_returns_the_full_parsers_patterns(texts, base_prefix):
    shared = {}
    for text in texts:
        full = _full_outcome(text, base_prefix)
        for table in (shared, {}):
            fast = _fast_patterns(text, base_prefix, table)
            assert fast is None or fast == full
            # it takes exactly the plain shape, and builds the objects the full
            # parser finds in the same table
            assert (fast is not None) == _plain_shape(text)
            if fast is not None:
                again = _Parser(text, base_prefix, table).parse()
                assert all(mine is theirs for mine, theirs in zip(fast, again))
        # as in a load, each accepted text becomes a key of the shared table
        try:
            parse_query(text, base_prefix=base_prefix, intern=shared)
        except ParseError:
            pass


@pytest.mark.parametrize("text", [
    "SELECT ?x WHERE { a <p> limit . ?x a distinct . a ?x a }",
    "SELECT ?x WHERE { _:b <p> 42 . ?x <p> 3.5 }",
    "SELECT ?x WHERE { ?x <p> 'single' . ?x <p> \"esc\\\"aped\\n\" }",
    'SELECT ?x WHERE { ?x <p> "x"@en-GB . ?x <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> }',
], ids=["keyword-names", "blank-and-numbers", "quoted-strings", "glued-literals"])
@pytest.mark.parametrize("base_prefix", [None, "http://ex.org/"], ids=["no-base", "base"])
def test_fast_path_reads_every_token_the_full_parser_reads_as_one_term(text, base_prefix):
    table = {}
    fast = _fast_patterns(text, base_prefix, table)
    assert fast is not None
    full = _Parser(text, base_prefix, table).parse()
    assert fast == full
    assert all(mine is theirs for mine, theirs in zip(fast, full))
