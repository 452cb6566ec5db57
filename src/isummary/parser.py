"""Parser for the SELECT/BGP subset of SPARQL found in public query logs.

Accepted queries consist of optional PREFIX declarations, a SELECT clause
with a variable list or ``*``, and a brace-delimited block of dot-separated
triple patterns.  OPTIONAL and UNION blocks are flattened into the
surrounding pattern list, FILTER clauses are skipped, and property paths or
subqueries reject the whole query.  Bare names (the prefix-less style common
in textbook examples) parse as IRIs verbatim, optionally re-rooted under a
base prefix.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .terms import BLANK, IRI, LITERAL, RDF_TYPE, VARIABLE, Term, TriplePattern

_TOKEN_RE = re.compile(
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

# Constructs that are recognised but not part of the supported subset.
_REJECTED_KEYWORDS = {
    "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "MINUS", "BIND", "VALUES",
    "GRAPH", "SERVICE", "ORDER", "GROUP", "HAVING", "INSERT", "DELETE",
}

# Nested groups recurse once per '{'.  Deep nesting would exhaust the Python
# stack, and because nesting is flattened into one pattern list, a cap loses
# nothing a summary could use.
MAX_GROUP_DEPTH = 100

_STRING_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


class ParseError(Exception):
    """Raised for queries outside the supported subset; carries a byte offset."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (byte {offset})")
        self.reason = reason
        self.offset = offset


class ParsedQuery(NamedTuple):
    """One workload query: its triple patterns plus source metadata."""

    id: int
    patterns: tuple[TriplePattern, ...]
    source_line: int = 0


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text):
    # unknown characters become OTHER tokens: they are legal inside skipped
    # FILTER expressions and rejected wherever the grammar consumes them
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "WS":
            continue
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, base_prefix: str | None, intern: dict | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base_prefix = base_prefix or ""
        self.terms = {} if intern is None else intern
        self.depth = 0

    def _term(self, kind: str, lexical: str, extra: str | None = None) -> Term:
        # a Term is built, and validated, only for a key the table lacks
        key = (kind, lexical, extra)
        term = self.terms.get(key)
        if term is None:
            term = self.terms[key] = Term(kind, lexical, extra)
        return term

    # -- token plumbing ----------------------------------------------------

    def _error(self, reason, token=None):
        if token is None:
            token = self._peek()
        offset = _byte_offset(self.text, token.pos) if token else _byte_offset(self.text, len(self.text))
        raise ParseError(reason, offset)

    def _peek(self, ahead=0):
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def _advance(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of query", _byte_offset(self.text, len(self.text)))
        self.pos += 1
        return tok

    def _at_punct(self, ch):
        tok = self._peek()
        return tok is not None and tok.kind == "PUNCT" and tok.value == ch

    def _expect_punct(self, ch):
        tok = self._advance()
        if tok.kind != "PUNCT" or tok.value != ch:
            self._error(f"expected {ch!r}", tok)
        return tok

    def _at_keyword(self, *words):
        tok = self._peek()
        return tok is not None and tok.kind == "NAME" and tok.value.upper() in words

    # -- grammar -----------------------------------------------------------

    def parse(self) -> tuple[TriplePattern, ...]:
        self._parse_prologue()
        self._parse_select()
        if self._at_keyword("WHERE"):
            self._advance()
        open_tok = self._peek()
        self._expect_punct("{")
        patterns: list[TriplePattern] = []
        self._parse_group(patterns)
        self._parse_trailing_modifiers()
        if self._peek() is not None:
            self._error("trailing content after query")
        if not patterns:
            self._error("empty basic graph pattern", open_tok)
        return tuple(patterns)

    def _parse_prologue(self):
        while self._at_keyword("PREFIX"):
            self._advance()
            tok = self._advance()
            if tok.kind != "NAME" or ":" not in tok.value or not tok.value.endswith(":"):
                self._error("malformed PREFIX declaration", tok)
            name = tok.value[:-1]
            iri_tok = self._advance()
            if iri_tok.kind != "IRIREF":
                self._error("PREFIX requires an IRI", iri_tok)
            self.prefixes[name] = iri_tok.value[1:-1]
        if self._at_keyword(*_REJECTED_KEYWORDS):
            self._error(f"unsupported construct: {self._peek().value}")

    def _parse_select(self):
        if not self._at_keyword("SELECT"):
            self._error("expected SELECT")
        self._advance()
        if self._at_keyword("DISTINCT", "REDUCED"):
            self._advance()
        if self._at_punct("*"):
            self._advance()
            return
        saw_var = False
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "VAR":
                self._advance()
                saw_var = True
            else:
                break
        if not saw_var:
            self._error("SELECT needs a variable list or '*'")

    def _parse_trailing_modifiers(self):
        while self._at_keyword("LIMIT", "OFFSET"):
            self._advance()
            tok = self._advance()
            if tok.kind != "NUMBER":
                self._error("LIMIT/OFFSET require a number", tok)

    def _parse_group(self, patterns):
        """Parse the contents of a brace group (after '{'), flattening nested blocks."""
        while True:
            tok = self._peek()
            if tok is None:
                self._error("unterminated group")
            if tok.kind == "PUNCT" and tok.value == "}":
                self._advance()
                return
            if tok.kind == "PUNCT" and tok.value == ".":
                # separator dots after FILTER clauses or nested groups
                self._advance()
                continue
            if tok.kind == "PUNCT" and tok.value == "{":
                self._parse_nested_group(patterns)
                continue
            if tok.kind == "NAME":
                upper = tok.value.upper()
                if upper == "FILTER":
                    self._advance()
                    self._skip_filter()
                    continue
                if upper == "OPTIONAL":
                    self._advance()
                    self._parse_nested_group(patterns)
                    continue
                if upper == "SELECT":
                    self._error("subqueries are not supported", tok)
                if upper in _REJECTED_KEYWORDS:
                    self._error(f"unsupported construct: {tok.value}", tok)
                if upper == "UNION":
                    self._error("UNION without a preceding group", tok)
            self._parse_triples_block(patterns)

    def _parse_nested_group(self, patterns):
        """A '{ ... }' block, possibly chained with UNION; branches are flattened."""
        self.depth += 1
        if self.depth > MAX_GROUP_DEPTH:
            self._error("group nesting too deep")
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "PUNCT" or tok.value != "{":
                self._error("expected '{'")
            self._advance()
            nxt = self._peek()
            if nxt is not None and nxt.kind == "NAME" and nxt.value.upper() == "SELECT":
                self._error("subqueries are not supported", nxt)
            self._parse_group(patterns)
            if self._at_keyword("UNION"):
                self._advance()
                continue
            self.depth -= 1
            return

    def _parse_triples_block(self, patterns):
        subj_tok = self._peek()
        subject = self._parse_term()
        while True:
            predicate = self._parse_predicate()
            self._check_path_operator()
            obj = self._parse_term()
            self._append_pattern(patterns, subject, predicate, obj, subj_tok)
            while self._at_punct(","):
                self._advance()
                obj = self._parse_term()
                self._append_pattern(patterns, subject, predicate, obj, subj_tok)
            if self._at_punct(";"):
                self._advance()
                nxt = self._peek()
                # dangling ';' before '.', '}' or end of text is tolerated
                if nxt is None or (nxt.kind == "PUNCT" and nxt.value in ".}"):
                    break
                continue
            break
        if self._at_punct("."):
            self._advance()

    def _append_pattern(self, patterns, subject, predicate, obj, subj_tok):
        try:
            patterns.append(TriplePattern(subject, predicate, obj))
        except ValueError as exc:
            self._error(str(exc), subj_tok)

    def _parse_predicate(self) -> Term:
        tok = self._peek()
        if tok is None:
            self._error("expected predicate")
        if tok.kind == "PATHOP" or (tok.kind == "PUNCT" and tok.value in "(*"):
            self._error("property paths are not supported", tok)
        if tok.kind == "NAME" and tok.value == "a":
            self._advance()
            return RDF_TYPE
        if tok.kind == "VAR":
            self._advance()
            return self._term(VARIABLE, tok.value[1:])
        if tok.kind == "IRIREF":
            self._advance()
            return self._iri_from_ref(tok)
        if tok.kind == "NAME":
            self._advance()
            return self._term_from_name(tok)
        self._error("expected predicate", tok)

    def _check_path_operator(self):
        tok = self._peek()
        if tok is not None and (
            tok.kind == "PATHOP" or (tok.kind == "PUNCT" and tok.value == "*")
        ):
            self._error("property paths are not supported", tok)

    def _parse_term(self) -> Term:
        tok = self._advance()
        if tok.kind == "OTHER":
            self._error(f"unexpected character {tok.value!r}", tok)
        if tok.kind == "VAR":
            return self._term(VARIABLE, tok.value[1:])
        if tok.kind == "IRIREF":
            return self._iri_from_ref(tok)
        if tok.kind == "BLANK":
            return self._term(BLANK, tok.value[2:])
        if tok.kind == "NUMBER":
            return self._term(LITERAL, tok.value)
        if tok.kind == "STRING":
            return self._finish_literal(tok)
        if tok.kind == "NAME":
            if tok.value.upper() in _REJECTED_KEYWORDS or tok.value.upper() in (
                "FILTER", "OPTIONAL", "UNION", "SELECT", "WHERE", "PREFIX",
            ):
                self._error(f"unsupported construct: {tok.value}", tok)
            return self._term_from_name(tok)
        self._error("expected term", tok)

    def _iri_from_ref(self, tok) -> Term:
        inner = tok.value[1:-1]
        if not inner:
            self._error("empty IRI", tok)
        return self._term(IRI, inner)

    def _term_from_name(self, tok) -> Term:
        value = tok.value
        if ":" in value:
            prefix, _, local = value.partition(":")
            if prefix not in self.prefixes:
                self._error(f"unknown prefix {prefix + ':'!r}", tok)
            expanded = self.prefixes[prefix] + local
            if not expanded:
                self._error("empty IRI", tok)
            return self._term(IRI, expanded)
        return self._term(IRI, self.base_prefix + value)

    def _finish_literal(self, tok) -> Term:
        lexical = self._decode_string(tok)
        nxt = self._peek()
        if nxt is not None and nxt.kind == "LANGTAG":
            self._advance()
            return self._term(LITERAL, lexical, nxt.value)
        if nxt is not None and nxt.kind == "DTSEP":
            self._advance()
            dt_tok = self._advance()
            if dt_tok.kind == "IRIREF":
                dt = self._iri_from_ref(dt_tok)
            elif dt_tok.kind == "NAME" and ":" in dt_tok.value:
                dt = self._term_from_name(dt_tok)
            else:
                self._error("expected datatype IRI", dt_tok)
            return self._term(LITERAL, lexical, dt.lexical)
        return self._term(LITERAL, lexical)

    def _decode_string(self, tok) -> str:
        body = tok.value[1:-1]
        out = []
        i = 0
        while i < len(body):
            c = body[i]
            if c == "\\":
                if i + 1 >= len(body) or body[i + 1] not in _STRING_ESCAPES:
                    self._error("bad string escape", tok)
                out.append(_STRING_ESCAPES[body[i + 1]])
                i += 2
            else:
                out.append(c)
                i += 1
        return "".join(out)

    def _skip_filter(self):
        tok = self._peek()
        if tok is None:
            self._error("malformed FILTER")
        if tok.kind == "NAME" and tok.value.upper() in ("EXISTS", "NOT"):
            if tok.value.upper() == "NOT":
                self._advance()
                tok = self._peek()
                if tok is None or tok.kind != "NAME" or tok.value.upper() != "EXISTS":
                    self._error("malformed FILTER")
            self._advance()
            self._skip_balanced("{", "}")
            return
        if tok.kind == "NAME":
            self._advance()
            tok = self._peek()
        if tok is None or tok.kind != "PUNCT" or tok.value != "(":
            self._error("malformed FILTER")
        self._skip_balanced("(", ")")

    def _skip_balanced(self, open_ch, close_ch):
        tok = self._advance()
        if tok.kind != "PUNCT" or tok.value != open_ch:
            self._error(f"expected {open_ch!r}", tok)
        depth = 1
        while depth:
            tok = self._advance()
            if tok.kind == "PUNCT" and tok.value == open_ch:
                depth += 1
            elif tok.kind == "PUNCT" and tok.value == close_ch:
                depth -= 1


def parse_query(
    text: str,
    query_id: int = 0,
    source_line: int = 0,
    base_prefix: str | None = None,
    intern: dict | None = None,
) -> ParsedQuery:
    """Parse one query into its triple patterns.

    ``intern`` maps ``(kind, lexical, datatype_or_lang)`` to the :class:`Term`
    built for it; pass one per log, so each distinct term is built and validated
    once and is one shared object across the log's queries.

    Raises :class:`ParseError` (with a byte offset) for anything outside the
    supported subset, including property paths and subqueries.
    """
    patterns = _Parser(text, base_prefix, intern).parse()
    return ParsedQuery(query_id, patterns, source_line)


def parse_term(text: str, base_prefix: str | None = None) -> Term:
    """Parse a single term written in SPARQL surface syntax (for CLI seeds)."""
    parser = _Parser(text, base_prefix)
    term = parser._parse_term()
    if parser._peek() is not None:
        parser._error("trailing content after term")
    return term


def canonical_text(query: ParsedQuery) -> str:
    """Render a query back to canonical text; re-parsing yields equal patterns."""
    body = " . ".join(p.to_sparql() for p in query.patterns)
    return f"SELECT * WHERE {{ {body} }}"
