"""Parser for the SELECT/BGP subset of SPARQL found in public query logs.

Accepted queries consist of optional PREFIX declarations, a SELECT clause
with a variable list or ``*``, and a brace-delimited block of dot-separated
triple patterns.  OPTIONAL and UNION blocks are flattened into the
surrounding pattern list, FILTER clauses are skipped, and property paths or
subqueries reject the whole query.  Bare names (the prefix-less style common
in textbook examples) parse as IRIs verbatim, optionally re-rooted under a
base prefix.

One regex cuts a text into ``(kind, value, start)`` tokens, closed by an END
token at the end of the text, and a recursive descent parser walks them.
Loading a log passes one intern table to every ``parse_query`` call, so each
distinct term and triple pattern is built once and each distinct accepted
record text is parsed once.  The parser builds both by ``_Parser._interned``,
which rejects a malformed one with a :class:`ParseError` at its token.

Most logged queries are plain ``SELECT ?v… WHERE { s p o . … }`` texts with
whitespace between tokens, and a fast path reads those from one whitespace
split.  It reads each piece of the split in the select list and in the
triples with the full parser's own term reader (the one :func:`parse_term`
runs), and a predicate ``a`` as ``rdf:type``; a piece that the reader
rejects or does not read whole makes it give up, as does any other shape.
It never rejects: a text it gives up on goes to the recursive descent
parser, the only source of :class:`ParseError`.  It builds its terms and
triples through the same intern table, so both paths return the same
objects, and it memoizes each piece's term in a dict that the table holds.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .terms import BLANK, IRI, LITERAL, RDF_TYPE, VARIABLE, Term, TriplePattern, interned

# Every match is one token with the whitespace after it folded in; the search
# skips any whitespace before the first token, as no token starts with it.
# (Folded in front, a trailing run would belong to no token, and the search
# would rescan it from each of its positions.)  Unknown characters are OTHER
# tokens: they are legal inside skipped FILTER expressions and rejected
# wherever the grammar consumes them.
_TOKEN_RE = re.compile(
    r"""
    (?:
      (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
    | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
    | (?P<BLANK>_:[A-Za-z_][A-Za-z0-9_\-]*)
    | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
    | (?P<DTSEP>\^\^)
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<NAME>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?|[A-Za-z_][A-Za-z0-9_\-]*)
    | (?P<PUNCT>[{}().;,*])
    | (?P<PATHOP>[/|^+!?])
    | (?P<OTHER>\S)
    )
    \s*
    """,
    re.VERBOSE | re.DOTALL,
)
# the kind of the sentinel token that closes every token list, at len(text)
END = "END"

# Constructs that are recognised but not part of the supported subset.
_REJECTED_KEYWORDS = {
    "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "MINUS", "BIND", "VALUES",
    "GRAPH", "SERVICE", "ORDER", "GROUP", "HAVING", "INSERT", "DELETE",
}
# Keywords that a bare name in a term position may not spell.
_TERM_KEYWORDS = _REJECTED_KEYWORDS | {
    "FILTER", "OPTIONAL", "UNION", "SELECT", "WHERE", "PREFIX",
}

# Nested groups recurse once per '{'.  Deep nesting would exhaust the Python
# stack, and because nesting is flattened into one pattern list, a cap loses
# nothing a summary could use.
MAX_GROUP_DEPTH = 100

_STRING_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, start)`` of each token, then ``(END, "", len(text))``."""
    tokens = [
        (m.lastgroup, m[m.lastindex], m.start())
        for m in _TOKEN_RE.finditer(text)
    ]
    tokens.append((END, "", len(text)))
    return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


class _Parser:
    """Recursive descent over the token list; ``pos`` indexes the next token,
    and the END sentinel stops every walk at the end of the text."""

    def __init__(self, text: str, base_prefix: str | None, intern: dict | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base_prefix = base_prefix or ""
        self.table = {} if intern is None else intern
        self.depth = 0

    def _interned(self, tok, make, fields: tuple):
        """The table's one ``make(*fields)``; a ValueError rejects the query at ``tok``."""
        try:
            return interned(self.table, make, fields)
        except ValueError as exc:
            self._error(str(exc), tok)

    # -- token plumbing ----------------------------------------------------

    def _error(self, reason, token=None):
        if token is None:
            token = self._peek()
        raise ParseError(reason, _byte_offset(self.text, token[2]))

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        if tok[0] == END:
            self._error("unexpected end of query", tok)
        self.pos += 1
        return tok

    def _at_punct(self, ch):
        kind, value, _ = self.tokens[self.pos]
        return kind == "PUNCT" and value == ch

    def _expect_punct(self, ch):
        tok = self._advance()
        if tok[0] != "PUNCT" or tok[1] != ch:
            self._error(f"expected {ch!r}", tok)
        return tok

    def _at_keyword(self, *words):
        kind, value, _ = self.tokens[self.pos]
        return kind == "NAME" and value.upper() in words

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
        if self._peek()[0] != END:
            self._error("trailing content after query")
        if not patterns:
            self._error("empty basic graph pattern", open_tok)
        return tuple(patterns)

    def _parse_prologue(self):
        while self._at_keyword("PREFIX"):
            self._advance()
            tok = self._advance()
            if tok[0] != "NAME" or not tok[1].endswith(":"):
                self._error("malformed PREFIX declaration", tok)
            iri_tok = self._advance()
            if iri_tok[0] != "IRIREF":
                self._error("PREFIX requires an IRI", iri_tok)
            self.prefixes[tok[1][:-1]] = iri_tok[1][1:-1]
        if self._at_keyword(*_REJECTED_KEYWORDS):
            self._error(f"unsupported construct: {self._peek()[1]}")

    def _parse_select(self):
        if not self._at_keyword("SELECT"):
            self._error("expected SELECT")
        self._advance()
        if self._at_keyword("DISTINCT", "REDUCED"):
            self._advance()
        if self._at_punct("*"):
            self._advance()
            return
        if self._peek()[0] != "VAR":
            self._error("SELECT needs a variable list or '*'")
        while self._peek()[0] == "VAR":
            self._advance()

    def _parse_trailing_modifiers(self):
        while self._at_keyword("LIMIT", "OFFSET"):
            self._advance()
            tok = self._advance()
            if tok[0] != "NUMBER":
                self._error("LIMIT/OFFSET require a number", tok)

    def _parse_group(self, patterns):
        """Parse the contents of a brace group (after '{'), flattening nested blocks.

        A '.' must close a triples block before the next one; after FILTER,
        OPTIONAL or a nested group it may be left out.  At most one '.'
        follows each of them, and none opens the group (SPARQL 1.1 §19.8)."""
        last = None  # the group's last item: None, ".", "block" or "pattern"
        while True:
            tok = self._peek()
            kind, value, _ = tok
            if kind == END:
                self._error("unterminated group")
            if kind == "PUNCT":
                if value == "}":
                    self._advance()
                    return
                if value == ".":
                    if last in (None, "."):
                        self._error("unexpected '.'", tok)
                    self._advance()
                    last = "."
                    continue
                if value == "{":
                    self._parse_nested_group(patterns)
                    while self._at_keyword("UNION"):
                        self._advance()
                        self._parse_nested_group(patterns)
                    last = "pattern"
                    continue
            elif kind == "NAME":
                upper = value.upper()
                if upper == "FILTER":
                    self._advance()
                    self._skip_filter()
                    last = "pattern"
                    continue
                if upper == "OPTIONAL":
                    self._advance()
                    self._parse_nested_group(patterns)
                    last = "pattern"
                    continue
                if upper == "SELECT":
                    self._error("subqueries are not supported", tok)
                if upper == "UNION":
                    self._error("UNION without a preceding group", tok)
            self._parse_triples_block(patterns, unclosed=last == "block")
            last = "block"

    def _parse_nested_group(self, patterns):
        """One '{ ... }' group; its patterns are flattened into ``patterns``."""
        self.depth += 1
        if self.depth > MAX_GROUP_DEPTH:
            self._error("group nesting too deep")
        if not self._at_punct("{"):
            self._error("expected '{'")
        self._advance()
        self._parse_group(patterns)
        self.depth -= 1

    def _parse_triples_block(self, patterns, unclosed):
        """One subject's triples; ``unclosed``: a triples block ends right
        before it, with no '.' between (checked once the subject is read, so
        a keyword there is reported as such)."""
        subj_tok = self._peek()
        subject = self._parse_term()
        if unclosed:
            self._error("expected '.'", subj_tok)
        while True:
            predicate = self._parse_term(predicate=True)
            patterns.append(self._interned(
                subj_tok, TriplePattern, (subject, predicate, self._parse_term())))
            while self._at_punct(","):
                self._advance()
                patterns.append(self._interned(
                    subj_tok, TriplePattern, (subject, predicate, self._parse_term())))
            if self._at_punct(";"):
                self._advance()
                kind, value, _ = self._peek()
                # dangling ';' before '.', '}' or end of text is tolerated
                if kind == END or (kind == "PUNCT" and value in ".}"):
                    break
                continue
            break

    def _parse_term(self, predicate: bool = False) -> Term:
        """The term the next token spells, in any position.  A predicate is a
        variable, an IRI or ``a`` (the table's one ``rdf:type`` object,
        whichever spelling came first), with no path operator around it."""
        tok = self._peek()
        kind, value, _ = tok
        if predicate:
            if kind == "PATHOP" or (kind == "PUNCT" and value in "(*"):
                self._error("property paths are not supported", tok)
            if kind not in ("VAR", "IRIREF", "NAME"):
                self._error("expected predicate", tok)
        self._advance()
        if kind == "VAR":
            term = self._interned(tok, Term, (VARIABLE, value[1:], None))
        elif kind == "NAME":
            if predicate and value == "a":
                term = self.table.setdefault(RDF_TYPE, RDF_TYPE)
            elif value.upper() in _TERM_KEYWORDS:
                self._error(f"unsupported construct: {value}", tok)
            else:
                term = self._term_from_name(tok)
        elif kind == "IRIREF":
            term = self._iri_from_ref(tok)
        elif kind == "STRING":
            term = self._finish_literal(tok)
        elif kind == "BLANK":
            term = self._interned(tok, Term, (BLANK, value[2:], None))
        elif kind == "NUMBER":
            term = self._interned(tok, Term, (LITERAL, value, None))
        elif kind == "OTHER":
            self._error(f"unexpected character {value!r}", tok)
        else:
            self._error("expected term", tok)
        if predicate and (self._peek()[0] == "PATHOP" or self._at_punct("*")):
            self._error("property paths are not supported")
        return term

    def _iri_from_ref(self, tok) -> Term:
        inner = tok[1][1:-1]
        if not inner:
            self._error("empty IRI", tok)
        return self._interned(tok, Term, (IRI, inner, None))

    def _term_from_name(self, tok) -> Term:
        value = tok[1]
        if ":" in value:
            prefix, _, local = value.partition(":")
            if prefix not in self.prefixes:
                self._error(f"unknown prefix {prefix + ':'!r}", tok)
            expanded = self.prefixes[prefix] + local
            if not expanded:
                self._error("empty IRI", tok)
            return self._interned(tok, Term, (IRI, expanded, None))
        return self._interned(tok, Term, (IRI, self.base_prefix + value, None))

    def _finish_literal(self, tok) -> Term:
        lexical = self._decode_string(tok)
        kind, value, _ = self._peek()
        if kind == "LANGTAG":
            self._advance()
            return self._interned(tok, Term, (LITERAL, lexical, value))
        if kind == "DTSEP":
            self._advance()
            dt_tok = self._advance()
            if dt_tok[0] == "IRIREF":
                dt = self._iri_from_ref(dt_tok)
            elif dt_tok[0] == "NAME" and ":" in dt_tok[1]:
                dt = self._term_from_name(dt_tok)
            else:
                self._error("expected datatype IRI", dt_tok)
            return self._interned(tok, Term, (LITERAL, lexical, dt.lexical))
        return self._interned(tok, Term, (LITERAL, lexical, None))

    def _decode_string(self, tok) -> str:
        # the STRING token pairs every backslash with the character after it
        def escape(match):
            if match.group(1) not in _STRING_ESCAPES:
                self._error("bad string escape", tok)
            return _STRING_ESCAPES[match.group(1)]

        return _ESCAPE_RE.sub(escape, tok[1][1:-1])

    def _skip_filter(self):
        if self._at_keyword("EXISTS", "NOT"):
            if self._at_keyword("NOT"):
                self._advance()
                if not self._at_keyword("EXISTS"):
                    self._error("malformed FILTER")
            self._advance()
            self._skip_balanced("{", "}")
            return
        if self._peek()[0] == "NAME":
            self._advance()
        if not self._at_punct("("):
            self._error("malformed FILTER")
        self._skip_balanced("(", ")")

    def _skip_balanced(self, open_ch, close_ch):
        self._expect_punct(open_ch)
        depth = 1
        while depth:
            kind, value, _ = self._advance()
            if kind == "PUNCT" and value == open_ch:
                depth += 1
            elif kind == "PUNCT" and value == close_ch:
                depth -= 1


# -- fast path ------------------------------------------------------------------

# The intern table holds the fast path's token memo under this key.  A token
# is never a key of the table itself: a whitespace-free accepted record text
# such as ``SELECT*{?s<p>?o}`` already is one, mapped to its patterns.
_TOKEN_MEMO = object()


def _read_term(text: str, base_prefix: str | None, table: dict) -> Term:
    """The term that ``text`` spells whole, read by the full parser's term
    reader and interned in ``table``; :class:`ParseError` otherwise."""
    parser = _Parser(text, base_prefix, table)
    term = parser._parse_term()
    if parser._peek()[0] != END:
        parser._error("trailing content after term")
    return term


def _token_term(token: str, base_prefix: str | None, table: dict, memo: dict):
    """The term the full parser reads ``token`` as, whole, or False; memoized
    in ``memo``, and never raises."""
    term = memo.get(token)
    if term is None:
        try:
            term = _read_term(token, base_prefix, table)
        except ParseError:
            term = False
        memo[token] = term
    return term


def _fast_patterns(text: str, base_prefix: str | None, table: dict):
    """The patterns of a text whose whitespace split is exactly
    ``SELECT ?v… WHERE { s p o . … }``, or None: give up, never reject."""
    parts = text.split()
    if len(parts) < 8 or parts[0] != "SELECT" or parts[-1] != "}":
        return None
    try:
        where = parts.index("WHERE", 2)
    except ValueError:
        return None
    body = parts[where + 2:-1]
    dots = body[3::4]
    if (parts[where + 1] != "{" or not body or len(body) % 4 not in (0, 3)
            or dots.count(".") != len(dots)):
        return None
    memo = table.get(_TOKEN_MEMO)
    if memo is None:
        memo = table[_TOKEN_MEMO] = {}
    for token in parts[1:where]:
        term = _token_term(token, base_prefix, table, memo)
        if not term or term.kind != VARIABLE:
            return None
    patterns = []
    for i in range(0, len(body), 4):
        terms = []
        for token in body[i:i + 3]:
            if token == "a" and len(terms) == 1:
                term = table.setdefault(RDF_TYPE, RDF_TYPE)
            else:  # a hit read inline saves a call per token
                term = memo.get(token) or _token_term(token, base_prefix, table, memo)
            if not term:
                return None
            terms.append(term)
        try:
            patterns.append(interned(table, TriplePattern, tuple(terms)))
        except ValueError:  # a literal subject, or a predicate no IRI or variable
            return None
    return tuple(patterns)


def parse_query(
    text: str,
    query_id: int = 0,
    source_line: int = 0,
    base_prefix: str | None = None,
    intern: dict | None = None,
) -> ParsedQuery:
    """Parse one query into its triple patterns.

    ``intern`` is one table per log, parsed with one ``base_prefix``.  It maps
    ``(kind, lexical, datatype_or_lang)`` to the :class:`Term` built for it,
    ``(subject, predicate, object)`` to the :class:`TriplePattern` built for
    it, and each accepted record text to its patterns tuple.  So each
    distinct term and triple is built and validated once and is one shared
    object across the log's queries, and each distinct accepted text is
    parsed once: a repeated text gets the same patterns tuple.  The table
    holds no rejection, so a rejected text is parsed again at each
    occurrence.  It also holds the fast path's token memo (token to term, or
    give up), under a private key.

    A plain ``SELECT ?v… WHERE { s p o . … }`` text is read by the fast path
    (see the module docstring); it returns the patterns, as the same
    objects, that the recursive descent parser would.  Any other text, and
    any text the fast path is unsure of, goes to that parser.

    Raises :class:`ParseError` (with a byte offset) for anything outside the
    supported subset, including property paths and subqueries.
    """
    table = {} if intern is None else intern
    patterns = table.get(text)
    if patterns is None:
        patterns = _fast_patterns(text, base_prefix, table)
        if patterns is None:
            patterns = _Parser(text, base_prefix, table).parse()
        table[text] = patterns
    return ParsedQuery(query_id, patterns, source_line)


def parse_term(text: str, base_prefix: str | None = None) -> Term:
    """Parse a single term written in SPARQL surface syntax (for CLI seeds):
    one whole term, read as a subject or object of a query without PREFIX
    declarations.  The fast path of :func:`parse_query` reads each token so."""
    return _read_term(text, base_prefix, {})
