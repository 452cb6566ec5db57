"""RDF term model for the SPARQL BGP subset: terms, triple patterns, serialization."""

from __future__ import annotations

import re
from typing import NamedTuple

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"
VARIABLE = "variable"

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_KINDS = frozenset((IRI, LITERAL, BLANK, VARIABLE))
_VARNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_BLANK_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")
_WHITESPACE_RE = re.compile(r"\s")

_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


class _TermFields(NamedTuple):
    kind: str
    lexical: str
    datatype_or_lang: str | None = None


class Term(_TermFields):
    """A single RDF term or query variable.

    ``lexical`` holds the IRI without angle brackets, the literal's lexical
    form, the blank node label, or the variable name without the leading
    ``?``.  ``datatype_or_lang`` applies to literals only: a datatype IRI, or
    a language tag stored with its leading ``@``.

    A tuple of its three fields, so it hashes and compares as
    ``(kind, lexical, datatype_or_lang)``; order terms by ``sort_key``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, lexical: str, datatype_or_lang: str | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown term kind: {kind!r}")
        if kind == IRI:
            if not lexical or _WHITESPACE_RE.search(lexical):
                raise ValueError(f"malformed IRI: {lexical!r}")
        elif kind == VARIABLE:
            if not _VARNAME_RE.match(lexical):
                raise ValueError(f"malformed variable name: {lexical!r}")
        elif kind == BLANK:
            if not _BLANK_RE.match(lexical):
                raise ValueError(f"malformed blank node label: {lexical!r}")
        if kind != LITERAL and datatype_or_lang is not None:
            raise ValueError("datatype_or_lang is only valid for literals")
        if datatype_or_lang == "":
            raise ValueError("datatype_or_lang must be None or non-empty")
        return tuple.__new__(cls, (kind, lexical, datatype_or_lang))

    @property
    def concrete(self) -> bool:
        return self.kind != VARIABLE

    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind, self.lexical, self.datatype_or_lang or "")

    def to_sparql(self) -> str:
        """Render in SPARQL surface syntax (variables as ``?name``)."""
        if self.kind == IRI:
            return f"<{self.lexical}>"
        if self.kind == VARIABLE:
            return f"?{self.lexical}"
        if self.kind == BLANK:
            return f"_:{self.lexical}"
        body = "".join(_LITERAL_ESCAPES.get(c, c) for c in self.lexical)
        if self.datatype_or_lang is None:
            return f'"{body}"'
        if self.datatype_or_lang.startswith("@"):
            return f'"{body}"{self.datatype_or_lang}'
        return f'"{body}"^^<{self.datatype_or_lang}>'

    def to_ntriples(self) -> str:
        if self.kind == VARIABLE:
            raise ValueError("variables cannot appear in N-Triples output")
        return self.to_sparql()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "lexical": self.lexical,
            "datatypeOrLang": self.datatype_or_lang,
        }


def iri(lexical: str) -> Term:
    return Term(IRI, lexical)


def literal(lexical: str, datatype_or_lang: str | None = None) -> Term:
    return Term(LITERAL, lexical, datatype_or_lang)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def variable(name: str) -> Term:
    return Term(VARIABLE, name)


RDF_TYPE = Term(IRI, RDF_TYPE_IRI)


def interned(table: dict, make, key: tuple):
    """The one object in ``table`` equal to ``key``, built as ``make(*key)``
    (and so validated) on the first request only.

    Terms, triple patterns and path steps equal and hash as their field
    tuples, so each object is its own key and the table keeps nothing else.
    Objects of different kinds have fields of different types and never
    compare equal, so one table can hold several kinds.
    """
    part = table.get(key)
    if part is None:
        part = make(*key)
        table[part] = part
    return part


class _Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


class TriplePattern(_Triple):
    """One triple pattern; membership mirrors well-formed RDF with variables.

    A tuple of its three terms, so it hashes and compares as ``(s, p, o)``.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term):
        if subject.kind == LITERAL:
            raise ValueError("triple subject cannot be a literal")
        if predicate.kind not in (IRI, VARIABLE):
            raise ValueError("triple predicate must be an IRI or a variable")
        return tuple.__new__(cls, (subject, predicate, object))

    def terms(self) -> tuple[Term, Term, Term]:
        return tuple(self)

    def to_sparql(self) -> str:
        return f"{self.subject.to_sparql()} {self.predicate.to_sparql()} {self.object.to_sparql()}"

    def to_ntriples(self) -> str:
        return f"{self.subject.to_ntriples()} {self.predicate.to_ntriples()} {self.object.to_ntriples()} ."

    def to_json(self) -> dict:
        return {
            "subject": self.subject.to_json(),
            "predicate": self.predicate.to_json(),
            "object": self.object.to_json(),
        }
