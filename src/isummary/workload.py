"""Query-log ingestion: on-disk formats to an indexed, immutable workload store."""

from __future__ import annotations

import copy
import itertools
import logging
from collections import Counter
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence
from urllib.parse import unquote_plus

from .parser import ParsedQuery, ParseError, parse_query
from .query_graph import QueryGraph, build_graph
from .terms import VARIABLE, Term, TriplePattern

logger = logging.getLogger(__name__)

RAW_LINES = "raw-lines"
URLENCODED_LINES = "urlencoded-lines"
RQ_DIRECTORY = "rq-directory"
TSV = "tsv"
FORMATS = (RAW_LINES, URLENCODED_LINES, RQ_DIRECTORY, TSV)

# Rejections logged one line each at WARNING; later ones go to DEBUG so a
# large log with many rejects does not flood stderr.
WARNED_REJECTIONS = 20
# the closing WARNING's histogram names this many reasons, most common first
SHOWN_REASONS = 5


class IoError(Exception):
    """Input path missing or unreadable."""


class EmptyWorkload(Exception):
    """No query in the input could be parsed."""


def concrete_node_terms(query: ParsedQuery) -> tuple[Term, ...]:
    """The concrete nodes of the query's type-collapsed graph: the concrete
    subjects and objects of its patterns, each once, in first-occurrence
    order (pattern order, subject before object).

    Type collapse never adds or removes one: it relabels a variable only by
    the class object of one of its own rdf:type patterns, counted here already.
    A tuple of a few terms takes a fifth of a frozenset's memory, and a
    query holds few enough that a membership test scans it quickly.
    """
    # a dict as ordered set; a plain loop builds it faster than a generator
    nodes: dict[Term, None] = {}
    for subject, _, obj in query.patterns:
        if subject.kind != VARIABLE:
            nodes[subject] = None
        if obj.kind != VARIABLE:
            nodes[obj] = None
    return tuple(nodes)


class WorkloadStore:
    """Parsed queries plus an inverted index from concrete terms to query ids.

    The term index maps each concrete term (in any pattern position) to its
    posting: a tuple of the ids of the root's queries holding it, strictly
    ascending.  A posting is read in order, or as the iterable side of a
    ``set.intersection``; only a filter on several terms builds a set, of
    the shortest posting's ids.  ``posting`` restricts one to the members.
    A query's node terms (``node_terms``) are a tuple too, memoized per
    query id.

    A store built from queries is a root: it owns the id-to-query map, the
    term index, the lazy per-query graph and node-term memos, and the table of
    parts (steps, hop tuples, collapsed triples) its graphs share.  A view
    from ``subset`` or ``split`` is those five, shared by reference, plus its
    member ids.
    So ``len``, ``posting``, ``filter``, ``ids`` and ``query`` answer for
    members only, ``graph`` and ``node_terms`` for any id the root holds,
    and ``queries`` lists the members in the root's order at the cost of a
    pass over the root.  Query ids are never renumbered, so memoized graphs
    stay valid in every view.  Slot counts depend on the members, so each
    store and view has its own memo of them; a view holding more than half
    of its parent's members derives its counts from the parent's (see
    ``slot_counts``).
    Treated as immutable after construction.
    """

    __slots__ = (
        "rejected_count", "term_index", "_by_id", "_members", "_graphs", "_graph_parts",
        "_node_terms", "_slot_counts", "_parent", "_held_out",
    )

    def __init__(self, queries: Iterable[ParsedQuery], rejected_count: int = 0):
        self.rejected_count = rejected_count
        index: dict[Term, list[int]] = {}
        self._by_id: dict[int, ParsedQuery] = {}
        for q in queries:
            qid = q.id
            if qid in self._by_id:
                raise ValueError(f"duplicate query id {qid}")
            self._by_id[qid] = q
            for pattern in q.patterns:
                for term in pattern.terms():
                    if term.concrete:
                        posting = index.get(term)
                        if posting is None:
                            index[term] = [qid]
                        # a term met again in the same query was appended last
                        elif posting[-1] != qid:
                            posting.append(qid)
        # frozen once; sorted, as ids need not come in ascending order
        for term, posting in index.items():
            posting.sort()
            index[term] = tuple(posting)
        self.term_index: dict[Term, tuple[int, ...]] = index
        # a root's members are its map's keys; a view's, a set (see `subset`)
        self._members: AbstractSet[int] = self._by_id.keys()
        self._graphs: dict[int, QueryGraph] = {}
        self._graph_parts: dict = {}
        self._node_terms: dict[int, tuple[Term, ...]] = {}
        self._slot_counts: dict[tuple[Term, str, str], Counter] = {}
        # for a view holding more than half of its parent: the parent (set by
        # `_view`) and the parent's ids the view lacks (set by `split`, or
        # else by `slot_counts` on its first miss)
        self._parent: WorkloadStore | None = None
        self._held_out: set[int] | None = None

    @property
    def queries(self) -> list[ParsedQuery]:
        """The member queries in the root's build order; a pass over the root."""
        members = self._members
        return [q for qid, q in self._by_id.items() if qid in members]

    def __len__(self) -> int:
        return len(self._members)

    def ids(self) -> list[int]:
        return sorted(self._members)

    def query(self, query_id: int) -> ParsedQuery:
        if query_id not in self._members:
            raise KeyError(query_id)
        return self._by_id[query_id]

    def graph(self, query_id: int) -> QueryGraph:
        g = self._graphs.get(query_id)
        if g is None:
            g = build_graph(self._by_id[query_id], self._graph_parts)
            self._graphs[query_id] = g
        return g

    def node_terms(self, query_id: int) -> tuple[Term, ...]:
        """``concrete_node_terms`` of the query, memoized: a duplicate-free
        tuple in first-occurrence order."""
        terms = self._node_terms.get(query_id)
        if terms is None:
            terms = concrete_node_terms(self._by_id[query_id])
            self._node_terms[query_id] = terms
        return terms

    def posting(self, term: Term) -> Sequence[int]:
        """Ids of the member queries holding ``term`` in any position,
        ascending; empty for a term outside the term index.

        On a store holding every id of its root this is the root's posting
        tuple itself, with no copy; on a smaller view, a list of the members
        in posting order.  Callers must not mutate it.
        """
        posting = self.term_index.get(term, ())
        members = self._members
        if len(members) == len(self._by_id):
            return posting
        return [qid for qid in posting if qid in members]

    def filter(self, terms: Iterable[Term]) -> list[int]:
        """Ids of member queries containing every given term, ascending.

        An empty term set matches every query.  Terms must be concrete.
        The ids come from the ``posting`` of the term with the shortest root
        posting: all of it for one term, and for several the ids that every
        other root posting holds, in posting order.
        """
        postings = {}
        for term in terms:
            if not term.concrete:
                raise ValueError(f"filter terms must be concrete, got {term.to_sparql()}")
            posting = self.term_index.get(term)
            if not posting:
                return []
            postings[term] = posting
        if not postings:
            return self.ids()
        shortest = min(postings, key=lambda t: len(postings[t]))
        ids = self.posting(shortest)
        if len(postings) == 1:
            return list(ids)
        common = set(ids).intersection(*(p for t, p in postings.items() if t != shortest))
        return [qid for qid in ids if qid in common]

    def slot_counts(self, anchor: Term, anchor_slot: str, slot: str) -> Counter:
        """Distinct-query counts of the concrete terms in ``slot`` of member
        patterns that hold ``anchor`` in ``anchor_slot`` (slots are
        TriplePattern fields).  Memoized per store: callers must not mutate
        the returned Counter.

        A store scans its members that hold ``anchor``.  A view holding more
        than half of its parent's members takes the parent's counts (memoized
        there) minus those over the parent's holders of ``anchor`` that the
        view lacks: a query counts once per term, and the view and the ids it
        lacks split the parent.  So the counts of a fold's train part cost a
        scan of its test part once the whole store has counted the key.

        An ``anchor`` outside the term index has empty counts, which are not
        memoized.  So every key is ``(concrete term of the store, slot, slot)``
        and a memo is bounded by the store's vocabulary, not by the requests
        it serves.
        """
        key = (anchor, anchor_slot, slot)
        counts = self._slot_counts.get(key)
        if counts is None:
            if anchor not in self.term_index:
                return Counter()
            at, of = TriplePattern._fields.index(anchor_slot), TriplePattern._fields.index(slot)
            parent = self._parent
            if parent is None:
                counts = self._scan_slots(anchor, at, of, self.filter((anchor,)))
            else:
                if self._held_out is None:
                    self._held_out = parent._members - self._members
                holders = self._held_out.intersection(self.term_index[anchor])
                counts = (parent.slot_counts(anchor, anchor_slot, slot)
                          - parent._scan_slots(anchor, at, of, holders))
            self._slot_counts[key] = counts
        return counts

    def _scan_slots(self, anchor: Term, at: int, of: int, ids: Iterable[int]) -> Counter:
        by_id = self._by_id
        # one Counter over every query's set: a query counts once per term
        return Counter(itertools.chain.from_iterable(
            {p[of] for p in by_id[qid].patterns if p[at] == anchor and p[of].concrete}
            for qid in ids
        ))

    def _view(self, members: AbstractSet[int],
              held_out: set[int] | None = None) -> "WorkloadStore":
        """A view over ``members``, a subset of this store's members.
        ``held_out``, if given, must be this store's members that it lacks."""
        view = copy.copy(self)
        view._members = members
        view._slot_counts = {}
        view._parent = self if 2 * len(members) > len(self._members) else None
        view._held_out = held_out
        view.rejected_count = 0
        return view

    def subset(self, ids: Iterable[int]) -> "WorkloadStore":
        """A view over the member queries with the given ids."""
        return self._view(self._members & set(ids))

    def split(self, ids: Iterable[int]) -> tuple["WorkloadStore", "WorkloadStore"]:
        """``(train, test)``: views over the members without and with the
        given ids.

        The test view is ``subset(ids)``.  The train view is one set
        difference, and the ids it lacks are the test view's members, so its
        slot counts never compute them (see ``slot_counts``).
        """
        test = self.subset(ids)
        return self._view(self._members - test._members, test._members), test


def _iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Each LF-delimited line with one trailing CR cut (CRLF logs); a CR
    elsewhere stays inside its record."""
    try:
        with open(path, encoding="utf-8", errors="replace", newline="\n") as fh:
            for line_no, line in enumerate(fh, start=1):
                yield line_no, line.removesuffix("\n").removesuffix("\r")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _iter_records(path: Path, format: str, tsv_column: int | None) -> Iterator[tuple[int, str | None]]:
    if format == RAW_LINES:
        yield from _iter_lines(path)
    elif format == URLENCODED_LINES:
        for line_no, line in _iter_lines(path):
            yield line_no, unquote_plus(line)
    elif format == TSV:
        for line_no, line in _iter_lines(path):
            cells = line.split("\t")
            if tsv_column < len(cells) and cells[tsv_column].strip():
                yield line_no, cells[tsv_column]
            else:
                # None marks a non-blank row with no query in the query column
                yield line_no, None if line.strip() else ""
    elif format == RQ_DIRECTORY:
        if not path.is_dir():
            raise IoError(f"not a directory: {path}")
        try:
            files = sorted(f for f in path.glob("*.rq") if f.is_file())
        except OSError as exc:
            raise IoError(f"cannot list {path}: {exc}") from exc
        for index, rq_file in enumerate(files, start=1):
            try:
                yield index, rq_file.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                raise IoError(f"cannot read {rq_file}: {exc}") from exc


def check_format(format: str, tsv_column: int | None) -> None:
    """Raise ValueError unless ``format`` is known and ``tsv_column`` is a
    0-based column given exactly when the format is ``tsv``."""
    if format not in FORMATS:
        raise ValueError(f"unknown workload format: {format!r}")
    if (tsv_column is None) == (format == TSV):
        raise ValueError("tsv_column is required for tsv input and invalid otherwise")
    if tsv_column is not None and tsv_column < 0:
        raise ValueError(f"tsv_column must be 0-based, got {tsv_column}")


def _histogram(reasons: Counter) -> str:
    """The most common reasons with their counts, then how many others."""
    shown = reasons.most_common(SHOWN_REASONS)
    parts = [f"{count} {reason!r}" for reason, count in shown]
    if len(reasons) > len(shown):
        parts.append(f"{len(reasons) - len(shown)} other reasons")
    return ", ".join(parts)


def load_workload(
    path,
    format: str = RAW_LINES,
    tsv_column: int | None = None,
    base_prefix: str | None = None,
) -> WorkloadStore:
    """Stream a query log from disk into a :class:`WorkloadStore`.

    Unparsable records are counted and logged with their line numbers rather
    than aborting the load; past the first ``WARNED_REJECTIONS`` they are
    logged at DEBUG and one closing WARNING gives the total and the counts
    per reason (``ParseError.reason``), most common first.  For ``tsv``
    input a non-blank row with no query in its query column is a rejected
    record, and the first non-blank row is treated as a header and skipped
    silently if it fails to parse or has no query.
    """
    check_format(format, tsv_column)
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such path: {path}")

    queries: list[ParsedQuery] = []
    rejected = 0
    reasons: Counter = Counter()
    first_record = True
    # the load's intern table (see parse_query): each distinct term, triple
    # and record text costs once, and a repeated text shares its patterns
    table: dict = {}
    for line_no, text in _iter_records(path, format, tsv_column):
        reason = None
        if text is None:
            reason = f"row has no query in column {tsv_column}"
        elif not text.strip():
            continue  # a blank line is no record, so not the header either
        else:
            try:
                queries.append(
                    parse_query(text, query_id=len(queries), source_line=line_no,
                                base_prefix=base_prefix, intern=table)
                )
            except ParseError as exc:
                reason = exc
        if reason is not None:
            if format == TSV and first_record:
                logger.debug("skipping header row of %s", path)
            else:
                rejected += 1
                reasons[reason.reason if isinstance(reason, ParseError) else reason] += 1
                level = logging.WARNING if rejected <= WARNED_REJECTIONS else logging.DEBUG
                logger.log(level, "rejected record at line %d of %s: %s", line_no, path, reason)
        first_record = False
    if rejected > WARNED_REJECTIONS:
        logger.warning("rejected %d records of %s; those after the first %d logged at DEBUG; "
                       "by reason: %s", rejected, path, WARNED_REJECTIONS, _histogram(reasons))
    if not queries:
        raise EmptyWorkload(f"no parsable query in {path}")
    return WorkloadStore(queries, rejected_count=rejected)
