"""Greedy workload-driven summary construction, plus the random baseline.

The greedy strategy filters the workload down to the queries mentioning the
seed(s), ranks co-occurring nodes by how many of those queries use them, and
links each selected node to the growing summary through the most frequent
shortest query path, resolving leftover variables against the whole workload.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .query_graph import FORWARD, PathSignature, positional_name, shortest_path
from .rng import XorShift64Star
from .terms import BLANK, LITERAL, VARIABLE, Term, TriplePattern
from .workload import WorkloadStore

ISUMMARY = "isummary"
RANDOM = "random"
STRATEGIES = (ISUMMARY, RANDOM)

ISOLATED_NODE = "IsolatedNode"
UNRESOLVED_VARIABLE = "UnresolvedVariable"
BUDGET_SHORTFALL = "BudgetShortfall"
MULTI_SEED_FALLBACK = "MultiSeedFallback"
RESOLVED_VARIABLE = "ResolvedVariable"
OFF_LEDGER_RESOURCE = "OffLedgerResource"


class NoRelevantQueries(Exception):
    """No workload query contains any of the requested seed terms."""


class InvalidRequest(Exception):
    """Malformed summary request (bad budget, unknown strategy, ...)."""


@dataclass(frozen=True)
class SummaryWarning:
    kind: str
    message: str
    term: Term | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "term": self.term.to_json() if self.term is not None else None,
        }


@dataclass(frozen=True)
class SummaryRequest:
    """Seeds, node budget and strategy for one summary run."""

    seeds: tuple[Term, ...]
    k: int
    strategy: str = ISUMMARY
    random_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise InvalidRequest("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidRequest("seeds must be distinct")
        for seed in self.seeds:
            if not seed.concrete:
                raise InvalidRequest(f"seeds must be concrete, got {seed.to_sparql()}")
        if self.k < len(self.seeds):
            raise InvalidRequest(f"budget k={self.k} is below the seed count {len(self.seeds)}")
        if self.strategy not in STRATEGIES:
            raise InvalidRequest(f"unknown strategy: {self.strategy!r}")


@dataclass(frozen=True)
class Summary:
    """Ordered summary triples plus the node-weight ledger and warnings."""

    triples: tuple[TriplePattern, ...]
    nodes: tuple[tuple[Term, int], ...]
    warnings: tuple[SummaryWarning, ...]
    seeds: tuple[Term, ...]
    k: int
    strategy: str


def node_frequencies(
    store: WorkloadStore, relevant_ids: Iterable[int], exclude: Iterable[Term] = ()
) -> Counter:
    """Distinct-query counts of every concrete node in the given queries' graphs."""
    freq = Counter(itertools.chain.from_iterable(map(store.node_terms, relevant_ids)))
    for term in exclude:
        freq.pop(term, None)
    return freq


def _ledger_order(item: tuple[Term, int]) -> tuple:
    """Sort key of a ``(term, count)`` pair: count descending, then term ascending."""
    term, count = item
    return (-count, term.sort_key())


def _budget_shortfall(available: int, budget: int) -> SummaryWarning:
    return SummaryWarning(
        BUDGET_SHORTFALL,
        f"only {available} candidate node(s) available for a budget of {budget}",
    )


def select_top_nodes(
    store: WorkloadStore,
    relevant_ids: Iterable[int],
    count: int,
    exclude: Iterable[Term] = (),
) -> list[tuple[Term, int]]:
    """Top nodes by (frequency desc, term asc); may return fewer than asked.

    Only the terms whose frequency reaches the count-th largest are sorted.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    freq = node_frequencies(store, relevant_ids, exclude)
    if count == 0 or not freq:
        return []
    cut = heapq.nlargest(count, freq.values())[-1]
    ranked = sorted(((term, n) for term, n in freq.items() if n >= cut), key=_ledger_order)
    return ranked[:count]


def _holders(store: WorkloadStore, relevant: set[int], term: Term) -> list[int]:
    """The relevant ids whose queries hold ``term`` as a node (a concrete
    subject or object); ``relevant`` is a set of member ids of ``store``.

    Reads from the smaller side: a posting no longer than ``relevant`` is
    intersected into it, and else each relevant id's node terms are tested.
    A posting much longer than ``relevant`` costs a pass, or a bisect per id,
    that the scan does not.
    """
    posting = store.term_index.get(term, ())
    candidates = relevant.intersection(posting) if len(posting) <= len(relevant) else relevant
    node_terms = store.node_terms
    return [qid for qid in candidates if term in node_terms(qid)]


def link(
    store: WorkloadStore,
    relevant_ids: Iterable[int],
    x: Term,
    visited: Sequence[Term],
) -> PathSignature | None:
    """Most frequent shortest query path linking ``x`` to any visited node.

    Reads only the relevant queries that hold ``x`` as a node (``_holders``,
    from the smaller side), each with one path per visited node of its
    graph; a query holding ``x`` only as a predicate has no such path.
    Frequencies accumulate across all of them; ties break by shorter length,
    then least signature.  Returns None when no relevant query connects
    ``x`` to the summary.  ``relevant_ids`` is any iterable of member ids of
    ``store``; a set is read without a copy.
    """
    if not visited:
        raise ValueError("visited set must be non-empty")
    partners = set(visited)
    if x in partners:
        raise ValueError("node to link is already in the summary")
    if not isinstance(relevant_ids, (set, frozenset)):
        relevant_ids = set(relevant_ids)
    tally: Counter = Counter()
    for qid in _holders(store, relevant_ids, x):
        ends = partners.intersection(store.node_terms(qid))
        if ends:
            graph = store.graph(qid)
            for y in ends:
                signature = shortest_path(graph, x, y)
                if signature is not None:
                    tally[signature] += 1
    if not tally:
        return None
    # sort keys only for the signatures tied at the top count
    top = max(tally.values())
    return min((s for s, n in tally.items() if n == top),
               key=lambda s: (len(s.steps), s.sort_key()))


def _fresh_blanks(store: WorkloadStore) -> Iterator[Term]:
    """Blank nodes ``_:u0``, ``_:u1``, … for unresolved variables, skipping
    every blank label the log holds, so a fresh node is never one of the log's."""
    for n in itertools.count():
        term = Term(BLANK, f"u{n}")
        if term not in store.term_index:
            yield term


def _vote(store: WorkloadStore, keys: Iterable[tuple], no_literal: bool) -> Term | None:
    """The most frequent concrete term over ``store.slot_counts`` of each
    ``(anchor, anchor_slot, slot)`` key whose anchor is concrete, without
    literals when ``no_literal`` is set; None with no candidate."""
    counts: Counter = Counter()
    for anchor, anchor_slot, slot in keys:
        if anchor.concrete:
            counts.update(store.slot_counts(anchor, anchor_slot, slot))
    candidates = [item for item in counts.items()
                  if not (no_literal and item[0].kind == LITERAL)]
    return min(candidates, key=_ledger_order)[0] if candidates else None


def resolve_variables(
    path: PathSignature,
    store: WorkloadStore,
    blanks: Iterator[Term] | None = None,
) -> tuple[list[TriplePattern], list[SummaryWarning]]:
    """Turn a path into summary triples, substituting its variables.

    A variable waypoint or predicate takes the most frequent concrete term
    over the whole workload's slot counts of its concrete neighbours, with no
    literal where it will be written as a subject.  A waypoint's neighbours
    are the predicates of its steps (its slot: subject or object); a
    predicate's are its step's resolved ends (their slot: predicate).  A
    waypoint with no candidate takes the next fresh blank node from
    ``blanks`` (by default ``_fresh_blanks(store)``); a predicate with none
    omits its step's triple.  Each case adds a warning.
    """
    if blanks is None:
        blanks = _fresh_blanks(store)
    warnings: list[SummaryWarning] = []
    steps = path.steps
    # step i joins nodes[i] and nodes[i + 1]; ends[i] are its (source, target) indices
    nodes = [path.endpoints[0]] + [step.waypoint for step in steps]
    ends = [(i, i + 1) if step.direction == FORWARD else (i + 1, i)
            for i, step in enumerate(steps)]

    # resolve waypoints first: each is constrained by the two steps around it
    for j in range(1, len(nodes)):
        term = nodes[j]
        if term.kind != VARIABLE:
            continue
        keys = [(steps[i].predicate, "predicate", "subject" if ends[i][0] == j else "object")
                for i in (j - 1, j) if i < len(steps)]
        chosen = _vote(store, keys, any(key[2] == "subject" for key in keys))
        if chosen is None:
            chosen = next(blanks)
            warnings.append(SummaryWarning(
                UNRESOLVED_VARIABLE,
                f"no concrete candidate for waypoint ?{term.lexical}; using blank node",
                chosen,
            ))
        else:
            warnings.append(SummaryWarning(
                RESOLVED_VARIABLE,
                f"waypoint ?{term.lexical} resolved from workload",
                chosen,
            ))
        nodes[j] = chosen

    triples: list[TriplePattern] = []
    for step, (s, t) in zip(steps, ends):
        source, predicate, target = nodes[s], step.predicate, nodes[t]
        if predicate.kind == VARIABLE:
            mined = _vote(store, ((source, "subject", "predicate"),
                                  (target, "object", "predicate")), False)
            if mined is None:
                warnings.append(SummaryWarning(
                    UNRESOLVED_VARIABLE,
                    f"variable predicate ?{predicate.lexical} has no workload candidate;"
                    " triple omitted",
                ))
                continue
            warnings.append(SummaryWarning(
                RESOLVED_VARIABLE,
                f"predicate ?{predicate.lexical} resolved from workload",
                mined,
            ))
            predicate = mined
        triples.append(TriplePattern(source, predicate, target))
    return triples, warnings


def _relevant_ids(store: WorkloadStore, seeds: Sequence[Term]):
    """Member ids (a set) of the queries holding all seeds, else for λ > 1 the per-seed union."""
    warnings: list[SummaryWarning] = []
    ids = set(store.filter(seeds))
    if not ids and len(seeds) > 1:
        ids = set().union(*(store.filter((seed,)) for seed in seeds))
        if ids:
            warnings.append(SummaryWarning(
                MULTI_SEED_FALLBACK,
                "no query contains every seed; using the per-seed union",
            ))
    if not ids:
        raise NoRelevantQueries(
            "no workload query contains " + ", ".join(s.to_sparql() for s in seeds)
        )
    return ids, warnings


def _greedy_summary(store, request, relevant, budget, triples, blanks, warnings):
    """Attach the other seeds, then the ``budget`` most frequent nodes, each by
    its ``link`` path; returns the nodes' ledger rows."""
    visited: list[Term] = [request.seeds[0]]

    def attach(term):
        signature = link(store, relevant, term, visited)
        if signature is None:
            warnings.append(SummaryWarning(
                ISOLATED_NODE,
                f"no relevant query links {term.to_sparql()} to the summary",
                term,
            ))
        else:
            resolved, extra = resolve_variables(signature, store, blanks)
            triples.update(dict.fromkeys(resolved))
            warnings.extend(extra)
        visited.append(term)

    for seed in request.seeds[1:]:
        attach(seed)

    top = select_top_nodes(store, relevant, budget, exclude=request.seeds)
    if len(top) < budget:
        warnings.append(_budget_shortfall(len(top), budget))
    for term, _ in top:
        attach(term)
    return top


def _name_blind_key(edge: TriplePattern) -> tuple:
    """The sort keys of the edge's terms, each variable renamed by its first position."""
    names: dict = {}
    return tuple([positional_name(t, names).sort_key() for t in edge])


def _incident_edges(store: WorkloadStore, relevant: set[int], term: Term) -> set:
    """The edges at ``term`` in the graphs of the relevant queries that hold it as a node."""
    return {e for qid in _holders(store, relevant, term)
            for e in store.graph(qid).edges if term in (e.subject, e.object)}


def _random_summary(store, request, relevant, budget, triples, blanks, warnings):
    """Name-blind draws from the pinned stream: ``budget`` nodes, then one edge
    at each from ``_incident_edges``; returns the nodes' ledger rows.
    ``relevant`` is a set of member ids of ``store``."""
    rng = XorShift64Star(request.random_seed)
    freq = node_frequencies(store, relevant, exclude=request.seeds)
    pool = sorted(freq, key=Term.sort_key)
    chosen = rng.sample(pool, min(budget, len(pool)))
    if len(chosen) < budget:
        warnings.append(_budget_shortfall(len(chosen), budget))

    # ledger stays sorted by weight so the frequency column is non-increasing
    selected = sorted(((t, freq[t]) for t in chosen), key=_ledger_order)
    for term, _ in selected:
        # edges equal up to variable renaming are one candidate, ordered by a
        # key blind to variable names, so names cannot sway the draw
        candidates = {_name_blind_key(e): e for e in _incident_edges(store, relevant, term)}
        if not candidates:
            warnings.append(SummaryWarning(
                ISOLATED_NODE,
                f"{term.to_sparql()} has no incident edge in the relevant queries",
                term,
            ))
            continue
        keys = sorted(candidates)
        edge = candidates[keys[rng.randrange(len(keys))]]
        if not edge.predicate.concrete:
            warnings.append(SummaryWarning(
                UNRESOLVED_VARIABLE,
                f"sampled edge at {term.to_sparql()} has a variable predicate; omitted",
            ))
            continue
        substitutions: dict[Term, Term] = {}

        # the edge stands for all its renamings, so messages name no variable
        def ground(t, side):
            if t.kind != VARIABLE:
                return t
            if t not in substitutions:
                substitutions[t] = next(blanks)
                warnings.append(SummaryWarning(
                    UNRESOLVED_VARIABLE,
                    f"variable {side} of the sampled edge replaced by blank node",
                    substitutions[t],
                ))
            return substitutions[t]

        triples[TriplePattern(
            ground(edge.subject, "subject"), edge.predicate, ground(edge.object, "object"))] = None
    return selected


def summarize(store: WorkloadStore, request: SummaryRequest) -> Summary:
    """Build a personalized summary of ``store`` for the given request.

    Deterministic for a fixed store and request; the random strategy is a
    pure function of its ``random_seed``.
    """
    if not len(store):
        raise NoRelevantQueries("the workload store is empty")
    relevant, warnings = _relevant_ids(store, request.seeds)
    # an ordered set: each triple once, in first-seen order
    triples: dict[TriplePattern, None] = {}
    strategy = _greedy_summary if request.strategy == ISUMMARY else _random_summary
    rows = strategy(store, request, relevant, request.k - len(request.seeds),
                    triples, _fresh_blanks(store), warnings)
    nodes = [(seed, len(relevant)) for seed in request.seeds] + rows

    # provenance for concrete endpoints that ride in on paths or sampled edges
    ledger = {term for term, _ in nodes}
    flagged = {w.term for w in warnings if w.term is not None}
    for triple in triples:
        for term in (triple.subject, triple.object):
            if term.concrete and term not in ledger and term not in flagged:
                flagged.add(term)
                warnings.append(SummaryWarning(
                    OFF_LEDGER_RESOURCE,
                    f"{term.to_sparql()} appears in the summary outside the node budget",
                    term,
                ))

    return Summary(
        triples=tuple(triples),
        nodes=tuple(nodes),
        warnings=tuple(warnings),
        seeds=request.seeds,
        k=request.k,
        strategy=request.strategy,
    )


def to_ntriples(summary: Summary) -> str:
    return "".join(t.to_ntriples() + "\n" for t in summary.triples)


def to_json_dict(summary: Summary) -> dict:
    return {
        "seeds": [s.to_json() for s in summary.seeds],
        "k": summary.k,
        "strategy": summary.strategy,
        "nodes": [{"term": t.to_json(), "frequency": f} for t, f in summary.nodes],
        "triples": [t.to_json() for t in summary.triples],
        "warnings": [w.to_json() for w in summary.warnings],
    }


def to_json(summary: Summary) -> str:
    return json.dumps(to_json_dict(summary), indent=2, ensure_ascii=False) + "\n"
