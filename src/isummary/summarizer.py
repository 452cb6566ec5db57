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


def _holders(store: WorkloadStore, relevant_ids: Iterable[int], term: Term) -> set[int]:
    """The relevant ids whose queries hold ``term``; they must be member ids of ``store``."""
    return store.term_index.get(term, set()).intersection(relevant_ids)


def link(
    store: WorkloadStore,
    relevant_ids: Iterable[int],
    x: Term,
    visited: Sequence[Term],
) -> PathSignature | None:
    """Most frequent shortest query path linking ``x`` to any visited node.

    Reads only the relevant queries that hold ``x``, each with one path per
    visited node of its graph.  Frequencies accumulate across all of them;
    ties break by shorter length, then least signature.  Returns None when no
    relevant query connects ``x`` to the summary.  ``relevant_ids`` is any
    iterable of member ids of ``store``; a set is read without a copy.
    """
    if not visited:
        raise ValueError("visited set must be non-empty")
    partners = set(visited)
    if x in partners:
        raise ValueError("node to link is already in the summary")
    tally: Counter = Counter()
    for qid in _holders(store, relevant_ids, x):
        for y in store.node_terms(qid) & partners:
            signature = shortest_path(store.graph(qid), x, y)
            if signature is not None:
                tally[signature] += 1
    if not tally:
        return None
    # sort keys only for the signatures tied at the top count
    top = max(tally.values())
    return min((s for s, n in tally.items() if n == top),
               key=lambda s: (len(s.steps), s.sort_key()))


def _most_frequent(counts: Counter) -> Term | None:
    if not counts:
        return None
    return min(counts.items(), key=_ledger_order)[0]


def _fresh_blanks(store: WorkloadStore) -> Iterator[Term]:
    """Blank nodes ``_:u0``, ``_:u1``, … for unresolved variables, skipping
    every blank label the log holds, so a fresh node is never one of the log's."""
    for n in itertools.count():
        term = Term(BLANK, f"u{n}")
        if term not in store.term_index:
            yield term


def resolve_variables(
    path: PathSignature,
    store: WorkloadStore,
    blanks: Iterator[Term] | None = None,
) -> tuple[list[TriplePattern], list[SummaryWarning]]:
    """Turn a path into summary triples, substituting its variables.

    Variable waypoints take the most frequent concrete term seen anywhere in
    the workload at the same structural position (same predicate, same side);
    with no candidate the next fresh blank node from ``blanks`` (by default
    ``_fresh_blanks(store)``) is used and a warning emitted.
    Variable predicates are mined from patterns around the resolved endpoints;
    if nothing matches, the step's triple is omitted with a warning.
    """
    if blanks is None:
        blanks = _fresh_blanks(store)
    warnings: list[SummaryWarning] = []

    # resolve waypoints first: each is constrained by the steps around it
    waypoints: list[Term] = []
    for index, step in enumerate(path.steps):
        term = step.waypoint
        if term.kind != VARIABLE:
            waypoints.append(term)
            continue
        counts: Counter = Counter()
        incoming_side = "object" if step.direction == FORWARD else "subject"
        if step.predicate.concrete:
            counts.update(store.slot_counts(step.predicate, "predicate", incoming_side))
        outgoing_side = None
        if index + 1 < len(path.steps):
            nxt = path.steps[index + 1]
            outgoing_side = "subject" if nxt.direction == FORWARD else "object"
            if nxt.predicate.concrete:
                counts.update(store.slot_counts(nxt.predicate, "predicate", outgoing_side))
        if "subject" in (incoming_side, outgoing_side):
            # the substitution will be written as a subject somewhere
            counts = Counter({t: c for t, c in counts.items() if t.kind != LITERAL})
        chosen = _most_frequent(counts)
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
        waypoints.append(chosen)

    triples: list[TriplePattern] = []
    current = path.endpoints[0]
    for step, waypoint in zip(path.steps, waypoints):
        predicate = step.predicate
        if predicate.kind == VARIABLE:
            source, target = (current, waypoint) if step.direction == FORWARD else (waypoint, current)
            counts = Counter()
            for anchor, side in ((source, "subject"), (target, "object")):
                if anchor.concrete:
                    counts.update(store.slot_counts(anchor, side, "predicate"))
            mined = _most_frequent(counts)
            if mined is None:
                warnings.append(SummaryWarning(
                    UNRESOLVED_VARIABLE,
                    f"variable predicate ?{predicate.lexical} has no workload candidate;"
                    " triple omitted",
                ))
                current = waypoint
                continue
            warnings.append(SummaryWarning(
                RESOLVED_VARIABLE,
                f"predicate ?{predicate.lexical} resolved from workload",
                mined,
            ))
            predicate = mined
        if step.direction == FORWARD:
            triples.append(TriplePattern(current, predicate, waypoint))
        else:
            triples.append(TriplePattern(waypoint, predicate, current))
        current = waypoint
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


def _greedy_summary(store, request, relevant, warnings):
    # an ordered set: each triple once, in first-seen order
    triples: dict[TriplePattern, None] = {}
    blanks = _fresh_blanks(store)
    nodes: list[tuple[Term, int]] = [(seed, len(relevant)) for seed in request.seeds]
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

    budget = request.k - len(request.seeds)
    top = select_top_nodes(store, relevant, budget, exclude=request.seeds)
    if len(top) < budget:
        warnings.append(_budget_shortfall(len(top), budget))
    for term, frequency in top:
        attach(term)
        nodes.append((term, frequency))
    return triples, nodes


def _name_blind_key(edge: TriplePattern) -> tuple:
    """``edge.sort_key()`` with each variable renamed by its first position."""
    names: dict = {}
    return tuple([positional_name(t, names).sort_key() for t in edge])


def _incident_edges(store: WorkloadStore, relevant: Iterable[int], term: Term) -> set:
    """The edges at ``term`` in the graphs of the relevant queries that hold it."""
    return {e for qid in _holders(store, relevant, term)
            for e in store.graph(qid).edges if term in (e.subject, e.object)}


def _random_summary(store, request, relevant, warnings):
    """Name-blind draws from the pinned stream: nodes, then one edge at each from
    ``_incident_edges``; ``relevant`` is a set of member ids of ``store``."""
    rng = XorShift64Star(request.random_seed)
    freq = node_frequencies(store, relevant, exclude=request.seeds)
    pool = sorted(freq, key=Term.sort_key)
    budget = request.k - len(request.seeds)
    chosen = rng.sample(pool, min(budget, len(pool)))
    if len(chosen) < budget:
        warnings.append(_budget_shortfall(len(chosen), budget))

    # ledger stays sorted by weight so the frequency column is non-increasing
    selected = sorted(((t, freq[t]) for t in chosen), key=_ledger_order)
    nodes = [(seed, len(relevant)) for seed in request.seeds] + selected

    triples: dict[TriplePattern, None] = {}
    blanks = _fresh_blanks(store)
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
    return triples, nodes


def summarize(store: WorkloadStore, request: SummaryRequest) -> Summary:
    """Build a personalized summary of ``store`` for the given request.

    Deterministic for a fixed store and request; the random strategy is a
    pure function of its ``random_seed``.
    """
    if not len(store):
        raise NoRelevantQueries("the workload store is empty")
    relevant, warnings = _relevant_ids(store, request.seeds)
    if request.strategy == ISUMMARY:
        triples, nodes = _greedy_summary(store, request, relevant, warnings)
    else:
        triples, nodes = _random_summary(store, request, relevant, warnings)

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
