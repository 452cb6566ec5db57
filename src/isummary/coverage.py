"""Coverage scoring of summaries against test queries, and the fold protocol.

A test query's coverage is the weighted average of the fraction of its
concrete nodes present in the summary and the fraction of its edges
instantiated by a summary triple; the report averages over the test queries
that contain the seed(s).  One mean, ``_mean``, gives that average and each
evaluation row's node and edge means from the same per-query rows.
"""

from __future__ import annotations

import csv
import hashlib
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rng import XorShift64Star
from .summarizer import (
    NoRelevantQueries,
    Summary,
    SummaryRequest,
    node_frequencies,
    summarize,
)
from .terms import Term
from .workload import WorkloadStore

NO_MATCHING_TEST_QUERIES = "NoMatchingTestQueries"
SEED_SAMPLING_SHORTFALL = "SeedSamplingShortfall"
SKIPPED_CELL = "SkippedCell"


class InsufficientWorkload(Exception):
    """A fold's train or test part came out empty."""


@dataclass(frozen=True)
class CoverageConfig:
    w_node: float = 0.5
    w_edge: float = 0.5
    split_ratio: float = 0.8
    folds: int = 10
    sample_seeds: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.w_node <= 1.0 and 0.0 <= self.w_edge <= 1.0):
            raise ValueError("coverage weights must lie in [0, 1]")
        if abs(self.w_node + self.w_edge - 1.0) > 1e-9:
            raise ValueError("coverage weights must sum to 1")
        if not (0.0 < self.split_ratio < 1.0):
            raise ValueError("split_ratio must lie strictly between 0 and 1")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")
        if self.sample_seeds < 1:
            raise ValueError("sample_seeds must be >= 1")


@dataclass(frozen=True)
class FoldStats:
    fold_means: tuple[float, ...]
    mean: float
    std: float


@dataclass(frozen=True)
class CoverageReport:
    per_query: tuple[tuple[int, float, float, float], ...]
    mean: float
    n: int
    warnings: tuple[str, ...] = ()


def _edge_index(summary: Summary) -> dict[Term, list[tuple[Term, Term]]]:
    index: dict[Term, list[tuple[Term, Term]]] = {}
    for triple in summary.triples:
        index.setdefault(triple.predicate, []).append((triple.subject, triple.object))
    return index


def coverage(
    summary: Summary,
    test_store: WorkloadStore,
    seeds: Sequence[Term],
    config: CoverageConfig,
) -> CoverageReport:
    """Score ``summary`` against every test query containing all seeds.

    A query edge counts as covered when some summary triple has the same
    predicate and neither concrete endpoint of the query edge disagrees with
    the triple's corresponding endpoint; query-side variables match anything.
    """
    universe = {term for term, _ in summary.nodes}
    for triple in summary.triples:
        universe.update(triple.terms())
    by_predicate = _edge_index(summary)

    per_query = []
    for qid in test_store.filter(seeds):
        nodes = test_store.node_terms(qid)
        edges = [e for e in test_store.graph(qid).edges if e.predicate.concrete]
        node_fraction = (
            sum(1 for n in nodes if n in universe) / len(nodes) if nodes else 0.0
        )
        covered = 0
        for edge in edges:
            for subject, obj in by_predicate.get(edge.predicate, ()):
                if edge.subject.concrete and edge.subject != subject:
                    continue
                if edge.object.concrete and edge.object != obj:
                    continue
                covered += 1
                break
        edge_fraction = covered / len(edges) if edges else 0.0
        combined = config.w_node * node_fraction + config.w_edge * edge_fraction
        per_query.append((qid, node_fraction, edge_fraction, combined))

    n = len(per_query)
    warnings = () if n else (NO_MATCHING_TEST_QUERIES,)
    return CoverageReport(tuple(per_query), _mean(per_query, 3), n, warnings)


def _mean(rows, column: int) -> float:
    """The mean of ``column`` over the per-query ``rows``, 0.0 for none."""
    return sum(row[column] for row in rows) / len(rows) if rows else 0.0


@dataclass(frozen=True)
class EvalRow:
    fold: int
    seed: Term
    k: int
    strategy: str
    n: int
    node_cov: float
    edge_cov: float
    coverage: float


@dataclass(frozen=True)
class EvaluationResult:
    rows: tuple[EvalRow, ...]
    fold_stats: FoldStats
    warnings: tuple[str, ...] = ()


def _derive_seed(rng_seed: int, fold: int, seed_term: Term, k: int, strategy: str) -> int:
    """Stable 64-bit stream seed for one (fold, seed, k, strategy) cell."""
    tag = f"{rng_seed}|{fold}|{seed_term.to_sparql()}|{k}|{strategy}"
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


class _SeedPool:
    """``order`` without the terms at the sorted positions ``dropped``: a
    read-only sequence whose reads bisect the dropped positions."""

    __slots__ = ("_order", "_shifts", "_len")

    def __init__(self, order: list[Term], dropped: list[int]):
        self._order = order
        # shifts[m]: the kept positions before dropped[m], ascending
        self._shifts = [d - m for m, d in enumerate(dropped)]
        self._len = len(order) - len(dropped)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Term:
        if not 0 <= i < self._len:
            raise IndexError(i)
        # the pool's i-th term follows exactly the dropped positions m with shifts[m] <= i
        return self._order[i + bisect_right(self._shifts, i)]


def _node_holders(store: WorkloadStore, counts: Counter,
                  order: list[Term]) -> list[Sequence[int]]:
    """For each term of ``order``, the ids of the member queries holding it
    as a node, ascending; ``counts`` are the store's node frequencies.

    Every node holder of a term is in its ``posting``, so a posting as long
    as the term's count is its node holders, with no copy on a root.  Only a
    term that is a predicate somewhere has a longer one, filtered by
    ``node_terms``.
    """
    node_terms = store.node_terms
    holders = []
    for term in order:
        posting = store.posting(term)
        if len(posting) != counts[term]:
            posting = [qid for qid in posting if term in node_terms(qid)]
        holders.append(posting)
    return holders


def _seed_pool(order: list[Term], holders: list[Sequence[int]],
               test_ids: set[int]) -> _SeedPool:
    """The node terms of the fold's train part, in sort order.

    ``order`` is the node terms of the whole store that the train and test
    parts split, in sort order, ``holders[i]`` the ids of the store's
    queries holding ``order[i]`` as a node, ascending (never empty; see
    ``_node_holders``), and ``test_ids`` the test part's ids.  A term is a
    train node exactly when some holder is not a test id, so the pool drops
    term ``i`` when all its holders are test ids.  The test stops at the
    first holder that is not one, in C: a term whose first holder is a
    train id costs one lookup.
    """
    all_test = test_ids.issuperset
    return _SeedPool(order, [i for i, ids in enumerate(holders) if all_test(ids)])


def _sample_seed_terms(pool: Sequence[Term], test: WorkloadStore, count: int,
                       rng: XorShift64Star) -> list[Term]:
    """At most ``count`` seed terms drawn from ``pool`` (see ``_seed_pool``)
    that occur in test queries."""
    if not pool:
        return []
    chosen: list[Term] = []
    picked = set()
    attempts = 0
    limit = 50 * count
    while len(chosen) < count and attempts < limit:
        attempts += 1
        candidate = pool[rng.randrange(len(pool))]
        if candidate in picked or not test.filter((candidate,)):
            continue
        picked.add(candidate)
        chosen.append(candidate)
    return chosen


def evaluate(
    store: WorkloadStore,
    config: CoverageConfig,
    k_values: Sequence[int],
    strategies: Sequence[str],
) -> EvaluationResult:
    """Run the shuffled train/test fold protocol over the whole workload.

    Per fold: shuffle ids with ``rng_seed + fold``, split by ``split_ratio``,
    sample seed terms present on both sides, then score every
    (seed, k, strategy) cell.  Rows come back sorted so parallel or repeated
    runs emit identical bytes.

    The shuffle runs only as far as the test part (``shuffle_tail``): the
    train part is a view in the store's order, so only its member set and the
    rng state that seed sampling continues from matter.  Apart from its
    summaries, a fold costs its test part: ``store.split`` makes both views
    from the test ids, and ``_seed_pool`` reads each node term's holders
    (``_node_holders``), listed once per call from the store's postings.
    """
    if not k_values:
        raise ValueError("k_values must be non-empty")
    all_ids = [q.id for q in store.queries]
    counts = node_frequencies(store, all_ids)
    order = sorted(counts, key=Term.sort_key)
    holders = _node_holders(store, counts, order)
    rows: list[EvalRow] = []
    warnings: list[str] = []
    fold_means: list[float] = []

    for fold in range(config.folds):
        rng = XorShift64Star(config.rng_seed + fold)
        ids = list(all_ids)
        cut = int(len(ids) * config.split_ratio)
        rng.shuffle_tail(ids, len(ids) - cut)
        if not 0 < cut < len(ids):
            raise InsufficientWorkload(f"fold {fold} has an empty train or test part")
        test_ids = set(ids[cut:])
        train, test = store.split(test_ids)
        seeds = _sample_seed_terms(_seed_pool(order, holders, test_ids), test,
                                   config.sample_seeds, rng)
        if len(seeds) < config.sample_seeds:
            warnings.append(f"{SEED_SAMPLING_SHORTFALL}: drew {len(seeds)} of"
                            f" {config.sample_seeds} seeds in fold {fold}")

        fold_rows: list[EvalRow] = []
        for seed in seeds:
            for k in k_values:
                for strategy in strategies:
                    request = SummaryRequest(
                        (seed,), k, strategy,
                        random_seed=_derive_seed(config.rng_seed, fold, seed, k, strategy),
                    )
                    try:
                        summary = summarize(train, request)
                    except NoRelevantQueries:
                        warnings.append(
                            f"{SKIPPED_CELL}: fold {fold} seed {seed.to_sparql()}"
                            f" k={k} {strategy}"
                        )
                        continue
                    report = coverage(summary, test, (seed,), config)
                    fold_rows.append(EvalRow(
                        fold, seed, k, strategy, report.n, _mean(report.per_query, 1),
                        _mean(report.per_query, 2), report.mean,
                    ))
        if fold_rows:
            fold_means.append(sum(r.coverage for r in fold_rows) / len(fold_rows))
        rows.extend(fold_rows)

    rows.sort(key=lambda r: (r.fold, r.seed.sort_key(), r.k, r.strategy))
    overall = sum(fold_means) / len(fold_means) if fold_means else 0.0
    variance = (
        sum((m - overall) ** 2 for m in fold_means) / len(fold_means) if fold_means else 0.0
    )
    stats = FoldStats(tuple(fold_means), overall, math.sqrt(variance))
    return EvaluationResult(tuple(rows), stats, tuple(warnings))


CSV_HEADER = ("fold", "seed", "k", "strategy", "n", "node_cov", "edge_cov", "coverage")


def write_csv(rows: Iterable[EvalRow], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.fold,
            row.seed.to_sparql(),
            row.k,
            row.strategy,
            row.n,
            f"{row.node_cov:.6f}",
            f"{row.edge_cov:.6f}",
            f"{row.coverage:.6f}",
        ])
