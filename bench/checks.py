"""Output checks, run after the timed phase in untraced and traced runs alike.

Each check compares the program's serialized outputs with a computation made
apart from the program (``oracle``), with what the generator recorded, or
with a property the method must have.  None compares against a stored copy
of earlier output.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
from collections import defaultdict

import oracle
from oracle import sort_key


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Output:
    """One request's serialized summary: N-Triples text and JSON report."""

    __slots__ = ("request", "ntriples", "report", "_parsed")

    def __init__(self, request: dict, ntriples: str, report: str):
        self.request = request
        self.ntriples = ntriples
        self.report = report
        self._parsed = None

    @property
    def parsed(self) -> dict:
        if self._parsed is None:
            self._parsed = json.loads(self.report)
        return self._parsed

    def ledger(self) -> list[tuple[tuple, int]]:
        return [(oracle.term_from_json(n["term"]), n["frequency"]) for n in self.parsed["nodes"]]

    def warning_kinds(self) -> list[str]:
        return [w["kind"] for w in self.parsed["warnings"]]


# -- summarize-100k --------------------------------------------------------------

def check_load(n_queries: int, rejected_count: int, records, expected_rejected: int) -> None:
    _require(rejected_count == expected_rejected,
             f"rejected_count {rejected_count} != generated non-conforming {expected_rejected}")
    _require(n_queries == len(records),
             f"{n_queries} queries loaded, {len(records)} generated as accepted")


def check_ledgers(outputs) -> None:
    """Seed weight, ledger order and budget shortfall of every output."""
    for out in outputs:
        req = out.request
        ledger = out.ledger()
        seed = tuple(req["seed"])
        _require(ledger[0] == (seed, req["weight"]),
                 f"seed ledger entry {ledger[0]} != ({seed}, {req['weight']}) for {req}")
        rest = [(-f, sort_key(t)) for t, f in ledger[1:]]
        _require(rest == sorted(rest), f"ledger not ordered by (frequency desc, term asc) for {req}")
        short = len(ledger) < req["k"]
        flagged = "BudgetShortfall" in out.warning_kinds()
        _require(short == flagged,
                 f"ledger of {len(ledger)} for k={req['k']} but BudgetShortfall={flagged} for {req}")


def check_monotone(outputs) -> int:
    """Greedy triples at a smaller k are a subset of those at a larger k, per seed."""
    by_seed = defaultdict(dict)
    for out in outputs:
        if out.request["strategy"] == "isummary":
            by_seed[tuple(out.request["seed"])][out.request["k"]] = set(out.ntriples.splitlines())
    pairs = 0
    for seed, by_k in by_seed.items():
        ks = sorted(by_k)
        for small, large in zip(ks, ks[1:]):
            pairs += 1
            _require(by_k[small] <= by_k[large],
                     f"greedy triples of {seed} at k={small} are not a subset of those at k={large}")
    return pairs


def _key(request: dict):
    return (tuple(request["seed"]), request["k"], request["strategy"], request["random_seed"])


def check_repeats(outputs, reruns) -> int:
    """Identical requests give identical bytes, within the run and when rerun."""
    first = {}
    compared = 0
    for out in list(outputs) + list(reruns):
        key = _key(out.request)
        if key in first:
            compared += 1
            _require((out.ntriples, out.report) == first[key],
                     f"repeated request {out.request} gave different bytes")
        else:
            first[key] = (out.ntriples, out.report)
    return compared


class RecordIndex:
    """The generator's accepted records with an inverted index of their concrete terms."""

    def __init__(self, records):
        self.records = records
        self.containing = defaultdict(list)
        for rid, patterns in enumerate(records):
            for term in oracle.term_set(patterns):
                self.containing[term].append(rid)


def check_frequencies(outputs, index: RecordIndex) -> None:
    """Ledger frequencies against the benchmark's own type-collapse recount."""
    for out in outputs:
        req = out.request
        seed = tuple(req["seed"])
        relevant = index.containing[seed]
        freq = oracle.node_frequencies(index.records, relevant, exclude=(seed,))
        ledger = out.ledger()[1:]
        if req["strategy"] == "isummary":
            expected = oracle.ranked(freq)[:req["k"] - 1]
            _require(ledger == expected,
                     f"greedy ledger {ledger[:3]}... != recount {expected[:3]}... for {req}")
        else:
            for term, frequency in ledger:
                _require(freq.get(term) == frequency,
                         f"random ledger weight of {term} is {frequency}, recount {freq.get(term)}")


# -- long-paths ----------------------------------------------------------------------

def expected_path_ntriples(path: dict) -> str:
    """N-Triples of a chain summary: the canonical path, variables as fresh blanks in order."""
    current = tuple(path["first"])
    lines = []
    steps = path["steps"]
    for index, (predicate, forward) in enumerate(steps):
        waypoint = tuple(path["last"]) if index == len(steps) - 1 else ("blank", f"u{index}", None)
        s, o = (current, waypoint) if forward else (waypoint, current)
        lines.append(f"{oracle.ntriples_term(s)} {oracle.ntriples_term(tuple(predicate))}"
                     f" {oracle.ntriples_term(o)} .\n")
        current = waypoint
    return "".join(lines)


def check_chains(outputs, pairs) -> None:
    for out in outputs:
        pair = pairs[out.request["pair"]]
        _require(len(pair["path"]["steps"]) == 2 * pair["depth"], "plan path length")
        _require(out.ntriples == expected_path_ntriples(pair["path"]),
                 f"chain of depth {pair['depth']} not linked through its canonical path")
        seed = tuple(pair["ends"][out.request["seed_end"]])
        other = tuple(pair["ends"][1 - out.request["seed_end"]])
        _require(out.ledger() == [(seed, pair["queries"]), (other, pair["queries"])],
                 f"chain ledger {out.ledger()} for pair {out.request['pair']}")


# -- evaluate-50k --------------------------------------------------------------------

def check_rows(rows, warnings, config: dict, k_values, strategies) -> None:
    """Row count, coverage formula and range, and greedy above random per k."""
    shortfall = 0
    for w in warnings:
        if w.startswith("SeedSamplingShortfall"):
            drew, of = w.split("drew ")[1].split(" seeds")[0].split(" of ")
            shortfall += int(of) - int(drew)
    cells = (config["folds"] * config["sample_seeds"] - shortfall) * len(k_values) * len(strategies)
    skipped = sum(1 for w in warnings if w.startswith("SkippedCell"))
    _require(len(rows) == cells - skipped,
             f"{len(rows)} rows for {cells} cells and {skipped} skipped")
    for row in rows:
        for value in (row.node_cov, row.edge_cov, row.coverage):
            _require(0.0 <= value <= 1.0, f"coverage value {value} outside [0, 1]")
        combined = config["w_node"] * row.node_cov + config["w_edge"] * row.edge_cov
        _require(abs(row.coverage - combined) <= 1e-9,
                 f"coverage {row.coverage} != w_node*node + w_edge*edge = {combined}")
    for k in k_values:
        means = {}
        for strategy in strategies:
            values = [r.coverage for r in rows if r.k == k and r.strategy == strategy]
            _require(bool(values), f"no rows for k={k} {strategy}")
            means[strategy] = sum(values) / len(values)
        _require(means["isummary"] > means["random"],
                 f"greedy mean {means['isummary']} not above random {means['random']} at k={k}")


def check_rescored(row, summary_nodes, summary_triples, test_records, config: dict) -> None:
    """One row against the brute-force scorer, on the generator's own test records."""
    seed = (row.seed.kind, row.seed.lexical, row.seed.datatype_or_lang)
    n, node, edge, combined = oracle.brute_coverage(
        summary_nodes, summary_triples, test_records, (seed,), config["w_node"], config["w_edge"])
    _require(n == row.n, f"row n={row.n}, brute force {n}")
    for mine, theirs, label in ((node, row.node_cov, "node"), (edge, row.edge_cov, "edge"),
                                (combined, row.coverage, "coverage")):
        _require(abs(mine - theirs) <= 1e-9, f"row {label}={theirs}, brute force {mine}")
