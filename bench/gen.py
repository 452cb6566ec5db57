"""Input generator: writes each workload's log, side record and plan for one seed.

Run as ``python3 bench/gen.py --workload NAME --seed N --data DIR``.  It
writes into a subdirectory of DIR, named after the workload and seed:

* ``log.txt`` -- the raw-lines query log the program loads;
* ``side.json`` -- what the generator knows about the log apart from the
  program: the patterns of every record it expects to be accepted (terms as
  ``[kind, lexical, datatype_or_lang]``), and how many records it made
  non-conforming;
* ``plan.json`` -- the operations of the timed phase and what the checks
  expect of them.

Everything is a pure function of the seed (and of the sizes, which the tests
shrink).  The benchmark runs this in its own process, before any timing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from oracle import IRI, LITERAL, RDF_TYPE, VARIABLE, Stream, collapse, sort_key

HERE = Path(__file__).resolve().parent
BASE = "http://example.org/isummary/"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
_PREFIXES = (
    f"PREFIX ex: <{BASE}> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
)

SUMMARIZE = "summarize-100k"
EVALUATE = "evaluate-50k"
LONG_PATHS = "long-paths"
WORKLOADS = (SUMMARIZE, EVALUATE, LONG_PATHS)

# summarize-100k: one synth log for every seed; request slots per round, k and
# strategy cycling with period 15
SUMMARIZE_LOG_SEED = 1
ROUND_SLOTS = 15
ROUNDS = 64
K_CYCLE = (5, 10, 15)

# evaluate-50k: the configuration of acceptance criterion 6
EVAL_LOG_SEED = 1
EVAL_CONFIG = {"folds": 10, "sample_seeds": 10, "split_ratio": 0.8,
               "w_node": 0.5, "w_edge": 0.5}
EVAL_K = (5, 10, 15)
EVAL_STRATEGIES = ("isummary", "random")
EVAL_CALLS = 12
EVAL_RNG_SEED = 42

# long-paths: chain depths of one round (fixed, so every seed has the same mix)
CHAIN_DEPTHS = (12, 10, 10, 10, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5)
QUERIES_PER_PAIR = 2
PAIR_SETS = 2
FILLER_QUERIES = 3000


# -- synthetic plain records ------------------------------------------------------

def _synth_queries(n_queries: int, rng_seed: int):
    """The package's own Zipf generator: text of each record."""
    from isummary.synth import SyntheticSpec, iter_queries
    return list(iter_queries(SyntheticSpec(n_queries=n_queries, rng_seed=rng_seed)))


def _synth_patterns(text: str):
    """Patterns of one synth one-liner, read by the generator's own rules."""
    body = text[text.index("{") + 1:text.rindex("}")].strip()
    patterns = []
    for part in body.split(" . "):
        s, p, o = part.split(" ")
        patterns.append((_synth_term(s), RDF_TYPE if p == "a" else _synth_term(p), _synth_term(o)))
    return patterns


def _synth_term(token: str):
    if token.startswith("?"):
        return (VARIABLE, token[1:], None)
    if token.startswith('"'):
        return (LITERAL, token[1:-1], None)
    return (IRI, BASE + token, None)


# -- rich-syntax rendering ---------------------------------------------------------

def _render(term, rng: Stream, predicate: bool = False) -> str:
    kind, lexical, extra = term
    if kind == VARIABLE:
        return ("$" if rng.random() < 0.2 else "?") + lexical
    if term == RDF_TYPE:
        return ("a", "rdf:type", f"<{lexical}>")[rng.randrange(3)] if predicate else "rdf:type"
    if kind == IRI:
        local = lexical[len(BASE):]
        return (f"ex:{local}", f"<{lexical}>", local)[rng.randrange(3)]
    if extra is None:
        return f"'{lexical}'" if rng.random() < 0.5 else f'"{lexical}"'
    if extra.startswith("@"):
        return f'"{lexical}"{extra}'
    return f'"{lexical}"^^xsd:integer' if rng.random() < 0.5 else f'"{lexical}"^^<{extra}>'


def _render_block(patterns, rng: Stream) -> str:
    """Patterns sharing one subject, with ';' and ',' sugar."""
    parts = [_render(patterns[0][0], rng)]
    for index, (_, p, o) in enumerate(patterns):
        same_predicate = index > 0 and patterns[index - 1][1] == p
        if index == 0:
            parts.append(f"{_render(p, rng, True)} {_render(o, rng)}")
        elif same_predicate:
            parts.append(f", {_render(o, rng)}")
        else:
            parts.append(f" ; {_render(p, rng, True)} {_render(o, rng)}")
    text = parts[0] + " " + "".join(parts[1:])
    return text + (" ;" if rng.random() < 0.1 else "")


_FILTERS = (
    "FILTER (?v0 != ex:Nothing)",
    'FILTER regex(str(?v0), "^x")',
    "FILTER NOT EXISTS { ?v0 ex:hidden ?hidden }",
    "FILTER (lang(?label) = 'en')",
)


def _rich_record(patterns, rng: Stream, index: int):
    """One record in the richer accepted syntax; returns (text, patterns denoted)."""
    patterns = list(patterns)
    subject = patterns[0][0]
    if rng.random() < 0.5:
        patterns.append((subject, (IRI, BASE + "label", None), (LITERAL, f"label {index % 50}", "@en")))
    if rng.random() < 0.3:
        rank = (LITERAL, str(index % 7), XSD_INTEGER if rng.random() < 0.5 else None)
        patterns.append((subject, (IRI, BASE + "rank", None), rank))

    by_subject = {}
    for pattern in patterns:
        by_subject.setdefault(pattern[0], []).append(pattern)
    blocks = []
    for group in by_subject.values():
        group.sort(key=lambda t: sort_key(t[1]))
        blocks.append(_render_block(group, rng))

    items = []
    i = 0
    while i < len(blocks):
        roll = rng.random()
        if roll < 0.2:
            items.append(f"OPTIONAL {{ {blocks[i]} }}")
        elif roll < 0.35 and i + 1 < len(blocks):
            items.append(f"{{ {blocks[i]} }} UNION {{ {blocks[i + 1]} }}")
            i += 1
        elif roll < 0.45:
            items.append(f"{{ {blocks[i]} . }}")
        else:
            items.append(blocks[i])
        if rng.random() < 0.25:
            items.append(_FILTERS[rng.randrange(len(_FILTERS))])
        i += 1
    select = ("SELECT * ", "SELECT DISTINCT ?v0 ", "select ?v0 ")[rng.randrange(3)]
    tail = " LIMIT 100" if rng.random() < 0.3 else ""
    text = f"{_PREFIXES}{select}WHERE {{ {' . '.join(items)} }}{tail}"
    return text, patterns


def _rejected_record(patterns, rng: Stream) -> str:
    """A record the parser must reject: property path, CONSTRUCT or subquery."""
    plain = " . ".join(
        f"{_render(s, rng)} {_render(p, rng, True)} {_render(o, rng)}" for s, p, o in patterns
    )
    form = rng.randrange(3)
    if form == 0:
        s, p, o = patterns[-1]
        path = ("ex:rel0/ex:rel1", "ex:rel0+", "^ex:rel0", "(ex:rel0|ex:rel1)", "ex:rel0*")
        head = " . ".join(
            f"{_render(a, rng)} {_render(b, rng, True)} {_render(c, rng)}" for a, b, c in patterns[:-1]
        )
        last = f"{_render(s, rng)} {path[rng.randrange(len(path))]} ?pathEnd"
        body = f"{head} . {last}" if head else last
        return f"{_PREFIXES}SELECT ?v0 WHERE {{ {body} }}"
    if form == 1:
        return f"{_PREFIXES}CONSTRUCT {{ ?v0 ex:seen ?v0 }} WHERE {{ {plain} }}"
    return f"{_PREFIXES}SELECT * WHERE {{ ?v0 ex:rel0 ?outer . {{ SELECT ?v0 WHERE {{ {plain} }} }} }}"


# -- output --------------------------------------------------------------------

class _TermTable:
    def __init__(self):
        self.ids = {}
        self.terms = []

    def id(self, term) -> int:
        found = self.ids.get(term)
        if found is None:
            found = self.ids[term] = len(self.terms)
            self.terms.append(list(term))
        return found

    def encode(self, patterns):
        return [[self.id(s), self.id(p), self.id(o)] for s, p, o in patterns]


def _write(out: Path, lines, records, rejected: int, plan: dict) -> None:
    table = _TermTable()
    encoded = [table.encode(r) for r in records]
    with open(out / "log.txt", "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    with open(out / "side.json", "w", encoding="utf-8") as fh:
        json.dump({"terms": table.terms, "records": encoded, "rejected": rejected}, fh)
    with open(out / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)


def load_side(path):
    """(records as lists of term-tuple patterns, rejected count) from ``side.json``."""
    with open(path, encoding="utf-8") as fh:
        side = json.load(fh)
    terms = [tuple(t) for t in side["terms"]]
    records = [[(terms[s], terms[p], terms[o]) for s, p, o in r] for r in side["records"]]
    return records, side["rejected"]


# -- workloads -----------------------------------------------------------------

def _containing_counts(records):
    counts = {}
    for patterns in records:
        for term in {t for pattern in patterns for t in pattern if t[0] != VARIABLE}:
            counts[term] = counts.get(term, 0) + 1
    return counts


def summarize_inputs(seed: int, out: Path, n_queries: int = 100_000,
                     rounds: int = ROUNDS, slots: int = ROUND_SLOTS) -> None:
    """A Zipf log with 10% rich-syntax records and 2% records the parser rejects.

    The synth log is the same for every seed (with a log drawn per seed, the
    cost of the few hottest classes moved the 90th-percentile latency by a
    quarter between runs); the seed picks the rich and rejected records,
    their syntax, and the requests.  Requests: seeds drawn by query
    popularity; k cycles through 5, 10, 15 and one request in five uses the
    random strategy.
    """
    rng = Stream(seed)
    texts = _synth_queries(n_queries, rng_seed=SUMMARIZE_LOG_SEED)
    n_rich, n_rejected = n_queries // 10, n_queries // 50
    order = list(range(n_queries))
    rng.shuffle(order)
    rich_at = set(order[:n_rich])
    reject_before = sorted(rng.randrange(n_queries) for _ in range(n_rejected))

    lines, records = [], []
    r = 0
    for index, text in enumerate(texts):
        patterns = _synth_patterns(text)
        while r < len(reject_before) and reject_before[r] == index:
            lines.append(_rejected_record(patterns, rng))
            r += 1
        if index in rich_at:
            text, patterns = _rich_record(patterns, rng, index)
        lines.append(text)
        records.append(patterns)

    counts = _containing_counts(records)
    pool = set()
    for patterns in records:
        pool |= collapse(patterns)[0]
    pool = sorted(pool, key=lambda t: (-counts[t], sort_key(t)))
    cumulative, total = [], 0
    for term in pool:
        total += counts[term]
        cumulative.append(total)

    # one systematic sample of every slot, dealt round-robin: each round is
    # itself a systematic sample, so every round has the same make-up
    count = rounds * slots
    offset = rng.random()
    drawn = [pool[bisect.bisect_right(cumulative, (i + offset) / count * total)]
             for i in range(count)]
    plan_rounds = []
    for r in range(rounds):
        batch = []
        for slot in range(slots):
            term = drawn[slot * rounds + r]
            cycle = slot + r  # rotate k and strategy so hot seeds meet every k
            random_strategy = (cycle // 3) % 5 == 4
            batch.append({
                "seed": list(term),
                "k": K_CYCLE[cycle % 3],
                "strategy": "random" if random_strategy else "isummary",
                "random_seed": rng.next_u64() if random_strategy else 0,
                "weight": counts[term],
            })
        rng.shuffle(batch)
        plan_rounds.append(batch)
    # at least 105 requests, so that ten or more lie beyond the 90th percentile
    plan = {"base_prefix": BASE, "rounds": plan_rounds, "min_rounds": -(-105 // slots)}
    _write(out, lines, records, n_rejected, plan)


def evaluate_inputs(seed: int, out: Path, n_queries: int = 50_000, calls: int = EVAL_CALLS,
                    config: dict | None = None) -> None:
    """The criterion-6 log (synth seed 1) and configuration; call i uses rng_seed 42 + i.

    Nothing here depends on ``seed``: each call already samples 100 seed terms
    at random, and drawing other rng_seeds per run made the latency tail of
    the sampled terms swing by half from run to run.
    """
    texts = _synth_queries(n_queries, rng_seed=EVAL_LOG_SEED)
    records = [_synth_patterns(t) for t in texts]
    plan = {
        "base_prefix": BASE,
        "config": dict(EVAL_CONFIG if config is None else config),
        "k": list(EVAL_K),
        "strategies": list(EVAL_STRATEGIES),
        "rng_seeds": [EVAL_RNG_SEED + i for i in range(calls)],
        "min_rounds": 2,
    }
    _write(out, texts, records, 0, plan)


def _chain(rng: Stream, tag: str, depth: int):
    """One pair's chain of diamonds: (ends, edge list, expected canonical path).

    Diamond i joins a_i to a_(i+1) through two middle nodes; each of its four
    edges has its own predicate and a fixed written orientation.  The least
    signature starts at the end with the smaller IRI and, at every diamond,
    takes the branch whose first predicate is smaller.
    """
    ends = [(IRI, f"{BASE}n{rng.next_u64():016x}{tag}", None) for _ in range(2)]
    joins = ["start"] + [f"a{i}" for i in range(1, depth)] + ["end"]
    diamonds = []
    for i in range(depth):
        branches = []
        for side in "bc":
            steps = []
            for leg in range(2):
                predicate = (IRI, f"{BASE}p{rng.next_u64():016x}", None)
                steps.append((predicate, rng.random() < 0.5))
            branches.append((f"{side}{i}", steps))
        diamonds.append(branches)

    def node(name):
        return ends[0] if name == "start" else ends[1] if name == "end" else (VARIABLE, name, None)

    edges = []
    for i, branches in enumerate(diamonds):
        for middle, steps in branches:
            for (predicate, reverse), (a, b) in zip(steps, ((joins[i], middle), (middle, joins[i + 1]))):
                source, target = (node(b), node(a)) if reverse else (node(a), node(b))
                edges.append((source, predicate, target))

    # expected path, walked from the smaller end: list of (predicate, forward)
    from_start = sort_key(ends[0]) < sort_key(ends[1])
    walk = []
    order = diamonds if from_start else diamonds[::-1]
    for branches in order:
        options = []
        for _, steps in branches:
            legs = [(p, not rev) for p, rev in steps]
            if not from_start:
                legs = [(p, not fwd) for p, fwd in legs[::-1]]
            options.append(legs)
        walk.extend(min(options, key=lambda legs: sort_key(legs[0][0])))
    first = ends[0] if from_start else ends[1]
    last = ends[1] if from_start else ends[0]
    return ends, edges, {"first": list(first), "last": list(last),
                         "steps": [[list(p), fwd] for p, fwd in walk]}


def long_paths_inputs(seed: int, out: Path, depths=CHAIN_DEPTHS, pair_sets: int = PAIR_SETS,
                      per_pair: int = QUERIES_PER_PAIR, filler: int = FILLER_QUERIES) -> None:
    """Chains of diamonds, several queries per pair of ends, plus a Zipf filler."""
    rng = Stream(seed)
    lines, records = [], []
    pairs = []
    for set_index in range(pair_sets):
        for slot, depth in enumerate(depths):
            ends, edges, path = _chain(rng, f"s{set_index}x{slot}", depth)
            for q in range(per_pair):
                rename = f"q{q}_"
                patterns = [
                    tuple((VARIABLE, rename + t[1], None) if t[0] == VARIABLE else t for t in e)
                    for e in edges
                ]
                rng.shuffle(patterns)
                if rng.random() < 0.5:
                    patterns.append(((VARIABLE, rename + "a1", None),
                                     (IRI, BASE + "dangling", None), (VARIABLE, rename + "z", None)))
                body = " . ".join(" ".join(_render(t, rng, predicate=(i == 1)) for i, t in enumerate(p))
                                  for p in patterns)
                lines.append(f"{_PREFIXES}SELECT * WHERE {{ {body} }}")
                records.append(patterns)
            pairs.append({"depth": depth, "ends": [list(e) for e in ends], "path": path,
                          "queries": per_pair})
    filler_texts = _synth_queries(filler, rng_seed=seed) if filler else []
    for text in filler_texts:
        lines.append(text)
        records.append(_synth_patterns(text))

    plan_rounds = []
    for r in range(ROUNDS):
        base = (r % pair_sets) * len(depths)
        batch = [{"pair": base + slot, "seed_end": rng.randrange(2)} for slot in range(len(depths))]
        rng.shuffle(batch)
        plan_rounds.append(batch)
    plan = {"base_prefix": BASE, "pairs": pairs, "rounds": plan_rounds, "k": 2,
            "min_rounds": -(-100 // len(depths))}
    _write(out, lines, records, 0, plan)


GENERATORS = {SUMMARIZE: summarize_inputs, EVALUATE: evaluate_inputs, LONG_PATHS: long_paths_inputs}


def ensure_inputs(workload: str, seed: int, data_dir: Path) -> Path:
    """Directory holding the inputs of (workload, seed); generated once per seed.

    Inputs of other seeds (or generator versions) of the same workload are
    removed, so the cache holds one seed per workload.
    """
    # the name carries a digest of the generator, so edited generators never reuse stale inputs
    digest = hashlib.sha256(b"".join(
        (HERE / name).read_bytes() for name in ("gen.py", "oracle.py"))).hexdigest()[:12]
    target = data_dir / f"{workload}-seed{seed}-{digest}"
    if (target / "plan.json").exists():
        return target
    data_dir.mkdir(parents=True, exist_ok=True)
    for stale in data_dir.glob(f"{workload}-seed*"):
        shutil.rmtree(stale, ignore_errors=True)
    partial = data_dir / f".partial-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir()
    GENERATORS[workload](seed, partial)
    os.replace(partial, target)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True, help="cache directory for generated inputs")
    args = parser.parse_args(argv)
    print(ensure_inputs(args.workload, args.seed, Path(args.data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
