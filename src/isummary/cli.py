"""Command-line entry point: summarize, evaluate, oracle and synth commands.

Exit codes: 0 on success, 2 on usage errors, 3 on data errors (the error
name is printed on stderr).  ``_usage`` makes the ValueError of any option
check (log format, fold protocol, synth spec) a usage error, before any load.
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import os
import sys
from pathlib import Path

from . import steiner, summarizer, synth, workload
from .coverage import CoverageConfig, InsufficientWorkload, evaluate, write_csv
from .parser import ParseError, parse_term
from .rng import XorShift64Star

DATA_ERRORS = (
    workload.IoError,
    workload.EmptyWorkload,
    summarizer.NoRelevantQueries,
    InsufficientWorkload,
    steiner.Infeasible,
    steiner.SizeLimit,
    steiner.Disconnected,
)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _int_list(value: str) -> list[int]:
    """A non-empty comma-separated list of distinct positive integers."""
    numbers = [_positive_int(part) for part in value.split(",")]
    if len(set(numbers)) != len(numbers):
        raise argparse.ArgumentTypeError("entries must be distinct")
    return numbers


def _add_log_options(sub):
    sub.add_argument("--log", required=True, help="query log path")
    sub.add_argument("--format", default=workload.RAW_LINES, choices=workload.FORMATS,
                     help="log encoding (default: raw-lines)")
    sub.add_argument("--tsv-column", type=int, default=None,
                     help="0-based column holding the query text (required with tsv,"
                          " rejected otherwise)")
    sub.add_argument("--base-prefix", default=None,
                     help="IRI prefix applied to bare names in queries and seeds")


def add_protocol_options(sub):
    """The log and fold-protocol options of ``evaluate``; check them with
    ``check_log_options`` and ``check_protocol_options`` before the load."""
    _add_log_options(sub)
    sub.add_argument("--k", type=_int_list, default=[5, 10, 15],
                     help="comma-separated budgets (default: 5,10,15)")
    sub.add_argument("--folds", type=_positive_int, default=10)
    sub.add_argument("--split", type=float, default=0.8, help="train fraction")
    sub.add_argument("--sample-seeds", type=_positive_int, default=10)
    sub.add_argument("--rng", type=int, default=42)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isummary",
        description="Workload-based personalized knowledge-graph summaries",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("summarize", help="build one personalized summary")
    _add_log_options(cmd)
    cmd.add_argument("--seed", action="append", required=True, dest="seeds",
                     help="seed term; repeat for multiple seeds")
    cmd.add_argument("--k", type=_positive_int, required=True, help="node budget")
    cmd.add_argument("--strategy", default=summarizer.ISUMMARY,
                     choices=summarizer.STRATEGIES)
    cmd.add_argument("--random-seed", type=int, default=0,
                     help="stream seed for the random strategy")
    cmd.add_argument("--out", default=None, help="N-Triples output path (default: stdout)")
    cmd.add_argument("--report", default=None, help="JSON report path")

    cmd = commands.add_parser("evaluate", help="run the fold-based coverage protocol")
    add_protocol_options(cmd)
    cmd.add_argument("--w-node", type=float, default=0.5)
    cmd.add_argument("--w-edge", type=float, default=0.5)
    cmd.add_argument("--strategies", default="isummary,random",
                     help="comma-separated strategy list")
    cmd.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    cmd = commands.add_parser("oracle", help="exact-vs-approximation quality check")
    cmd.add_argument("--instances", default=None,
                     help="directory of fixture instance files (*.txt)")
    cmd.add_argument("--trials", type=_non_negative_int, default=200,
                     help="number of random instances to add")
    cmd.add_argument("--rng", type=int, default=7)
    cmd.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    cmd = commands.add_parser("synth", help="generate a synthetic workload")
    cmd.add_argument("--n-queries", type=_positive_int, default=50000)
    cmd.add_argument("--classes", type=_positive_int, default=400)
    cmd.add_argument("--predicates", type=_positive_int, default=1300)
    cmd.add_argument("--instances", type=_positive_int, default=100000)
    cmd.add_argument("--skew", type=float, default=1.0)
    cmd.add_argument("--mean-patterns", type=float, default=3.0)
    cmd.add_argument("--rng", type=int, default=1)
    cmd.add_argument("--out", required=True, help="workload output path")
    return parser


def _usage(parser, make, **fields):
    """``make(**fields)``, or a usage error (exit 2) for the ValueError it raises."""
    try:
        return make(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def check_log_options(parser, args) -> None:
    if hasattr(args, "log"):
        _usage(parser, workload.check_format, format=args.format, tsv_column=args.tsv_column)


def check_protocol_options(parser, args, **weights) -> CoverageConfig:
    """The fold-protocol options as a config, or a usage error (exit 2) for a
    bad one; ``weights`` (``w_node``, ``w_edge``) default as in CoverageConfig."""
    return _usage(parser, CoverageConfig, split_ratio=args.split, folds=args.folds,
                  sample_seeds=args.sample_seeds, rng_seed=args.rng, **weights)


def check_synth_options(parser, args) -> synth.SyntheticSpec:
    """The synth options as a spec, or a usage error (exit 2) for a bad one."""
    return _usage(parser, synth.SyntheticSpec, n_queries=args.n_queries, classes=args.classes,
                  predicates=args.predicates, instances=args.instances, skew=args.skew,
                  mean_patterns=args.mean_patterns, rng_seed=args.rng)


def _write(path, emit) -> None:
    """Call ``emit`` on a text handle: stdout when no ``path`` is given, else
    the file at ``path``.  A file that cannot be opened or written is an IoError."""
    if not path:
        emit(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    except OSError as exc:
        raise workload.IoError(f"cannot write {path}: {exc}") from exc


def _check_writable(path) -> None:
    """Raise IoError when the file at ``path`` plainly cannot be written: it
    is a directory, or its parent is no writable directory.  Creates nothing."""
    target = Path(path)
    if target.is_dir():
        problem = "is a directory"
    elif not target.parent.is_dir():
        problem = f"not a directory: {target.parent}"
    elif not os.access(target.parent, os.W_OK):
        problem = f"directory not writable: {target.parent}"
    else:
        return
    raise workload.IoError(f"cannot write {path}: {problem}")


def _load(args) -> workload.WorkloadStore:
    """The log as a store, moved to the collector's permanent generation
    (``gc.freeze``) when nothing is frozen yet: the command's first
    collections then need not scan the whole store.  ``main`` unfreezes it."""
    store = workload.load_workload(
        args.log, format=args.format, tsv_column=args.tsv_column,
        base_prefix=args.base_prefix,
    )
    if not gc.get_freeze_count():
        gc.freeze()
    return store


def _cmd_summarize(args) -> int:
    try:
        seeds = [parse_term(text, base_prefix=args.base_prefix) for text in args.seeds]
    except ParseError as exc:
        raise summarizer.InvalidRequest(f"bad seed term: {exc}") from exc
    request = summarizer.SummaryRequest(seeds, args.k, args.strategy, random_seed=args.random_seed)
    # as in evaluate: outputs that cannot be written fail before the load
    for path in (args.out, args.report):
        if path:
            _check_writable(path)
    store = _load(args)
    summary = summarizer.summarize(store, request)
    triples = summarizer.to_ntriples(summary)
    _write(args.out, lambda fh: fh.write(triples))
    if args.report:
        report = summarizer.to_json(summary)
        _write(args.report, lambda fh: fh.write(report))
    return 0


def _cmd_evaluate(args) -> int:
    # an empty entry is an unknown strategy, as an empty budget is a bad --k
    strategies = args.strategies.split(",")
    unknown = [s for s in strategies if s not in summarizer.STRATEGIES]
    if unknown or len(set(strategies)) != len(strategies):
        raise summarizer.InvalidRequest(
            f"unknown strategy {unknown[0]!r}" if unknown else
            f"need a list of distinct strategies, got {args.strategies!r}")
    if args.out:
        # the CSV is written only once the protocol has run; an --out that
        # cannot be written fails first, before the load and the protocol
        _check_writable(args.out)
    store = _load(args)
    result = evaluate(store, args.config, args.k, strategies)
    for warning in result.warnings:
        print(warning, file=sys.stderr)
    _write(args.out, lambda fh: write_csv(result.rows, fh))
    print(
        f"mean coverage {result.fold_stats.mean:.6f}"
        f" (std {result.fold_stats.std:.6f} over {len(result.fold_stats.fold_means)} folds)",
        file=sys.stderr,
    )
    return 0


def _oracle_rows(args):
    instances = []
    if args.instances:
        directory = Path(args.instances)
        if not directory.is_dir():
            raise workload.IoError(f"not a directory: {directory}")
        for file in sorted(directory.glob("*.txt")):
            try:
                instances.append((file.name, steiner.read_instance(file)))
            except (OSError, ValueError) as exc:
                raise workload.IoError(f"cannot read instance file {file}: {exc}") from exc
    rng = XorShift64Star(args.rng)
    for trial in range(args.trials):
        instances.append((f"random-{trial}", steiner.random_instance(rng)))

    for name, instance in instances:
        costs = steiner.normalize_to_min_cost(instance.graph, instance.terminals).weights
        try:
            exact = steiner.exact_solve(instance)
        except steiner.Infeasible:
            yield (name, instance.graph.node_count, instance.k, "", "", "", "infeasible")
            continue
        approx = steiner.chins(instance, costs)
        exact_cost = steiner.tree_cost(costs, exact)
        approx_cost = steiner.tree_cost(costs, approx)
        if exact_cost > 0:
            ratio = approx_cost / exact_cost
            ok = ratio <= 2.0
        else:
            ratio = 0.0 if approx_cost == 0 else float("inf")
            ok = approx_cost == 0
        yield (
            name, instance.graph.node_count, instance.k,
            f"{exact_cost:.6f}", f"{approx_cost:.6f}", f"{ratio:.6f}",
            "ok" if ok else "violated",
        )


def _cmd_oracle(args) -> int:
    rows = list(_oracle_rows(args))
    header = ("instance", "nodes", "k", "exact_cost", "chins_cost", "ratio", "status")

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _write(args.out, emit)
    solved = [r for r in rows if r[6] != "infeasible"]
    violated = sum(1 for r in solved if r[6] == "violated")
    print(
        f"{len(solved)} instances solved, {violated} above the factor-2 envelope",
        file=sys.stderr,
    )
    return 0


def _cmd_synth(args) -> int:
    _write(args.out, lambda fh: synth.write_queries(args.spec, fh))
    print(f"wrote {args.spec.n_queries} queries to {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "summarize": _cmd_summarize,
    "evaluate": _cmd_evaluate,
    "oracle": _cmd_oracle,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check_log_options(parser, args)
        if args.command == "evaluate":
            args.config = check_protocol_options(parser, args,
                                                 w_node=args.w_node, w_edge=args.w_edge)
        elif args.command == "synth":
            args.spec = check_synth_options(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # a caller's own frozen objects stay frozen: `_load` then freezes nothing
    owns_freeze = not gc.get_freeze_count()
    try:
        return _COMMANDS[args.command](args)
    except summarizer.InvalidRequest as exc:
        print(f"InvalidRequest: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if owns_freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
