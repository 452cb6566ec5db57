#!/usr/bin/env python3
"""Re-run the coverage protocol on a user-supplied query log.

Desk-scale synthetic data cannot reproduce the published coverage levels of
the original DBpedia/WikiData/Bio2RDF workload snapshots, so this script is
opt-in: point it at your own log and it reports mean coverage per budget
against a configurable reference line (default 0.4).  Nothing is asserted;
the output is informational.

Example:
    python3 scripts/reference_protocol.py --log dbpedia_queries.txt \
        --format raw-lines --k 5,10,15 --folds 10 --sample-seeds 10
"""

import argparse
import sys
from collections import defaultdict

from isummary.cli import add_protocol_options, check_log_options, check_protocol_options
from isummary.coverage import evaluate
from isummary.workload import load_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the options and checks of `isummary evaluate`: a usage error exits 2 before the load
    add_protocol_options(parser)
    parser.add_argument("--reference", type=float, default=0.4,
                        help="published coverage level to compare against")
    args = parser.parse_args(argv)
    check_log_options(parser, args)
    config = check_protocol_options(parser, args)

    store = load_workload(args.log, format=args.format, tsv_column=args.tsv_column,
                          base_prefix=args.base_prefix)
    print(f"loaded {len(store)} queries ({store.rejected_count} rejected)")

    result = evaluate(store, config, args.k, ["isummary"])

    by_k = defaultdict(list)
    for row in result.rows:
        by_k[row.k].append(row.coverage)
    print(f"reference line: {args.reference:.3f}")
    for k in args.k:
        values = by_k.get(k, [])
        mean = sum(values) / len(values) if values else 0.0
        delta = mean - args.reference
        print(f"k={k}: mean coverage {mean:.6f} ({delta:+.6f} vs reference)")
    print("informational only; absolute levels depend on the workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
