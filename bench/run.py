"""The repository's benchmark: one command, three workloads, every metric by name and unit.

Run from the root of a checkout::

    python3 bench/run.py --workload summarize-100k --seed 1 --seconds 6 --trace 0

It generates the workload's inputs for the seed in a separate process (once
per seed, cached under ``.bench_data/``), then starts fresh single-threaded
worker processes one at a time:

* ``--trace 0``: ``SETUP_LOADS - 1`` workers that only time ``load_workload``,
  then one worker that loads, runs whole rounds of the workload's operations
  for ``--seconds`` seconds and checks the outputs.  It prints the
  end-to-end metrics; ``setup_s`` is the median of all the loads.  Timings
  are reported at the nominal machine speed (see ``pace.py``); the figures
  as measured go to standard error.
* ``--trace 1``: one untraced and one traced worker run the same fixed
  number of rounds; it prints the per-layer metrics of the traced one and
  ``trace.overhead_ratio``, the traced time over the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

DATA_DIR = ".bench_data"
# loads per run whose median is setup_s; long-paths loads in a third of a second, so more
SETUP_LOADS = {gen.SUMMARIZE: 3, gen.EVALUATE: 3, gen.LONG_PATHS: 5}
TRACE_ROUNDS = {gen.SUMMARIZE: 4, gen.EVALUATE: 1, gen.LONG_PATHS: 4}
DEADLINE_S = 170.0
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "summaries_per_s": "1/s",
    "summary_p50_ms": "ms",
    "summary_p90_ms": "ms",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts one child process at a time, with a shared deadline and a log per child."""

    def __init__(self, root: Path, logs: Path):
        self.root = root
        self.logs = logs
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = HASH_SEED

    def __call__(self, label: str, argv: list[str]) -> str:
        log = self.logs / f"{label}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {label}")
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                out, _ = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{label} did not finish in time; see {log}") from None
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{label} exited with {proc.returncode}; {log} ends:\n{tail}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{label} printed nothing")
        return lines[-1]


def _worker(run: Runner, label: str, workload: str, inputs: Path, *extra: str) -> dict:
    return json.loads(run(label, [str(HERE / "worker.py"), "--workload", workload,
                                  "--inputs", str(inputs), *extra]))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[dict], main: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics, at the nominal machine speed or as measured."""
    suffix = "_norm" if scaled else ""
    busy = main[f"busy{suffix}_s"]
    values = {
        "setup_s": statistics.median(s[f"setup{suffix}_s"] for s in setups),
        "summaries_per_s": main["summaries"] / busy,
        "summary_p50_ms": main[f"p50{suffix}_s"] * 1000.0,
        "summary_p90_ms": main[f"p90{suffix}_s"] * 1000.0,
        "cells_per_s": main["cells"] / busy,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _work_s(worker: dict) -> float:
    return worker["setup_norm_s"] + worker["busy_norm_s"]


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {name: _metric(value, tracer.unit(name))
               for name, value in traced["per_layer"].items()}
    metrics["trace.overhead_ratio"] = _metric(_work_s(traced) / _work_s(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isummary" / "__init__.py").is_file():
        print("bench: run from the root of a checkout holding src/isummary", file=sys.stderr)
        return 2
    data = root / DATA_DIR
    logs = data / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    run = Runner(root, logs)
    name = f"{args.workload}-seed{args.seed}"
    try:
        inputs = Path(run(f"{name}-gen", [str(HERE / "gen.py"), "--workload", args.workload,
                                          "--seed", str(args.seed), "--data", str(data)]))
        if args.trace:
            rounds = ["--rounds", str(TRACE_ROUNDS[args.workload])]
            untraced = _worker(run, f"{name}-untraced", args.workload, inputs, "--mode", "run", *rounds)
            traced = _worker(run, f"{name}-traced", args.workload, inputs, "--mode", "run", *rounds,
                             "--trace", "1", "--spans", str(data / f"{args.workload}.spans"))
            workers = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            setups = [_worker(run, f"{name}-setup{i}", args.workload, inputs, "--mode", "setup")
                      for i in range(SETUP_LOADS[args.workload] - 1)]
            main_run = _worker(run, f"{name}-run", args.workload, inputs, "--mode", "run",
                               "--seconds", str(args.seconds))
            workers = [main_run]
            metrics = end_to_end(setups + [main_run], main_run)
            measured = end_to_end(setups + [main_run], main_run, scaled=False)
            print("bench: as measured: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in measured.items()), file=sys.stderr)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for worker in workers:
        if not worker["correct"]:
            print(f"bench: check failed: {worker['problem']}", file=sys.stderr)
    print(json.dumps({
        "correct": all(w["correct"] for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
