"""The golden outputs must not depend on Python's string-hash seed.

Set and dict iteration order follows the hash seed, so any output that leaked
that order would differ between interpreter runs.  This reruns the golden tests
in fresh interpreters under fixed seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TESTS = (
    "tests/test_coverage.py::test_evaluate_golden_csv_on_synthetic_log",
    "tests/test_summarizer.py::test_summarize_golden_hashes_on_synthetic_log",
)


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_golden_hashes_hold_under_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(GOLDEN_TESTS)} passed" in run.stdout
