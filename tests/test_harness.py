"""The benchmark harness's own tests (``hocnbench/tests``) run to exit 0.

They check the harness's row and basis checks, its tracer wrappers and the
agreement of ``BENCHMARK.json`` with the harness. They run in a separate
pytest process, because their ``conftest`` module and this suite's share
one import name.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_tests_pass():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "hocnbench/tests"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
