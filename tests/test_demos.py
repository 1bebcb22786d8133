"""Smoke test of the walkthroughs in ``demos/``: each runs to exit 0.

Demos 01-03 call the feature pipeline, the orthogonalizer and the trainer,
and demo 04 the latent-model bounds and their Monte-Carlo validation, so a
refactor that breaks a walkthrough fails here. Demo 04 is the slowest, at
about 6 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hocn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_features_and_heuristics.py",
                                  "02_orthogonalization.py",
                                  "03_train_and_evaluate.py",
                                  "04_theory_lab.py"])
def test_demo_runs(name):
    src = str(Path(hocn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
