"""The golden CLI reports, committed under tests/golden: every command of
tools/golden.py runs again in a subprocess, with one BLAS thread set
before numpy loads, and its reports are compared with the committed ones
by the tool's --compare rules: the structure, the file names and every
non-float field exactly, and every float to 1e-10.

A change that moves a reported value regenerates the reports in the same
change (python3 tools/golden.py --src src --out tests/golden) and quotes
the compare's output for them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "golden.py"
GOLDEN = ROOT / "tests" / "golden"


def test_the_reports_match_the_committed_ones(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(ROOT / "src"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    compare = subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(GOLDEN), str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    lines = compare.stdout.splitlines()
    changed = "\n".join(line for line in lines
                        if not line.endswith(": identical"))
    worst = re.fullmatch(r"\d+ files; largest float \|delta\| (\S+); "
                         r"\d+ non-float differences", lines[-1])
    assert compare.returncode == 0, changed
    assert float(worst.group(1)) <= 1e-10, changed
