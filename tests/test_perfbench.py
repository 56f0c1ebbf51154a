"""The benchmark harness runs against the package as it stands.

``perfbench/run.py --smoke`` runs every workload at a tiny size, traced
and untraced, and checks that every metric ``BENCHMARK.json`` names is
reported. It calls the package by name (``var.forward``,
``training.fit``, checkpoint loading, ...), so a change that renames or
re-signs one of those fails here rather than at benchmark time. It
writes only under the git-ignored ``perfbench/results/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
