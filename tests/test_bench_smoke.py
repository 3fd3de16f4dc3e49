"""The benchmark's smoke run passes on the engine as it stands.

``perfbench/run.py --smoke`` runs every workload on tiny types, once
untraced and once traced, and checks that both passes give the same
checksum, so a change to the engine that the tracer's wrappers would see
differently fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines()
          if line.startswith("smoke ") and ": ok" in line]
    assert [line.split(":")[0] for line in ok] == [
        "smoke hom_grid", "smoke serre_sweep", "smoke hn_filtration"]
