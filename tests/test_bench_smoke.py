"""The benchmark's smoke run: every workload, one small round, outputs checked.

perfbench checks every output of a round (properties and golden digests)
and wraps the functions that perfbench/layers.py traces by module and
name.  Running its smoke mode here makes a change that breaks one of
those output checks, or renames a traced function, fail the test suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"smoke": "ok", "failed_workloads": []}', proc.stdout
