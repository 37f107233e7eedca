"""The benchmark runs to a correct verdict on every workload.

`perfbench/run.py` reads library fields directly (for one, a structure's
`transp`), so a change to one of them should fail here, not first in the
benchmark.  Each workload runs for one second, untraced, in a subprocess
from the repository root, about 3 s each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["games", "equations", "structures"])
def test_benchmark_workload_runs_correctly(workload):
    run = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:] + run.stderr[-2000:]
    assert result["failed"] == 0
    assert run.returncode == 0
