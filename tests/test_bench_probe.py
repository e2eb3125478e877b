"""The benchmark's per-layer probe still fits the program.

`perfbench/layers.py` wraps functions and methods by name (among them
`CristianExchange.start` and `BerkeleyRound.start`, looked up in each class
body) and reads each sync machine's `report`.  A refactor that moves one of
them breaks the probe silently; this runs one traced sample end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_worker_runs_clean(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "traced",
         str(ROOT / "demos" / "scenarios" / "mesh_attacks.json"), "t",
         str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["problems"] == []
    assert result["layer"]["sync.extra_reports"] == 0
    assert result["layer"]["metrics.uncounted_failures"] == 0
