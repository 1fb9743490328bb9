"""Every benchmark workload prints the bytes the benchmark expects.

Each workload of perfbench/workloads.json runs with its identity vertex
labelling as `python -m hallalg.cli` in a fresh interpreter with
PYTHONHASHSEED=0, and its stdout must hash to the reference in
perfbench/references.json, as perfbench/run.py requires of every timed run.
The perfbench files are only read here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_stdout_matches_reference(name, tmp_path):
    spec = WORKLOADS[name]
    n = spec["quiver"]["vertices"]
    quiver = tmp_path / "quiver.json"
    quiver.write_text(json.dumps({
        "schema": 1,
        "vertices": n,
        "arrows": [{"src": s, "dst": t} for s, t in spec["quiver"]["arrows"]],
    }))
    argv = [*spec["argv"], "--quiver", str(quiver),
            "--bound", ",".join(map(str, spec["bound"]))]
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", *argv], cwd=tmp_path,
        capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    identity = ",".join(map(str, range(n)))
    assert hashlib.sha256(proc.stdout).hexdigest() == REFERENCES[name][identity]
