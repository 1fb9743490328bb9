"""The scripts the README shows run as written, from the repository root and
from any other directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a2_walkthrough_runs_and_the_span_route_agrees():
    proc = subprocess.run(
        [sys.executable, "scripts/a2_walkthrough.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "span route" in proc.stdout
    assert "MISMATCH" not in proc.stdout, proc.stdout


def test_a2_walkthrough_runs_from_another_directory(tmp_path):
    # no PYTHONPATH: the script finds src/ from its own path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "a2_walkthrough.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout, proc.stdout
