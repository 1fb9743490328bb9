"""Every benchmark workload prints the bytes the benchmark expects.

Each workload of perfbench/workloads.json runs with its identity vertex
labelling as `python -m hallalg.cli` in a fresh interpreter with
PYTHONHASHSEED=0, and its stdout must hash to the reference in
perfbench/references.json, as perfbench/run.py requires of every timed run.
The perfbench files are only read here.  Two derived tables outside the
benchmark are pinned to the digests of the commit before cone counting
moved to summand-block coordinates, three classical verify reports to
those of the commit before the verify checks shared one enumeration of
monomorphisms, and four catalogs and two classical tables to those of the
commit before the catalog swept Rep_d on integer codes.  The two tables
classify every subobject key, so they read the whole key table.  Two more
derived tables (A2 p=2 window -1,2 and A3 p=2 window -1,0) and one derived
verify report (A2 p=2 window -1,1) are pinned to the digests of the commit
before derived products were counted over the rotated triangle, and the
derived table of A2 p=2 bound (2,2) window -1,0 to that of the commit
before derived products read |Aut| in closed form.  The derived table of
A2 p=2 at the default window -2,2 is pinned to the digest of the commit
before per-cell bookkeeping left derived_product (the E(x, x) cache, the
slotted DerivedClass and zero cones read off their signatures).  Three
more classical tables (A3 p=3 bound (2,2,2), Kronecker p=2 bound (2,2) and
A2 p=3 bound (4,3)) are pinned to the digests of the commit before subobject
keys read memoized reductions modulo a subspace and the subobject sweep kept
the arrow images of subspace rows.
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


QUIVERS = {
    "a2": {"vertices": 2, "arrows": [[0, 1]]},
    "a3": {"vertices": 3, "arrows": [[0, 1], [1, 2]]},
    "kronecker": {"vertices": 2, "arrows": [[0, 1], [0, 1]]},
    "jordan": {"vertices": 1, "arrows": [[0, 0]]},
    "sink": {"vertices": 3, "arrows": [[0, 1], [2, 1]]},
}


def run_cli(tmp_path, quiver, argv):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({
        "schema": 1,
        "vertices": quiver["vertices"],
        "arrows": [{"src": s, "dst": t} for s, t in quiver["arrows"]],
    }))
    return subprocess.run(
        [sys.executable, "-m", "hallalg.cli", *argv, "--quiver", str(path)],
        cwd=tmp_path, capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )


@pytest.mark.parametrize("quiver, argv, digest", [
    ("a2", ["derived-table", "-p", "3", "--bound", "1,1", "--window=-1,1"],
     "c63b3d9573c1a1f6d7998923eafc2b87b84d4724e2ebc1de02dc2424913d26d7"),
    ("kronecker", ["derived-table", "-p", "2", "--bound", "1,1", "--window=-1,0"],
     "4b40f096846b35ef1af0ecdd869141c1a55d51c1dcb797b93e2c3d198d419e53"),
    ("a2", ["derived-table", "-p", "2", "--bound", "1,1", "--window=-1,2"],
     "eaf52279f7836150ab8cd0451d52add69a6974b6ca2cde8290513965c992096e"),
    ("a3", ["derived-table", "-p", "2", "--bound", "1,1,1", "--window=-1,0"],
     "76d80eedbaa43354ef2595e5a50a4d31e2dd8273682d0660f0655e1d8e526132"),
    ("a2", ["derived-table", "-p", "2", "--bound", "2,2", "--window=-1,0"],
     "ff01d2229ab58084d0fafbb912ea8d826d559e0c88372c87cf7e863add2116c0"),
    ("a2", ["derived-table", "-p", "2", "--bound", "1,1"],
     "5f27ddc4bb319115135f3e5f0a98c15ee10863400ab2e4332ab8b76b88b8afbf"),
], ids=["a2-p3-window-1,1", "kronecker-p2-window-1,0", "a2-p2-window-1,2",
        "a3-p2-window-1,0", "a2-p2-22-window-1,0", "a2-p2-default-window"])
def test_derived_table_stdout_matches_the_pinned_digest(quiver, argv, digest, tmp_path):
    proc = run_cli(tmp_path, QUIVERS[quiver], argv)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("quiver, argv, digest", [
    ("a2", ["-p", "3", "--bound", "2,2"],
     "535ff7601e829ef764feab56116c744478f0388a3a04792b46cac0eed705873c"),
    ("kronecker", ["-p", "2", "--bound", "2,2"],
     "bccb731826daaa6c32198eaa0692f1319114a1494ff3019e1747fbe46a6530dc"),
    ("a3", ["-p", "3", "--bound", "2,1,1"],
     "be61d4712befbe0824314a71c21e6ff06555bde7996ed2d699d229c2132cdf7b"),
    ("a2", ["-p", "2", "--bound", "1,1", "--mode", "derived", "--window=-1,1"],
     "ad1bb987024e1324f43c9a6195ad497e35444586d8d4647043d36be2f48cb590"),
], ids=["a2-p3-22", "kronecker-p2-22", "a3-p3-211", "a2-p2-derived-window-1,1"])
def test_verify_stdout_matches_the_pinned_digest(quiver, argv, digest, tmp_path):
    proc = run_cli(tmp_path, QUIVERS[quiver], ["verify", "--checks", "all", *argv])
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("quiver, argv, digest", [
    ("a2", ["catalog", "-p", "3", "--bound", "3,3"],
     "c016d3d245976c9454f14474b0cd1846d04f93b30d9adc81387f99554dec12fa"),
    ("a3", ["catalog", "-p", "3", "--bound", "2,2,2"],
     "ab868abf40ebcc4b51c98919a93c855441d06ccb10e2089f87fb9a1c43c87a3f"),
    ("jordan", ["catalog", "-p", "3", "--bound", "3"],
     "4581ba7a22a3a246ad46e9825e7612f10cd699a804adac07fa667192ffe08a0a"),
    ("sink", ["catalog", "-p", "2", "--bound", "2,3,2"],
     "67b6cd44e7bd4c34fb3b774db7d2c1749fe480bbf22df067c7148ce6352c6f1c"),
    ("jordan", ["hall-table", "-p", "3", "--bound", "3"],
     "7b9c59b29a2a5f90bbc069356fd7549d761318108d9573c5f89715942b5ae204"),
    ("sink", ["hall-table", "-p", "2", "--bound", "2,3,2"],
     "99b732a0774a2d9d7b76c7100885bb0d97e2f921ea25e0902a53760dcfc7c931"),
    ("a3", ["hall-table", "-p", "3", "--bound", "2,2,2"],
     "c8b478cda929a01b12662bfab614e520bc19912121a9e297a01059a0928b25d3"),
    ("kronecker", ["hall-table", "-p", "2", "--bound", "2,2"],
     "f9b617d7a1f9ef315cad793df828f78a290909786ae4295697a4c6c4be1de2fb"),
    ("a2", ["hall-table", "-p", "3", "--bound", "4,3"],
     "93d842205c528a26e26b33dafce530853fccf38752c36ef8792fa2ac7400f7ce"),
], ids=["catalog-a2-p3-33", "catalog-a3-p3-222", "catalog-jordan-p3-3",
        "catalog-sink-p2-232", "hall-table-jordan-p3-3", "hall-table-sink-p2-232",
        "hall-table-a3-p3-222", "hall-table-kronecker-p2-22", "hall-table-a2-p3-43"])
def test_catalog_stdout_matches_the_pinned_digest(quiver, argv, digest, tmp_path):
    proc = run_cli(tmp_path, QUIVERS[quiver], argv)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
