import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hallalg.cli import main
from hallalg.lf import random_base_change_square


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(
        {"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]}
    ))
    return str(path)


@pytest.fixture()
def a1_file(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"vertices": 1, "arrows": []}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(argv, hash_seed):
    """stdout of `python -m hallalg.cli argv` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_catalog_a2(capsys, a2_file):
    code, out, _ = run(capsys, [
        "catalog", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["classes"]) == 5


def test_catalog_pretty(capsys, a2_file):
    code, out, _ = run(capsys, [
        "catalog", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--format", "pretty",
    ])
    assert code == 0
    assert "5 classes" in out


def test_hall_table_csv(capsys, a1_file):
    code, out, _ = run(capsys, [
        "hall-table", "--quiver", a1_file, "-p", "2", "--bound", "2",
        "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,coeff"
    assert all(line.count(",") == 3 for line in lines)


def test_derived_table_runs(capsys, a2_file):
    code, out, _ = run(capsys, [
        "derived-table", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--window", "0,0",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "derived"
    assert doc["table"]


def test_verify_passes_exit_zero(capsys, a1_file):
    code, out, _ = run(capsys, [
        "verify", "--quiver", a1_file, "-p", "2", "--bound", "3",
        "--checks", "all",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["failures_total"] == 0


def test_verify_subset_of_checks(capsys, a2_file):
    code, out, _ = run(capsys, [
        "verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--checks", "unit,riedtmann",
    ])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["checks"]) == {"unit", "riedtmann"}


def test_verify_derived_mode(capsys, a2_file):
    code, out, _ = run(capsys, [
        "verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--mode", "derived", "--window", "0,0", "--checks", "unit,stalk",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["stalk"]["status"] == "pass"


def test_derived_verify_determinism_across_hash_seeds(a2_file):
    argv = ["verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
            "--mode", "derived", "--window", "0,1", "--checks", "all"]
    outs = [run_process(argv, seed) for seed in ("0", "1")]
    assert outs[0] == outs[1]


def test_unreadable_quiver_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, [
        "catalog", "--quiver", str(tmp_path / "missing.json"),
        "-p", "2", "--bound", "1",
    ])
    assert code == 2
    assert "error" in err


def test_bad_schema_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": 2}))
    code, _, err = run(capsys, [
        "catalog", "--quiver", str(bad), "-p", "2", "--bound", "1",
    ])
    assert code == 2


def test_non_prime_modulus_is_usage_error(capsys, a1_file):
    code, _, err = run(capsys, [
        "catalog", "--quiver", a1_file, "-p", "4", "--bound", "1",
    ])
    assert code == 2


def test_cap_exceeded_is_exit_three(capsys, a1_file):
    code, _, err = run(capsys, [
        "verify", "--quiver", a1_file, "-p", "2", "--bound", "5",
        "--cap", "100", "--checks", "riedtmann",
    ])
    assert code == 3


def test_catalog_aut_beyond_end_cap(capsys, a1_file):
    # |End(k^5)| = 2**25 exceeds the default cap; |Aut| comes from the orbit
    code, out, err = run(capsys, [
        "catalog", "--quiver", a1_file, "-p", "2", "--bound", "5",
    ])
    assert code == 0, err
    by_id = {c["id"]: c for c in json.loads(out)["classes"]}
    assert by_id["c5"]["aut_order"] == 9_999_360  # |GL_5(F_2)|


def test_catalog_a2_p3_bound33(capsys, a2_file):
    code, out, err = run(capsys, [
        "catalog", "--quiver", a2_file, "-p", "3", "--bound", "3,3",
    ])
    assert code == 0, err
    assert len(json.loads(out)["classes"]) == 30


def test_catalog_cap_error_names_layer_and_object(capsys, a2_file):
    code, out, err = run(capsys, [
        "catalog", "--quiver", a2_file, "-p", "3", "--bound", "3,3",
        "--cap", "1000",
    ])
    assert code == 3
    assert out == ""
    assert ("catalog.build(dims (3,3)): 3^9 = 19683 arrow-matrix tuples "
            "exceed cap 1000") in err


@pytest.mark.parametrize("argv", [
    ["derived-table"],
    ["verify", "--mode", "derived", "--checks", "unit,stalk"],
], ids=["derived-table", "verify-derived"])
def test_negative_window_both_spellings(capsys, a1_file, argv):
    outs = []
    for window in (["--window", "-1,1"], ["--window=-1,1"]):
        code, out, err = run(capsys, argv + [
            "--quiver", a1_file, "-p", "2", "--bound", "1", *window,
        ])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    if argv[0] == "derived-table":
        names = {t["x"] for t in json.loads(outs[0])["table"]}
        assert {"c1[1]", "c1", "c1[-1]"} <= names
        assert not any("[2]" in n or "[-2]" in n for n in names)


def test_lf_eval_identity(capsys, tmp_path):
    from hallalg.lf import LFType, ProperMapData

    x = LFType(("a", "b"), ((2,), ()))
    ident = ProperMapData.identity(x)
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(ident.to_json_dict()))
    fn_file = tmp_path / "fn.json"
    fn_file.write_text(json.dumps({"schema": 1, "values": {"a": "3/2"}}))
    code, out, _ = run(capsys, [
        "lf-eval", "--map", str(map_file), "--fn", str(fn_file),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == {"a": "3/2"}


def test_lf_eval_pullback(capsys, tmp_path):
    from hallalg.lf import Fiber, LFType, ProperMapData

    src = LFType(("a", "b"), ((), ()))
    dst = LFType(("y",), ((),))
    f = ProperMapData(src, dst, ("y", "y"),
                      (Fiber(LFType(("fa", "fb"), ((), ())), ("a", "b")),))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(f.to_json_dict()))
    fn_file = tmp_path / "fn.json"
    fn_file.write_text(json.dumps({"schema": 1, "values": {"y": "1/1"}}))
    code, out, _ = run(capsys, [
        "lf-eval", "--map", str(map_file), "--fn", str(fn_file),
        "--op", "pullback",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == {"a": "1/1", "b": "1/1"}


def test_base_change_square_roundtrip(capsys, tmp_path):
    rng = random.Random(7)
    square = random_base_change_square(rng)
    doc = {
        "schema": 1,
        "f": square.f.to_json_dict(),
        "u": square.u.to_json_dict(),
        "v": square.v.to_json_dict(),
        "g": square.g.to_json_dict(),
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["base-change", "--square", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["max_deviation"] == "0/1"


def test_table_byte_determinism(capsys, a2_file):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, [
            "hall-table", "--quiver", a2_file, "-p", "2", "--bound", "2,2",
        ])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_byte_determinism_across_processes(a2_file):
    # separate interpreters with different hash seeds must emit identical bytes
    argv = ["verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
            "--checks", "all"]
    outs = [run_process(argv, seed) for seed in ("0", "1")]
    assert outs[0] == outs[1]
