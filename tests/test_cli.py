import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hallalg import verify
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


@pytest.mark.parametrize("command, option", [
    ("verify", ["--format", "csv"]),
    ("catalog", ["--window", "0,0"]),
    ("hall-table", ["--window", "0,0"]),
])
def test_options_a_subcommand_does_not_read_exit_2(capsys, a2_file, command, option):
    # verify always prints JSON, and only derived contexts read a window
    code, out, _ = run(capsys, [
        command, "--quiver", a2_file, "-p", "2", "--bound", "1,1", *option,
    ])
    assert code == 2
    assert out == ""


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


def test_derived_table_cap_error_names_the_hom_table(capsys, a2_file):
    # the cap bounds the 11^3 = 1331 in-bound pairs of the table before any
    # product is computed, so they meet it before any Hom table does; the
    # Hom table that a product's histogram over Hom(y[-1], x) meets first at
    # this cap is pinned by test_cone_kernel.py's cone_counts cap test
    code, out, err = run(capsys, [
        "derived-table", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--window=-1,1", "--cap", "4",
    ])
    assert code == 3
    assert out == ""
    assert err == "error: in_bound_pairs: 1331 pairs of basis keys exceed cap 4\n"


def test_derived_table_in_bound_pairs_over_the_cap_exit_3_at_once(a2_file):
    # A2 p=2 (2,2), default window -2,2: 57^5 = 601,692,057 in-bound pairs
    # of 14^5 basis keys, counted before a key is built
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", "derived-table", "--quiver", a2_file,
         "-p", "2", "--bound", "2,2"], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == (b"error: in_bound_pairs: 601692057 pairs of basis keys "
                           b"exceed cap 10000000\n")


@pytest.mark.parametrize("checks", ["unit", "stalk", "unit,stalk"])
def test_verify_lists_no_pairs_for_checks_that_read_none(capsys, a2_file, checks):
    # the 11^3 = 1331 in-bound pairs exceed the cap, but unit and stalk
    # read no pair, so the capped run prints what the uncapped one does
    argv = ["verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
            "--mode", "derived", "--window=-1,1", "--checks", checks]
    uncapped = run(capsys, argv)
    assert uncapped[0] == 0
    assert run(capsys, [*argv, "--cap", "1000"]) == uncapped


@pytest.mark.parametrize("window, checks, err", [
    ("-1,1", "unit,orbit", "in_bound_pairs: 1331 pairs of basis keys"),
    ("-1,1", "assoc", "in_bound_triples: 6859 triples of basis keys"),
    ("-50,50", "unit", f"basis_keys: {5 ** 101} basis keys"),
], ids=["pairs", "triples", "keys"])
def test_verify_caps_what_the_selected_checks_read(capsys, a2_file, window, checks, err):
    # each count is checked before any of its tuples or keys is built
    code, out, got = run(capsys, [
        "verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1", "--mode",
        "derived", f"--window={window}", "--cap", "1000", "--checks", checks])
    assert (code, out, got) == (3, "", f"error: {err} exceed cap 1000\n")


@pytest.mark.parametrize("mode", ["classical", "derived"])
def test_verify_rejects_a_bad_window_in_both_modes(capsys, a1_file, mode):
    base = ["verify", "--quiver", a1_file, "-p", "2", "--bound", "1",
            "--mode", mode, "--checks", "unit"]
    code, out, err = run(capsys, base + ["--window", "bogus"])
    assert code == 2
    assert out == ""
    assert "bad window 'bogus' (expected lo,hi)" in err
    # a valid window is parsed in both modes and read only by derived ones
    code, out, err = run(capsys, base + ["--window", "0,1"])
    assert code == 0, err
    assert json.loads(out)["window"] == (None if mode == "classical" else [0, 1])


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


IDENTITY_MAP = {"source": {"components": [{"id": "a"}]},
                "target": {"components": [{"id": "a"}]},
                "component_map": {"a": "a"}}


def fibered(order):
    """IDENTITY_MAP with one fiber component of pi_1 order `order`."""
    return {**IDENTITY_MAP,
            "fibers": {"a": [{"id": "fa", "orders": [order], "maps_to": "a"}]}}


# a component id that is a JSON list cannot key a component set
LIST_IN_COMPONENT_MAP = {**fibered(1), "component_map": {"a": ["a"]}}
LIST_IN_MAPS_TO = {**IDENTITY_MAP, "fibers": {"a": [{"id": "fa", "maps_to": ["a"]}]}}


@pytest.mark.parametrize("command, doc", [
    ("lf-eval", {"values": {"a": "1/0"}}),
    ("lf-eval", {"values": {"a": "x/2"}}),
    ("lf-eval", [{"a": 1}]),
    ("lf-eval", {**IDENTITY_MAP, "fibers": {"a": [{"id": "fa"}]}}),
    ("base-change", [IDENTITY_MAP]),
    ("lf-eval", fibered(2.5)),
    ("lf-eval", fibered(2.0)),
    ("lf-eval", fibered(True)),
    ("base-change", {edge: fibered(2.5) for edge in "fuvg"}),
    ("base-change", {edge: fibered(True) for edge in "fuvg"}),
    ("lf-eval", LIST_IN_COMPONENT_MAP),
    ("lf-eval", LIST_IN_MAPS_TO),
    ("base-change", {edge: LIST_IN_COMPONENT_MAP for edge in "fuvg"}),
    ("base-change", {edge: LIST_IN_MAPS_TO for edge in "fuvg"}),
], ids=["zero-denominator", "bad-numerator", "fn-list", "fiber-without-maps-to",
        "square-list", "fractional-order", "float-order", "bool-order",
        "square-fractional-order", "square-bool-order", "list-component-map",
        "list-maps-to", "square-list-component-map", "square-list-maps-to"])
def test_malformed_lf_json_exits_2_without_traceback(tmp_path, command, doc):
    # doc replaces one file of an otherwise well-formed call: the function
    # of lf-eval, or its map when doc has fibers, or the square of base-change
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    good = tmp_path / "map.json"
    good.write_text(json.dumps(IDENTITY_MAP))
    if command == "base-change":
        argv = ["base-change", "--square", str(path)]
    elif "fibers" in doc:
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"values": {"a": "1"}}))
        argv = ["lf-eval", "--map", str(path), "--fn", str(fn)]
    else:
        argv = ["lf-eval", "--map", str(good), "--fn", str(path)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


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


def run_with_closed_stdout(argv, unbuffered):
    """`python -m hallalg.cli argv` with the read end of its stdout pipe
    already closed, as when `hall ... | head` has stopped reading."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    try:
        return subprocess.run(
            [sys.executable, "-m", "hallalg.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(a2_file, unbuffered):
    # with a buffered stdout the write fails only at the flush, which must
    # not fail again at shutdown
    proc = run_with_closed_stdout(
        ["catalog", "--quiver", a2_file, "-p", "3", "--bound", "2,2"], unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_while_streaming_a_table_exits_141(a2_file, unbuffered):
    # the table is far longer than one stdout buffer, so a buffered write
    # fails in the middle of the cells
    proc = run_with_closed_stdout(
        ["hall-table", "--quiver", a2_file, "-p", "3", "--bound", "2,2"], unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_derived_cap_error_names_an_enumerated_hom_space(capsys, a2_file):
    # the Ext factors read module dims with no class-count cap, and the
    # in-bound pairs are what a table enumerates first, so they meet the
    # cap; the Hom space a product meets first at this cap is pinned by
    # test_cone_kernel.py's cone_counts cap test
    code, out, err = run(capsys, [
        "derived-table", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
        "--window=-1,1", "--cap", "2",
    ])
    assert code == 3
    assert out == ""
    assert err == "error: in_bound_pairs: 1331 pairs of basis keys exceed cap 2\n"


@pytest.mark.parametrize("doc", [
    {"vertices": 2, "arrows": [{"src": "0", "dst": 1}]},
    {"vertices": 2, "arrows": [{"src": None, "dst": 1}]},
    {"vertices": 2, "arrows": [{"src": 0.5, "dst": 1}]},
    {"vertices": 2, "arrows": [{"src": 0, "dst": 1.0}]},
    {"vertices": True, "arrows": [{"src": 0, "dst": 0}]},
    {"vertices": 2, "arrows": [{"src": True, "dst": 1}]},
], ids=["string-src", "null-src", "fractional-src", "float-dst", "bool-vertices",
        "bool-src"])
def test_non_integer_quiver_json_exits_2_without_traceback(tmp_path, doc):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(doc))
    bound = ",".join(["1"] * (1 if doc["vertices"] is True else doc["vertices"]))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", "catalog", "--quiver", str(path),
         "-p", "2", "--bound", bound], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_a_repeated_check_runs_once(capsys, a2_file, monkeypatch):
    argv = ["verify", "--quiver", a2_file, "-p", "2", "--bound", "1,1"]
    code, once, _ = run(capsys, argv + ["--checks", "unit"])
    assert code == 0
    calls = []
    real = verify._CHECK_RUNNERS["unit"]

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setitem(verify._CHECK_RUNNERS, "unit", counting)
    code, twice, _ = run(capsys, argv + ["--checks", "unit,unit"])
    assert code == 0
    assert twice == once
    assert len(calls) == 1


def test_an_unknown_check_exits_2_before_the_span_model_is_built(capsys, a2_file,
                                                                 monkeypatch):
    def unexpected(ctx):
        raise AssertionError("the span model was built")

    monkeypatch.setattr("hallalg.cli.build_span_model", unexpected)
    code, out, err = run(capsys, ["verify", "--quiver", a2_file, "-p", "2",
                                  "--bound", "1,1", "--checks", "span,bogus"])
    assert code == 2
    assert out == ""
    assert err == "error: unknown check 'bogus'\n"
