"""The streamed `hall-table` / `derived-table` writer against the document
route of tests/cli_oracle.py, byte for byte in every format, and the bounds
the streaming keeps: nothing is written before the last product, and a
derived table's peak memory stays bounded.  test_cli.py holds the closed
stdout cases."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallalg import cli
from hallalg.errors import EnumerationCapError, OutOfUniverseError
from hallalg.hall import basis_product
from hallalg.verify import in_bound_pairs
from cli_oracle import table_text

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS = ("json", "csv", "pretty")


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(
        {"schema": 1, "vertices": 2, "arrows": [{"src": 0, "dst": 1}]}
    ))
    return str(path)


def oracle_context(argv):
    """The context the CLI builds for argv, with its mode and modulus."""
    args = cli.build_parser().parse_args(cli._glue_window(argv))
    mode = "classical" if args.command == "hall-table" else "derived"
    return cli._context(args, mode), mode, args.modulus


def streamed(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("argv", [
    ["hall-table", "-p", "3", "--bound", "2,2"],
    ["derived-table", "-p", "2", "--bound", "1,1", "--window=0,0"],
    ["derived-table", "-p", "2", "--bound", "1,1", "--window=-1,1"],
], ids=["hall-a2-p3-22", "derived-a2-p2-w0,0", "derived-a2-p2-w-1,1"])
def test_streamed_table_matches_the_document_route(capsys, a2_file, argv):
    argv = argv + ["--quiver", a2_file]
    ctx, mode, modulus = oracle_context(argv)
    for fmt in FORMATS:
        out = streamed(capsys, argv + ["--format", fmt])
        assert out == table_text(ctx, mode, modulus, fmt), fmt


@pytest.mark.parametrize("command", ["hall-table", "derived-table"])
def test_cells_with_no_terms_match_the_document_route(capsys, monkeypatch, a2_file,
                                                      command):
    # every product has a term (the split extension, the cone of zero), so
    # empty cells are made by dropping the terms of every diagonal cell
    def product(ctx, x, y):
        return {} if x == y else basis_product(ctx, x, y)

    monkeypatch.setattr(cli, "compute_product", product)
    argv = [command, "--quiver", a2_file, "-p", "2", "--bound", "1,1", "--window=0,0"]
    ctx, mode, modulus = oracle_context(argv)
    for fmt in FORMATS:
        out = streamed(capsys, argv + ["--format", fmt])
        assert out == table_text(ctx, mode, modulus, fmt, product), fmt
        if fmt == "json":
            cells = json.loads(out)["table"]
            assert any(not c["terms"] for c in cells)
            assert any(c["terms"] for c in cells)


@pytest.mark.parametrize("error, code", [
    (EnumerationCapError, 3), (OutOfUniverseError, 3),
], ids=["cap", "out-of-universe"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_an_error_at_the_last_cell_prints_nothing(capsys, monkeypatch, a2_file,
                                                  error, code, fmt):
    argv = ["derived-table", "--quiver", a2_file, "-p", "2", "--bound", "1,1",
            "--window=0,0", "--format", fmt]
    last = in_bound_pairs(oracle_context(argv)[0])[-1]

    def product(ctx, x, y):
        if (x, y) == last:
            raise error("the last cell")
        return basis_product(ctx, x, y)

    monkeypatch.setattr(cli, "compute_product", product)
    assert cli.main(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the last cell\n"


# ru_maxrss of a process started from a large one (as the test runner is)
# counts the parent's peak too, so a small interpreter forks the run and
# reports the run's own ru_maxrss, in KiB, from wait4
PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    from hallalg.cli import main
    code = main(sys.argv[1:])
    sys.stdout.flush()
    os._exit(code)
_, status, usage = os.wait4(pid, 0)
sys.stderr.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_derived_table_window_minus1_2_peaks_below_40_mib(a2_file):
    # 14,641 cells, about 5 MB of JSON: the output is never held whole, the
    # Ext factors are integer exponents, and each product reads one cone
    # histogram that is never cached, so the run peaks near 28 MiB (47 MiB
    # when every histogram was cached, 112 MiB when the document and its
    # JSON text were built first)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "derived-table", "--quiver", a2_file,
         "-p", "2", "--bound", "1,1", "--window=-1,2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stderr)
    assert peak_kib < 40 * 1024, f"peak RSS {peak_kib / 1024:.1f} MiB"
