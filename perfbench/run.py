"""hallalg benchmark: timed `hall` CLI runs with byte-exact output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined, with why each
was chosen and what later changes should move on it, in
perfbench/workloads.json.  The seed picks a vertex labelling of the
workload's quiver; the benchmark writes the quiver file and passes `hall`
only that file and flags.

Each run is a fresh interpreter (perfbench/child.py running the `hall` CLI),
because the program keeps module-level caches that a second run in the same
process would find warm.  Runs go back to back, one at a time, until the
next one would end after S seconds (at least one run).  Every run's stdout
must hash to the reference made for that workload and labelling (written
to perfbench/references.json by perfbench/make_references.py), and its
exit code must be 0 (and `failures_total` 0 for verify); a run that fails
either, or passes RUN_LIMIT_S, counts as failed and is never rerun.

The benchmark and its children are pinned to one CPU, where
perfbench/speed.py times a fixed burst of Python every 20 ms.  The
end-to-end times, trace.total_s and trace.overhead_s are in reference
seconds: wall time weighted by the machine speed measured on that CPU at
that moment (speed.py says why).

--trace 0 prints the end-to-end metrics, each the median over the runs:
  total_s      time of one process from spawn to exit, interpreter start
               and imports included, as a CLI user pays them
  setup_s      time inside cli.RunConfig.context(): loading the quiver,
               building the catalog and the HallContext
  peak_rss_mb  ru_maxrss of the process
  work_per_s   output items (table cells or verify cases) per second of
               total_s
  pass_rate    passed runs over attempted runs (a failure rate would read 0)

--trace 1 makes one untraced run, then one traced run (perfbench/tracer.py)
and prints its per-layer metrics, with cli.cpu_s and cli.wait_s (wall minus
CPU) of the traced process, trace.speed (its reference seconds over its wall
seconds) and the tracing overhead as its time minus the untraced median.
The other times are wall or CPU seconds, from the child's own clock.  Its
spans are kept under .bench_build/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import permutations
from pathlib import Path

from speed import SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

RUN_LIMIT_S = 120.0
DEADLINE_S = 170.0
PYTHONHASHSEED = "0"

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "pass_rate": "ratio",
}

PER_LAYER = (
    "fq.matrix_new.calls", "fq.matrix_new.s", "fq.rref.calls", "fq.rref.self_s",
    "fq.matmul.calls", "fq.solve.calls", "fq.rowspace_add.calls",
    "reps.is_isomorphic.calls", "reps.is_isomorphic.s",
    "reps.hom_basis.hits", "reps.hom_basis.misses", "reps.hom_basis.entries",
    "reps.enumerate_homs.calls", "reps.enumerate_homs.items",
    "reps.compose.calls", "reps.kernel_cokernel.calls", "reps.kernel_cokernel.s",
    "reps.enumerate_subreps.s", "reps.direct_sum.calls",
    "catalog.build.s", "catalog.classes", "catalog.classify.calls",
    "catalog.classify.s", "catalog.aut_order.s",
    "derived.mapping_cone.calls", "derived.mapping_cone.self_s",
    "derived.homology.calls", "derived.homology.self_s",
    "derived.derived_class_of.s", "derived.homotopy_classes.calls",
    "derived.homotopy_classes.s", "derived.hom_class_table.calls",
    "hall.cone_table.calls", "hall.cone_table.self_s",
    "hall.basis_product.calls", "hall.basis_product.misses",
    "hall.subrep_histogram.s", "hall.count_exact_sequences.calls",
    "hall.count_exact_sequences.s",
    "span.build_span_model.s", "span.orbit.calls", "span.orbit.items",
    "span.orbit.s", "span.mu_span.calls", "span.mu_span.s", "span.arrow_classes",
    "lf.pushforward.calls", "lf.pushforward.self_s",
    "lf.pullback.calls", "lf.pullback.self_s",
    *(f"verify.check.{c}.{m}" for c in ("unit", "assoc", "riedtmann", "span", "orbit")
      for m in ("s", "cases")),
    "verify.orbit_stabilizer_check.calls",
    "cli.context.s", "cli.emit.s", "cli.cpu_s", "cli.wait_s",
    "trace.total_s", "trace.overhead_s", "trace.speed",
)


def unit_of(name: str) -> str:
    if name == "trace.speed":
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def labellings(spec: dict) -> list:
    return sorted(permutations(range(spec["quiver"]["vertices"])))


def labelling_for(spec: dict, seed: int) -> tuple:
    choices = labellings(spec)
    return choices[random.Random(seed).randrange(len(choices))]


def labelled_inputs(spec: dict, perm: tuple) -> tuple:
    """(quiver JSON, bound) with vertex v of the workload renamed perm[v]."""
    quiver = {
        "schema": 1,
        "vertices": len(perm),
        "arrows": [{"src": perm[s], "dst": perm[t]} for s, t in spec["quiver"]["arrows"]],
    }
    bound = [0] * len(perm)
    for v, b in enumerate(spec["bound"]):
        bound[perm[v]] = b
    return quiver, bound


def labelling_key(perm: tuple) -> str:
    return ",".join(map(str, perm))


def hall_argv(spec: dict, quiver_path: Path, bound: list) -> list:
    return [*spec["argv"], "--quiver", str(quiver_path),
            "--bound", ",".join(map(str, bound))]


def run_child(argv: list, mode: str, workdir: Path, limit: float) -> dict:
    """One `hall` process: clock times of spawn and exit, CPU time and peak
    RSS from os.wait4, the exit code, the stdout digest and child stats."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    stats_path = workdir / "stats.json"
    stats_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), mode, "--", *argv]
    lock, state = threading.Lock(), {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)

        def kill():
            with lock:
                if not state["exited"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t1 = time.perf_counter()
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            if not state["exited"]:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    return {
        "start": t0,
        "end": t1,
        "wall": t1 - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "timed_out": state["killed"],
        "stderr": err_path.read_text(errors="replace")[-2000:],
        "digest": hashlib.sha256(out_path.read_bytes()).hexdigest(),
        "verify_failures": verify_failures(out_path) if argv[0] == "verify" else 0,
        "stats": stats,
    }


def verify_failures(out_path: Path):
    try:
        return json.loads(out_path.read_text())["failures_total"]
    except (ValueError, KeyError, TypeError):
        return None


def failure_of(run: dict, reference: str):
    """Why the run failed, or None when it passed every check."""
    if run["timed_out"]:
        return "passed the run time limit"
    if run["exit"] != 0:
        return f"exit code {run['exit']}: {run['stderr'].strip()}"
    if run["verify_failures"] != 0:
        return f"verify failures_total {run['verify_failures']}"
    if run["digest"] != reference:
        return f"stdout sha256 {run['digest']} != reference {reference}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hallalg" / "cli.py").is_file():
        print(f"error: no hallalg sources under {SRC}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    references = json.loads((HERE / "references.json").read_text())
    pin_to_one_cpu()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    perm = labelling_for(spec, args.seed)
    quiver, bound = labelled_inputs(spec, perm)
    reference = references[args.workload][labelling_key(perm)]

    # compile once, so no run pays for writing bytecode
    compileall.compile_dir(str(SRC / "hallalg"), quiet=1)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK))
    try:
        quiver_path = workdir / "quiver.json"
        quiver_path.write_text(json.dumps(quiver))
        cmd = hall_argv(spec, quiver_path, bound)
        start = time.perf_counter()

        def remaining() -> float:
            return DEADLINE_S - (time.perf_counter() - start)

        runs, failures = [], []

        def attempt(mode: str) -> dict:
            run = run_child(cmd, mode, workdir, min(RUN_LIMIT_S, remaining()))
            runs.append(run)
            why = failure_of(run, reference)
            run["passed"] = why is None
            print(f"run {len(runs)} ({mode}): wall {run['wall']:.3f} s, "
                  f"cpu {run['cpu']:.3f} s, rss {run['rss_mb']:.1f} MB, "
                  f"{why or 'ok'}", file=sys.stderr)
            if why:
                failures.append(why)
            return run

        with SpeedProbe() as probe:
            plain = [attempt("plain")]
            traced = attempt("trace") if args.trace else None
            while (time.perf_counter() - start) + max(r["wall"] for r in runs) <= args.seconds:
                plain.append(attempt("plain"))
        speeds = probe.speeds()
        for run in runs:
            run["ref_s"] = probe.reference_seconds(run["start"], run["end"], speeds)
            setup = run["stats"].get("setup")
            run["setup_ref_s"] = (probe.reference_seconds(*setup, speeds)
                                  if setup else None)
            print(f"run: wall {run['wall']:.3f} s = {run['ref_s']:.3f} ref s, setup "
                  f"{run['setup_ref_s']} ref s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced is not None:
        metrics = traced_metrics(traced, plain)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(traced["stats"].get("spans", [])))
    else:
        metrics = plain_metrics(plain, spec["items"])

    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def plain_metrics(runs: list, items: int) -> dict:
    setups = [r["setup_ref_s"] for r in runs if r["setup_ref_s"] is not None]
    total = statistics.median(r["ref_s"] for r in runs)
    values = {
        "total_s": total,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "work_per_s": items / total,
        "pass_rate": sum(1 for r in runs if r["passed"]) / len(runs),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_metrics(traced: dict, plain: list) -> dict:
    layer = dict(traced["stats"].get("metrics", {}))
    layer["cli.cpu_s"] = traced["cpu"]
    layer["cli.wait_s"] = traced["wall"] - traced["cpu"]
    layer["trace.total_s"] = traced["ref_s"]
    layer["trace.overhead_s"] = traced["ref_s"] - statistics.median(r["ref_s"] for r in plain)
    layer["trace.speed"] = traced["ref_s"] / traced["wall"]
    return {k: {"value": layer.get(k, 0), "unit": unit_of(k)} for k in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
