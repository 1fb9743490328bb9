"""Write perfbench/references.json: the sha256 of `hall`'s stdout for every
workload and every vertex labelling, from one run each on this checkout.

    python3 perfbench/make_references.py

Run it only on a commit whose output is known to be right; the benchmark
fails every run whose stdout differs from these digests.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (HERE, RUN_LIMIT_S, WORK, failure_of, hall_argv,
                 labelled_inputs, labelling_key, labellings, run_child)


def main() -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    references = {}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-refs-", dir=WORK))
    try:
        for name, spec in workloads.items():
            references[name] = {}
            for perm in labellings(spec):
                quiver, bound = labelled_inputs(spec, perm)
                quiver_path = workdir / "quiver.json"
                quiver_path.write_text(json.dumps(quiver))
                run = run_child(hall_argv(spec, quiver_path, bound), "plain",
                                workdir, RUN_LIMIT_S)
                why = failure_of(run, run["digest"])
                if why:
                    print(f"{name} {labelling_key(perm)}: {why}", file=sys.stderr)
                    return 1
                references[name][labelling_key(perm)] = run["digest"]
                print(f"{name} {labelling_key(perm)} {run['wall']:.2f} s {run['digest']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(references, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
