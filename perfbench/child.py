"""Run one `hall` command in this process, as the benchmark's child.

    python3 perfbench/child.py STATS_FILE plain|trace -- HALL_ARGS...

The `hall` CLI runs exactly as `python3 -m hallalg.cli HALL_ARGS` would, and
its stdout and exit code pass through untouched.  On exit the child writes
STATS_FILE as JSON: `setup`, the clock times at which the first call of
`RunConfig.context()` started and ended, and in
`trace` mode the per-layer counters and spans of perfbench/tracer.py.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallalg import cli  # noqa: E402


def _time_setup(setup: list) -> None:
    context = cli.RunConfig.context

    def timed_context(self):
        t0 = time.perf_counter()
        try:
            return context(self)
        finally:
            setup.append((t0, time.perf_counter()))

    cli.RunConfig.context = timed_context


def main() -> int:
    stats_path, mode, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "trace") or sep != "--":
        raise SystemExit(__doc__)
    setup: list = []
    _time_setup(setup)
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        stats = {"setup": setup[0] if setup else None}
        if tracer is not None:
            stats.update(tracer.report())
        Path(stats_path).write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main())
