"""Every name that perfbench/tracer.py wraps or reads still exists in hallalg.

The tracer replaces functions and methods by name, so a rename or deletion
in src/ would only show when `perfbench/run.py --trace 1` fails.  The
tracer is loaded by path and not installed: nothing is wrapped here.
"""

import importlib.util
from pathlib import Path

from hallalg import reps, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    missing = [
        prefix
        for prefix, owner, attr, _ in tracer.WRAPPED
        if not (attr in owner.__dict__ if isinstance(owner, type)
                else hasattr(owner, attr))
    ]
    assert missing == []


def test_report_reads_what_exists():
    # report() reads the lru_cache statistics of reps.hom_basis, and the
    # tracer wraps each runner of verify._CHECK_RUNNERS and reports each
    # check of verify.ALL_CHECKS by name
    info = reps.hom_basis.cache_info()
    assert all(isinstance(getattr(info, f), int) for f in ("hits", "misses", "currsize"))
    assert set(verify._CHECK_RUNNERS) == set(verify.ALL_CHECKS)
    assert all(callable(runner) for runner in verify._CHECK_RUNNERS.values())
