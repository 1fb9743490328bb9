"""Every name that perfbench/tracer.py wraps still exists in hallalg.

The tracer replaces functions and methods by name, so a rename or deletion
in src/ would only show when `perfbench/run.py --trace 1` fails.  The
tracer is loaded by path and not installed: nothing is wrapped here.
"""

import importlib.util
from pathlib import Path

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
