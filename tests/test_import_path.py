"""What a `hall` run imports before it reads its quiver.

The package's classes are written out by hand: a dataclass decorator
imports dataclasses, which imports inspect (and ast, dis, tokenize), and
compiles its generated methods from source at every start, a cost no .pyc
caches.  The immutable values (Quiver, LFType, DerivedClass) take the
frozen-dataclass protocol from one base written once, errors.Frozen, and
dataclasses is imported only inside the function that raises its
FrozenInstanceError (errors.frozen_field_error)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hallalg.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _import_time_dataclasses(tree: ast.AST):
    """Line numbers of dataclasses imports that run when the module is
    imported: anywhere but inside a function body."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(n == "dataclasses" or n.startswith("dataclasses.") for n in names):
            yield node.lineno
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_dataclasses_at_import_time():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted((SRC / "hallalg").glob("*.py"))
        for line in sorted(_import_time_dataclasses(ast.parse(path.read_text())))
    ]
    assert not found, f"module-level dataclasses import at {', '.join(found)}"


def test_the_walk_finds_a_module_level_import_but_not_a_local_one():
    tree = ast.parse("import json\n"
                     "if True:\n    from dataclasses import dataclass\n"
                     "class A:\n    import dataclasses\n"
                     "def f():\n    from dataclasses import FrozenInstanceError\n")
    assert sorted(_import_time_dataclasses(tree)) == [3, 5]
