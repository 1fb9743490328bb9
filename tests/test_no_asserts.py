"""No invariant in the library may depend on assert.

python -O strips assert statements, so a check written as one silently
stops running.  Library code raises hallalg.errors.InvariantError instead;
this guard fails on any assert statement or raise AssertionError in
src/hallalg.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hallalg"


def offenders(tree: ast.AST) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "AssertionError":
                out.append((node.lineno, "raise AssertionError"))
    return out


def test_library_has_no_asserts():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in offenders(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "use InvariantError instead:\n" + "\n".join(found)


def test_guard_sees_every_form():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError('no')\n"
        "raise AssertionError\n"
        "raise builtins.AssertionError()\n"
        "raise ValueError('fine')\n"
    )
    assert offenders(tree) == [
        (1, "assert"),
        (2, "raise AssertionError"),
        (3, "raise AssertionError"),
        (4, "raise AssertionError"),
    ]
