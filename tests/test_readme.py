"""The README "Library quick start" block runs as written, and what its
comments say about the values it computes holds.

The block is taken from the fenced python block of that section and run
statement by statement; the value of each bare expression is kept with the
comment on its line.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

from hallalg import DerivedClass

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_block(block: str) -> tuple:
    """(namespace, {comment: value}) for each commented bare expression."""
    lines = block.splitlines()
    ns: dict = {}
    commented = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), ns)
            line = lines[stmt.end_lineno - 1]
            if "#" in line:
                commented[line.split("#", 1)[1].strip()] = value
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    return ns, commented


def test_quick_start_runs_and_its_comments_hold():
    ns, values = run_block(quick_start_block())
    assert list(values) == [
        "chi_split + chi_indecomposable",
        "the same element, via the span",
        "contains 1/|Aut| * chi_0",
    ]
    product, via_span, derived = values.values()
    cat, s1 = ns["cat"], ns["s1"]

    # multiply and mu_span agree
    assert via_span == product
    # one split and one indecomposable class of dims (1, 1), coefficient 1
    assert sorted(product.values.values()) == [1, 1]
    assert sorted(cat.entries[z].indecomposable for z in product.values) == [False, True]
    assert all(cat.dims(z) == (1, 1) for z in product.values)
    # the derived product has coefficient 1/|Aut s1| on chi_0
    assert derived(DerivedClass.zero()) == Fraction(1, cat.aut_order(s1))
