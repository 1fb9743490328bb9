"""The contracts of the package's hand-written classes: the values that are
compared, hashed or used as cache keys (errors.Frozen) keep value
equality, a value hash and refuse assignment; every constructor keeps its
InputError messages."""

import ast
import copy
import json
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from hallalg import reps
from hallalg.catalog import catalog_build
from hallalg.cli import RunConfig
from hallalg.derived import DerivedClass
from hallalg.errors import Frozen, InputError
from hallalg.hall import HallContext
from hallalg.lf import BaseChangeSquare, Fiber, LFType, ProperMapData
from hallalg.quivers import Quiver, a_n_quiver


def load_twice(tmp_path, doc):
    out = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        out.append(Quiver.load(str(path)))
    return out


def test_separately_loaded_equal_quivers_share_cache_entries(tmp_path):
    q1, q2 = load_twice(tmp_path, {"schema": 1, "vertices": 3, "arrows": [
        {"src": 0, "dst": 1}, {"src": 2, "dst": 1}]})
    assert q1 is not q2
    assert q1 == q2 and not q1 != q2 and hash(q1) == hash(q2)
    assert hash(q1) == hash((3, ((0, 1), (2, 1))))
    assert q1 != Quiver(3, ((0, 1), (1, 2))) and q1 != (3, ((0, 1), (2, 1)))
    assert {q1: "a"}[q2] == "a"
    first = reps.projective_rep(q1, 5, 1)
    hits = reps.projective_rep.cache_info().hits
    assert reps.projective_rep(q2, 5, 1) is first
    assert reps.projective_rep.cache_info().hits == hits + 1
    assert repr(q1) == "Quiver(vertex_count=3, arrows=((0, 1), (2, 1)))"


# (constructor, its field tuple, its repr)
VALUES = [
    (lambda: Quiver(2, [[0, 1]]), (2, ((0, 1),)),
     "Quiver(vertex_count=2, arrows=((0, 1),))"),
    (lambda: LFType(("a",), ((2,),)), (("a",), ((2,),)),
     "LFType(components=('a',), orders=((2,),))"),
    (lambda: DerivedClass(((-1, 2), (0, 1))), (((-1, 2), (0, 1)),),
     "DerivedClass(entries=((-1, 2), (0, 1)))"),
]
VALUE_IDS = ["quiver", "lftype", "derivedclass"]


@pytest.mark.parametrize("make, fields, text", VALUES, ids=VALUE_IDS)
def test_values_refuse_assignment(make, fields, text):
    value = make()
    for field in value._fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
        value.extra = 1


@pytest.mark.parametrize("make, fields, text", VALUES, ids=VALUE_IDS)
def test_frozen_values_compare_hash_print_and_pickle_as_dataclasses(make, fields, text):
    value, again = make(), make()
    assert value is not again and value == again and not value != again
    assert hash(value) == hash(again) == hash(fields)
    assert repr(value) == text
    assert value != fields and fields != value

    class Twin(Frozen):
        __slots__ = _fields = type(value)._fields

    twin = object.__new__(Twin)
    for name, field in zip(Twin._fields, fields):
        object.__setattr__(twin, name, field)
    assert twin._values() == value._values() and twin != value and value != twin

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied is not value and type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


def frozen_protocol_definitions(tree: ast.AST, module: str) -> list:
    """(module.class, method) for each class of the tree, but errors.Frozen,
    that defines a method of the frozen protocol Frozen gives."""
    return [
        (f"{module}.{node.name}", item.name)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and f"{module}.{node.name}" != "errors.Frozen"
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in ("__setattr__", "__delattr__", "__reduce__")
    ]


def test_only_frozen_writes_the_frozen_protocol():
    src = Path(__file__).resolve().parents[1] / "src" / "hallalg"
    found = [hit for path in sorted(src.glob("*.py"))
             for hit in frozen_protocol_definitions(ast.parse(path.read_text()), path.stem)]
    assert not found, f"subclass errors.Frozen instead: {found}"


def test_the_protocol_guard_sees_a_copy():
    tree = ast.parse("class Frozen:\n    def __setattr__(self, n, v): pass\n"
                     "class A:\n    def __reduce__(self): pass\n"
                     "    class B:\n        def __delattr__(self, n): pass\n"
                     "    def __repr__(self): pass\n")
    assert frozen_protocol_definitions(tree, "errors") == [
        ("errors.A", "__reduce__"), ("errors.B", "__delattr__")]
    assert frozen_protocol_definitions(tree, "other")[0] == ("other.Frozen", "__setattr__")


def test_quiver_arrows_are_normalised_to_tuples():
    q = Quiver(2, [[0, 1], [0, 1]])
    assert q.arrows == ((0, 1), (0, 1)) and q == Quiver(2, ((0, 1), (0, 1)))


def test_lftype_compares_by_components_and_orders():
    a = LFType(("x", "y"), ((2,), ()))
    assert a == LFType.from_pairs([("x", [2]), ("y", [])])
    assert hash(a) == hash((("x", "y"), ((2,), ())))
    assert a != LFType(("x", "y"), ((3,), ()))
    assert a.component_set == frozenset({"x", "y"})


X = LFType(("a", "b"), ((), ()))
PT = LFType.point()


@pytest.mark.parametrize("make, message", [
    (lambda: Quiver(0, ()), "quiver needs at least one vertex"),
    (lambda: Quiver(2, ((0, 2),)), "arrow (0,2) out of range"),
    (lambda: LFType(("a",), ()), "components/orders length mismatch"),
    (lambda: LFType(("a", "a"), ((), ())), "duplicate component ids"),
    (lambda: LFType(("a",), ((2.0,),)), "orders must be ints >= 1, not [2.0]"),
    (lambda: LFType(("a",), ((True,),)), "orders must be ints >= 1, not [True]"),
    (lambda: Fiber(X, ("a",)), "fiber incl length mismatch"),
    (lambda: ProperMapData(X, PT, ("pt",)), "component_map length mismatch"),
    (lambda: ProperMapData(X, PT, ("pt", "q")), "component_map hits unknown target 'q'"),
    (lambda: ProperMapData(X, PT, ("pt", "pt"), ()),
     "need one fiber per target component"),
    (lambda: ProperMapData(PT, X, ("a",), (Fiber(PT, ("pt",)), Fiber(PT, ("pt",)))),
     "fiber over 'b' includes components outside the preimage"),
    (lambda: ProperMapData(X, PT, ("pt", "pt"), (Fiber(PT, ("a",)),)),
     "fiber over 'pt' misses part of the preimage"),
    (lambda: BaseChangeSquare(*(ProperMapData.identity(X),) * 3,
                              ProperMapData.identity(PT)),
     "square corners disagree at Y'"),
    (lambda: RunConfig("q.json", 2, (1,), "classical", None, 0), "cap must be positive"),
    (lambda: RunConfig("q.json", 2, (1, -1), "classical", None, 10),
     "bound must be componentwise >= 0"),
    (lambda: HallContext("tropical", catalog_build(a_n_quiver(1), 2, (1,))),
     "unknown mode 'tropical'"),
    (lambda: HallContext("derived", catalog_build(a_n_quiver(1), 2, (1,)), window=(1, 0)),
     "empty shift window"),
    (lambda: HallContext("derived", catalog_build(Quiver(1, ((0, 0),)), 2, (1,))),
     "derived mode needs an acyclic quiver"),
])
def test_constructors_keep_their_input_errors(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


def test_a_derived_context_defaults_its_window():
    cat = catalog_build(a_n_quiver(2), 2, (1, 1))
    assert HallContext("derived", cat).window == (-2, 2)
    assert HallContext("derived", cat, window=(-1, 0)).window == (-1, 0)
    assert HallContext("classical", cat).window is None
    assert HallContext("classical", cat, window=(0, 0)).window == (0, 0)
