"""Every value in the package is immutable by contract: records are frozen
dataclasses, and no code rebinds an attribute of an object after its
constructor.  The rule is checked here over the source, once for every
class, instead of by a runtime write guard on some of them; without guards,
values copy, deep-copy and pickle like any other object."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from relalg import LinComb, cyclic_monoid, matching_dimonoid
from relalg.jsonio import dump_algebra, load_algebra, load_cocycle, load_file

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "relalg").glob("*.py"))}

# (module, scope, target) -> why the store is allowed outside a constructor;
# a scope is a function's qualified name or a class whose methods all may
ALLOWED_STORES = {
    ("trees", "DecoratedTree.sort_key", "self._key"):
        "a cache of a value the constructor fixed, filled on first use",
    ("trees", "_Parser", "self.pos"): "the cursor of a parser, which lives for one parse",
    ("exprs", "_ExprParser", "self.pos"): "the cursor of a parser, which lives for one parse",
    ("jsonio", "_json_object", "obj.key"): "marks a dict the JSON decoder built a moment ago",
    ("freedend", "FreeDendCarrier.settle", "self._base"):
        "the first id of a free carrier's emptied node table, moved past every id given out",
    ("freedend", "FreeDendCarrier.settle", "self.emptied"): "counts the emptyings of those tables",
}
# a frozen dataclass computes its derived fields only this way
ALLOWED_SETATTR_CALLS = {("axioms", "Equation.__post_init__"), ("axioms", "Suite.__post_init__")}
SETATTR_NAMES = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _sites():
    """(module, qualified scope, node, enclosing function) for every
    attribute store or delete and every setattr-like call in the package."""
    out = []

    def walk(node, module, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child if not isinstance(child, ast.ClassDef) else None
                walk(child, module, scope + (child.name,), inner)
                continue
            store = isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del))
            call = isinstance(child, ast.Call) and (
                getattr(child.func, "id", None) in SETATTR_NAMES
                or getattr(child.func, "attr", None) in SETATTR_NAMES
            )
            if store or call:
                out.append((module, ".".join(scope), child, function))
            walk(child, module, scope, function)

    for module, tree in MODULES.items():
        walk(tree, module, (), None)
    return out


def _in_scope(qualname, scope):
    return qualname == scope or qualname.startswith(scope + ".")


def _allowed(module, qualname, node, function):
    if isinstance(node, ast.Call):
        return (module, qualname) in ALLOWED_SETATTR_CALLS
    target = ast.unparse(node)
    if (
        function is not None
        and function.name == "__init__"
        and function.args.args
        and function.args.args[0].arg == "self"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return True
    return any(
        module == m and target == t and _in_scope(qualname, scope)
        for m, scope, t in ALLOWED_STORES
    )


def test_no_attribute_is_rebound_after_its_constructor():
    sites = _sites()
    refused = [
        f"{module}.py:{node.lineno} in {qualname}: {ast.unparse(node)}"
        for module, qualname, node, function in sites
        if not _allowed(module, qualname, node, function)
    ]
    assert refused == []
    # every allowed site is still in the source, so the lists cannot go stale
    stores = {(m, q, ast.unparse(n)) for m, q, n, _ in sites if not isinstance(n, ast.Call)}
    for module, scope, target in ALLOWED_STORES:
        assert any(m == module and t == target and _in_scope(q, scope) for m, q, t in stores)
    calls = {(m, q) for m, q, n, _ in sites if isinstance(n, ast.Call)}
    assert calls == ALLOWED_SETATTR_CALLS


def _self_referencing_closures():
    """module.qualified name of every function nested in another function
    that names itself: a closure that refers to itself through its own cell
    is a reference cycle, which keeps whatever it captures alive until the
    cyclic collector runs."""
    out = []

    def walk(node, module, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                names = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
                if in_function and is_function and child.name in names:
                    out.append(".".join((module, *scope, child.name)))
                walk(child, module, scope + (child.name,), in_function or is_function)
            else:
                walk(child, module, scope, in_function)

    for module, tree in MODULES.items():
        walk(tree, module, (), False)
    return out


def test_no_nested_function_refers_to_itself():
    assert _self_referencing_closures() == []


def test_every_dataclass_is_frozen():
    decorators = [
        node
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.decorator_list
        if "dataclass" in ast.unparse(node)
    ]
    assert decorators
    for node in decorators:
        assert isinstance(node, ast.Call), ast.unparse(node)
        assert any(
            k.arg == "frozen" and getattr(k.value, "value", None) is True for k in node.keywords
        ), ast.unparse(node)


def _sign_cocycle():
    return load_cocycle(load_file(DATA / "cocycle_sign.json"))


VALUES = {
    "lincomb": lambda: LinComb([("x", 1), ("y", Fraction(-2, 3))]),
    "semigroup": lambda: cyclic_monoid(2),
    "dimonoid": lambda: matching_dimonoid(2),
    "cocycle": _sign_cocycle,
}


@pytest.mark.parametrize("name", sorted(VALUES))
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_deepcopy_and_pickle(name, clone):
    value = VALUES[name]()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)


def test_an_algebra_deep_copies():
    # its kernels are closures local to the constructor, so it does not pickle
    alg = load_algebra(load_file(DATA / "cocycle_algebra.json"))
    twin = copy.deepcopy(alg)
    assert twin is not alg
    assert dump_algebra(twin) == dump_algebra(alg)
