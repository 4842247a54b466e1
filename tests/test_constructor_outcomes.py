"""Every public constructor ends in a documented outcome.

Each case calls one constructor of the library on well-formed arguments.
One argument is mutated, at some depth: a list entry dropped, duplicated or
replaced, a dict entry dropped or replaced, or a dict key replaced.  The call
must raise MalformedInputError or ContractError, or build a value.  An
algebra it builds must dump to a JSON document that reads back as the same
document.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    Cocycle,
    DimonoidTable,
    FiniteDomain,
    FamilyIndexedOp,
    FiniteRelativeAlgebra,
    FreeDendCarrier,
    LinComb,
    MorphismFamily,
    OpCarrier,
    PairIndexedOp,
    RotaBaxterFamily,
    SemigroupTable,
    VirtualSemigroup,
    check_axioms,
    cyclic_monoid,
    matching_dimonoid,
)
from relalg.errors import ContractError, MalformedInputError
from relalg.freecheck import free_derived_op
from relalg.jsonio import dump_algebra, load_algebra
from relalg.samples import rational_line_carrier

ZMOD2 = cyclic_monoid(2)
PLANES = [[[1, 0], [0, 1]], [[0, "1/2"], [Fraction(1, 3), 0]]]
MUL = {(0, 0): PLANES, (0, 1): PLANES, (1, 0): PLANES, (1, 1): PLANES}
ALGEBRA = FiniteRelativeAlgebra(["u", "v"], ZMOD2, {"mul": MUL})
MAPS = {0: [[1, 0], [0, 1]], 1: [[0, "1/2"], [1, 0]]}

# constructor -> its well-formed arguments, each of which a case may mutate
CASES = {
    SemigroupTable: (["a", "b"], [[0, 1], [1, 0]], 0, True),
    DimonoidTable: (["a", "b"], [[0, 0], [1, 1]], [[0, 1], [0, 1]]),
    Cocycle: (ZMOD2, [[1, 1], [1, "-1/1"]]),
    FiniteRelativeAlgebra: (
        ["u", "v"], ZMOD2, {"mul": MUL, "ast": {(0,): PLANES, (1,): PLANES}}, [1, "0/1"]
    ),
    RotaBaxterFamily: (ALGEBRA, MAPS),
    MorphismFamily: (ALGEBRA, ALGEBRA, MAPS),
    FreeDendCarrier: (["x", "y"], matching_dimonoid(2)),
    OpCarrier: (ZMOD2, {"mul": ALGEBRA.op("mul")}, None, ("u", "v")),
    PairIndexedOp: (ZMOD2, lambda a, b, x, y: x, 2, (0, 1)),
    FamilyIndexedOp: (ZMOD2, lambda a, x, y: x, 2),
    VirtualSemigroup: ("x", lambda i, j: i + j, None, True),
}

REPLACEMENTS = [
    True, False, None, 0, 1, 2, -1, 5, 0.5, Fraction(1, 3), "", "0", "a", "x y", "mul",
    "1/2", "1/0", [], [0], ["a"], [[0]], {}, {0: 1}, (0,), (0, 0), (0, 1, 0), ("a", "b"),
    ZMOD2, ALGEBRA,
]
KEYS = [value for value in REPLACEMENTS if getattr(value, "__hash__", None) is not None]


def paths(value, path=()):
    """(path, kind) for every mutation inside ``value``: each entry of a list
    or tuple can be dropped, duplicated or replaced, each entry of a dict
    dropped, replaced or given another key."""
    if isinstance(value, (list, tuple)):
        children, kinds = enumerate(value), ("drop", "duplicate", "replace")
    elif isinstance(value, dict):
        children, kinds = value.items(), ("drop", "replace", "rekey")
    else:
        return
    for key, child in children:
        for kind in kinds:
            yield path + (key,), kind
        yield from paths(child, path + (key,))


# (kind, depth) -> every (constructor, argument position, path) it applies
# at; a whole argument is replaced at depth 0
PLACES = {}
for cls, args in CASES.items():
    for position, arg in enumerate(args):
        for path, kind in [((), "replace"), *paths(arg)]:
            PLACES.setdefault((kind, len(path)), []).append((cls, position, path))


def mutate(value, path, kind, new):
    """``value`` with the mutation applied; only the containers on the path
    are copied."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    out = dict(value) if isinstance(value, dict) else list(value)
    if rest:
        out[key] = mutate(value[key], rest, kind, new)
    elif kind == "drop":
        del out[key]
    elif kind == "duplicate":
        out.insert(key, out[key])
    elif kind == "rekey":
        out[new] = out.pop(key)
    else:
        out[key] = new
    return tuple(out) if isinstance(value, tuple) else out


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(data=st.data())
def test_every_constructor_call_ends_in_a_documented_outcome(data):
    # a kind and a depth first, then a place: a shallow place or a dict key
    # is as likely as the many deep list entries
    kind, depth = data.draw(st.sampled_from(sorted(PLACES)), label="kind, depth")
    cls, position, path = data.draw(st.sampled_from(PLACES[kind, depth]), label="place")
    new = data.draw(st.sampled_from(KEYS if kind == "rekey" else REPLACEMENTS), label="value")
    args = list(CASES[cls])
    args[position] = mutate(args[position], path, kind, new)
    try:
        built = cls(*args)
    except (MalformedInputError, ContractError):
        return
    if isinstance(built, FiniteRelativeAlgebra):
        doc = dump_algebra(built)
        assert dump_algebra(load_algebra(json.loads(json.dumps(doc)))) == doc


def test_an_op_carrier_refuses_an_index_or_ops_of_another_kind():
    with pytest.raises(MalformedInputError, match="^index: expected an index structure, got int$"):
        RotaBaxterFamily(OpCarrier(5, {}, basis=("u",)), {0: [[1]]})
    with pytest.raises(MalformedInputError, match="^ops: expected a dict, got int$"):
        OpCarrier(ZMOD2, 5)


def test_a_virtual_semigroup_refuses_a_product_that_is_not_callable():
    with pytest.raises(MalformedInputError, match="^op: expected a callable, got int$"):
        VirtualSemigroup("x", 5)


@pytest.mark.parametrize("cls", [PairIndexedOp, FamilyIndexedOp])
def test_an_operation_wrapper_refuses_an_index_of_another_kind(cls):
    with pytest.raises(MalformedInputError, match="^index: expected an index structure, got int$"):
        cls(5, lambda *args: args[-1])


# an operation over a two-element index, called at index a: a finite pair
# role whose blocks differ (read at -1, it took the block at (1, 0)), a finite
# family role, the free carrier's prec (which grafted at 1 for True), its
# derived mul and its prec on trees, which reads a bool as a name
U = LinComb.single(0)
BLOCKS = {(0, 0): [[[1]]], (0, 1): [[[1]]], (1, 0): [[[2]]], (1, 1): [[[1]]]}
ONE_DIM = FiniteRelativeAlgebra(["u"], ZMOD2, {"mul": BLOCKS, "ast": {(0,): [[[1]]], (1,): [[[3]]]}})
FREE = FreeDendCarrier(["x", "y"], ZMOD2)
TREE = LinComb.single(FREE.parse("x[]"))
IDS = FREE.to_ids(TREE)
HANDED = {
    "finite pair role": lambda a: ONE_DIM.op("mul")(a, 0, U, U),
    "finite pair role, second index": lambda a: ONE_DIM.op("mul")(0, a, U, U),
    "finite family role": lambda a: ONE_DIM.op("ast")(a, U, U),
    "free dimonoid prec": lambda a: FREE.dimonoid_ops()[0](a, IDS, IDS),
    "free derived mul": lambda a: free_derived_op(FREE, "mul")(a, 0, IDS, IDS),
    "free prec on trees": lambda a: FREE.prec(TREE, TREE, a),
}


@pytest.mark.parametrize("name", HANDED)
@pytest.mark.parametrize("index, got", [(-1, "-1"), (2, "2"), (True, "bool")])
def test_an_operation_refuses_at_its_call_an_index_outside_its_finite_index(name, index, got):
    HANDED[name](1)
    message = f"^expected an index in 0\\.\\.1, got {got}$"
    if name == "free prec on trees" and index is True:
        message = "^undeclared edge label True$"
    with pytest.raises(MalformedInputError, match=message):
        HANDED[name](index)


def test_an_operation_leaves_a_virtual_index_to_its_product():
    assert rational_line_carrier().op("mul")(10**6, 10**6, U, U) == U


@pytest.mark.parametrize("reads", [(1, 0), (0, 0), (0, 1, 0), [0, 1], (0, True), (0.0,), 1, None])
def test_a_pair_indexed_operation_reads_the_first_index_the_second_both_or_none(reads):
    message = r"^reads: expected \(\), \(0,\), \(1,\) or \(0, 1\), got "
    with pytest.raises(MalformedInputError, match=message):
        PairIndexedOp(ZMOD2, lambda *args: args[-1], reads=reads)


def test_a_role_bound_to_what_is_not_an_operation_is_refused_by_the_check():
    # operations are duck-typed: the check reads an arity off each one
    carrier = OpCarrier(ZMOD2, {"mul": 5}, basis=("u",))
    message = "^role 'mul' has index arity None, suite RelAssoc expects 2$"
    with pytest.raises(ContractError, match=message):
        check_axioms(carrier, "RelAssoc", FiniteDomain(("u",), range(2)))
