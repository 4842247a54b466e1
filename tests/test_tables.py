"""``errors.read_table``, the one reader of nested tables, and the in-memory
constructors that read their tables through it: every malformed table is
refused at the full path of the refused list or entry.  The constructors read
their name lists through ``errors.read_names`` and their scalars through
``lincomb.exact``, which refuses what is not a rational as malformed input."""

import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from relalg import FiniteRelativeAlgebra, FreeDendCarrier, LinComb, cyclic_monoid, trivial_monoid
from relalg.cli import main
from relalg.errors import ContractError, MalformedInputError, read_table
from relalg.jsonio import load_algebra
from relalg.ops import MorphismFamily, OpCarrier, RotaBaxterFamily
from relalg.samples import reciprocal_rota_baxter
from relalg.semigroups import Cocycle, DimonoidTable, SemigroupTable


DATA = Path(__file__).resolve().parent.parent / "data"


def small_int(value):
    """A test leaf: an int in 0..9."""
    if type(value) is not int or not 0 <= value < 10:
        raise MalformedInputError(f"expected a digit, got {value!r}")
    return value


CUBE = tuple(tuple(tuple(4 * i + 2 * j + k for k in range(2)) for j in range(2)) for i in range(2))


def test_a_well_formed_table_reads_back_as_nested_tuples():
    assert read_table(CUBE, "t", small_int, 2, 2, 2) == CUBE
    as_lists = [[list(row) for row in plane] for plane in CUBE]
    assert read_table(as_lists, "t", small_int, 2, 2, 2) == CUBE
    assert read_table([[], [7]], "t", small_int, None, None) == ((), (7,))
    assert read_table([], "t", small_int, 0, 3, 3) == ()


def _mutated(path, value):
    """CUBE as lists with the entry at ``path`` replaced by ``value``."""
    table = [[list(row) for row in plane] for plane in CUBE]
    if not path:
        return value
    parent = table
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return table


# one refusal at each depth of a 3-level table, and where the walk finds it
REFUSALS = [
    ((), "abc", "t: expected a list of length 2, got str"),
    ((), [[[0, 1], [2, 3]]], "t: expected a list of length 2, got 1"),
    ((1,), {"a": 1}, "t[1]: expected a list of length 2, got dict"),
    ((1,), [[4, 5]], "t[1]: expected a list of length 2, got 1"),
    ((1, 0), (4, 5, 6), "t[1][0]: expected a list of length 2, got 3"),
    ((0, 1), 5, "t[0][1]: expected a list of length 2, got int"),
    ((1, 1, 1), 10, "t[1][1][1]: expected a digit, got 10"),
    ((0, 0, 0), "0", "t[0][0][0]: expected a digit, got '0'"),
]


@pytest.mark.parametrize(
    "path, value, message", REFUSALS, ids=[message.split(":")[0] for _, _, message in REFUSALS]
)
def test_a_refusal_at_every_depth_names_its_full_path(path, value, message):
    # the one-pass read of the bottom levels refuses without paths; the walk
    # that names the refusal must find it, at its full path
    with pytest.raises(MalformedInputError) as info:
        read_table(_mutated(path, value), "t", small_int, 2, 2, 2)
    assert str(info.value) == message


def test_the_first_refusal_depth_first_is_named():
    # row [0] holds a bad entry and row [1] a bad length: the entry comes first
    with pytest.raises(MalformedInputError, match=r"^t\[0\]\[1\]: expected a digit, got 11$"):
        read_table([[0, 11], [1]], "t", small_int, 2, 2)


BLOCK = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
ZMOD2 = cyclic_monoid(2)


def _algebra(**kwargs):
    return FiniteRelativeAlgebra(["u", "v"], trivial_monoid(), {"mul": {(0, 0): BLOCK}}, **kwargs)


def _one_dim(ops):
    return FiniteRelativeAlgebra(["u"], trivial_monoid(), ops)


def _refusals():
    yield "semigroup-row", lambda: SemigroupTable(["0", "1"], [[0, 1], [1, 0, 1]]), (
        "product[1]: expected a list of length 2, got 3")
    yield "semigroup-rows", lambda: SemigroupTable(["0"], [[0], [0]]), (
        "product: expected a list of length 1, got 2")
    yield "semigroup-entry", lambda: SemigroupTable(["0", "1"], [[0, 2], [1, 0]]), (
        "product[0][1]: expected an index in 0..1, got 2")
    yield "semigroup-bool", lambda: SemigroupTable(["0", "1"], [[0, 1], [1, False]]), (
        "product[1][1]: expected an index in 0..1, got bool")
    yield "dimonoid-left", lambda: DimonoidTable(["a", "b"], [[0, 0], "ab"], [[0, 1], [0, 1]]), (
        "left[1]: expected a list of length 2, got str")
    yield "dimonoid-right", lambda: DimonoidTable(["a", "b"], [[0, 0], [1, 1]], [[0, 1]]), (
        "right: expected a list of length 2, got 1")
    yield "algebra-block", lambda: FiniteRelativeAlgebra(
        ["u"], trivial_monoid(), {"mul": {(0, 0): [[[1], [0]]]}}), (
        "ops[mul][(0, 0)][0]: expected a list of length 1, got 2")
    yield "algebra-unit", lambda: _algebra(unit_vector=[1, 0, 5]), (
        "unit_vector: expected a list of length 2, got 3")
    yield "algebra-unit-lincomb", lambda: _algebra(unit_vector=LinComb.single(5)), (
        "unit_vector: expected a list of length 2, got LinComb")
    yield "algebra-no-blocks", lambda: _one_dim({"mul": {}}), (
        "ops[mul]: expected one block per index tuple, got none")
    yield "cocycle-shape", lambda: Cocycle(ZMOD2, [[1, 1], [1]]), (
        "values[1]: expected a list of length 2, got 1")
    yield "cocycle-zero", lambda: Cocycle(ZMOD2, [[1, 0], [1, 1]]), (
        "values[0][1]: expected a nonzero scalar, got 0")
    yield "morphism", lambda: MorphismFamily(_algebra(), _algebra(), {0: [[1, 0], [0]]}), (
        "maps[0][1]: expected a list of length 2, got 1")
    # a 2-dimensional algebra over Z/2
    ops = {"mul": {(a, b): BLOCK for a in (0, 1) for b in (0, 1)}}
    alg = FiniteRelativeAlgebra(["u", "v"], ZMOD2, ops)
    yield "rota-baxter", lambda: RotaBaxterFamily(alg, {0: [[1, 2, 3]], 1: [[0]]}), (
        "maps[0]: expected a list of length 2, got 1")
    # a map family over a finite index names every element exactly once
    eye = [[1, 0], [0, 1]]
    yield "rota-baxter-missing-key", lambda: RotaBaxterFamily(alg, {0: eye}), (
        "maps: wrong index keys (missing [1], extra [])")
    yield "rota-baxter-extra-key", lambda: RotaBaxterFamily(alg, {0: eye, 1: eye, 5: eye}), (
        "maps: wrong index keys (missing [], extra [5])")
    yield "algebra-mixed-arities", lambda: FiniteRelativeAlgebra(
        ["u", "v"], ZMOD2, {"mul": {**ops["mul"], (1,): BLOCK}}), (
        "ops[mul]: wrong index keys (missing [], extra [(1,)])")
    # keys are compared by equality, where (0, 0.0) is (0, 0): the key type is checked first
    yield "algebra-key-float", lambda: _one_dim({"mul": {(0, 0.0): [[[1]]]}}), (
        "ops[mul]: expected int tuple keys, got (0, 0.0)")
    # a role table or a map family given in a shape other than a dict
    yield "algebra-ops-not-dict", lambda: _one_dim([("mul", {})]), (
        "ops: expected a dict, got list")
    yield "algebra-role-not-dict", lambda: _one_dim({"mul": [[[1]]]}), (
        "ops[mul]: expected a dict, got list")
    yield "rota-baxter-maps-not-dict", lambda: RotaBaxterFamily(alg, [[[1]]]), (
        "maps: expected a dict or a callable, got list")
    # a morphism's operands and maps, each named
    line = FiniteRelativeAlgebra(["u"], ZMOD2, {"mul": dict.fromkeys(ops["mul"], [[[1]]])})
    yield "morphism-maps-not-dict", lambda: MorphismFamily(line, line, 7), (
        "maps: expected a dict, got int")
    yield "morphism-target-not-algebra", lambda: MorphismFamily(line, 5, {0: [[1]], 1: [[1]]}), (
        "target: expected a finite algebra, got int")
    yield "morphism-source-not-algebra", lambda: MorphismFamily(5, line, {0: [[1]], 1: [[1]]}), (
        "source: expected a finite algebra, got int")
    yield "morphism-key-not-index", lambda: MorphismFamily(line, line, {0: [[1]], "1": [[1]]}), (
        "maps: wrong index keys (missing [1], extra ['1'])")
    # name lists, read by errors.read_names
    label = "tree labels are letters, digits and _"
    yield "semigroup-no-names", lambda: SemigroupTable([], []), (
        "elements: expected at least one name")
    yield "semigroup-name-twice", lambda: SemigroupTable(["a", "b", "a"], [[0] * 3] * 3), (
        "elements: name 'a' given twice")
    yield "semigroup-label", lambda: SemigroupTable(["a b"], [[0]]), f"label 'a b': {label}"
    yield "dimonoid-name-twice", lambda: DimonoidTable(["0", "0"], [[0, 0]] * 2, [[0, 0]] * 2), (
        "elements: name '0' given twice")
    yield "algebra-no-names", lambda: FiniteRelativeAlgebra([], trivial_monoid(), {}), (
        "basis: expected at least one name")
    yield "algebra-name-twice", lambda: FiniteRelativeAlgebra(["u", "u"], trivial_monoid(), {}), (
        "basis: name 'u' given twice")
    yield "free-no-names", lambda: FreeDendCarrier([], ZMOD2), (
        "decorations: expected at least one name")
    yield "free-name-twice", lambda: FreeDendCarrier(["x", "y", "x"], ZMOD2), (
        "decorations: name 'x' given twice")
    yield "free-label", lambda: FreeDendCarrier(["x", "y-1"], ZMOD2), f"label 'y-1': {label}"
    yield "free-bare-string", lambda: FreeDendCarrier("xy", ZMOD2), (
        "decorations: expected a list of names, got str")
    yield "free-not-iterable", lambda: FreeDendCarrier(5, ZMOD2), (
        "decorations: expected a list of names, got int")
    yield "semigroup-bare-string", lambda: SemigroupTable("ab", [[0, 1], [1, 0]]), (
        "elements: expected a list of names, got str")
    # a semigroup's unit, read as an index
    z2 = partial(SemigroupTable, ["a", "b"], [[0, 1], [1, 0]])
    for unit, got in (("a", "str"), (True, "bool"), (1.0, "float"), (5, "5")):
        yield f"semigroup-unit-{unit!r}", partial(z2, unit), (
            f"unit: expected an index in 0..1, got {got}")
    # beside "mul", a role 5 made sorting the roles raise a bare TypeError
    two_roles = {"mul": {(0, 0): [[[1]]]}, 5: {(0, 0): [[[1]]]}}
    yield "algebra-role-not-str", lambda: _one_dim(two_roles), (
        "ops: expected str role names, got 5")
    yield "algebra-key-not-tuple", lambda: _one_dim({"mul": {0: [[[1]]]}}), (
        "ops[mul]: expected int tuple keys, got 0")
    named = {(0, 0): [[[1]]], ("a", "b"): [[[1]]], (0, 5): [[[1]]]}
    yield "algebra-key-of-names", lambda: _one_dim({"mul": named}), (
        "ops[mul]: expected int tuple keys, got ('a', 'b')")
    # scalars outside the files' "p/q" grammar and the rationals, read by lincomb.exact
    for value, message in [
        ("1_000", "bad scalar '1_000': expected \"p/q\""),
        ("1e3", "bad scalar '1e3': expected \"p/q\""),
        ("1/0", "bad scalar '1/0': zero denominator"),
        (None, "bad scalar None: not a rational number"),
        ([1], "bad scalar [1]: not a rational number"),
        (1j, "bad scalar 1j: not a rational number"),
        (float("inf"), "bad scalar inf: not a rational number"),
    ]:
        yield f"algebra-scalar-{value!r}", partial(_one_dim, {"mul": {(0, 0): [[[value]]]}}), (
            f"ops[mul][(0, 0)][0][0][0]: {message}")


REFUSED = list(_refusals())


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_in_memory_constructors_refuse_a_malformed_table_at_its_path(build, message):
    with pytest.raises(MalformedInputError) as info:
        build()
    assert str(info.value) == message


def test_in_memory_tables_are_held_in_exact_form():
    alg = _algebra(unit_vector=(Fraction(1), 0.5))
    assert alg.unit_vector == LinComb([(0, 1), (1, Fraction(1, 2))])
    rb = RotaBaxterFamily(alg, {0: [[Fraction(2), 0], [0, 0.25]]})
    assert rb.maps == {0: ((2, 0), (0, Fraction(1, 4)))}
    assert Cocycle(ZMOD2, [[Fraction(1), 1], [1, -1.0]]).values == ((1, 1), (1, -1))


def test_dict_maps_need_a_carrier_with_a_finite_basis():
    line = reciprocal_rota_baxter().carrier
    with pytest.raises(ContractError, match="without a finite basis takes callable maps only"):
        RotaBaxterFamily(OpCarrier(line.index, line.ops), {1: [[1]]})
    assert RotaBaxterFamily(line, {1: [[1]]}).maps == {1: ((1,),)}


def test_a_map_family_is_refused_alike_in_memory_and_from_a_file(tmp_path, capsys):
    # one matrix for the two elements of Z/2
    algebra = json.loads((DATA / "cocycle_algebra.json").read_text())
    with pytest.raises(MalformedInputError) as info:
        RotaBaxterFamily(load_algebra(algebra), {0: [[0]]})
    message = "maps: wrong index keys (missing [1], extra [])"
    assert str(info.value) == message
    path = tmp_path / "rb.json"
    path.write_text(json.dumps({"algebra": algebra, "maps": {"0": [["0/1"]]}}))
    assert main(["check-rb", "--rb", str(path)]) == 2
    assert capsys.readouterr().err == f"error: malformed input: rb: {message}\n"


def test_the_cli_names_a_long_product_row_by_its_json_path(tmp_path, capsys):
    path = tmp_path / "row.json"
    doc = {"elements": ["0", "1"], "product": [[0, 1], [1, 0, 1]], "unit": None}
    path.write_text(json.dumps(doc))
    assert main(["check-semigroup", "--semigroup", str(path)]) == 2
    expected = "error: malformed input: semigroup.product[1]: expected a list of length 2, got 3\n"
    assert capsys.readouterr().err == expected


def test_the_cli_names_a_role_table_with_no_blocks_by_its_json_path(tmp_path, capsys):
    path = tmp_path / "no_blocks.json"
    doc = {"dim": 1, "basis": ["u"], "unit": None, "ops": {"mul": {}},
           "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e"}}
    path.write_text(json.dumps(doc))
    assert main(["check-algebra", "--algebra", str(path), "--suite", "RelAssoc"]) == 2
    message = "algebra.ops.mul: expected one block per index tuple, got none"
    assert capsys.readouterr().err == f"error: malformed input: {message}\n"
