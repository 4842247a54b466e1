import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import LinComb, check_axioms, finite_domain
from relalg.errors import MalformedInputError
from relalg.jsonio import (
    dump_algebra,
    dump_cocycle,
    dump_dimonoid,
    dump_semigroup,
    load_algebra,
    load_cocycle,
    load_dimonoid,
    load_file,
    load_morphism,
    load_rota_baxter,
    load_semigroup,
)
from relalg.reports import _render, to_json
from relalg.samples import truncated_integration_zinbiel

ZMOD2 = {
    "elements": ["0", "1"],
    "product": [[0, 1], [1, 0]],
    "unit": "0",
    "commutative": True,
}


def test_semigroup_roundtrip():
    s = load_semigroup(ZMOD2)
    assert s.unit == 0 and s.claims_commutative
    assert dump_semigroup(s) == ZMOD2


def test_semigroup_schema_errors_carry_paths():
    with pytest.raises(MalformedInputError, match="missing key 'product'"):
        load_semigroup({"elements": ["0"]})
    with pytest.raises(MalformedInputError, match=r"product\[0\]\[1\]"):
        load_semigroup({"elements": ["0", "1"], "product": [[0, "x"], [1, 0]]})
    with pytest.raises(MalformedInputError, match="semigroup"):
        load_semigroup([])
    # element names are JSON strings; anything else is refused at its entry
    with pytest.raises(
        MalformedInputError, match=r"^semigroup\.elements\[0\]: expected a string, got dict$"
    ):
        load_semigroup({"elements": [{"a": 1}, "r"], "product": [[0, 0], [1, 1]], "unit": None})
    with pytest.raises(
        MalformedInputError, match=r"^dimonoid\.elements\[0\]: expected a string, got int$"
    ):
        load_dimonoid({"elements": [1, "1"], "left": [[0, 0], [1, 1]], "right": [[0, 1], [0, 1]]})
    with pytest.raises(MalformedInputError, match=r"^semigroup\.unit: unknown element 'z'$"):
        load_semigroup({"elements": ["0", "1"], "product": [[0, 1], [1, 0]], "unit": "z"})


def test_dimonoid_roundtrip():
    doc = {"elements": ["a", "b"], "left": [[0, 0], [1, 1]], "right": [[0, 1], [0, 1]]}
    d = load_dimonoid(doc)
    assert d.is_matching_form()
    assert dump_dimonoid(d) == doc


def test_cocycle_roundtrip():
    doc = dict(ZMOD2, values=[["1/1", "1/1"], ["1/1", "-1/1"]])
    c = load_cocycle(doc)
    assert c(1, 1) == -1
    assert dump_cocycle(c) == doc


def test_cocycle_rejects_zero_value():
    with pytest.raises(MalformedInputError):
        load_cocycle(dict(ZMOD2, values=[["1/1", "0/1"], ["1/1", "1/1"]]))


def cocycle_algebra_doc():
    return {
        "dim": 1,
        "basis": ["u"],
        "semigroup": ZMOD2,
        "ops": {
            "mul": {
                "(0,0)": [[["1/1"]]],
                "(0,1)": [[["1/1"]]],
                "(1,0)": [[["1/1"]]],
                "(1,1)": [[["-1/1"]]],
            }
        },
        "unit": ["1/1"],
    }


def test_algebra_roundtrip():
    doc = cocycle_algebra_doc()
    alg = load_algebra(doc)
    assert alg.dim == 1
    assert alg.unit_vector == LinComb.single(0)
    assert check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg)).passed
    assert dump_algebra(alg) == doc
    assert load_algebra(dump_algebra(alg)).ops == alg.ops


def test_algebra_family_keys():
    doc = {
        "dim": 1,
        "basis": ["u"],
        "semigroup": ZMOD2,
        "ops": {"ast": {"0": [[["1/1"]]], "1": [[["1/2"]]]}},
        "unit": None,
    }
    alg = load_algebra(doc)
    assert alg.op("ast").arity == 1
    assert dump_algebra(alg)["ops"]["ast"]["1"] == [[["1/2"]]]


def test_algebra_schema_errors():
    doc = cocycle_algebra_doc()
    del doc["ops"]["mul"]["(1,1)"]
    with pytest.raises(MalformedInputError, match="wrong index keys"):
        load_algebra(doc)
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(0,3)"] = [[["1/1"]]]
    with pytest.raises(MalformedInputError, match="unknown element"):
        load_algebra(doc)
    doc = cocycle_algebra_doc()
    doc["dim"] = 2
    with pytest.raises(MalformedInputError, match="basis"):
        load_algebra(doc)
    doc = cocycle_algebra_doc()
    doc["unit"] = ["1/1", "2/1"]
    with pytest.raises(MalformedInputError, match="unit"):
        load_algebra(doc)
    doc = cocycle_algebra_doc()
    doc["basis"] = [7]
    with pytest.raises(MalformedInputError, match=r"^algebra\.basis\[0\]: expected a string, got int$"):
        load_algebra(doc)
    # bool is an int in Python; a JSON true is not the dimension 1
    doc = cocycle_algebra_doc()
    doc["dim"] = True
    with pytest.raises(MalformedInputError, match=r"^algebra\.dim: wrong type bool$"):
        load_algebra(doc)


def test_dump_algebra_survives_reload_for_bigger_carrier():
    alg = truncated_integration_zinbiel(4)
    doc = dump_algebra(alg)
    again = load_algebra(doc)
    assert again.ops == alg.ops
    assert again.basis == alg.basis


DATA = Path(__file__).resolve().parent.parent / "data"

# data/ fixture -> its loader and dumper; rb_reciprocal.json names a builtin,
# which has no document form to write back
FIXTURE_FORMATS = {
    "zmod2.json": (load_semigroup, dump_semigroup),
    "trivial_a.json": (load_semigroup, dump_semigroup),
    "matching2.json": (load_dimonoid, dump_dimonoid),
    "cocycle_sign.json": (load_cocycle, dump_cocycle),
    "cocycle_algebra.json": (load_algebra, dump_algebra),
    "zinbiel8.json": (load_algebra, dump_algebra),
}


def scaled_zinbiel_doc(degree, scale):
    """The truncated-integration zinbiel of ``degree`` with every constant
    times ``scale``, written out by hand: "p/q" with the denominator always
    explicit, so a zero reads "0/1"."""
    dim = degree + 1

    def scalar(m, n, k):
        c = Fraction(scale, m + 1) if k == m + n + 1 else Fraction(0)
        return f"{c.numerator}/{c.denominator}"

    block = [[[scalar(m, n, k) for k in range(dim)] for n in range(dim)] for m in range(dim)]
    return {
        "dim": dim,
        "basis": [f"t^{m}" for m in range(dim)],
        "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True},
        "ops": {"ast": {"(e,e)": block}},
        "unit": None,
    }


# a document made in the test, beside the fixtures: Fractions, negative
# values and zeros, one distinct constant written many times
GENERATED = {"zinbiel6 scaled by -123456789012345678901/7": (
    load_algebra, dump_algebra, scaled_zinbiel_doc(6, Fraction(-123456789012345678901, 7)))}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DATA.glob("*.json") if p.name != "rb_reciprocal.json") + sorted(GENERATED)
)
def test_load_dump_is_the_identity_on_every_fixture(name):
    # each fixture is written back as read, so loading what a dumper wrote
    # rebuilds the fixture's value from the fixture's own document
    if name in GENERATED:
        load, dump, doc = GENERATED[name]
    else:
        (load, dump), doc = FIXTURE_FORMATS[name], load_file(DATA / name)
    assert dump(load(doc)) == doc


def test_rb_builtin_and_finite():
    rb = load_rota_baxter({"builtin": "reciprocal"})
    assert rb.apply(4, LinComb.single(0)) == LinComb.single(0, Fraction(1, 4))
    with pytest.raises(MalformedInputError):
        load_rota_baxter({"builtin": "nope"})
    # a list is unhashable: it must be refused, not looked up
    with pytest.raises(MalformedInputError, match=r"^rb\.builtin: unknown builtin \[\]"):
        load_rota_baxter({"builtin": []})
    doc = {
        "algebra": cocycle_algebra_doc(),
        "maps": {"0": [["0/1"]], "1": [["0/1"]]},
    }
    rb = load_rota_baxter(doc)
    assert rb.apply(0, LinComb.single(0)).is_zero()
    doc["maps"] = {"0": [["0/1"]]}
    with pytest.raises(MalformedInputError):
        load_rota_baxter(doc)


def test_morphism_loader():
    doc = {
        "source": cocycle_algebra_doc(),
        "target": cocycle_algebra_doc(),
        "maps": {"0": [["1/1"]], "1": [["-1/1"]]},
    }
    f = load_morphism(doc)
    assert f.apply(1, LinComb.single(0)) == LinComb.single(0, -1)
    doc["maps"]["1"] = [["1/1", "0/1"]]
    with pytest.raises(MalformedInputError):
        load_morphism(doc)


def _bad_scalar_docs():
    expected = 'expected a "p/q" string'
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(1,1)"] = [[[-1]]]
    yield load_algebra, doc, r"algebra\.ops\.mul\.\(1,1\)\[0\]\[0\]\[0\]", expected
    doc = cocycle_algebra_doc()
    doc["unit"] = [0.1]
    yield load_algebra, doc, r"algebra\.unit\[0\]", expected
    doc = dict(ZMOD2, values=[["1/1", "1/1"], ["1/1", -1]])
    yield load_cocycle, doc, r"cocycle\.values\[1\]\[1\]", expected
    doc = {"algebra": cocycle_algebra_doc(), "maps": {"0": [["0/1"]], "1": [[0]]}}
    yield load_rota_baxter, doc, r"rb\.maps\.1\[0\]\[0\]", expected
    doc = {
        "source": cocycle_algebra_doc(),
        "target": cocycle_algebra_doc(),
        "maps": {"0": [[1.0]], "1": [["-1/1"]]},
    }
    yield load_morphism, doc, r"morphism\.maps\.0\[0\]\[0\]", expected
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(1,1)"] = [[["1/0"]]]
    yield load_algebra, doc, r"algebra\.ops\.mul\.\(1,1\)\[0\]\[0\]\[0\]", "bad scalar '1/0'"
    doc = cocycle_algebra_doc()
    doc["unit"] = ["abc"]
    yield load_algebra, doc, r"algebra\.unit\[0\]", "bad scalar 'abc'"


@pytest.mark.parametrize(
    "loader, doc, where, message",
    list(_bad_scalar_docs()),
    ids=["block", "unit", "cocycle", "rb-map", "morphism-map", "block-1-over-0", "unit-abc"],
)
def test_json_number_scalars_rejected(loader, doc, where, message):
    # scalars are "p/q" strings; a JSON number or an unparsable string is
    # refused with its path
    with pytest.raises(MalformedInputError, match=where + ": " + message):
        loader(doc)


def _unknown_element_docs():
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(0,z)"] = doc["ops"]["mul"].pop("(0,1)")
    yield load_algebra, doc, r"^algebra\.ops\.mul\.\(0,z\): unknown element 'z'$"
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(0,"] = doc["ops"]["mul"].pop("(0,1)")
    yield load_algebra, doc, r"^algebra\.ops\.mul\.\(0,: unknown element '\(0,'$"
    doc = {"algebra": cocycle_algebra_doc(), "maps": {"0": [["0/1"]], "z": [["0/1"]]}}
    yield load_rota_baxter, doc, r"^rb\.maps\.z: unknown element 'z'$"
    doc = {
        "source": cocycle_algebra_doc(),
        "target": cocycle_algebra_doc(),
        "maps": {"0": [["1/1"]], "z": [["-1/1"]]},
    }
    yield load_morphism, doc, r"^morphism\.maps\.z: unknown element 'z'$"


@pytest.mark.parametrize(
    "loader, doc, message",
    list(_unknown_element_docs()),
    ids=["op-key", "malformed-op-key", "rb-map-key", "morphism-map-key"],
)
def test_unknown_element_keys_carry_paths(loader, doc, message):
    with pytest.raises(MalformedInputError, match=message):
        loader(doc)


def _op_key_given_twice_docs():
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["( 1 , 1 )"] = [[["1/1"]]]
    yield doc, r"^algebra\.ops\.mul\.\( 1 , 1 \): index \(1, 1\) already given$"
    doc = cocycle_algebra_doc()
    doc["ops"] = {"ast": {"0": [[["1/1"]]], "1": [[["1/2"]]], " 0": [[["2/1"]]]}}
    yield doc, r"^algebra\.ops\.ast\. 0: index \(0,\) already given$"
    # named by its elements, not their positions
    doc = {"dim": 1, "basis": ["u"], "semigroup": {"elements": ["a", "b"], "product": [[0, 0], [1, 1]]},
           "ops": {"mul": {"(b,b)": [[["1/1"]]], "( b , b )": [[["2/1"]]]}}}
    yield doc, r"^algebra\.ops\.mul\.\( b , b \): index \(b, b\) already given$"


@pytest.mark.parametrize("doc, message", list(_op_key_given_twice_docs()), ids=["pair", "single", "names"])
def test_op_key_given_twice(doc, message):
    # keys are read with their spaces stripped, so two spellings of one index
    # tuple would otherwise let the later block silently replace the earlier
    with pytest.raises(MalformedInputError, match=message):
        load_algebra(doc)


def _key_written_twice_files():
    # JSON text, since a Python dict cannot hold a key twice; each case
    # writes one "key": value entry twice
    def twice(doc, entry, again=None):
        text = json.dumps(doc)
        assert text.count(entry) == 1
        return text.replace(entry, f"{entry}, {entry if again is None else again}")

    alg = cocycle_algebra_doc()
    yield load_algebra, twice(alg, '"(1,1)": [[["-1/1"]]]'), r"algebra\.ops\.mul\.\(1,1\)"
    rb = {"algebra": alg, "maps": {"0": [["0/1"]], "1": [["0/1"]]}}
    yield load_rota_baxter, twice(rb, '"1": [["0/1"]]', '"1": [["1/1"]]'), r"rb\.maps\.1"
    yield load_algebra, twice(alg, '"dim": 1'), r"algebra\.dim"
    yield load_algebra, twice(alg, '"unit": "0"', '"unit": "1"'), r"algebra\.semigroup\.unit"


@pytest.mark.parametrize(
    "loader, text, where",
    list(_key_written_twice_files()),
    ids=["ops-key", "maps-key", "top-level-key", "nested-object-key"],
)
def test_key_written_twice_is_refused(tmp_path, loader, text, where):
    # json.load alone keeps the later of two equal keys; the file is refused
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(MalformedInputError, match=f"^{where}: key given twice$"):
        loader(load_file(path))


def test_commutative_must_be_boolean():
    # bool("false") is true: a string must not be read as a commutativity claim
    with pytest.raises(MalformedInputError, match=r"^semigroup\.commutative: wrong type str$"):
        load_semigroup(dict(ZMOD2, commutative="false"))
    doc = cocycle_algebra_doc()
    doc["semigroup"] = dict(ZMOD2, commutative="false")
    nested = r"^algebra\.semigroup\.commutative: wrong type str$"
    with pytest.raises(MalformedInputError, match=nested):
        load_algebra(doc)


def test_load_file_errors(tmp_path):
    with pytest.raises(MalformedInputError):
        load_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(MalformedInputError, match="invalid JSON"):
        load_file(bad)
    # written as raw text: json.dumps cannot write an integer this long, and
    # both once ended in a RecursionError or a bare ValueError (exit 4)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"elements": ["0"], "product": [[' + "1" * 5000 + ']], "unit": null}')
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"elements": ["\xff"]}')
    for path, reason in [
        (deep, "invalid JSON: nested too deep"),
        (long_int, "invalid JSON: integer literal too long"),
        (not_utf8, "not UTF-8: invalid start byte at byte 15"),
    ]:
        with pytest.raises(MalformedInputError) as info:
            load_file(path)
        assert str(info.value) == f"{path}: {reason}"


def test_report_json_roundtrip_is_byte_identical():
    alg = load_algebra(cocycle_algebra_doc())
    report = check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))
    text = to_json(report.to_payload())
    assert to_json(json.loads(text)) == text


# the canonical bytes to_json promises, written by json itself
def reference_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _DictSubclass(dict):
    pass


# escapes, control characters and non-ASCII (surrogates and astral ones too)
_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\ud800", "😀", ""])
_LEAVES = st.none() | st.booleans() | st.integers() | st.integers(-(10**30), 10**30) | _TEXT


def _nested(leaves, keys=_TEXT, dict_type=dict):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4).map(dict_type),
        max_leaves=20,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_nested(_LEAVES))
def test_the_renderer_writes_what_json_dumps_writes(payload):
    # _render itself, not the fallback, writes every payload of this shape
    assert _render(payload, "\n") + "\n" == to_json(payload) == reference_json(payload)


def _refused(payload):
    try:
        _render(payload, "\n")
    except TypeError:
        return True
    return False


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(
    _nested(st.floats() | _LEAVES),
    _nested(_LEAVES, keys=st.integers()),
    _nested(_LEAVES, dict_type=_DictSubclass),
).filter(_refused))
def test_a_payload_the_renderer_refuses_is_written_by_json_dumps(payload):
    assert to_json(payload) == reference_json(payload)


def test_a_payload_nested_past_the_renderer_is_written_by_json_dumps():
    # json.dumps writes a list nested 700 deep, where the renderer runs out
    # of stack; a circular one is json's own ValueError
    deep = []
    for _ in range(700):
        deep = [deep]
    assert to_json(deep) == reference_json(deep)
    circular = []
    circular.append(circular)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        to_json(circular)


def _table_refusal_files():
    # JSON text, so that an object with a key written twice can stand where
    # a list or a scalar belongs
    def semigroup(product):
        return f'{{"elements": ["0", "1"], "product": {product}, "unit": null}}'

    yield load_semigroup, semigroup("[[0, 1], [1, 0, 1]]"), (
        "semigroup.product[1]: expected a list of length 2, got 3")
    yield load_semigroup, semigroup("[[0, 1]]"), (
        "semigroup.product: expected a list of length 2, got 1")
    yield load_semigroup, semigroup("[[0, 1], [1, 2]]"), (
        "semigroup.product[1][1]: expected an index in 0..1, got 2")
    yield load_semigroup, semigroup("[[0, true], [1, 0]]"), (
        "semigroup.product[0][1]: expected an index in 0..1, got bool")
    yield load_semigroup, semigroup('[[0, 1], {"a": 1, "a": 2}]'), (
        "semigroup.product[1]: expected a list of length 2, got dict")
    yield load_semigroup, semigroup('{"a": 1, "a": 2}'), "semigroup.product: wrong type dict"
    doc = {"elements": ["a", "b"], "left": [[0, 0], [1]], "right": [[0, 1], [0, 1]]}
    yield load_dimonoid, json.dumps(doc), "dimonoid.left[1]: expected a list of length 2, got 1"
    doc = dict(ZMOD2, values=[["1/1", "1/1"], ["1/1"]])
    yield load_cocycle, json.dumps(doc), "cocycle.values[1]: expected a list of length 2, got 1"
    doc = dict(ZMOD2, values=[["1/1", "0/1"], ["1/1", "1/1"]])
    yield load_cocycle, json.dumps(doc), "cocycle.values[0][1]: expected a nonzero scalar, got 0"
    doc = cocycle_algebra_doc()
    doc["ops"]["mul"]["(0,1)"] = [[["1/1"], ["1/1"]]]
    yield load_algebra, json.dumps(doc), (
        "algebra.ops.mul.(0,1)[0]: expected a list of length 1, got 2")
    text = json.dumps(cocycle_algebra_doc()).replace('[[["-1/1"]]]', '[[[{"p": 1, "p": 1}]]]')
    yield load_algebra, text, 'algebra.ops.mul.(1,1)[0][0][0]: expected a "p/q" string, got dict'
    doc = dict(cocycle_algebra_doc(), dim=2)
    yield load_algebra, json.dumps(doc), "algebra.basis: expected a list of length 2, got 1"
    doc = dict(cocycle_algebra_doc(), unit=["1/1", "0/1"])
    yield load_algebra, json.dumps(doc), "algebra.unit: expected a list of length 1, got 2"
    doc = {"algebra": cocycle_algebra_doc(), "maps": {"0": [["0/1"]], "1": "0/1"}}
    yield load_rota_baxter, json.dumps(doc), "rb.maps.1: expected a list of length 1, got str"
    doc = {
        "source": cocycle_algebra_doc(),
        "target": cocycle_algebra_doc(),
        "maps": {"0": [["1/1"]], "1": [["-1/1", "0/1"]]},
    }
    yield load_morphism, json.dumps(doc), "morphism.maps.1[0]: expected a list of length 1, got 2"


TABLE_REFUSALS = list(_table_refusal_files())


@pytest.mark.parametrize(
    "loader, text, message",
    TABLE_REFUSALS,
    ids=[message.split(":")[0] for _, _, message in TABLE_REFUSALS],
)
def test_table_refusals_begin_with_their_json_path(tmp_path, loader, text, message):
    # shape, range and value refusals come from the JSON layer, so each names
    # the offending list or entry by its JSON path; a JSON object is a dict
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(MalformedInputError) as info:
        loader(load_file(path))
    assert str(info.value) == message
    assert "_KeyGivenTwice" not in str(info.value)
