"""Every input ends in one of the four documented exit statuses.

Each case is a file the README runs a command on (the ``data/`` fixtures,
plus a Rota-Baxter file and a morphism file built from
``cocycle_algebra.json``). One mutation is applied to it: a key or list entry
dropped, a list entry duplicated, or a value replaced by another JSON value.
The command then runs through ``cli.main`` in process. It must exit 0, 1, 2
or 3, let no exception escape, and on exit 2 or 3 print its one error line.

Every algebra that ``derive`` and ``collapse`` emit must also read back: it
is checked against its construction's suite and must pass (exit 0).
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from relalg.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def _load(name):
    return json.loads((DATA / name).read_text())


ALGEBRA = _load("cocycle_algebra.json")

# case name -> (document, command; the mutated file's path is appended)
CASES = {
    "zmod2": (_load("zmod2.json"), ["check-semigroup", "--semigroup"]),
    "matching2": (_load("matching2.json"), ["check-dimonoid", "--dimonoid"]),
    "cocycle_sign": (_load("cocycle_sign.json"), ["check-cocycle", "--cocycle"]),
    "cocycle_algebra": (ALGEBRA, ["check-algebra", "--suite", "RelAssoc", "--algebra"]),
    "zinbiel8": (_load("zinbiel8.json"), ["check-algebra", "--suite", "RelZinbiel", "--algebra"]),
    "rb_reciprocal": (_load("rb_reciprocal.json"), ["check-rb", "--window", "3", "--rb"]),
    "trivial_a": (
        _load("trivial_a.json"),
        ["free-eval", "--expr", "mul(a,a, x[], y[])", "--semigroup"],
    ),
    "rota_baxter": (
        {"algebra": ALGEBRA, "maps": {"0": [["0/1"]], "1": [["0/1"]]}},
        ["check-rb", "--window", "3", "--rb"],
    ),
    "morphism": (
        {"source": ALGEBRA, "target": ALGEBRA, "maps": {"0": [["1/1"]], "1": [["-1/1"]]}},
        ["check-morphism", "--suite", "RelAssoc", "--morphism"],
    ),
}

REPLACEMENTS = [True, False, None, 0, 1, 2, -1, 0.5, "", "0", "1", "a", "1/2", "-1/1", [], [0], ["0"], {}]


def node_paths(node, path=()):
    """Every node of a JSON document, as the tuple of keys leading to it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


PATHS = {name: list(node_paths(doc)) for name, (doc, _) in CASES.items()}


def mutation_kinds(doc, path):
    """The mutations that apply at ``path``: the root can only be replaced,
    a dict entry dropped or replaced, a list entry also duplicated."""
    if not path:
        return ["replace"]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return ["drop", "duplicate", "replace"] if isinstance(parent, list) else ["drop", "replace"]


def mutate(doc, path, kind, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "duplicate":
        parent.insert(last, parent[last])
    else:
        parent[last] = value
    return doc


def run(argv):
    """(exit status, stdout, stderr) of ``relalg argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_case(name, doc, directory):
    """(exit status, stderr) of the case's command on ``doc``."""
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, _, err = run([*CASES[name][1], path])
    return code, err


def test_unmutated_cases_pass(tmp_path):
    for name, (doc, _) in CASES.items():
        assert run_case(name, doc, tmp_path)[0] == 0, name


ERROR_LINES = {2: "error: malformed input: ", 3: "error: contract violation: "}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_every_input_ends_in_a_documented_outcome(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    doc = CASES[name][0]
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    kind = data.draw(st.sampled_from(mutation_kinds(doc, path)), label="kind")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value") if kind == "replace" else None
    with tempfile.TemporaryDirectory() as directory:
        code, err = run_case(name, mutate(doc, path, kind, value), directory)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in ERROR_LINES:
        assert err.startswith(ERROR_LINES[code]) and err.count("\n") == 1, err


# An index-independent product over Z/2: the base ``cocycle-twist`` needs.
UNTWISTED = dict(ALGEBRA, ops={"mul": {key: [[["1/1"]]] for key in ALGEBRA["ops"]["mul"]}})

# emitted document -> (the command that emits it, reading earlier documents
# by name; the suite its algebra must pass)
EMITTED = {
    "dend": (["derive", "--construction", "dend-from-zinbiel", "--algebra", "zinbiel8"],
             "RelDendriform"),
    "comm": (["derive", "--construction", "comm-from-zinbiel", "--algebra", "zinbiel8"],
             "RelComm"),
    "assoc": (["derive", "--construction", "assoc-from-dend", "--algebra", "dend"], "RelAssoc"),
    "prelie": (["derive", "--construction", "prelie-from-dend", "--algebra", "dend"],
               "RelPreLie"),
    "zinbiel": (["derive", "--construction", "zinbiel-from-symmetric-dend", "--algebra", "dend"],
                "RelZinbiel"),
    "lie": (["derive", "--construction", "lie-from-prelie", "--algebra", "prelie"], "RelLie"),
    "twisted": (["derive", "--construction", "cocycle-twist", "--algebra", "untwisted",
                 "--cocycle", "cocycle_sign"], "RelAssoc"),
    "flat_cocycle": (["collapse", "--algebra", "cocycle_algebra"], "RelAssoc"),
    "flat_zinbiel": (["collapse", "--algebra", "zinbiel8"], "RelZinbiel"),
}


def test_every_emitted_algebra_reads_back_and_passes_its_suite(tmp_path):
    fixtures = ("zinbiel8", "cocycle_algebra", "cocycle_sign")
    files = {name: DATA / f"{name}.json" for name in fixtures}
    files["untwisted"] = tmp_path / "untwisted.json"
    files["untwisted"].write_text(json.dumps(UNTWISTED))
    for name, (command, suite) in EMITTED.items():
        code, out, err = run([files.get(a, a) for a in command])
        assert code == 0, (name, err)
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(json.loads(out)["algebra"]))
        code, _, err = run(["check-algebra", "--suite", suite, "--algebra", files[name]])
        assert code == 0, (name, err)


def test_index_names_an_op_key_cannot_spell_refused_at_load(tmp_path):
    # "(a,b,c)" would key the pair (a, "b,c") as well as ("a,b", c)
    doc = {
        "dim": 1,
        "basis": ["u"],
        "semigroup": {"elements": ["a,b", "c"], "product": [[0, 1], [1, 1]], "unit": "a,b",
                      "commutative": True},
        "ops": {"ast": {"a,b": [[["0/1"]]], "c": [[["0/1"]]]}},
        "unit": None,
    }
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["derive", "--construction", "dend-from-zinbiel", "--algebra", path])
    assert (code, out) == (2, "")
    assert err == (
        "error: malformed input: algebra.semigroup: label 'a,b': "
        "tree labels are letters, digits and _\n"
    )
