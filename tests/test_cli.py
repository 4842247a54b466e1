import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest


DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "relalg.cli", *args], capture_output=True, text=True
    )


def payload_of(proc):
    return json.loads(proc.stdout)


def test_check_semigroup_trivial(tmp_path):
    doc = {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-semigroup", "--semigroup", str(path))
    assert proc.returncode == 0
    assert payload_of(proc)["passed"] is True


def test_check_semigroup_failure_exits_1(tmp_path):
    doc = {"elements": ["0", "1"], "product": [[0, 1], [0, 0]], "unit": None, "commutative": False}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-semigroup", "--semigroup", str(path))
    assert proc.returncode == 1
    ce = payload_of(proc)["reports"][0]["counterexample"]
    assert ce["indices"] == ["1", "0", "1"]


def test_malformed_input_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"elements": ["0"], "product": [[7]]}')
    proc = run_cli("check-semigroup", "--semigroup", str(path))
    assert proc.returncode == 2
    assert "malformed" in proc.stderr


def test_contract_violation_exits_3():
    proc = run_cli("check-algebra", "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelLie")
    assert proc.returncode == 3
    assert "contract" in proc.stderr


def test_check_algebra_instances():
    proc = run_cli("check-algebra", "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelAssoc")
    assert proc.returncode == 0
    report = payload_of(proc)["reports"][0]
    assert report["instances"] == 8
    assert report["passed"] is True


FREE_CHECK = ["free-check", "--suite", "RelAssoc", "--semigroup", str(DATA / "zmod2.json")]
CHECK_RB = ["check-rb", "--rb", str(DATA / "rb_reciprocal.json")]


@pytest.mark.parametrize(
    "args, flag",
    [
        (FREE_CHECK + ["--samples", "0"], "--samples"),
        (FREE_CHECK + ["--samples", "-5"], "--samples"),
        (FREE_CHECK + ["--max-vertices", "0"], "--max-vertices"),
        (CHECK_RB + ["--window", "0"], "--window"),
        (CHECK_RB + ["--window", "-3"], "--window"),
    ],
)
def test_counts_below_one_exit_2(args, flag):
    # a count below 1 would scan nothing and report a vacuous PASS
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert f"argument {flag}: must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_cocycle_and_dimonoid_files():
    assert run_cli("check-cocycle", "--cocycle", str(DATA / "cocycle_sign.json")).returncode == 0
    assert run_cli("check-dimonoid", "--dimonoid", str(DATA / "matching2.json")).returncode == 0


def test_check_rb_builtin(tmp_path):
    path = tmp_path / "rb.json"
    path.write_text(json.dumps({"builtin": "reciprocal"}))
    proc = run_cli("check-rb", "--rb", str(path), "--window", "10")
    assert proc.returncode == 0
    assert payload_of(proc)["reports"][0]["instances"] == 100


def test_check_morphism(tmp_path):
    with open(DATA / "cocycle_algebra.json") as fh:
        alg = json.load(fh)
    doc = {"source": alg, "target": alg, "maps": {"0": [["1/1"]], "1": [["-1/1"]]}}
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-morphism", "--morphism", str(path), "--suite", "RelAssoc")
    assert proc.returncode == 0
    doc["maps"]["1"] = [["2/1"]]
    path.write_text(json.dumps(doc))
    proc = run_cli("check-morphism", "--morphism", str(path), "--suite", "RelAssoc")
    assert proc.returncode == 1
    ce = payload_of(proc)["reports"][0]["counterexample"]
    assert ce["indices"] == ["1", "1"]


def test_derive_cocycle_twist(tmp_path):
    base = {
        "dim": 1,
        "basis": ["u"],
        "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True},
        "ops": {"mul": {"(e,e)": [[["1/1"]]]}},
        "unit": ["1/1"],
    }
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    proc = run_cli(
        "derive",
        "--construction",
        "cocycle-twist",
        "--algebra",
        str(path),
        "--cocycle",
        str(DATA / "cocycle_sign.json"),
    )
    assert proc.returncode == 0
    algebra = payload_of(proc)["algebra"]
    assert algebra["ops"]["mul"]["(1,1)"] == [[["-1/1"]]]
    # the emitted algebra is valid input for check-algebra
    out = tmp_path / "twisted.json"
    out.write_text(json.dumps(algebra))
    assert run_cli("check-algebra", "--algebra", str(out), "--suite", "RelAssoc").returncode == 0
    assert run_cli("check-algebra", "--algebra", str(out), "--suite", "RelUnital").returncode == 0


def test_derive_zinbiel_chain(tmp_path):
    from relalg.jsonio import dump_algebra
    from relalg.samples import truncated_integration_zinbiel

    zpath = tmp_path / "zinbiel.json"
    zpath.write_text(json.dumps(dump_algebra(truncated_integration_zinbiel(4))))
    proc = run_cli("derive", "--construction", "dend-from-zinbiel", "--algebra", str(zpath))
    assert proc.returncode == 0
    dend = payload_of(proc)["algebra"]
    dpath = tmp_path / "dend.json"
    dpath.write_text(json.dumps(dend))
    assert run_cli("check-algebra", "--algebra", str(dpath), "--suite", "RelDendriform").returncode == 0
    # round back to zinbiel through the symmetric-dendriform construction
    proc = run_cli("derive", "--construction", "zinbiel-from-symmetric-dend", "--algebra", str(dpath))
    assert proc.returncode == 0
    assert payload_of(proc)["algebra"]["ops"]["ast"] == dump_algebra(
        truncated_integration_zinbiel(4)
    )["ops"]["ast"]
    proc = run_cli("derive", "--construction", "comm-from-zinbiel", "--algebra", str(zpath))
    assert proc.returncode == 0
    cpath = tmp_path / "comm.json"
    cpath.write_text(json.dumps(payload_of(proc)["algebra"]))
    assert run_cli("check-algebra", "--algebra", str(cpath), "--suite", "RelComm").returncode == 0


def test_derive_refusal_exits_1(tmp_path):
    # the mutated cocycle is rejected by the twist with a counterexample
    with open(DATA / "cocycle_sign.json") as fh:
        doc = json.load(fh)
    doc["values"][0][1] = "2/1"
    cpath = tmp_path / "badc.json"
    cpath.write_text(json.dumps(doc))
    base = {
        "dim": 1,
        "basis": ["u"],
        "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True},
        "ops": {"mul": {"(e,e)": [[["1/1"]]]}},
        "unit": None,
    }
    bpath = tmp_path / "base.json"
    bpath.write_text(json.dumps(base))
    proc = run_cli(
        "derive", "--construction", "cocycle-twist", "--algebra", str(bpath), "--cocycle", str(cpath)
    )
    assert proc.returncode == 1
    assert payload_of(proc)["reports"][0]["counterexample"] is not None


@pytest.mark.parametrize("algebra", ["zinbiel8.json", "cocycle_algebra.json"])
@pytest.mark.parametrize(
    "construction",
    [
        "assoc-from-dend",
        "prelie-from-dend",
        "zinbiel-from-symmetric-dend",
        "lie-from-prelie",
        "poisson-from-prepoisson",
    ],
)
def test_derive_without_input_role_exits_3(construction, algebra):
    # neither algebra has the role the construction reads
    proc = run_cli("derive", "--construction", construction, "--algebra", str(DATA / algebra))
    assert proc.returncode == 3
    assert "contract violation" in proc.stderr
    assert "Traceback" not in proc.stderr


# The role each algebra construction names first on an algebra that has none
# of its roles, and the role it names next on one that has only that first
# role (None: the construction reads one role).
NAMED_ROLES = {
    "assoc-from-dend": ("prec", "succ"),
    "prelie-from-dend": ("prec", "succ"),
    "zinbiel-from-symmetric-dend": ("prec", "succ"),
    "dend-from-zinbiel": ("ast", None),
    "comm-from-zinbiel": ("ast", None),
    "lie-from-prelie": ("circ", None),
    "poisson-from-prepoisson": ("circ", "ast"),
}


@pytest.mark.parametrize("construction", sorted(NAMED_ROLES))
def test_derive_names_the_first_role_its_input_lacks(construction, tmp_path, capsys):
    from relalg.cli import main

    first, second = NAMED_ROLES[construction]
    doc = json.loads((DATA / "cocycle_algebra.json").read_text())
    only_first = tmp_path / "only_first.json"
    only_first.write_text(json.dumps({**doc, "ops": {first: doc["ops"]["mul"]}}))
    for algebra, role in ((DATA / "cocycle_algebra.json", first), (only_first, second)):
        if role is not None:
            assert main(["derive", "--construction", construction, "--algebra", str(algebra)]) == 3
            message = f"algebra has no operation for role {role!r}"
            assert capsys.readouterr().err == f"error: contract violation: {message}\n"


@pytest.mark.parametrize("command", ["check-algebra", "collapse"])
def test_a_role_the_algebra_lacks_is_named_as_derive_names_it(command, capsys):
    from relalg.cli import main

    argv = [command, "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelDendriform"]
    assert main(argv) == 3
    message = "algebra has no operation for role 'prec'"
    assert capsys.readouterr().err == f"error: contract violation: {message}\n"


# A one-dimensional algebra with zero product over the index table
# [[1,1],[1,0]], which is not associative: (0*0)*1 = 0 but 0*(0*1) = 1.
# Every identity of the algebra itself holds, since all products vanish.
ZERO_PRODUCT_OVER_MAGMA = {
    "dim": 1,
    "basis": ["u"],
    "semigroup": {"elements": ["0", "1"], "product": [[1, 1], [1, 0]], "unit": None},
    "ops": {"mul": {f"({a},{b})": [[["0/1"]]] for a in "01" for b in "01"}},
    "unit": None,
}
IDENTITY_MAPS = {"0": [["1/1"]], "1": [["1/1"]]}
INDEX_PRECONDITION_FAILURE = {
    "check": "axioms:precondition:semigroup",
    "counterexample": {
        "elements": [],
        "equation": "associativity",
        "indices": ["0", "0", "1"],
        "lhs": "0",
        "rhs": "1",
    },
    "info": {},
    "instances": 2,
    "passed": False,
}


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            ["check-morphism", "--suite", "RelAssoc", "--morphism"],
            {
                "source": ZERO_PRODUCT_OVER_MAGMA,
                "target": ZERO_PRODUCT_OVER_MAGMA,
                "maps": IDENTITY_MAPS,
            },
        ),
        (["check-rb", "--rb"], {"algebra": ZERO_PRODUCT_OVER_MAGMA, "maps": IDENTITY_MAPS}),
        (
            ["derive", "--construction", "dend-from-rb", "--rb"],
            {"algebra": ZERO_PRODUCT_OVER_MAGMA, "maps": IDENTITY_MAPS},
        ),
    ],
    ids=["check-morphism", "check-rb", "dend-from-rb"],
)
def test_non_associative_index_table_exits_1(tmp_path, command, doc):
    # each command verifies the index table of the algebras it reads before
    # its own check, which would pass on the zero product
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(*command, str(path))
    assert proc.returncode == 1
    assert payload_of(proc)["reports"] == [INDEX_PRECONDITION_FAILURE]
    if command[0] == "check-morphism":
        expected = {
            "command": "check-morphism",
            "passed": False,
            "reports": [INDEX_PRECONDITION_FAILURE],
        }
        assert proc.stdout == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_collapse_command():
    proc = run_cli("collapse", "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelAssoc")
    assert proc.returncode == 0
    payload = payload_of(proc)
    assert payload["algebra"]["dim"] == 2
    assert payload["reports"][0]["passed"] is True


def test_free_eval_matches_spec_example():
    proc = run_cli(
        "free-eval", "--expr", "succ(a, x[], y[])", "--dimonoid", str(DATA / "matching2.json")
    )
    assert proc.returncode == 0
    assert payload_of(proc)["result"] == "1/1 * y[a: x[], ]"


def test_free_eval_base_case_and_scaling():
    proc = run_cli("free-eval", "--expr", "prec(a, x[], e)", "--dimonoid", str(DATA / "matching2.json"))
    assert payload_of(proc)["result"] == "1/1 * x[]"
    proc = run_cli("free-eval", "--expr", "0/1 * x[]", "--dimonoid", str(DATA / "matching2.json"))
    assert payload_of(proc)["result"] == "0"
    proc = run_cli(
        "free-eval",
        "--expr",
        "mul(0,0, x[], y[]) + -1/1 * succ(0, x[], y[])",
        "--semigroup",
        str(DATA / "zmod2.json"),
    )
    assert payload_of(proc)["terms"] == [["1/1", "x[, 0: y[]]"]]


@pytest.mark.parametrize(
    "expr",
    ["x[0: " * 3000 + "x[]" + "]" * 3000, "prec(0, x[], " * 2000 + "x[]" + ")" * 2000],
    ids=["tree", "calls"],
)
def test_deep_nesting_exits_2(expr):
    proc = run_cli(
        "free-eval", "--semigroup", str(DATA / "zmod2.json"), "--decorations", "x", "--expr", expr
    )
    assert proc.returncode == 2
    assert "nesting too deep" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_json_number_scalar_exits_2(tmp_path):
    doc = json.loads((DATA / "cocycle_algebra.json").read_text())
    doc["unit"] = [1]
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-algebra", "--algebra", str(path), "--suite", "RelAssoc")
    assert proc.returncode == 2
    assert 'algebra.unit[0]: expected a "p/q" string' in proc.stderr


def test_free_eval_errors():
    proc = run_cli("free-eval", "--expr", "prec(q, x[], y[])", "--dimonoid", str(DATA / "matching2.json"))
    assert proc.returncode == 2
    proc = run_cli("free-eval", "--expr", "mul(a, x[], y[])", "--dimonoid", str(DATA / "matching2.json"))
    assert proc.returncode == 2  # arity error: mul needs an index pair
    proc = run_cli(
        "free-eval", "--expr", "circ(a,b, x[], y[])", "--dimonoid", str(DATA / "matching2.json")
    )
    assert proc.returncode == 3  # projections are not of semigroup form


def test_free_check_deterministic_bytes():
    args = (
        "free-check",
        "--suite",
        "DimonoidDendriform",
        "--dimonoid",
        str(DATA / "matching2.json"),
        "--samples",
        "25",
        "--max-vertices",
        "4",
        "--seed",
        "11",
    )
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_free_check_seed_changes_sample(tmp_path):
    base = (
        "free-check",
        "--suite",
        "FamDendriform",
        "--semigroup",
        str(DATA / "zmod2.json"),
        "--samples",
        "5",
        "--max-vertices",
        "4",
    )
    a = run_cli(*base, "--seed", "0")
    b = run_cli(*base, "--seed", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout  # the seed is part of the report
    out = tmp_path / "report.json"
    proc = run_cli(*base, "--seed", "0", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_report_roundtrip_byte_identical():
    proc = run_cli("check-algebra", "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelAssoc")
    from relalg.reports import to_json

    assert to_json(json.loads(proc.stdout)) == proc.stdout


def test_free_eval_derived_product_two_trees():
    # the derived product of two single vertices is the sum of the two
    # two-vertex trees
    proc = run_cli(
        "free-eval", "--expr", "mul(a,a, x[], y[])", "--semigroup", str(DATA / "trivial_a.json")
    )
    assert proc.returncode == 0
    # canonical order: left-leaning shapes sort first
    assert payload_of(proc)["terms"] == [["1/1", "y[a: x[], ]"], ["1/1", "x[, a: y[]]"]]


def test_free_eval_bracket_antisymmetry():
    proc = run_cli(
        "free-eval",
        "--expr",
        "bracket(0,1, x[], y[]) + bracket(1,0, y[], x[])",
        "--semigroup",
        str(DATA / "zmod2.json"),
    )
    assert proc.returncode == 0
    assert payload_of(proc)["result"] == "0"


def test_free_eval_builds_each_derived_product_once(monkeypatch, capsys):
    # three brackets and a mul: one derived operation per role, not per call,
    # and the bytes of an evaluation that built one per call
    from relalg import cli, exprs

    built, free_derived_op = [], exprs.free_derived_op

    def counted(carrier, role):
        built.append(role)
        return free_derived_op(carrier, role)

    monkeypatch.setattr(exprs, "free_derived_op", counted)
    expr = ("bracket(0,1, x[], y[0: x[]]) + bracket(1,1, mul(1,0, x[], y[]), x[])"
            " + bracket(0,0, y[], x[, 1: y[]])")
    assert cli.main(["free-eval", "--semigroup", str(DATA / "zmod2.json"), "--expr", expr]) == 0
    assert sorted(built) == ["bracket", "mul"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b8438f8c5d92c938dcfe1ed15fd6f3eb93388bd7e5b7422f75414cb7ef9ccf1e"
    )


ZMOD2_NONCOMMUTATIVE = Path(__file__).resolve().parent / "zmod2_noncommutative.json"

# the free-eval commands CI runs on the derived products: (expression, index
# file, exit code, the sha256 of stdout or the refusal on stderr)
DERIVED_FREE_EVALS = [
    ("mul(a,a, x[], y[])", DATA / "trivial_a.json", 0,
     "c431e7aba59cc2c295c772d94dffb3c11197ff61af3ad0216030b4c95163b39b"),
    ("bracket(0,1, x[], circ(1,0, y[], x[]))", DATA / "zmod2.json", 0,
     "18e8c4053ce08f3083f3f1a129acd869a765b7bd68f461b7e4c9e9a263d1b187"),
    # refused exactly as the construction is: mul needs no commutativity
    ("mul(0,1, x[], y[])", ZMOD2_NONCOMMUTATIVE, 0,
     "b5ffcc32abfa693547510802dc7b506e0ddb26fdc768cc99f29c322ae9bd5637"),
    ("circ(0,1, x[], y[])", ZMOD2_NONCOMMUTATIVE, 3, "requires a commutative index semigroup"),
    ("bracket(0,1, x[], y[])", ZMOD2_NONCOMMUTATIVE, 3, "requires a commutative index semigroup"),
]


@pytest.mark.parametrize("expr, index, status, expected", DERIVED_FREE_EVALS)
def test_the_free_evals_of_derived_products_ci_runs(expr, index, status, expected, capsys):
    from relalg.cli import main

    # zmod2 claiming no commutativity, and otherwise data/zmod2.json
    zmod2 = json.loads((DATA / "zmod2.json").read_text())
    assert json.loads(ZMOD2_NONCOMMUTATIVE.read_text()) == {**zmod2, "commutative": False}
    assert main(["free-eval", "--expr", expr, "--semigroup", str(index)]) == status
    out, err = capsys.readouterr()
    if status == 0:
        assert hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == "" and expected in err and "Traceback" not in err


# CI's free-check smoke commands: the stdout sha256 of each and its stderr summary.
# RelDendriform and RelPreLie are taken at half their index tuples, which
# count as passed: the instances are those of every index tuple
CI_FREE_CHECKS = [
    (["--suite", "DimonoidDendriform", "--dimonoid", DATA / "matching2.json",
      "--samples", "200", "--max-vertices", "6", "--seed", "0"],
     "9be52345d9ac8a02e49656173e25d0557d1488aba4983e1a540262ec2ac4a7a7", 2400),
    (["--suite", "RelLie", "--samples", "20", "--semigroup", DATA / "zmod2.json"],
     "da68de5ec4286e2cc81e46f53acefd1f1b202d38191cac7b3e492642981dd72c", 240),
    (["--suite", "RelDendriform", "--samples", "20", "--semigroup", DATA / "zmod2.json"],
     "44a761606303fe3930da3408b261ea3245f000a8d8da59b9454242c4c14dceeb", 480),
    (["--suite", "RelPreLie", "--samples", "20", "--semigroup", DATA / "zmod2.json"],
     "5b0b45813e469ec9e177b831e6406cdbb9124307f6c0b924582859ed069befdf", 160),
]


@pytest.mark.parametrize("args, digest, instances", CI_FREE_CHECKS)
def test_the_free_checks_ci_runs(args, digest, instances, capsys):
    from relalg.cli import main

    assert main(["free-check", *map(str, args)]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert f"PASS free-check:{args[1]}: {instances} instances" in err


NON_ASSOCIATIVE = {"elements": ["0", "1"], "product": [[0, 1], [0, 0]], "unit": None, "commutative": False}


@pytest.mark.parametrize(
    "command", [["free-eval", "--expr", "x[]"], ["free-check", "--suite", "RelAssoc", "--samples", "2"]]
)
def test_free_carrier_non_associative_semigroup_report(tmp_path, capsys, command):
    from relalg.cli import main

    path = tmp_path / "magma.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE))
    assert main([*command, "--semigroup", str(path)]) == 1
    report = {
        "check": "semigroup",
        "counterexample": {
            "elements": [],
            "equation": "associativity",
            "indices": ["1", "0", "1"],
            "lhs": "1",
            "rhs": "0",
        },
        "info": {},
        "instances": 6,
        "passed": False,
    }
    expected = {"command": command[0], "passed": False, "reports": [report]}
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert captured.err == "FAIL semigroup: 6 instances at associativity ('1', '0', '1')\n"


# the README's commands on data/ files, each ending in exit 0
README_COMMANDS = [
    ["check-semigroup", "--semigroup", "zmod2.json"],
    ["check-dimonoid", "--dimonoid", "matching2.json"],
    ["check-cocycle", "--cocycle", "cocycle_sign.json"],
    ["check-algebra", "--algebra", "cocycle_algebra.json", "--suite", "RelAssoc"],
    ["check-algebra", "--algebra", "zinbiel8.json", "--suite", "RelZinbiel"],
    ["check-rb", "--rb", "rb_reciprocal.json", "--window", "20"],
    ["derive", "--construction", "dend-from-zinbiel", "--algebra", "zinbiel8.json"],
    ["collapse", "--algebra", "cocycle_algebra.json", "--suite", "RelAssoc"],
    ["free-eval", "--expr", "succ(a, x[], y[])", "--dimonoid", "matching2.json"],
    ["free-check", "--suite", "DimonoidDendriform", "--dimonoid", "matching2.json",
     "--samples", "200", "--max-vertices", "6", "--seed", "0"],
    ["free-eval", "--expr", "mul(a,a, x[], y[])", "--semigroup", "trivial_a.json"],
]


# sha256 of the stdout of each README command, recorded before the Rel suites
# were read off the grading rule: any change to a report byte shows here
README_STDOUT_SHA256 = [
    "9aae24ed9e91f3044da335f4677c3f64f39a47e56971db30fe19284482db2e09",
    "f395014112376c130d2843856f255493fb32e7f82da5e55786fe0ead17ca7229",
    "b76a17932f2b6cef8080e2bef1e3ccfea2a152dfceedc5564511f212e8310c7d",
    "883a58b79ed22fa3f8de15bcc9d8ecb345f79a4b051fdde43d01ab36df617503",
    "15268ff1fb431dd1b45cf479e9b0411d379dbea534e91b94291bb106f98b6c10",
    "aeff16fd96183e71bf6944423147e7dcbfc15fed4feae92eecb8e057a7656e82",
    "d90888c7274e677c1aaec25cb607067f8d5611cee7cbf255b68a6418de5654fd",
    "cb137d6e4707b3537e393d3d0d1315c2f04eb04da054f427a3a9587868b615d5",
    "e81ebbed2a0a535b83327139b83dbf64e703244efefebf88ac10f577ed066c39",
    "9be52345d9ac8a02e49656173e25d0557d1488aba4983e1a540262ec2ac4a7a7",
    "c431e7aba59cc2c295c772d94dffb3c11197ff61af3ad0216030b4c95163b39b",
]


@pytest.mark.parametrize("command, digest", list(zip(README_COMMANDS, README_STDOUT_SHA256)))
def test_readme_command_reports_are_byte_stable(capsys, command, digest):
    from relalg.cli import main

    main([str(DATA / a) if a.endswith(".json") else a for a in command])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", README_COMMANDS + [["check-semigroup", "--semigroup", None]])
def test_stderr_summary_lines_match_the_reports(tmp_path, capsys, command):
    # one PASS/FAIL line per report, in report order; the last case fails
    from relalg.cli import main

    magma = tmp_path / "magma.json"
    magma.write_text(json.dumps(NON_ASSOCIATIVE))
    argv = [str(magma) if a is None else str(DATA / a) if a.endswith(".json") else a for a in command]
    status = main(argv)
    captured = capsys.readouterr()
    expected = []
    for report in json.loads(captured.out)["reports"]:
        ce = report["counterexample"]
        where = "" if ce is None else f" at {ce['equation']} {tuple(ce['indices'])}"
        verdict = "PASS" if report["passed"] else "FAIL"
        expected.append(f"{verdict} {report['check']}: {report['instances']} instances{where}")
    lines = [line for line in captured.err.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines == expected
    assert status == (0 if None not in command else 1)


def test_not_a_semigroup_error_carries_the_summary_line():
    from relalg.errors import ContractError
    from relalg.jsonio import load_semigroup
    from relalg.semigroups import dimonoid_from_semigroup

    expected = "not a semigroup: FAIL semigroup: 6 instances at associativity ('1', '0', '1')"
    with pytest.raises(ContractError) as exc:
        dimonoid_from_semigroup(load_semigroup(NON_ASSOCIATIVE))
    assert str(exc.value) == expected


UNSPELLABLE_DIMONOID = {"elements": ["a", "b: x[]"], "left": [[0, 0], [1, 1]], "right": [[0, 1], [0, 1]]}


@pytest.mark.parametrize(
    "command, label",
    [
        (["free-check", "--suite", "RelAssoc", "--semigroup", str(DATA / "zmod2.json"),
          "--decorations", "x y,z"], "x y"),
        (["free-eval", "--expr", "x[]", "--semigroup", str(DATA / "zmod2.json"),
          "--decorations", "x y"], "x y"),
        (["free-eval", "--expr", "succ(a, x[], y[])", "--dimonoid", None], "b: x[]"),
    ],
)
def test_labels_the_tree_text_cannot_spell_exit_2(tmp_path, capsys, command, label):
    # a report would name trees that no tree argument can spell back
    from relalg.cli import main

    path = tmp_path / "dimonoid.json"
    path.write_text(json.dumps(UNSPELLABLE_DIMONOID))
    assert main([str(path) if a is None else a for a in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "dimonoid: " if "--dimonoid" in command else ""  # the loader's path
    assert captured.err == (
        f"error: malformed input: {where}label {label!r}: tree labels are letters, digits and _\n"
    )


def test_free_carrier_checks_semigroup_once(monkeypatch, capsys):
    from relalg import cli, semigroups

    calls = []
    original = semigroups.check_semigroup

    def counted(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(cli, "check_semigroup", counted)
    monkeypatch.setattr(semigroups, "check_semigroup", counted)
    argv = ["free-eval", "--expr", "x[]", "--semigroup", str(DATA / "trivial_a.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_derive_calls_its_construction_through_the_module_name(monkeypatch, capsys):
    # a wrapper bound to the construction's name in relalg.cli, as the
    # benchmark's tracer binds one, sees the call
    from relalg import cli

    argv = ["derive", "--construction", "dend-from-zinbiel", "--algebra", str(DATA / "zinbiel8.json")]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    calls = []
    original = cli.dend_from_zinbiel

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "dend_from_zinbiel", counted)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command",
    [
        ["free-check", "--suite", "RelLie", "--samples", "2"],
        ["free-check", "--suite", "RelPreLie", "--samples", "2"],
        ["free-eval", "--expr", "circ(0,1, x[], y[])"],
    ],
)
def test_free_commands_use_the_semigroup_files_claims(tmp_path, capsys, command):
    # the table is symmetric, but the file does not claim commutativity, so
    # the commutative-only derivations are refused as check-algebra refuses them
    from relalg.cli import main

    doc = json.loads((DATA / "zmod2.json").read_text())
    doc["commutative"] = False
    path = tmp_path / "zmod2.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--semigroup", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: contract violation: this construction requires a commutative index semigroup\n"
    )


def test_boolean_dim_exits_2(tmp_path):
    doc = json.loads((DATA / "cocycle_algebra.json").read_text())
    doc["dim"] = True
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check-algebra", "--algebra", str(path), "--suite", "RelAssoc")
    assert proc.returncode == 2
    assert proc.stderr == "error: malformed input: algebra.dim: wrong type bool\n"


def test_internal_error_exits_4(monkeypatch, capsys):
    # an exception no handler expects is a bug: it must not read as exit 1,
    # a counterexample
    from relalg import cli

    def broken(obj):
        raise KeyError("planted")

    monkeypatch.setattr(cli.jsonio, "load_semigroup", broken)
    assert cli.main(["check-semigroup", "--semigroup", str(DATA / "zmod2.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first == "error: internal error (a bug, never a check outcome): KeyError: 'planted'"
    assert rest[0] == "Traceback (most recent call last):"
    assert rest[-1] == "KeyError: 'planted'"


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    # a report that cannot be written is refused like an unreadable input,
    # before anything reaches stdout
    from relalg.cli import main

    out = tmp_path / "missing-dir" / "report.json"
    argv = ["check-semigroup", "--semigroup", str(DATA / "zmod2.json"), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed input: --out {out}: No such file or directory\n"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # the parser is built once per process; an argparse error between two
    # calls leaves the second call's output unchanged
    import argparse

    from relalg import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "relalg":  # not the subcommands' parsers
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    valid = ["check-algebra", "--algebra", str(DATA / "cocycle_algebra.json")]
    valid += ["--suite", "RelAssoc"]
    try:
        assert cli.main(valid) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-algebra", "--suite", "NoSuchSuite"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert cli.main(valid) == 0
        second = capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first.out and first.err
    assert (second.out, second.err) == (first.out, first.err)


INDEX_FILES = ["--dimonoid", str(DATA / "matching2.json"), "--semigroup", str(DATA / "zmod2.json")]


@pytest.mark.parametrize("command", [["free-eval", "--expr", "x[]"], ["free-check", "--suite", "RelAssoc"]])
@pytest.mark.parametrize(
    "index, message",
    [
        (INDEX_FILES, "argument --semigroup: not allowed with argument --dimonoid"),
        ([], "one of the arguments --dimonoid --semigroup is required"),
    ],
    ids=["both", "neither"],
)
def test_free_commands_take_exactly_one_index_file(command, index, message):
    proc = run_cli(*command, *index)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f": error: {message}\n")
    assert "Traceback" not in proc.stderr


# the dual numbers k[t]/(t^2) over the trivial monoid, with R(1) = t and R(t) = 0
DUAL_NUMBERS_RB = {
    "algebra": {
        "dim": 2,
        "basis": ["one", "t"],
        "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True},
        "ops": {"mul": {"(e,e)": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["0/1", "0/1"]]]}},
        "unit": ["1/1", "0/1"],
    },
    "maps": {"e": [["0/1", "0/1"], ["1/1", "0/1"]]},
}


def test_derive_dend_from_rb_on_a_finite_file(tmp_path):
    rb = tmp_path / "dual_rb.json"
    rb.write_text(json.dumps(DUAL_NUMBERS_RB))
    proc = run_cli("check-rb", "--rb", str(rb))
    assert proc.returncode == 0
    assert payload_of(proc)["reports"][0]["instances"] == 4
    out = tmp_path / "derived.json"
    proc = run_cli("derive", "--construction", "dend-from-rb", "--rb", str(rb), "--out", str(out))
    assert proc.returncode == 0
    assert out.read_bytes() == proc.stdout.encode()
    algebra = payload_of(proc)["algebra"]
    # prec(1, 1) = 1 . R(1) = t and succ(1, 1) = R(1) . 1 = t
    assert algebra["ops"]["prec"]["(e,e)"][0][0] == ["0/1", "1/1"]
    assert algebra["ops"]["succ"]["(e,e)"][0][0] == ["0/1", "1/1"]
    derived = tmp_path / "dend.json"
    derived.write_text(json.dumps(algebra))
    proc = run_cli("check-algebra", "--algebra", str(derived), "--suite", "RelDendriform")
    assert proc.returncode == 0
    assert payload_of(proc)["reports"][0]["instances"] == 24


def test_derive_dend_from_rb_on_the_builtin_line_exits_3():
    proc = run_cli("derive", "--construction", "dend-from-rb", "--rb", str(DATA / "rb_reciprocal.json"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "can only be materialized over a finite carrier" in proc.stderr
    assert "Traceback" not in proc.stderr


DUAL_NUMBERS_RB_FILE = Path(__file__).resolve().parent / "dual_numbers_rb.json"

# the derive chain of the CI smoke test, then dend-from-rb on the dual
# numbers: (construction, input, output name, target suite, its instances)
DERIVE_CHAIN = [
    ("dend-from-zinbiel", "zinbiel8.json", "dend", "RelDendriform", 2187),
    ("assoc-from-dend", "dend", "assoc", "RelAssoc", 729),
    ("prelie-from-dend", "dend", "prelie", "RelPreLie", 729),
    ("zinbiel-from-symmetric-dend", "dend", "zinbiel", "RelZinbiel", 729),
    ("lie-from-prelie", "prelie", "lie", "RelLie", 810),
    ("comm-from-zinbiel", "zinbiel8.json", "comm", "RelComm", 810),
    ("poisson-from-prepoisson", "prepoisson", "poisson", "RelPoisson", 2349),
    ("dend-from-rb", None, "rb_dend", "RelDendriform", 24),
]

# sha256 of each derive's stdout, recorded before the constructions were
# read off their defining terms: any change to a derived constant shows here
DERIVE_STDOUT_SHA256 = {
    "dend-from-zinbiel": "d90888c7274e677c1aaec25cb607067f8d5611cee7cbf255b68a6418de5654fd",
    "assoc-from-dend": "d4fd20d74716b260861d30e91b2aeff3bce79270d5ae71e9c4a82344ad5d83c6",
    "prelie-from-dend": "76ea04c89fed4ad6ec9c2ac82997b987914a712d2b5f1999ee8fb6a1c0870abf",
    "zinbiel-from-symmetric-dend": "f432935b3ac10cfc8cf81e535257f3ad4eac8b5e745935a7a7d4408c8f703024",
    "lie-from-prelie": "4b5c0baa77fb6ed1daad95e29ac9b268c4f997ba2aa9a63c634baba67794b0b8",
    "comm-from-zinbiel": "d353582db84c0098b26be25345286351b258583eb178c01189c6151c3869ff71",
    "poisson-from-prepoisson": "67b768eb858382bc1ead9ba8eb33fae33302c24989497f25b1b73df2723bfab2",
    "dend-from-rb": "bbde623ed825908586867a572f4e7eb205b15ab02e317098c277f06d6181c460",
}


def test_the_derive_chain_is_byte_stable_and_each_output_passes_its_suite(tmp_path, capsys):
    from relalg.cli import main

    assert json.loads(DUAL_NUMBERS_RB_FILE.read_text()) == DUAL_NUMBERS_RB
    zinbiel8 = json.loads((DATA / "zinbiel8.json").read_text())
    # zinbiel8 with a zero circ is pre-Poisson: circ's axioms hold trivially
    n = zinbiel8["dim"]
    zero = [[["0"] * n] * n] * n
    prepoisson = {**zinbiel8, "ops": {**zinbiel8["ops"], "circ": dict.fromkeys(zinbiel8["ops"]["ast"], zero)}}
    (tmp_path / "prepoisson.json").write_text(json.dumps(prepoisson))
    digests = {}
    for construction, source, target, suite, instances in DERIVE_CHAIN:
        if source is None:
            argv = ["--rb", str(DUAL_NUMBERS_RB_FILE)]
        else:
            path = DATA / source if source.endswith(".json") else tmp_path / f"{source}.json"
            argv = ["--algebra", str(path)]
        assert main(["derive", "--construction", construction, *argv]) == 0
        out = capsys.readouterr().out
        digests[construction] = hashlib.sha256(out.encode()).hexdigest()
        (tmp_path / f"{target}.json").write_text(json.dumps(json.loads(out)["algebra"]))
        assert main(["check-algebra", "--algebra", str(tmp_path / f"{target}.json"), "--suite", suite]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["instances"] == instances
    assert digests == DERIVE_STDOUT_SHA256


# one block at every index pair of zmod2, so mul reads no index:
# u x = 0, v u = u, v v = u + v
SHARED_BLOCK = [[["0/1", "0/1"], ["0/1", "0/1"]], [["1/1", "0/1"], ["1/1", "1/1"]]]


def test_equation_instances_add_up_to_the_report_instances(tmp_path, capsys):
    # every suite on each finite algebra of data/, on the cocycle algebra with
    # one constant's sign flipped, and on an algebra whose mul reads no index;
    # the collapse and the Rota-Baxter window; suites a carrier refuses give
    # no report
    from relalg.axioms import SUITES
    from relalg.cli import main

    mutant = json.loads((DATA / "cocycle_algebra.json").read_text())
    mutant["ops"]["mul"]["(0,1)"] = [[["-1/1"]]]
    (tmp_path / "mutant.json").write_text(json.dumps(mutant))
    shared = {
        "dim": 2,
        "basis": ["u", "v"],
        "semigroup": json.loads((DATA / "zmod2.json").read_text()),
        "ops": {"mul": dict.fromkeys(["(0,0)", "(0,1)", "(1,0)", "(1,1)"], SHARED_BLOCK)},
    }
    (tmp_path / "shared.json").write_text(json.dumps(shared))
    algebras = [DATA / "cocycle_algebra.json", DATA / "zinbiel8.json"]
    algebras += [tmp_path / "mutant.json", tmp_path / "shared.json"]
    commands = [
        ["check-algebra", "--algebra", str(path), "--suite", suite]
        for path in algebras
        for suite in SUITES
    ]
    commands += [
        ["collapse", "--algebra", str(DATA / "cocycle_algebra.json"), "--suite", "RelAssoc"],
        ["check-rb", "--rb", str(DATA / "rb_reciprocal.json"), "--window", "20"],
    ]
    counted = {}
    for argv in commands:
        main(argv)
        out = capsys.readouterr().out
        for report in json.loads(out)["reports"] if out else []:
            if "equation_instances" in report["info"]:
                assert sum(report["info"]["equation_instances"].values()) == report["instances"]
                counted[argv[2], report["check"]] = report["instances"]
    assert counted[str(tmp_path / "mutant.json"), "axioms:RelAssoc"] == 2
    assert counted[str(tmp_path / "shared.json"), "axioms:RelAssoc"] == 57
    assert len(counted) == 10
