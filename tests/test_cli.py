import hashlib
import json
import shlex
import subprocess
import sys

import pytest

from outcomes import ROOT, ROWS, check, resolve

DATA = ROOT / "data"


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


def row_of(command):
    """The row of tests/outcomes.py whose argv is the command."""
    argv = tuple(shlex.split(command))
    return next(row for row in ROWS if row.argv == argv)


# README's free-check and its free-eval on trivial_a are also CI's commands:
# each was pinned twice, as a README command and as a CI case, and each pin
# keeps its test, run on the one row that holds both
README_FREE_CHECK = row_of("free-check --suite DimonoidDendriform --dimonoid data/matching2.json"
                           " --samples 200 --max-vertices 6 --seed 0")
README_FREE_EVAL = row_of('free-eval --expr "mul(a,a, x[], y[])" --semigroup data/trivial_a.json')


@pytest.mark.parametrize("row", [
    pytest.param(README_FREE_CHECK, id=f"command9-{README_FREE_CHECK.stdout_sha256}"),
    pytest.param(README_FREE_EVAL, id=f"command10-{README_FREE_EVAL.stdout_sha256}"),
])
def test_readme_command_reports_are_byte_stable(row, cli):
    check(row, cli)


@pytest.mark.parametrize("row", [
    pytest.param(README_FREE_CHECK, id=f"args0-{README_FREE_CHECK.stdout_sha256}-2400"),
])
def test_the_free_checks_ci_runs(row, cli):
    assert "PASS free-check:DimonoidDendriform: 2400 instances" in row.stderr
    check(row, cli)


@pytest.mark.parametrize("row", [
    pytest.param(README_FREE_EVAL, id=f"mul(a,a, x[], y[])-index0-0-{README_FREE_EVAL.stdout_sha256}"),
])
def test_the_free_evals_of_derived_products_ci_runs(row, cli):
    # the other free-eval rows on derived products read zmod2 claiming no
    # commutativity, and otherwise data/zmod2.json
    zmod2 = json.loads((DATA / "zmod2.json").read_text())
    noncommutative = json.loads((ROOT / "tests" / "zmod2_noncommutative.json").read_text())
    assert noncommutative == {**zmod2, "commutative": False}
    check(row, cli)


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


@pytest.mark.parametrize(
    "command",
    [list(row.argv) for row in ROWS if row.status < 2] + [["check-semigroup", "--semigroup", None]],
)
def test_stderr_summary_lines_match_the_reports(tmp_path, capsys, command):
    # every row that ends in a report, and a non-associative table: one
    # PASS/FAIL line per report, in report order, and exit 1 exactly when the
    # document did not pass
    from relalg.cli import main

    magma = tmp_path / "magma.json"
    magma.write_text(json.dumps(NON_ASSOCIATIVE))
    status = main(resolve([str(magma) if a is None else a for a in command]))
    captured = capsys.readouterr()
    expected = []
    for report in json.loads(captured.out)["reports"]:
        ce = report["counterexample"]
        where = "" if ce is None else f" at {ce['equation']} {tuple(ce['indices'])}"
        verdict = "PASS" if report["passed"] else "FAIL"
        expected.append(f"{verdict} {report['check']}: {report['instances']} instances{where}")
    lines = [line for line in captured.err.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines == expected
    assert status == (0 if json.loads(captured.out)["passed"] else 1)


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
DUAL_NUMBERS_RB = ROOT / "tests" / "dual_numbers_rb.json"


def test_derive_dend_from_rb_on_a_finite_file(tmp_path):
    proc = run_cli("check-rb", "--rb", str(DUAL_NUMBERS_RB))
    assert proc.returncode == 0
    assert payload_of(proc)["reports"][0]["instances"] == 4
    out = tmp_path / "derived.json"
    proc = run_cli("derive", "--construction", "dend-from-rb", "--rb", str(DUAL_NUMBERS_RB), "--out", str(out))
    assert proc.returncode == 0
    assert out.read_bytes() == proc.stdout.encode()
    algebra = payload_of(proc)["algebra"]
    # prec(1, 1) = 1 . R(1) = t and succ(1, 1) = R(1) . 1 = t; the algebra
    # passing RelDendriform is a row of tests/outcomes.py
    assert algebra["ops"]["prec"]["(e,e)"][0][0] == ["0/1", "1/1"]
    assert algebra["ops"]["succ"]["(e,e)"][0][0] == ["0/1", "1/1"]


def test_derive_dend_from_rb_on_the_builtin_line_exits_3():
    proc = run_cli("derive", "--construction", "dend-from-rb", "--rb", str(DATA / "rb_reciprocal.json"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "can only be materialized over a finite carrier" in proc.stderr
    assert "Traceback" not in proc.stderr


# the derive chain: (construction, its input, its output under tests/inputs/,
# the output's target suite); the dual numbers end it
DERIVE_CHAIN = [
    ("dend-from-zinbiel", "--algebra data/zinbiel8.json", "dend", "RelDendriform"),
    ("assoc-from-dend", "--algebra tests/inputs/dend.json", "assoc", "RelAssoc"),
    ("prelie-from-dend", "--algebra tests/inputs/dend.json", "prelie", "RelPreLie"),
    ("zinbiel-from-symmetric-dend", "--algebra tests/inputs/dend.json", "zinbiel", "RelZinbiel"),
    ("lie-from-prelie", "--algebra tests/inputs/prelie.json", "lie", "RelLie"),
    ("comm-from-zinbiel", "--algebra data/zinbiel8.json", "comm", "RelComm"),
    ("poisson-from-prepoisson", "--algebra tests/inputs/prepoisson.json", "poisson", "RelPoisson"),
    ("dend-from-rb", "--rb tests/dual_numbers_rb.json", "rb_dend", "RelDendriform"),
]


def test_the_derive_chain_is_byte_stable_and_each_output_passes_its_suite(capsys):
    # each derive and each check of its output is a row of tests/outcomes.py,
    # with its stdout digest; the output each row reads is the committed file
    # equal to the algebra the derive row emits
    from relalg.cli import main

    statuses = {row.argv: row.status for row in ROWS}
    for construction, source, target, suite in DERIVE_CHAIN:
        derive = ("derive", "--construction", construction, *source.split())
        output = f"tests/inputs/{target}.json"
        assert statuses[derive] == statuses["check-algebra", "--algebra", output, "--suite", suite] == 0
        assert main(resolve(derive)) == 0
        assert json.loads((ROOT / output).read_text()) == json.loads(capsys.readouterr().out)["algebra"]


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
