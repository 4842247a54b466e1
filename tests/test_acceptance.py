"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Every comparison is exact rational equality; there are no tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


from relalg import (
    FamilyIndexedOp,
    FreeDendCarrier,
    MorphismFamily,
    OpCarrier,
    check_axioms,
    check_morphism,
    check_pair_symmetric,
    check_rota_baxter,
    collapse,
    comm_from_zinbiel,
    cyclic_monoid,
    dend_from_rb,
    dend_from_zinbiel,
    dimonoid_from_semigroup,
    finite_domain,
    free_check,
    matching_dimonoid,
    window_domain,
)
from relalg.axioms import FiniteDomain
from relalg.samples import reciprocal_rota_baxter, truncated_integration_zinbiel
from tests.conftest import one_dim_base, sign_cocycle
from relalg import cocycle_twist

DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLES = 200
MAX_VERTICES = 6
SEED = 0


def conclude(number, label, ok):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {label}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "relalg.cli", *args], capture_output=True, text=True
    )


def test_criterion_1_dimonoid_dendriform_axioms():
    start = time.perf_counter()
    ok = True
    for dimonoid in (matching_dimonoid(2), dimonoid_from_semigroup(cyclic_monoid(2))):
        carrier = FreeDendCarrier(["x", "y"], dimonoid)
        report = free_check(
            carrier, "DimonoidDendriform", samples=SAMPLES, max_vertices=MAX_VERTICES, seed=SEED
        )
        ok = ok and report.passed and report.instances == 3 * SAMPLES * 4
    elapsed = time.perf_counter() - start
    conclude(1, f"free dimonoid-dendriform axioms, {elapsed:.1f}s", ok and elapsed < 30.0)


def test_criterion_2_family_specialization():
    carrier = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
    report = free_check(
        carrier, "FamDendriform", samples=SAMPLES, max_vertices=MAX_VERTICES, seed=SEED
    )
    conclude(2, "family dendriform specialization", report.passed and report.instances == 3 * SAMPLES * 4)


def test_criterion_3_derived_structure_chain():
    start = time.perf_counter()
    carrier = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
    ok = True
    for suite in ("RelAssoc", "RelPreLie", "RelLie"):
        report = free_check(carrier, suite, samples=SAMPLES, max_vertices=MAX_VERTICES, seed=SEED)
        ok = ok and report.passed
        if suite == "RelLie":
            ok = ok and set(report.info["equation_instances"]) == {"skew", "jacobi"}
    elapsed = time.perf_counter() - start
    conclude(3, f"derived associative / pre-Lie / Lie chain, {elapsed:.1f}s", ok and elapsed < 60.0)


def test_criterion_4_rota_baxter():
    start = time.perf_counter()
    rb = reciprocal_rota_baxter()
    identity = check_rota_baxter(rb, window=range(1, 21))
    prec, succ = dend_from_rb(rb, window=range(1, 21))
    carrier = OpCarrier(prec.index, {"prec": prec, "succ": succ})
    dendriform = check_axioms(carrier, "RelDendriform", window_domain(("1",), range(1, 21)))
    elapsed = time.perf_counter() - start
    ok = (
        identity.passed
        and identity.instances == 400
        and dendriform.passed
        and dendriform.instances == 3 * 20**3
        and elapsed < 5.0
    )
    conclude(4, f"Rota-Baxter window, {elapsed:.1f}s", ok)


def test_criterion_5_cocycle_and_collapse():
    twisted = cocycle_twist(one_dim_base(), sign_cocycle())
    assoc = check_axioms(twisted.as_carrier(), "RelAssoc", finite_domain(twisted))
    flat = collapse(twisted)
    flat_assoc = check_axioms(flat.as_carrier(("mul",)), "RelAssoc", finite_domain(flat))
    ok = (
        assoc.passed
        and assoc.instances == 8
        and flat.dim == 2
        and flat_assoc.passed
        and flat_assoc.instances == 8
    )
    conclude(5, "cocycle twist and collapse", ok)


def test_criterion_6_zinbiel_chain():
    start = time.perf_counter()
    degree = 8
    zalg = truncated_integration_zinbiel(degree)
    in_range = FiniteDomain(
        zalg.basis,
        range(zalg.index.size),
        basis_filter=lambda combo: sum(combo) + len(combo) - 1 <= degree,
    )
    fam = FamilyIndexedOp(zalg.index, lambda a, x, y: zalg.apply("ast", (a, a), x, y))
    family_report = check_axioms(OpCarrier(zalg.index, {"ast": fam}), "FamZinbiel", in_range)
    ast = zalg.op("ast")
    prec, succ = dend_from_zinbiel(ast)
    dend_report = check_axioms(
        OpCarrier(zalg.index, {"prec": prec, "succ": succ}), "RelDendriform", in_range
    )
    symmetry_report = check_pair_symmetric(prec, succ, in_range)
    mul = comm_from_zinbiel(ast)
    comm_report = check_axioms(OpCarrier(zalg.index, {"mul": mul}), "RelComm", in_range)
    elapsed = time.perf_counter() - start
    ok = (
        family_report.passed
        and set(family_report.info["equation_instances"]) == {"zinbiel", "zinbiel_swap"}
        and dend_report.passed
        and symmetry_report.passed
        and comm_report.passed
        and set(comm_report.info["equation_instances"]) == {"assoc", "comm"}
        and elapsed < 5.0
    )
    conclude(6, f"truncated-integration zinbiel chain, {elapsed:.1f}s", ok)


def test_criterion_7_mutation_detection(tmp_path):
    with open(DATA / "cocycle_algebra.json") as fh:
        doc = json.load(fh)
    path = tmp_path / "algebra.json"
    doc["ops"]["mul"]["(0,1)"] = [[["-1/1"]]]  # flip the sign of one constant
    path.write_text(json.dumps(doc))
    mutated = run_cli("check-algebra", "--algebra", str(path), "--suite", "RelAssoc")
    counterexample = json.loads(mutated.stdout)["reports"][0]["counterexample"]
    doc["ops"]["mul"]["(0,1)"] = [[["1/1"]]]  # restore
    path.write_text(json.dumps(doc))
    restored = run_cli("check-algebra", "--algebra", str(path), "--suite", "RelAssoc")
    ok = (
        mutated.returncode == 1
        and counterexample is not None
        and len(counterexample["indices"]) == 3
        and restored.returncode == 0
    )
    conclude(7, "single-constant mutation detection", ok)


def test_criterion_8_morphism():
    twisted = cocycle_twist(one_dim_base(), sign_cocycle())
    sign_character = MorphismFamily(
        twisted, twisted, {0: [[Fraction(1)]], 1: [[Fraction(-1)]]}
    )
    passing = check_morphism(sign_character, "RelAssoc")
    doubling = MorphismFamily(twisted, twisted, {0: [[Fraction(1)]], 1: [[Fraction(2)]]})
    failing = check_morphism(doubling, "RelAssoc")
    ok = (
        passing.passed
        and not failing.passed
        and failing.counterexample.indices == ("1", "1")
    )
    conclude(8, "character morphism family", ok)


def test_criterion_9_deterministic_reports():
    ok = True
    for suite in ("DimonoidDendriform", "RelAssoc"):
        args = (
            "free-check",
            "--suite",
            suite,
            "--semigroup",
            str(DATA / "zmod2.json"),
            "--samples",
            "40",
            "--max-vertices",
            "6",
            "--seed",
            "3",
        )
        first, second = run_cli(*args), run_cli(*args)
        ok = (
            ok
            and first.returncode == 0
            and first.stdout == second.stdout
            and first.stdout.encode() == second.stdout.encode()
        )
    conclude(9, "byte-identical seeded reports", ok)
