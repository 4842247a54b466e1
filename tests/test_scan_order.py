"""Byte-level pins on the scan order of every checker.

Each case builds an input that fails at several instances and asserts the
whole canonical JSON report, so the instance count, the chosen
counterexample and the rendering of both sides are fixed together.  The
inputs are chosen so that a different loop nesting (equation outer versus
inner, index pairs versus basis pairs, unit laws grouped versus interleaved)
would report a different first violation or a different count.
"""

import json
from fractions import Fraction

from relalg import (
    Cocycle,
    DimonoidTable,
    FiniteRelativeAlgebra,
    MorphismFamily,
    RotaBaxterFamily,
    SemigroupTable,
    check_axioms,
    check_cocycle,
    check_dimonoid,
    check_morphism,
    check_rota_baxter,
    check_semigroup,
    cyclic_monoid,
    finite_domain,
    to_json,
)
from relalg.cli import main
from relalg.jsonio import dump_algebra
from relalg.samples import rational_line_carrier

F0, F1 = Fraction(0), Fraction(1)
Z2_PAIRS = [(a, b) for a in range(2) for b in range(2)]


def assert_report(report, expected):
    assert to_json(report.to_payload()) == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def failure(check, instances, equation, indices, lhs, rhs, elements=(), info=None):
    return {
        "check": check,
        "counterexample": {
            "elements": list(elements),
            "equation": equation,
            "indices": list(indices),
            "lhs": lhs,
            "rhs": rhs,
        },
        "info": {} if info is None else info,
        "instances": instances,
        "passed": False,
    }


def left_projection_algebra():
    """Basis e, f with b_i . b_j = b_i at every index pair of Z/2:
    associative, not commutative."""
    block = (((F1, F0), (F1, F0)), ((F0, F1), (F0, F1)))
    return FiniteRelativeAlgebra(
        ["e", "f"], cyclic_monoid(2), {"mul": {p: block for p in Z2_PAIRS}}
    )


def test_nonassociative_table_several_triples():
    table = SemigroupTable(["p", "q", "r"], [[0, 1, 2], [2, 0, 1], [1, 1, 0]])
    expected = failure("semigroup", 10, "associativity", ["q", "p", "p"], "q", "r")
    assert_report(check_semigroup(table), expected)


def test_unit_laws_interleave_per_element():
    # right projection with unit u: unit_left always holds, unit_right fails
    # from v on; interleaving puts the failure at 27 + 2 + 2 = 31
    table = SemigroupTable(["u", "v", "w"], [[0, 1, 2]] * 3, unit=0)
    expected = failure("semigroup", 31, "unit_right", ["v"], "u", "v")
    assert_report(check_semigroup(table), expected)


def test_dimonoid_identities_outer():
    # left_left_assoc holds on all 8 triples; the next identity fails first
    dimonoid = DimonoidTable(["a", "b"], [[0, 1], [1, 0]], [[1, 1], [0, 0]])
    expected = failure("dimonoid", 9, "left_absorbs_right", ["a", "a", "a"], "a", "b")
    assert_report(check_dimonoid(dimonoid), expected)


def test_cocycle_several_triples():
    cocycle = Cocycle(cyclic_monoid(3), [[1, 1, 1], [1, 2, 1], [1, 1, Fraction(1, 3)]])
    expected = failure("cocycle", 15, "cocycle", ["1", "1", "2"], "2/3", "1/1")
    assert_report(check_cocycle(cocycle), expected)


def test_cocycle_precondition_keeps_base_counterexample():
    base = SemigroupTable(["0", "1"], [[0, 1], [0, 0]])
    expected = failure(
        "cocycle", 6, "associativity", ["1", "0", "1"], "1", "0",
        info={"precondition": "semigroup"},
    )
    assert_report(check_cocycle(Cocycle(base, [[1, 1], [1, 1]])), expected)


def test_morphism_roles_then_index_pairs_then_basis_pairs():
    # prec = 0 and succ = the product of Q[t]/(t^2): every prec site holds
    # (16 instances); f_1 scales t by 3, so succ first fails at index pair
    # (0, 1), basis pair (t, 1); basis pairs outer would pick (1, t) at (1, 0)
    zero = ((F0, F0), (F0, F0))
    mul = (((F1, F0), (F0, F1)), ((F0, F1), (F0, F0)))
    alg = FiniteRelativeAlgebra(
        ["1", "t"],
        cyclic_monoid(2),
        {"prec": {p: (zero, zero) for p in Z2_PAIRS}, "succ": {p: mul for p in Z2_PAIRS}},
    )
    f = MorphismFamily(alg, alg, {0: [[1, 0], [0, 1]], 1: [[1, 0], [0, 3]]})
    expected = failure(
        "morphism:RelDendriform", 23, "morphism_succ", ["0", "1"],
        [["3/1", "t"]], [["1/1", "t"]], elements=["t", "1"],
    )
    assert_report(check_morphism(f, "RelDendriform"), expected)


def test_non_rota_baxter_family():
    # R_n = 1/n except R_4 = 1/5: the first pair touching index 4 is (1, 3)
    rb = RotaBaxterFamily(
        rational_line_carrier(), lambda n, x: x.scale(Fraction(1, 5 if n == 4 else n))
    )
    expected = failure(
        "rota-baxter", 3, "rota_baxter", ["1", "3"],
        [["1/3", "1"]], [["4/15", "1"]], elements=["1", "1"],
    )
    assert_report(check_rota_baxter(rb, window=range(1, 6)), expected)


def test_check_axioms_second_equation():
    alg = left_projection_algebra()
    expected = failure(
        "axioms:RelComm", 69, "comm", ["0", "0"], [["1/1", "e"]], [["1/1", "f"]],
        elements=["e", "f"],
        info={"equation_instances": {"assoc": 64, "comm": 5}, "suite": "RelComm"},
    )
    assert_report(check_axioms(alg.as_carrier(), "RelComm", finite_domain(alg)), expected)


def test_check_axioms_records_equation_with_no_instances():
    alg = left_projection_algebra()
    domain = finite_domain(alg, basis_filter=lambda combo: len(combo) != 3)
    expected = failure(
        "axioms:RelComm", 5, "comm", ["0", "0"], [["1/1", "e"]], [["1/1", "f"]],
        elements=["e", "f"],
        info={"equation_instances": {"assoc": 0, "comm": 5}, "suite": "RelComm"},
    )
    assert_report(check_axioms(alg.as_carrier(), "RelComm", domain), expected)


def family_algebra(**products):
    """Basis e, f over Z/2 with family-indexed roles: ``products[role][a]``
    lists the (i, j, k) with b_i op_a b_j = b_k; every other product is 0."""
    def block(triples):
        return tuple(
            tuple(tuple(F1 if (i, j, k) in triples else F0 for k in range(2)) for j in range(2))
            for i in range(2)
        )

    ops = {role: {(a,): block(by_index[a]) for a in range(2)} for role, by_index in products.items()}
    return FiniteRelativeAlgebra(["e", "f"], cyclic_monoid(2), ops)


def check_family(alg, suite):
    return check_axioms(alg.as_carrier(), suite, finite_domain(alg))


def test_fam_dendriform_fails_in_third_equation():
    # prec_0: f.f = f and succ_1: f.e = e; dend1 and dend2 hold on all 32
    # instances, dend3 first fails at (f, f, e) with a = 1, b = 0, where
    # succ_1(prec_0(f, f), e) = e but succ_1(f, succ_0(f, e)) = 0
    alg = family_algebra(prec=[{(1, 1, 1)}, set()], succ=[set(), {(1, 0, 0)}])
    expected = failure(
        "axioms:FamDendriform", 91, "dend3", ["1", "0"], [["1/1", "e"]], [],
        elements=["f", "f", "e"],
        info={
            "equation_instances": {"dend1": 32, "dend2": 32, "dend3": 27},
            "suite": "FamDendriform",
        },
    )
    assert_report(check_family(alg, "FamDendriform"), expected)


def test_fam_prelie_reads_two_indices():
    # circ_0: e.e = e and circ_1: f.f = f; the family pre-Lie identity has
    # two index variables, so the first failure is the 30th instance
    alg = family_algebra(circ=[{(0, 0, 0)}, {(1, 1, 1)}])
    expected = failure(
        "axioms:FamPreLie", 30, "prelie", ["0", "1"], [], [["-1/1", "f"]],
        elements=["f", "f", "f"],
        info={"equation_instances": {"prelie": 30}, "suite": "FamPreLie"},
    )
    assert_report(check_family(alg, "FamPreLie"), expected)


def test_fam_prepoisson_zero_ast_fails_at_prelie():
    # ast = 0 satisfies both zinbiel identities (32 instances each); the
    # circ of the pre-Lie case then fails the pre-Lie identity
    alg = family_algebra(ast=[set(), set()], circ=[{(0, 0, 0)}, {(1, 1, 1)}])
    expected = failure(
        "axioms:FamPrePoisson", 94, "prelie", ["0", "1"], [], [["-1/1", "f"]],
        elements=["f", "f", "f"],
        info={
            "equation_instances": {"prelie": 30, "zinbiel": 32, "zinbiel_swap": 32},
            "suite": "FamPrePoisson",
        },
    )
    assert_report(check_family(alg, "FamPrePoisson"), expected)


def test_cli_index_precondition_report(tmp_path, capsys):
    doc = dump_algebra(left_projection_algebra())
    doc["semigroup"]["product"] = [[0, 1], [0, 0]]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert main(["check-algebra", "--algebra", str(path), "--suite", "RelAssoc"]) == 1
    report = failure("axioms:precondition:semigroup", 6, "associativity", ["1", "0", "1"], "1", "0")
    expected = {"command": "check-algebra", "passed": False, "reports": [report]}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
