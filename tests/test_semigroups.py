import re
from itertools import product
from random import Random

import pytest

from relalg import (
    Cocycle,
    DimonoidTable,
    SemigroupTable,
    check_cocycle,
    check_dimonoid,
    check_semigroup,
    cyclic_monoid,
    dimonoid_from_semigroup,
    matching_dimonoid,
    positive_integers_additive,
    semigroup_from_dimonoid,
    trivial_monoid,
)
from relalg.errors import ContractError, MalformedInputError
from tests.conftest import sign_cocycle


def brute_associative(table):
    # independent oracle: plain nested loops over the raw table
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a, b, c in product(range(n), repeat=3)
    )


def test_trivial_monoid_passes():
    report = check_semigroup(trivial_monoid())
    assert report.passed


def test_zmod2_passes_exhaustively():
    table = [[0, 1], [1, 0]]
    assert brute_associative(table)
    report = check_semigroup(cyclic_monoid(2))
    assert report.passed
    # 8 associativity triples + 4 unit instances + 4 symmetry pairs
    assert report.instances == 16


def test_nonassociative_table_first_violation():
    table = [[0, 1], [0, 0]]
    assert not brute_associative(table)
    # hand scan in lexicographic order: (1,0,1) is the first violation,
    # (1.0).1 = 0.1 = 1 but 1.(0.1) = 1.1 = 0
    report = check_semigroup(SemigroupTable(["0", "1"], table))
    assert not report.passed
    ce = report.counterexample
    assert ce.equation == "associativity"
    assert ce.indices == ("1", "0", "1")
    assert (ce.lhs, ce.rhs) == ("1", "0")


def test_bad_unit_and_commutativity_claims():
    report = check_semigroup(SemigroupTable(["0", "1"], [[0, 0], [0, 0]], unit=1))
    assert not report.passed
    assert report.counterexample.equation == "unit_left"
    # left-zero semigroup is associative but not commutative
    report = check_semigroup(SemigroupTable(["0", "1"], [[0, 0], [1, 1]], commutative=True))
    assert not report.passed
    assert report.counterexample.equation == "commutativity"


def test_malformed_tables_rejected():
    with pytest.raises(MalformedInputError):
        SemigroupTable(["0", "1"], [[0, 2], [1, 0]])
    with pytest.raises(MalformedInputError):
        SemigroupTable(["0"], [[0], [0]])
    with pytest.raises(MalformedInputError):
        SemigroupTable([], [])


@pytest.mark.parametrize("name", ["a,b", "x y", "", "a-b", "b: x[]"])
def test_element_names_outside_the_label_grammar_rejected(name):
    # an op key "(a,b,c)" or an edge "a,b: y[]" would not read back as one name
    message = f"^label {re.escape(repr(name))}: tree labels are letters, digits and _$"
    with pytest.raises(MalformedInputError, match=message):
        SemigroupTable([name, "c"], [[0, 1], [1, 1]], commutative=True)
    with pytest.raises(MalformedInputError, match=message):
        DimonoidTable([name, "c"], [[0, 0], [1, 1]], [[0, 1], [0, 1]])


def test_check_reports_deterministic():
    table = SemigroupTable(["0", "1"], [[0, 1], [0, 0]])
    first = check_semigroup(table)
    second = check_semigroup(table)
    assert first == second


def test_matching_dimonoid_tables():
    d = matching_dimonoid(2)
    assert d.left == ((0, 0), (1, 1))
    assert d.right == ((0, 1), (0, 1))
    assert d.is_matching_form()


@pytest.mark.parametrize("n", range(1, 7))
def test_matching_dimonoid_passes(n):
    assert check_dimonoid(matching_dimonoid(n)).passed


def test_semigroup_as_dimonoid_passes(zmod2):
    d = dimonoid_from_semigroup(zmod2)
    assert d.left == d.right == ((0, 1), (1, 0))
    report = check_dimonoid(d)
    assert report.passed
    assert report.instances == 5 * 8


def test_dimonoid_from_nonassociative_rejected():
    with pytest.raises(ContractError):
        dimonoid_from_semigroup(SemigroupTable(["0", "1"], [[0, 1], [0, 0]]))


def test_swapped_projections_fail():
    # left table = right projection, right table = left projection; the
    # absorption identity a<(b<c) = a<(b>c) breaks, lexicographically first
    # at (0,0,1): left side b<c = c = 1, right side b>c = b = 0
    n = 2
    left = [[j for j in range(n)] for _ in range(n)]
    right = [[i for _ in range(n)] for i in range(n)]
    report = check_dimonoid(DimonoidTable(["0", "1"], left, right))
    assert not report.passed
    ce = report.counterexample
    assert ce.equation == "left_absorbs_right"
    assert ce.indices == ("0", "0", "1")
    assert (ce.lhs, ce.rhs) == ("1", "0")


def test_random_associative_tables_yield_dimonoids():
    # rejection-sample small associative tables, then the doubled structure
    # must satisfy all five dimonoid identities
    rng = Random(42)
    found = 0
    while found < 12:
        n = rng.choice([1, 2, 3])
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if not brute_associative(table):
            continue
        found += 1
        s = SemigroupTable([str(i) for i in range(n)], table)
        assert check_semigroup(s).passed
        assert check_dimonoid(dimonoid_from_semigroup(s)).passed


def test_constant_cocycle_passes(zmod2):
    c = Cocycle(zmod2, [[1, 1], [1, 1]])
    assert check_cocycle(c).passed


def test_sign_cocycle_passes_by_brute_force(zmod2):
    # oracle: both sides expanded over all 8 triples with integer arithmetic
    val = lambda a, b: (-1) ** (a * b)
    for a, b, c in product(range(2), repeat=3):
        assert val(a, b) * val((a + b) % 2, c) == val(a, (b + c) % 2) * val(b, c)
    assert check_cocycle(sign_cocycle()).passed


def test_broken_cocycle_counterexample(zmod2):
    c = Cocycle(zmod2, [[1, 2], [1, 1]])
    report = check_cocycle(c)
    assert not report.passed
    ce = report.counterexample
    assert ce.indices == ("0", "0", "1")
    assert (ce.lhs, ce.rhs) == ("2/1", "4/1")


def test_zero_cocycle_value_rejected(zmod2):
    with pytest.raises(MalformedInputError):
        Cocycle(zmod2, [[1, 0], [1, 1]])


def test_cocycle_over_broken_base_reports_precondition():
    bad = SemigroupTable(["0", "1"], [[0, 1], [0, 0]])
    report = check_cocycle(Cocycle(bad, [[1, 1], [1, 1]]))
    assert not report.passed
    assert report.info.get("precondition") == "semigroup"


def test_virtual_semigroup_windowed():
    v = positive_integers_additive()
    report = check_semigroup(v, window=range(1, 8))
    assert report.passed
    with pytest.raises(ContractError):
        check_semigroup(v)


def test_semigroup_from_dimonoid_roundtrip(zmod2):
    back = semigroup_from_dimonoid(dimonoid_from_semigroup(zmod2))
    assert back.product == zmod2.product
    assert back.unit == 0
    assert back.claims_commutative
    with pytest.raises(ContractError):
        semigroup_from_dimonoid(matching_dimonoid(2))


def test_index_tables_and_cocycles_are_values():
    # two builds are equal and hash alike; a change of type, names, tables or
    # claims makes them unequal
    table = cyclic_monoid(2).product
    sign = [[1, 1], [1, -1]]
    cases = [
        (
            lambda: cyclic_monoid(2),
            [
                cyclic_monoid(3),
                SemigroupTable(["0", "1"], table, commutative=True),  # no unit claim
                SemigroupTable(["0", "1"], table, unit=0),  # no commutativity claim
                SemigroupTable(["e", "1"], table, unit=0, commutative=True),
                DimonoidTable(["0", "1"], table, table),
            ],
        ),
        (
            lambda: matching_dimonoid(2),
            [matching_dimonoid(3), DimonoidTable(["a", "b"], [[0, 1], [0, 1]], [[0, 0], [1, 1]])],
        ),
        (
            lambda: dimonoid_from_semigroup(cyclic_monoid(2)),
            [
                DimonoidTable(["0", "1"], table, table),  # remembers no semigroup
                dimonoid_from_semigroup(SemigroupTable(["0", "1"], table, unit=0)),
            ],
        ),
        (
            sign_cocycle,
            [
                Cocycle(cyclic_monoid(2), [[1, 1], [1, 1]]),
                Cocycle(SemigroupTable(["0", "1"], table, unit=0), sign),
            ],
        ),
    ]
    for build, others in cases:
        value, twin = build(), build()
        assert value is not twin and value == twin and not value != twin
        assert hash(value) == hash(twin) and {value: "found"}[twin] == "found"
        for other in others:
            assert value != other and other != value
        assert value != None  # noqa: E711
