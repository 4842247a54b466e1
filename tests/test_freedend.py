import ast
import gc
import hashlib
import inspect
import re
import textwrap
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import pytest

from relalg import (
    DimonoidTable,
    FreeDendCarrier,
    LinComb,
    OpCarrier,
    SemigroupTable,
    assoc_from_dend,
    check_axioms,
    check_semigroup,
    cyclic_monoid,
    dimonoid_from_semigroup,
    free_check,
    lie_from_prelie,
    matching_dimonoid,
    parse_scalar,
    prelie_from_dend,
    semigroup_from_dimonoid,
    tree_parse,
    tree_print,
)
from relalg import axioms
from relalg.errors import ContractError, MalformedInputError
from relalg import cli, freedend, jsonio
from relalg.constructions import _compiled, dend_from_zinbiel, pair_role
from relalg.freecheck import (DERIVED_OPS, FREE_SUITES, free_derived_op, free_pair_ops,
                              free_suite_carrier)
from relalg.freedend import SampledTreeDomain
from relalg.ops import PairIndexedOp
from relalg.reports import to_json
from relalg.semigroups import power
from relalg.trees import EMPTY, DecoratedTree, random_tree_from

DATA = Path(__file__).resolve().parent.parent / "data"


def single(t):
    return LinComb.single(t)


X = single(DecoratedTree("x"))
Y = single(DecoratedTree("y"))


# -- base cases, straight from the recursion's starting rules


def test_prec_base_cases(free_matching2):
    t = free_matching2.parse("x[a: y[], b: x[]]")
    assert free_matching2.prec(single(t), single(EMPTY := tree_parse("e")), "a") == single(t)
    assert free_matching2.prec(single(tree_parse("e")), single(t), "a").is_zero()


def test_succ_base_cases(free_matching2):
    t = free_matching2.parse("x[a: y[], b: x[]]")
    assert free_matching2.succ(single(tree_parse("e")), single(t), "b") == single(t)
    assert free_matching2.succ(single(t), single(tree_parse("e")), "b").is_zero()


def test_double_empty_product_undefined(free_matching2):
    e = single(tree_parse("e"))
    with pytest.raises(ContractError):
        free_matching2.prec(e, e, "a")
    with pytest.raises(ContractError):
        free_matching2.succ(e, e, "a")


# -- single-vertex products, frozen from the hand expansion


def test_single_vertex_prec(free_matching2):
    out = free_matching2.prec(X, Y, "a")
    assert out == single(DecoratedTree("x", right=DecoratedTree("y"), right_edge="a"))
    assert out.render(tree_print) == "1/1 * x[, a: y[]]"


def test_single_vertex_succ(free_matching2):
    out = free_matching2.succ(X, Y, "a")
    assert out == single(DecoratedTree("y", left=DecoratedTree("x"), left_edge="a"))
    assert out.render(tree_print) == "1/1 * y[a: x[], ]"


def test_planarity(free_matching2):
    assert free_matching2.prec(X, Y, "a") != free_matching2.prec(Y, X, "a")


def test_classical_two_vertex_products():
    # over the one-element index the two products of two single vertices are
    # exactly the two shapes of a two-vertex planar binary tree
    carrier = FreeDendCarrier(["x"], dimonoid_from_semigroup(cyclic_monoid(1)))
    x = single(DecoratedTree("x"))
    low = carrier.prec(x, x, "0")
    high = carrier.succ(x, x, "0")
    assert low == single(DecoratedTree("x", right=DecoratedTree("x"), right_edge="0"))
    assert high == single(DecoratedTree("x", left=DecoratedTree("x"), left_edge="0"))
    assert low != high


# -- hand-expanded three-vertex instances


def test_family_axiom_instance_zmod2(free_zmod2):
    # (x succ_0 y) prec_1 z = x succ_0 (y prec_1 z): both sides are the single
    # tree with root y, left child x via 0, right child z via 1
    z = single(DecoratedTree("y"))
    lhs = free_zmod2.prec(free_zmod2.succ(X, Y, "0"), z, "1")
    rhs = free_zmod2.succ(X, free_zmod2.prec(Y, z, "1"), "0")
    expected = single(DecoratedTree("y", DecoratedTree("x"), "0", DecoratedTree("y"), "1"))
    assert lhs == rhs == expected


def test_matching_axiom_instance(free_matching2):
    # (x succ_a y) prec_b z = x succ_a (y prec_b z) over the projections
    z = single(DecoratedTree("x"))
    lhs = free_matching2.prec(free_matching2.succ(X, Y, "a"), z, "b")
    rhs = free_matching2.succ(X, free_matching2.prec(Y, z, "b"), "a")
    expected = single(DecoratedTree("y", DecoratedTree("x"), "a", DecoratedTree("x"), "b"))
    assert lhs == rhs == expected


def test_prec_first_axiom_single_vertices(free_matching2):
    # (x prec_a y) prec_b z = x prec_(a<b) (y prec_b z) + x prec_(a>b) (y succ_a z)
    z = single(DecoratedTree("x"))
    lhs = free_matching2.prec(free_matching2.prec(X, Y, "a"), z, "b")
    t1 = single(DecoratedTree(
        "x", right=DecoratedTree("y", right=DecoratedTree("x"), right_edge="b"), right_edge="a"
    ))
    t2 = single(DecoratedTree(
        "x", right=DecoratedTree("x", left=DecoratedTree("y"), left_edge="a"), right_edge="b"
    ))
    assert lhs == t1 + t2


def test_grading(free_zmod2):
    rng = Random(4)
    for _ in range(30):
        s = free_zmod2.random_tree(rng, 5)
        t = free_zmod2.random_tree(rng, 5)
        for out in (
            free_zmod2.prec(single(s), single(t), "1"),
            free_zmod2.succ(single(s), single(t), "0"),
        ):
            assert not out.is_zero()
            assert all(u.size == s.size + t.size for u, _ in out)


def test_undeclared_labels_rejected(free_zmod2):
    with pytest.raises(MalformedInputError):
        free_zmod2.prec(X, Y, "q")
    with pytest.raises(MalformedInputError):
        free_zmod2.parse("z[]")
    with pytest.raises(MalformedInputError):
        free_zmod2.check_tree(DecoratedTree("z"))
    with pytest.raises(MalformedInputError):
        FreeDendCarrier(["e"], matching_dimonoid(2))


@pytest.mark.parametrize(
    "decorations, elements, label",
    [
        (["x y", "z"], ["a"], "x y"),
        (["x"], ["a", "b: x[]"], "b: x[]"),
        ([""], ["a"], ""),
        (["x"], ["a-b"], "a-b"),
    ],
)
def test_labels_the_tree_text_cannot_spell_rejected(decorations, elements, label):
    # with "b: x[]" an edge label, succ of x[] and y[] would print as the
    # ambiguous y[b: x[]: x[], ]
    n = len(elements)
    with pytest.raises(MalformedInputError, match=f"^label {re.escape(repr(label))}: "):
        index = DimonoidTable(elements, [[i] * n for i in range(n)], [list(range(n))] * n)
        FreeDendCarrier(decorations, index)
    assert FreeDendCarrier(["x", "y_2", "3"], matching_dimonoid(2)).parse("y_2[a: 3[], ]")


def test_outside_trees_with_undeclared_labels_rejected(free_zmod2):
    # trees built outside the carrier are checked when first interned: an
    # undeclared decoration, or an undeclared edge label on a spine the
    # recursion walks, is malformed input
    bad_vertex = single(DecoratedTree("z"))
    bad_edge = single(DecoratedTree("x", right=DecoratedTree("y"), right_edge="q"))
    for op in (free_zmod2.prec, free_zmod2.succ):
        for s, t in ((bad_vertex, Y), (X, bad_vertex), (bad_edge, Y), (Y, bad_edge)):
            with pytest.raises(MalformedInputError, match="undeclared"):
                op(s, t, "0")


# -- interning


def test_equal_trees_are_one_object_within_a_carrier():
    # inside a carrier a tree is one id: equal trees, parsed, built outside,
    # sampled or grafted, get the same id, and each carrier numbers its own
    a = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
    b = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
    text = "y[1: x[], 0: x[]]"
    outside = DecoratedTree("y", DecoratedTree("x"), "1", DecoratedTree("x"), "0")
    assert a.parse(text) == outside
    in_a, x = a._id(a.parse(text)), a._id(DecoratedTree("x"))
    assert a._id(outside) == in_a and a._tree(in_a) == outside
    assert a._nodes[in_a - a._base] == ("y", x, 1, x, 0) and a._ids[("x", 0, -1, 0, -1)] == x
    (grafted, _), = a.graft_sum(((1, "prec", a.to_ids(single(a.parse("y[1: x[], ]"))), a.to_ids(X), 0),))
    assert grafted == in_a
    sampled = a._id(a.random_tree(Random(2), 5))
    assert sampled == a._id(random_tree_from(Random(2), ["x", "y"], ["0", "1"], 5))
    b._id(DecoratedTree("y"))
    assert b._id(outside) != in_a and b._tree(b._id(outside)) == outside


# -- axiom satisfaction at sampling scale (the module's main property)


@pytest.mark.parametrize("make", [lambda: matching_dimonoid(2), lambda: dimonoid_from_semigroup(cyclic_monoid(2))])
def test_dimonoid_dendriform_axioms(make):
    carrier = FreeDendCarrier(["x", "y"], make())
    report = free_check(carrier, "DimonoidDendriform", samples=40, max_vertices=5, seed=0)
    assert report.passed
    assert report.instances == 3 * 40 * 4


def test_axioms_over_irregular_dimonoid():
    # left product projects on the first argument, right product is constant;
    # a dimonoid of neither semigroup nor matching form
    irregular = DimonoidTable(["0", "1"], [[0, 0], [1, 1]], [[0, 0], [0, 0]])
    from relalg import check_dimonoid

    assert check_dimonoid(irregular).passed
    assert not irregular.is_semigroup_form() and not irregular.is_matching_form()
    carrier = FreeDendCarrier(["x"], irregular)
    report = free_check(carrier, "DimonoidDendriform", samples=40, max_vertices=5, seed=3)
    assert report.passed


# The left-zero band {a, b} (xy = x): an index that is not commutative.
LEFT_ZERO_BAND = (["a", "b"], [[0, 0], [1, 1]])
NON_COMMUTATIVE_SUITES = [
    ("DimonoidDendriform", 2400),
    ("FamDendriform", 2400),
    ("RelDendriform", 4800),
    ("RelAssoc", 1600),
]


class TransposedReads(DimonoidTable):
    """A dimonoid whose products read their tables at [j][i]: the same
    dimonoid over a commutative index, a different one over the band."""

    def left_mul(self, i, j):
        return self.left[j][i]

    def right_mul(self, i, j):
        return self.right[j][i]


@pytest.mark.parametrize("suite, instances", NON_COMMUTATIVE_SUITES)
def test_axioms_over_a_non_commutative_index(suite, instances):
    band = SemigroupTable(*LEFT_ZERO_BAND)
    assert not band.claims_commutative and check_semigroup(band).passed
    report = free_check(FreeDendCarrier(["x", "y"], band), suite, samples=200, max_vertices=6, seed=0)
    assert report.passed and report.instances == instances


@pytest.mark.parametrize("suite", [suite for suite, _ in NON_COMMUTATIVE_SUITES])
def test_grafting_with_swapped_index_products_fails_only_over_the_band(suite):
    # the band tells a grafting that multiplies its edge labels in the wrong
    # order from a correct one; Z/2 cannot
    elements, table = LEFT_ZERO_BAND
    swapped = FreeDendCarrier(["x", "y"], TransposedReads(elements, table, table))
    report = free_check(swapped, suite, samples=200, max_vertices=6, seed=0)
    assert not report.passed and report.instances == 2
    zmod2 = cyclic_monoid(2)
    swapped = FreeDendCarrier(["x", "y"], TransposedReads(zmod2.elements, zmod2.product, zmod2.product))
    assert free_check(swapped, suite, samples=200, max_vertices=6, seed=0).passed


def test_a_counterexample_names_its_trees_and_a_pass_names_none(free_zmod2, monkeypatch):
    # a sample is a tuple of trees, printed only to name a counterexample
    printed = []
    monkeypatch.setattr(freedend, "tree_print", lambda t: printed.append(t) or tree_print(t))
    report = free_check(free_zmod2, "RelAssoc", samples=5, max_vertices=4, seed=0)
    assert report.passed and report.instances == 40 and printed == []
    elements, table = LEFT_ZERO_BAND
    swapped = FreeDendCarrier(["x", "y"], TransposedReads(elements, table, table))
    report = free_check(swapped, "DimonoidDendriform", samples=20, max_vertices=2, seed=0)
    assert not report.passed and report.instances == 2
    assert report.counterexample.elements == ("y[, b: y[]]", "y[a: y[], ]", "y[]")
    assert report.counterexample.indices == ("a", "b")


# -- multiplicity-freeness: a product of basis trees is a sum of distinct trees


def trees_by_size(carrier, most):
    """Every tree over the carrier's labels with 1..most vertices, by size."""
    by_size = [[EMPTY]]

    def hanging(size):  # (subtree, edge label) pairs of that size
        if size == 0:
            return [(EMPTY, None)]
        return [(u, e) for u in by_size[size] for e in carrier.dimonoid.elements]

    for n in range(1, most + 1):
        by_size.append([
            DecoratedTree(x, left, left_edge, right, right_edge)
            for k in range(n)
            for left, left_edge in hanging(k)
            for right, right_edge in hanging(n - 1 - k)
            for x in carrier.decorations
        ])
    return by_size[1:]


def reference_grafting(dimonoid):
    """The grafting recursion with coefficients kept and each step's terms
    merged through a dict: (kind, s, t, a) -> {tree: coeff}."""
    memo = {}

    def graft(kind, s, t, a):
        key = (kind, s, t, a)
        if key in memo:
            return memo[key]
        name, left_mul, right_mul = dimonoid.name, dimonoid.left_mul, dimonoid.right_mul
        acc = {}
        if kind == "p" and s.right is EMPTY:
            acc = {DecoratedTree(s.label, s.left, s.left_edge, t, name(a)): 1}
        elif kind == "p":
            sigma2 = dimonoid.index_of(s.right_edge)
            for sub, sub_index, mul in (("p", a, left_mul), ("s", sigma2, right_mul)):
                for u, c in graft(sub, s.right, t, sub_index).items():
                    grafted = DecoratedTree(s.label, s.left, s.left_edge, u, name(mul(sigma2, a)))
                    acc[grafted] = acc.get(grafted, 0) + c
        elif t.left is EMPTY:
            acc = {DecoratedTree(t.label, s, name(a), t.right, t.right_edge): 1}
        else:
            tau1 = dimonoid.index_of(t.left_edge)
            for sub, sub_index, mul in (("p", tau1, left_mul), ("s", a, right_mul)):
                for u, c in graft(sub, s, t.left, sub_index).items():
                    grafted = DecoratedTree(t.label, u, name(mul(a, tau1)), t.right, t.right_edge)
                    acc[grafted] = acc.get(grafted, 0) + c
        memo[key] = acc
        return acc

    return graft


MULTIPLICITY_INDICES = {
    "zmod2": lambda: cyclic_monoid(2),
    "matching2": lambda: matching_dimonoid(2),
    "band": lambda: SemigroupTable(*LEFT_ZERO_BAND),
}


def check_every_small_product(carrier, reference):
    """Every pair of trees of 1-4 vertices, 5 at most together, every index
    element and both kinds: each basis product repeats no tree and equals
    the reference, and prec/succ on sums with distinct coefficients equal
    the sums of the basis products (over the band two pairs can share a
    tree, so the terms merge).  Each basis product takes its trees' ids
    afresh, as after each public prec/succ the tables may have emptied."""
    by_size = trees_by_size(carrier, 4)
    assert [len(trees) for trees in by_size] == [2, 16, 160, 1792]
    kinds = (("p", carrier._basis_prec, carrier.prec), ("s", carrier._basis_succ, carrier.succ))
    products, wrong = 0, []
    for i, left in enumerate(by_size, 1):
        for right in by_size[: 5 - i]:
            for a, (kind, basis, op) in product(range(2), kinds):
                expected = {}
                for (cs, s), (ct, t) in product(enumerate(left, 1), enumerate(right, 1)):
                    ids = basis(carrier._id(s), carrier._id(t), a)
                    trees = [carrier._tree(w) for w in ids]
                    repeats = len(set(ids)) != len(ids)
                    if repeats or dict.fromkeys(trees, 1) != reference(kind, s, t, a):
                        wrong.append((kind, tree_print(s), tree_print(t), a))
                    for w in trees:
                        expected[w] = expected.get(w, 0) + cs * ct
                    products += 1
                sums = (LinComb((u, c) for c, u in enumerate(trees, 1)) for trees in (left, right))
                if op(*sums, a) != LinComb(expected):
                    wrong.append((kind, f"all {i}-vertex trees", f"all {right[0].size}-vertex trees", a))
    assert wrong == [] and products == 53008


@pytest.mark.parametrize(
    "index, variant",
    # the argument holds for any edge labels and any budget, so one index
    # stands for the others in the two variants; at 64 entries the tables
    # empty at each prec/succ, and the products after it recompute from scratch
    [("zmod2", "default"), ("matching2", "default"), ("band", "default"), ("band", "budget64"), ("band", "swapped")],
)
def test_basis_products_are_multiplicity_free(index, variant, monkeypatch):
    if variant == "budget64":
        monkeypatch.setattr(freedend, "ENTRY_BUDGET", 64)
    if variant == "swapped":  # the index tables read at [j][i]
        monkeypatch.setattr(DimonoidTable, "left_mul", TransposedReads.left_mul)
        monkeypatch.setattr(DimonoidTable, "right_mul", TransposedReads.right_mul)
    carrier = FreeDendCarrier(["x", "y"], MULTIPLICITY_INDICES[index]())
    check_every_small_product(carrier, reference_grafting(carrier.dimonoid))


# -- the derived products: one graft sum each, equal to their constructions

CONSTRUCTIONS = {
    "mul": assoc_from_dend,
    "circ": prelie_from_dend,
    "bracket": lambda prec, succ: lie_from_prelie(prelie_from_dend(prec, succ)),
}


def _without_grafts(op):
    return PairIndexedOp(op.index, op.fn, op.den, op.reads)


def _sampled_sums(carrier, count, seed=0):
    trees = [t for by_size in trees_by_size(carrier, 4) for t in by_size]
    rng = Random(seed)
    return [
        LinComb((rng.choice(trees), rng.choice((-2, -1, 1, 3))) for _ in range(3))
        for _ in range(count)
    ]


@pytest.mark.parametrize("budget", [freedend.ENTRY_BUDGET, 64])
@pytest.mark.parametrize(
    "index, roles",
    [
        (lambda: cyclic_monoid(2), ("mul", "circ", "bracket")),
        (lambda: cyclic_monoid(3), ("mul", "circ", "bracket")),
        (lambda: SemigroupTable(*LEFT_ZERO_BAND), ("mul",)),
    ],
    ids=["zmod2", "zmod3", "band"],
)
def test_derived_graftings_equal_their_constructions(index, roles, budget, monkeypatch):
    monkeypatch.setattr(freedend, "ENTRY_BUDGET", budget)
    carrier = FreeDendCarrier(["x", "y"], index())
    sums = _sampled_sums(carrier, 5)
    # the constructions over prec/succ that state no graftings: sums of products
    prec, succ = map(_without_grafts, free_pair_ops(carrier))
    pairs = list(product(range(carrier.semigroup.size), repeat=2))

    def value(op, a, b, x, y):  # each product after a safe point, as trees
        carrier.settle()
        return carrier.to_trees(op(a, b, carrier.to_ids(x), carrier.to_ids(y)))

    for role in roles:
        derived, built = free_derived_op(carrier, role), CONSTRUCTIONS[role](prec, succ)
        wrong = [
            (a, b, x, y)
            for a, b in pairs
            for x, y in product(sums, repeat=2)
            if value(derived, a, b, x, y) != value(built, a, b, x, y)
        ]
        assert wrong == [], role
    assert (carrier.emptied > 0) == (budget == 64)
    for role in ("circ", "bracket"):
        if role not in roles:  # refused as its construction is
            with pytest.raises(ContractError, match="requires a commutative index semigroup"):
                free_derived_op(carrier, role)


# the signed graftings (k, kind, s, t, i) of each derived product, expanded
# by hand over the family lifting (prec reads b, succ reads a): s and t are
# positions in (x, y) and i a position in (a, b)
HAND_GRAFTINGS = {
    "mul": {(1, "succ", 0, 1, 0), (1, "prec", 0, 1, 1)},
    "circ": {(1, "succ", 0, 1, 0), (-1, "prec", 1, 0, 0)},
    "bracket": {
        (1, "succ", 0, 1, 0), (-1, "prec", 1, 0, 0), (-1, "succ", 1, 0, 1), (1, "prec", 0, 1, 1)
    },
}


def _stated_graftings(op):
    """The graftings ``op`` states, handed position markers: the index
    positions it reads, named a, b, then x, y; read back as positions."""
    _, terms = op.grafts
    markers = ["ab"[i] for i in op.reads] + ["x", "y"]
    return {(k, kind, "xy".index(s), "xy".index(t), "ab".index(i))
            for k, kind, s, t, i in terms(*markers)}


def test_the_graftings_read_off_each_construction_are_the_hand_written_ones():
    assert set(DERIVED_OPS) == set(HAND_GRAFTINGS)
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    for role in DERIVED_OPS:
        assert _stated_graftings(free_derived_op(carrier, role)) == HAND_GRAFTINGS[role]
    band = FreeDendCarrier(["x", "y"], SemigroupTable(*LEFT_ZERO_BAND))
    assert _stated_graftings(free_derived_op(band, "mul")) == HAND_GRAFTINGS["mul"]
    for role in ("circ", "bracket"):
        with pytest.raises(ContractError, match="requires a commutative index semigroup"):
            free_derived_op(band, role)


def test_a_derived_product_reads_the_index_positions_of_its_graftings():
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    reads = {role: free_derived_op(carrier, role).reads for role in DERIVED_OPS}
    assert reads == {"mul": (0, 1), "circ": (0,), "bracket": (0, 1)}


@pytest.mark.parametrize("role", ["mul", "circ", "bracket"])
def test_a_construction_compiled_over_graftings_states_them(role):
    # assoc-from-dend, prelie-from-dend and lie-from-prelie over it, on the
    # lifted prec/succ: the graft sum of the graftings each states is its
    # fn's value, which is that of the construction over prec/succ stating none
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    derived = CONSTRUCTIONS[role](*free_pair_ops(carrier))
    plain = CONSTRUCTIONS[role](*map(_without_grafts, free_pair_ops(carrier)))
    assert plain.grafts is None and plain.reads == derived.reads and plain.den == derived.den
    graft_sum, terms = derived.grafts
    pairs = list(product(range(carrier.semigroup.size), repeat=2))
    sums = map(carrier.to_ids, _sampled_sums(carrier, 4, seed=1))
    for (a, b), (x, y) in product(pairs, product(sums, repeat=2)):
        args = [(a, b)[i] for i in derived.reads] + [x, y]
        assert graft_sum(terms(*args)) == derived.fn(*args) == plain.fn(*args), (a, b)


def test_a_construction_states_no_graftings_unless_one_graft_sum_is_its_value():
    # a finite algebra's operations state none, so neither do their constructions
    alg = jsonio.load_algebra(jsonio.load_file(DATA / "zinbiel8.json"))
    assert [op.grafts for op in dend_from_zinbiel(pair_role(alg, "ast"))] == [None, None]
    # a sum with a term that is no grafting: its value is the sum's, but it states none
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    ops = dict(zip(("prec", "succ"), free_pair_ops(carrier)))
    x, y = _sampled_sums(carrier, 2, seed=2)
    P, S, Xv, Yv = axioms.P, axioms.S, axioms.X, axioms.Y
    for term, value in [
        (axioms.add(P(Xv, Yv), Xv), carrier.prec(x, y, 1) + x),
        (axioms.add(P(Xv, Yv), S(Xv, Yv), Xv), carrier.prec(x, y, 1) + carrier.succ(x, y, 0) + x),
    ]:
        graded = axioms.graded_form(axioms.Equation("r", axioms.app("r", (), Xv, Yv), term)).rhs
        op = _compiled(graded, ops, carrier.semigroup)
        assert op.grafts is None
        args = [(0, 1)[i] for i in op.reads] + [carrier.to_ids(x), carrier.to_ids(y)]
        assert carrier.to_trees(op.fn(*args)) == value


def _count_graft_sums(monkeypatch):
    calls, graft_sum = [], FreeDendCarrier.graft_sum

    def counted(self, terms):
        calls.append((self, terms))
        return graft_sum(self, terms)

    monkeypatch.setattr(FreeDendCarrier, "graft_sum", counted)
    return calls


@pytest.mark.parametrize(
    "suite, sums, graftings", [("RelAssoc", 84, 168), ("RelPreLie", 60, 168), ("RelLie", 96, 624)]
)
def test_a_derived_product_is_taken_once_per_change_of_what_it_reads(
    suite, sums, graftings, monkeypatch
):
    # circ reads its first index alone, so a circ is taken again only when
    # that index or an argument changes, not on every change of the innermost
    # index the sides read (b in RelPreLie, whose circs never read c, and c
    # in the others); mul and bracket read both indices.  A formal sum of products
    # that reads c is one graft sum (RelPreLie's two circ differences,
    # RelLie's three Jacobi brackets), and the graftings handed over in all
    # are those of one graft sum per product: no hoisted product is taken
    # more often than when each product was its own graft sum.  ``sums`` and
    # ``graftings`` are those of a check taking each of its 3 samples at
    # every index tuple read, on the carrier given.  Over the power of Z/2 it
    # takes the first sample so, and each product once per later sample, at
    # the columns' ids: RelAssoc's four muls, RelPreLie's four inner circs
    # and one graft sum per side of its two circ differences, RelLie's
    # antisymmetry and its Jacobi identity each one graft sum, with the
    # Jacobi identity's three inner brackets; all on the power's carrier
    calls = _count_graft_sums(monkeypatch)
    sums_later, graftings_later = {"RelAssoc": (4, 8), "RelPreLie": (6, 16), "RelLie": (5, 32)}[suite]
    for over_a_power in (True, False):
        if not over_a_power:
            _per_index_tuple(monkeypatch)
        calls.clear()
        carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
        assert free_check(carrier, suite, samples=3, max_vertices=6, seed=0).passed
        share, k = (3, 2) if over_a_power else (1, 0)  # k: the later samples at the columns
        assert len(calls) == sums // share + k * sums_later
        assert sum(len(terms) for _, terms in calls) == graftings // share + k * graftings_later
        assert {c is carrier for c, _ in calls} == {not over_a_power}


# suite -> the sha256 of its report at samples=3, max_vertices=6, seed=0, as
# when each product was its own graft sum, and the graftings handed to
# graft_sum, the first sample taken at every index tuple its sides read and
# the others once over a power of the index (168, 144, 144, 168, 168 and 624
# when each sample was taken at every index tuple its sides read; 150 and 192
# for RelDendriform and RelPreLie, and 78 and 96 over the power, while a side
# not reading the last index variable was hoisted whole)
FUSED_SUITE_REPORTS = {
    "DimonoidDendriform": ("65bcd1a78ae1f8e1acab612388464c13e886348af88a891454826bfe931c5202", 88),
    "FamDendriform": ("d61ac24ca61c53d762dda1cdb049b7686a152f66911763f9df3f8830daabaf2b", 76),
    "RelDendriform": ("463782b8948828b33547ad2031ed09075c016a16d14acf16e5614ecf8e1245d9", 76),
    "RelAssoc": ("ff20c188d784e55a351802b4a78288832c8a27e66e19fc74717fa8b4477f9769", 72),
    "RelPreLie": ("45fd0041f0e7302e61ee35093c59f38c9aa71d7412de1e708f5f0147d86e0362", 88),
    "RelLie": ("677a5ec784487cbb9424b208a5186e6f9b300b44ecadfcff9c5cee0e8688aad0", 272),
}


@pytest.mark.parametrize("budget", [None, 64])
def test_fused_sums_change_no_report_byte_and_no_grafting_work(budget, monkeypatch):
    # at 64 entries the power's carrier empties its tables inside a fused sum
    if budget is not None:
        monkeypatch.setattr(freedend, "ENTRY_BUDGET", budget)
    calls = _count_graft_sums(monkeypatch)
    assert set(FUSED_SUITE_REPORTS) == set(FREE_SUITES)
    for suite, (digest, graftings) in FUSED_SUITE_REPORTS.items():
        index = matching_dimonoid(2) if suite == "DimonoidDendriform" else cyclic_monoid(2)
        calls.clear()
        report = free_check(FreeDendCarrier(["x", "y"], index), suite, samples=3, max_vertices=6, seed=0)
        assert hashlib.sha256(to_json(report.to_payload()).encode()).hexdigest() == digest, suite
        assert sum(len(terms) for _, terms in calls) == graftings, suite


class OneEntryCache(dict):
    """A basis cache that keeps only the last product stored."""

    def __setitem__(self, key, value):
        self.clear()
        super().__setitem__(key, value)


def _carriers_made(monkeypatch, cache=None):
    """Every free carrier made from now on, a power's carrier among them,
    each with a basis cache made by ``cache`` if given."""
    made, init = [], FreeDendCarrier.__init__

    def recorded(self, *args):
        init(self, *args)
        if cache is not None:
            self._cache = cache()
        made.append(self)

    monkeypatch.setattr(FreeDendCarrier, "__init__", recorded)
    return made


def test_products_forced_onto_one_cache_key_change_no_report_byte(monkeypatch):
    # a cache of one entry on every carrier: each lookup finds the last
    # product stored, a hit only when it is the same product, so each product
    # is the reference recursion's, on the power's carrier, which holds every
    # sample; the carrier given stores none
    references, wrong = {}, []
    for name, kind in (("_basis_prec", "p"), ("_basis_succ", "s")):
        def checked(self, s, t, a, basis=getattr(FreeDendCarrier, name), kind=kind):
            products = basis(self, s, t, a)
            reference = references.setdefault(self, reference_grafting(self.dimonoid))
            trees = [self._tree(w) for w in products]
            repeats = len(set(products)) != len(products)
            if repeats or dict.fromkeys(trees, 1) != reference(kind, self._tree(s), self._tree(t), a):
                wrong.append((kind, s, t, a))
            return products

        monkeypatch.setattr(FreeDendCarrier, name, checked)
    made = _carriers_made(monkeypatch, OneEntryCache)
    for suite, (digest, _) in FUSED_SUITE_REPORTS.items():
        index = matching_dimonoid(2) if suite == "DimonoidDendriform" else cyclic_monoid(2)
        made.clear()
        carrier = FreeDendCarrier(["x", "y"], index)
        report = free_check(carrier, suite, samples=3, max_vertices=6, seed=0)
        assert hashlib.sha256(to_json(report.to_payload()).encode()).hexdigest() == digest, suite
        assert made[0] is carrier and [len(c._cache) for c in made] == [0, 1], suite
    # one power's carrier per suite, RelLie's two equations sharing it
    assert wrong == [] and len(references) == len(FUSED_SUITE_REPORTS)


def test_a_sum_is_one_graft_sum_only_over_graftings_on_one_carrier(monkeypatch):
    calls = _count_graft_sums(monkeypatch)
    first, second = (FreeDendCarrier(["x", "y"], cyclic_monoid(2)) for _ in range(2))
    trees = [LinComb.single(first.parse(text)) for text in ("x[]", "y[1: x[], ]")]
    # the same trees, interned in the same order, have the same ids on both carriers
    (x, y), (x2, y2) = ([carrier.to_ids(t) for t in trees] for carrier in (first, second))
    assert (x, y) == (x2, y2)
    index = first.semigroup
    prec, succ = first.family_ops()
    other_succ = second.family_ops()[1]
    term = {role: axioms.app(role, (axioms.A,), axioms.X, axioms.Y) for role in ("prec", "succ")}
    both = axioms.add(term["prec"], term["succ"])
    product = first.prec(*trees, "1")
    expected = product + first.succ(*trees, "1")

    def value(ops, expr):
        calls.clear()
        return axioms.eval_expr(expr, {"x": x, "y": y}, {"a": 1}, ops, index, None)

    # on one carrier: one graft sum of both graftings
    assert first.to_trees(value({"prec": prec, "succ": succ}, both)) == expected
    assert [(c, len(terms)) for c, terms in calls] == [(first, 2)]
    # on two carriers: each product its own graft sum over its own ids, then an add
    mixed = value({"prec": prec, "succ": other_succ}, both)
    assert [(c, len(terms)) for c, terms in calls] == [(first, 1), (second, 1)]
    assert mixed == prec(1, x, y) + other_succ(1, x, y)
    # one grafting and a variable: the product, then an add, as without graftings
    assert first.to_trees(value({"prec": prec}, axioms.add(term["prec"], axioms.X))) == product + trees[0]
    assert [(c, len(terms)) for c, terms in calls] == [(first, 1)]


@pytest.mark.parametrize(
    "suite, index, adds", [("RelLie", cyclic_monoid(2), 0), ("DimonoidDendriform", matching_dimonoid(2), 0)]
)
def test_a_free_check_adds_no_linear_combinations_a_graft_sum_could_merge(
    suite, index, adds, monkeypatch
):
    # the products, compiled over the lifted prec/succ, and the Jacobi and
    # dendriform sums of them are graft sums; building a product adds nothing
    counted = []
    for name in ("__add__", "__sub__"):
        method = getattr(LinComb, name)
        monkeypatch.setattr(LinComb, name, lambda u, v, method=method: counted.append(1) or method(u, v))
    carrier = FreeDendCarrier(["x", "y"], index)
    assert free_check(carrier, suite, samples=3, max_vertices=6, seed=0).passed
    assert len(counted) == adds


def test_family_ops_require_semigroup_form(free_matching2):
    with pytest.raises(ContractError):
        free_matching2.family_ops()


def test_matching_ops_require_matching_form(free_zmod2):
    with pytest.raises(ContractError):
        free_zmod2.matching_ops()
    prec, succ = free_zmod2.family_ops()
    assert prec.index.claims_commutative


def test_family_axioms_sampled(free_zmod2):
    report = free_check(free_zmod2, "FamDendriform", samples=40, max_vertices=5, seed=0)
    assert report.passed


def test_matching_ops_pass_dimonoid_axioms(free_matching2):
    prec, succ = free_matching2.matching_ops()
    carrier = OpCarrier(free_matching2.dimonoid, {"prec": prec, "succ": succ})
    domain = SampledTreeDomain(free_matching2, 30, 5, 0)
    assert check_axioms(carrier, "DimonoidDendriform", domain).passed


def test_derived_chain_sampled(free_zmod2):
    for suite in ("RelDendriform", "RelAssoc", "RelPreLie", "RelLie"):
        report = free_check(free_zmod2, suite, samples=25, max_vertices=5, seed=0)
        assert report.passed, suite


def test_free_check_unsupported_suite(free_zmod2, free_matching2):
    # the name is refused before any operation is built, so a dimonoid that
    # has no family operations is not blamed for it
    for carrier in (free_zmod2, free_matching2):
        with pytest.raises(ContractError, match="'RelPoisson' is not available on free carriers"):
            free_suite_carrier(carrier, "RelPoisson")


def test_derived_chain_needs_commutative_index(free_matching2):
    with pytest.raises(ContractError):
        free_check(free_matching2, "RelPreLie", samples=5)


def test_sampled_domain_is_replayable(free_zmod2):
    domain = SampledTreeDomain(free_zmod2, samples=7, max_vertices=4, seed=5)
    first = [tuple(vec.items() for vec in row) for row in domain.elements(3)]
    second = [tuple(vec.items() for vec in row) for row in domain.elements(3)]
    assert first == second and len(first) == 7


def _count_draws(monkeypatch):
    draws, random_tree = [], FreeDendCarrier.random_tree

    def counted(self, *args):
        draws.append(args)
        return random_tree(self, *args)

    monkeypatch.setattr(FreeDendCarrier, "random_tree", counted)
    return draws


def test_a_check_draws_each_arity_once(monkeypatch):
    # DimonoidDendriform's three equations are all of arity 3: one draw of
    # 4 samples x 3 trees serves all three, and the report is the bytes of a
    # check that drew the tuples again for every equation (36 draws)
    draws = _count_draws(monkeypatch)
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    report = free_check(carrier, "DimonoidDendriform", samples=4, max_vertices=6, seed=0)
    assert len(draws) == 12
    assert hashlib.sha256(to_json(report.to_payload()).encode()).hexdigest() == (
        "8c62923adabd36be35846f52cc99ae9dd82ed3841a621e759b45db17ba22c10b"
    )
    # RelLie's antisymmetry is of arity 2 and its Jacobi identity of arity 3
    draws.clear()
    assert free_check(carrier, "RelLie", samples=4, max_vertices=6, seed=0).passed
    assert len(draws) == 4 * 2 + 4 * 3


def test_a_check_builds_the_trees_and_products_it_always_built(monkeypatch):
    # the grafting recursion's work, counted: ids allocated (one per tree
    # structure, the samples' subtrees included) and basis products cached by
    # one RelDendriform check over Z/2, all on the carrier of its power of Z/2,
    # of 16 elements: the first sample is taken at 4 index tuples, and the two
    # others once, at the columns' ids.  Taken at 4 index tuples per sample,
    # the check allocated 1,571 ids and cached 573 products; with the first
    # sample on the carrier given and the others on a power's carrier of 8
    # elements per check, 975 ids (the samples' subtrees twice) and 348
    made = _carriers_made(monkeypatch)
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    assert free_check(carrier, "RelDendriform", samples=3, max_vertices=6, seed=0).passed
    assert [c.dimonoid.size for c in made] == [2, 16]
    assert [(len(c._nodes), len(c._ids), len(c._cache)) for c in made] == [(0, 0, 0), (927, 927, 341)]


def _comprehensions(module, names):
    """Each of ``names`` (a function, or a class and its method) in
    ``module``'s source, mapped to the comprehensions and generator
    expressions in it, nested functions included."""
    scopes = {}
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            scopes[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    scopes[f"{node.name}.{method.name}"] = method
    scoped = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return {name: [ast.unparse(n) for n in ast.walk(scopes[name]) if isinstance(n, scoped)]
            for name in names}


def test_the_grafting_hot_path_has_no_comprehension():
    # on CPython 3.11 and earlier a comprehension or generator expression is
    # a function call with its own frame, paid once per product step here, and
    # once per node where a tree crosses into or out of a carrier; the
    # benchmark's reference machine runs 3.11.7 (PEP 709 inlines list
    # comprehensions from 3.12 on, and never generator expressions)
    names = ["FreeDendCarrier." + name for name in
             ("_basis_prec", "_basis_succ", "graft_sum", "_node", "_id", "_tree", "to_trees")]
    assert _comprehensions(freedend, names) == dict.fromkeys(names, [])


def test_the_equation_compiler_has_no_comprehension():
    # the compiler runs once per equation and carrier, a free command compiles
    # several hundred equations, and a fused sum's graftings run once per
    # evaluation: each builds its lists in plain loops
    names = ["_Compiler.expr", "_Compiler.handed", "_Compiler.subterms", "_narrow", "_union",
             "_common_scale", "_compile_lin", "_sides"]
    assert _comprehensions(axioms, names) == dict.fromkeys(names, [])


@pytest.mark.parametrize("counts", [{"samples": 0}, {"samples": -3}, {"max_vertices": 0}])
def test_an_empty_tree_sample_is_refused_not_passed(free_zmod2, counts):
    # no sample (or no vertex to build one from) has no instance to verify: a
    # PASS of 0 instances would be vacuous, and randrange's ValueError a crash
    with pytest.raises(ContractError, match="samples >= 1 and max_vertices >= 1"):
        free_check(free_zmod2, "RelAssoc", **counts)


def test_zero_input_bilinearity(free_zmod2):
    assert free_zmod2.prec(LinComb(), Y, "0").is_zero()
    assert free_zmod2.succ(X, LinComb(), "0").is_zero()
    two = X.scale(2)
    assert free_zmod2.prec(two, Y, "1") == free_zmod2.prec(X, Y, "1").scale(2)
    # linear in each argument on two-term combinations
    half = Fraction(-1, 2)
    pair = X + Y.scale(half)
    t = single(free_zmod2.parse("y[1: x[], 0: x[]]"))
    for op in (free_zmod2.prec, free_zmod2.succ):
        for a in ("0", "1"):
            assert op(pair, t, a) == op(X, t, a) + op(Y, t, a).scale(half)
            assert op(t, pair, a) == op(t, X, a) + op(t, Y, a).scale(half)


def test_tree_lincomb_serialization_roundtrip(free_zmod2):
    out = free_zmod2.prec(
        free_zmod2.prec(X, Y, "0"), single(free_zmod2.parse("y[1: x[], ]")), "1"
    )
    pairs = out.to_pairs(tree_print)
    back = LinComb((tree_parse(b), parse_scalar(c)) for c, b in pairs)
    assert back == out and not out.is_zero()


def test_a_dimonoid_made_from_a_semigroup_keeps_its_claims():
    # the table is commutative with unit 0, but the semigroup does not claim
    # commutativity: neither carrier may run a suite that needs the claim
    s = SemigroupTable(["0", "1"], [[0, 1], [1, 0]], unit=0, commutative=False)
    dimonoid = dimonoid_from_semigroup(s)
    assert semigroup_from_dimonoid(dimonoid) is s
    for index in (s, dimonoid):
        with pytest.raises(ContractError, match="commutative"):
            free_check(FreeDendCarrier(["x", "y"], index), "RelLie", samples=2)
    # a semigroup-form dimonoid read from a file still has its claims worked out
    plain = semigroup_from_dimonoid(DimonoidTable(s.elements, s.product, s.product))
    assert plain.unit == 0 and plain.claims_commutative


def test_entry_budget_bounds_a_long_session_without_changing_its_reports(monkeypatch):
    # one carrier across 30 checks, each of which runs on its power's
    # carrier, dropped when the check ends.  Each carrier settles before
    # each sample tuple
    chain_seeds = Random(0).sample(range(10**6), 10)
    made = _carriers_made(monkeypatch)

    def session(check):
        carrier = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
        reports = []
        for seed in chain_seeds:
            for suite in ("RelAssoc", "RelPreLie", "RelLie"):
                made.clear()
                report = free_check(carrier, suite, samples=4, max_vertices=6, seed=seed)
                reports.append(to_json(report.to_payload()))
                assert len(made) > 0
                for each in (carrier, *made):
                    check(each)
        return reports

    unbounded = session(lambda carrier: None)
    settle, settled = FreeDendCarrier.settle, []

    def recorded(carrier):  # the entries left at each safe point
        settle(carrier)
        settled.append(len(carrier._cache) + len(carrier._ids))

    monkeypatch.setattr(FreeDendCarrier, "settle", recorded)
    # at 64 entries the tables are emptied before nearly every element tuple
    for budget in (1000, 64):
        monkeypatch.setattr(freedend, "ENTRY_BUDGET", budget)
        settled.clear()
        emptied = []

        def tables(carrier):
            emptied.append(carrier.emptied)
            # the two tables agree, and a node's children are ids given out
            # since the last emptying, before its own
            ids, nodes, base = carrier._ids, carrier._nodes, carrier._base
            assert len(ids) == len(nodes)
            assert all(
                ids[node] == base + k and all(c == 0 or base <= c < base + k for c in (node[1], node[3]))
                for k, node in enumerate(nodes)
            )

        assert session(tables) == unbounded
        assert max(settled) < budget and max(emptied) > 0


def test_no_id_survives_an_emptying(monkeypatch):
    # every sample vector the domain hands out holds only ids given out since
    # the last emptying, arities taken in turn included, and the derived
    # products of those vectors, read back as trees, are the unbounded carrier's
    def products():
        carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
        domain = SampledTreeDomain(carrier, samples=10, max_vertices=6, seed=3)
        ops = [free_derived_op(carrier, role) for role in DERIVED_OPS]
        out = []
        for k in (2, 3, 2):
            for vectors in domain.elements(k):
                assert all(i >= carrier._base for v in vectors for i, _ in v)
                x, y = vectors[:2]
                out.append([carrier.to_trees(op(a, b, x, y))
                            for op in ops for a, b in product(range(2), repeat=2)])
        return carrier.emptied, out

    unbounded = products()
    monkeypatch.setattr(freedend, "ENTRY_BUDGET", 64)
    emptied, bounded = products()
    assert unbounded[0] == 0 and emptied > 0 and bounded == unbounded[1]


def test_a_free_carrier_is_freed_by_reference_counting_alone(monkeypatch, capsys):
    # with the cyclic collector off, nothing a check or a command leaves
    # behind (a sampled tree's builder among them) may keep the carrier alive
    refs = []

    def tracked(*args):
        carrier = FreeDendCarrier(*args)
        refs.append(weakref.ref(carrier))
        return carrier

    monkeypatch.setattr(cli, "FreeDendCarrier", tracked)
    zmod2 = str(DATA / "zmod2.json")
    commands = [
        ["free-check", "--suite", "RelLie", "--samples", "3", "--semigroup", zmod2],
        ["free-eval", "--expr", "succ(0, x[], y[])", "--semigroup", zmod2],
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for suite in FREE_SUITES:
            carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
            assert free_check(carrier, suite, samples=3, max_vertices=6, seed=0).passed
            ref = weakref.ref(carrier)
            del carrier
            assert ref() is None, suite
        for argv in commands:
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


# -- a sampled check takes each sample tuple once, over a power of the index


def _per_index_tuple(monkeypatch):
    """Every sampled check scans each equation per index tuple, as with no power."""
    monkeypatch.setattr(freedend, "POWER_BOUND", 0)


def _count_power_scans(monkeypatch):
    """The domain and the columns of each scan handed the columns of a power."""
    scans, full_scan = [], axioms._full_scan

    def counted(lhs, rhs, domain, n_elem, taken, tuples, columns=None):
        if columns is not None:
            scans.append((domain, columns))
        return full_scan(lhs, rhs, domain, n_elem, taken, tuples, columns)

    monkeypatch.setattr(axioms, "_full_scan", counted)
    return scans


# index -> the suites of FREE_SUITES it admits; the band is not commutative,
# and matching2 is not of semigroup form
ADMITTED = {
    "Z/2": (lambda: cyclic_monoid(2), FREE_SUITES),
    "Z/3": (lambda: cyclic_monoid(3), FREE_SUITES),
    "matching2": (lambda: matching_dimonoid(2), ("DimonoidDendriform",)),
    "band": (lambda: SemigroupTable(*LEFT_ZERO_BAND), [suite for suite, _ in NON_COMMUTATIVE_SUITES]),
}


def _payloads(samples=6, max_vertices=6):
    return {
        (name, suite, seed): to_json(
            free_check(FreeDendCarrier(["x", "y"], index()), suite, samples, max_vertices, seed).to_payload()
        )
        for name, (index, suites) in ADMITTED.items()
        for suite in suites
        for seed in range(3)
    }


def test_a_sample_taken_over_a_power_reports_the_bytes_of_the_scan_per_index_tuple(monkeypatch):
    # every admitted suite over each index, at seeds 0-2: past the bound
    # raised to 81, Z/3's suites take their samples over its powers of 27
    # and 81 elements
    monkeypatch.setattr(freedend, "POWER_BOUND", 81)
    scans = _count_power_scans(monkeypatch)
    over_powers = _payloads()
    assert len(over_powers) == 3 * (6 + 6 + 1 + 4) and len(scans) > 0
    scans.clear()
    _per_index_tuple(monkeypatch)
    assert _payloads() == over_powers and scans == []


def _swap_the_products_of_basis_succ(monkeypatch):
    """A planted defect: ``_basis_succ``'s recursive branch takes its two
    edges with the dimonoid's left and right products swapped."""
    source = textwrap.dedent(inspect.getsource(FreeDendCarrier._basis_succ))
    swapped = source.replace("left_mul", "LEFT").replace("right_mul", "left_mul").replace("LEFT", "right_mul")
    assert swapped.count("left_mul") == swapped.count("right_mul") == 1
    namespace = dict(vars(freedend))
    exec(swapped, namespace)
    monkeypatch.setattr(FreeDendCarrier, "_basis_succ", namespace["_basis_succ"])


def test_planted_defects_fail_over_a_power_with_the_bytes_of_the_scan_per_index_tuple(monkeypatch):
    # products read in the wrong order, which only the band tells apart, and
    # the succ recursion's products swapped, which matching2 tells apart: a
    # sample whose sides differ over the power is taken again at each index
    # tuple, and the counterexample is the scan's
    elements, table = LEFT_ZERO_BAND

    def failures():
        reports = [free_check(FreeDendCarrier(["x", "y"], TransposedReads(elements, table, table)),
                              suite, samples=200, max_vertices=6, seed=0)
                   for suite, _ in NON_COMMUTATIVE_SUITES]
        with monkeypatch.context() as patched:
            _swap_the_products_of_basis_succ(patched)
            reports += [free_check(FreeDendCarrier(["x", "y"], matching_dimonoid(2)), "DimonoidDendriform",
                                   samples=200, max_vertices=6, seed=seed) for seed in range(3)]
        assert not any(report.passed for report in reports)
        return [to_json(report.to_payload()) for report in reports]

    scans = _count_power_scans(monkeypatch)
    over_powers = failures()
    assert len(scans) == 4 + 3
    _per_index_tuple(monkeypatch)
    assert failures() == over_powers


def test_past_the_power_bound_an_equation_is_scanned_per_index_tuple(monkeypatch):
    # over Z/2 the power of a suite of three index variables has 16 elements,
    # and RelLie's antisymmetry and Jacobi identity share its one carrier: at
    # a bound of 15 both suites fall back to the scan per index tuple, and
    # every report byte is the same
    def reports():
        scans.clear()
        return [to_json(free_check(FreeDendCarrier(["x", "y"], cyclic_monoid(2)), suite,
                                   samples=6, max_vertices=6, seed=1).to_payload())
                for suite in ("RelAssoc", "RelLie")]

    scans = _count_power_scans(monkeypatch)
    over_powers = reports()
    assert [domain.carrier.dimonoid.size for domain, _ in scans] == [16, 16, 16]
    assert scans[1][0].carrier is scans[2][0].carrier and scans[1][1] == scans[2][1][:2]
    monkeypatch.setattr(freedend, "POWER_BOUND", 15)
    assert reports() == over_powers and scans == []


@pytest.mark.parametrize("name, sizes", [
    ("Z/2", {"DimonoidDendriform": 8, "FamDendriform": 8, "RelDendriform": 16, "RelAssoc": 16,
             "RelPreLie": 16, "RelLie": 16}),
    ("Z/3", dict.fromkeys(FREE_SUITES)),  # 27 and 81 elements, past the bound
    ("matching2", {"DimonoidDendriform": 4}),
    ("band", {"DimonoidDendriform": 4, "FamDendriform": 4, "RelDendriform": 5, "RelAssoc": 5}),
])
def test_a_sampled_check_runs_on_one_carrier_over_one_power(name, sizes, monkeypatch):
    # a check of more than one sample makes one carrier, over the power its
    # index tuples generate, shared by all its equations, and the carrier
    # given holds no tree when it ends; past the bound it makes none, and
    # runs on the carrier given
    index, suites = ADMITTED[name]
    made = _carriers_made(monkeypatch)
    for suite in suites:
        carrier = FreeDendCarrier(["x", "y"], index())
        made.clear()
        assert free_check(carrier, suite, samples=3, max_vertices=6, seed=0).passed
        assert [c.dimonoid.size for c in made] == ([sizes[suite]] if sizes[suite] else []), suite
        assert (carrier._nodes == []) == bool(made), suite


@pytest.mark.parametrize("index", [
    cyclic_monoid(2),  # a unit and commutative
    SemigroupTable(["p", "q"], [[0, 0], [1, 1]]),  # left zero: neither
    matching_dimonoid(2),  # not of semigroup form
    SemigroupTable(["0", "1"], [[0, 1], [1, 0]], unit=0),  # Z/2, commutativity not claimed
])
def test_a_power_holds_the_semigroup_read_off_it_once(index):
    # a power of semigroup form carries one semigroup, its table the power's
    # and its claims the index's own: the unit's diagonal and the
    # commutativity claim, never claims detected on the power's table, so a
    # suite is admitted over the power exactly when over the index; every
    # carrier over the power shares that semigroup
    carrier = FreeDendCarrier(["x", "y"], index)
    table, _ = power(carrier.dimonoid, 2, 16)
    if carrier.semigroup is None:
        assert table.semigroup is None and not table.is_semigroup_form()
        return
    own = carrier.semigroup
    detected = semigroup_from_dimonoid(DimonoidTable(table.elements, table.left, table.right))
    assert table.semigroup.product == table.left
    assert (table.semigroup.unit, table.semigroup.claims_commutative) == (own.unit, own.claims_commutative)
    assert FreeDendCarrier(["x"], table).semigroup is table.semigroup
    if not own.claims_commutative and detected.claims_commutative:  # the table is commutative
        with pytest.raises(ContractError, match=r"^this construction requires a commutative index semigroup$"):
            free_check(carrier, "RelLie", samples=2)


def test_a_carrier_refuses_an_id_outside_its_current_tables(monkeypatch):
    # an id of the power's carrier, which the carrier given never gave out,
    # or one held across an emptying, is refused, not read as some other tree
    made = _carriers_made(monkeypatch)
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    assert free_check(carrier, "RelAssoc", samples=6, max_vertices=6, seed=0).passed
    power = made[1]
    assert carrier._nodes == [] and len(power._nodes) > 0
    with pytest.raises(ContractError, match="not in this carrier's current tables"):
        carrier.to_trees(LinComb.single(power._base + len(power._nodes) - 1))
    x = carrier.to_ids(single(carrier.parse("x[0: y[], ]")))
    assert carrier.to_trees(x) == single(carrier.parse("x[0: y[], ]"))
    monkeypatch.setattr(freedend, "ENTRY_BUDGET", 1)
    carrier.settle()
    assert carrier.emptied == 1
    with pytest.raises(ContractError, match=r"tree id \d+ is not in this carrier's current tables"):
        carrier.to_trees(x)


def _components(power, dimonoid, vectors, idxs):
    """Each element of ``power`` as the tuple of ``dimonoid`` elements it is,
    read off its tables from the diagonals and ``vectors``, ids ``idxs``; a
    product whose components are not the products of its factors' fails."""
    k = len(vectors[0])
    components = {d: (d,) * k for d in range(dimonoid.size)} | dict(zip(idxs, vectors))
    for _ in range(power.size):  # until a round, over every product, finds nothing new
        known = len(components)
        for (p, u), (q, v) in product(list(components.items()), repeat=2):
            for ours, theirs in ((power.left, dimonoid.left), (power.right, dimonoid.right)):
                w = tuple(theirs[a][b] for a, b in zip(u, v))
                assert components.setdefault(ours[p][q], w) == w
        if len(components) == known:
            break
    assert sorted(components) == list(range(power.size))
    return components


def _projected(value, names):
    """A vector of trees over a power, each edge label renamed by ``names``."""
    def tree(t):
        if t is EMPTY:
            return t
        edges = [None if e is None else names[e] for e in (t.left_edge, t.right_edge)]
        return DecoratedTree(t.label, tree(t.left), edges[0], tree(t.right), edges[1])

    return sum((LinComb.single(tree(t)).scale(c) for t, c in value), LinComb())


@pytest.mark.parametrize("name", ADMITTED)
def test_each_component_of_a_side_over_a_power_is_the_side_at_its_index_tuple(name, monkeypatch):
    # the premise of the power: at every sample tuple, each side's value at
    # the columns' ids, its edge labels projected onto component j, is that
    # side's value at the j-th index tuple, whose ids over the power are the
    # index's own
    full_scan, compared = axioms._full_scan, [0]

    def projecting(lhs, rhs, domain, n_elem, taken, tuples, columns=None):
        over, every = domain.carrier, list(product(range(dimonoid.size), repeat=len(domain.columns)))
        components = _components(over.dimonoid, dimonoid, tuple(zip(*every)), domain.columns)
        names = [{over.dimonoid.name(e): dimonoid.name(c[j]) for e, c in components.items()}
                 for j in range(len(every))]
        for vectors in domain.elements(n_elem) if columns is not None else ():
            for side in (lhs, rhs):
                value = over.to_trees(side(columns + vectors))
                for j, idxs in enumerate(every):  # the equation reads the first len(columns)
                    here = over.to_trees(side(idxs[: len(columns)] + vectors))
                    assert _projected(value, names[j]) == here
                    compared[0] += 1
        return full_scan(lhs, rhs, domain, n_elem, taken, tuples, columns)

    monkeypatch.setattr(axioms, "_full_scan", projecting)
    monkeypatch.setattr(freedend, "POWER_BOUND", 81)
    index, suites = ADMITTED[name]
    for suite in suites:
        carrier = FreeDendCarrier(["x", "y"], index())
        dimonoid = carrier.dimonoid
        compared[0] = 0
        assert free_check(carrier, suite, samples=2, max_vertices=5, seed=4).passed
        assert compared[0] > 0 and carrier._nodes == [], suite
