from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    SUITES,
    Cocycle,
    FamilyIndexedOp,
    FiniteRelativeAlgebra,
    LinComb,
    OpCarrier,
    PairIndexedOp,
    RotaBaxterFamily,
    assoc_from_dend,
    check_axioms,
    check_pair_symmetric,
    check_family_symmetric,
    cocycle_twist,
    collapse,
    comm_from_zinbiel,
    cyclic_monoid,
    dend_from_rb,
    dend_from_zinbiel,
    family_to_pair,
    finite_domain,
    lie_from_prelie,
    matching_dimonoid,
    poisson_from_prepoisson,
    positive_integers_additive,
    prelie_from_dend,
    trivial_monoid,
    window_domain,
    zinbiel_from_symmetric_dend,
)
from relalg import SemigroupTable
from relalg.axioms import FiniteDomain, eval_expr, lifted_position
from relalg.errors import ConstructionRefused, ContractError
from relalg.freecheck import free_pair_ops
from relalg.freedend import SampledTreeDomain
from relalg.ops import materialize_pair_op
from relalg.samples import reciprocal_rota_baxter, truncated_integration_zinbiel
from tests.conftest import one_dim_base, sign_cocycle

DEGREE = 8


# -- the truncated-integration zinbiel, against a symbolic-integration oracle


def poly_integrate(p):
    return {k + 1: c / (k + 1) for k, c in p.items()}


def poly_mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return {k: c for k, c in out.items() if c}


def zinbiel_oracle(m, n, degree):
    """a * b = (integral of a) b on monomials, truncated past the degree."""
    out = poly_mul(poly_integrate({m: Fraction(1)}), {n: Fraction(1)})
    return {k: c for k, c in out.items() if k <= degree}


@pytest.fixture(scope="module")
def zalg():
    return truncated_integration_zinbiel(DEGREE)


def in_range_domain(zalg):
    # keep only tuples whose untruncated results stay within the top degree:
    # combining k monomials applies k-1 products, each raising degree by one
    return FiniteDomain(
        zalg.basis,
        range(zalg.index.size),
        basis_filter=lambda combo: sum(combo) + len(combo) - 1 <= DEGREE,
    )


def test_constants_match_integration_oracle(zalg):
    for m, n in product(range(DEGREE + 1), repeat=2):
        got = zalg.apply("ast", (0, 0), LinComb.single(m), LinComb.single(n))
        assert dict(got.items()) == zinbiel_oracle(m, n, DEGREE)


def test_zinbiel_passes_on_restricted_domain(zalg):
    report = check_axioms(zalg.as_carrier(), "RelZinbiel", in_range_domain(zalg))
    assert report.passed


def test_zinbiel_family_axioms_with_swap(zalg):
    # over the trivial monoid the pair table doubles as a family table
    fam = FamilyIndexedOp(zalg.index, lambda a, x, y: zalg.apply("ast", (a, a), x, y))
    carrier = OpCarrier(zalg.index, {"ast": fam})
    report = check_axioms(carrier, "FamZinbiel", in_range_domain(zalg))
    assert report.passed


def test_truncation_is_a_quotient(zalg):
    # truncation kills a graded ideal, so the axioms hold on all triples,
    # not only in-range ones
    assert check_axioms(zalg.as_carrier(), "RelZinbiel", finite_domain(zalg)).passed


def test_dend_from_zinbiel_chain(zalg):
    ast = zalg.op("ast")
    prec, succ = dend_from_zinbiel(ast)
    carrier = OpCarrier(zalg.index, {"prec": prec, "succ": succ})
    assert check_axioms(carrier, "RelDendriform", in_range_domain(zalg)).passed
    assert check_pair_symmetric(prec, succ, in_range_domain(zalg)).passed


def test_zinbiel_roundtrip(zalg):
    ast = zalg.op("ast")
    prec, succ = dend_from_zinbiel(ast)
    back = zinbiel_from_symmetric_dend(prec, succ, in_range_domain(zalg))
    for m, n in product(range(DEGREE + 1), repeat=2):
        x, y = LinComb.single(m), LinComb.single(n)
        assert back(0, 0, x, y) == ast(0, 0, x, y)


def test_comm_from_zinbiel(zalg):
    mul = comm_from_zinbiel(zalg.op("ast"))
    carrier = OpCarrier(zalg.index, {"mul": mul})
    assert check_axioms(carrier, "RelComm", in_range_domain(zalg)).passed
    # recomputed product constant: t^m . t^n = (1/(m+1) + 1/(n+1)) t^(m+n+1)
    for m, n in ((0, 0), (2, 3), (1, 4)):
        expect = LinComb.single(m + n + 1, Fraction(1, m + 1) + Fraction(1, n + 1))
        assert mul(0, 0, LinComb.single(m), LinComb.single(n)) == expect
    assert mul(0, 0, LinComb.single(2), LinComb.single(3)) == LinComb.single(6, Fraction(7, 12))


def test_zero_zinbiel_degenerates():
    zero = PairIndexedOp(trivial_monoid(), lambda a, b, x, y: LinComb())
    prec, succ = dend_from_zinbiel(zero)
    one = LinComb.single(0)
    assert prec(0, 0, one, one).is_zero() and succ(0, 0, one, one).is_zero()
    assert comm_from_zinbiel(zero)(0, 0, one, one).is_zero()


# -- the symmetric-dendriform hypothesis


def test_asymmetric_dendriform_refused(zalg, free_zmod2):
    prec, succ = free_pair_ops(free_zmod2)
    domain = SampledTreeDomain(free_zmod2, samples=5, max_vertices=2, seed=0)
    with pytest.raises(ConstructionRefused) as err:
        zinbiel_from_symmetric_dend(prec, succ, domain)
    assert err.value.report.counterexample is not None


def test_family_symmetric_named_check(zalg):
    # prec = succ pointwise passes the family clause but a swapped pair fails it
    idx = trivial_monoid()
    op = PairIndexedOp(idx, lambda a, b, x, y: zalg.apply("ast", (0, 0), x, y))
    dom = in_range_domain(zalg)
    fam = FamilyIndexedOp(idx, lambda a, x, y: zalg.apply("ast", (0, 0), x, y))
    assert check_family_symmetric(fam, fam, dom).passed
    prec, succ = dend_from_zinbiel(op)
    fam_prec = FamilyIndexedOp(idx, lambda a, x, y: prec(a, a, x, y))
    fam_succ = FamilyIndexedOp(idx, lambda a, x, y: succ(a, a, x, y))
    assert not check_family_symmetric(fam_prec, fam_succ, dom).passed


# -- pre-Lie / Lie chain on a genuinely index-dependent example


@pytest.fixture(scope="module")
def reciprocal_zinbiel():
    """ast_n(x, y) = xy/n over the positive integers under addition."""
    index = positive_integers_additive()
    return FamilyIndexedOp(
        index, lambda n, x, y: LinComb.single(0, x.coeff(0) * y.coeff(0) * Fraction(1, n))
    )


def test_reciprocal_family_zinbiel(reciprocal_zinbiel):
    # oracle, by hand: x*_a (y*_b z) = xyz/(ab); the right side of the family
    # axiom is (xy/a + xy/b) z / (a+b) = xyz (a+b)/(ab(a+b)) = xyz/(ab)
    carrier = OpCarrier(reciprocal_zinbiel.index, {"ast": reciprocal_zinbiel})
    report = check_axioms(carrier, "FamZinbiel", window_domain(("1",), range(1, 13)))
    assert report.passed


def test_lifted_zinbiel_convention_is_forced(reciprocal_zinbiel):
    # with real index dependence, only the index-swapped lifting of the
    # dendriform pair passes; the unswapped variant has a counterexample
    index = reciprocal_zinbiel.index
    pair_ast = family_to_pair("ast", reciprocal_zinbiel)
    dom = window_domain(("1",), range(1, 13))
    assert check_axioms(OpCarrier(index, {"ast": pair_ast}), "RelZinbiel", dom).passed
    prec, succ = dend_from_zinbiel(pair_ast)
    assert check_axioms(OpCarrier(index, {"prec": prec, "succ": succ}), "RelDendriform", dom).passed
    unswapped = PairIndexedOp(index, lambda a, b, x, y: pair_ast(a, b, y, x))
    report = check_axioms(
        OpCarrier(index, {"prec": unswapped, "succ": succ}), "RelDendriform", dom
    )
    assert not report.passed


# -- a family algebra is a relative algebra read through the lifting


FAMILY_ROLES = {
    "Dendriform": ("prec", "succ"),
    "PreLie": ("circ",),
    "PrePoisson": ("ast", "circ"),
    "Zinbiel": ("ast",),
}


def random_family_algebra(rng, roles):
    """Over Z/1..Z/3 at dim 1..2; each block has at most two entries +-1, so
    both outcomes of every suite occur."""
    n, dim = rng.randint(1, 3), rng.randint(1, 2)
    cells = list(product(range(dim), repeat=3))

    def block():
        entries = {t: rng.choice((1, -1)) for t in rng.sample(cells, rng.randint(0, min(2, dim**3)))}
        return tuple(
            tuple(tuple(Fraction(entries.get((i, j, k), 0)) for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )

    ops = {role: {(a,): block() for a in range(n)} for role in roles}
    return FiniteRelativeAlgebra([f"e{i}" for i in range(dim)], cyclic_monoid(n), ops)


@pytest.mark.parametrize("structure", sorted(FAMILY_ROLES))
def test_family_passes_iff_pair_lifting_passes(structure):
    # FamX holds iff the family_to_pair lifting satisfies RelX, and a failure
    # is found in the same equation on both sides
    roles = FAMILY_ROLES[structure]
    rng = Random(0)
    outcomes = set()
    for _ in range(300):
        alg = random_family_algebra(rng, roles)
        domain = finite_domain(alg)
        fam = check_axioms(alg.as_carrier(), f"Fam{structure}", domain)
        lifted = OpCarrier(alg.index, {r: family_to_pair(r, alg.op(r)) for r in roles})
        rel = check_axioms(lifted, f"Rel{structure}", domain)
        assert fam.passed == rel.passed
        if not fam.passed:
            assert fam.counterexample.equation == rel.counterexample.equation
        outcomes.add(fam.passed)
    assert outcomes == {False, True}


# -- cocycle twist


def test_cocycle_twist_constants(zmod2, cocycle_algebra):
    for (a, b), block in cocycle_algebra.ops["mul"].items():
        assert block[0][0][0] == (-1) ** (a * b)
    assert check_axioms(
        cocycle_algebra.as_carrier(), "RelAssoc", finite_domain(cocycle_algebra)
    ).passed


def test_constant_cocycle_twist_is_base(zmod2):
    base = one_dim_base()
    c = Cocycle(zmod2, [[1, 1], [1, 1]])
    twisted = cocycle_twist(base, c)
    for block in twisted.ops["mul"].values():
        assert block == base.ops["mul"][(0, 0)]


def test_twist_keeps_the_unit_only_under_a_normalised_cocycle(zmod2):
    base = one_dim_base()
    assert cocycle_twist(base, Cocycle(zmod2, [[1, 1], [1, 1]])).unit_vector == base.unit_vector
    # the constant 2 is a cocycle, but c(0, 0) = 2 at the unit 0
    assert cocycle_twist(base, Cocycle(zmod2, [[2, 2], [2, 2]])).unit_vector is None
    no_unit = FiniteRelativeAlgebra(["u"], trivial_monoid(), base.ops)
    assert cocycle_twist(no_unit, Cocycle(zmod2, [[1, 1], [1, 1]])).unit_vector is None


def test_non_cocycle_refused(zmod2):
    bad = Cocycle(zmod2, [[1, 2], [1, 1]])
    with pytest.raises(ConstructionRefused):
        cocycle_twist(one_dim_base(), bad)


def test_twist_needs_index_independent_mul(cocycle_algebra):
    # its mul blocks differ between index pairs
    with pytest.raises(ContractError, match="^cocycle twist needs an index-independent product$"):
        cocycle_twist(cocycle_algebra, sign_cocycle())


def test_twist_needs_pair_indexed_mul():
    single_index = FiniteRelativeAlgebra(["u"], trivial_monoid(), {"mul": {(0,): [[[1]]]}})
    with pytest.raises(ContractError, match="^cocycle twist needs a pair-indexed 'mul'$"):
        cocycle_twist(single_index, sign_cocycle())


# -- Rota-Baxter derived dendriform


def test_dend_from_rb_reciprocal():
    rb = reciprocal_rota_baxter()
    prec, succ = dend_from_rb(rb, window=range(1, 21))
    one = LinComb.single(0)
    # frozen hand values: x prec_(m,n) y = xy/n, x succ_(m,n) y = xy/m
    assert prec(3, 4, one, one) == LinComb.single(0, Fraction(1, 4))
    assert succ(3, 4, one, one) == LinComb.single(0, Fraction(1, 3))
    # with an index-independent product, prec ignores its first index and
    # succ its second: the derived pair is really a one-index family
    for m in range(1, 6):
        assert prec(m, 4, one, one) == LinComb.single(0, Fraction(1, 4))
        assert succ(3, m, one, one) == LinComb.single(0, Fraction(1, 3))
    carrier = OpCarrier(prec.index, {"prec": prec, "succ": succ})
    assert check_axioms(carrier, "RelDendriform", window_domain(("1",), range(1, 11))).passed
    # derived associative product is xy (1/m + 1/n)
    mul = assoc_from_dend(prec, succ)
    assert mul(2, 5, one, one) == LinComb.single(0, Fraction(1, 2) + Fraction(1, 5))


def test_zero_rb_gives_zero_dendriform():
    base = one_dim_base()
    rb = RotaBaxterFamily(base, lambda a, x: LinComb())
    prec, succ = dend_from_rb(rb)
    one = LinComb.single(0)
    assert prec(0, 0, one, one).is_zero() and succ(0, 0, one, one).is_zero()


def test_failing_rb_refused():
    rb = RotaBaxterFamily(one_dim_base(), lambda a, x: x)
    with pytest.raises(ConstructionRefused):
        dend_from_rb(rb)


def test_rb_and_zinbiel_routes_agree(reciprocal_zinbiel):
    rb_prec, rb_succ = dend_from_rb(reciprocal_rota_baxter(), window=range(1, 21))
    z_prec, z_succ = dend_from_zinbiel(family_to_pair("ast", reciprocal_zinbiel))
    one = LinComb.single(0)
    for m, n in product(range(1, 9), repeat=2):
        assert rb_prec(m, n, one, one) == z_prec(m, n, one, one)
        assert rb_succ(m, n, one, one) == z_succ(m, n, one, one)


# -- pre-Poisson


def test_poisson_from_zero_prelie(zalg):
    index = zalg.index
    zero = PairIndexedOp(index, lambda a, b, x, y: LinComb())
    mul, bracket = poisson_from_prepoisson(zero, zalg.op("ast"), in_range_domain(zalg))
    carrier = OpCarrier(index, {"mul": mul, "bracket": bracket})
    assert check_axioms(carrier, "RelPoisson", in_range_domain(zalg)).passed
    one = LinComb.single(0)
    assert bracket(0, 0, one, one).is_zero()


def test_poisson_from_zero_zinbiel(free_zmod2):
    # dual degenerate case: zero product, pre-Lie bracket from free trees
    prec, succ = free_pair_ops(free_zmod2)
    index = prec.index
    circ = prelie_from_dend(prec, succ)
    zero = PairIndexedOp(index, lambda a, b, x, y: LinComb())
    domain = SampledTreeDomain(free_zmod2, samples=10, max_vertices=3, seed=1)
    mul, bracket = poisson_from_prepoisson(circ, zero, domain)
    carrier = OpCarrier(index, {"mul": mul, "bracket": bracket})
    assert check_axioms(carrier, "RelPoisson", domain).passed


def test_prepoisson_violation_refused(zalg):
    index = zalg.index
    ast = zalg.op("ast")
    with pytest.raises(ConstructionRefused):
        # circ = ast is not compatible with itself here
        poisson_from_prepoisson(ast, ast, in_range_domain(zalg))


def test_lie_skew_identically(zalg):
    ast = zalg.op("ast")
    bracket = lie_from_prelie(ast)  # any pair op will do for the identity
    x = LinComb.single(2)
    assert bracket(0, 0, x, x).is_zero()


def test_commutative_index_gates():
    # associative but non-commutative index: left-zero semigroup
    left_zero = SemigroupTable(["0", "1"], [[0, 0], [1, 1]])
    left_zero_like = PairIndexedOp(left_zero, lambda a, b, x, y: LinComb())
    for build in (prelie_from_dend, dend_from_zinbiel, comm_from_zinbiel, lie_from_prelie):
        with pytest.raises(ContractError):
            if build is prelie_from_dend:
                build(left_zero_like, left_zero_like)
            else:
                build(left_zero_like)


def test_over_a_band_exactly_the_constructions_reading_y_before_x_are_refused():
    # the left-zero band ab = a is associative, not commutative: a definition
    # with a monomial reading y before x has degree ba where ab is meant
    band = SemigroupTable(["0", "1"], [[0, 0], [1, 1]])
    zero = PairIndexedOp(band, lambda a, b, x, y: LinComb())
    alg = FiniteRelativeAlgebra(["u"], band, {"mul": {(a, b): [[[0]]] for a in range(2) for b in range(2)}})
    domain = finite_domain(alg)
    builds = {
        "assoc-from-dend": lambda: assoc_from_dend(zero, zero),
        "prelie-from-dend": lambda: prelie_from_dend(zero, zero),
        "zinbiel-from-symmetric-dend": lambda: zinbiel_from_symmetric_dend(zero, zero, domain),
        "dend-from-zinbiel": lambda: dend_from_zinbiel(zero),
        "comm-from-zinbiel": lambda: comm_from_zinbiel(zero),
        "lie-from-prelie": lambda: lie_from_prelie(zero),
        "poisson-from-prepoisson": lambda: poisson_from_prepoisson(zero, zero, domain),
        "dend-from-rb": lambda: dend_from_rb(RotaBaxterFamily(alg, lambda a, x: LinComb())),
    }
    refused, built = {}, {}
    for name, build in builds.items():
        try:
            built[name] = build()
        except ContractError as exc:
            refused[name] = str(exc)
    gated = ("prelie-from-dend", "dend-from-zinbiel", "comm-from-zinbiel", "lie-from-prelie",
             "poisson-from-prepoisson")
    assert refused == {
        **dict.fromkeys(gated, "this construction requires a commutative index semigroup"),
        # the symmetry clause reads y before x: its own suite refuses the band
        "zinbiel-from-symmetric-dend": "suite PairSymmetric requires a commutative index semigroup",
    }
    assert sorted(built) == ["assoc-from-dend", "dend-from-rb"]
    u = LinComb.single(0)
    prec, succ = built["dend-from-rb"]
    for a, b in product(range(2), repeat=2):
        assert built["assoc-from-dend"](a, b, u, u).is_zero()
        assert prec(a, b, u, u).is_zero() and succ(a, b, u, u).is_zero()


def test_a_dimonoid_index_is_refused_as_not_commutative():
    # a dimonoid claims no commutativity: lifting a family over one and
    # deriving circ is refused as the construction's contract, not an
    # attribute it lacks
    fam = FamilyIndexedOp(matching_dimonoid(2), lambda a, x, y: x)
    prec, succ = family_to_pair("prec", fam), family_to_pair("succ", fam)
    message = "^this construction requires a commutative index semigroup$"
    with pytest.raises(ContractError, match=message):
        prelie_from_dend(prec, succ)


# -- collapse


def test_collapse_of_cocycle_algebra(cocycle_algebra):
    flat = collapse(cocycle_algebra)
    assert flat.dim == 2
    assert flat.basis == ("u@0", "u@1")
    # (u@a)(u@b) = (-1)^(ab) u@(a+b): the group algebra of Z/2 twisted by c
    block = flat.ops["mul"][(0, 0)]
    for a, b in product(range(2), repeat=2):
        row = block[a][b]
        expect = [Fraction(0), Fraction(0)]
        expect[(a + b) % 2] = Fraction((-1) ** (a * b))
        assert list(row) == expect
    report = check_axioms(flat.as_carrier(), "RelAssoc", finite_domain(flat))
    assert report.passed
    assert report.instances == 8
    # the collapsed unit is u@0
    assert check_axioms(flat.as_carrier(), "RelUnital", finite_domain(flat)).passed


def test_collapse_trivial_monoid_is_identity(zalg):
    flat = collapse(zalg)
    assert flat.dim == zalg.dim
    assert flat.ops["ast"][(0, 0)] == zalg.ops["ast"][(0, 0)]


def test_collapse_commutes_with_assoc_from_dend(zmod2):
    # formula-level functoriality: collapsing prec/succ and then summing
    # equals summing and then collapsing, for arbitrary structure constants
    rng = Random(3)

    def random_table():
        return {
            (a, b): tuple(
                tuple(
                    tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(2))
                    for _ in range(2)
                )
                for _ in range(2)
            )
            for a, b in product(range(2), repeat=2)
        }

    alg = FiniteRelativeAlgebra(
        ["e0", "e1"], zmod2, {"prec": random_table(), "succ": random_table()}
    )
    flat = collapse(alg)
    route1 = collapse(
        alg.with_ops(
            {"mul": materialize_pair_op(assoc_from_dend(alg.op("prec"), alg.op("succ")), alg.dim)}
        )
    ).ops["mul"][(0, 0)]
    route2 = materialize_pair_op(
        assoc_from_dend(flat.op("prec"), flat.op("succ")), flat.dim
    )[(0, 0)]
    assert route1 == route2


def test_collapse_of_a_family_indexed_role(zmod2):
    # prec over Z/2 with u u = v at index 0 only; prec at (a, b) reads index b
    zero = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    nilpotent = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    alg = FiniteRelativeAlgebra(["u", "v"], zmod2, {"prec": {(0,): nilpotent, (1,): zero}})
    flat = collapse(alg)
    assert flat.basis == ("u@0", "u@1", "v@0", "v@1")
    block = flat.ops["prec"][(0, 0)]
    for a in range(2):
        # u@a prec u@0 = v@a, and u@a prec u@1 = 0
        assert block[a][0] == tuple(int(k == 2 + a) for k in range(4))
        assert block[a][1] == (0, 0, 0, 0)


def test_collapse_rejects_non_finite():
    with pytest.raises(ContractError):
        collapse(reciprocal_rota_baxter().carrier)


# -- the collapse oracle: A satisfies RelP over S exactly when collapse(A)
# satisfies P over the trivial monoid, since every term of a graded equation
# has the same degree; the collapsed check reads no index tuple


# 2-dim bases on e0, e1 (block[i][j][k]: the coefficient of e_k in e_i e_j):
# k[t]/(t^2), the nilpotent e0 e0 = e1, the Lie algebra [e0, e1] = e1, zero
ORACLE_BASES = {
    "dual": (((1, 0), (0, 1)), ((0, 1), (0, 0))),
    "nilpotent": (((0, 1), (0, 0)), ((0, 0), (0, 0))),
    "lie": (((0, 0), (0, 1)), ((0, -1), (0, 0))),
    "zero": (((0, 0), (0, 0)), ((0, 0), (0, 0))),
}
ORACLE_INDICES = {
    "band": lambda: SemigroupTable(["a", "b"], [[0, 0], [1, 1]]),  # xy = x
    "Z/2": lambda: cyclic_monoid(2),
    "Z/3": lambda: cyclic_monoid(3),
}
ORACLE_SCALARS = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_a_rel_verdict_is_the_plain_verdict_on_the_collapse(data):
    index = ORACLE_INDICES[data.draw(st.sampled_from(sorted(ORACLE_INDICES)))]()
    admitted = [
        name for name, suite in sorted(SUITES.items())
        if name.startswith("Rel")
        and (index.claims_commutative or not suite.requires_commutative)
        and (index.unit is not None or not suite.requires_unit)
    ]
    suite = SUITES[data.draw(st.sampled_from(admitted))]
    pairs = list(product(range(index.size), repeat=2))
    if data.draw(st.booleans()):  # a coboundary f(a) f(b) / f(ab): A is a graded base
        f = data.draw(st.lists(st.sampled_from(ORACLE_SCALARS), min_size=index.size, max_size=index.size))
        scale = {(a, b): f[a] * f[b] / f[index.mul(a, b)] for a, b in pairs}
    else:
        scale = {pair: data.draw(st.sampled_from([0, *ORACLE_SCALARS])) for pair in pairs}
    ops = {}
    for role in suite.roles:
        base = ORACLE_BASES[data.draw(st.sampled_from(sorted(ORACLE_BASES)))]
        ops[role] = {
            pair: tuple(tuple(tuple(scale[pair] * c for c in row) for row in plane) for plane in base)
            for pair in pairs
        }
    alg = FiniteRelativeAlgebra(["u", "t"], index, ops, unit_vector=[1, 0])
    flat = collapse(alg)
    graded = check_axioms(alg.as_carrier(), suite, finite_domain(alg))
    plain = check_axioms(flat.as_carrier(), suite, finite_domain(flat))
    assert graded.passed == plain.passed
    if plain.passed:
        return
    # the collapsed counterexample u@a, v@b, ... decodes to u, v, ... at
    # indices a, b, ..., which fails the same equation in A
    ce = plain.counterexample
    (equation,) = [e for e in suite.equations if e.eqid == ce.equation]
    decoded = [name.split("@") for name in ce.elements]
    elem_env = {var: LinComb.single(alg.basis.index(u)) for var, (u, _) in zip("xyz", decoded)}
    idx_env = {var: index.index_of(a) for var, (_, a) in zip("abc", decoded)}
    carrier_ops = {role: alg.op(role) for role in suite.roles}
    lhs, rhs = (
        eval_expr(side, elem_env, idx_env, carrier_ops, index, alg.unit_vector)
        for side in (equation.lhs, equation.rhs)
    )
    assert lhs != rhs


# -- family_to_pair


def test_family_to_pair_trivial_monoid(zalg):
    fam = FamilyIndexedOp(zalg.index, lambda a, x, y: zalg.apply("ast", (0, 0), x, y))
    for role in ("prec", "succ", "ast", "circ"):
        pair = family_to_pair(role, fam)
        x, y = LinComb.single(1), LinComb.single(2)
        assert pair(0, 0, x, y) == fam(0, x, y)
    with pytest.raises(ContractError):
        family_to_pair("bracket", fam)


@pytest.mark.parametrize("role", ["prec", "succ", "ast", "circ"])
def test_a_lift_is_the_family_fn_handed_the_index_its_role_reads(role):
    blocks = {(0,): [[[Fraction(1, 2)]]], (1,): [[[Fraction(1, 3)]]]}
    fam = FiniteRelativeAlgebra(["u"], cyclic_monoid(2), {role: blocks}).op(role)
    pair = family_to_pair(role, fam)
    assert pair.fn is fam.fn and pair.den == fam.den == 6
    assert pair.reads == (lifted_position(role),)
    x, y = LinComb.single(0, 2), LinComb.single(0, 3)
    for a, b in product(range(2), repeat=2):
        assert pair(a, b, x, y) == fam((a, b)[lifted_position(role)], x, y)


def test_lifted_family_dendriform_passes_pair_suite(free_zmod2):
    prec, succ = free_pair_ops(free_zmod2)
    domain = SampledTreeDomain(free_zmod2, samples=30, max_vertices=5, seed=2)
    carrier = OpCarrier(prec.index, {"prec": prec, "succ": succ})
    assert check_axioms(carrier, "RelDendriform", domain).passed


def test_family_assoc_formula(reciprocal_zinbiel):
    # the pair product built from a lifted family pair obeys the displayed
    # one-index formula: mul(a,b)(x,y) = succ_a(x,y) + prec_b(x,y)
    index = reciprocal_zinbiel.index
    pair_ast = family_to_pair("ast", reciprocal_zinbiel)
    prec, succ = dend_from_zinbiel(pair_ast)
    mul = assoc_from_dend(prec, succ)
    one = LinComb.single(0)
    for a, b in product(range(1, 7), repeat=2):
        direct = reciprocal_zinbiel(a, one, one) + reciprocal_zinbiel(b, one, one)
        assert mul(a, b, one, one) == direct


def test_comm_from_zinbiel_family_formula(reciprocal_zinbiel):
    # symmetrized product in family form: mul(a,b)(x,y) = x *_a y + y *_b x
    mul = comm_from_zinbiel(family_to_pair("ast", reciprocal_zinbiel))
    one = LinComb.single(0)
    for a, b in product(range(1, 7), repeat=2):
        expect = reciprocal_zinbiel(a, one, one) + reciprocal_zinbiel(b, one, one)
        assert mul(a, b, one, one) == expect
