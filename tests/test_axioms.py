import gc
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    SUITES,
    FiniteRelativeAlgebra,
    LinComb,
    MorphismFamily,
    OpCarrier,
    FamilyIndexedOp,
    PairIndexedOp,
    RotaBaxterFamily,
    SemigroupTable,
    check_axioms,
    check_morphism,
    check_rota_baxter,
    check_semigroup,
    cyclic_monoid,
    dimonoid_from_semigroup,
    finite_domain,
    matching_dimonoid,
    positive_integers_additive,
    trivial_monoid,
)
from relalg.axioms import (
    OMEGA,
    ROTA_BAXTER_EQUATION,
    UNIT,
    A,
    B,
    C,
    App,
    Equation,
    FiniteDomain,
    IxUnit,
    IxVar,
    Lin,
    Suite,
    UnitElem,
    Var,
    X,
    Y,
    Z,
    ZERO_EXPR,
    add,
    app,
    dleft,
    eval_expr,
    eval_index,
    graded_form,
    mul,
    sub,
    window_domain,
)
from relalg import FreeDendCarrier, axioms, free_check, jsonio
from relalg.constructions import (
    FAMILY_SYMMETRIC,
    PAIR_SYMMETRIC,
    dend_from_zinbiel,
    family_to_pair,
    zinbiel_from_symmetric_dend,
)
from relalg.errors import ContractError
from relalg.freecheck import free_suite_carrier
from relalg.freedend import SampledTreeDomain
from relalg.reports import CheckReport, Counterexample, scan, to_json
from relalg.semigroups import power
from relalg.samples import (
    rational_line_carrier,
    reciprocal_rota_baxter,
    truncated_integration_zinbiel,
)
from tests.conftest import one_dim_base

DATA = Path(__file__).resolve().parent.parent / "data"


def zero_block(dim):
    return tuple(tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)) for _ in range(dim))


def zero_algebra(index, roles, dim=2, arity=2):
    keys = list(product(range(index.size), repeat=arity))
    ops = {role: {tuple(k): zero_block(dim) for k in keys} for role in roles}
    return FiniteRelativeAlgebra([f"e{i}" for i in range(dim)], index, ops)


PAIR_SUITES = [s for s in sorted(SUITES) if SUITES[s].op_arity == 2 and s != "RelUnital"]
FAMILY_SUITES = [
    s for s in sorted(SUITES) if SUITES[s].op_arity == 1 and SUITES[s].index_kind == "semigroup"
]


@pytest.mark.parametrize("suite", PAIR_SUITES)
def test_zero_algebra_passes_pair_suites(suite, zmod2):
    alg = zero_algebra(zmod2, SUITES[suite].roles)
    assert check_axioms(alg.as_carrier(), suite, finite_domain(alg)).passed


@pytest.mark.parametrize("suite", FAMILY_SUITES)
def test_zero_algebra_passes_family_suites(suite, zmod2):
    alg = zero_algebra(zmod2, SUITES[suite].roles, arity=1)
    assert check_axioms(alg.as_carrier(), suite, finite_domain(alg)).passed


def test_zero_ops_pass_dimonoid_suite(zmod2):
    dim = dimonoid_from_semigroup(zmod2)
    zero = FamilyIndexedOp(dim, lambda a, x, y: LinComb())
    carrier = OpCarrier(dim, {"prec": zero, "succ": zero})
    domain = finite_domain(zero_algebra(zmod2, ()))
    assert check_axioms(carrier, "DimonoidDendriform", domain).passed


def test_zero_algebra_unital_requires_unit(zmod2):
    alg = zero_algebra(zmod2, ("mul",))
    with pytest.raises(ContractError):
        check_axioms(alg.as_carrier(), "RelUnital", finite_domain(alg))


def test_cocycle_algebra_assoc_instances(cocycle_algebra):
    report = check_axioms(cocycle_algebra.as_carrier(), "RelAssoc", finite_domain(cocycle_algebra))
    assert report.passed
    assert report.instances == 8  # |S|^3 * dim^3


def test_cocycle_algebra_is_unital(cocycle_algebra):
    # the twist is normalized along the unit (c(a,0) = c(0,a) = 1) so the
    # base unit survives
    report = check_axioms(cocycle_algebra.as_carrier(), "RelUnital", finite_domain(cocycle_algebra))
    assert report.passed
    assert report.instances == 4


def test_mutated_cocycle_algebra_fails(cocycle_algebra):
    mutated = dict(cocycle_algebra.ops["mul"])
    mutated[(0, 1)] = (((Fraction(-1),),),)
    alg = cocycle_algebra.with_ops({"mul": mutated})
    report = check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))
    assert not report.passed
    ce = report.counterexample
    assert ce.equation == "assoc"
    assert ce.indices == ("0", "0", "1")
    assert ce.lhs == [["-1/1", "u"]]
    assert ce.rhs == [["1/1", "u"]]
    # determinism: a re-run reports the identical counterexample
    assert check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg)) == report


def test_pass_bit_invariant_under_basis_permutation(zmod2):
    # a 2-dim commutative example with a nontrivial table, plus its image
    # under swapping the basis elements
    rng = Random(5)

    def random_sym_block():
        block = [[[Fraction(rng.randrange(-2, 3)) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        for i, j in product(range(2), repeat=2):
            block[j][i] = block[i][j]
        return block

    base = {
        (a, b): tuple(tuple(tuple(r) for r in plane) for plane in random_sym_block())
        for a, b in product(range(2), repeat=2)
    }

    def permuted(table):
        out = {}
        for key, block in table.items():
            out[key] = tuple(
                tuple(
                    tuple(block[1 - i][1 - j][1 - k] for k in range(2)) for j in range(2)
                )
                for i in range(2)
            )
        return out

    for table in (base, permuted(base)):
        alg = FiniteRelativeAlgebra(["e0", "e1"], zmod2, {"mul": table})
        report = check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))
        base_passed = check_axioms(
            FiniteRelativeAlgebra(["e0", "e1"], zmod2, {"mul": base}).as_carrier(),
            "RelAssoc",
            finite_domain(alg),
        ).passed
        assert report.passed == base_passed


def test_pair_op_bilinearity_spot_check(cocycle_algebra):
    rng = Random(11)
    op = cocycle_algebra.op("mul")
    for _ in range(25):
        a, b = rng.randrange(2), rng.randrange(2)
        x1 = LinComb.single(0, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        x2 = LinComb.single(0, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        y = LinComb.single(0, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        assert op(a, b, x1 + x2, y) == op(a, b, x1, y) + op(a, b, x2, y)
        assert op(a, b, y, x1 + x2) == op(a, b, y, x1) + op(a, b, y, x2)
        k = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        assert op(a, b, x1.scale(k), y) == op(a, b, x1, y).scale(k)


def test_missing_role_rejected(cocycle_algebra):
    with pytest.raises(ContractError):
        check_axioms(cocycle_algebra.as_carrier(), "RelDendriform", finite_domain(cocycle_algebra))


def test_commutative_gate():
    left_zero = SemigroupTable(["0", "1"], [[0, 0], [1, 1]])  # associative, not commutative
    alg = zero_algebra(left_zero, ("bracket",))
    with pytest.raises(ContractError):
        check_axioms(alg.as_carrier(), "RelLie", finite_domain(alg))


def test_arity_mismatch_rejected(zmod2):
    alg = zero_algebra(zmod2, ("mul",), arity=1)
    with pytest.raises(ContractError):
        check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))


def test_unknown_suite_rejected(cocycle_algebra):
    with pytest.raises(ContractError):
        check_axioms(cocycle_algebra.as_carrier(), "NoSuchSuite", finite_domain(cocycle_algebra))


# -- Rota-Baxter


def test_zero_rb_passes(cocycle_algebra):
    rb = RotaBaxterFamily(cocycle_algebra, lambda a, x: LinComb())
    assert check_rota_baxter(rb).passed


def test_reciprocal_rb_window_20():
    # oracle: R_m(x) R_n(y) = xy/(mn) and R_{m+n}(xy/m + xy/n) =
    # (xy (m+n)/(mn)) / (m+n) = xy/(mn), so the identity holds exactly
    report = check_rota_baxter(reciprocal_rota_baxter(), window=range(1, 21))
    assert report.passed
    assert report.instances == 400


def test_identity_rb_fails():
    base = one_dim_base()
    rb = RotaBaxterFamily(base, lambda a, x: x)
    report = check_rota_baxter(rb)
    assert not report.passed
    ce = report.counterexample
    assert ce.lhs == [["1/1", "u"]]  # x.y
    assert ce.rhs == [["2/1", "u"]]  # 2 x.y


def test_rb_window_closure_error():
    # dict maps over a virtual index are a window: a product index outside it
    # is refused, not read as zero
    rb = RotaBaxterFamily(rational_line_carrier(), {1: [[1]]})
    with pytest.raises(ContractError, match="^window closure: no operator defined for index 2$"):
        check_rota_baxter(rb, window=range(1, 3))


def test_rb_requires_window_when_virtual():
    with pytest.raises(ContractError):
        check_rota_baxter(reciprocal_rota_baxter())


def test_a_scan_with_no_instance_of_an_equation_is_refused_not_passed():
    # a PASS would claim an equation that no instance verified
    one = FiniteRelativeAlgebra(["u"], trivial_monoid(), {"mul": {(0, 0): [[[1]]]}})
    for suite, domain in (
        ("RelComm", finite_domain(one, basis_filter=lambda combo: len(combo) != 3)),
        ("RelAssoc", finite_domain(one, basis_filter=lambda combo: False)),
        ("RelAssoc", FiniteDomain(["u"], [])),
        ("RelAssoc", FiniteDomain([], range(1))),
    ):
        with pytest.raises(ContractError) as info:
            check_axioms(one, suite, domain)
        assert str(info.value) == f"suite {suite}: the domain has no instance of assoc"


def test_an_empty_window_is_refused_not_passed():
    # a window with no index element has no instance to verify: a PASS of
    # 0 instances would be vacuous
    for check in (
        lambda: check_rota_baxter(reciprocal_rota_baxter(), window=[]),
        lambda: check_semigroup(positive_integers_additive(), window=[]),
        lambda: check_axioms(
            rational_line_carrier(), "RelAssoc", window_domain(("1",), [])
        ),
    ):
        with pytest.raises(ContractError, match="at least one index element"):
            check()


@pytest.mark.parametrize(
    "check, repeated",
    [
        (lambda: check_rota_baxter(reciprocal_rota_baxter(), window=[1, 1]), 1),
        (lambda: check_semigroup(positive_integers_additive(), window=[1, 2, 1]), 1),
        (lambda: window_domain(("1",), [3, 3, 3]), 3),
    ],
    ids=["check_rota_baxter", "check_semigroup", "window_domain"],
)
def test_a_window_naming_an_element_twice_is_refused(check, repeated):
    # a repeated element multiplies the instance count with nothing new
    # verified: [1, 1] would pass 4 Rota-Baxter instances over one index pair
    message = f"^a window must name each index element once, got {repeated} twice$"
    with pytest.raises(ContractError, match=message):
        check()


def test_a_window_names_index_elements_as_the_carriers_index_does():
    # a counterexample's index elements are named by the carrier's index,
    # over a window as over the whole index: (p, q) are never ("0", "1")
    index = SemigroupTable(["p", "q"], [[0, 1], [1, 0]], unit=0, commutative=True)
    blocks = {key: [[[-1 if key == (0, 1) else 1]]] for key in product(range(2), repeat=2)}
    alg = FiniteRelativeAlgebra(["u"], index, {"mul": blocks})
    for domain in (finite_domain(alg), window_domain(alg.basis, range(2))):
        report = check_axioms(alg.as_carrier(), "RelAssoc", domain)
        assert not report.passed
        assert report.counterexample.indices == ("p", "p", "q")


def test_rb_precondition_reported():
    # e0.e0 = e1, e1.e1 = e0, everything else 0: not associative
    ops = {
        (0, 0): (
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        )
    }
    alg = FiniteRelativeAlgebra(["e0", "e1"], trivial_monoid(), {"mul": ops})
    read = []
    rb = RotaBaxterFamily(alg, lambda a, x: read.append(a) or LinComb())
    report = check_rota_baxter(rb)
    assert not report.passed
    assert report.check == "rota-baxter:precondition:RelAssoc"
    assert read == []  # a failed precondition returns before the family is read


def test_a_callable_family_is_read_once_per_reached_index_and_basis_vector():
    # over the window 1..20 of (Z>0, +) the scan reaches the indices 1..40,
    # each read on the line's one basis vector; the 1,200 applications the
    # scan makes read those values, held as integers over one denominator
    read = []

    def reciprocal(n, x):
        read.append(n)
        return x.scale(Fraction(1, n))

    rb = RotaBaxterFamily(rational_line_carrier(), reciprocal)
    report = check_rota_baxter(rb, window=range(1, 21))
    assert read == list(range(1, 41))
    assert report.passed and report.instances == 400
    same_report(report, ref_check_rota_baxter(rb, window_domain(("1",), range(1, 21)), LINE_OPS))


@pytest.mark.parametrize("missing, wrong", [(6, 5), (5, 6)])
def test_a_window_family_missing_an_operator_fails_or_refuses_where_the_scan_reads_it(
    missing, wrong
):
    # R_n(x) = x/n keyed by n over the window 1, 2, 3, with one product index
    # missing and another wrong: whichever the scan reaches first decides,
    # R_5 at (2, 3) before R_6 at (3, 3)
    maps = {n: [[Fraction(1, n)]] for n in range(1, 7) if n != missing}
    maps[wrong] = [[Fraction(7, 2)]]
    rb = RotaBaxterFamily(rational_line_carrier(), maps)
    domain = window_domain(("1",), range(1, 4))
    if missing > wrong:
        report = check_rota_baxter(rb, window=range(1, 4))
        assert not report.passed and report.instances == 6
        assert report.counterexample.indices == ("2", "3")
        same_report(report, ref_check_rota_baxter(rb, domain, LINE_OPS))
    else:
        closure = f"^window closure: no operator defined for index {missing}$"
        for check in (
            lambda: check_rota_baxter(rb, window=range(1, 4)),
            lambda: ref_check_rota_baxter(rb, domain, LINE_OPS),
        ):
            with pytest.raises(ContractError, match=closure):
                check()


# -- morphisms


def character_morphism(alg, scale_one):
    maps = {0: ((Fraction(1),),), 1: ((Fraction(scale_one),),)}
    return MorphismFamily(alg, alg, maps)


def test_identity_morphism_passes(cocycle_algebra):
    assert check_morphism(character_morphism(cocycle_algebra, 1), "RelAssoc").passed


def test_sign_character_passes(cocycle_algebra):
    # f_a = (-1)^a id is multiplicative across the index sum
    report = check_morphism(character_morphism(cocycle_algebra, -1), "RelAssoc")
    assert report.passed
    assert report.instances == 4


def test_doubling_character_fails_at_11(cocycle_algebra):
    report = check_morphism(character_morphism(cocycle_algebra, 2), "RelAssoc")
    assert not report.passed
    ce = report.counterexample
    assert ce.indices == ("1", "1")
    assert ce.lhs == [["-1/1", "u"]]
    assert ce.rhs == [["-4/1", "u"]]


def test_morphism_precondition_reported(zmod2):
    ops = {
        (a, b): (
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        )
        for a, b in product(range(2), repeat=2)
    }
    alg = FiniteRelativeAlgebra(["e0", "e1"], zmod2, {"mul": ops})
    ident = {a: ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) for a in range(2)}
    report = check_morphism(MorphismFamily(alg, alg, ident), "RelAssoc")
    assert not report.passed
    assert report.check.startswith("morphism:precondition:source")


# -- the compiled equations against a reference walk of the term trees


def ref_index(ix, env, index):
    """The term-tree walk the engine compiled away, kept as the reference."""
    if isinstance(ix, IxVar):
        return env[ix.name]
    if isinstance(ix, IxUnit):
        if index.unit is None:
            raise ContractError("suite requires a unit element in the index structure")
        return index.unit
    return index.prod(ix.kind, ref_index(ix.a, env, index), ref_index(ix.b, env, index))


def ref_expr(expr, elem_env, idx_env, ops, index, unit_vector):
    if isinstance(expr, Var):
        return elem_env[expr.name]
    if isinstance(expr, UnitElem):
        if unit_vector is None:
            raise ContractError("suite requires a declared unit vector")
        return unit_vector
    if isinstance(expr, App):
        idx = tuple(ref_index(i, idx_env, index) for i in expr.idx)
        args = tuple(ref_expr(e, elem_env, idx_env, ops, index, unit_vector) for e in expr.args)
        return ops[expr.role](*idx, *args)
    if isinstance(expr, Lin):
        out = LinComb()
        for coeff, sub_expr in expr.terms:
            out = out + ref_expr(sub_expr, elem_env, idx_env, ops, index, unit_vector).scale(coeff)
        return out
    raise TypeError(f"unknown expression node {expr!r}")


def ref_scan(check, equations, domain, ops, index, unit_vector):
    per_equation = {}

    def instances():
        for equation in equations:
            count = per_equation[equation.eqid] = 0
            for vectors in domain.elements(equation.n_elem):
                elem_env = dict(zip("xyz", vectors))
                for idxs in domain.indices(equation.n_idx):
                    idx_env = dict(zip("abc", idxs))
                    count += 1
                    per_equation[equation.eqid] = count
                    yield (
                        equation.eqid,
                        tuple(domain.render_basis(b) for vec in vectors for b, _ in vec),
                        map(index.name, idxs),
                        ref_expr(equation.lhs, elem_env, idx_env, ops, index, unit_vector),
                        ref_expr(equation.rhs, elem_env, idx_env, ops, index, unit_vector),
                    )

    report = scan(check, instances(), domain.show)
    return report, per_equation


def dense_op(alg, role):
    """A role of a finite algebra as the dense triple sum over its blocks in
    ``alg.ops``, so the reference walk shares no code with the kernels."""
    blocks, dim = alg.ops[role], alg.dim

    def apply(*args):
        *idx, x, y = args
        block = blocks[tuple(idx)]
        return LinComb(
            (k, x.coeff(i) * y.coeff(j) * block[i][j][k])
            for i, j, k in product(range(dim), repeat=3)
        )

    return apply


def line_mul(a, b, x, y):
    """The rational line's product written out here, apart from the kernel
    that ``rational_line_carrier`` takes it through."""
    return LinComb.single(0, x.coeff(0) * y.coeff(0))


LINE_OPS = {"mul": line_mul}


def ref_ops(carrier, roles, alg=None):
    """The carrier's operations for the reference walk: those of ``alg``
    when it is a dict of them, the dense sums of ``alg`` (by default the
    carrier, when it is a finite algebra), or else the carrier's own
    operations."""
    if alg is None and isinstance(carrier, FiniteRelativeAlgebra):
        alg = carrier
    if isinstance(alg, dict):
        return {role: alg[role] for role in roles}
    if alg is None:
        return {role: carrier.op(role) for role in roles}
    return {role: dense_op(alg, role) for role in roles}


def ref_check_axioms(carrier, suite, domain, alg=None):
    ops = ref_ops(carrier, suite.roles, alg)
    report, per_equation = ref_scan(
        f"axioms:{suite.name}", suite.equations, domain, ops, carrier.index, carrier.unit_vector
    )
    return replace(report, info={"suite": suite.name, "equation_instances": per_equation})


def ref_check_rota_baxter(rb, domain, alg=None):
    carrier = rb.carrier
    pre = ref_check_axioms(carrier, SUITES["RelAssoc"], domain, alg)
    if not pre.passed:
        return replace(pre, check="rota-baxter:precondition:RelAssoc")
    ops = {**ref_ops(carrier, ("mul",), alg), "rb": rb.apply}
    equations = (ROTA_BAXTER_EQUATION,)
    return ref_scan("rota-baxter", equations, domain, ops, carrier.index, None)[0]


def same_report(compiled, reference):
    assert compiled.passed == reference.passed
    assert to_json(compiled.to_payload()) == to_json(reference.to_payload())


# Sparse constants, so that some scans pass and others fail deep in the scan.
CONSTANTS = (0, 0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 2)
PAIR_ROLES = ("mul", "bracket", "prec", "succ", "ast", "circ")
FAMILY_ROLES = ("prec", "succ", "ast", "circ")


def random_algebra(rng, index, dim, roles, arity, unit, shared=None):
    """``shared`` names the roles given one block at every index tuple; by
    default all roles are, or none."""
    keys = list(product(range(index.size), repeat=arity))
    if shared is None:
        shared = roles if rng.random() < 0.5 else ()

    def block():
        return tuple(
            tuple(tuple(Fraction(rng.choice(CONSTANTS)) for _ in range(dim)) for _ in range(dim))
            for _ in range(dim)
        )

    ops = {}
    for role in roles:
        one = block()
        ops[role] = {key: one if role in shared else block() for key in keys}
    unit_vector = [Fraction(rng.choice(CONSTANTS)) for _ in range(dim)] if unit else None
    return FiniteRelativeAlgebra([f"e{i}" for i in range(dim)], index, ops, unit_vector)


# Formal sums the built-in suites never write: a leading -1, coefficients
# other than 1 and -1, and a sum that is a single scaled term.
WEIGHTED = Suite(
    "Weighted",
    (
        Equation(
            "weighted",
            Lin(
                (
                    (Fraction(-1), app("mul", (A, B), X, Y)),
                    (Fraction(1, 2), app("mul", (B, A), Y, X)),
                    (Fraction(-1), X),
                )
            ),
            Lin(((Fraction(-3), app("mul", (mul(A, B), A), X, Y)),)),
        ),
    ),
)

INDICES = {
    "trivial": trivial_monoid,
    "Z/1": lambda: cyclic_monoid(1),
    "Z/2": lambda: cyclic_monoid(2),
    "Z/3": lambda: cyclic_monoid(3),
}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 3),
    index_name=st.sampled_from(sorted(INDICES)),
    unit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_checks_match_the_reference_walk(dim, index_name, unit, seed):
    rng = Random(seed)
    index = INDICES[index_name]()
    pair = random_algebra(rng, index, dim, PAIR_ROLES, 2, unit)
    family = random_algebra(rng, index, dim, FAMILY_ROLES, 1, False)
    dimonoid = rng.choice([dimonoid_from_semigroup(index), matching_dimonoid(index.size)])
    # each carrier with the algebra whose blocks the reference reads
    carriers = {
        (2, "semigroup"): (pair.as_carrier(), pair),
        (1, "semigroup"): (family.as_carrier(), family),
        (1, "dimonoid"): (
            OpCarrier(dimonoid, {r: family.op(r) for r in ("prec", "succ")}, basis=family.basis),
            family,
        ),
    }
    # the full domain, one with exactly one index tuple (so the last element
    # variable is the scan's innermost), and one whose basis tuples are
    # filtered (so that variable does not change on every instance)
    domains = (
        finite_domain(pair),
        FiniteDomain(pair.basis, [rng.randrange(index.size)]),
        finite_domain(pair, basis_filter=lambda combo: list(combo) == sorted(combo)),
    )
    # the family's roles lifted to pairs, each handed the one index it reads;
    # the walk calls each lift through __call__
    lifted = OpCarrier(index, {r: family_to_pair(r, family.op(r)) for r in FAMILY_ROLES})
    for suite, domain in product((*SUITES.values(), WEIGHTED), domains):
        if suite.requires_unit and not unit:
            continue
        carrier, alg = carriers[suite.op_arity, suite.index_kind]
        same_report(
            check_axioms(carrier, suite, domain), ref_check_axioms(carrier, suite, domain, alg)
        )
        if suite.op_arity == 2 and set(suite.roles) <= set(FAMILY_ROLES):
            same_report(check_axioms(lifted, suite, domain), ref_check_axioms(lifted, suite, domain))

    # Rota-Baxter: random maps over a random carrier (RelAssoc mostly fails)
    # and over an associative one, e_i e_j = k e_max(i,j) at every index pair
    k = Fraction(rng.choice(CONSTANTS))
    block = tuple(
        tuple(tuple(k if m == max(i, j) else 0 for m in range(dim)) for j in range(dim))
        for i in range(dim)
    )
    assoc = FiniteRelativeAlgebra(
        pair.basis, index, {"mul": {key: block for key in product(range(index.size), repeat=2)}}
    )
    for carrier in (pair, assoc):
        maps = {
            a: tuple(tuple(rng.choice(CONSTANTS) for _ in range(dim)) for _ in range(dim))
            for a in range(index.size)
        }
        rb = RotaBaxterFamily(carrier, maps)
        same_report(check_rota_baxter(rb), ref_check_rota_baxter(rb, finite_domain(carrier)))

    # ... and on a window of the rational line over (Z>0, +), where
    # R_n(x) = c x / n passes for every c and R_n(x) = c x fails unless c = 0
    c = Fraction(rng.choice(CONSTANTS))
    weight = rng.choice([lambda n: c / n, lambda n: c])
    rb = RotaBaxterFamily(rational_line_carrier(), lambda n, x: x.scale(weight(n)))
    window = range(1, rng.randint(1, 12) + 1)
    same_report(
        check_rota_baxter(rb, window=window),
        ref_check_rota_baxter(rb, window_domain(("1",), window), LINE_OPS),
    )


@pytest.mark.parametrize("size", [2, 3])
def test_operations_that_read_no_index_match_the_reference_walk(size):
    # a role with one block at every index pair reads no index, and an
    # equation whose sides read none is taken once per element tuple; with
    # some roles shared and others not, a shared application may hold one
    # that reads its indices, and that equation is taken at every index tuple
    rng = Random(size)
    index = cyclic_monoid(size)
    outcomes = set()
    for trial in range(12):
        shared = PAIR_ROLES if trial % 3 == 0 else {r for r in PAIR_ROLES if rng.random() < 0.5}
        alg = random_algebra(rng, index, 1 + trial % 2, PAIR_ROLES, 2, False, shared)
        for suite in (*SUITES.values(), WEIGHTED):
            if suite.op_arity != 2 or suite.requires_unit:
                continue
            report = check_axioms(alg.as_carrier(), suite, finite_domain(alg))
            same_report(report, ref_check_axioms(alg, suite, finite_domain(alg)))
            outcomes.add(report.passed)
    # mul reads no index and bracket both: with u u = u, and [u, u] = 0 at
    # the index pair (0, 0) alone, (u u) [u, u] = 0 holds at the first index
    # tuples and fails at (0, 1, 0), although the outer mul reads no index;
    # so it does with the nested application on the right side, and inside a
    # formal sum beside a term that reads no index
    term = app("mul", (mul(A, B), C), app("bracket", (A, B), X, Y), Z)
    plain = app("mul", (mul(A, B), C), app("mul", (A, B), X, Y), Z)
    one, zero = (((Fraction(1),),),), (((Fraction(0),),),)
    keys = list(product(range(size), repeat=2))
    bracket = {key: zero if key == (0, 0) else one for key in keys}
    alg = FiniteRelativeAlgebra(["u"], index, {"mul": dict.fromkeys(keys, one), "bracket": bracket})
    for lhs, rhs in ((term, ZERO_EXPR), (ZERO_EXPR, term), (add(plain, term), plain)):
        nested = Suite("Nested", (Equation("nested", lhs, rhs),))
        report = check_axioms(alg.as_carrier(), nested, finite_domain(alg))
        assert not report.passed and report.instances == size + 1
        same_report(report, ref_check_axioms(alg, nested, finite_domain(alg)))
    # e_i e_j = 1/2 e_max(i,j) at every index pair: associative and commutative
    block = tuple(
        tuple(tuple(Fraction(1, 2) if k == max(i, j) else 0 for k in range(2)) for j in range(2))
        for i in range(2)
    )
    alg = FiniteRelativeAlgebra(
        ["e0", "e1"], index, {"mul": {key: block for key in product(range(size), repeat=2)}}
    )
    assert alg.op("mul").reads == ()
    for suite in ("RelAssoc", "RelComm"):
        report = check_axioms(alg.as_carrier(), suite, finite_domain(alg))
        comm = 4 * size**2 if suite == "RelComm" else 0
        assert report.passed and report.instances == 8 * size**3 + comm
        same_report(report, ref_check_axioms(alg, SUITES[suite], finite_domain(alg)))
    assert outcomes == {True, False}


def test_a_windowed_scan_does_not_list_its_index_tuples():
    # RelAssoc over a window of 80 has 80^3 = 512,000 index tuples, none of
    # which the line's mul reads, and the Rota-Baxter identity's 6,400 index
    # pairs are taken afresh for its one element tuple: nothing is listed
    tracemalloc.start()
    try:
        report = check_rota_baxter(reciprocal_rota_baxter(), window=range(1, 81))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.instances == 80**2
    assert peak < 4 * 2**20


def test_scan_counts_runs_of_passing_instances():
    # an int stands for that many passing instances; a tuple is one instance
    failing = ("eq", iter(["u"]), iter(["0"]), LinComb.single(0), LinComb())
    report = scan("mixed", iter([2, 0, failing, 5]), lambda vec: vec.to_pairs(str))
    assert not report.passed and report.instances == 3
    assert report.counterexample == Counterexample("eq", ("u",), ("0",), [["1/1", "0"]], [])
    passing = ("eq", (), (), LinComb.single(0), LinComb.single(0))
    assert scan("runs", iter([4, 0, 3]), str) == CheckReport("runs", True, 7)
    assert scan("mixed", iter([4, passing, 3]), str) == CheckReport("mixed", True, 8)
    assert scan("empty", iter([]), str) == CheckReport("empty", True, 0)


class CountingDomain(FiniteDomain):
    """A finite domain that counts the calls to ``indices``."""

    index_calls = 0

    def indices(self, m):
        self.index_calls += 1
        return super().indices(m)


@pytest.mark.parametrize("passed", [True, False])
def test_the_scan_lists_index_tuples_once_per_equation(passed):
    # on Z/3, e_i e_j = 1/2 e_max(i,j) is associative and commutative, and
    # e_i e_j = 1/2 e_i associative only: RelComm passes, or fails at its
    # second equation after the 9 index pairs of (e0, e0), with both sides
    # divided back from den = 2; mul has one block at every index pair and
    # reads no index, so each equation asks the domain for its index tuples
    # once, and takes only the first
    def product_block(target):
        return tuple(
            tuple(tuple(Fraction(1, 2) if k == target(i, j) else 0 for k in range(2))
                  for j in range(2))
            for i in range(2)
        )

    block = product_block(max if passed else lambda i, j: i)
    index = cyclic_monoid(3)
    alg = FiniteRelativeAlgebra(
        ["e0", "e1"], index, {"mul": {key: block for key in product(range(3), repeat=2)}}
    )
    assert alg.den == 2
    suite = SUITES["RelComm"]
    domain = CountingDomain(alg.basis, range(3))
    report = check_axioms(alg.as_carrier(), suite, domain)
    assert report.passed is passed
    assert domain.index_calls == len(suite.equations)
    assert report.info["equation_instances"] == (
        {"assoc": 216, "comm": 36} if passed else {"assoc": 216, "comm": 10}
    )
    same_report(report, ref_check_axioms(alg, suite, finite_domain(alg)))


# -- hoisting: a subterm that does not read the scan's innermost variable


def counted(op):
    """``op`` with its ``fn`` wrapped in a call counter, and the counter."""
    calls = [0]

    def fn(*args):
        calls[0] += 1
        return op.fn(*args)

    return type(op)(op.index, fn, op.den, op.reads, op.pattern), calls


@pytest.mark.parametrize("n, products", [(4, 208), (5, 400)])
def test_an_inner_product_is_taken_once_per_change_of_what_it_reads(n, products):
    # RelAssoc over a window of N on the rational line, its kernel wrapped as
    # an op that reads both indices: in mul_{ab,c}(mul_{a,b}(x, y), z), c is
    # innermost and mul_{a,b}(x, y) does not read it, so that product is taken
    # N^2 times, the other three N^3 times each: 3N^3 + N^2 products, where
    # each instance took 4
    line = rational_line_carrier()
    kernel = line.op("mul").fn
    mul, calls = counted(PairIndexedOp(line.index, lambda a, b, x, y: kernel(x, y)))
    carrier = OpCarrier(line.index, {"mul": mul}, basis=line.basis)
    report = check_axioms(carrier, "RelAssoc", window_domain(line.basis, range(1, n + 1)))
    assert report.passed and report.instances == n**3
    assert calls == [3 * n**3 + n**2] == [products]


@pytest.mark.parametrize("n", [4, 5, 23])
def test_a_product_that_reads_no_index_is_taken_once_per_change_of_its_vectors(n):
    # the rational line's own mul reads no index, and the window's one basis
    # tuple never changes: each of RelAssoc's four products is taken once
    line = rational_line_carrier()
    mul, calls = counted(line.op("mul"))
    carrier = OpCarrier(line.index, {"mul": mul}, basis=line.basis)
    report = check_axioms(carrier, "RelAssoc", window_domain(line.basis, range(1, n + 1)))
    assert report.passed and report.instances == n**3
    assert report.info["equation_instances"] == {"assoc": n**3}
    assert calls == [4]


def test_a_role_with_one_block_at_every_index_pair_reads_no_index():
    # every role over a one-element index has one block, and so has a role
    # given the same block at each pair of Z/2; the sign twist's mul has two
    # blocks, and reads both indices
    assert truncated_integration_zinbiel(3).op("ast").reads == ()
    assert one_dim_base().op("mul").reads == ()
    block = (((Fraction(1, 2),),),)
    shared = {key: block for key in product(range(2), repeat=2)}
    assert FiniteRelativeAlgebra(["u"], cyclic_monoid(2), {"mul": shared}).op("mul").reads == ()
    twisted = jsonio.load_algebra(jsonio.load_file(DATA / "cocycle_algebra.json"))
    assert twisted.op("mul").reads == (0, 1)
    # a role that reads no index has its block's pattern: t^m t^n = t^(m+n+1)
    # below the top degree 3, else zero; one that reads its indices has none
    pattern = [[1 << m + n + 1 if m + n < 3 else 0 for n in range(4)] for m in range(4)]
    assert truncated_integration_zinbiel(3).op("ast").pattern == pattern
    assert twisted.op("mul").pattern is None


def test_with_one_index_tuple_the_last_element_variable_is_innermost():
    # over the trivial monoid z is innermost: ast(x, y) and ast(y, x), which
    # do not read it, are taken once per (x, y), the other four products on
    # each of the 6^3 instances of an operation without a pattern
    alg = truncated_integration_zinbiel(5)
    op = alg.op("ast")
    ast, calls = counted(PairIndexedOp(op.index, op.fn, op.den, op.reads))
    carrier = OpCarrier(alg.index, {"ast": ast}, basis=alg.basis)
    report = check_axioms(carrier, "RelZinbiel", finite_domain(alg))
    assert report.passed and report.instances == 6**3
    assert calls == [4 * 6**3 + 2 * 6**2] == [936]


def test_a_scan_evaluates_only_the_instances_where_a_side_can_be_nonzero():
    # t^m * t^n = t^(m+n+1) / (m+1) vanishes past t^5, so both sides of the
    # zinbiel identity at (t^m, t^n, t^k) vanish unless m + n + k <= 3: the
    # 20 such instances take four products each, and ast(x, y) and ast(y, x),
    # which the right side's demand reads, are taken once per (x, y); the
    # other 196 instances are counted as passed
    alg = truncated_integration_zinbiel(5)
    ast, calls = counted(alg.op("ast"))
    carrier = OpCarrier(alg.index, {"ast": ast}, basis=alg.basis)
    report = check_axioms(carrier, "RelZinbiel", finite_domain(alg))
    assert report.passed and report.instances == 6**3
    assert calls == [4 * 20 + 2 * 6**2] == [152]
    same_report(report, ref_check_axioms(alg, SUITES["RelZinbiel"], finite_domain(alg)))


def test_an_equation_that_reads_no_index_keeps_the_last_element_variable_innermost():
    # e_i e_j = 1/2 e_max(i,j) at all four index pairs of Z/2 reads no index,
    # so RelAssoc is taken once per (x, y, z) with z innermost: mul(x, y) is
    # taken once per (x, y), the other three products on each of the 3^3
    # element tuples, and the 8 index tuples of each count as passed
    block = tuple(
        tuple(tuple(Fraction(1, 2) if k == max(i, j) else 0 for k in range(3)) for j in range(3))
        for i in range(3)
    )
    blocks = dict.fromkeys(product(range(2), repeat=2), block)
    alg = FiniteRelativeAlgebra(["e0", "e1", "e2"], cyclic_monoid(2), {"mul": blocks})
    mul, calls = counted(alg.op("mul"))
    carrier = OpCarrier(alg.index, {"mul": mul}, basis=alg.basis)
    report = check_axioms(carrier, "RelAssoc", finite_domain(alg))
    assert report.passed and report.instances == 216
    assert report.info["equation_instances"] == {"assoc": 216}
    assert calls == [3 * 3**3 + 3**2] == [90]


def test_a_subterm_that_reads_the_innermost_variable_is_taken_on_every_instance():
    # f_{a,c}(x, y) reads c, the innermost variable; g_{a,b}(x, y) does not
    class Zero:
        arity = 2
        calls = 0

        def __call__(self, a, b, x, y):
            self.calls += 1
            return LinComb()

    f, g = Zero(), Zero()
    carrier = OpCarrier(cyclic_monoid(3), {"f": f, "g": g}, basis=("u", "v"))
    suite = Suite("Inner", (Equation("inner", app("f", (A, C), X, Y), app("g", (A, B), X, Y)),))
    report = check_axioms(carrier, suite, FiniteDomain(carrier.basis, range(3)))
    assert report.passed and report.instances == 2**2 * 3**3
    assert (f.calls, g.calls) == (2**2 * 3**3, 2**2 * 3**2)


# -- an element tuple is taken only at the index tuples whose positions outside
# those its sides read hold the first index element


def _recorded(side, n_elem, seen):
    """``side``, appending to ``seen`` the index tuple of each evaluation."""
    def evaluate(env):
        seen.append(env[: len(env) - n_elem])
        return side(env)

    return evaluate


def sides_evaluated(monkeypatch):
    """Per equation scanned in full, the index ids of the columns it was handed
    (None without a power) and the index tuples at which each side was
    evaluated, in order."""
    evaluated, full_scan = [], axioms._full_scan

    def counting(lhs, rhs, domain, n_elem, taken, tuples, columns=None):
        seen = [], []
        evaluated.append((columns, seen))
        lhs, rhs = (_recorded(f, n_elem, s) for f, s in zip((lhs, rhs), seen))
        return full_scan(lhs, rhs, domain, n_elem, taken, tuples, columns)

    monkeypatch.setattr(axioms, "_full_scan", counting)
    return evaluated


@pytest.mark.parametrize(
    "suite, unread",
    # the lifted prec reads its second index and succ its first, circ its
    # first: dend1 never reads a, dend2 never b, dend3 and prelie never c
    [("RelDendriform", {"dend1": 0, "dend2": 1, "dend3": 2}), ("RelPreLie", {"prelie": 2})],
)
def test_a_free_check_takes_each_sample_at_the_index_tuples_its_sides_read(
    suite, unread, monkeypatch
):
    # over Z/2 each sample has 8 index tuples: each side is evaluated at the 4
    # that hold 0 at the position no application is handed for the first
    # sample, and once for each later one, at the ids of the three columns of
    # the 8 index tuples in the check's one power of Z/2, of 16 elements
    evaluated = sides_evaluated(monkeypatch)
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    report = free_check(carrier, suite, samples=3, max_vertices=6, seed=0)
    assert report.passed and report.info["equation_instances"] == dict.fromkeys(unread, 3 * 8)
    table, columns = power(carrier.dimonoid, 3, 16)
    assert table.size == 16 and len(evaluated) == len(unread)
    for position, (given, (lhs, rhs)) in zip(unread.values(), evaluated):
        kept = [idxs for idxs in product(range(2), repeat=3) if idxs[position] == 0]
        assert given == columns and lhs == rhs == kept + [columns] * 2


def _drop_a_grafting_at_index_1(monkeypatch, anywhere):
    """A planted defect: succ at index 1 loses the first tree of its product,
    anywhere in the grafting recursion or only where a graft sum takes it."""
    depth = [0]

    def nested(basis, drop):
        def product(self, s, t, a):
            depth[0] += 1
            try:
                products = basis(self, s, t, a)
            finally:
                depth[0] -= 1
            return products[1:] if drop and a == 1 and (anywhere or not depth[0]) else products

        return product

    for name, drop in (("_basis_prec", False), ("_basis_succ", True)):
        monkeypatch.setattr(FreeDendCarrier, name, nested(getattr(FreeDendCarrier, name), drop))


@pytest.mark.parametrize(
    "suite, defect, instances",
    [
        ("RelDendriform", None, 3 * 4 * 8),
        ("RelPreLie", None, 4 * 8),
        # anywhere: dend1 and dend2 pass, on half their index tuples, and
        # dend3 fails at rank 4 of its first sample
        ("RelDendriform", "anywhere", 2 * 4 * 8 + 5),
        # circ reaches index 1 through edge labels at every index tuple, so a
        # graft sum's own succ loses it: the first failure, at rank 2, follows
        # rank 1, counted and not evaluated
        ("RelPreLie", "graft sum", 3),
    ],
)
def test_a_free_check_reports_the_bytes_of_the_full_scan(suite, defect, instances, monkeypatch):
    # the reference walk evaluates every index tuple; the check skips those
    # that repeat one before them and counts them as passed.  Given a carrier
    # over the power of Z/2 that free_check builds, the check runs on it and
    # takes each sample tuple but the first once, at the columns' ids, and the
    # defects, keyed on index 1, show in the first sample, taken at each index
    # tuple; the carrier given then gets no products
    if defect is not None:
        _drop_a_grafting_at_index_1(monkeypatch, defect == "anywhere")
    carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
    reference = ref_check_axioms(free_suite_carrier(carrier, suite), SUITES[suite],
                                 SampledTreeDomain(carrier, 4, 6, 0))
    evaluated = sides_evaluated(monkeypatch)
    for over_a_power in (False, True):
        evaluated.clear()
        carrier = FreeDendCarrier(["x", "y"], cyclic_monoid(2))
        table, columns = power(carrier.dimonoid, 3, 16)
        given = (FreeDendCarrier(["x", "y"], table), columns) if over_a_power else None
        checked = given[0] if over_a_power else carrier
        report = check_axioms(free_suite_carrier(checked, suite), suite,
                              SampledTreeDomain(carrier, 4, 6, 0, given))
        same_report(report, reference)
        assert (report.passed, report.instances) == (defect is None, instances)
        assert sum(len(lhs) for _, (lhs, _) in evaluated) < report.instances
        assert {given is None for given, _ in evaluated} == {not over_a_power}
        assert (carrier._nodes == []) == over_a_power


def without_patterns(alg):
    """``alg`` as a carrier of the same operations, none with a pattern, so
    that every scan over it evaluates every instance it counts."""
    ops = {r: alg.op(r) for r in alg.roles()}
    plain = {r: PairIndexedOp(op.index, op.fn, op.den, op.reads) for r, op in ops.items()}
    return OpCarrier(alg.index, plain, alg.unit_vector, alg.basis)


def test_a_sparse_scan_gives_the_report_of_a_scan_without_patterns():
    # random sparse algebras, one block per role shared by every index pair:
    # every pair-indexed suite their roles allow reports the same bytes with
    # the patterns as without them, passing and failing
    outcomes = set()
    nonzero = (1, -1, Fraction(1, 2), Fraction(-2, 3), 3)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        dim=st.integers(1, 5),
        index_name=st.sampled_from(["trivial", "Z/2"]),
        density=st.sampled_from([0.05, 0.15, 0.3]),
        unit=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def compare(dim, index_name, density, unit, seed):
        rng = Random(seed)
        index = INDICES[index_name]()

        def constant():
            return Fraction(rng.choice(nonzero)) if rng.random() < density else Fraction(0)

        def block():
            return tuple(
                tuple(tuple(constant() for _ in range(dim)) for _ in range(dim))
                for _ in range(dim)
            )

        keys = list(product(range(index.size), repeat=2))
        ops = {role: dict.fromkeys(keys, block()) for role in PAIR_ROLES}
        unit_vector = [constant() for _ in range(dim)] if unit else None
        alg = FiniteRelativeAlgebra([f"e{i}" for i in range(dim)], index, ops, unit_vector)
        plain = without_patterns(alg)
        for suite in SUITES.values():
            if suite.op_arity != 2 or suite.index_kind != "semigroup":
                continue
            if suite.requires_unit and not unit:
                continue
            report = check_axioms(alg, suite, finite_domain(alg))
            same_report(report, check_axioms(plain, suite, finite_domain(alg)))
            outcomes.add(report.passed)

    compare()
    assert outcomes == {True, False}


class FreshDomain(FiniteDomain):
    """A finite domain whose every tuple holds fresh copies of its basis
    vectors: consecutive instances read equal vectors that are not shared."""

    def elements(self, k):
        shared = super().elements(k)
        return (tuple(LinComb(vec.items()) for vec in vectors) for vectors in shared)


@pytest.mark.parametrize("index", [trivial_monoid(), cyclic_monoid(2)], ids=["trivial", "Z/2"])
def test_fresh_equal_vectors_give_the_report_of_shared_ones(index):
    rng = Random(7)
    for suite in ("RelAssoc", "RelDendriform", "RelZinbiel", "RelPreLie", "RelLie", "RelPoisson"):
        alg = random_algebra(rng, index, 2, SUITES[suite].roles, 2, False)
        shared, fresh = (cls(alg.basis, range(index.size)) for cls in (FiniteDomain, FreshDomain))
        same_report(
            check_axioms(alg.as_carrier(), suite, fresh),
            check_axioms(alg.as_carrier(), suite, shared),
        )


# -- the scaled path: constants with denominators, compared in integers


def test_scaled_counterexample_is_divided_back():
    # u.u = 1/2 u, u.v = 1/3 v, v.u = 2/7 u: the kernels compute 42 times
    # the products, and RelAssoc fails at (u, u, v) with 1/6 v against 1/9 v
    third, half, two_sevenths = Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)
    block = (((half, 0), (0, third)), ((two_sevenths, 0), (0, 0)))
    alg = FiniteRelativeAlgebra(["u", "v"], trivial_monoid(), {"mul": {(0, 0): block}})
    assert alg.den == 42
    report = check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))
    assert report.counterexample.elements == ("u", "u", "v")
    assert (report.counterexample.lhs, report.counterexample.rhs) == (
        [["1/6", "v"]],
        [["1/9", "v"]],
    )
    same_report(report, ref_check_axioms(alg, SUITES["RelAssoc"], finite_domain(alg)))
    u, v = LinComb.single(0), LinComb.single(1)
    lhs = SUITES["RelAssoc"].equations[0].lhs
    ops = {"mul": alg.op("mul")}
    env = {"a": 0, "b": 0, "c": 0}
    value = eval_expr(lhs, {"x": u, "y": u, "z": v}, env, ops, alg.index, None)
    assert value == LinComb.single(1, Fraction(1, 6))


@pytest.mark.parametrize(
    "unit, passed", [((2, Fraction(7, 2)), True), ((2, Fraction(7, 3)), False)]
)
def test_scaled_sides_of_different_depths(unit, passed):
    # mul(x, 1) = x has one application against none: the right side is
    # multiplied up to the left's scale, den = 14, before they compare
    blocks = {
        key: (((Fraction(1, 2), 0), (0, 0)), ((0, 0), (0, Fraction(2, 7))))
        for key in product(range(2), repeat=2)
    }
    alg = FiniteRelativeAlgebra(["e0", "e1"], cyclic_monoid(2), {"mul": blocks}, unit)
    assert alg.den == 14
    report = check_axioms(alg.as_carrier(), "RelUnital", finite_domain(alg))
    assert report.passed is passed
    same_report(report, ref_check_axioms(alg, SUITES["RelUnital"], finite_domain(alg)))


@pytest.mark.parametrize("integration, passed", [(True, True), (False, False)])
def test_scaled_product_feeds_a_rational_map(integration, passed):
    # Q[t]/(t^3) with its product scaled by 2/7 (den 7), and the same map at
    # every index: integration, t^n -> t^(n+1)/(n+1), is a Rota-Baxter
    # family; a third of the identity is not
    def monomial(n):
        return tuple(Fraction(2, 7) if k == n else 0 for k in range(3))

    block = tuple(tuple(monomial(i + j) for j in range(3)) for i in range(3))
    index = cyclic_monoid(2)
    alg = FiniteRelativeAlgebra(
        ["1", "t", "t2"], index, {"mul": {key: block for key in product(range(2), repeat=2)}}
    )
    assert alg.den == 7
    if integration:
        matrix = ((0, 0, 0), (1, 0, 0), (0, Fraction(1, 2), 0))
    else:
        matrix = tuple(tuple(Fraction(1, 3) if i == j else 0 for j in range(3)) for i in range(3))
    rb = RotaBaxterFamily(alg, {a: matrix for a in range(2)})
    report = check_rota_baxter(rb)
    assert report.check == "rota-baxter" and report.passed is passed
    same_report(report, ref_check_rota_baxter(rb, finite_domain(alg)))


def test_constructions_keep_the_scale_of_the_products_they_copy():
    # zinbiel8's constants have den 840; an operation that copies a
    # kernel-backed fn must divide back by the same den when called
    alg = jsonio.load_algebra(jsonio.load_file(DATA / "zinbiel8.json"))
    assert alg.den == 840
    ast, dense = alg.op("ast"), dense_op(alg, "ast")
    prec, succ = dend_from_zinbiel(ast)
    zinbiel = zinbiel_from_symmetric_dend(prec, succ, finite_domain(alg))
    units = [LinComb.single(i) for i in range(alg.dim)]
    vectors = units + [LinComb(((0, Fraction(3, 5)), (4, -2))), LinComb.single(2, Fraction(1, 7))]
    for (a, b), x, y in product(product(range(alg.index.size), repeat=2), vectors, vectors):
        assert succ(a, b, x, y) == dense(a, b, x, y)
        assert prec(a, b, x, y) == dense(b, a, y, x)
        assert zinbiel(a, b, x, y) == dense(a, b, x, y)


def test_compiled_application_of_another_shape():
    # an operation with two indices and one argument: the compiler's
    # general form, which no built-in suite reaches
    class IndexWeightedMap:
        arity = 2

        def __call__(self, a, b, x):
            return x.scale(a + 2 * b + 1)

    carrier = OpCarrier(cyclic_monoid(2), {"f": IndexWeightedMap()}, basis=("u",))
    equation = Equation("shape", app("f", (A, B), X), app("f", (B, A), X))
    suite = Suite("Shape", (equation,))
    domain = FiniteDomain(carrier.basis, range(2))
    report = check_axioms(carrier, suite, domain)
    assert not report.passed and report.instances == 2
    same_report(report, ref_check_axioms(carrier, suite, domain))


def test_missing_index_structure_is_refused_before_any_instance():
    # custom suites reading the index unit, the unit vector, or a product
    # the index lacks: the suite's facts name what it needs, so such a
    # carrier is refused up front, even over a domain with no instance
    no_unit = SemigroupTable(["p", "q"], [[0, 1], [0, 1]])
    alg = random_algebra(Random(0), no_unit, 1, ("mul",), 2, False)
    monoid_alg = random_algebra(Random(0), trivial_monoid(), 1, ("mul",), 2, False)
    reads_index_unit = Equation("index_unit", app("mul", (A, OMEGA), X, Y), X)
    reads_unit_vector = Equation("unit_vector", app("mul", (A, A), X, UNIT), X)
    reads_left = Equation("left", app("mul", (dleft(A, A), A), X, Y), X)
    for equation, carrier_alg, message in (
        (reads_index_unit, alg, "suite Custom requires a monoid index"),
        (reads_unit_vector, alg, "suite Custom requires a monoid index"),
        (reads_unit_vector, monoid_alg, "suite Custom requires a declared unit vector"),
        (reads_left, alg, "suite Custom needs a dimonoid index structure"),
    ):
        suite = Suite("Custom", (equation,))
        for domain in (FiniteDomain(carrier_alg.basis, []), finite_domain(carrier_alg)):
            with pytest.raises(ContractError, match=f"^{message}$"):
                check_axioms(carrier_alg.as_carrier(), suite, domain)
    # a dimonoid has no unit, so a dimonoid suite that names one is refused
    dimonoid = matching_dimonoid(2)
    prec = FamilyIndexedOp(dimonoid, lambda a, x, y: x)
    carrier = OpCarrier(dimonoid, {"prec": prec}, LinComb.single(0), basis=("u",))
    suite = Suite("Custom", (Equation("u", app("prec", (dleft(A, OMEGA),), X, Y), X),))
    with pytest.raises(ContractError, match="^suite Custom requires a monoid index$"):
        check_axioms(carrier, suite, FiniteDomain(carrier.basis, range(2)))
    # one evaluation compiles its term, and refuses a missing unit there
    env, ops = {"x": LinComb.single(0), "y": LinComb.single(0)}, {"mul": alg.op("mul")}
    with pytest.raises(ContractError, match="^suite requires a unit element in the index"):
        eval_expr(reads_index_unit.lhs, env, {"a": 0}, ops, no_unit, None)
    with pytest.raises(ContractError, match="^suite requires a declared unit vector$"):
        eval_expr(reads_unit_vector.lhs, env, {"a": 0}, ops, no_unit, None)
    # a product kind a virtual index lacks is asked for, and refused, at an instance
    virtual = positive_integers_additive()
    assert eval_index(mul(A, B), {"a": 1, "b": 2}, virtual) == 3
    with pytest.raises(ContractError, match="^semigroup index has no 'left' operation$"):
        eval_index(dleft(A, B), {"a": 1, "b": 2}, virtual)


def test_one_evaluation_over_a_dimonoid_refuses_its_unit():
    # a dimonoid claims no unit: an index expression naming one is refused
    # as a contract violation, not an attribute the dimonoid lacks
    dimonoid = matching_dimonoid(2)
    message = "^suite requires a unit element in the index structure$"
    with pytest.raises(ContractError, match=message):
        eval_index(dleft(A, OMEGA), {"a": 0}, dimonoid)
    prec = FamilyIndexedOp(dimonoid, lambda a, x, y: x)
    env = {"x": LinComb.single(0), "y": LinComb.single(0)}
    expr = app("prec", (dleft(A, OMEGA),), X, Y)
    with pytest.raises(ContractError, match=message):
        eval_expr(expr, env, {"a": 0}, {"prec": prec}, dimonoid, None)


def test_a_check_keeps_no_reference_to_its_carrier():
    # the compiled closures must not form a cycle with the compiler: one
    # would keep each carrier (and a free carrier's basis cache) alive until
    # the cyclic collector runs, so back-to-back commands pile up memory
    class ZeroProduct:
        arity = 2

        def __call__(self, a, b, x, y):
            return LinComb()

    op = ZeroProduct()
    alive = weakref.ref(op)
    carrier = OpCarrier(cyclic_monoid(2), {"mul": op}, basis=("u",))
    # a finite algebra: its operations and kernels hold no reference back
    alg = random_algebra(Random(0), cyclic_monoid(2), 2, ("mul", "ast"), 2, False)
    alg_alive = weakref.ref(alg)
    gc.disable()
    try:
        assert check_axioms(carrier, "RelAssoc", FiniteDomain(("u",), range(2))).passed
        check_axioms(alg.as_carrier(), "RelAssoc", finite_domain(alg))
        del carrier, op, alg
        assert alive() is None
        assert alg_alive() is None
    finally:
        gc.enable()


# Each built-in equation's (n_elem, n_idx), written out here independently
# of the terms they are read off.
STATED_ARITIES = {
    "RelAssoc": [(3, 3)],
    "RelUnital": [(1, 1), (1, 1)],
    "RelComm": [(3, 3), (2, 2)],
    "RelLie": [(2, 2), (3, 3)],
    "RelPoisson": [(3, 3), (2, 2), (2, 2), (3, 3), (3, 3)],
    "RelDendriform": [(3, 3)] * 3,
    "RelZinbiel": [(3, 3)],
    "RelPreLie": [(3, 3)],
    "RelPrePoisson": [(3, 3)] * 4,
    "FamDendriform": [(3, 2)] * 3,
    "FamZinbiel": [(3, 2)] * 2,
    "FamPreLie": [(3, 2)],
    "FamPrePoisson": [(3, 2)] * 5,
    "DimonoidDendriform": [(3, 2)] * 3,
}


def test_equation_arities_are_read_off_the_terms():
    assert set(SUITES) == set(STATED_ARITIES)
    for name, suite in SUITES.items():
        assert [(e.n_elem, e.n_idx) for e in suite.equations] == STATED_ARITIES[name], name
    assert (ROTA_BAXTER_EQUATION.n_elem, ROTA_BAXTER_EQUATION.n_idx) == (2, 2)
    assert [(e.n_elem, e.n_idx) for e in PAIR_SYMMETRIC.equations] == [(2, 2)]
    assert [(e.n_elem, e.n_idx) for e in FAMILY_SYMMETRIC.equations] == [(2, 1)]
    # a variable read counts every position before it, used or not
    only_y_b = Equation("only_y_b", app("f", (B,), Y), Y)
    assert (only_y_b.n_elem, only_y_b.n_idx) == (2, 2)
    closed = Equation("closed", ZERO_EXPR, ZERO_EXPR)
    assert (closed.n_elem, closed.n_idx) == (0, 0)
    # and the roles an equation applies, in order of first use
    poisson = [e.roles for e in SUITES["RelPoisson"].equations]
    assert poisson == [("mul",), ("mul",), ("bracket",), ("bracket",), ("bracket", "mul")]
    assert (only_y_b.roles, closed.roles) == (("f",), ())


# Each suite's (roles, op_arity, index_kind, requires_unit,
# requires_commutative), written out here independently of the terms they
# are read off.
PM, PS = ("prec", "succ"), ("succ", "prec")
STATED_SUITE_FACTS = {
    "RelAssoc": (("mul",), 2, "semigroup", False, False),
    "RelUnital": (("mul",), 2, "semigroup", True, False),
    "RelComm": (("mul",), 2, "semigroup", False, True),
    "RelLie": (("bracket",), 2, "semigroup", False, True),
    "RelPoisson": (("mul", "bracket"), 2, "semigroup", False, True),
    "RelDendriform": (PM, 2, "semigroup", False, False),
    "RelZinbiel": (("ast",), 2, "semigroup", False, True),
    "RelPreLie": (("circ",), 2, "semigroup", False, True),
    "RelPrePoisson": (("ast", "circ"), 2, "semigroup", False, True),
    "FamDendriform": (PM, 1, "semigroup", False, False),
    "FamZinbiel": (("ast",), 1, "semigroup", False, True),
    "FamPreLie": (("circ",), 1, "semigroup", False, True),
    "FamPrePoisson": (("ast", "circ"), 1, "semigroup", False, True),
    "DimonoidDendriform": (PM, 1, "dimonoid", False, False),
    "PairSymmetric": (PS, 2, "semigroup", False, True),
    "FamilySymmetric": (PS, 1, "semigroup", False, False),
}


def _facts(suite):
    return (suite.roles, suite.op_arity, suite.index_kind, suite.requires_unit,
            suite.requires_commutative)


def test_suite_facts_are_read_off_the_terms():
    suites = {**SUITES, "PairSymmetric": PAIR_SYMMETRIC, "FamilySymmetric": FAMILY_SYMMETRIC}
    assert set(suites) == set(STATED_SUITE_FACTS)
    for name, suite in suites.items():
        assert _facts(suite) == STATED_SUITE_FACTS[name], name
    # the rule is per monomial: mul(a, ω)(x, y) = x reads x, y on one side
    # and x alone on the other, each in order, so it needs no commutative index
    unit_slot = Suite("UnitSlot", (Equation("u", app("mul", (A, OMEGA), X, Y), X),))
    assert _facts(unit_slot) == (("mul",), 2, "semigroup", True, False)
    with pytest.raises(ContractError, match=r"^suite Mixed applies roles at \[1, 2\] indices$"):
        Suite("Mixed", (Equation("m", app("f", (A,), X, Y), app("f", (A, B), X, Y)),))


def test_a_swapped_monomial_is_refused_over_a_non_commutative_index():
    # the left-zero band: ab = a, so degree ab and degree ba differ
    band = SemigroupTable(["0", "1"], [[0, 0], [1, 1]])
    assert check_semigroup(band).passed and not band.claims_commutative
    alg = zero_algebra(band, ("mul",))
    M = partial(app, "mul", ())
    in_order = graded_form(Equation("in_order", M(M(X, Y), Z), M(X, M(Y, Z))))
    swapped = graded_form(Equation("swapped", M(M(X, Y), Z), M(M(Y, X), Z)))
    assert check_axioms(alg.as_carrier(), Suite("InOrder", (in_order,)), finite_domain(alg)).passed
    suite = Suite("Swapped", (in_order, swapped))
    assert suite.requires_commutative
    message = "^suite Swapped requires a commutative index semigroup$"
    with pytest.raises(ContractError, match=message):
        check_axioms(alg.as_carrier(), suite, finite_domain(alg))
    # a dimonoid claims no commutativity: a dimonoid suite that swaps is refused too
    dimonoid = matching_dimonoid(2)
    carrier = OpCarrier(dimonoid, {"prec": FamilyIndexedOp(dimonoid, lambda a, x, y: x)})
    swap = Equation("swap", app("prec", (dleft(A, B),), X, Y), app("prec", (dleft(B, A),), Y, X))
    with pytest.raises(ContractError, match=message.replace("Swapped", "DimonoidSwap")):
        check_axioms(carrier, Suite("DimonoidSwap", (swap,)), FiniteDomain(("u",), range(2)))


# The grading rule's edge cases, with every index written out: the unit's
# degree, a cyclic sum, a sum mixing degrees ab and ba, a unary role, and a
# swap of the arguments.
GRADED_BY_HAND = {
    ("RelUnital", "unit_right"): Equation("unit_right", app("mul", (A, OMEGA), X, UNIT), X),
    ("RelLie", "jacobi"): Equation(
        "jacobi",
        add(
            app("bracket", (mul(A, B), C), app("bracket", (A, B), X, Y), Z),
            app("bracket", (mul(C, A), B), app("bracket", (C, A), Z, X), Y),
            app("bracket", (mul(B, C), A), app("bracket", (B, C), Y, Z), X),
        ),
        ZERO_EXPR,
    ),
    ("RelPrePoisson", "prepoisson1"): Equation(
        "prepoisson1",
        app("ast", (mul(A, B), C), sub(app("circ", (A, B), X, Y), app("circ", (B, A), Y, X)), Z),
        sub(
            app("circ", (A, mul(B, C)), X, app("ast", (B, C), Y, Z)),
            app("ast", (B, mul(A, C)), Y, app("circ", (A, C), X, Z)),
        ),
    ),
}


def test_the_grading_rule_indexes_its_edge_cases_as_written_by_hand():
    for (suite, eqid), expected in GRADED_BY_HAND.items():
        assert {e.eqid: e for e in SUITES[suite].equations}[eqid] == expected
    assert ROTA_BAXTER_EQUATION == Equation(
        "rota_baxter",
        app("mul", (A, B), app("rb", (A,), X), app("rb", (B,), Y)),
        app(
            "rb",
            (mul(A, B),),
            add(app("mul", (A, B), app("rb", (A,), X), Y), app("mul", (A, B), X, app("rb", (B,), Y))),
        ),
    )
    assert PAIR_SYMMETRIC.equations == (
        Equation("succ_eq_swapped_prec", app("succ", (A, B), X, Y), app("prec", (B, A), Y, X)),
    )
    ordinary_assoc = Equation(
        "assoc", app("mul", (), app("mul", (), X, Y), Z), app("mul", (), X, app("mul", (), Y, Z))
    )
    assert graded_form(ordinary_assoc) == SUITES["RelAssoc"].equations[0]


def _degree(expr):
    """The degree of a graded term that is not a sum."""
    if isinstance(expr, Var):
        return IxVar({"x": "a", "y": "b", "z": "c"}[expr.name])
    if isinstance(expr, UnitElem):
        return OMEGA
    return mul(*expr.idx) if len(expr.idx) == 2 else expr.idx[0]


def _mixes_degrees(expr):
    """Whether a sum under an application has terms of different degrees."""
    if isinstance(expr, Lin):
        return any(_mixes_degrees(e) for _, e in expr.terms)
    if not isinstance(expr, App):
        return False
    sums = [arg for arg in expr.args if isinstance(arg, Lin)]
    mixed = any(len({_degree(e) for _, e in arg.terms}) > 1 for arg in sums)
    return mixed or any(_mixes_degrees(arg) for arg in expr.args)


def test_sums_under_an_application_mix_degrees_only_over_a_commutative_index():
    # the rule gives a sum its first term's degree, which is the degree of
    # every term unless the index is commutative
    def mixes(equation):
        return _mixes_degrees(equation.lhs) or _mixes_degrees(equation.rhs)

    graded = [suite for suite in SUITES.values() if suite.op_arity == 2]
    mixing = {(suite.name, e.eqid) for suite in graded for e in suite.equations if mixes(e)}
    assert {eqid for _, eqid in mixing} == {"prepoisson1", "prepoisson2"}
    assert all(SUITES[name].requires_commutative for name, _ in mixing)
    assert not mixes(ROTA_BAXTER_EQUATION)
