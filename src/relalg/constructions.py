"""Derived structures: dendriform to associative and pre-Lie, zinbiel to and
from dendriform, pre-Lie to Lie, pre-Poisson to Poisson, cocycle twists,
Rota-Baxter to dendriform, family-to-pair lifting, and the collapse of a
finite carrier to an ordinary algebra.

Derived operations are lazy wrappers over their inputs; on finite carriers
they can be materialized to structure constants for serialization.  When a
construction has a hypothesis that is itself an equation (a symmetry clause,
the Rota-Baxter identity, the pre-Poisson compatibilities) it is verified on
a caller-supplied domain and the construction is refused, with the failing
report, if it does not hold.
"""

from itertools import product

from .axioms import (
    Equation,
    Suite,
    app,
    check_axioms,
    check_rota_baxter,
    finite_domain,
    graded_form,
    lifted_position,
    A,
    X,
    Y,
)
from .errors import ContractError, require
from .lincomb import LinComb
from .ops import FamilyIndexedOp, FiniteRelativeAlgebra, OpCarrier, PairIndexedOp, materialize_pair_op
from .semigroups import check_cocycle, trivial_monoid


def _common_index(op1, op2):
    if op1.index != op2.index:
        raise ContractError("operations live over different index structures")
    return op1.index


def require_commutative(index):
    if not index.claims_commutative:
        raise ContractError("this construction requires a commutative index semigroup")
    return index


def family_to_pair(role, fam):
    """Lift a single-index operation to a pair-indexed one by the role's
    independence pattern: prec reads the second index, succ / ast / circ read
    the first.  The lift is the family's own ``fn``, handed that index."""
    return PairIndexedOp(fam.index, fam.fn, fam.den, reads=(lifted_position(role),))


def pair_role(alg, role):
    """A finite algebra's role as a pair-indexed operation: its own operation,
    or a single-index one lifted by ``family_to_pair``."""
    op = alg.op(role)
    return op if op.arity == 2 else family_to_pair(role, op)


def dend_graftings(construction, index):
    """The construction's product of symbolic prec/succ over index at (0, 1, 0, 1), as its
    signed graftings (k, kind, s, t, i): s, t are positions in (x, y), i one in (a, b)."""
    prec, succ = (FamilyIndexedOp(index, lambda i, s, t, kind=kind: LinComb.single((kind, s, t, i)))
                  for kind in ("prec", "succ"))
    built = construction(family_to_pair("prec", prec), family_to_pair("succ", succ))(0, 1, 0, 1)
    return [(k, *term) for term, k in built]


def assoc_from_dend(prec, succ):
    """mul = succ + prec, pointwise in the index pair."""
    index = _common_index(prec, succ)
    return PairIndexedOp(index, lambda a, b, x, y: succ(a, b, x, y) + prec(a, b, x, y))


def prelie_from_dend(prec, succ):
    """circ(a,b)(x,y) = succ(a,b)(x,y) - prec(b,a)(y,x); needs commutativity
    since the swapped term lands in the same composite index."""
    index = require_commutative(_common_index(prec, succ))
    return PairIndexedOp(index, lambda a, b, x, y: succ(a, b, x, y) - prec(b, a, y, x))


# Named symmetry hypotheses.  The pair-indexed clause swaps both the
# arguments and the index pair (the swap acts on each tensor factor with its
# index); the single-index clause is the literal pointwise coincidence of the
# two operations, kept as a distinct named check.
PAIR_SYMMETRIC = Suite(
    "PairSymmetric",
    (graded_form(Equation("succ_eq_swapped_prec", app("succ", (), X, Y), app("prec", (), Y, X))),),
)

FAMILY_SYMMETRIC = Suite(
    "FamilySymmetric",
    (Equation("succ_eq_prec", app("succ", (A,), X, Y), app("prec", (A,), X, Y)),),
)


def check_pair_symmetric(prec, succ, domain):
    carrier = OpCarrier(_common_index(prec, succ), {"prec": prec, "succ": succ})
    return check_axioms(carrier, PAIR_SYMMETRIC, domain, check_name="hypothesis:PairSymmetric")


def check_family_symmetric(prec, succ, domain):
    carrier = OpCarrier(_common_index(prec, succ), {"prec": prec, "succ": succ})
    return check_axioms(carrier, FAMILY_SYMMETRIC, domain, check_name="hypothesis:FamilySymmetric")


def zinbiel_from_symmetric_dend(prec, succ, domain):
    """ast = succ, legitimate when succ is prec composed with the swap; the
    hypothesis is verified on the given domain before construction."""
    require(check_pair_symmetric(prec, succ, domain))
    return succ


def dend_from_zinbiel(ast):
    """prec(a,b)(x,y) = ast(b,a)(y,x) and succ = ast; the symmetry clause
    succ(a,b)(x,y) = prec(b,a)(y,x) then holds identically."""
    index = require_commutative(ast.index)
    return PairIndexedOp(index, lambda a, b, x, y: ast(b, a, y, x)), ast


def comm_from_zinbiel(ast):
    """mul(a,b)(x,y) = ast(a,b)(x,y) + ast(b,a)(y,x), manifestly symmetric
    under swapping arguments together with indices."""
    index = require_commutative(ast.index)
    return PairIndexedOp(index, lambda a, b, x, y: ast(a, b, x, y) + ast(b, a, y, x))


def lie_from_prelie(circ):
    """bracket(a,b)(x,y) = circ(a,b)(x,y) - circ(b,a)(y,x); skew-symmetry
    holds identically by construction."""
    index = require_commutative(circ.index)
    return PairIndexedOp(index, lambda a, b, x, y: circ(a, b, x, y) - circ(b, a, y, x))


def poisson_from_prepoisson(circ, ast, domain):
    """The symmetrized zinbiel product together with the pre-Lie commutator;
    the pre-Poisson axioms are verified on the domain first."""
    index = require_commutative(_common_index(circ, ast))
    require(
        check_axioms(
            OpCarrier(index, {"ast": ast, "circ": circ}),
            "RelPrePoisson",
            domain,
            check_name="construction:poisson-from-prepoisson:precondition",
        )
    )
    return comm_from_zinbiel(ast), lie_from_prelie(circ)


def cocycle_twist(base, cocycle):
    """Rescale an index-independent associative product by a 2-cocycle,
    producing an algebra over the cocycle's semigroup."""
    if not isinstance(base, FiniteRelativeAlgebra) or "mul" not in base.ops:
        raise ContractError("cocycle twist needs a finite algebra with a 'mul' operation")
    mul = base.op("mul")
    if mul.arity != 2:
        raise ContractError("cocycle twist needs a pair-indexed 'mul'")
    if mul.reads:  # () exactly when one block serves every index pair
        raise ContractError("cocycle twist needs an index-independent product")
    block = base.ops["mul"][0, 0]
    require(
        check_axioms(
            base,
            "RelAssoc",
            finite_domain(base),
            check_name="construction:cocycle-twist:precondition:RelAssoc",
        )
    )
    require(check_cocycle(cocycle))
    semigroup = cocycle.base
    ops = {"mul": {}}
    for a, b in product(range(semigroup.size), repeat=2):
        scale = cocycle(a, b)
        ops["mul"][a, b] = [[[scale * c for c in row] for row in plane] for plane in block]
    unit, w = base.unit_coordinates(), semigroup.unit
    # the unit survives only a cocycle normalised at the semigroup's unit
    if w is None or not all(cocycle(a, w) == 1 == cocycle(w, a) for a in range(semigroup.size)):
        unit = None
    return FiniteRelativeAlgebra(base.basis, semigroup, ops, unit)


def dend_from_rb(rb, window=None):
    """prec(a,b)(x,y) = x . R_b(y) and succ(a,b)(x,y) = R_a(x) . y; the
    Rota-Baxter identity is verified (on the window, when virtual) first."""
    require(check_rota_baxter(rb, window=window))
    mul = rb.carrier.op("mul")
    index = mul.index
    prec = PairIndexedOp(index, lambda a, b, x, y: mul(a, b, x, rb.apply(b, y)))
    succ = PairIndexedOp(index, lambda a, b, x, y: mul(a, b, rb.apply(a, x), y))
    return prec, succ


def collapse(alg):
    """Flatten a finite carrier over a finite index semigroup into an
    ordinary algebra of dimension dim * |S|: basis elements are (vector
    basis, index) pairs and every role, read through ``pair_role``, acts
    componentwise with the index product folded in."""
    if not isinstance(alg, FiniteRelativeAlgebra):
        raise ContractError("collapse is only offered for finite carriers")
    semigroup = alg.index
    dim = alg.dim
    n = semigroup.size
    big = dim * n
    basis = tuple(
        f"{alg.basis[i]}@{semigroup.elements[a]}" for i in range(dim) for a in range(n)
    )

    def flat(i, a):
        return i * n + a

    ops = {}
    for role in alg.roles():
        table = materialize_pair_op(pair_role(alg, role), dim)
        block = [[[0] * big for _ in range(big)] for _ in range(big)]
        for a, b in product(range(n), repeat=2):
            ab = semigroup.mul(a, b)
            source = table[(a, b)]
            for i, j in product(range(dim), repeat=2):
                row = block[flat(i, a)][flat(j, b)]
                for k, c in enumerate(source[i][j]):
                    row[flat(k, ab)] = c
        ops[role] = {(0, 0): block}
    unit = None
    if alg.unit_vector is not None and semigroup.unit is not None:
        unit = [0] * big
        for k, c in alg.unit_vector:
            unit[flat(k, semigroup.unit)] = c
    return FiniteRelativeAlgebra(basis, trivial_monoid(), ops, unit)
