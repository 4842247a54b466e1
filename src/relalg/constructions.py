"""Derived structures: dendriform to associative and pre-Lie, zinbiel to and
from dendriform, pre-Lie to Lie, pre-Poisson to Poisson, cocycle twists,
Rota-Baxter to dendriform, family-to-pair lifting, and the collapse of a
finite carrier to an ordinary algebra.

All but the cocycle twist and the collapse are their defining equations
(``CONSTRUCTIONS``), read in S-graded vector spaces and compiled over the
source operations into lazy ones, which on finite carriers can be
materialized to structure constants for serialization.  A hypothesis that
is itself an equation (a symmetry clause, the Rota-Baxter identity, the
pre-Poisson compatibilities) is verified on a caller-supplied domain first,
and the construction refused, with the failing report, if it does not hold.
"""

from functools import partial
from itertools import product

from .axioms import (App, Equation, Suite, _Compiler, _nodes, _reads_out_of_order, add, app,
                     check_axioms, check_rota_baxter, finite_domain, graded_form, lifted_position,
                     sub, A, B, Ast, Circ, M, P, Rb, S, X, Y)
from .errors import ContractError, require
from .ops import FamilyIndexedOp, FiniteRelativeAlgebra, OpCarrier, PairIndexedOp, materialize_pair_op
from .semigroups import check_cocycle, trivial_monoid


def _common_index(first, *rest):
    if any(op.index != first.index for op in rest):
        raise ContractError("operations live over different index structures")
    return first.index


def family_to_pair(role, fam):
    """Lift a single-index operation to a pair-indexed one by the role's
    independence pattern: prec reads the second index, succ / ast / circ read
    the first.  The lift is the family's own ``fn`` and ``grafts``, handed that index."""
    return PairIndexedOp(fam.index, fam.fn, fam.den, reads=(lifted_position(role),),
                         grafts=fam.grafts)


def pair_role(alg, role):
    """A finite algebra's role as a pair-indexed operation: its own operation,
    or a single-index one lifted by ``family_to_pair``."""
    op = alg.op(role)
    return op if op.arity == 2 else family_to_pair(role, op)


# Named symmetry hypotheses.  The pair-indexed clause swaps both the
# arguments and the index pair (the swap acts on each tensor factor with its
# index); the single-index clause is the literal pointwise coincidence of the
# two operations, kept as a distinct named check.
PAIR_SYMMETRIC = Suite(
    "PairSymmetric", (graded_form(Equation("succ_eq_swapped_prec", S(X, Y), P(Y, X))),)
)

FAMILY_SYMMETRIC = Suite(
    "FamilySymmetric",
    (Equation("succ_eq_prec", app("succ", (A,), X, Y), app("prec", (A,), X, Y)),),
)


def _holds(suite, check_name, carrier, domain):
    return check_axioms(carrier, suite, domain, check_name=check_name)


_pair_symmetric = partial(_holds, PAIR_SYMMETRIC, "hypothesis:PairSymmetric")


def check_pair_symmetric(prec, succ, domain):
    carrier = OpCarrier(_common_index(prec, succ), {"prec": prec, "succ": succ})
    return _pair_symmetric(carrier, domain)


def check_family_symmetric(prec, succ, domain):
    carrier = OpCarrier(_common_index(prec, succ), {"prec": prec, "succ": succ})
    return check_axioms(carrier, FAMILY_SYMMETRIC, domain, check_name="hypothesis:FamilySymmetric")


def _defined(sources, hypothesis=None, **terms):
    graded = {r: graded_form(Equation(r, app(r, (), X, Y), t)).rhs for r, t in terms.items()}
    apps = [n for term in graded.values() for n in _nodes(term) if isinstance(n, App)]
    return sources, hypothesis, graded, any(map(_reads_out_of_order, apps))


# construction name -> (its source roles, in its function's parameter order;
# the hypothesis they must pass first, or None; each derived role's term in
# its definition role(x, y) = term, graded; whether a monomial reads x, y out
# of order, so that the index must claim commutativity, as in a suite)
CONSTRUCTIONS = {
    "assoc-from-dend": _defined(("prec", "succ"), mul=add(P(X, Y), S(X, Y))),
    "prelie-from-dend": _defined(("prec", "succ"), circ=sub(S(X, Y), P(Y, X))),
    "zinbiel-from-symmetric-dend": _defined(("prec", "succ"), _pair_symmetric, ast=S(X, Y)),
    "dend-from-zinbiel": _defined(("ast",), prec=Ast(Y, X), succ=Ast(X, Y)),
    "comm-from-zinbiel": _defined(("ast",), mul=add(Ast(X, Y), Ast(Y, X))),
    "lie-from-prelie": _defined(("circ",), bracket=sub(Circ(X, Y), Circ(Y, X))),
    "poisson-from-prepoisson": _defined(
        ("circ", "ast"),
        partial(_holds, "RelPrePoisson", "construction:poisson-from-prepoisson:precondition"),
        mul=add(Ast(X, Y), Ast(Y, X)),
        bracket=sub(Circ(X, Y), Circ(Y, X)),
    ),
    "dend-from-rb": _defined(
        ("mul", "rb"),
        lambda carrier, given: check_rota_baxter(*given),
        prec=M(X, Rb(Y)),
        succ=M(Rb(X), Y),
    ),
}


def _construct(name, *sources, given=None):
    """The operation of each derived role of ``name`` on ``sources`` (one
    alone bare), once their index claims commutativity if required and the
    hypothesis holds on ``given``: the caller's domain, or a Rota-Baxter
    family and its window."""
    roles, hypothesis, terms, requires_commutative = CONSTRUCTIONS[name]
    index, ops = _common_index(*sources), dict(zip(roles, sources))
    if requires_commutative and not index.claims_commutative:
        raise ContractError("this construction requires a commutative index semigroup")
    if hypothesis is not None:
        require(hypothesis(OpCarrier(index, ops), given))
    built = [_compiled(term, ops, index) for term in terms.values()]
    return tuple(built) if len(built) > 1 else built[0]


def _compiled(term, ops, index):
    """A graded term as a pair-indexed operation: a source at (a, b, x, y) is
    that source; any other term is compiled once, and its ``fn``, handed the
    index positions the term reads, then x, y, fills any other position.  A
    term whose compiled value is one graft sum states its graftings as the
    operation's ``grafts``, handed the same arguments."""
    if isinstance(term, App) and term.idx == (A, B) and term.args == (X, Y):
        return ops[term.role]
    closure, scale, reads, _, grafts = _Compiler(ops, index, None).expr(term, 2, None)
    reads = tuple(sorted(reads & {0, 1}))
    pad = 2 - len(reads)

    def padded(f):
        return lambda *args: f(args[:1] * pad + args)

    grafts = None if grafts is None else (grafts[0], padded(grafts[1]))
    return PairIndexedOp(index, padded(closure), scale, reads, grafts=grafts)


def assoc_from_dend(prec, succ):
    return _construct("assoc-from-dend", prec, succ)


def prelie_from_dend(prec, succ):
    return _construct("prelie-from-dend", prec, succ)


def zinbiel_from_symmetric_dend(prec, succ, domain):
    return _construct("zinbiel-from-symmetric-dend", prec, succ, given=domain)


def dend_from_zinbiel(ast):
    return _construct("dend-from-zinbiel", ast)


def comm_from_zinbiel(ast):
    return _construct("comm-from-zinbiel", ast)


def lie_from_prelie(circ):
    return _construct("lie-from-prelie", circ)


def poisson_from_prepoisson(circ, ast, domain):
    return _construct("poisson-from-prepoisson", circ, ast, given=domain)


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
    check_name = "construction:cocycle-twist:precondition:RelAssoc"
    require(check_axioms(base, "RelAssoc", finite_domain(base), check_name=check_name))
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
    """The Rota-Baxter identity is checked on ``window`` when the index is virtual."""
    family = FamilyIndexedOp(rb.carrier.index, rb.apply)
    return _construct("dend-from-rb", rb.carrier.op("mul"), family, given=(rb, window))


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
