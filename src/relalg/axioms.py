"""The equation engine: axiom suites written as small term trees, compiled
once per check and evaluated exactly over enumerated or sampled domains.

Each suite is a closed list of equations over operation roles.  An equation's
sides are expressions built from element variables x, y, z, index variables
a, b, c, indexed applications of roles, and formal sums; index slots carry
index expressions (variables, the unit, or products computed in the carrier's
index structure).  The term trees are the source of truth: ``graded_form``
indexes the ``Rel*`` suites, stated as ordinary equations, by reading them in
S-graded vector spaces, and ``family_form`` rewrites those into the ``Fam*``
suites.  A check compiles each equation it reaches once, into nested closures
over the carrier's resolved operations, and runs an element tuple only at
the index tuples holding the first index element at each index variable no
application is handed; a subterm that does not read the scan's innermost
variable is evaluated once per change of the variables it reads.
A scan reading no index, over every basis tuple, evaluates only the innermost
vectors at which a side can be nonzero by its operations' ``pattern``s.
Evaluation is exact; two sides are equal iff their normalized linear
combinations coincide.  A compiled term returns its value times a scale the
compiler tracks; every operation is multilinear, so the two sides compare at
their common scale, and a counterexample is divided back.  A Rota-Baxter
check reads its family once, at the index elements its scan reaches, so that
scan too runs on integers.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice, product
from math import lcm
from operator import itemgetter

from .errors import ContractError
from .lincomb import LinComb
from .ops import ZERO, divide_back
from .reports import scan
from .semigroups import DimonoidTable, SemigroupTable, VirtualSemigroup, read_window

# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class IxVar:
    name: str


@dataclass(frozen=True)
class IxUnit:
    pass


@dataclass(frozen=True)
class IxProd:
    kind: str  # "mul" for semigroups, "left"/"right" for dimonoids
    a: object
    b: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class UnitElem:
    pass


@dataclass(frozen=True)
class App:
    role: str
    idx: tuple
    args: tuple


@dataclass(frozen=True)
class Lin:
    terms: tuple  # of (scalar, expr)


A, B, C = IxVar("a"), IxVar("b"), IxVar("c")
X, Y, Z = Var("x"), Var("y"), Var("z")
OMEGA = IxUnit()
UNIT = UnitElem()
ZERO_EXPR = Lin(())


def mul(i, j):
    return IxProd("mul", i, j)


def dleft(i, j):
    return IxProd("left", i, j)


def dright(i, j):
    return IxProd("right", i, j)


def app(role, idx, *args):
    return App(role, tuple(idx) if isinstance(idx, (tuple, list)) else (idx,), tuple(args))


def add(*exprs):
    return Lin(tuple((1, e) for e in exprs))


def sub(e1, e2):
    return Lin(((1, e1), (-1, e2)))


_VARS = ("x", "y", "z")
_IVARS = ("a", "b", "c")
_VAR_POSITION = {name: k for k, name in enumerate(_VARS)}


def _nodes(node):
    """``node`` and every node under it, an application's indices first."""
    yield node
    if isinstance(node, IxProd):
        children = (node.a, node.b)
    elif isinstance(node, App):
        children = node.idx + node.args
    else:
        children = [e for _, e in node.terms] if isinstance(node, Lin) else ()
    for child in children:
        yield from _nodes(child)


def _variables(node, kinds=(Var, IxVar)):
    """The names of the variables of ``kinds`` a term or index tree reads."""
    return {n.name for n in _nodes(node) if isinstance(n, kinds)}


@dataclass(frozen=True)
class Equation:
    """``n_elem``, ``n_idx``, ``apps`` and ``roles`` are read off the terms:
    one past the highest position of x, y, z and of a, b, c that either side
    uses, the applications, and the roles they apply, in order of first use."""

    eqid: str
    lhs: object
    rhs: object
    n_elem: int = field(init=False)
    n_idx: int = field(init=False)
    apps: tuple = field(init=False, repr=False, compare=False)
    roles: tuple = field(init=False)

    def __post_init__(self):
        nodes = [*_nodes(self.lhs), *_nodes(self.rhs)]
        used = {n.name for n in nodes if isinstance(n, (Var, IxVar))}
        object.__setattr__(self, "n_elem", _arity(_VARS, used))
        object.__setattr__(self, "n_idx", _arity(_IVARS, used))
        object.__setattr__(self, "apps", tuple(n for n in nodes if isinstance(n, App)))
        object.__setattr__(self, "roles", tuple(dict.fromkeys(n.role for n in self.apps)))


def _arity(names, used):
    """One past the highest position in ``names`` of a variable in ``used``."""
    return max((k + 1 for k, name in enumerate(names) if name in used), default=0)


def _reads_out_of_order(application):
    """Whether a monomial through ``application`` reads x, y, z out of order:
    one argument reads a variable that precedes one an earlier argument reads."""
    read = [[_VAR_POSITION[v] for v in _variables(arg, Var)] for arg in application.args]
    return any(max(r) > min(s) for k, r in enumerate(read) if r for s in read[k + 1 :] if s)


@dataclass(frozen=True)
class Suite:
    """A name and equations; the other facts are read off the terms, once:
    the roles applied, in order of first use; their index count; "dimonoid"
    when an index product is a dimonoid's left or right one; whether the
    unit or the index unit is named; and whether a monomial reads x, y, z
    out of order.  Read in S-graded vector spaces, one that reads y before
    x has degree ba, not ab, and the two match only when S is commutative."""

    name: str
    equations: tuple
    roles: tuple = field(init=False)
    op_arity: int = field(init=False)
    index_kind: str = field(init=False)
    requires_unit: bool = field(init=False)
    requires_commutative: bool = field(init=False)

    def __post_init__(self):
        nodes = [n for e in self.equations for side in (e.lhs, e.rhs) for n in _nodes(side)]
        apps = [n for n in nodes if isinstance(n, App)]
        arities = {len(n.idx) for n in apps}
        if len(arities) > 1:
            raise ContractError(f"suite {self.name} applies roles at {sorted(arities)} indices")
        dimonoid = any(isinstance(n, IxProd) and n.kind != "mul" for n in nodes)
        roles = dict.fromkeys(r for e in self.equations for r in e.roles)
        object.__setattr__(self, "roles", tuple(roles))
        object.__setattr__(self, "op_arity", max(arities, default=0))
        object.__setattr__(self, "index_kind", "dimonoid" if dimonoid else "semigroup")
        unit = any(isinstance(n, (UnitElem, IxUnit)) for n in nodes)
        object.__setattr__(self, "requires_unit", unit)
        object.__setattr__(self, "requires_commutative", any(map(_reads_out_of_order, apps)))


# The attribute under which a finite index stores each product kind's table.
_TABLE = {"mul": "product", "left": "left", "right": "right"}


class _Compiler:
    """Compiles the expressions of one check over its ``ops``, ``index`` and
    ``unit_vector``.  An instance is one tuple ``env``: index elements a, b, c,
    then vectors x, y, z from position ``n_idx``, each an ``itemgetter`` read.
    An expression becomes a closure ``env -> LinComb`` returning its value
    times its scale, the scale, the positions it reads and its demand; an index
    expression a closure ``env -> element`` and its positions.  An operation
    wrapper is called through its ``fn``, unchecked, which returns ``den`` times
    the product; an application compiles only the index expressions it hands
    its operation (``handed``).  A unit the carrier lacks is refused.  The
    demand ``(env, target) -> mask`` of a term that reads ``inner`` once maps
    the basis positions of its value that matter to those of ``inner`` at which
    one can be nonzero: an application narrows them by its ``pattern`` and its
    other argument's value, a sum takes the union.  An application of an
    operation with ``grafts`` also gives its signed graftings, ``(graft_sum,
    env -> terms)``, each term ``(k, basis, s, t, a)`` as its carrier's
    ``_ops`` built it; a hoisted term drops them.  A formal sum with two or
    more such terms, all on one carrier, takes them as one ``graft_sum`` of all
    their graftings, each ``k`` times its term's coefficient; its other terms,
    the hoisted ones among them, are added to that value.  A sum with no other
    terms gives that graft sum's graftings as its own, so a term compiled into
    an operation states them too.

    The closures hold no reference to the compiler, and the compiler none to
    itself, so a carrier is freed as soon as its check ends."""

    def __init__(self, ops, index, unit_vector):
        self.ops = {r: (getattr(op, "fn", op), getattr(op, "den", 1), getattr(op, "reads", None),
                        _narrowing(getattr(op, "pattern", None)), getattr(op, "grafts", None))
                    for r, op in ops.items()}
        self.index = index
        self.unit_vector = unit_vector

    def index_expr(self, ix):
        if isinstance(ix, IxVar):
            k = _IVARS.index(ix.name)
            return itemgetter(k), {k}
        if isinstance(ix, IxUnit):
            unit = self.index.unit
            if unit is None:
                raise ContractError("suite requires a unit element in the index structure")
            return (lambda env: unit), set()
        (left, left_reads), (right, right_reads) = map(self.index_expr, (ix.a, ix.b))
        kind, reads = ix.kind, left_reads | right_reads
        table = getattr(self.index, _TABLE[kind], None)
        if table is not None:
            return (lambda env: table[left(env)][right(env)]), reads
        if kind == "mul" and isinstance(self.index, VirtualSemigroup):
            op = self.index.op
            return (lambda env: op(left(env), right(env))), reads
        # an index lacking this kind is asked at each instance, and raises there
        prod = self.index.prod
        return (lambda env: prod(kind, left(env), right(env))), reads

    def expr(self, expr, n_idx, inner):
        """The closure of ``expr``, its scale, the positions it reads, its
        demand on ``inner`` and its graftings."""
        if isinstance(expr, Var):
            k = n_idx + _VAR_POSITION[expr.name]
            return itemgetter(k), 1, {k}, ((lambda env, target: target) if k == inner else None), None
        if isinstance(expr, UnitElem):
            unit_vector = self.unit_vector
            if unit_vector is None:
                raise ContractError("suite requires a declared unit vector")
            return (lambda env: unit_vector), 1, set(), None, None
        if isinstance(expr, App):
            # plain loops: on CPython 3.11 a comprehension is a call with its own frame
            fn, den, _, narrowing, grafts = self.ops[expr.role]
            idx, reads = [], set()
            for ix in self.handed(expr):
                f, r = self.index_expr(ix)
                idx.append(f)
                reads |= r
            args, reads = self.subterms(expr.args, n_idx, inner, reads)
            scale, fns = den, []
            for f, s, *_ in args:
                scale *= s
                fns.append(f)
            if grafts is not None:
                grafts = grafts[0], _compile_app(grafts[1], idx, fns)
            return _compile_app(fn, idx, fns), scale, reads, _narrow(narrowing, args, inner), grafts
        if isinstance(expr, Lin):
            nodes = []
            for _, e in expr.terms:
                nodes.append(e)
            args, reads = self.subterms(nodes, n_idx, inner)
            terms, demands = [], []
            for (c, _), (f, s, _, d, g) in zip(expr.terms, args):
                terms.append((c, (f, g), s))
                demands.append(d)
            terms, scale = _common_scale(terms)
            closure, grafts = _compile_lin(terms)
            return closure, scale, reads, None if None in demands else _union(demands), grafts
        raise TypeError(f"unknown expression node {expr!r}")

    def handed(self, application):
        """The index expressions at its operation's ``reads``, or all."""
        idx, op_reads = application.idx, self.ops[application.role][2]
        if op_reads is None:
            return idx
        handed = []
        for k in op_reads:
            handed.append(idx[k])
        return handed

    def subterms(self, nodes, n_idx, inner, reads=frozenset()):
        """The compiled ``nodes``, and the positions they and ``reads`` read.
        If these include ``inner``, the position the scan changes on every
        instance, each application or formal sum among the nodes that reads
        variables but not ``inner`` is evaluated once per change of them."""
        compiled, reads = [], set(reads)
        for node in nodes:
            term = self.expr(node, n_idx, inner)
            compiled.append(term)
            reads |= term[2]
        hoist, out = inner in reads, []
        for node, (f, s, r, d, g) in zip(nodes, compiled):
            if hoist and r and inner not in r and isinstance(node, (App, Lin)):
                out.append((_last_value(f, r), s, r, d, None))
            else:
                out.append((f, s, r, d, g))
        return out, reads


def _last_value(closure, reads):
    """``closure``, returning its last value while the key read at ``reads``
    compares equal to the last key (at first a fresh object, equal to none);
    a changed key recomputes, whatever the scan order."""
    key, last_key, last_value = itemgetter(*sorted(reads)), object(), None

    def hoisted(env):
        nonlocal last_key, last_value
        k = key(env)
        if k != last_key:
            last_value, last_key = closure(env), k
        return last_value

    return hoisted


def _narrowing(pattern):
    """For each argument position and basis position i of the other argument,
    the ``(bit, mask)`` of each position whose product with e_i is not zero."""
    if pattern is not None:
        return [[[(1 << j, m) for j, m in enumerate(row) if m] for row in rows]
                for rows in (zip(*pattern), pattern)]


def _narrow(narrowing, args, inner):
    """The demand of an application of two arguments, one of which reads
    ``inner`` and has a demand: that one's on the positions whose product
    with the other argument's value meets the target."""
    if narrowing is None or len(args) != 2:
        return None
    demands = []
    for p, (_, _, r, d, _) in enumerate(args):
        if inner in r:
            demands.append((p, d))
    if len(demands) != 1 or demands[0][1] is None:
        return None
    ((p, demand),) = demands
    other, table = args[1 - p][0], narrowing[p]

    def narrowed(env, target):
        mask = 0
        for i in other(env)._terms:
            for bit, m in table[i]:
                if m & target:
                    mask |= bit
        return mask and demand(env, mask)

    return narrowed


def _compile_app(op, idx, args):
    if not idx and len(args) == 2:  # an operation that reads no index
        x, y = args
        return lambda env: op(x(env), y(env))
    if len(idx) == 2 and len(args) == 2:  # pair-indexed operation
        (a, b), (x, y) = idx, args
        return lambda env: op(a(env), b(env), x(env), y(env))
    if len(idx) == 1 and len(args) == 2:  # family-indexed, or reads one index of its pair
        (a,), (x, y) = idx, args
        return lambda env: op(a(env), x(env), y(env))
    if len(idx) == 1 and len(args) == 1:  # family of linear maps
        (a,), (x,) = idx, args
        return lambda env: op(a(env), x(env))
    parts = idx + args
    return lambda env: op(*[f(env) for f in parts])


def _zero(env):
    return ZERO


def _union(demands):
    """The demand of a formal sum: the union of its terms' ``demands``."""

    def union(env, target):
        mask = 0
        for demand in demands:
            mask |= demand(env, target)
        return mask

    return union


def _common_scale(terms):
    """``(coeff, closure, scale)`` terms as ``(coeff, closure)`` terms at the
    lcm of their scales, each coefficient multiplied up, and that lcm."""
    common, scaled = 1, []
    for _, _, scale in terms:
        common = lcm(common, scale)
    for coeff, term, scale in terms:
        scaled.append((coeff * (common // scale), term))
    return scaled, common


def _compile_lin(terms):
    """A formal sum of ``(coeff, (closure, graftings))`` terms, as its closure
    and its graftings: folded term by term onto one shared zero, a coefficient
    of 1 or -1 an add or a subtract, any other a scale and an add.  Two or more
    terms with graftings, all on one carrier, are instead one graft sum of
    their graftings, each ``k`` times its coefficient (``basis`` and ``a`` as
    built), onto which the rest fold; a sum taken whole states them as its own."""
    acc, grafts, parts, rest, carriers = _zero, None, [], [], set()
    for c, (f, g) in terms:
        if g is None:
            rest.append((c, f))
        else:
            parts.append((c, g[1]))
            carriers.add(g[0])
    if len(parts) > 1 and len(carriers) == 1:
        (graft_sum,) = carriers

        def graftings(env):
            out = []
            for c, terms in parts:
                for k, basis, s, t, a in terms(env):
                    out.append((c * k, basis, s, t, a))
            return out

        def acc(env):
            return graft_sum(graftings(env))

        grafts = None if rest else (graft_sum, graftings)
    else:
        rest = []
        for c, (f, _) in terms:
            rest.append((c, f))
    for coeff, term in rest:
        acc = _add_term(acc, coeff, term)
    return acc, grafts


def _add_term(acc, coeff, term):
    if coeff == 1:
        return lambda env: acc(env) + term(env)
    if coeff == -1:
        return lambda env: acc(env) - term(env)
    return lambda env: acc(env) + term(env).scale(coeff)


def eval_index(ix, env, index):
    """One index expression under ``env`` (variable name -> element),
    compiled and run once."""
    idxs = tuple(env[name] for name in _IVARS[: len(env)])
    return _Compiler({}, index, None).index_expr(ix)[0](idxs)


def eval_expr(expr, elem_env, idx_env, ops, index, unit_vector):
    """One expression under name environments, compiled and run once, so
    nothing hoisted.  The checks compile each equation once instead."""
    env = tuple(idx_env[name] for name in _IVARS[: len(idx_env)])
    env += tuple(elem_env[name] for name in _VARS[: len(elem_env)])
    closure, scale, *_ = _Compiler(ops, index, unit_vector).expr(expr, len(idx_env), None)
    return divide_back(closure(env), scale)


# ---------------------------------------------------------------------------
# the suites

# The independence pattern of each single-index role: the position in the
# index pair that the role reads once lifted to a pair-indexed operation.
_LIFTED_POSITION = {"prec": 1, "succ": 0, "ast": 0, "circ": 0}


def lifted_position(role):
    if role not in _LIFTED_POSITION:
        raise ContractError(f"no pair lifting for role {role!r}")
    return _LIFTED_POSITION[role]


def _rename_index(ix, rename):
    if isinstance(ix, IxProd):
        return IxProd(ix.kind, _rename_index(ix.a, rename), _rename_index(ix.b, rename))
    return IxVar(rename(ix.name)) if isinstance(ix, IxVar) else ix


def _family_expr(expr, rename):
    """Keep in each application only the index its role reads once lifted,
    with the index variables renamed by ``rename``."""
    if isinstance(expr, App):
        ix = _rename_index(expr.idx[lifted_position(expr.role)], rename)
        return App(expr.role, (ix,), tuple(_family_expr(e, rename) for e in expr.args))
    if isinstance(expr, Lin):
        return Lin(tuple((c, _family_expr(e, rename)) for c, e in expr.terms))
    return expr


def family_form(equation):
    """The single-index reading of a pair-indexed equation.  The index
    variables left are renamed a, b, ... in their original order."""
    sides = (equation.lhs, equation.rhs)
    kept = set().union(*(_variables(_family_expr(side, lambda name: name)) for side in sides))
    names = dict(zip(sorted(kept & set(_IVARS)), _IVARS))
    lhs, rhs = (_family_expr(side, names.__getitem__) for side in sides)
    return replace(equation, lhs=lhs, rhs=rhs)


def _graded_expr(expr):
    """``expr`` with every application indexed, and the degree of ``expr``."""
    if isinstance(expr, Var):
        return expr, IxVar(_IVARS[_VAR_POSITION[expr.name]])
    if isinstance(expr, UnitElem):
        return expr, OMEGA
    if isinstance(expr, Lin):
        terms = [(c, *_graded_expr(e)) for c, e in expr.terms]
        return Lin(tuple((c, e) for c, e, _ in terms)), (terms[0][2] if terms else None)
    args, degrees = zip(*map(_graded_expr, expr.args))
    return App(expr.role, degrees, args), (mul(*degrees) if len(degrees) == 2 else degrees[0])


def graded_form(equation):
    """The S-indexed reading of an ordinary equation in S-graded vector spaces.
    x, y, z have degrees a, b, c, and the unit OMEGA.  An application is indexed
    by its arguments' degrees; a binary one has their product as its degree, a
    unary one its argument's.  A sum has the degree of its first term."""
    lhs, rhs = (_graded_expr(side)[0] for side in (equation.lhs, equation.rhs))
    return replace(equation, lhs=lhs, rhs=rhs)


def _suite_table():
    eq = Equation

    def rel(eqid, lhs, rhs):  # an ordinary equation, read in S-graded vector spaces
        return graded_form(eq(eqid, lhs, rhs))

    assoc = rel("assoc", M(M(X, Y), Z), M(X, M(Y, Z)))
    comm = rel("comm", M(X, Y), M(Y, X))
    unit_right = rel("unit_right", M(X, UNIT), X)
    unit_left = rel("unit_left", M(UNIT, X), X)
    skew = rel("skew", add(Br(X, Y), Br(Y, X)), ZERO_EXPR)
    jacobi = rel("jacobi", add(Br(Br(X, Y), Z), Br(Br(Z, X), Y), Br(Br(Y, Z), X)), ZERO_EXPR)
    leibniz = rel("leibniz", Br(X, M(Y, Z)), add(M(Br(X, Y), Z), M(Y, Br(X, Z))))
    rel_dend = (
        rel("dend1", P(P(X, Y), Z), P(X, add(P(Y, Z), S(Y, Z)))),
        rel("dend2", P(S(X, Y), Z), S(X, P(Y, Z))),
        rel("dend3", S(add(P(X, Y), S(X, Y)), Z), S(X, S(Y, Z))),
    )
    rel_zinbiel = rel("zinbiel", Ast(X, Ast(Y, Z)), add(Ast(Ast(X, Y), Z), Ast(Ast(Y, X), Z)))
    rel_prelie = rel(
        "prelie",
        sub(Circ(X, Circ(Y, Z)), Circ(Circ(X, Y), Z)),
        sub(Circ(Y, Circ(X, Z)), Circ(Circ(Y, X), Z)),
    )
    # sums of degrees ab and ba under ast and circ: these suites need a commutative index
    rel_prepoisson = (
        rel(
            "prepoisson1",
            Ast(sub(Circ(X, Y), Circ(Y, X)), Z),
            sub(Circ(X, Ast(Y, Z)), Ast(Y, Circ(X, Z))),
        ),
        rel(
            "prepoisson2",
            Circ(add(Ast(X, Y), Ast(Y, X)), Z),
            add(Ast(X, Circ(Y, Z)), Ast(Y, Circ(X, Z))),
        ),
    )
    # stated, not lifted: lifting gives ast_{ba} in term two; zinbiel_swap has no Rel form
    fam_zinbiel = (
        eq(
            "zinbiel",
            app("ast", (A,), X, app("ast", (B,), Y, Z)),
            add(
                app("ast", (mul(A, B),), app("ast", (A,), X, Y), Z),
                app("ast", (mul(A, B),), app("ast", (B,), Y, X), Z),
            ),
        ),
        eq(
            "zinbiel_swap",
            app("ast", (A,), X, app("ast", (B,), Y, Z)),
            app("ast", (B,), Y, app("ast", (A,), X, Z)),
        ),
    )
    # dimonoid-indexed single-index dendriform axioms: index products split
    # into the left/right dimonoid operations
    dimo_dend = (
        eq(
            "dend1",
            app("prec", (B,), app("prec", (A,), X, Y), Z),
            add(
                app("prec", (dleft(A, B),), X, app("prec", (B,), Y, Z)),
                app("prec", (dright(A, B),), X, app("succ", (A,), Y, Z)),
            ),
        ),
        eq(
            "dend2",
            app("prec", (B,), app("succ", (A,), X, Y), Z),
            app("succ", (A,), X, app("prec", (B,), Y, Z)),
        ),
        eq(
            "dend3",
            add(
                app("succ", (dleft(A, B),), app("prec", (B,), X, Y), Z),
                app("succ", (dright(A, B),), app("succ", (A,), X, Y), Z),
            ),
            app("succ", (A,), X, app("succ", (B,), Y, Z)),
        ),
    )

    suites = [
        Suite("RelAssoc", (assoc,)),
        Suite("RelUnital", (unit_right, unit_left)),
        Suite("RelComm", (assoc, comm)),
        Suite("RelLie", (skew, jacobi)),
        Suite("RelPoisson", (assoc, comm, skew, jacobi, leibniz)),
        Suite("RelDendriform", rel_dend),
        Suite("RelZinbiel", (rel_zinbiel,)),
        Suite("RelPreLie", (rel_prelie,)),
        Suite("RelPrePoisson", (rel_zinbiel, rel_prelie) + rel_prepoisson),
        Suite("FamDendriform", tuple(map(family_form, rel_dend))),
        Suite("FamZinbiel", fam_zinbiel),
        Suite("FamPreLie", (family_form(rel_prelie),)),
        Suite(
            "FamPrePoisson", fam_zinbiel + tuple(map(family_form, (rel_prelie,) + rel_prepoisson))
        ),
        Suite("DimonoidDendriform", dimo_dend),
    ]
    return {s.name: s for s in suites}


# an unindexed application of each role, as the suites and the constructions state them
M, Br, P, S, Ast, Circ, Rb = (
    partial(app, role, ()) for role in ("mul", "bracket", "prec", "succ", "ast", "circ", "rb")
)
SUITES = _suite_table()
ROTA_BAXTER_EQUATION = graded_form(
    Equation("rota_baxter", M(Rb(X), Rb(Y)), Rb(add(M(Rb(X), Y), M(X, Rb(Y)))))
)


# ---------------------------------------------------------------------------
# evaluation domains


class FiniteDomain:
    """Exhaustive basis tuples and index tuples for a finite carrier:
    ``elements`` yields tuples of basis vectors, and an optional predicate on
    basis-position tuples restricts them; ``render_basis`` names a position,
    and ``show`` renders a vector by its positions' names."""

    def __init__(self, basis_names, index_elems, basis_filter=None):
        self.basis_names = list(basis_names)
        self.index_elems = list(index_elems)
        self.index_size = len(self.index_elems)
        self.basis_filter = basis_filter

    def elements(self, k):
        # one basis vector per position, shared by every tuple of the scan
        points = [LinComb.single(i) for i in range(len(self.basis_names))]
        if self.basis_filter is None:
            return product(points, repeat=k)
        return (
            tuple(points[i] for i in combo)
            for combo in product(range(len(points)), repeat=k)
            if self.basis_filter(combo)
        )

    def indices(self, m):
        return product(self.index_elems, repeat=m)

    def render_basis(self, b):
        return self.basis_names[b]

    def show(self, vec):
        return vec.to_pairs(self.render_basis)


def finite_domain(algebra, basis_filter=None):
    return FiniteDomain(_carrier_basis_names(algebra), range(algebra.index.size), basis_filter)


def window_domain(basis_names, window):
    """Domain for virtual-index carriers: exhaustive basis, caller-chosen
    finite, nonempty index window naming each element once."""
    return FiniteDomain(basis_names, read_window(window))


# ---------------------------------------------------------------------------
# the checker


def _resolve_suite(suite):
    if isinstance(suite, Suite):
        return suite
    try:
        return SUITES[suite]
    except KeyError:
        raise ContractError(f"unknown axiom suite {suite!r}") from None


def _validate_carrier(carrier, suite):
    index = carrier.index
    kinds = DimonoidTable if suite.index_kind == "dimonoid" else (SemigroupTable, VirtualSemigroup)
    if not isinstance(index, kinds):
        raise ContractError(f"suite {suite.name} needs a {suite.index_kind} index structure")
    if suite.requires_commutative and not index.claims_commutative:
        raise ContractError(f"suite {suite.name} requires a commutative index semigroup")
    if suite.requires_unit and index.unit is None:
        raise ContractError(f"suite {suite.name} requires a monoid index")
    ops = {}
    for role in suite.roles:
        op = carrier.op(role)
        arity = getattr(op, "arity", None)
        if arity != suite.op_arity:
            raise ContractError(
                f"role {role!r} has index arity {arity}, suite {suite.name} "
                f"expects {suite.op_arity}"
            )
        ops[role] = op
    if suite.requires_unit and carrier.unit_vector is None:
        raise ContractError(f"suite {suite.name} requires a declared unit vector")
    return ops


def _equation_instances(equations, domain, ops, index, unit_vector, per_equation):
    """Instances of each equation in turn: element tuples then index tuples in
    domain order.  A side reads only the index variables its applications are
    handed (``_Compiler.handed``), R, so an element tuple is evaluated only at
    the index tuples holding the first index element outside R (with R empty,
    the first alone); the others pass with it, each the values of one before
    it.  The sides compare at their common scale.  Passing instances come as
    run counts, a counterexample's rank among its element tuple's index tuples
    included; a counterexample as both sides divided back, named by
    ``domain.render_basis`` and ``index.name``.  ``per_equation`` counts the
    instances handed out per equation, including equations reached with none.
    With R empty, over all basis tuples of a ``FiniteDomain``, only the last
    vectors the sides' demands name are evaluated; both vanish elsewhere.
    Otherwise, given a domain's ``columns`` (index ids over a power of the
    index, ``SampledTreeDomain``), the first element tuple is taken at each
    index tuple, and every later one once, at the first ``n_idx`` columns, and
    again at each index tuple only where its sides differ there.  Each side is
    compiled once."""
    compiler = _Compiler(ops, index, unit_vector)
    label, name = _basis_name(domain), index.name
    every_tuple = isinstance(domain, FiniteDomain) and domain.basis_filter is None
    columns = getattr(domain, "columns", None)
    for equation in equations:
        eqid, n_idx, n_elem = equation.eqid, equation.n_idx, equation.n_elem
        pair, tuples = (equation.lhs, equation.rhs), domain.index_size**n_idx
        reads = set()
        for application in equation.apps:
            for ix in compiler.handed(application):
                for v in _variables(ix):
                    reads.add(_IVARS.index(v))
        once = tuples <= 1 or not reads
        inner = n_idx + n_elem - 1 if once else max(reads)
        taken = _index_tuples(domain, n_idx, () if once else reads)
        lhs, rhs, demands, scale = _sides(compiler, pair, n_idx, inner)
        if once and n_elem and taken() and every_tuple and None not in demands:
            count, failed = _demanded_scan(lhs, rhs, *demands, domain, taken()[0][1], n_elem, tuples)
        else:
            at = None if once or columns is None else columns[:n_idx]
            count, failed = _full_scan(lhs, rhs, domain, n_elem, taken, tuples, at)
        per_equation[eqid] = count + (failed is not None)
        yield count
        if failed is not None:
            idxs, vectors, left, right = failed
            labels, names = map(label, vectors), map(name, idxs)
            yield eqid, labels, names, divide_back(left, scale), divide_back(right, scale)
            return


def _sides(compiler, pair, n_idx, inner):
    """The two sides compiled at their common scale, their demands and that scale."""
    sides, _ = compiler.subterms(pair, n_idx, inner, {inner})
    demands, terms = [], []
    for f, s, _, d, _ in sides:
        demands.append(d)
        terms.append((1, f, s))
    ((k, lhs), (m, rhs)), scale = _common_scale(terms)
    lhs = lhs if k == 1 else _add_term(_zero, k, lhs)
    rhs = rhs if m == 1 else _add_term(_zero, m, rhs)
    return lhs, rhs, demands, scale


def _index_tuples(domain, n_idx, reads):
    """The function giving the ranked index tuples a scan takes at each element tuple."""
    first = list(islice(enumerate(domain.indices(n_idx)), 1))
    outside = [k for k in range(n_idx) if k not in reads]
    if not reads:
        return lambda: first
    if not outside:
        return lambda: enumerate(domain.indices(n_idx))
    held = first[0][1][0]
    return lambda: ((r, idxs) for r, idxs in enumerate(domain.indices(n_idx))
                    if all(idxs[k] == held for k in outside))


def _full_scan(lhs, rhs, domain, n_elem, taken, tuples, columns=None):
    """Instances passed before the first failure, and its ``(idxs, vectors, left, right)``
    or None.  Given ``columns``, index ids at which the sides are evaluated at every
    index tuple at once, an element tuple after the first whose sides agree there
    passes all of its ``tuples`` instances, and only the others are taken per index tuple."""
    count = 0
    for k, vectors in enumerate(domain.elements(n_elem)):
        if k and columns is not None:
            env = columns + vectors
            if lhs(env)._terms == rhs(env)._terms:
                count += tuples
                continue
        for rank, idxs in taken():
            env = idxs + vectors
            left, right = lhs(env), rhs(env)
            if left._terms != right._terms:
                return count + rank, (idxs, vectors, left, right)
        count += tuples
    return count, None


def _demanded_scan(lhs, rhs, lhs_demand, rhs_demand, domain, idxs, n_elem, tuples):
    """``_full_scan`` taking only ``idxs``, evaluating after each shorter
    element tuple only the last vectors the sides' demands name."""
    points = [vector for vector, in domain.elements(1)]
    every, count = (1 << len(points)) - 1, 0
    for head in domain.elements(n_elem - 1):
        env = idxs + head + (ZERO,)  # a demand never reads the last vector
        mask = (lhs_demand(env, -1) | rhs_demand(env, -1)) & every
        while mask:
            k = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            vectors = head + (points[k],)
            env = idxs + vectors
            left, right = lhs(env), rhs(env)
            if left._terms != right._terms:
                return count + k * tuples, (idxs, vectors, left, right)
        count += len(points) * tuples
    return count, None


def _basis_name(domain):
    """The name of a basis vector: its basis element's, by ``domain``."""
    return lambda vector: domain.render_basis(vector.items()[0][0])


def check_axioms(carrier, suite, domain, check_name=None):
    """Verify every equation of the suite over the domain, exactly.

    The scan is deterministic: equations in suite order, element tuples then
    index tuples in domain order; the first violation is reported.  A scan
    that would pass with no instance of some equation is refused instead.
    """
    suite = _resolve_suite(suite)
    ops = _validate_carrier(carrier, suite)
    per_equation = {}
    instances = _equation_instances(
        suite.equations, domain, ops, carrier.index, carrier.unit_vector, per_equation
    )
    report = scan(check_name or f"axioms:{suite.name}", instances, domain.show)
    empty = [eqid for eqid, count in per_equation.items() if not count]
    if report.passed and empty:
        raise ContractError(f"suite {suite.name}: the domain has no instance of {empty[0]}")
    return replace(report, info={"suite": suite.name, "equation_instances": per_equation})


def check_rota_baxter(rb, window=None):
    """The Rota-Baxter family identity over all basis pairs and index pairs.

    The carrier must pass RelAssoc on the same domain first; if it does not,
    that failing report is returned.  ``window`` is required when the carrier
    index is virtual.
    """
    carrier = rb.carrier
    index = carrier.index
    if isinstance(index, VirtualSemigroup):
        if window is None:
            raise ContractError("rota-baxter check over a virtual index requires a window")
        domain = window_domain(_carrier_basis_names(carrier), window)
    else:
        domain = finite_domain(carrier)
    pre = check_axioms(carrier, "RelAssoc", domain, check_name="rota-baxter:precondition:RelAssoc")
    if not pre.passed:
        return pre
    reached = dict.fromkeys(k for a, b in domain.indices(2) for k in (a, b, index.mul(a, b)))
    ops = {"mul": carrier.op("mul"), "rb": rb.op(reached)}  # the precondition validated mul
    instances = _equation_instances((ROTA_BAXTER_EQUATION,), domain, ops, index, None, {})
    return scan("rota-baxter", instances, domain.show)


def _carrier_basis_names(carrier):
    names = getattr(carrier, "basis", None)
    if names is None:
        raise ContractError("carrier does not expose a finite basis")
    return names


def check_morphism(f, suite):
    """Structure preservation for every role of the suite: applying the map
    at the product index to a source product matches the target product of
    the mapped arguments, for every basis pair and index pair."""
    suite = _resolve_suite(suite)
    if suite.op_arity != 2:
        raise ContractError("morphism checks are defined for pair-indexed suites")
    source, target = f.source, f.target
    for side, alg in (("source", source), ("target", target)):
        rep = check_axioms(
            alg,
            suite,
            finite_domain(alg),
            check_name=f"morphism:precondition:{side}:{suite.name}",
        )
        if not rep.passed:
            return rep
    index, domain = source.index, finite_domain(source)
    label = _basis_name(domain)

    def instances():
        for role in suite.roles:
            eqid = f"morphism_{role}"
            for a, b in domain.indices(2):
                ab = index.mul(a, b)
                for x, y in domain.elements(2):
                    yield (
                        eqid,
                        map(label, (x, y)),
                        map(index.name, (a, b)),
                        f.apply(ab, source.apply(role, (a, b), x, y)),
                        target.apply(role, (a, b), f.apply(a, x), f.apply(b, y)),
                    )

    return scan(
        f"morphism:{suite.name}", instances(), lambda vec: vec.to_pairs(target.basis.__getitem__)
    )
