"""Finite semigroups, dimonoids and 2-cocycles given by multiplication tables,
plus a windowed interface for infinite index monoids.

Tables are validated structurally at construction (names, shapes, index ranges);
the algebraic laws themselves are established by the ``check_*`` functions,
which scan all triples in lexicographic order and report the first violation.
"""

from dataclasses import replace
from functools import cache, lru_cache
from itertools import product
from operator import getitem

from .errors import ContractError, MalformedInputError, read_names, read_table, type_name
from .lincomb import exact, format_scalar
from .reports import scan, summary
from .trees import LABEL


def index_leaf(n):
    """The leaf reader of an n-element index table: an ``int`` (not a bool) in 0..n-1."""

    def entry(value):
        if type(value) is int and 0 <= value < n:
            return value
        got = value if type(value) is int else type_name(value)
        raise MalformedInputError(f"expected an index in 0..{n - 1}, got {got}")

    return entry


def nonzero(value):
    """The leaf reader of a cocycle's values: a nonzero scalar, exact."""
    value = exact(value)
    if value == 0:
        raise MalformedInputError("expected a nonzero scalar, got 0")
    return value


@cache
def _slot_names(cls):
    """The slot names of ``cls`` and its bases, read once per class."""
    return tuple(s for c in cls.__mro__ for s in vars(c).get("__slots__", ()))


class _Value:
    """Equality and hashing by value: the type and every slot."""

    __slots__ = ()

    def _value(self):
        return (type(self), *map(self.__getattribute__, _slot_names(type(self))))

    def __eq__(self, other):
        return isinstance(other, _Value) and self._value() == other._value()

    def __hash__(self):
        return hash(self._value())


class _FiniteTable(_Value):
    """Distinct named elements 0..size-1, immutable by contract; the shared
    part of the finite index tables, equal when their names, tables and claims
    are.  A name is a tree label (``trees.LABEL``), so op keys ``(a,b)`` and
    tree text spell every name unambiguously."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = read_names(elements, "elements", LABEL)

    @property
    def size(self):
        return len(self.elements)

    def name(self, i):
        return self.elements[i]

    def index_of(self, name):
        try:
            return self.elements.index(str(name))
        except ValueError:
            raise MalformedInputError(f"unknown element {name!r}") from None

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)})"


class SemigroupTable(_FiniteTable):
    """Finite magma table claiming associativity; ``check_semigroup`` decides."""

    __slots__ = ("product", "unit", "claims_commutative")

    def __init__(self, elements, table, unit=None, commutative=False):
        super().__init__(elements)
        n = self.size
        self.product = read_table(table, "product", index_leaf(n), n, n)
        if unit is not None:
            try:
                unit = index_leaf(n)(unit)
            except MalformedInputError as exc:
                raise MalformedInputError(f"unit: {exc}") from None
        self.unit = unit
        self.claims_commutative = bool(commutative)

    def mul(self, i, j):
        return self.product[i][j]

    def prod(self, kind, i, j):
        if kind != "mul":
            raise ContractError(f"semigroup index has no {kind!r} operation")
        return self.product[i][j]


def trivial_monoid():
    return SemigroupTable(["e"], [[0]], unit=0, commutative=True)


def cyclic_monoid(n):
    """Z/n under addition, elements named "0".."n-1", unit "0"."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return SemigroupTable([str(i) for i in range(n)], table, unit=0, commutative=True)


class VirtualSemigroup:
    """Infinite index structure given by a computed product on opaque elements
    (integers in practice).  Exhaustive checks become windowed checks."""

    __slots__ = ("description", "op", "unit", "claims_commutative")

    def __init__(self, description, op, unit=None, commutative=False):
        if not callable(op):
            raise MalformedInputError(f"op: expected a callable, got {type_name(op)}")
        self.description = description
        self.op = op
        self.unit = unit
        self.claims_commutative = bool(commutative)

    def mul(self, i, j):
        return self.op(i, j)

    def prod(self, kind, i, j):
        if kind != "mul":
            raise ContractError(f"semigroup index has no {kind!r} operation")
        return self.op(i, j)

    def name(self, i):
        return str(i)

    def __repr__(self):
        return f"VirtualSemigroup({self.description!r})"


def positive_integers_additive():
    """The monoid-free semigroup (Z>0, +); commutative, no unit."""
    return VirtualSemigroup("positive integers under addition", lambda i, j: i + j, commutative=True)


class DimonoidTable(_FiniteTable):
    """Two n x n tables (left and right products) claiming the five dimonoid
    compatibility identities; ``check_dimonoid`` decides.  ``semigroup`` is
    the semigroup it was made from, else None."""

    __slots__ = ("left", "right", "semigroup")
    unit = None
    claims_commutative = False

    def __init__(self, elements, left, right, semigroup=None):
        super().__init__(elements)
        n = self.size
        self.left = read_table(left, "left", index_leaf(n), n, n)
        self.right = read_table(right, "right", index_leaf(n), n, n)
        self.semigroup = semigroup

    def left_mul(self, i, j):
        return self.left[i][j]

    def right_mul(self, i, j):
        return self.right[i][j]

    def prod(self, kind, i, j):
        if kind == "left":
            return self.left[i][j]
        if kind == "right":
            return self.right[i][j]
        raise ContractError(f"dimonoid index has no {kind!r} operation")

    def is_semigroup_form(self):
        return self.left == self.right

    def is_matching_form(self):
        n = len(self.elements)
        return all(self.left[i][j] == i and self.right[i][j] == j for i in range(n) for j in range(n))


class Cocycle(_Value):
    """Nonzero scalar table over a semigroup, equal when its base and values
    are; ``check_cocycle`` decides the cocycle identity."""

    __slots__ = ("base", "values")

    def __init__(self, base, values):
        if not isinstance(base, SemigroupTable):
            raise MalformedInputError("cocycle base must be a finite semigroup table")
        self.base = base
        self.values = read_table(values, "values", nonzero, base.size, base.size)

    def __call__(self, i, j):
        return self.values[i][j]


def read_window(window):
    """``window`` as a list: refused if it is empty, which would leave a check
    nothing to verify, or names an element twice, which verifies nothing new."""
    elems, seen = list(window), set()
    if not elems:
        raise ContractError("a window must hold at least one index element")
    for elem in elems:
        if elem in seen:
            raise ContractError(f"a window must name each index element once, got {elem!r} twice")
        seen.add(elem)
    return elems


def check_semigroup(table, window=None):
    """Associativity over all triples, unit law if a unit is declared, and
    table symmetry if commutativity is claimed.  For a VirtualSemigroup a
    finite ``window`` of elements must be supplied."""
    if isinstance(table, VirtualSemigroup):
        if window is None:
            raise ContractError("virtual semigroup check requires a finite window")
        elems = read_window(window)
    else:
        elems = range(table.size)
    mul, name, unit = table.mul, table.name, table.unit

    def instances():
        for a, b, c in product(elems, repeat=3):
            yield "associativity", (), map(name, (a, b, c)), mul(mul(a, b), c), mul(a, mul(b, c))
        if unit is not None:
            for a in elems:
                yield "unit_left", (), (name(a),), mul(unit, a), a
                yield "unit_right", (), (name(a),), mul(a, unit), a
        if table.claims_commutative:
            for a, b in product(elems, repeat=2):
                yield "commutativity", (), map(name, (a, b)), mul(a, b), mul(b, a)

    return scan("semigroup", instances(), name)


# The five compatibility identities between the two dimonoid products, in the
# fixed scan order used for counterexample selection.
_DIMONOID_IDENTITIES = (
    ("left_left_assoc", lambda L, R, a, b, c: (L(L(a, b), c), L(a, L(b, c)))),
    ("left_absorbs_right", lambda L, R, a, b, c: (L(a, L(b, c)), L(a, R(b, c)))),
    ("inner_assoc", lambda L, R, a, b, c: (L(R(a, b), c), R(a, L(b, c)))),
    ("right_absorbs_left", lambda L, R, a, b, c: (R(L(a, b), c), R(a, R(b, c)))),
    ("right_right_assoc", lambda L, R, a, b, c: (R(R(a, b), c), R(a, R(b, c)))),
)


def check_dimonoid(table):
    """The five dimonoid identities over all triples; the counterexample names
    the identity and the lexicographically first violating triple."""
    instances = (
        (eqn, (), map(table.name, t), *law(table.left_mul, table.right_mul, *t))
        for eqn, law in _DIMONOID_IDENTITIES
        for t in product(range(table.size), repeat=3)
    )
    return scan("dimonoid", instances, table.name)


def check_cocycle(cocycle):
    """c(a,b)c(ab,c) = c(a,bc)c(b,c) over all triples; the base semigroup is
    re-verified first."""
    base_report = check_semigroup(cocycle.base)
    if not base_report.passed:
        return replace(base_report, check="cocycle", info={"precondition": "semigroup"})
    mul = cocycle.base.mul
    instances = (
        (
            "cocycle",
            (),
            map(cocycle.base.name, (a, b, c)),
            cocycle(a, b) * cocycle(mul(a, b), c),
            cocycle(a, mul(b, c)) * cocycle(b, c),
        )
        for a, b, c in product(range(cocycle.base.size), repeat=3)
    )
    return scan("cocycle", instances, format_scalar)


def dimonoid_from_semigroup(table):
    """Both dimonoid products equal the semigroup product."""
    report = check_semigroup(table)
    if not report.passed:
        raise ContractError(f"not a semigroup: {summary(report.to_payload())}")
    return DimonoidTable(table.elements, table.product, table.product, table)


def matching_dimonoid(n):
    """Left product projects on the first argument, right product on the
    second.  Elements are named a, b, c, ... (s0, s1, ... past 26)."""
    if n < 1:
        raise MalformedInputError("matching dimonoid needs n >= 1")
    if n <= 26:
        names = [chr(ord("a") + i) for i in range(n)]
    else:
        names = [f"s{i}" for i in range(n)]
    left = [[i for _ in range(n)] for i in range(n)]
    right = [[j for j in range(n)] for _ in range(n)]
    return DimonoidTable(names, left, right)


@lru_cache(maxsize=64)
def power(dimonoid, n, bound):
    """The substructure of a power of ``dimonoid``, products componentwise, that
    the diagonals and the n columns of ``product(range(size), repeat=n)`` generate,
    as its type, and the ids of the columns; None past ``bound`` elements.  Element
    d is its diagonal, under its name, so a tree or an index tuple over the dimonoid
    is one over the power, and the columns' ids (the first m, for m index
    variables) are every index tuple at once.  A power of semigroup form holds a
    semigroup with the claims of the dimonoid's own (``semigroup_from_dimonoid``):
    its unit's diagonal and its commutativity claim, none read off the power."""
    columns = tuple(zip(*product(range(dimonoid.size), repeat=n)))
    diagonals = ((d,) * dimonoid.size**n for d in range(dimonoid.size))
    elems = list(dict.fromkeys([*diagonals, *columns]))
    ids, rows = {x: i for i, x in enumerate(elems)}, ([], [])
    for i, x in enumerate(elems):  # elems grows while it is read
        for table, row in zip((dimonoid.left, dimonoid.right), rows):
            row.append([])
            for j, y in enumerate(elems[: i + 1]):  # x y into row i, and y x into row j
                for p, u, v in ((i, x, y), (j, y, x)) if j < i else ((i, x, y),):
                    z = tuple(map(getitem, map(table.__getitem__, u), v))
                    if z not in ids:
                        ids[z] = len(elems)
                        elems.append(z)
                    row[p].append(ids[z])
        if len(elems) > bound:
            return None
    tail = "_" * (1 + max(map(len, dimonoid.elements)))
    names = dimonoid.elements + tuple(f"{tail}{k}" for k in range(dimonoid.size, len(elems)))
    semigroup = None
    if rows[0] == rows[1]:
        own = semigroup_from_dimonoid(dimonoid)
        semigroup = SemigroupTable(names, rows[0], own.unit, own.claims_commutative)
    return type(dimonoid)(names, *rows, semigroup), tuple(ids[v] for v in columns)


def semigroup_from_dimonoid(table):
    """Recover the semigroup underlying a semigroup-form dimonoid: the one it
    was made from, with that semigroup's own claims, when there is one.
    Otherwise (a dimonoid read from a file) the unit, if any, is detected and
    commutativity is set from table symmetry."""
    if table.semigroup is not None:
        return table.semigroup
    if not table.is_semigroup_form():
        raise ContractError("dimonoid is not of semigroup form (left and right tables differ)")
    n = table.size
    prod = table.left
    unit = None
    for e in range(n):
        if all(prod[e][a] == a and prod[a][e] == a for a in range(n)):
            unit = e
            break
    commutative = all(prod[i][j] == prod[j][i] for i in range(n) for j in range(n))
    return SemigroupTable(table.elements, prod, unit=unit, commutative=commutative)
