"""Operation carriers: indexed bilinear operations and finite-dimensional
algebras given by structure constants.

A pair-indexed operation takes two index elements and two vectors; a
family-indexed operation takes a single index element.  Both are thin
wrappers around a function, tagged with the index structure they live over,
so the axiom engine can validate arity and index compatibility.  A call
refuses an index outside a finite index; the engine calls ``fn`` directly
with indices it made, only those in a pair-indexed one's ``reads``, and
skips by its ``pattern`` the instances where both sides vanish.  A free
carrier's operation states its ``grafts``, ``(graft_sum, terms)``: ``terms``,
handed what ``fn`` is, gives the graftings ``(k, basis, s, t, a)``, ``basis``
bound, whose ``graft_sum`` is ``fn``'s value, so a formal sum of them is one
graft sum, and a construction compiled to one states its graftings too.  A
finite algebra takes every product through one kernel per structure-constant
block (one role at one index tuple), which memoises the products of basis
vectors an exhaustive scan hands it; ``op`` gives a role with one block at
every index pair that block's pattern, built on the call, not at load.  The
kernels read the integer constants ``den * c``, ``den`` the lcm of the
algebra's denominators, so an operation's ``fn`` returns ``den`` times the
product and ``__call__`` divides back; off finite algebras ``den`` is a
construction's compiled scale, the one ``den`` of the integer columns a
Rota-Baxter family's ``op`` reads each operator into once, or else 1.
"""

from fractions import Fraction
from functools import cache
from itertools import compress, product, repeat
from math import lcm

from .errors import ContractError, MalformedInputError, read_keyed, read_names, read_table, type_name
from .lincomb import LinComb, exact, lc_bilinear_extend
from .semigroups import DimonoidTable, SemigroupTable, VirtualSemigroup, index_leaf


class PairIndexedOp:
    """Bilinear operation indexed by a pair of semigroup elements, which a call
    checks; ``fn``, unchecked, takes the index positions in ``reads``, in order,
    then the two vectors.  ``pattern[i][j]``, if given, has bit k set where e_i e_j
    may have a nonzero coordinate k, at every index pair.  ``grafts``, if given, is
    ``(graft_sum, terms)`` with ``graft_sum(terms(*args)) == fn(*args)``."""

    __slots__ = ("index", "fn", "den", "reads", "pattern", "grafts")
    arity = 2

    def __init__(self, index, fn, den=1, reads=(0, 1), pattern=None, grafts=None):
        if reads not in ((), (0,), (1,), (0, 1)) or {*map(type, reads)} - {int}:
            raise MalformedInputError(f"reads: expected (), (0,), (1,) or (0, 1), got {reads!r}")
        self.index = _index_structure(index)
        self.fn = fn
        self.den = den
        self.reads = reads
        self.pattern = pattern
        self.grafts = grafts

    def __call__(self, a, b, x, y):
        _handed(self.index, a, b)
        return divide_back(self.fn(*[(a, b)[k] for k in self.reads], x, y), self.den)


class FamilyIndexedOp:
    """Operation indexed by a single semigroup (or dimonoid) element: a
    bilinear one, or a linear map (``RotaBaxterFamily.op``); ``grafts`` as
    for ``PairIndexedOp``."""

    __slots__ = ("index", "fn", "den", "grafts")
    arity = 1

    def __init__(self, index, fn, den=1, grafts=None):
        self.index = _index_structure(index)
        self.fn = fn
        self.den = den
        self.grafts = grafts

    def __call__(self, a, *vectors):
        _handed(self.index, a)
        return divide_back(self.fn(a, *vectors), self.den)


def _handed(index, *indices):
    """Refuse what ``index_leaf`` refuses of a finite index; a virtual one's are its op's."""
    for a in () if isinstance(index, VirtualSemigroup) else indices:
        if type(a) is not int or not 0 <= a < index.size:
            index_leaf(index.size)(a)


def _index_structure(index):
    """``index``, refused unless it is a semigroup, dimonoid or virtual index."""
    if not isinstance(index, (SemigroupTable, DimonoidTable, VirtualSemigroup)):
        raise MalformedInputError(f"index: expected an index structure, got {type_name(index)}")
    return index


def divide_back(value, den):
    """``value / den``: a product scaled by ``den`` brought back to itself."""
    return value if den == 1 else value.scale(Fraction(1, den))


class OpCarrier:
    """Bundle of named operations over a common index structure, the shape the
    axiom engine consumes.  ``basis`` optionally names a finite basis for
    carriers that have one."""

    __slots__ = ("index", "ops", "unit_vector", "basis")

    def __init__(self, index, ops, unit_vector=None, basis=None):
        self.index = _index_structure(index)
        if not isinstance(ops, dict):
            raise MalformedInputError(f"ops: expected a dict, got {type_name(ops)}")
        self.ops = dict(ops)
        self.unit_vector = unit_vector
        self.basis = basis

    def op(self, role):
        try:
            return self.ops[role]
        except KeyError:
            raise ContractError(f"carrier has no operation for role {role!r}") from None


NO_BLOCKS = "expected one block per index tuple, got none"


class FiniteRelativeAlgebra:
    """Finite-dimensional algebra over a finite index semigroup, with one
    structure-constant block per operation role and index tuple.

    ``ops`` maps a role name to a dict keyed by index tuples: pairs ``(i, j)``
    for pair-indexed roles, singletons ``(i,)`` for family-indexed roles.
    Block ``[i][j][k]`` is the coefficient of basis element k in (e_i op e_j).
    ``unit_vector`` is None or a list of ``dim`` coordinates, read as the
    blocks are and held as a LinComb (``unit_coordinates`` gives the list
    back).  Constants are held in ``lincomb``'s exact scalar form.  Every
    product, by ``apply`` or by an operation from ``op`` (which holds the
    kernels, not the algebra), is taken by its block's ``_kernel``, which
    reads the integer constants ``den * c``.
    """

    __slots__ = ("basis", "index", "ops", "unit_vector", "den", "_kernels", "__weakref__")

    def __init__(self, basis, index, ops, unit_vector=None):
        basis = read_names(basis, "basis")
        if not isinstance(index, SemigroupTable):
            raise MalformedInputError("finite algebra requires a finite semigroup index")
        dim = len(basis)
        n = index.size
        clean = {}
        if not isinstance(ops, dict):
            raise MalformedInputError(f"ops: expected a dict, got {type_name(ops)}")
        for role, table in ops.items():
            if type(role) is not str:
                raise MalformedInputError(f"ops: expected str role names, got {role!r}")
            if not isinstance(table, dict):
                raise MalformedInputError(f"ops[{role}]: expected a dict, got {type_name(table)}")
            if not table:
                raise MalformedInputError(f"ops[{role}]: {NO_BLOCKS}")
            # read_keyed compares keys by equality, which takes (0, 0.0) and (True,) for int tuples
            for key in table:
                if type(key) is not tuple or {*map(type, key)} - {int}:
                    raise MalformedInputError(f"ops[{role}]: expected int tuple keys, got {key!r}")
            pairs = set(product(range(n), repeat=2))  # the first key picks pairs or singletons
            keys = pairs if next(iter(table)) in pairs else set(product(range(n)))
            clean[role] = read_keyed(table, f"ops[{role}]", keys, exact, dim, dim, dim)
        self.basis = basis
        self.index = index
        self.ops = clean
        self.den = den = lcm(*{c.denominator for t in clean.values() for b in t.values()
                               for plane in b for row in plane for c in row})
        self._kernels = {r: {k: _kernel(b, den) for k, b in t.items()} for r, t in clean.items()}
        if unit_vector is not None:
            unit_vector = LinComb(enumerate(read_table(unit_vector, "unit_vector", exact, dim)))
        self.unit_vector = unit_vector

    @property
    def dim(self):
        return len(self.basis)

    def roles(self):
        return sorted(self.ops)

    def apply(self, role, idx, x, y):
        """Apply a role at a fixed index tuple to two vectors."""
        return divide_back(self._kernels[role][idx](x, y), self.den)

    def op(self, role):
        if role not in self.ops:
            raise ContractError(f"algebra has no operation for role {role!r}")
        kernels, blocks = self._kernels[role], self.ops[role]
        n = self.index.size
        if len(next(iter(blocks))) == 2:
            if len(blocks) == 1 or len(set(blocks.values())) == 1:  # one block at every index pair
                bits = [1 << k for k in range(self.dim)]
                pattern = [[sum(compress(bits, row)) for row in plane] for plane in blocks[0, 0]]
                return PairIndexedOp(self.index, kernels[0, 0], self.den, (), pattern)
            table = [[kernels[a, b] for b in range(n)] for a in range(n)]
            return PairIndexedOp(self.index, lambda a, b, x, y: table[a][b](x, y), self.den)
        table = [kernels[a,] for a in range(n)]
        return FamilyIndexedOp(self.index, lambda a, x, y: table[a](x, y), self.den)

    def as_carrier(self, roles=None):
        names = self.roles() if roles is None else roles
        return OpCarrier(
            self.index, {r: self.op(r) for r in names}, self.unit_vector, basis=self.basis
        )

    def unit_coordinates(self):
        """The unit vector as the list of coordinates the constructor reads, or None."""
        unit = self.unit_vector
        return None if unit is None else [unit.coeff(k) for k in range(self.dim)]

    def with_ops(self, ops):
        return FiniteRelativeAlgebra(self.basis, self.index, ops, self.unit_coordinates())


ZERO = LinComb()  # the one shared zero vector


def _kernel(block, den):
    """``den`` times the bilinear product ``(x, y) -> LinComb`` of one block.
    A zero argument gives one shared zero.  The product of two basis vectors,
    the integer ``(k, den * coeff)`` terms of its nonzero constants, is built
    by the cached ``entry`` on first use, at most dim² shared, immutable values
    per block held by the algebra; a pair of single-term vectors reads it
    scaled by the product of their coefficients, any other is expanded."""

    @cache
    def entry(i, j):
        terms = [(k, c.numerator * (den // c.denominator)) for k, c in enumerate(block[i][j]) if c]
        return LinComb(terms) or ZERO

    def kernel(x, y):
        x, y = x._terms, y._terms
        if not x or not y:
            return ZERO
        if len(x) == 1 == len(y):
            ((i, ci),), ((j, cj),) = x.items(), y.items()
            value = entry(i, j)
            weight = ci * cj
            return value if weight == 1 or value is ZERO else value.scale(weight)
        return lc_bilinear_extend(entry, x.items(), y.items())

    return kernel


def materialize_pair_op(op, dim):
    """Evaluate a pair-indexed operation on all basis pairs of a finite
    carrier and all pairs of its index, producing a structure-constant table.
    ``fn`` is called once per basis pair and distinct tuple of the indices it
    reads, with ids from the index, so no call is checked; each product's
    nonzero terms are divided back by ``den``, and a missing one reads 0."""
    units = [LinComb.single(i) for i in range(dim)]
    coords, zeros, den = range(dim), repeat(0), op.den
    table, blocks = {}, {}
    for pair in product(range(op.index.size), repeat=2):
        handed = tuple([pair[k] for k in op.reads])
        block = blocks.get(handed)
        if block is None:
            planes = []
            for x in units:
                plane = []
                for y in units:
                    terms = op.fn(*handed, x, y)._terms
                    if den != 1:
                        terms = {k: exact(Fraction(c, den)) for k, c in terms.items()}
                    plane.append(tuple(map(terms.get, coords, zeros)))
                planes.append(tuple(plane))
            block = blocks[handed] = tuple(planes)
        table[pair] = block
    return table


class RotaBaxterFamily:
    """A family of linear operators, one per index element, over a carrier
    with a pair-indexed product.

    ``maps`` is either a dict from index element to a square matrix (rows =
    output coordinates) or a callable ``(alpha, vector) -> vector``, which
    must be linear: ``op`` reads it on basis vectors.  The dict form needs a
    carrier with a finite basis and one matrix per index element; over a
    virtual index its keys are a window, outside which ``apply`` refuses."""

    __slots__ = ("carrier", "maps")

    def __init__(self, carrier, maps):
        if isinstance(maps, dict):
            if getattr(carrier, "basis", None) is None:
                raise ContractError("a carrier without a finite basis takes callable maps only")
            dim, index = len(carrier.basis), carrier.index
            keys = maps if isinstance(index, VirtualSemigroup) else range(index.size)
            maps = read_keyed(maps, "maps", keys, exact, dim, dim)
        elif not callable(maps):
            raise MalformedInputError(f"maps: expected a dict or a callable, got {type_name(maps)}")
        self.carrier = carrier
        self.maps = maps

    def apply(self, alpha, x):
        if callable(self.maps):
            return self.maps(alpha, x)
        try:
            matrix = self.maps[alpha]
        except KeyError:
            raise ContractError(
                f"window closure: no operator defined for index {alpha!r}"
            ) from None
        return apply_matrix(matrix, x)

    def op(self, indices):
        """The family as an operation the axiom engine reads: the operator at
        each of ``indices`` read once, on the basis vectors, as the integer
        columns ``den * R(e_j)``, ``den`` the lcm of their denominators, so
        ``fn`` returns ``den`` times R_alpha(x).  An index whose operator
        refuses to be read is left to ``apply``, which refuses again there."""
        dim, apply, columns = len(self.carrier.basis), self.apply, {}
        units = [LinComb.single(j) for j in range(dim)]
        for alpha in indices:
            try:
                columns[alpha] = [apply(alpha, e) for e in units]
            except ContractError:
                pass
        den = lcm(*(c.denominator for cols in columns.values() for col in cols for _, c in col))
        columns = {alpha: [LinComb({i: (den * c).numerator for i, c in col}) for col in cols]
                   for alpha, cols in columns.items()}

        def fn(alpha, x):
            cols = columns.get(alpha)
            if cols is None:
                return apply(alpha, x).scale(den)
            if len(x._terms) == 1:
                ((j, c),) = x._terms.items()
                return cols[j].scale(c)
            return sum((cols[j].scale(c) for j, c in x._terms.items()), ZERO)

        return FamilyIndexedOp(self.carrier.index, fn, den)


def apply_matrix(matrix, x):
    acc = {}
    for j, c in x:
        for i, row in enumerate(matrix):
            v = row[j]
            if v != 0:
                acc[i] = acc.get(i, 0) + c * v
    return LinComb(acc)


class MorphismFamily:
    """A family of linear maps between two algebras over the same index
    semigroup, one (target_dim x source_dim) matrix per index element."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source, target, maps):
        for what, alg in (("source", source), ("target", target)):
            if not isinstance(alg, FiniteRelativeAlgebra):
                got = type_name(alg)
                raise MalformedInputError(f"{what}: expected a finite algebra, got {got}")
        if source.index != target.index:
            raise MalformedInputError("morphism endpoints use different index semigroups")
        self.source = source
        self.target = target
        self.maps = read_keyed(maps, "maps", range(source.index.size), exact, target.dim, source.dim)

    def apply(self, alpha, x):
        return apply_matrix(self.maps[alpha], x)
