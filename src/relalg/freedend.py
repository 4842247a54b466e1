"""The free dendriform algebra on decorated planar binary trees.

The two grafting operations are defined by mutual recursion on the right
spine of the first argument (for prec) and the left spine of the second (for
succ), with composite edge labels computed in the carrier's dimonoid.  When a
recursion step meets an empty subtree the base cases take over: prec against
the empty tree is the identity, the empty tree prec anything is zero, and
symmetrically for succ.  The undefined-edge-label gap this creates is closed
by handling the empty-subtree branches explicitly: the surviving summand
grafts with the bare index as its edge label, which is the unique choice
consistent with all four base cases and with the classical operations when
the index structure is trivial.
"""

from itertools import product
from random import Random

from .errors import ContractError, MalformedInputError
from .lincomb import LinComb, lc_bilinear_extend
from .ops import FamilyIndexedOp
from .semigroups import DimonoidTable, SemigroupTable, semigroup_from_dimonoid
from .trees import EMPTY, DecoratedTree, random_tree_from, tree_parse, tree_print


class FreeDendCarrier:
    """Decoration alphabet plus an index table of edge labels; holds the
    grafting operations and a per-carrier product cache.

    The index is a dimonoid, or a semigroup read as the dimonoid whose two
    products are its product.  ``semigroup`` is the semigroup the family
    operations run over: the one given, with its own unit and commutativity
    claims, or the one underlying a semigroup-form dimonoid (None for any
    other dimonoid)."""

    def __init__(self, decorations, index):
        decorations = tuple(str(x) for x in decorations)
        if not decorations:
            raise MalformedInputError("need at least one decoration label")
        if len(set(decorations)) != len(decorations):
            raise MalformedInputError("duplicate decoration labels")
        if isinstance(index, SemigroupTable):
            semigroup = index
            dimonoid = DimonoidTable(index.elements, index.product, index.product)
        elif isinstance(index, DimonoidTable):
            dimonoid = index
            semigroup = semigroup_from_dimonoid(index) if index.is_semigroup_form() else None
        else:
            raise MalformedInputError("free carrier requires a dimonoid or semigroup index")
        bad = set(decorations) | set(dimonoid.elements)
        if "e" in bad:
            raise MalformedInputError('"e" is reserved for the empty tree')
        self.decorations = decorations
        self.dimonoid = dimonoid
        self.semigroup = semigroup
        self._sidx = {name: i for i, name in enumerate(dimonoid.elements)}
        self._cache = {}

    # -- label plumbing

    def index_of(self, a):
        if isinstance(a, int):
            if not 0 <= a < self.dimonoid.size:
                raise MalformedInputError(f"index {a} out of range")
            return a
        try:
            return self._sidx[str(a)]
        except KeyError:
            raise MalformedInputError(f"undeclared edge label {a!r}") from None

    def check_tree(self, t):
        if t is EMPTY:
            return t
        if t.label not in self.decorations:
            raise MalformedInputError(f"undeclared vertex label {t.label!r}")
        for child, edge in ((t.left, t.left_edge), (t.right, t.right_edge)):
            if child is not EMPTY:
                if edge not in self._sidx:
                    raise MalformedInputError(f"undeclared edge label {edge!r}")
                self.check_tree(child)
        return t

    def parse(self, text):
        return tree_parse(text, self.decorations, self.dimonoid.elements)

    # -- basis-level recursion; trees in, {tree: coeff} accumulator out

    def _basis_prec(self, s, t, a):
        key = ("p", s, t, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if t is EMPTY:
            if s is EMPTY:
                raise ContractError("the product of two empty trees is undefined")
            result = ((s, 1),)
        elif s is EMPTY:
            result = ()
        elif s.right is EMPTY:
            # right subtree empty: the recursive prec summand vanishes and the
            # succ summand grafts t whole, edge labeled by the bare index
            grafted = DecoratedTree(
                s.label, s.left, s.left_edge, t, self.dimonoid.name(a)
            )
            result = ((grafted, 1),)
        else:
            sigma2 = self._sidx[s.right_edge]
            acc = {}
            for u, c in self._basis_prec(s.right, t, a):
                edge = self.dimonoid.name(self.dimonoid.left_mul(sigma2, a))
                grafted = DecoratedTree(s.label, s.left, s.left_edge, u, edge)
                acc[grafted] = acc.get(grafted, 0) + c
            for u, c in self._basis_succ(s.right, t, sigma2):
                edge = self.dimonoid.name(self.dimonoid.right_mul(sigma2, a))
                grafted = DecoratedTree(s.label, s.left, s.left_edge, u, edge)
                acc[grafted] = acc.get(grafted, 0) + c
            result = tuple(acc.items())
        self._cache[key] = result
        return result

    def _basis_succ(self, s, t, a):
        key = ("s", s, t, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if s is EMPTY:
            if t is EMPTY:
                raise ContractError("the product of two empty trees is undefined")
            result = ((t, 1),)
        elif t is EMPTY:
            result = ()
        elif t.left is EMPTY:
            grafted = DecoratedTree(
                t.label, s, self.dimonoid.name(a), t.right, t.right_edge
            )
            result = ((grafted, 1),)
        else:
            tau1 = self._sidx[t.left_edge]
            acc = {}
            for u, c in self._basis_prec(s, t.left, tau1):
                edge = self.dimonoid.name(self.dimonoid.left_mul(a, tau1))
                grafted = DecoratedTree(t.label, u, edge, t.right, t.right_edge)
                acc[grafted] = acc.get(grafted, 0) + c
            for u, c in self._basis_succ(s, t.left, a):
                edge = self.dimonoid.name(self.dimonoid.right_mul(a, tau1))
                grafted = DecoratedTree(t.label, u, edge, t.right, t.right_edge)
                acc[grafted] = acc.get(grafted, 0) + c
            result = tuple(acc.items())
        self._cache[key] = result
        return result

    # -- bilinear operations on linear combinations of trees

    def prec(self, s, t, a):
        """s below t: graft t into the right spine of s."""
        return lc_bilinear_extend(self._basis_prec, s, t, self.index_of(a))

    def succ(self, s, t, a):
        """s above t: graft s into the left spine of t."""
        return lc_bilinear_extend(self._basis_succ, s, t, self.index_of(a))

    # -- operation bundles

    def dimonoid_ops(self):
        """Single-index prec/succ over the dimonoid itself."""
        return (
            FamilyIndexedOp(self.dimonoid, lambda a, x, y: self.prec(x, y, a)),
            FamilyIndexedOp(self.dimonoid, lambda a, x, y: self.succ(x, y, a)),
        )

    def family_ops(self):
        """Single-index prec/succ over ``semigroup``; only available when
        both dimonoid products coincide."""
        if self.semigroup is None:
            raise ContractError("family operations need a semigroup-form dimonoid")
        return (
            FamilyIndexedOp(self.semigroup, lambda a, x, y: self.prec(x, y, a)),
            FamilyIndexedOp(self.semigroup, lambda a, x, y: self.succ(x, y, a)),
        )

    def matching_ops(self):
        """Single-index prec/succ over a projection dimonoid."""
        if not self.dimonoid.is_matching_form():
            raise ContractError("matching operations need a projection dimonoid")
        return self.dimonoid_ops()

    def random_tree(self, rng, max_vertices):
        return random_tree_from(rng, self.decorations, self.dimonoid.elements, max_vertices)


class SampledTreeDomain:
    """Seeded random tree tuples with exhaustive index tuples.  Each call to
    ``elements`` replays the same sample stream, so every equation of a suite
    sees the same tuples and repeated runs are bit-identical."""

    def __init__(self, carrier, index, samples=200, max_vertices=6, seed=0):
        self.carrier = carrier
        self.index = index
        self.samples = samples
        self.max_vertices = max_vertices
        self.seed = seed

    def elements(self, k):
        rng = Random(self.seed)
        for _ in range(self.samples):
            yield tuple(
                (tree_print(t), LinComb.single(t))
                for t in (
                    self.carrier.random_tree(rng, self.max_vertices) for _ in range(k)
                )
            )

    def indices(self, m):
        return product(range(self.index.size), repeat=m)

    def index_name(self, i):
        return self.index.name(i)

    def render_basis(self, b):
        return tree_print(b)
