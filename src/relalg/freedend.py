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

A carrier interns its trees, one object per structure, and caches basis
products, both tables keyed by ints hashed from the trees' stored hashes; the
two share ``ENTRY_BUDGET`` (see ``FreeDendCarrier``).
"""

from itertools import product
from random import Random

from .errors import ContractError, MalformedInputError, read_names
from .lincomb import LinComb
from .ops import FamilyIndexedOp
from .semigroups import DimonoidTable, SemigroupTable, semigroup_from_dimonoid
from .trees import EMPTY, LABEL, DecoratedTree, random_tree_from, tree_parse, tree_print

# The most entries one carrier's intern table and basis cache (one tuple per
# product) hold together.  free-session's working set at --seconds
# 20 (about 212,000 entries: 50,000 basis products and 162,000 trees) never
# reaches it, so it never empties.  The RelAssoc/RelPreLie/RelLie chain over
# Z/2 at 200 samples and 6 vertices (acceptance criterion 3) does: the tables
# empty once during RelLie, and 298,219 entries are live at its end.
ENTRY_BUDGET = 600_000


class FreeDendCarrier:
    """Decoration alphabet plus an index table of edge labels; holds the
    grafting operations, an intern table of trees and a basis-product cache.

    Interning: every tree the carrier builds or receives is replaced by its
    canonical object, the one tree of that structure the intern table holds,
    keyed by its own structural hash ``t._hash``.  Grafting looks a tree up
    by that hash before constructing it (and hands it to the constructor),
    and takes the entry if its labels match and its children are the same
    objects or (children held from before the tables were emptied) equal
    ones.  Any other entry is a 64-bit hash collision, and the caller gets an
    equal tree that is not stored.  The basis cache is keyed by an int hashed
    from a product's tag (``2 * index``, plus 1 for succ) and its trees'
    ``_hash``, so no lookup calls ``DecoratedTree.__hash__``; an entry, one
    tuple ``(tag, s, t, *products)``, is a hit only if the tag matches and its
    trees are ``s`` and ``t`` themselves: a collision, or a tree held from
    before the tables were emptied, costs a recomputation, never a different
    result.  A tree from outside (``DecoratedTree(...)``, another carrier)
    has its labels checked when it is first interned (``check_tree``).

    Products: a product of basis trees is a sum of distinct trees with
    coefficient 1, cached in its entry when it recurses (a base case
    grafts at most once, and is not cached).  In ``_basis_prec``'s recursion
    no tree of prec(s.right, t) (root left subtree s.right.left) is a tree of
    succ(s.right, t) (root left subtree holding s.right), and grafting at one
    edge is injective, whatever the edge labels; ``_basis_succ`` mirrors it.

    Memory: when the two tables together hold ``ENTRY_BUDGET`` entries,
    both are emptied before the next entry is stored, so the carrier never
    holds more.  Products after that recompute what they need, and a tree
    held from before is interned again when next given to ``prec``/``succ``.

    The index is a dimonoid, or a semigroup read as the dimonoid whose two
    products are its product.  ``semigroup`` is the semigroup the family
    operations run over: the one given, with its own unit and commutativity
    claims, or the one underlying a semigroup-form dimonoid (None for any
    other dimonoid)."""

    def __init__(self, decorations, index):
        decorations = read_names(decorations, "decorations", LABEL)
        if isinstance(index, SemigroupTable):
            semigroup = index
            dimonoid = DimonoidTable(index.elements, index.product, index.product)
        elif isinstance(index, DimonoidTable):
            dimonoid = index
            semigroup = semigroup_from_dimonoid(index) if index.is_semigroup_form() else None
        else:
            raise MalformedInputError("free carrier requires a dimonoid or semigroup index")
        if "e" in decorations + dimonoid.elements:
            raise MalformedInputError('"e" is reserved for the empty tree')
        self.decorations = decorations
        self.dimonoid = dimonoid
        self.semigroup = semigroup
        self._sidx = {name: i for i, name in enumerate(dimonoid.elements)}
        self._cache = {}  # product key -> (tag, s, t, tree, ...), coefficients 1
        self._trees = {}  # t._hash -> the canonical tree t

    def _put(self, table, key, value):
        """Store value in table (``_cache`` or ``_trees``) and return it; at
        ``ENTRY_BUDGET`` entries both tables are emptied first."""
        if len(self._cache) + len(self._trees) >= ENTRY_BUDGET:
            self._cache.clear()
            self._trees.clear()
        table[key] = value
        return value

    def _node(self, label, left=EMPTY, left_edge=None, right=EMPTY, right_edge=None):
        """The canonical tree with this root over these subtrees, or on a
        hash collision an unshared one (built by the checking constructor).
        The labels must be the carrier's own and the subtrees trees it
        returned: every caller reads them off its decorations, its dimonoid or
        a tree it has interned and checked, so a new canonical tree is built
        in one step, handed the hash it was looked up by."""
        h = hash((label, left_edge, right_edge, left._hash, right._hash))
        tree = self._trees.get(h)
        if tree is None:
            return self._put(self._trees, h, DecoratedTree(label, left, left_edge, right, right_edge, h))
        if (tree.left is left or tree.left == left) and (tree.right is right or tree.right == right) and (
            tree.label == label and tree.left_edge == left_edge and tree.right_edge == right_edge
        ):
            return tree
        return DecoratedTree(label, left, left_edge, right, right_edge)

    def _interned(self, x):
        """The linear combination x over canonical trees."""
        for u, _ in x:
            if self._trees.get(u._hash) is not u:
                return LinComb((self.check_tree(u), c) for u, c in x)
        return x

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
        """The canonical tree equal to t (on a hash collision, an equal tree
        that is not stored).  The labels of a tree the carrier has not
        interned are checked first, so an undeclared label raises
        MalformedInputError; t is then interned, itself if its children are canonical."""
        if t is EMPTY:
            return t
        hit = self._trees.get(t._hash)
        if hit is not None and hit == t:
            return hit
        if t.label not in self.decorations:
            raise MalformedInputError(f"undeclared vertex label {t.label!r}")
        for edge in (t.left_edge, t.right_edge):
            if edge is not None and edge not in self._sidx:
                raise MalformedInputError(f"undeclared edge label {edge!r}")
        left, right = self.check_tree(t.left), self.check_tree(t.right)
        if hit is None and left is t.left and right is t.right:
            return self._put(self._trees, t._hash, t)
        return self._node(t.label, left, t.left_edge, right, t.right_edge)

    def parse(self, text):
        return self.check_tree(tree_parse(text, self.decorations, self.dimonoid.elements))

    # -- basis-level recursion on canonical trees; (tree, ...) out

    def _basis_prec(self, s, t, a):
        if t is EMPTY:
            if s is EMPTY:
                raise ContractError("the product of two empty trees is undefined")
            return (s,)
        if s is EMPTY:
            return ()
        if s.right is EMPTY:
            # right subtree empty: the recursive prec summand vanishes and the
            # succ summand grafts t whole, edge labeled by the bare index
            return (self._node(s.label, s.left, s.left_edge, t, self.dimonoid.name(a)),)
        tag = 2 * a  # prec at a; succ's tags are odd
        key = hash((tag, s._hash, t._hash))
        hit = self._cache.get(key)
        if hit is not None and hit[0] == tag and hit[1] is s and hit[2] is t:
            return hit[3:]
        # plain loops over locals: on CPython 3.11 a comprehension costs a frame per product
        node, grafts, dimonoid = self._node, [], self.dimonoid
        label, left, left_edge, right = s.label, s.left, s.left_edge, s.right
        sigma2 = self._sidx[s.right_edge]
        edge = dimonoid.name(dimonoid.left_mul(sigma2, a))
        for u in self._basis_prec(right, t, a):
            grafts.append(node(label, left, left_edge, u, edge))
        edge = dimonoid.name(dimonoid.right_mul(sigma2, a))
        for u in self._basis_succ(right, t, sigma2):
            grafts.append(node(label, left, left_edge, u, edge))
        return self._put(self._cache, key, (tag, s, t, *grafts))[3:]

    def _basis_succ(self, s, t, a):
        if s is EMPTY:
            if t is EMPTY:
                raise ContractError("the product of two empty trees is undefined")
            return (t,)
        if t is EMPTY:
            return ()
        if t.left is EMPTY:
            return (self._node(t.label, s, self.dimonoid.name(a), t.right, t.right_edge),)
        tag = 2 * a + 1
        key = hash((tag, s._hash, t._hash))
        hit = self._cache.get(key)
        if hit is not None and hit[0] == tag and hit[1] is s and hit[2] is t:
            return hit[3:]
        node, grafts, dimonoid = self._node, [], self.dimonoid
        label, right, right_edge, left = t.label, t.right, t.right_edge, t.left
        tau1 = self._sidx[t.left_edge]
        edge = dimonoid.name(dimonoid.left_mul(a, tau1))
        for u in self._basis_prec(s, left, tau1):
            grafts.append(node(label, u, edge, right, right_edge))
        edge = dimonoid.name(dimonoid.right_mul(a, tau1))
        for u in self._basis_succ(s, left, a):
            grafts.append(node(label, u, edge, right, right_edge))
        return self._put(self._cache, key, (tag, s, t, *grafts))[3:]

    # -- bilinear operations on linear combinations of trees

    def graft_sum(self, terms):
        """The sum of k * kind(s, t, a) over the (k, kind, s, t, a) terms, kind
        "prec" or "succ", in one dict: k * cu * cv is added to each tree of the
        basis product of u and v, over the terms of s and t (interned once each)."""
        acc, interned = {}, {}
        get = acc.get
        for k, kind, s, t, a in terms:
            basis = getattr(self, "_basis_" + kind)
            for x in (s, t):
                if id(x) not in interned:
                    interned[id(x)] = self._interned(x)
            s, t, a = interned[id(s)], interned[id(t)], self.index_of(a)
            for u, cu in s:
                for v, cv in t:
                    weight = k * cu * cv
                    for w in basis(u, v, a):
                        acc[w] = get(w, 0) + weight
        return LinComb(acc)

    def prec(self, s, t, a):
        """s below t: graft t into the right spine of s."""
        return self.graft_sum(((1, "prec", s, t, a),))

    def succ(self, s, t, a):
        """s above t: graft s into the left spine of t."""
        return self.graft_sum(((1, "succ", s, t, a),))

    # -- operation bundles

    def _ops(self, index):
        """Single-index prec/succ over index, each stating its one grafting."""
        return (
            FamilyIndexedOp(index, lambda a, x, y: self.prec(x, y, a),
                            grafts=(self.graft_sum, lambda a, x, y: ((1, "prec", x, y, a),))),
            FamilyIndexedOp(index, lambda a, x, y: self.succ(x, y, a),
                            grafts=(self.graft_sum, lambda a, x, y: ((1, "succ", x, y, a),))),
        )

    def dimonoid_ops(self):
        """Single-index prec/succ over the dimonoid itself."""
        return self._ops(self.dimonoid)

    def family_ops(self):
        """Single-index prec/succ over ``semigroup``; only available when
        both dimonoid products coincide."""
        if self.semigroup is None:
            raise ContractError("family operations need a semigroup-form dimonoid")
        return self._ops(self.semigroup)

    def matching_ops(self):
        """Single-index prec/succ over a projection dimonoid."""
        if not self.dimonoid.is_matching_form():
            raise ContractError("matching operations need a projection dimonoid")
        return self.dimonoid_ops()

    def random_tree(self, rng, max_vertices):
        return random_tree_from(
            rng, self.decorations, self.dimonoid.elements, max_vertices, self._node
        )


class SampledTreeDomain:
    """Seeded random tree tuples with every tuple of the carrier's index
    elements: ``elements`` yields tuples of trees as basis vectors, and
    ``render_basis`` prints a tree.  The tuples of each arity k are drawn once,
    from a fresh ``Random(seed)`` when ``elements(k)`` is first iterated, and
    every later call yields the same tuples: every equation of that arity
    sees them, and repeated runs are bit-identical."""

    def __init__(self, carrier, samples, max_vertices, seed):
        if samples < 1 or max_vertices < 1:
            raise ContractError("a tree sample needs samples >= 1 and max_vertices >= 1")
        self.carrier = carrier
        self.samples = samples
        self.max_vertices = max_vertices
        self.seed = seed
        self.index_size = carrier.dimonoid.size
        self._drawn = {}  # k -> the sample k-tuples, drawn on first use

    def elements(self, k):
        if k not in self._drawn:
            rng, draw = Random(self.seed), self.carrier.random_tree
            self._drawn[k] = [
                tuple(LinComb.single(draw(rng, self.max_vertices)) for _ in range(k))
                for _ in range(self.samples)
            ]
        yield from self._drawn[k]

    def indices(self, m):
        return product(range(self.index_size), repeat=m)

    def render_basis(self, b):
        return tree_print(b)
