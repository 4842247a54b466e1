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

A carrier hash-conses its trees (Filliâtre and Conchon, 2006): inside a
check a tree is an int id into the carrier's node list, and the grafting
recursion and its basis-product cache run on ids; the two tables share
``ENTRY_BUDGET`` (see ``FreeDendCarrier``).
"""

from itertools import product
from random import Random

from .errors import ContractError, MalformedInputError, read_names
from .lincomb import LinComb
from .ops import FamilyIndexedOp
from .semigroups import DimonoidTable, SemigroupTable, semigroup_from_dimonoid
from .trees import EMPTY, LABEL, DecoratedTree, random_tree_from, tree_parse, tree_print

# The most entries one carrier's node table and basis cache (one tuple per
# product) hold together at a safe point (``FreeDendCarrier.settle``).  Acceptance
# criterion 3's chain (Z/2, 200 samples, 6 vertices) never empties: each check runs
# on its power's carrier, RelLie's ending with 260,202 entries, and the carrier given
# holds none, in 0.7 s (2-core Xeon, Python 3.11.7); taken at every index tuple
# read, the chain emptied the carrier once and took 1.6 s.
ENTRY_BUDGET = 600_000

# The most elements of the power of the index a sampled check builds, else it scans
# per index tuple.  Built afresh, at 4 samples a power of 16 took half the scan's
# time, one of 27 2.5 times it and one of 81 up to 9 times (BENCH_power.json).
POWER_BOUND = 16


class FreeDendCarrier:
    """Decoration alphabet plus an index table of edge labels; holds the
    grafting operations over an arena of tree ids and a basis-product cache.

    Ids: 0 is the empty tree, and any other tree is an id into ``_nodes``,
    whose entry ``(label, left, left_edge, right, right_edge)`` holds the
    children as ids and the edge labels as dimonoid indices (-1 on an empty
    side).  ``_ids`` maps an entry back to its id, so equal trees have one id
    and a lookup is exact.  The recursion, ``graft_sum`` and the operation
    bundles (``dimonoid_ops``, ``family_ops``, ``matching_ops`` and
    ``freecheck``'s lifted and derived products) act on vectors over ids.
    ``prec``, ``succ``, ``parse``, ``check_tree`` and ``random_tree`` take and
    return trees (``DecoratedTree``); ``to_ids`` and ``to_trees`` convert
    vectors at that boundary, and a tree's labels are checked on the way in.

    Products: a product of basis trees is a sum of distinct trees with
    coefficient 1, cached under ``(tag, s, t)`` (tag ``2 * index``, plus 1 for
    succ) when it recurses (a base case grafts at most once, and is not
    cached).  In ``_basis_prec``'s recursion no tree of prec(s.right, t) (root
    left subtree s.right.left) is a tree of succ(s.right, t) (root left
    subtree holding s.right), and grafting at one edge is injective, whatever
    the edge labels; ``_basis_succ`` mirrors it.

    Memory: ids are never reused.  ``settle`` empties both tables once they
    hold ``ENTRY_BUDGET`` entries together, and later ids continue from
    ``_base``, past every id given out before; ``emptied`` counts the
    emptyings.  It is called only where no id is live outside the tables:
    by each public call that fills them (``prec``, ``succ``, ``check_tree``,
    ``exprs.eval_expression``) before it starts, and by ``SampledTreeDomain``
    before each element tuple, which then gives its samples fresh ids.  So no
    stale id reaches the recursion, and a carrier exceeds the budget by at
    most the entries one element tuple's instances (or one public call) add.

    The index is a dimonoid, or a semigroup, read as the dimonoid made from it
    whose two products are its product.  ``semigroup`` is the semigroup the
    family operations run over: the one a semigroup-form dimonoid was made
    from, with its own unit and commutativity claims, or else the one
    underlying it (None for any other dimonoid)."""

    def __init__(self, decorations, index):
        decorations = read_names(decorations, "decorations", LABEL)
        if isinstance(index, SemigroupTable):
            index = DimonoidTable(index.elements, index.product, index.product, index)
        elif not isinstance(index, DimonoidTable):
            raise MalformedInputError("free carrier requires a dimonoid or semigroup index")
        if "e" in decorations + index.elements:
            raise MalformedInputError('"e" is reserved for the empty tree')
        self.decorations = decorations
        self.dimonoid = index
        self.semigroup = semigroup_from_dimonoid(index) if index.is_semigroup_form() else None
        self._sidx = {name: i for i, name in enumerate(index.elements)}
        self._cache = {}  # (tag, s, t) -> the ids of the product, coefficients 1
        self._ids = {}  # node -> its id
        self._nodes = []  # the node of id _base + k at position k
        self._base = 1
        self.emptied = 0

    def settle(self):
        """Empty both tables if they hold ``ENTRY_BUDGET`` entries together;
        called only where no id is live outside them."""
        if len(self._cache) + len(self._ids) >= ENTRY_BUDGET:
            self._base += len(self._nodes)
            self._nodes.clear()
            self._ids.clear()
            self._cache.clear()
            self.emptied += 1

    def _node(self, *node):
        """The id of the tree with root ``node``, ids in; new ids are added."""
        i = self._ids.get(node)
        if i is None:
            i = self._ids[node] = self._base + len(self._nodes)
            self._nodes.append(node)
        return i

    # -- label plumbing and the two converters

    def index_of(self, a):
        if isinstance(a, int):
            if not 0 <= a < len(self._sidx):
                raise MalformedInputError(f"index {a} out of range")
            return a
        try:
            return self._sidx[str(a)]
        except KeyError:
            raise MalformedInputError(f"undeclared edge label {a!r}") from None

    def _id(self, t):
        """The id of tree t, whose labels are checked: an undeclared one
        raises MalformedInputError."""
        if t is EMPTY:
            return 0
        if t.label not in self.decorations:
            raise MalformedInputError(f"undeclared vertex label {t.label!r}")
        try:  # a tree's edge labels are names: its constructor makes them str
            left_edge = -1 if t.left_edge is None else self._sidx[t.left_edge]
            right_edge = -1 if t.right_edge is None else self._sidx[t.right_edge]
        except KeyError as missing:
            raise MalformedInputError(f"undeclared edge label {missing.args[0]!r}") from None
        return self._node(t.label, self._id(t.left), left_edge, self._id(t.right), right_edge)

    def _tree(self, i, memo=None):
        """The tree of id i, through ``memo`` (the trees of the ids converted
        so far, by id) when given; an id outside the current range raises
        ContractError."""
        if not i:
            return EMPTY
        tree = None if memo is None else memo.get(i)
        if tree is None:
            if not 0 <= i - self._base < len(self._nodes):
                raise ContractError(f"tree id {i} is not in this carrier's current tables")
            label, left, left_edge, right, right_edge = self._nodes[i - self._base]
            name = self.dimonoid.name
            tree = DecoratedTree(label, self._tree(left, memo), name(left_edge) if left else None,
                                 self._tree(right, memo), name(right_edge) if right else None)
            if memo is not None:
                memo[i] = tree
        return tree

    def to_ids(self, x):
        """The vector over ids of x, a vector over trees; their labels are checked."""
        return LinComb({self._id(u): c for u, c in x})

    def to_trees(self, x):
        """The vector over trees of x, a vector over ids; a subtree its trees
        share is converted once."""
        memo, trees = {}, {}
        for i, c in x:
            trees[self._tree(i, memo)] = c
        return LinComb(trees)

    def check_tree(self, t):
        """t, once its labels are checked: an undeclared one raises
        MalformedInputError."""
        self.settle()
        self._id(t)
        return t

    def parse(self, text):
        return tree_parse(text, self.decorations, self.dimonoid.elements)

    # -- basis-level recursion on ids; (id, ...) out

    def _basis_prec(self, s, t, a):
        if not t:
            if not s:
                raise ContractError("the product of two empty trees is undefined")
            return (s,)
        if not s:
            return ()
        # plain loops over locals, each node interned inline (as ``_node`` does):
        # on CPython 3.11 a comprehension or a call costs a frame per product
        ids, nodes = self._ids, self._nodes
        label, left, left_edge, right, sigma2 = nodes[s - self._base]
        if not right:
            # right subtree empty: the recursive prec summand vanishes and the
            # succ summand grafts t whole, edge labeled by the bare index
            node = label, left, left_edge, t, a
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            return (i,)
        key = (2 * a, s, t)  # prec at a; succ's tags are odd
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        grafts, dimonoid = [], self.dimonoid
        edge = dimonoid.left_mul(sigma2, a)
        for u in self._basis_prec(right, t, a):
            node = label, left, left_edge, u, edge
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            grafts.append(i)
        edge = dimonoid.right_mul(sigma2, a)
        for u in self._basis_succ(right, t, sigma2):
            node = label, left, left_edge, u, edge
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            grafts.append(i)
        hit = self._cache[key] = tuple(grafts)
        return hit

    def _basis_succ(self, s, t, a):
        if not s:
            if not t:
                raise ContractError("the product of two empty trees is undefined")
            return (t,)
        if not t:
            return ()
        ids, nodes = self._ids, self._nodes
        label, left, tau1, right, right_edge = nodes[t - self._base]
        if not left:
            node = label, s, a, right, right_edge
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            return (i,)
        key = (2 * a + 1, s, t)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        grafts, dimonoid = [], self.dimonoid
        edge = dimonoid.left_mul(a, tau1)
        for u in self._basis_prec(s, left, tau1):
            node = label, u, edge, right, right_edge
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            grafts.append(i)
        edge = dimonoid.right_mul(a, tau1)
        for u in self._basis_succ(s, left, a):
            node = label, u, edge, right, right_edge
            i = ids.get(node)
            if i is None:
                i = ids[node] = self._base + len(nodes)
                nodes.append(node)
            grafts.append(i)
        hit = self._cache[key] = tuple(grafts)
        return hit

    # -- bilinear operations on vectors

    def graft_sum(self, terms):
        """The sum of k * kind(s, t, a) over the (k, kind, s, t, a) terms, kind
        "prec" or "succ" and s, t vectors over ids, in one dict: k * cu * cv
        is added to each id of the basis product of u and v, over the terms
        of s and t."""
        acc = {}
        get = acc.get
        for k, kind, s, t, a in terms:
            basis, a = getattr(self, "_basis_" + kind), self.index_of(a)
            for u, cu in s:
                for v, cv in t:
                    weight = k * cu * cv
                    for w in basis(u, v, a):
                        acc[w] = get(w, 0) + weight
        return LinComb(acc)

    def _on_trees(self, kind, s, t, a):
        self.settle()
        return self.to_trees(self.graft_sum(((1, kind, self.to_ids(s), self.to_ids(t), a),)))

    def prec(self, s, t, a):
        """s below t: graft t into the right spine of s."""
        return self._on_trees("prec", s, t, a)

    def succ(self, s, t, a):
        """s above t: graft s into the left spine of t."""
        return self._on_trees("succ", s, t, a)

    # -- operation bundles, on vectors over ids

    def _ops(self, index):
        """Single-index prec/succ over index, each stating its one grafting."""
        graft_sum = self.graft_sum
        return tuple(
            FamilyIndexedOp(index, lambda a, x, y, kind=kind: graft_sum(((1, kind, x, y, a),)),
                            grafts=(graft_sum, lambda a, x, y, kind=kind: ((1, kind, x, y, a),)))
            for kind in ("prec", "succ")
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
        return random_tree_from(rng, self.decorations, self.dimonoid.elements, max_vertices)


class SampledTreeDomain:
    """Seeded random tree tuples with every tuple of the carrier's index
    elements: ``elements`` yields tuples of basis vectors over the ids of
    ``carrier``, the carrier that holds the samples, ``render_basis`` prints
    the tree of an id, and ``show`` renders a vector over ids as its trees, in
    tree order.  The tuples of each arity k are drawn once, as trees, by the
    carrier given from a fresh ``Random(seed)`` when ``elements(k)`` is first
    iterated, and every later call yields the same tuples: every equation of
    that arity sees them, and repeated runs are bit-identical.  ``power``, if
    given, is ``(over, columns)``: a carrier over a power of the index
    (``semigroups.power``), which then holds the samples, and the ids of the
    power's columns, which the scan reads as ``columns`` (else None).  The
    carrier holding the samples settles before each tuple; once it has
    emptied its tables, the tuples are interned again under fresh ids."""

    def __init__(self, carrier, samples, max_vertices, seed, power=None):
        if samples < 1 or max_vertices < 1:
            raise ContractError("a tree sample needs samples >= 1 and max_vertices >= 1")
        self.carrier, self.columns = power or (carrier, None)
        self._draw = carrier.random_tree
        self.samples = samples
        self.max_vertices = max_vertices
        self.seed = seed
        self.index_size = carrier.dimonoid.size
        self._drawn = {}  # k -> the sample k-tuples of trees, drawn on first use
        self._vectors = {}  # k -> (emptyings, those tuples over the ids given out since)

    def elements(self, k):
        if k not in self._drawn:
            rng, draw = Random(self.seed), self._draw
            self._drawn[k] = [tuple(draw(rng, self.max_vertices) for _ in range(k))
                              for _ in range(self.samples)]
        carrier = self.carrier
        for i in range(self.samples):
            carrier.settle()
            emptied, vectors = self._vectors.get(k, (None, None))
            if emptied != carrier.emptied:
                vectors = [tuple(LinComb.single(carrier._id(t)) for t in trees)
                           for trees in self._drawn[k]]
                self._vectors[k] = carrier.emptied, vectors
            yield vectors[i]

    def indices(self, m):
        return product(range(self.index_size), repeat=m)

    def render_basis(self, b):
        return tree_print(self.carrier._tree(b))

    def show(self, vec):
        return self.carrier.to_trees(vec).to_pairs(tree_print)
