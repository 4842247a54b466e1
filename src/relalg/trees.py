"""Planar rooted binary trees with labeled vertices and labeled internal
edges: the basis of the free dendriform algebra.

Trees are immutable by contract, like every value in the package.
Construction computes the size and a structural hash (from the root label,
the edge labels and the children's hashes).  Equality and hashing are
structural, so equal trees compare and hash equal wherever they were built;
inside a check a free carrier codes its trees as int ids instead (see
``freedend``).  An edge label is present exactly when the subtree on that
side is nonempty.  The canonical total order is vertex count, then shape,
then vertex labels, then edge labels (all in preorder); its sort key, which
determines the tree, is built on first use, since only rendering sorts, and
equality reads it only past the identity and hash fast paths.

Text form: ``e`` is the empty tree; ``x[]`` a single vertex; otherwise
``label[edge: tree, edge: tree]`` with either side omissible, e.g.
``x[, a: y[]]`` for a root x whose only child is y, attached right via a.
A label is one or more letters, digits and ``_`` (``LABEL``).
"""

import re

from .errors import TreeParseError

LABEL = re.compile(r"\w+")


class DecoratedTree:
    """A tree; after ``__init__`` only ``sort_key`` assigns, to fill its cache.
    Construction checks that an edge label is present exactly on a nonempty
    side, coerces the labels to ``str`` and hashes."""

    __slots__ = ("label", "left", "left_edge", "right", "right_edge", "size", "_hash", "_key")

    def __init__(self, label, left=None, left_edge=None, right=None, right_edge=None):
        left = EMPTY if left is None else left
        right = EMPTY if right is None else right
        if label is None:  # the empty tree; constructed once below
            if EMPTY is not None:
                raise ValueError("use trees.EMPTY for the empty tree")
            self.label = None
            self.left = self
            self.left_edge = None
            self.right = self
            self.right_edge = None
            self.size = 0
            self._key = (0, "", (), ())
            self._hash = hash(self._key)
            return
        if (left is EMPTY) != (left_edge is None) or (right is EMPTY) != (right_edge is None):
            raise ValueError("edge labels must be present exactly on edges to nonempty subtrees")
        label = str(label)
        left_edge = None if left_edge is None else str(left_edge)
        right_edge = None if right_edge is None else str(right_edge)
        self.label = label
        self.left = left
        self.left_edge = left_edge
        self.right = right
        self.right_edge = right_edge
        self.size = 1 + left.size + right.size
        self._key = None
        self._hash = hash((label, left_edge, right_edge, left._hash, right._hash))

    def sort_key(self):
        """(size, shape, vertex labels, edge labels), the last three in
        preorder; built on the first call and kept."""
        key = self._key
        if key is None:
            left, right = self.left, self.right
            lk, rk = left.sort_key(), right.sort_key()
            elabels = ()
            if left is not EMPTY:
                elabels += (self.left_edge,) + lk[3]
            if right is not EMPTY:
                elabels += (self.right_edge,) + rk[3]
            key = (self.size, f"({lk[1]}|{rk[1]})", (self.label,) + lk[2] + rk[2], elabels)
            self._key = key
        return key

    def __eq__(self, other):
        return self is other or (isinstance(other, DecoratedTree) and self._hash == other._hash
                                 and self.sort_key() == other.sort_key())

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __repr__(self):
        return f"DecoratedTree({tree_print(self)!r})"


EMPTY = None
EMPTY = DecoratedTree(None)


def tree_print(t):
    if t.size == 0:
        return "e"
    if t.left is EMPTY and t.right is EMPTY:
        return f"{t.label}[]"
    lpart = "" if t.left is EMPTY else f"{t.left_edge}: {tree_print(t.left)}"
    rpart = "" if t.right is EMPTY else f"{t.right_edge}: {tree_print(t.right)}"
    return f"{t.label}[{lpart}, {rpart}]"


class _Parser:
    def __init__(self, text, vertex_labels=None, edge_labels=None):
        self.text = text
        self.pos = 0
        self.vertex_labels = None if vertex_labels is None else set(vertex_labels)
        self.edge_labels = None if edge_labels is None else set(edge_labels)

    def error(self, message):
        raise TreeParseError(message, self.pos)

    def parse(self, rule):
        """The whole text read by the method named ``rule``: nesting beyond
        the recursion limit and trailing input are refused."""
        try:
            result = getattr(self, rule)()
        except RecursionError:
            raise TreeParseError("nesting too deep", self.pos) from None
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"trailing input after {rule}")
        return result

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        match = LABEL.match(self.text, self.pos)
        if match is None:
            self.error("expected a label")
        self.pos = match.end()
        return match.group()

    def tree(self):
        label = self.name()
        if label == "e" and self.peek() != "[":
            return EMPTY
        if self.vertex_labels is not None and label not in self.vertex_labels:
            self.error(f"undeclared vertex label {label!r}")
        self.expect("[")
        left, left_edge = self.subtree()
        if self.peek() == ",":
            self.pos += 1
            right, right_edge = self.subtree()
        else:
            right, right_edge = EMPTY, None
        self.expect("]")
        return DecoratedTree(label, left, left_edge, right, right_edge)

    def subtree(self):
        if self.peek() in (",", "]"):
            return EMPTY, None
        edge = self.name()
        if self.edge_labels is not None and edge not in self.edge_labels:
            self.error(f"undeclared edge label {edge!r}")
        self.expect(":")
        child = self.tree()
        if child is EMPTY:
            self.error("an edge label requires a nonempty subtree")
        return child, edge


def tree_parse(text, vertex_labels=None, edge_labels=None):
    """Parse the text form; optional label sets make undeclared labels an
    error.  The whole input must be consumed."""
    return _Parser(text, vertex_labels, edge_labels).parse("tree")


def random_tree_from(rng, vertex_labels, edge_labels, max_vertices):
    """One random nonempty tree: size uniform in 1..max_vertices, shape by
    uniform recursive splitting, labels uniform.  Integer randomness only."""
    vertex_labels, edge_labels = list(vertex_labels), list(edge_labels)
    return _random_tree(rng, vertex_labels, edge_labels, 1 + rng.randrange(max_vertices))


def _random_tree(rng, vertex_labels, edge_labels, n):
    """A random tree of ``n`` vertices."""
    label = vertex_labels[rng.randrange(len(vertex_labels))]
    if n == 1:
        return DecoratedTree(label)
    k = rng.randrange(n)  # vertices in the left subtree
    left = _random_tree(rng, vertex_labels, edge_labels, k) if k else EMPTY
    right = _random_tree(rng, vertex_labels, edge_labels, n - 1 - k) if n - 1 - k else EMPTY
    return DecoratedTree(
        label,
        left,
        edge_labels[rng.randrange(len(edge_labels))] if k else None,
        right,
        edge_labels[rng.randrange(len(edge_labels))] if n - 1 - k else None,
    )
