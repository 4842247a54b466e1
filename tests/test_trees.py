from random import Random

import pytest

from relalg import EMPTY, DecoratedTree, tree_parse, tree_print
from relalg.errors import TreeParseError
from relalg.trees import random_tree_from


def test_empty_roundtrip():
    assert tree_print(EMPTY) == "e"
    assert tree_parse("e") is EMPTY


def test_single_vertex_roundtrip():
    t = DecoratedTree("x")
    assert tree_print(t) == "x[]"
    assert tree_parse("x[]") == t
    assert tree_parse("x[,]") == t
    assert tree_parse(" x [ , ] ") == t


def test_right_child_form():
    t = DecoratedTree("x", right=DecoratedTree("y"), right_edge="a")
    assert tree_parse("x[ , a: y[]]") == t
    assert tree_print(t) == "x[, a: y[]]"
    assert tree_parse(tree_print(t)) == t


def test_left_child_and_full_forms():
    t = DecoratedTree("x", left=DecoratedTree("y"), left_edge="a")
    assert tree_print(t) == "x[a: y[], ]"
    assert tree_parse(tree_print(t)) == t
    full = DecoratedTree("z", left=t, left_edge="b", right=DecoratedTree("y"), right_edge="a")
    assert tree_parse(tree_print(full)) == full
    assert full.size == 4


def test_parse_errors_carry_position():
    with pytest.raises(TreeParseError) as err:
        tree_parse("x[a: ]")
    assert err.value.position > 0
    with pytest.raises(TreeParseError):
        tree_parse("x[] trailing")
    with pytest.raises(TreeParseError):
        tree_parse("x[, a: e]")  # edge label to an empty subtree
    with pytest.raises(TreeParseError):
        tree_parse("")


def test_label_validation():
    tree_parse("x[, a: y[]]", vertex_labels=["x", "y"], edge_labels=["a"])
    with pytest.raises(TreeParseError):
        tree_parse("z[]", vertex_labels=["x", "y"], edge_labels=["a"])
    with pytest.raises(TreeParseError):
        tree_parse("x[, b: y[]]", vertex_labels=["x", "y"], edge_labels=["a"])


def test_edge_label_invariant_enforced():
    with pytest.raises(ValueError):
        DecoratedTree("x", left=DecoratedTree("y"))  # nonempty subtree without a label
    with pytest.raises(ValueError):
        DecoratedTree("x", left_edge="a")  # label without a subtree


def test_canonical_order():
    # vertex count dominates
    assert EMPTY < DecoratedTree("z")
    assert DecoratedTree("z") < DecoratedTree("a", right=DecoratedTree("a"), right_edge="s")
    # same size: shape before labels; a left-leaning two-vertex tree and a
    # right-leaning one differ in shape
    left_two = DecoratedTree("a", left=DecoratedTree("a"), left_edge="s")
    right_two = DecoratedTree("a", right=DecoratedTree("a"), right_edge="s")
    assert (left_two < right_two) != (right_two < left_two)
    # same shape: vertex labels in preorder
    assert DecoratedTree("a", right=DecoratedTree("b"), right_edge="s") < DecoratedTree(
        "b", right=DecoratedTree("a"), right_edge="s"
    )
    # same shape and vertex labels: edge labels decide
    assert DecoratedTree("a", right=DecoratedTree("a"), right_edge="s") < DecoratedTree(
        "a", right=DecoratedTree("a"), right_edge="t"
    )


def test_equality_and_hash_are_structural():
    t1 = tree_parse("x[a: y[], b: x[]]")
    t2 = DecoratedTree("x", DecoratedTree("y"), "a", DecoratedTree("x"), "b")
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 is not t2
    assert t1 != tree_parse("x[b: y[], b: x[]]")
    left_child = DecoratedTree("x", DecoratedTree("y"), "a")
    assert left_child != DecoratedTree("x", right=DecoratedTree("y"), right_edge="a")
    assert DecoratedTree("x") != "x[]"
    # the checking constructor coerces labels: int labels give the tree of
    # their str names, hash and all
    for t, u in ((DecoratedTree(1), DecoratedTree("1")),
                 (DecoratedTree(1, DecoratedTree(2), 0), DecoratedTree("1", DecoratedTree("2"), "0"))):
        assert t == u and t._hash == u._hash
    # equality reads the sort key past the hash: a different tree whose hash
    # is made equal still compares unequal, either way round
    forged = tree_parse("x[b: y[], b: x[]]")
    forged._hash = t1._hash
    assert t1 != forged and forged != t1


def test_random_tree_deterministic():
    assert random_tree_from(Random(9), "xy", "ab", 6) == random_tree_from(Random(9), "xy", "ab", 6)
    assert random_tree_from(Random(0), "xy", "ab", 1).size == 1


def test_random_tree_rejects_bad_size():
    with pytest.raises(ValueError):
        random_tree_from(Random(0), "x", "a", 0)


def test_random_trees_cover_shapes():
    rng = Random(0)
    seen = {tree_print(random_tree_from(rng, ["x"], ["s"], 6)) for _ in range(1000)}
    shapes = {tree_parse(t).sort_key()[1] for t in seen}
    assert len(shapes) >= 2
    sizes = {tree_parse(t).size for t in seen}
    assert sizes == set(range(1, 7))


def eager_sort_key(t):
    """The canonical sort key as it was computed at construction, bottom up,
    before the key became lazy: the reference for ``sort_key``."""
    if t is EMPTY:
        return (0, "", (), ())
    lk, rk = eager_sort_key(t.left), eager_sort_key(t.right)
    shape = f"({lk[1]}|{rk[1]})"
    vlabels = (t.label,) + lk[2] + rk[2]
    elabels = ()
    if t.left is not EMPTY:
        elabels += (t.left_edge,) + lk[3]
    if t.right is not EMPTY:
        elabels += (t.right_edge,) + rk[3]
    return (t.size, shape, vlabels, elabels)


def test_lazy_sort_key_matches_the_eager_one():
    rng = Random(11)
    trees = [random_tree_from(rng, ["x", "y", "z"], ["a", "b"], 7) for _ in range(2000)]
    for t in trees:
        assert t.sort_key() == eager_sort_key(t)
        # the key determines the tree: rebuilt from its text, it is equal
        rebuilt = tree_parse(tree_print(t))
        assert rebuilt is not t and rebuilt == t and hash(rebuilt) == hash(t)
    assert sorted(trees) == sorted(trees, key=eager_sort_key)
    assert len(set(trees)) == len({tree_print(t) for t in trees})
