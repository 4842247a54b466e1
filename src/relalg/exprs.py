"""The expression language over the free tree carrier.

Grammar::

    expr  := term ("+" term)*
    term  := scalar "*" term | call | tree
    call  := op "(" index ["," index] "," expr "," expr ")"
    op    := prec | succ | mul | circ | bracket

prec and succ take a single index element; the derived operations mul, circ
and bracket take an index pair.  Trees use the text form of the trees module
("e", "x[]", "x[, a: y[]]") with labels validated against the carrier.
Scalars are "p/q" with an optional sign; whitespace is insignificant.
"""

from .freecheck import DERIVED_OPS, free_derived_op
from .lincomb import _SCALAR, LinComb, parse_scalar
from .trees import _Parser

SINGLE_INDEX_OPS = ("prec", "succ")
PAIR_INDEX_OPS = tuple(DERIVED_OPS)


class _ExprParser(_Parser):
    def __init__(self, text, carrier):
        super().__init__(text, carrier.decorations, carrier.dimonoid.elements)
        self.carrier = carrier
        self.derived = {}  # role -> its free_derived_op, built on first use

    def expression(self):
        value = self.term()
        while self.peek() == "+":
            self.pos += 1
            value = value + self.term()
        return value

    def term(self):
        ch = self.peek()
        if ch.isdigit() or ch in ("+", "-"):
            coeff = self.scalar()
            self.expect("*")
            return self.term().scale(coeff)
        mark = self.pos
        name = self.name()
        if name in SINGLE_INDEX_OPS + PAIR_INDEX_OPS and self.peek() == "(":
            return self.call(name)
        self.pos = mark
        return self.carrier.to_ids(LinComb.single(self.tree()))

    def scalar(self):
        self.skip_ws()
        match = _SCALAR.match(self.text, self.pos)
        if match is None:
            self.error("expected a scalar")
        try:
            value = parse_scalar(match.group())
        except ValueError as exc:
            self.error(str(exc))
        self.pos = match.end()
        return value

    def index_name(self):
        name = self.name()
        if name not in self.carrier.dimonoid.elements:
            self.error(f"unknown index element {name!r}")
        return name

    def call(self, op):
        self.expect("(")
        indices = [self.index_name()]
        if op in PAIR_INDEX_OPS:
            self.expect(",")
            indices.append(self.index_name())
        self.expect(",")
        left = self.expression()
        self.expect(",")
        right = self.expression()
        self.expect(")")
        return apply_op(self.carrier, op, indices, left, right, self.derived)


def apply_op(carrier, op, indices, x, y, derived):
    """op at indices on x and y, vectors over the carrier's ids.  A derived op
    is built once per role, into ``derived``: a dict from role to the
    carrier's ``free_derived_op``."""
    if op in SINGLE_INDEX_OPS:
        return carrier.graft_sum(((1, op, x, y, indices[0]),))
    if op not in derived:
        derived[op] = free_derived_op(carrier, op)
    a, b = (derived[op].index.index_of(name) for name in indices)
    return derived[op](a, b, x, y)


def eval_expression(text, carrier):
    """The value of the expression, a vector over trees; inside, over ids."""
    carrier.settle()
    return carrier.to_trees(_ExprParser(text, carrier).parse("expression"))
