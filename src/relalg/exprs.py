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

from .errors import TreeParseError
from .freecheck import DERIVED_OPS, free_pair_ops
from .lincomb import LinComb, parse_scalar
from .trees import _Parser

SINGLE_INDEX_OPS = ("prec", "succ")
PAIR_INDEX_OPS = tuple(DERIVED_OPS)


class _ExprParser(_Parser):
    def __init__(self, text, carrier):
        super().__init__(text, carrier.decorations, carrier.dimonoid.elements)
        self.carrier = carrier

    def expression(self):
        value = self.term()
        while self.peek() == "+":
            self.pos += 1
            value = value + self.term()
        return value

    def term(self):
        ch = self.peek()
        if ch.isdigit() or ch == "-":
            coeff = self.scalar()
            self.expect("*")
            return self.term().scale(coeff)
        mark = self.pos
        name = self.name()
        if name in SINGLE_INDEX_OPS + PAIR_INDEX_OPS and self.peek() == "(":
            return self.call(name)
        self.pos = mark
        return LinComb.single(self.tree())

    def scalar(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "/"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected a scalar")
        try:
            return parse_scalar(self.text[start:self.pos])
        except ValueError as exc:
            raise TreeParseError(str(exc), start) from None

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
        return apply_op(self.carrier, op, indices, left, right)


def apply_op(carrier, op, indices, x, y):
    if op in SINGLE_INDEX_OPS:
        return getattr(carrier, op)(x, y, indices[0])
    prec, succ = free_pair_ops(carrier)
    derived = DERIVED_OPS[op](prec, succ)
    a, b = (prec.index.index_of(name) for name in indices)
    return derived(a, b, x, y)


def eval_expression(text, carrier):
    parser = _ExprParser(text, carrier)
    try:
        result = parser.expression()
    except RecursionError:
        raise TreeParseError("nesting too deep", parser.pos) from None
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after expression")
    return result
