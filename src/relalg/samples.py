"""Canonical small carriers used by the test suite and the CLI builtins."""

from fractions import Fraction
from itertools import product

from .ops import FiniteRelativeAlgebra, OpCarrier, PairIndexedOp, RotaBaxterFamily, _kernel
from .semigroups import positive_integers_additive, trivial_monoid


def truncated_integration_zinbiel(degree):
    """The polynomial zinbiel product (integrate the left factor, multiply)
    on the basis t^0 .. t^degree, products past the top degree truncated to
    zero: t^m * t^n = t^(m+n+1) / (m+1)."""
    dim = degree + 1
    block = [[[0] * dim for n in range(dim)] for m in range(dim)]
    for m, n in product(range(dim), repeat=2):
        if m + n + 1 <= degree:
            block[m][n][m + n + 1] = Fraction(1, m + 1)
    return FiniteRelativeAlgebra(
        [f"t^{m}" for m in range(dim)], trivial_monoid(), {"ast": {(0, 0): block}}
    )


def rational_line_carrier():
    """The rationals as a one-dimensional carrier over the positive integers
    under addition, with the index-independent product: the 1×1 block
    ``1 * 1 = 1``, taken through a finite algebra's kernel, which reads no index."""
    index = positive_integers_additive()
    line = _kernel((((1,),),), 1)
    return OpCarrier(index, {"mul": PairIndexedOp(index, line, reads=())}, basis=("1",))


def reciprocal_rota_baxter():
    """R_n(x) = x / n on the rational line; the standard windowed example."""
    return RotaBaxterFamily(rational_line_carrier(), lambda n, x: x.scale(Fraction(1, n)))
