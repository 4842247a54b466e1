"""Exact scalars and normalized formal linear combinations.

Scalars are ``fractions.Fraction`` values throughout: denominators positive,
gcd-reduced, zero uniquely ``0/1``.  A :class:`LinComb` is a finite formal
rational combination over any totally ordered, hashable basis type; it is
immutable and always kept in canonical form (no zero coefficients, terms
sorted in basis order).
"""

from fractions import Fraction

from .errors import MalformedInputError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(text):
    """Parse ``"p/q"`` (or a bare integer string) into a Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad scalar {text!r}: {exc}") from None


def format_scalar(value):
    """Render a Fraction as ``"p/q"``, denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


class LinComb:
    """Finite formal linear combination with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for basis, coeff in items:
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            acc[basis] = acc.get(basis, ZERO) + coeff
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted(((b, c) for b, c in acc.items() if c != 0), key=lambda t: t[0])),
        )

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, basis, coeff=ONE):
        return cls(((basis, coeff),))

    def items(self):
        return self._terms

    def support(self):
        return tuple(b for b, _ in self._terms)

    def coeff(self, basis):
        for b, c in self._terms:
            if b == basis:
                return c
        return ZERO

    def is_zero(self):
        return not self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb(self._terms + other._terms)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb(self._terms + tuple((b, -c) for b, c in other._terms))

    def __neg__(self):
        return LinComb(tuple((b, -c) for b, c in self._terms))

    def scale(self, k):
        k = k if isinstance(k, Fraction) else Fraction(k)
        if k == 0:
            return LinComb()
        return LinComb(tuple((b, k * c) for b, c in self._terms))

    def __rmul__(self, k):
        return self.scale(k)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"
        body = " + ".join(f"{format_scalar(c)}*{b!r}" for b, c in self._terms)
        return f"LinComb({body})"

    def render(self, basis_str=str):
        """Human form: ``p/q * b1 + p/q * b2 - ...``; ``0`` when empty."""
        if not self._terms:
            return "0"
        parts = []
        for i, (b, c) in enumerate(self._terms):
            mag = format_scalar(abs(c))
            if i == 0:
                sign = "-" if c < 0 else ""
                parts.append(f"{sign}{mag} * {basis_str(b)}")
            else:
                sign = "-" if c < 0 else "+"
                parts.append(f" {sign} {mag} * {basis_str(b)}")
        return "".join(parts)

    def to_pairs(self, basis_str=str):
        """Serialize to ``[[coeff "p/q", basis], ...]`` in basis order."""
        return [[format_scalar(c), basis_str(b)] for b, c in self._terms]

    @classmethod
    def from_pairs(cls, pairs, basis_parse=lambda s: s):
        return cls((basis_parse(b), parse_scalar(c)) for c, b in pairs)


def lc_add(a, b):
    return a + b


def lc_scale(k, a):
    return a.scale(k)


def lc_bilinear_extend(f, a, b, *aux):
    """Extend the basis-level map ``f(b1, b2, *aux) -> LinComb`` bilinearly."""
    acc = {}
    for ba, ca in a:
        for bb, cb in b:
            weight = ca * cb
            for bc, cc in f(ba, bb, *aux):
                acc[bc] = acc.get(bc, ZERO) + weight * cc
    return LinComb(acc)
