"""Exact scalars and normalized formal linear combinations.

Scalars are exact rationals: a Python ``int`` when the denominator is 1, a
``fractions.Fraction`` (denominator positive, gcd-reduced) otherwise, so the
common integer coefficients never pay for ``Fraction`` arithmetic.  Both types
have ``numerator`` and ``denominator``, so :func:`format_scalar` renders them
alike, zero as ``0/1``.  A :class:`LinComb` is a finite formal rational
combination over any totally ordered, hashable basis type; it is immutable by
contract and always kept in canonical form (no zero coefficients).  Its terms
are unordered; they are sorted in basis order only when read out in order
(``items``, ``render``, ``to_pairs``, ``repr``).
"""

import re
from fractions import Fraction
from operator import itemgetter

from .errors import MalformedInputError

_by_basis = itemgetter(0)
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(text):
    """Parse ``"p/q"`` or ``"p"`` into an exact scalar: an optional sign,
    ASCII digits, optionally ``/`` and ASCII digits, with whitespace around.
    Anything else is refused before a number is built."""
    text = str(text)
    match = _SCALAR.fullmatch(text.strip())
    quoted = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    if match is None:
        raise MalformedInputError(f'bad scalar {quoted}: expected "p/q"')
    num, den = match.groups()
    try:
        return int(num) if den is None else exact(Fraction(int(num), int(den)))
    except ZeroDivisionError:
        raise MalformedInputError(f"bad scalar {quoted}: zero denominator") from None
    except ValueError:  # more digits than int() reads
        digits = max(len(num.lstrip("+-")), len(den or ""))
        raise MalformedInputError(f"bad scalar {quoted}: {digits} digits, too many") from None


def format_scalar(value):
    """Render an exact scalar as ``"p/q"``, denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


def exact(value):
    """Any rational scalar (an ``int``, a ``Fraction``, a finite float, a
    ``"p/q"`` string read by :func:`parse_scalar`, ...) in the one exact form:
    an ``int`` when its denominator is 1, else a Fraction.  Anything else is
    refused as :class:`MalformedInputError`.  Every scalar the package holds
    is coerced here; an ``int`` or a ``Fraction`` pays for no other test."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, str):
            return parse_scalar(value)
        try:
            value = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            raise MalformedInputError(f"bad scalar {value!r:.40}: not a rational number") from None
    return value.numerator if value.denominator == 1 else value


class LinComb:
    """Finite formal linear combination with exact rational coefficients,
    held as an unordered ``{basis: coefficient}`` dict.

    The dict accumulated from an iterable of pairs is kept, and a dict
    argument is copied with ``dict``, so no basis is hashed again; a zero
    ``int`` coefficient's key is deleted, and only when a coefficient is not
    an ``int`` is the dict rebuilt in exact form."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            acc = terms
        else:
            acc = {}
            get = acc.get
            for basis, coeff in terms:
                acc[basis] = get(basis, 0) + coeff
        zero = False
        for c in acc.values():
            if type(c) is not int:
                self._terms = {b: c if type(c) is int else exact(c) for b, c in acc.items() if c}
                return
            if not c:
                zero = True
        acc = dict(acc) if acc is terms else acc
        if zero:
            for b in [b for b, c in acc.items() if not c]:
                del acc[b]
        self._terms = acc

    @classmethod
    def single(cls, basis, coeff=1):
        return cls(((basis, coeff),))

    def items(self):
        return tuple(sorted(self._terms.items(), key=_by_basis))

    def coeff(self, basis):
        return self._terms.get(basis, 0)

    def is_zero(self):
        return not self._terms

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        get = acc.get
        for b, c in other._terms.items():
            acc[b] = get(b, 0) + c
        return LinComb(acc)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        if not other._terms:
            return self
        acc = dict(self._terms)
        get = acc.get
        for b, c in other._terms.items():
            acc[b] = get(b, 0) - c
        return LinComb(acc)

    def __neg__(self):
        return LinComb({b: -c for b, c in self._terms.items()})

    def scale(self, k):
        if type(k) is not int:
            k = exact(k)
        if k == 1:
            return self
        if k == 0:
            return LinComb()
        return LinComb({b: k * c for b, c in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"
        body = " + ".join(f"{format_scalar(c)}*{b!r}" for b, c in self.items())
        return f"LinComb({body})"

    def render(self, basis_str=str):
        """Human form: ``p/q * b1 + p/q * b2 - ...``; ``0`` when empty."""
        if not self._terms:
            return "0"
        parts = []
        for i, (b, c) in enumerate(self.items()):
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
        return [[format_scalar(c), basis_str(b)] for b, c in self.items()]


def lc_add(a, b):
    return a + b


def lc_scale(k, a):
    return a.scale(k)


def lc_bilinear_extend(f, a, b, *aux):
    """Extend the basis-level map ``f(b1, b2, *aux) -> LinComb`` bilinearly."""
    acc = {}
    get = acc.get
    for ba, ca in a:
        for bb, cb in b:
            weight = ca * cb
            for bc, cc in f(ba, bb, *aux):
                acc[bc] = get(bc, 0) + weight * cc
    return LinComb(acc)
