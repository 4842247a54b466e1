"""Structured check reports.

Every verification in the package returns a :class:`CheckReport`: a machine
name for the check, a pass bit, the number of verified instances, and (on
failure) the first counterexample in the check's deterministic scan order.
Reports serialize to JSON with a canonical rendering, the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, so that
identical runs produce byte-identical output.  :func:`scan` is the one loop
that counts a check's instances and picks its counterexample.
"""

import json
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii as _quote


@dataclass(frozen=True)
class Counterexample:
    equation: str
    elements: tuple = ()
    indices: tuple = ()
    lhs: object = None
    rhs: object = None


@dataclass(frozen=True)
class CheckReport:
    check: str
    passed: bool
    instances: int
    counterexample: Counterexample | None = None
    info: dict = field(default_factory=dict)

    def to_payload(self):
        """The report's fields as a dict, the counterexample's nested in it."""
        return asdict(self)


def summary(payload):
    """The one-line summary of a report's payload (``to_payload``), the line
    the CLI writes to stderr for each report."""
    ce = payload["counterexample"]
    where = "" if ce is None else f" at {ce['equation']} {tuple(ce['indices'])}"
    verdict = "PASS" if payload["passed"] else "FAIL"
    return f"{verdict} {payload['check']}: {payload['instances']} instances{where}"


def scan(check, instances, show):
    """Verify a stream of instances in the order given and report on it: an
    ``int`` n stands for n instances that passed, and a tuple
    ``(equation, elements, indices, lhs, rhs)`` for one instance.

    The scan stops at the first instance with ``lhs != rhs``, which becomes
    the counterexample with both sides rendered by ``show``; the instance
    count includes it.  ``elements`` and ``indices`` are iterables of names,
    read only for the counterexample, so a caller may pass them lazily.
    """
    count = 0
    for item in instances:
        if type(item) is int:
            count += item
            continue
        count += 1
        equation, elements, indices, lhs, rhs = item
        if lhs != rhs:
            counterexample = Counterexample(
                equation, tuple(elements), tuple(indices), show(lhs), show(rhs)
            )
            return CheckReport(check, False, count, counterexample)
    return CheckReport(check, True, count)


def to_json(payload):
    """Canonical JSON rendering used by the CLI and the tests: exactly
    ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``, written by
    ``_render``, or by ``json.dumps`` itself for a value ``_render`` refuses."""
    try:
        return _render(payload, "\n") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(value, pad):
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it
    after the line break and indent ``pad``, strings by json's own encoder.
    It writes only a ``str``, an ``int``, a bool, None, a list or tuple, and
    a plain dict with ``str`` keys; anything else raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        try:  # a row of strings, every line of an algebra's table
            body = ("," + inner).join(map(_quote, value))
        except TypeError:
            body = ("," + inner).join([_render(item, inner) for item in value])
        return "[" + inner + body + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        keys = sorted(value)
        if {*map(type, keys)} != {str}:
            raise TypeError("a key that is not a str")
        body = ("," + inner).join([_quote(key) + ": " + _render(value[key], inner) for key in keys])
        return "{" + inner + body + pad + "}"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not rendered here")
