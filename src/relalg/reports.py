"""Structured check reports.

Every verification in the package returns a :class:`CheckReport`: a machine
name for the check, a pass bit, the number of verified instances, and (on
failure) the first counterexample in the check's deterministic scan order.
Reports serialize to JSON with a canonical rendering so that identical runs
produce byte-identical output.  :func:`scan` is the one loop that counts a
check's instances and picks its counterexample.
"""

import json
from dataclasses import asdict, dataclass, field


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
    """Canonical JSON rendering used by the CLI and the tests."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
