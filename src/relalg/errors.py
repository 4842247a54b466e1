"""Exception types shared across the package."""


class MalformedInputError(ValueError):
    """Structurally invalid data: bad table shapes, unparsable scalars, schema
    violations.  Carries a human-readable path to the offending entry."""


class ContractError(Exception):
    """A precondition of an operation was violated: missing operation role,
    index structure of the wrong kind, non-commutative index where a
    commutative one is required, window-closure failures."""


class TreeParseError(MalformedInputError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConstructionRefused(Exception):
    """A derived-structure construction refused its input; ``report`` holds
    the failing check with its counterexample."""

    def __init__(self, report):
        super().__init__(f"construction refused: {report.check}")
        self.report = report


def require(report):
    """The one refusal path: ``report`` if it passed, otherwise
    :class:`ConstructionRefused` carrying it."""
    if not report.passed:
        raise ConstructionRefused(report)
    return report
