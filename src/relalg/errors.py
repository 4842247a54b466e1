"""Exception types shared across the package, and the readers the JSON
loaders and the constructors share: ``read_table``, the one reader of nested
tables, ``read_names``, the one reader of a list of names, and
``read_keyed``, the one reader of a table keyed by index elements or tuples."""


class MalformedInputError(ValueError):
    """Structurally invalid data: bad table shapes, unparsable scalars, schema
    violations.  Its message begins with the path of the offending entry."""


def type_name(value):
    """The type a refusal names: a ``dict``, whichever subclass a decoder made."""
    return "dict" if isinstance(value, dict) else type(value).__name__


def read_table(raw, path, leaf, length, *inner):
    """``raw`` as nested tuples, one level per entry of the shape ``(length,
    *inner)``: the length that level's list (or tuple) must have, or None for
    any.  ``leaf`` reads each innermost entry and refuses one, every time, with
    a ValueError.  The bottom one or two levels are read in one pass (a sweep
    over row types and lengths, then one ``tuple(map(leaf, row))`` per row);
    paths are formatted only when a refused level is walked again, entry by
    entry, to name the refusal: ``product[1]: expected a list of length 2, got 3``."""
    if type(raw) not in (list, tuple) or length not in (None, len(raw)):
        got = len(raw) if type(raw) in (list, tuple) else type_name(raw)
        expected = "a list" if length is None else f"a list of length {length}"
        raise MalformedInputError(f"{path}: expected {expected}, got {got}")
    try:
        if not inner:
            return tuple(map(leaf, raw))
        if len(inner) > 1:  # a refusal inside is named again below, at its full path
            return tuple([read_table(row, path, leaf, *inner) for row in raw])
        (n,) = inner
        if {*map(type, raw)} <= {list, tuple} and (n is None or {*map(len, raw)} <= {n}):
            return tuple([tuple(map(leaf, row)) for row in raw])
    except ValueError:
        pass
    for k, value in enumerate(raw):  # name the refusal
        if inner:
            read_table(value, f"{path}[{k}]", leaf, *inner)
            continue
        try:
            leaf(value)
        except ValueError as exc:
            raise MalformedInputError(f"{path}[{k}]: {exc}") from None


def read_keyed(table, what, keys, leaf, *shape):
    """``table``, a dict whose keys equal ``keys``, each value read by ``read_table``
    at ``{what}[{key}]``.  Another key set is refused naming the missing keys,
    sorted, and the extra ones in table order: mixed-type keys are never sorted."""
    if not isinstance(table, dict):
        raise MalformedInputError(f"{what}: expected a dict, got {type_name(table)}")
    keys = set(keys)
    if table.keys() != keys:
        missing, extra = sorted(keys - table.keys()), [k for k in table if k not in keys]
        raise MalformedInputError(f"{what}: wrong index keys (missing {missing}, extra {extra})")
    return {key: read_table(value, f"{what}[{key}]", leaf, *shape) for key, value in table.items()}


def read_names(values, what, label=None):
    """``values``, an iterable other than a ``str``, as a tuple of ``str``
    names, at least one and no name twice; ``label``, a compiled pattern, is
    the grammar every name must match."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise MalformedInputError(f"{what}: expected a list of names, got {type_name(values)}")
    names = tuple(map(str, values))
    if not names:
        raise MalformedInputError(f"{what}: expected at least one name")
    if len(set(names)) != len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise MalformedInputError(f"{what}: name {twice!r} given twice")
    if label is not None:
        for name in names:
            if not label.fullmatch(name):
                raise MalformedInputError(f"label {name!r}: tree labels are letters, digits and _")
    return names


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
