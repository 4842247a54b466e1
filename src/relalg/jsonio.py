"""JSON schemas for the file formats the CLI consumes and emits.

Semigroups: ``{"elements": [...], "product": [[...]], "unit": name | null,
"commutative": bool}`` with table entries indexing into ``elements``.
Dimonoids replace ``product`` with ``left``/``right``; cocycle files are a
semigroup file with an extra ``values`` table of ``"p/q"`` scalars.

Algebras: ``{"dim": d, "basis": [...], "semigroup": {...}, "ops": {role:
{"(a,b)": block, ...}}, "unit": ["p/q", ...] | null}`` where each block is a
d x d x d nested list of scalars and keys are index pairs over element names
(a bare element name keys a family-indexed role).

Rota-Baxter files: ``{"builtin": "reciprocal"}`` for the rational line over
the positive integers with R_n(x) = x/n, or ``{"algebra": {...}, "maps":
{name: matrix, ...}}``.  Morphism files: ``{"source": {...}, "target":
{...}, "maps": {name: matrix, ...}}``.

Every nested list is read by ``errors.read_table``, the walker the
constructors share, with each length the file fixes.  JSON leaves check JSON
types: ``_scalars()`` (a "p/q" string; each loader that reads scalars makes
its own reader, which parses each distinct string once) and ``_name``.  The
constructors' leaves check values, here too: ``semigroups.index_leaf`` and
``semigroups.nonzero``.  Every
constructor is called through ``_build``, which refuses its ValueError at
the object's path.  Every object is read through
``_object``, which refuses a key written twice in one object (``load_file``
marks such an object) instead of keeping the last value.  So all loaders
raise :class:`MalformedInputError`, and every message begins with the JSON
path of the offending entry.
"""

import json

from .errors import MalformedInputError, read_table, type_name
from .lincomb import format_scalar, parse_scalar
from .ops import NO_BLOCKS, FiniteRelativeAlgebra, MorphismFamily, RotaBaxterFamily
from .semigroups import Cocycle, DimonoidTable, SemigroupTable, index_leaf, nonzero
from .samples import reciprocal_rota_baxter


class _KeyGivenTwice(dict):
    """A JSON object in which ``key`` (the first repeated key) is written
    more than once; the loader that reads the object refuses it at its path."""

    __slots__ = ("key",)


def _json_object(pairs):
    """The object hook of ``load_file``: a dict, marked when a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                break
            seen.add(key)
        obj = _KeyGivenTwice(obj)
        obj.key = key
    return obj


def load_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError:  # the one other ValueError: more digits than int() reads
        raise MalformedInputError(f"{path}: invalid JSON: integer literal too long") from None
    except RecursionError:
        raise MalformedInputError(f"{path}: invalid JSON: nested too deep") from None


def _object(value, path):
    """``value`` as a JSON object none of whose keys is given twice."""
    if not isinstance(value, dict):
        raise MalformedInputError(f"{path}: expected an object")
    if type(value) is _KeyGivenTwice:
        raise MalformedInputError(f"{path}.{value.key}: key given twice")
    return value


def _need(obj, key, types, path, optional=False):
    if key not in obj:
        if optional:
            return None
        raise MalformedInputError(f"{path}: missing key {key!r}")
    value = obj[key]
    if value is None and optional:
        return None
    # bool is an int subclass; a JSON true is never read as the integer 1
    if not isinstance(value, types) or (type(value) is bool and types is not bool):
        raise MalformedInputError(f"{path}.{key}: wrong type {type_name(value)}")
    return _object(value, f"{path}.{key}") if types is dict else value


def _build(path, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; the ValueError it raises is refused as
    malformed input at ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def _scalars():
    """A ``"p/q"`` leaf reader: each distinct string is parsed once, then
    read from a dict local to the reader."""
    parsed = {}

    def scalar(value):
        if type(value) is not str:
            raise MalformedInputError(f'expected a "p/q" string, got {type_name(value)}')
        out = parsed.get(value)
        if out is None:
            out = parsed[value] = parse_scalar(value)
        return out

    return scalar


def _name(value):
    if type(value) is not str:
        raise MalformedInputError(f"expected a string, got {type_name(value)}")
    return value


def load_semigroup(obj, path="semigroup"):
    _object(obj, path)
    elements = read_table(_need(obj, "elements", list, path), f"{path}.elements", _name, None)
    n = len(elements)
    table = read_table(_need(obj, "product", list, path), f"{path}.product", index_leaf(n), n, n)
    unit_name = _need(obj, "unit", str, path, optional=True)
    commutative = _need(obj, "commutative", bool, path, optional=True)
    if unit_name is not None and unit_name not in elements:
        raise MalformedInputError(f"{path}.unit: unknown element {unit_name!r}")
    unit = None if unit_name is None else elements.index(unit_name)
    return _build(path, SemigroupTable, elements, table, unit=unit, commutative=commutative)


def dump_semigroup(semigroup):
    return {
        "elements": list(semigroup.elements),
        "product": [list(row) for row in semigroup.product],
        "unit": None if semigroup.unit is None else semigroup.elements[semigroup.unit],
        "commutative": semigroup.claims_commutative,
    }


def load_dimonoid(obj, path="dimonoid"):
    _object(obj, path)
    elements = read_table(_need(obj, "elements", list, path), f"{path}.elements", _name, None)
    n = len(elements)
    left = read_table(_need(obj, "left", list, path), f"{path}.left", index_leaf(n), n, n)
    right = read_table(_need(obj, "right", list, path), f"{path}.right", index_leaf(n), n, n)
    return _build(path, DimonoidTable, elements, left, right)


def dump_dimonoid(dimonoid):
    return {
        "elements": list(dimonoid.elements),
        "left": [list(row) for row in dimonoid.left],
        "right": [list(row) for row in dimonoid.right],
    }


def load_cocycle(obj, path="cocycle"):
    base = load_semigroup(obj, path)
    scalar, n = _scalars(), base.size
    values = _need(obj, "values", list, path)
    values = read_table(values, f"{path}.values", lambda v: nonzero(scalar(v)), n, n)
    return _build(path, Cocycle, base, values)


def dump_cocycle(cocycle):
    out = dump_semigroup(cocycle.base)
    out["values"] = [[format_scalar(v) for v in row] for row in cocycle.values]
    return out


def _parse_op_key(key, semigroup, path):
    """The index tuple an ``ops`` key names: ``"(a,b)"`` or a bare ``a``.
    Element names are tree labels, so no name holds the comma split on."""
    key = key.strip()
    if key.startswith("(") and key.endswith(")"):
        names = key[1:-1].split(",")
        if len(names) != 2:
            raise MalformedInputError(f"{path}: bad index-pair key {key!r}")
    else:
        names = [key]
    return tuple(_build(path, semigroup.index_of, name.strip()) for name in names)


def load_algebra(obj, path="algebra"):
    _object(obj, path)
    scalar = _scalars()
    dim = _need(obj, "dim", int, path)
    basis = read_table(_need(obj, "basis", list, path), f"{path}.basis", _name, dim)
    semigroup = load_semigroup(_need(obj, "semigroup", dict, path), f"{path}.semigroup")
    ops = {}
    for role, table in _need(obj, "ops", dict, path).items():
        _object(table, f"{path}.ops.{role}")
        ops[role] = blocks = {}
        for key, block in table.items():
            where = f"{path}.ops.{role}.{key}"
            idx = _parse_op_key(key, semigroup, where)
            # "(1,1)" and "( 1 , 1 )" name one index tuple
            if idx in blocks:
                names = ", ".join(map(semigroup.name, idx)) + "," * (len(idx) == 1)
                raise MalformedInputError(f"{where}: index ({names}) already given")
            blocks[idx] = read_table(block, where, scalar, dim, dim, dim)
        if not blocks:
            raise MalformedInputError(f"{path}.ops.{role}: {NO_BLOCKS}")
    unit = _need(obj, "unit", list, path, optional=True)
    if unit is not None:
        unit = read_table(unit, f"{path}.unit", scalar, dim)
    return _build(path, FiniteRelativeAlgebra, basis, semigroup, ops, unit)


def dump_algebra(alg):
    semigroup = alg.index
    ops = {}
    for role in alg.roles():
        table = {}
        for idx, block in alg.ops[role].items():
            if len(idx) == 2:
                key = f"({semigroup.elements[idx[0]]},{semigroup.elements[idx[1]]})"
            else:
                key = semigroup.elements[idx[0]]
            table[key] = [
                [[format_scalar(c) for c in row] for row in plane] for plane in block
            ]
        ops[role] = table
    unit = alg.unit_coordinates()
    return {
        "dim": alg.dim,
        "basis": list(alg.basis),
        "semigroup": dump_semigroup(semigroup),
        "ops": ops,
        "unit": None if unit is None else [format_scalar(c) for c in unit],
    }


def _maps(obj, path, index, rows, cols):
    """The ``maps`` object: index element -> rows x cols scalar matrix."""
    maps = {}
    scalar = _scalars()
    for name, matrix in _need(obj, "maps", dict, path).items():
        where = f"{path}.maps.{name}"
        maps[_build(where, index.index_of, name)] = read_table(matrix, where, scalar, rows, cols)
    return maps


def load_rota_baxter(obj, path="rb"):
    _object(obj, path)
    if "builtin" in obj:
        name = obj["builtin"]
        if name != "reciprocal":
            raise MalformedInputError(
                f"{path}.builtin: unknown builtin {name!r} (available: ['reciprocal'])"
            )
        return reciprocal_rota_baxter()
    algebra = load_algebra(_need(obj, "algebra", dict, path), f"{path}.algebra")
    maps = _maps(obj, path, algebra.index, algebra.dim, algebra.dim)
    return _build(path, RotaBaxterFamily, algebra, maps)


def load_morphism(obj, path="morphism"):
    _object(obj, path)
    source = load_algebra(_need(obj, "source", dict, path), f"{path}.source")
    target = load_algebra(_need(obj, "target", dict, path), f"{path}.target")
    maps = _maps(obj, path, source.index, target.dim, source.dim)
    return _build(path, MorphismFamily, source, target, maps)
