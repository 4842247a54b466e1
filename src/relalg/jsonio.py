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

All loaders raise :class:`MalformedInputError` naming the offending path.
"""

import json

from .errors import MalformedInputError
from .lincomb import LinComb, format_scalar, parse_scalar
from .ops import FiniteRelativeAlgebra, MorphismFamily, RotaBaxterFamily
from .semigroups import Cocycle, DimonoidTable, SemigroupTable
from .samples import reciprocal_rota_baxter


def load_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}: invalid JSON: {exc}") from None


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
        raise MalformedInputError(f"{path}.{key}: wrong type {type(value).__name__}")
    return value


def _names(obj, key, path):
    """The list of names under ``key``; a name that is not a JSON string is
    refused with its path."""
    names = _need(obj, key, list, path)
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise MalformedInputError(
                f"{path}.{key}[{k}]: expected a string, got {type(name).__name__}"
            )
    return names


def _scalar_row(row, path):
    """Parse a list of ``"p/q"`` strings; JSON numbers and unparsable strings
    are refused with the entry's path."""
    out = []
    for k, c in enumerate(row):
        if not isinstance(c, str):
            raise MalformedInputError(
                f'{path}[{k}]: expected a "p/q" string, got {type(c).__name__}'
            )
        try:
            out.append(parse_scalar(c))
        except MalformedInputError as exc:
            raise MalformedInputError(f"{path}[{k}]: {exc}") from None
    return out


def _int_table(rows, path):
    if not isinstance(rows, list):
        raise MalformedInputError(f"{path}: expected a table")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise MalformedInputError(f"{path}[{i}]: expected a row")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise MalformedInputError(f"{path}[{i}][{j}]: expected an integer index")
        out.append(list(row))
    return out


def load_semigroup(obj, path="semigroup"):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: expected an object")
    elements = _names(obj, "elements", path)
    table = _int_table(_need(obj, "product", list, path), f"{path}.product")
    unit_name = _need(obj, "unit", str, path, optional=True)
    commutative = _need(obj, "commutative", bool, path, optional=True)
    if unit_name is not None and unit_name not in elements:
        raise MalformedInputError(f"{path}.unit: unknown element {unit_name!r}")
    try:
        return SemigroupTable(
            elements,
            table,
            unit=None if unit_name is None else elements.index(unit_name),
            commutative=commutative,
        )
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def dump_semigroup(semigroup):
    return {
        "elements": list(semigroup.elements),
        "product": [list(row) for row in semigroup.product],
        "unit": None if semigroup.unit is None else semigroup.elements[semigroup.unit],
        "commutative": semigroup.claims_commutative,
    }


def load_dimonoid(obj, path="dimonoid"):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: expected an object")
    elements = _names(obj, "elements", path)
    left = _int_table(_need(obj, "left", list, path), f"{path}.left")
    right = _int_table(_need(obj, "right", list, path), f"{path}.right")
    try:
        return DimonoidTable(elements, left, right)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def dump_dimonoid(dimonoid):
    return {
        "elements": list(dimonoid.elements),
        "left": [list(row) for row in dimonoid.left],
        "right": [list(row) for row in dimonoid.right],
    }


def load_cocycle(obj, path="cocycle"):
    base = load_semigroup(obj, path)
    raw = _need(obj, "values", list, path)
    values = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise MalformedInputError(f"{path}.values[{i}]: expected a row")
        values.append(_scalar_row(row, f"{path}.values[{i}]"))
    try:
        return Cocycle(base, values)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def dump_cocycle(cocycle):
    out = dump_semigroup(cocycle.base)
    out["values"] = [[format_scalar(v) for v in row] for row in cocycle.values]
    return out


def _element(semigroup, name, path):
    """The index of element ``name``; an unknown name is refused with its path."""
    try:
        return semigroup.index_of(name)
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def _parse_op_key(key, semigroup, path):
    key = key.strip()
    if key.startswith("(") and key.endswith(")"):
        parts = key[1:-1].split(",")
        if len(parts) != 2:
            raise MalformedInputError(f"{path}: bad index-pair key {key!r}")
        return tuple(_element(semigroup, p.strip(), path) for p in parts)
    return (_element(semigroup, key, path),)


def _parse_block(raw, dim, path):
    if not isinstance(raw, list):
        raise MalformedInputError(f"{path}: expected a {dim}x{dim}x{dim} array")
    block = []
    for i, plane in enumerate(raw):
        if not isinstance(plane, list):
            raise MalformedInputError(f"{path}[{i}]: expected {dim} rows")
        rows = []
        for j, row in enumerate(plane):
            if not isinstance(row, list):
                raise MalformedInputError(f"{path}[{i}][{j}]: expected {dim} scalars")
            rows.append(tuple(_scalar_row(row, f"{path}[{i}][{j}]")))
        block.append(tuple(rows))
    return tuple(block)


def load_algebra(obj, path="algebra"):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: expected an object")
    dim = _need(obj, "dim", int, path)
    basis = _names(obj, "basis", path)
    if len(basis) != dim:
        raise MalformedInputError(f"{path}.basis: expected {dim} names, got {len(basis)}")
    semigroup = load_semigroup(_need(obj, "semigroup", dict, path), f"{path}.semigroup")
    raw_ops = _need(obj, "ops", dict, path)
    ops = {}
    for role, table in raw_ops.items():
        if not isinstance(table, dict):
            raise MalformedInputError(f"{path}.ops.{role}: expected an object")
        parsed = {}
        for key, block in table.items():
            idx = _parse_op_key(key, semigroup, f"{path}.ops.{role}.{key}")
            parsed[idx] = _parse_block(block, dim, f"{path}.ops.{role}.{key}")
        ops[role] = parsed
    unit_raw = _need(obj, "unit", list, path, optional=True)
    unit_vector = None
    if unit_raw is not None:
        if len(unit_raw) != dim:
            raise MalformedInputError(f"{path}.unit: expected {dim} coefficients")
        unit_vector = LinComb(enumerate(_scalar_row(unit_raw, f"{path}.unit")))
    try:
        return FiniteRelativeAlgebra(basis, semigroup, ops, unit_vector)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


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
    unit = None
    if alg.unit_vector is not None:
        dense = [format_scalar(alg.unit_vector.coeff(k)) for k in range(alg.dim)]
        unit = dense
    return {
        "dim": alg.dim,
        "basis": list(alg.basis),
        "semigroup": dump_semigroup(semigroup),
        "ops": ops,
        "unit": unit,
    }


def _parse_matrix(raw, rows, cols, path):
    if not isinstance(raw, list) or len(raw) != rows:
        raise MalformedInputError(f"{path}: expected a {rows}x{cols} matrix")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise MalformedInputError(f"{path}[{i}]: expected {cols} scalars")
        out.append(_scalar_row(row, f"{path}[{i}]"))
    return out


RB_BUILTINS = {"reciprocal": reciprocal_rota_baxter}


def load_rota_baxter(obj, path="rb"):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: expected an object")
    if "builtin" in obj:
        name = obj["builtin"]
        if name not in RB_BUILTINS:
            raise MalformedInputError(
                f"{path}.builtin: unknown builtin {name!r} (available: {sorted(RB_BUILTINS)})"
            )
        return RB_BUILTINS[name]()
    algebra = load_algebra(_need(obj, "algebra", dict, path), f"{path}.algebra")
    raw_maps = _need(obj, "maps", dict, path)
    maps = {}
    for name, matrix in raw_maps.items():
        a = _element(algebra.index, name, f"{path}.maps.{name}")
        maps[a] = _parse_matrix(matrix, algebra.dim, algebra.dim, f"{path}.maps.{name}")
    if sorted(maps) != list(range(algebra.index.size)):
        raise MalformedInputError(f"{path}.maps: need exactly one matrix per semigroup element")
    return RotaBaxterFamily(algebra, {a: tuple(map(tuple, m)) for a, m in maps.items()})


def load_morphism(obj, path="morphism"):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: expected an object")
    source = load_algebra(_need(obj, "source", dict, path), f"{path}.source")
    target = load_algebra(_need(obj, "target", dict, path), f"{path}.target")
    raw_maps = _need(obj, "maps", dict, path)
    maps = {}
    for name, matrix in raw_maps.items():
        a = _element(source.index, name, f"{path}.maps.{name}")
        maps[a] = _parse_matrix(matrix, target.dim, source.dim, f"{path}.maps.{name}")
    try:
        return MorphismFamily(source, target, maps)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None
