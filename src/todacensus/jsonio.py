"""Canonical serialization for reports.

The JSON layout is versioned ("toda-census/1") and byte-deterministic:
floats are rendered with repr (17 significant digits round-trip), keys are
sorted, and separators are fixed, so identical inputs give identical bytes.
Complex numbers appear as [re, im] pairs, exact rationals as "num/den"
strings, and matrices as row-major nested [re, im] lists.  A report
serializes from its dataclass fields, one key per field; a class whose JSON
differs from its fields says so in a to_json_dict method, which wins.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np

from .errors import StructuralError

SCHEMA = "toda-census/1"

__all__ = [
    "SCHEMA",
    "to_jsonable",
    "dumps_canonical",
    "rows_to_csv",
    "complex_pair",
    "matrix_to_json",
]


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(M):
    """Row-major [re, im] pairs."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise StructuralError("matrix expected")
    return [[complex_pair(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def to_jsonable(obj):
    """Recursively convert report objects to plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return complex_pair(obj)
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return [to_jsonable(v) for v in obj.tolist()]
    if hasattr(obj, "to_json_dict"):
        return to_jsonable(obj.to_json_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    raise StructuralError("cannot serialize %r" % type(obj))


def dumps_canonical(payload):
    """Deterministic JSON text for a jsonable payload (schema injected).

    Floats go through repr, which is exact round-trip (up to 17 significant
    digits) and canonical per value; keys are sorted and separators fixed,
    so equal payloads give equal bytes."""
    body = to_jsonable(payload)
    if isinstance(body, dict) and "schema" not in body:
        body = dict(body)
        body["schema"] = SCHEMA
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def rows_to_csv(rows, columns):
    """Render scan rows as CSV, one column per name in columns, in order."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, str):
            if any(ch in v for ch in ",\"\n"):
                return '"' + v.replace('"', '""') + '"'
            return v
        return str(v)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(k)) for k in columns))
    return "\n".join(lines) + "\n"
