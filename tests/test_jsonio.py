"""Canonical serialization of reports."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from todacensus.jsonio import dumps_canonical, rows_to_csv, to_jsonable


@dataclass(frozen=True)
class _Fields:
    z: complex
    q: Fraction
    M: np.ndarray
    items: tuple


@dataclass(frozen=True)
class _Custom:
    x: int

    def to_json_dict(self):
        return {"renamed": self.x}


def test_dataclass_serializes_from_its_fields():
    obj = _Fields(z=1 + 2j, q=Fraction(3, 4), M=np.eye(2), items=(_Custom(5), None))
    assert to_jsonable(obj) == {
        "z": [1.0, 2.0],
        "q": "3/4",
        "M": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "items": [{"renamed": 5}, None],
    }


def test_to_json_dict_wins_over_fields():
    assert to_jsonable(_Custom(7)) == {"renamed": 7}
    assert dumps_canonical(_Custom(7)) == '{"renamed":7,"schema":"toda-census/1"}\n'


def test_csv_quotes_string_cells_that_need_it():
    rows = [{"error": 'a, "b"\nc', "x": 0.5}, {"error": "plain", "x": None}]
    assert rows_to_csv(rows, ["x", "error"]) == 'x,error\n0.5,"a, ""b""\nc"\n,plain\n'
