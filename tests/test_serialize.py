"""Canonical encoding: stable bytes for identical numeric content."""
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from searchcontest import canonical, to_json, write_json
from searchcontest.serialize import csv_text, format_full, round15


def test_round15_trims_noise_digits():
    assert round15(0.1 + 0.2) == 0.3
    assert round15(1.0) == 1.0
    assert round15(math.pi) == 3.14159265358979
    assert round15(float("inf")) == float("inf")
    assert math.isnan(round15(float("nan")))


def test_format_full_round_trips():
    for x in (0.3, 1e-12, 123456.789, -2.5e300):
        assert float(format_full(x)) == round15(x)


def test_canonical_handles_dataclasses_and_numpy():
    @dataclass(frozen=True)
    class Row:
        name: str
        value: float
        counts: tuple

    obj = Row("a", np.float64(0.1 + 0.2), (np.int64(3), 4))
    out = canonical(obj)
    assert out == {"name": "a", "value": 0.3, "counts": [3, 4]}
    assert isinstance(out["counts"][0], int)


def test_canonical_preserves_bools_and_none():
    out = canonical({"flag": True, "missing": None, "arr": np.array([1.0, 2.0])})
    assert out["flag"] is True
    assert out["missing"] is None
    assert out["arr"] == [1.0, 2.0]


def test_canonical_stringifies_unknown_objects():
    class Odd:
        def __str__(self):
            return "odd"

    assert canonical({1: Odd()}) == {"1": "odd"}


def test_to_json_sorts_keys_and_is_deterministic():
    a = to_json({"b": 1, "a": {"d": 2.0, "c": [3.0]}})
    b = to_json({"a": {"c": [3.0], "d": 2.0}, "b": 1})
    assert a == b
    parsed = json.loads(a)
    assert list(parsed.keys()) == ["a", "b"]


def test_json_equality_tracks_rounded_floats():
    # values differing beyond 15 significant digits encode identically
    x = 0.1 + 0.2
    assert x != 0.3
    assert to_json({"v": x}) == to_json({"v": 0.3})


def test_write_json_appends_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"a": 1})
    text = path.read_text()
    assert text.endswith("}\n")
    assert json.loads(text) == {"a": 1}


def test_csv_text_uses_plain_newlines():
    text = csv_text(["n", "value"], [[2, 0.5], [3, "--"]])
    assert text == "n,value\n2,0.5\n3,--\n"
    assert "\r" not in text

