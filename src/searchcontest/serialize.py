"""Canonical JSON and CSV encoding for result objects.

Floats are rounded to 15 significant digits before encoding and dictionary
keys are sorted, so two runs that compute the same numbers produce the same
bytes regardless of thread count or platform dict ordering.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def round15(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.15g}")


def format_full(x: float) -> str:
    return f"{x:.15g}"


def canonical(obj: Any) -> Any:
    """Plain JSON-ready structure: dataclasses to dicts, numpy to python,
    floats rounded, keys stringified."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return round15(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [canonical(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def to_json(obj: Any, indent: int = 2) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=indent)


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(to_json(obj) + "\n")


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    import csv  # only table commands write CSV
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()

