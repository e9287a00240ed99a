"""Deterministic text output: CSV rows and JSON with 17-significant-digit floats.

Both report formats share one float representation so a value printed in a CSV
cell and the same value printed in a JSON report are byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, TextIO


def fmt_float(x: float) -> str:
    """17 significant digits; enough to round-trip any float64 exactly."""
    if not math.isfinite(x):
        # JSON has no inf/nan literals and the CSV contract is numeric cells.
        raise ValueError(f"non-finite value {x!r} in report output")
    return f"{float(x):.17g}"


def write_csv(handle: TextIO, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    handle.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        handle.write(",".join(cells) + "\n")


def write_values(handle: TextIO, first: str, xs: Iterable[float],
                 values: Iterable[complex]) -> None:
    """CSV of (x, re, im, modulus) rows under the header first,re,im,modulus."""
    rows = ((float(x), float(v.real), float(v.imag), float(abs(v))) for x, v in zip(xs, values))
    write_csv(handle, (first, "re", "im", "modulus"), rows)


def json_text(obj: Any, indent: int = 2) -> str:
    """Serialize to JSON, formatting every float with fmt_float."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _emit(obj: Any, out: list[str], indent: int, depth: int) -> None:
    pad = " " * (indent * depth)
    inner = " " * (indent * (depth + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key, ensure_ascii=False) + ": ")
            _emit(value, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(inner)
            _emit(value, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
