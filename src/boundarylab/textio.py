"""Deterministic text output: CSV rows and JSON with 17-significant-digit floats.

Both report formats share one float representation so a value printed in a CSV
cell and the same value printed in a JSON report are byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence, TextIO

import numpy as np


def fmt_float(x: float) -> str:
    """17 significant digits; enough to round-trip any float64 exactly."""
    if not math.isfinite(x):
        # JSON has no inf/nan literals and the CSV contract is numeric cells.
        raise ValueError(f"non-finite value {x!r} in report output")
    return f"{float(x):.17g}"


# Rows formatted by one '%' call in write_csv: enough to amortize the call,
# few enough that the text of one block stays small up to MAX_ANGLES rows.
_CSV_BLOCK = 4096

_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}


def write_csv(handle: TextIO, header: Sequence[str], columns: Sequence[Any]) -> None:
    """Write equal-length columns as CSV rows under header.

    A float column is printed like fmt_float (%.17g), an int column with %d,
    a bool column as true/false and any other column with %s.  Rows are
    formatted a block at a time with one '%' call.  A non-finite float cell
    raises fmt_float's ValueError for the first such cell in row order, after
    every complete row before it has been written.
    """
    cols = []
    for col in columns:
        arr = np.asarray(col)
        cols.append(np.where(arr, "true", "false") if arr.dtype.kind == "b" else arr)
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    n = lengths.pop() if lengths else 0
    formats = [_CELL_FORMATS.get(c.dtype.kind, "%s") for c in cols]
    floats = [c for c, f in zip(cols, formats) if f == "%.17g"]
    row = ",".join(formats) + "\n"
    handle.write(",".join(header) + "\n")
    for at in range(0, n, _CSV_BLOCK):
        stop = min(at + _CSV_BLOCK, n)
        bad = None
        if floats:
            finite = np.isfinite(np.array([c[at:stop] for c in floats]))
            if not finite.all():
                first = int(np.argmin(finite.all(axis=0)))
                bad = floats[int(np.argmin(finite[:, first]))][at + first]
                stop = at + first
        cells: list[Any] = [None] * ((stop - at) * len(cols))
        for j, c in enumerate(cols):
            cells[j::len(cols)] = c[at:stop].tolist()
        handle.write((row * (stop - at)) % tuple(cells))
        if bad is not None:
            fmt_float(float(bad))  # raises the non-finite ValueError


def write_values(handle: TextIO, first: str, xs: Sequence[float],
                 values: np.ndarray) -> None:
    """CSV of (x, re, im, modulus) rows under the header first,re,im,modulus.

    The modulus is np.hypot(re, im), the C hypot behind Python's abs(complex)
    and numpy's scalar abs; np.abs on an array rounds differently.  Unlike
    Python's abs it gives inf, not OverflowError, past the float range.
    """
    values = np.asarray(values, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.hypot(values.real, values.imag)
    write_csv(handle, (first, "re", "im", "modulus"),
              (np.asarray(xs, dtype=np.float64), values.real, values.imag, modulus))


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
