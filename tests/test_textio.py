import io
import math

import numpy as np
import pytest

from boundarylab import textio
from boundarylab.blaschke import BlaschkeProduct, boundary_scan
from boundarylab.frostman import FrostmanPolicy, frostman_profile
from boundarylab.textio import write_csv, write_values
from boundarylab.unitdisc import ZeroSequence


# --- the per-cell writer as it was before the column writer ------------------

def _cell_fmt_float(x):
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report output")
    return f"{float(x):.17g}"


def _cell_write_csv(handle, header, rows):
    handle.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(_cell_fmt_float(cell))
            else:
                cells.append(str(cell))
        handle.write(",".join(cells) + "\n")


def _cell_write_values(handle, first, xs, values):
    rows = ((float(x), float(v.real), float(v.imag), float(abs(v))) for x, v in zip(xs, values))
    _cell_write_csv(handle, (first, "re", "im", "modulus"), rows)


def _written(write, *args):
    """(text left in the handle, message of the ValueError or None)."""
    buf = io.StringIO()
    try:
        write(buf, *args)
    except ValueError as exc:
        return buf.getvalue(), str(exc)
    return buf.getvalue(), None


def _mixed(n, seed=0):
    """Columns of every kind, and the same table as rows of Python values."""
    rng = np.random.default_rng(seed)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    extremes = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16], n)
    ints = rng.integers(-10 ** 15, 10 ** 15, n)
    bools = rng.random(n) < 0.5
    words = rng.choice(["convergent", "divergent", "undecided"], n).tolist()
    columns = [floats, ints, bools, words, extremes]
    rows = [(float(a), int(b), bool(c), d, float(e)) for a, b, c, d, e in zip(*columns)]
    return columns, rows


_HEADER = ("x", "n", "flag", "word", "y")


def test_cells_have_the_per_cell_bytes():
    columns = [np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0, -2.5e-300]),
               np.array([0, -7, 2 ** 62, 3, 4, 5]),
               np.array([True, False, True, True, False, False]),
               ["a", "bc", "", "divergent", "x y", "-"]]
    text, err = _written(write_csv, ("f", "i", "b", "s"), columns)
    assert err is None
    assert text.splitlines()[:4] == [
        "f,i,b,s",
        "-0,0,true,a",
        "4.9406564584124654e-324,-7,false,bc",
        "1.7976931348623157e+308,4611686018427387904,true,",
    ]
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert text == _written(_cell_write_csv, ("f", "i", "b", "s"), rows)[0]


def test_random_floats_have_the_per_cell_bytes():
    bits = np.random.default_rng(1).integers(0, 2 ** 64, 20000, dtype=np.uint64)
    floats = bits.view(np.float64)
    floats = floats[np.isfinite(floats)]
    text, err = _written(write_csv, ("v",), [floats])
    assert err is None
    assert text == _written(_cell_write_csv, ("v",), [(x,) for x in floats.tolist()])[0]


@pytest.mark.parametrize("block", [1, 4, 4096])
def test_row_counts_around_a_block(monkeypatch, block):
    monkeypatch.setattr(textio, "_CSV_BLOCK", block)
    for n in sorted({0, 1, block - 1, block, block + 1, 2 * block + 1}):
        columns, rows = _mixed(n, seed=n)
        text, err = _written(write_csv, _HEADER, columns)
        assert err is None
        assert text.count("\n") == n + 1
        assert text == _written(_cell_write_csv, _HEADER, rows)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_stops_after_the_complete_rows(monkeypatch, bad):
    monkeypatch.setattr(textio, "_CSV_BLOCK", 4)
    # mid-block, at a block's first row, on the first row, in the last column
    # only, and in two columns of one row (the leftmost is reported)
    for row, cols in ((5, (0,)), (4, (0,)), (0, (4,)), (8, (4,)), (9, (0, 4)), (2, (4,))):
        columns, _ = _mixed(11, seed=row)
        for c in cols:
            columns[c][row] = bad if c == 0 else -bad
        if row == 2:
            columns[4][6] = np.nan  # a later row does not matter
        rows = [(float(a), int(b), bool(c), d, float(e)) for a, b, c, d, e in zip(*columns)]
        got = _written(write_csv, _HEADER, columns)
        want = _written(_cell_write_csv, _HEADER, rows)
        assert got == want
        assert got[1] == f"non-finite value {float(columns[cols[0]][row])!r} in report output"
        assert got[0].count("\n") == row + 1


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(io.StringIO(), ("a", "b"), [np.zeros(3), np.zeros(2)])


def test_scan_values_have_the_per_cell_bytes(monkeypatch):
    spec = {"generator": {"kind": "radial", "angle": 1.6951199159934145, "rate": 0.5, "count": 60}}
    scan = boundary_scan(BlaschkeProduct(ZeroSequence.from_json(spec)), 0.9, 4096, strict=False)
    # the modulus is Python's abs; np.abs rounds some of these values differently
    python_abs = np.array([abs(v) for v in scan.values.tolist()])
    assert np.any(np.abs(scan.values) != python_abs)
    for block in (textio._CSV_BLOCK, 1000):
        monkeypatch.setattr(textio, "_CSV_BLOCK", block)
        got = _written(write_values, "angle", scan.angles, scan.values)
        assert got == _written(_cell_write_values, "angle", scan.angles, scan.values)
        moduli = np.array([float(line.rsplit(",", 1)[1]) for line in got[0].splitlines()[1:]])
        assert np.array_equal(moduli, python_abs)


def test_values_past_the_float_range_report_an_infinite_modulus():
    values = np.array([0.5 + 0.5j, 1.5e308 + 1.5e308j, 0.25j])
    got = _written(write_values, "angle", np.arange(3.0), values)
    assert got == _written(_cell_write_values, "angle", np.arange(3.0), values)
    assert got[1] == "non-finite value inf in report output"


def test_frostman_profile_csv_has_the_per_cell_bytes():
    spec = {"generator": {"kind": "radial", "angle": 4.002148315014479, "rate": 0.4, "count": 30}}
    policy = FrostmanPolicy(divergence_threshold=1.0, growth_window=2, cauchy_tolerance=1e-2)
    profile = frostman_profile(ZeroSequence.from_json(spec), 40, policy=policy)
    assert {"convergent", "divergent"} <= set(profile.classifications)
    rows = [(float(a), int(n), float(profile.partial_sums[i, j]), profile.classifications[i])
            for i, a in enumerate(profile.angles) for j, n in enumerate(profile.schedule)]
    buf = io.StringIO()
    profile.write_csv(buf)
    assert buf.getvalue() == _written(
        _cell_write_csv, ("angle", "n", "partial_sum", "classification"), rows)[0]
