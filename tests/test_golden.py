"""Replay the recorded CLI runs in tests/golden byte for byte.

An intentional output change is recorded with ``tests/golden/regen.py``.
Each run is compared with its recording at numpy's SIMD dispatch level in
this process; a level that was never recorded fails.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from boundarylab.cli import run

_GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_CODES = json.loads((regen.EXPECTED / "exit_codes.json").read_text())


def test_every_case_is_recorded():
    assert set(_CODES) == set(regen.CASES)


def test_every_dispatch_level_recording_is_a_case_file():
    levels = json.loads((regen.EXPECTED / "dispatch_levels.json").read_text())
    own = {f"{name}@{level}.out" for level, names in levels.items() for name in names}
    assert {p.name for p in regen.EXPECTED.glob("*@*.out")} == own
    assert all(name in regen.CASES for names in levels.values() for name in names)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_cli_output_matches_the_recording(name):
    code, text = regen.replay(regen.CASES[name])
    expected = regen.expected_file(name).read_bytes()
    assert code == _CODES[name]
    assert text.encode("utf-8") == expected


def test_a_k_cell_touching_the_outside_is_refused_by_the_probe_name(capsys):
    argv = [arg.replace("{in}", str(regen.INPUTS)) for arg in regen.CASES["bad-k-probe-touches"]]
    assert run(argv) == 2
    assert capsys.readouterr().err == \
        "boundarylab arakeljan: grid-K: probe touches the boundary of G\n"


@pytest.mark.parametrize("json_case, text_case", [
    ("arakeljan-json-f", "arakeljan-f"), ("arakeljan-json-union", "arakeljan-union"),
])
def test_a_json_grid_reads_as_the_text_grid_with_its_cells(json_case, text_case):
    assert (regen.EXPECTED / f"{json_case}.out").read_bytes() == \
        (regen.EXPECTED / f"{text_case}.out").read_bytes()


def test_a_series_component_with_an_outer_part_is_refused(capsys):
    argv = [arg.replace("{in}", str(regen.INPUTS)) for arg in regen.CASES["bad-series-outer"]]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "boundarylab series: terms[0] component is not certainly bounded by modulus 1; "
        "series components must be inner\n")
