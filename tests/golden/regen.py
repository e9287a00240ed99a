"""Record the golden CLI outputs replayed by tests/test_golden.py.

Each case in CASES runs ``boundarylab.cli.run`` in process on the inputs in
``tests/golden/inputs``; its standard output is written to
``tests/golden/expected/<name>.out`` and every exit code to
``tests/golden/expected/exit_codes.json``.  Rerun after an intentional output
change and commit the diff:

    PYTHONPATH=src python tests/golden/regen.py

A few outputs differ in their last digits between the SIMD code numpy
dispatches to (its ``exp``, ``log`` and ``arctan2``, among others, round
differently with AVX-512 than with AVX2).  So the cases are replayed again
at every lower dispatch level this host has, with the higher targets
disabled through ``NPY_DISABLE_CPU_FEATURES``; an output that differs there
is written to ``<name>@<level>.out``.  ``dispatch_levels.json`` maps each
recorded level to its cases with an own file.  A host whose level was never
recorded has no expected output, so its replay fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from boundarylab.cli import run

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# name -> argv; "{in}" stands for the inputs directory
CASES: dict[str, list[str]] = {
    "scan-radial60": ["scan", "--zeros", "{in}/radial60.json", "--r", "0.9", "--angles", "32"],
    "scan-radial30-partial": ["scan", "--zeros", "{in}/radial30.json", "--r", "0.999",
                              "--angles", "16", "--out", "-"],
    "scan-cantor8-flags": ["scan", "--zeros", "{in}/cantor8.json", "--r", "0.5", "--angles", "16",
                           "--truncation-tolerance", "1e-6"],
    "scan-cantor8-512": ["scan", "--zeros", "{in}/cantor8.json", "--r", "0.9", "--angles", "512"],
    "scan-config": ["scan", "--zeros", "{in}/cantor8.json", "--r", "0.5", "--angles", "8",
                    "--config", "{in}/settings.conf"],
    "trace-radial60": ["trace", "--zeros", "{in}/radial60.json", "--angle", "1.6951199159934145",
                       "--radius-levels", "20"],
    "trace-cantor8-flags": ["trace", "--zeros", "{in}/cantor8.json", "--angle", "0.5",
                            "--radius-levels", "12", "--truncation-tolerance", "1e-6"],
    "probe-radial60": ["probe", "--zeros", "{in}/radial60.json", "--angle", "1.6951199159934145"],
    "probe-cantor8-flags": ["probe", "--zeros", "{in}/cantor8.json", "--angle", "0.3",
                            "--radius-levels", "16", "--window", "8", "--verdict-tolerance", "1e-3"],
    "probe-config": ["probe", "--zeros", "{in}/radial30.json", "--angle", "1.0",
                     "--config", "{in}/settings.conf"],
    "probe-config-flag-wins": ["probe", "--zeros", "{in}/radial30.json", "--angle", "1.0",
                               "--config", "{in}/settings.conf", "--verdict-tolerance", "1e-18",
                               "--window", "6"],
    "probe-config-truncation-flag-wins": ["probe", "--zeros", "{in}/radial30.json", "--angle",
                                          "1.0", "--config", "{in}/settings.conf",
                                          "--truncation-tolerance", "1e-12"],
    "frostman-theta": ["frostman", "--zeros", "{in}/radial60.json", "--theta", "1.0"],
    "frostman-theta-flags": ["frostman", "--zeros", "{in}/cantor8.json", "--theta", "0.7",
                             "--divergence-threshold", "100", "--growth-window", "3",
                             "--cauchy-tolerance", "1e-4"],
    "frostman-grid": ["frostman", "--zeros", "{in}/radial30.json", "--angles", "16"],
    "frostman-grid-config": ["frostman", "--zeros", "{in}/cantor8.json", "--angles", "8",
                             "--config", "{in}/settings.conf"],
    "frostman-grid-cantor8-mixed": ["frostman", "--zeros", "{in}/cantor8.json", "--angles", "48",
                                    "--divergence-threshold", "1", "--growth-window", "2",
                                    "--cauchy-tolerance", "1e-2"],
    # full8: one full-circle generator, 9,842 zeros in closed-form blocks of 3 to 6,561
    "scan-full8-partial": ["scan", "--zeros", "{in}/full8.json", "--r", "0.999",
                           "--angles", "16"],
    "scan-full8-flags": ["scan", "--zeros", "{in}/full8.json", "--r", "0.5", "--angles", "16",
                         "--truncation-tolerance", "0.05"],
    "trace-full8": ["trace", "--zeros", "{in}/full8.json", "--angle", "0.3",
                    "--radius-levels", "20"],
    "probe-full8": ["probe", "--zeros", "{in}/full8.json", "--angle", "0.3"],
    "frostman-grid-full8": ["frostman", "--zeros", "{in}/full8.json", "--angles", "16"],
    "frostman-theta-full8": ["frostman", "--zeros", "{in}/full8.json", "--theta", "0.3"],
    # sliver: a full circle short by 1e-10 and an arc in the sliver, whose two zeros
    # a level share the level's deficit and sit between the blocks
    "trace-sliver-flags": ["trace", "--zeros", "{in}/sliver.json", "--angle", "0.3",
                           "--radius-levels", "20", "--truncation-tolerance", "0.1"],
    "probe-sliver": ["probe", "--zeros", "{in}/sliver.json", "--angle", "0.3"],
    "frostman-grid-sliver": ["frostman", "--zeros", "{in}/sliver.json", "--angles", "16"],
    "series-point": ["series", "--spec", "{in}/lp6.json", "--at", "0.1", "0.2"],
    "series-circle-flags": ["series", "--spec", "{in}/lp6.json", "--r", "0.9", "--angles", "16",
                            "--series-tolerance", "1e-6"],
    "series-nested-point": ["series", "--spec", "{in}/nested.json", "--at", "0.35", "0.6"],
    "series-nested-circle": ["series", "--spec", "{in}/nested.json", "--r", "0.95",
                             "--angles", "64"],
    "series-atoms-point": ["series", "--spec", "{in}/atoms.json", "--at", "0.3", "-0.2"],
    "series-atoms-circle": ["series", "--spec", "{in}/atoms.json", "--r", "0.9", "--angles", "16"],
    "arakeljan-f": ["arakeljan", "--grid", "{in}/grid48.txt"],
    "arakeljan-e-plus-f": ["arakeljan", "--grid", "{in}/grid48.txt", "--subject", "E+F"],
    "arakeljan-independence": ["arakeljan", "--grid", "{in}/grid48.txt",
                               "--independence", "E", "F"],
    "arakeljan-union": ["arakeljan", "--grid", "{in}/grid48.txt", "--union"],
    "arakeljan-union-192": ["arakeljan", "--grid", "{in}/grid192.txt", "--union"],
    "arakeljan-k-ring": ["arakeljan", "--grid", "{in}/grid48k.txt"],
    "arakeljan-k-ring-union": ["arakeljan", "--grid", "{in}/grid48k.txt", "--union"],
    "arakeljan-json-f": ["arakeljan", "--grid", "{in}/grid48.json"],
    "arakeljan-json-union": ["arakeljan", "--grid", "{in}/grid48.json", "--union"],
    "kernels-default": ["kernels"],
    "kernels-flags": ["kernels", "--r", "0.9", "--delta", "0.5"],
    "selftest-seed": ["selftest", "--only", "2,5", "--seed", "3"],
    "bad-truncation-tolerance": ["scan", "--zeros", "{in}/radial60.json",
                                 "--truncation-tolerance", "-1"],
    "bad-kernels-delta": ["kernels", "--delta", "-1"],
    "bad-k-probe-touches": ["arakeljan", "--grid", "{in}/grid-k-touch.txt"],
    "bad-series-outer": ["series", "--spec", "{in}/series-outer.json", "--at", "0.1", "0.1"],
}


def replay(argv: list[str]) -> tuple[int, str]:
    """Run one case in process; return (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([arg.replace("{in}", str(INPUTS)) for arg in argv])
    return code, out.getvalue()


def dispatch_levels() -> list[str]:
    """The targets of numpy's SIMD dispatch that this process has, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def dispatch_level() -> str:
    """The highest dispatch target this process has, "baseline" if none."""
    return (dispatch_levels() or ["baseline"])[-1]


def expected_file(name: str) -> Path:
    """The recording of case `name` at this process's dispatch level."""
    level = dispatch_level()
    levels = json.loads((EXPECTED / "dispatch_levels.json").read_text())
    if level not in levels:
        raise LookupError(f"no recording at numpy dispatch level {level}; "
                          "rerun regen.py on a host that has it")
    return EXPECTED / (f"{name}@{level}.out" if name in levels[level] else f"{name}.out")


def main() -> None:
    if sys.argv[1:] == ["--json"]:  # every case's (exit code, output) at this level
        json.dump({name: replay(argv) for name, argv in CASES.items()}, sys.stdout)
        return
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.glob("*@*.out"):
        stale.unlink()
    outputs = {name: replay(argv) for name, argv in CASES.items()}
    for name, (_, text) in outputs.items():
        (EXPECTED / f"{name}.out").write_text(text, encoding="utf-8", newline="")
    codes = {name: code for name, (code, _) in outputs.items()}
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    enabled = dispatch_levels()
    levels: dict[str, list[str]] = {dispatch_level(): []}
    for i, level in enumerate(enabled[:-1]):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled[i + 1:]))
        there = json.loads(subprocess.run([sys.executable, __file__, "--json"], env=env,
                                          check=True, capture_output=True, text=True).stdout)
        levels[level] = []
        for name, (code, text) in there.items():
            if code != codes[name]:
                raise SystemExit(f"{name} exits with {code} at level {level}, {codes[name]} here")
            if text != outputs[name][1]:
                levels[level].append(name)
                (EXPECTED / f"{name}@{level}.out").write_text(text, encoding="utf-8", newline="")
    levels_text = json.dumps(levels, indent=1, sort_keys=True) + "\n"
    (EXPECTED / "dispatch_levels.json").write_text(levels_text)


if __name__ == "__main__":
    main()
