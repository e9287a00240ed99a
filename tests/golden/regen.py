"""Record the golden CLI outputs replayed by tests/test_golden.py.

Each case in CASES runs ``boundarylab.cli.run`` in process on the inputs in
``tests/golden/inputs``; its standard output is written to
``tests/golden/expected/<name>.out`` and every exit code to
``tests/golden/expected/exit_codes.json``.  Rerun after an intentional output
change and commit the diff:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
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


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], text = replay(argv)
        (EXPECTED / f"{name}.out").write_text(text, encoding="utf-8", newline="")
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    main()
