"""Write the benchmark's input files for one workload seed.

    PYTHONPATH=src python3 bench/inputs/gen.py --seed 0 --out bench/inputs/seed0
    PYTHONPATH=src python3 bench/inputs/gen.py --seed 0 --check bench/inputs/seed0

The files are generator specs (zeros and series JSON) and grid text files;
the same seed always gives byte-identical files.  ``--check`` regenerates in
memory and exits 1 if any file in the given directory differs.  The files for
the default seed are committed, so the CLI jobs of that seed read them as
they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

DEFAULT_SEED = 0
TWO_PI = 2.0 * math.pi

# independent random streams, one per input family
STREAM_ZEROS, STREAM_SERIES, STREAM_GRID, STREAM_POINTS = range(4)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _full_circle(start: float) -> list[float]:
    # (start + 2 pi) - start can round above 2 pi, which the arc normalizer
    # would fold to a sliver; step the end down one ulp in that case
    end = start + TWO_PI
    if end - start > TWO_PI:
        end = math.nextafter(end, 0.0)
    return [start, end]


def _accumulation(target: dict, depth: int) -> dict:
    return {"generator": {"kind": "accumulation", "target": target, "depth": depth}}


def _arc_union(arc: list[float]) -> dict:
    return {"kind": "arc-union", "arcs": [arc]}


def input_specs(seed: int) -> dict[str, object]:
    """File name -> JSON object for the zero sets and the series spec."""
    r = rng(seed, STREAM_ZEROS)
    radial30, radial60, cantor_start, circle_start = r.uniform(0.0, TWO_PI, size=4)
    cantor = {"kind": "cantor", "cantor_level": 3,
              "base_arc": [float(cantor_start), float(cantor_start) + 1.0]}
    circle = _arc_union(_full_circle(float(circle_start)))
    gamma = float(rng(seed, STREAM_SERIES).uniform(0.0, TWO_PI))
    # the Lohwater-Piranian targets of the series criterion, rotated by gamma
    targets = (
        {"kind": "finite-points", "points": [gamma]},
        _arc_union([gamma + math.pi / 3.0, gamma + 2.0 * math.pi / 3.0]),
        {"kind": "cantor", "cantor_level": 3,
         "base_arc": [gamma + math.pi, gamma + 1.5 * math.pi]},
    )
    series = {
        "weight_rule": "inverse-square",
        "terms": [
            {"weight": 1.0 / (i * i),
             "component": {"blaschke": _accumulation(t, 6),
                           "atoms": None, "outer": None, "series": None}}
            for i, t in enumerate(targets, start=1)
        ],
    }
    return {
        "radial30.json": {"generator": {"kind": "radial", "angle": float(radial30),
                                        "rate": 0.4, "count": 30}},
        "radial60.json": {"generator": {"kind": "radial", "angle": float(radial60),
                                        "rate": 0.5, "count": 60}},
        "cantor8.json": _accumulation(cantor, 8),
        "full10.json": _accumulation(circle, 10),
        "full12.json": _accumulation(circle, 12),
        "lp6.json": series,
    }


def input_files(seed: int) -> dict[str, str]:
    """File name -> file text, grids included."""
    from boundarylab import fixtures

    files = {name: json.dumps(obj, indent=1) + "\n" for name, obj in input_specs(seed).items()}
    pair_seed = int(rng(seed, STREAM_GRID).integers(2**31))
    files["grid48.txt"] = next(fixtures.iter_random_pairs(pair_seed, 1, 48)).format_text()
    files["grid192.txt"] = fixtures.punctured_disc_plane(192).format_text()
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="directory to write the files into")
    group.add_argument("--check", help="directory whose files must match")
    args = parser.parse_args(argv)
    files = input_files(args.seed)
    if args.check:
        bad = []
        for name, text in files.items():
            path = os.path.join(args.check, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    same = fh.read() == text
            except OSError:
                same = False
            if not same:
                bad.append(name)
        if bad:
            print(f"inputs differ from seed {args.seed}: {', '.join(bad)}", file=sys.stderr)
            return 1
        return 0
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
