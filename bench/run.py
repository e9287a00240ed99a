"""Benchmark boundarylab on one workload (or all) and print every metric.

    python3 bench/run.py --workload disc-eval --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src``.  Each
workload runs in fresh worker processes with BLAS and OpenMP pools pinned to
one thread.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, whose spans are written to ``.bench_build/traces``.
``--out FILE`` also writes the full record (environment, failures, each
job's fastest latency and run count) for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("disc-eval", "deep-zeros", "raster-holes")
DEFAULT_SEED = 0
SETUP_BEFORE = SETUP_AFTER = 3  # set-up-only processes around the measuring one
PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(Exception):
    """The benchmark itself could not run (missing program, crashed worker)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args: list[str], timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(args[0])} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _inputs(seed: int) -> str:
    """Input directory for the seed: committed for the default seed, else generated."""
    if seed == DEFAULT_SEED:
        return os.path.join(BENCH_DIR, "inputs", f"seed{seed}")
    out = os.path.join(WORK_DIR, "inputs", f"seed{seed}")
    _python([os.path.join(BENCH_DIR, "inputs", "gen.py"), "--seed", str(seed), "--out", out], 60)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 write_reference: bool = False) -> dict:
    inputs = _inputs(seed)
    worker = os.path.join(BENCH_DIR, "worker.py")
    base = [worker, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--inputs", inputs]
    setups = []

    def time_setups(count: int) -> None:
        for _ in range(0 if trace else count):
            out = _python(base + ["--mode", "setup"], 60)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

    time_setups(SETUP_BEFORE)
    extra = ["--mode", "run", "--trace", str(trace),
             "--reference", os.path.join(BENCH_DIR, "reference", f"{workload}.json")]
    if write_reference:
        extra.append("--write-reference")
    if trace:
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        extra += ["--trace-out", os.path.join(WORK_DIR, "traces", f"{workload}.jsonl")]
    res = json.loads(_python(base + extra, 150).strip().splitlines()[-1])
    setups.append(res["setup_s"])
    time_setups(SETUP_AFTER)
    # each job's fastest run: the shared host slows the same code by up to a
    # factor of two for seconds to minutes at a time, and a job's fastest run
    # is one the slowdown missed, while a slower program is slower in every run
    best = np.asarray(res["best"])
    metrics = {
        "wall_s": float(best.sum()),
        "job_p50_ms": 1e3 * float(np.percentile(best, 50)),
        "job_p90_ms": 1e3 * float(np.percentile(best, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed = res["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "failed_frac": failed / res["attempted"],
        "metrics": metrics,
        "per_layer": res.get("per_layer", {}),
        "rounds": res["rounds"],
        "jobs": res["jobs"],
        "best": res["best"],
        "runs": res["runs"],
        "setups": setups,
        "classes": res["classes"],
        "failures": res["failures"],
        "env": res["env"],
    }


def _print_record(rec: dict, units: dict) -> None:
    w = rec["workload"]
    print(f"{w}: seed {rec['seed']}, {rec['rounds']} rounds over {rec['jobs']} jobs, "
          f"{rec['attempted']} attempted, {rec['failed']} failed")
    for name, value in rec["metrics"].items():
        print(f"  {name:<12} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<12} {rec['failed_frac']:12.4f}")
    for name, value in rec["per_layer"].items():
        print(f"  {name:<40} {value:14.4f} {units[name]}")
    for jid, msg in list(rec["failures"].items())[:20]:
        print(f"  FAILED {jid}: {msg}")
    print("  env " + json.dumps(rec["env"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full JSON record(s) to this file")
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite bench/reference/<workload>.json from this run (default seed only)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "boundarylab", "__init__.py")):
        print(f"boundarylab sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        print("--write-reference needs the default seed", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, args.write_reference)
                   for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = _units()
    for rec in records:
        _print_record(rec, units)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records if len(records) > 1 else records[0], fh, indent=1)
            fh.write("\n")
    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, value in rec[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
