"""One workload in one fresh process: set up, run rounds, check, report JSON.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup`` stops
after building the inputs and reports only the set-up time.  ``--mode run``
runs every job once (round 0), then repeats timed rounds until ``--seconds``
have passed since round 0 began; a timed round runs the cheap jobs several
times, spread over the round.  Each job's fastest run is its latency.  Round
0's outputs are checked against the oracles and references, every later
output against round 0's.  With ``--trace 1`` every round runs the job list
once and every other round is traced, so the tracing overhead is measured in
the same process.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse  # noqa: E402
import cmath  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import boundarylab  # noqa: E402
from boundarylab import (  # noqa: E402
    blaschke, cli, config, fixtures, frostman, grid, herglotz, series, textio, unitdisc,
)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REPEAT_BUDGET_S = 0.03  # time a timed round gives each job, at most MAX_REPEATS runs
MAX_REPEATS = 4
SWITCH_S = 0.1  # runs move to the quietest CPU this often
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Lib:
    """The modules under test, looked up by attribute at every call."""

    unitdisc, blaschke, frostman, herglotz, series = unitdisc, blaschke, frostman, herglotz, series
    grid, cli, textio, fixtures, config = grid, cli, textio, fixtures, config


LAYER_MODULES = {name: getattr(Lib, name) for name in tracing.LAYERS}


class Raised:
    """Outcome of a job that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif hasattr(obj, "to_json"):
        h.update(json.dumps(obj.to_json(), sort_keys=True, default=repr).encode())
    elif is_dataclass(obj):
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, Raised):
        h.update(obj.text.encode())
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha1()
    _feed(h, obj)
    return h.hexdigest()


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha1()
    pkg = os.path.dirname(boundarylab.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "src_sha1": src.hexdigest(),
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class QuietCpu:
    """Every SWITCH_S seconds, moves this process to the quietest CPU it may use.

    On the shared host each CPU slows down by itself, for milliseconds to
    minutes at a time.  A short pure-Python probe on each CPU finds the one
    that runs fastest now; only one job runs at any time.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.moved = -math.inf

    def tick(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.moved >= SWITCH_S:
            os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})
            self.moved = now

    @staticmethod
    def _probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        t = time.perf_counter()
        for i in range(300):
            abs(cmath.exp(1j * i))
        return time.perf_counter() - t


def run_jobs(jobs, order, cpus, tracer=None, deadline=None):
    """Run jobs[j] for each j in order, yielding (j, seconds, output).

    Only the job itself is timed: whatever the caller does with an output
    between two jobs is not.  Stops early once the deadline has passed.
    """
    clock = time.perf_counter
    for j in order:
        if deadline is not None and clock() >= deadline:
            return
        cpus.tick()
        frame = tracer.open(jobs[j].cls, j) if tracer is not None else None
        t = clock()
        try:
            out = jobs[j].run()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out = Raised(exc)
        latency = clock() - t
        if frame is not None:
            tracer.close(frame)
        yield j, latency, out


def timed_order(costs) -> list[int]:
    """Job indices of one timed round.

    A job whose first run took c seconds runs about REPEAT_BUDGET_S / c times
    a round (1 to MAX_REPEATS), its runs spread evenly over the round, so the
    cheap jobs are timed at many moments of the run rather than a few.
    """
    reps = [min(MAX_REPEATS, max(1, int(REPEAT_BUDGET_S / max(c, 1e-9)))) for c in costs]
    slots = sorted(((k + 0.5) / r, j) for j, r in enumerate(reps) for k in range(r))
    return [j for _, j in slots]


def _plain(obj):
    """numpy scalars in summaries become plain JSON values."""
    return obj.item()


def check_jobs(jobs, outcomes, reference, write_reference: bool, default_seed: bool):
    """Oracle and reference checks on one round's outcomes; returns (failures, summaries)."""
    failures: dict[int, str] = {}
    summaries = {}
    for index, (job, out) in enumerate(zip(jobs, outcomes)):
        if isinstance(out, Raised):
            failures[index] = out.text
            continue
        try:
            problems = job.check(out)
            if job.summary is not None:
                summaries[job.jid] = json.loads(json.dumps(job.summary(out), default=_plain))
        except Exception as exc:  # a check that cannot read the output fails the job
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if (not problems and job.summary is not None and not write_reference
                and (default_seed or job.fixed)):
            if job.jid not in reference:
                problems = ["no committed reference"]
            elif reference[job.jid] != summaries[job.jid]:
                problems = [f"{summaries[job.jid]!r} differs from reference {reference[job.jid]!r}"]
        if problems:
            failures[index] = "; ".join(problems)
    return failures, summaries


# --- per-layer metrics from spans -------------------------------------------

def _dur(span) -> float:
    return span[3] - span[2]


def per_layer(spans, setup_spans, jobs, traced_rounds, overhead_s) -> dict:
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    rounds = max(traced_rounds, 1)

    def mean_ms(name, scale=1e3, where=None):
        got = [s for s in by_name.get(name, ()) if where is None or where(s)]
        return scale * sum(map(_dur, got)) / len(got) if got else 0.0

    def ratio(name, key, scale):
        got = by_name.get(name, ())
        total = sum(s[6][key] for s in got)
        return scale * sum(map(_dur, got)) / total if total else 0.0

    def count(key):
        return sum(s[6].get(key, 0) for s in spans) / rounds

    def of_class(cls):
        return lambda s: isinstance(s[5], int) and jobs[s[5]].cls == cls

    evals = sum(s[6].get("evals", 0) for s in spans)
    quad = by_name.get("herglotz.poisson_integral", []) + by_name.get("herglotz.eval_outer", [])
    union_all = by_name.get("grid.union_check", [])
    generate = {i for i, s in enumerate(setup_spans)
                if s is not None and (s[1] == "unitdisc" or s[0] == "blaschke.BlaschkeProduct.__post_init__")}
    generate_s = sum(_dur(setup_spans[i]) for i in generate if setup_spans[i][4] not in generate)
    selfs = tracing.self_times(spans)
    out = {
        "blaschke.scan_us_per_point": ratio("blaschke.boundary_scan", "points", 1e6),
        "blaschke.trace_ms": mean_ms("blaschke.radial_trace"),
        "blaschke.probe_ms": mean_ms("blaschke.limit_probe"),
        "blaschke.eval_ns_per_factor": ratio("blaschke.BlaschkeProduct.eval_best_effort",
                                             "factors_used", 1e9),
        "blaschke.factors_used": count("factors_used"),
        "blaschke.certified_frac": sum(s[6].get("certified", 0) for s in spans) / evals if evals else 0.0,
        "frostman.profile_ns_per_term": ratio("frostman.frostman_profile", "terms", 1e9),
        "frostman.classify_us": mean_ms("frostman.frostman_classify", 1e6),
        "herglotz.poisson_ms_per_value": mean_ms("herglotz.poisson_integral"),
        "herglotz.outer_ms_per_value": mean_ms("herglotz.eval_outer"),
        "herglotz.kernel_mass_ms": mean_ms("herglotz.kernel_mass"),
        "herglotz.quad_points_per_value": (sum(s[6].get("quad_points", 0) for s in quad) / len(quad)
                                           if quad else 0.0),
        "series.us_per_point": mean_ms("series.eval_series", 1e6),
        "series.terms_used": count("terms_used"),
        "unitdisc.generate_ms": 1e3 * generate_s,
        "grid.label_48_ms": mean_ms("grid.label_components", where=of_class("grid.label48")),
        "grid.label_192_ms": mean_ms("grid.label_components", where=of_class("grid.label192")),
        "grid.union_check_48_ms": mean_ms("grid.union_check", where=of_class("grid.union48")),
        "grid.union_check_192_ms": mean_ms("grid.union_check", where=of_class("grid.union192")),
        "grid.labelings_per_union_check": (sum(s[6]["labelings"] for s in union_all)
                                           / len(union_all) if union_all else 0.0),
        "grid.probes_validated_per_union_check": (sum(s[6]["probes_validated"] for s in union_all)
                                                  / len(union_all) if union_all else 0.0),
        "cli.job_ms": mean_ms("cli.run"),
        "textio.csv_us_per_row": ratio("blaschke.BoundaryScan.write_csv", "rows", 1e6),
        "trace.overhead_s": overhead_s,
    }
    for layer in ("bench",) + tracing.LAYERS:
        out[f"self.{layer}_s"] = selfs.get(layer, 0.0) / rounds
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--reference")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args()

    if os.path.dirname(os.path.abspath(boundarylab.__file__)) != os.path.join(SRC, "boundarylab"):
        print(f"boundarylab imported from {boundarylab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer(LAYER_MODULES) if args.trace else None
    if tracer is not None:
        tracer.install()
        frame = tracer.open("setup", "setup")
    ctx = workloads.Context(Lib, args.inputs, args.seed)
    jobs = workloads.BUILDERS[args.workload](ctx)
    setup_s = time.perf_counter() - _T0
    if tracer is not None:
        tracer.close(frame)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_spans = list(tracer.spans) if tracer is not None else []
    if tracer is not None:
        tracer.spans.clear()
        tracer.uninstall()
    n = len(jobs)
    start = time.perf_counter()
    deadline = start + args.seconds
    # round 0 runs every job once, in order; its outputs are the ones checked
    first, best = [None] * n, [math.inf] * n
    cpus = QuietCpu()
    for j, latency, out in run_jobs(jobs, range(n), cpus):
        first[j], best[j] = out, latency
    prints = [digest(o) for o in first]
    order = timed_order(best)
    runs, differ = [1] * n, [0] * n
    traced_best, traced_rounds, round_no = [math.inf] * n, 0, 1
    while True:
        # with --trace 1, every round runs the job list once and every other
        # round is traced, so traced and untraced runs are alike in number
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install()
            executions = run_jobs(jobs, range(n), cpus, tracer)
        elif tracer is not None:
            executions = run_jobs(jobs, range(n), cpus)
        else:
            executions = run_jobs(jobs, order, cpus, deadline=deadline)
        for j, latency, out in executions:
            if traced:
                traced_best[j] = min(traced_best[j], latency)
            else:
                best[j] = min(best[j], latency)
            runs[j] += 1
            differ[j] += digest(out) != prints[j]
        if traced:
            tracer.uninstall()
            traced_rounds += 1
        round_no += 1
        if time.perf_counter() >= deadline and (tracer is None or traced_rounds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {}
    if args.reference and os.path.exists(args.reference):
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
    failures, summaries = check_jobs(jobs, first, reference, args.write_reference,
                                     workloads.is_default(args.seed))
    failed = 0
    for j in range(n):
        if j in failures:
            failed += runs[j]
        elif differ[j]:
            failed += differ[j]
            failures[j] = "output differs between runs"
    if args.write_reference:
        with open(args.reference, "w", encoding="utf-8") as fh:
            json.dump(summaries, fh, indent=1, sort_keys=True)
            fh.write("\n")

    result = {
        "setup_s": setup_s,
        "rounds": round_no,
        "jobs": n,
        "best": best,
        "runs": runs,
        "attempted": sum(runs),
        "failed": failed,
        "failures": {jobs[i].jid: msg for i, msg in sorted(failures.items())},
        "peak_rss_mb": peak_rss_mb,
        "classes": _class_latencies(jobs, best),
        "env": environment(args.seed),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer.spans, setup_spans, jobs, traced_rounds,
                                        sum(traced_best) - sum(best))
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


def _class_latencies(jobs, best) -> dict:
    """Median over its jobs of each job's fastest latency (ms), and job count, per class."""
    out: dict[str, list] = {}
    for job, latency in zip(jobs, best):
        out.setdefault(job.cls, []).append(latency)
    return {cls: [1e3 * statistics.median(v), len(v)] for cls, v in out.items()}


if __name__ == "__main__":
    sys.exit(main())
