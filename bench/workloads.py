"""The three workloads: their inputs, their job lists and each job's check.

A job is one public call (or one in-process ``cli.run``) on inputs built at
set-up.  Every job carries a check against an independent answer from
``oracles`` and, where the answer is a verdict rather than a number, a summary
compared with the committed reference of the default seed.  Jobs whose inputs
do not depend on the seed (the grid fixtures) are compared with the reference
on every seed.

The seed decides angles, radii inside fixed bands, rotations of the zero sets
and of the series targets, and the random grid pairs; it never decides how
many jobs there are or how large their inputs are.  The sampled density is a
fixed set of 64 values that the seed rotates by a whole number of samples,
reflects and negates: adaptive quadrature on it then needs the same number of
points for every seed, which keeps the workload's cost independent of the
seed while the inputs differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

import oracles
from inputs.gen import DEFAULT_SEED, STREAM_POINTS, rng

TWO_PI = 2.0 * math.pi
WORKLOADS = ("disc-eval", "deep-zeros", "raster-holes")

# accuracy each check asks of an answer the program computes by quadrature:
# a hundred times its default refinement tolerance (quad_tolerance = 1e-10)
QUAD_CHECK = 1e-8


class Job(NamedTuple):
    jid: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], list]
    summary: Callable[[object], object] | None = None
    fixed: bool = False  # inputs do not depend on the seed


class Context:
    """Modules under test plus the directory of this seed's input files."""

    def __init__(self, lib, inputs_dir: str, seed: int):
        self.lib = lib
        self.inputs_dir = inputs_dir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.inputs_dir, name)

    def read_json(self, name: str):
        with open(self.path(name), encoding="utf-8") as fh:
            return json.load(fh)

    def read_text(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as fh:
            return fh.read()

    def cli(self, argv: list[str]):
        """In-process cli.run; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.run(argv)
        return code, out.getvalue(), err.getvalue()


def _problems(*pairs) -> list:
    """Collect the messages whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


def _worst(values, expected, slack) -> tuple[float, float]:
    """Largest |value - expected| - slack, and the largest |value - expected|."""
    diff = np.abs(np.asarray(values) - np.asarray(expected))
    return float(np.max(diff - slack)), float(np.max(diff))


def _seq_arrays(seq):
    return np.asarray(seq.angles), np.asarray(seq.deficits)


# --- Blaschke checks ------------------------------------------------------

def check_values(seq, points, values, tol: float) -> list:
    """Each value within tol (+ rounding) of the full stored product.

    A certified value is within tol of the infinite product and so of every
    longer stored prefix; an uncertified value is the full stored product.
    """
    angles, deficits = _seq_arrays(seq)
    want, slack = oracles.blaschke(angles, deficits, points)
    excess, worst = _worst(values, want, tol + slack)
    return _problems((excess <= 0.0, f"value off the direct product by {worst:.3g}"))


def check_eval(product, z, result) -> list:
    angles, deficits = _seq_arrays(product.zeros)
    n = result.factors_used
    full, slack_full = oracles.blaschke(angles, deficits, [z])
    if n == len(angles):
        part, slack_part = full, slack_full
    else:
        part, slack_part = oracles.blaschke(angles, deficits, [z], n)
    err_part = abs(result.value - part[0])
    err_full = abs(result.value - full[0])
    return _problems(
        (0 <= n <= len(angles), f"factors_used {n} outside [0, {len(angles)}]"),
        (err_part <= slack_part[0], f"{n}-factor value off its direct product by {err_part:.3g}"),
        (err_full <= result.tail_bound + slack_full[0],
         f"value off the full product by {err_full:.3g} > tail_bound {result.tail_bound:.3g}"),
    )


def _window_verdict(values, window: int, tol: float):
    tail = np.asarray(values[-window:])
    osc = float(np.max(np.abs(tail[:, None] - tail[None, :]))) if tail.size > 1 else 0.0
    return tail, osc


def check_trace(product, trace, tol: float, verdict_tol: float, window: int) -> list:
    points = trace.radii * np.exp(1j * trace.angle)
    problems = check_values(product.zeros, points, trace.values, tol)
    angles, deficits = _seq_arrays(product.zeros)
    want, slack = oracles.blaschke(angles, deficits, points)
    tail, osc = _window_verdict(want, window, verdict_tol)
    width = 2.0 * (tol + float(np.max(slack[-window:])))
    problems += _problems(
        (abs(trace.oscillation - osc) <= width,
         f"oscillation {trace.oscillation:.6g} vs direct {osc:.6g}"),
        (abs(osc - verdict_tol) <= width or (trace.limit_estimate is not None) == (osc < verdict_tol),
         "radial-limit verdict disagrees with the direct product"),
    )
    return problems


def _zero_chase(seq, angle: float, reach: float = 0.05):
    """Nearest stored zero per deficit level, kept while the distance falls."""
    zs = (1.0 - seq.deficits) * np.exp(1j * seq.angles)
    inside = np.abs(zs) < 1.0
    dist = np.abs(zs - np.exp(1j * angle))
    chain, best = [], math.inf
    for d in sorted(set(seq.deficits.tolist()), reverse=True):
        idx = np.nonzero((seq.deficits == d) & inside)[0]
        if idx.size == 0:
            continue
        j = idx[int(np.argmin(dist[idx]))]
        if dist[j] < best:
            best = float(dist[j])
            chain.append(complex(zs[j]))
    if len(chain) < 2 or best > reach:
        return None
    return np.asarray(chain)


def check_probe(product, report, radii, tol: float, verdict_tol: float, window: int) -> list:
    """Recompute every path's late window from the direct product."""
    angle = report.angle
    s = 1.0 - radii
    offsets = {
        "radial": 0.0 * s, "nontangential+": s, "nontangential-": -s,
        "tangential+": 0.1 * np.sqrt(s), "tangential-": -0.1 * np.sqrt(s),
    }
    paths = {name: radii * np.exp(1j * (angle + off)) for name, off in offsets.items()}
    chase = _zero_chase(product.zeros, angle)
    if chase is not None:
        paths["zero-chase"] = chase
    names = [pl.name for pl in report.path_limits]
    if names != list(paths):
        return [f"paths {names} differ from the expected family {list(paths)}"]
    angles, deficits = _seq_arrays(product.zeros)
    everything = np.concatenate(list(paths.values()))
    want, slack = oracles.blaschke(angles, deficits, everything)
    width = 2.0 * (tol + float(np.max(slack)))
    problems, pooled, at = [], [], 0
    radial_exists = False
    for pl, (name, pts) in zip(report.path_limits, paths.items()):
        vals = want[at:at + pts.size]
        at += pts.size
        tail, osc = _window_verdict(vals, window, verdict_tol)
        pooled.append(tail)
        ambiguous = abs(osc - verdict_tol) <= width
        if abs(pl.oscillation - osc) > width:
            problems.append(f"{name}: oscillation {pl.oscillation:.6g} vs direct {osc:.6g}")
        if not ambiguous and (pl.estimate is not None) != (osc < verdict_tol):
            problems.append(f"{name}: limit verdict disagrees with the direct product")
        if pl.estimate is not None and not ambiguous:
            if abs(pl.estimate - complex(np.mean(tail))) > width:
                problems.append(f"{name}: limit estimate off the direct product")
        if name == "radial":
            radial_exists = osc < verdict_tol
    pooled = np.concatenate(pooled)
    diameter = float(np.max(np.abs(pooled[:, None] - pooled[None, :])))
    if abs(report.cluster_diameter_estimate - diameter) > width:
        problems.append(
            f"cluster diameter {report.cluster_diameter_estimate:.6g} vs direct {diameter:.6g}")
    return problems


def probe_summary(report):
    return {"radial_exists": report.radial_exists,
            "limits": [pl.estimate is not None for pl in report.path_limits]}


def series_direct(terms, points, tol: float):
    """Weighted sum of direct products at the points, and its slack.

    Each component may be best effort, so each carries its truncation
    tolerance plus rounding; the series' own tail_bound is not used.
    """
    want = np.zeros(len(points), dtype=np.complex128)
    slack = np.zeros(len(points))
    for weight, seq in terms:
        v, s = oracles.blaschke(seq.angles, seq.deficits, points)
        want += weight * v
        slack += weight * (tol + s)
    return want, slack


# --- Frostman checks ------------------------------------------------------

def _schedule(count: int):
    out, n = [], 1
    while n < count:
        out.append(n)
        n *= 2
    return out + [count]


def check_classify(seq, report, policy) -> list:
    schedule = _schedule(len(seq))
    angles, deficits = _seq_arrays(seq)
    sums, slack = oracles.frostman(angles, deficits, report.theta, schedule)
    excess, worst = _worst(report.partial_sums, sums, slack)
    problems = _problems(
        (list(report.schedule) == schedule, "schedule is not the doubling schedule"),
        (excess <= 0.0, f"partial sums off the direct sums by {worst:.3g}"),
    )
    if not oracles.frostman_ambiguous(sums, slack, policy):
        want = oracles.frostman_class(sums, policy)
        if report.classification != want:
            problems.append(f"classified {report.classification}, direct sums say {want}")
    return problems


def check_profile(seq, profile, policy) -> list:
    schedule = _schedule(len(seq))
    n = profile.angles.size
    grid = TWO_PI * np.arange(n) / n
    angles, deficits = _seq_arrays(seq)
    problems = _problems(
        (np.array_equal(profile.angles, grid), "profile angles are not the uniform grid"),
        (list(profile.schedule) == schedule, "schedule is not the doubling schedule"),
    )
    divergent = 0
    for i, theta in enumerate(grid):
        sums, slack = oracles.frostman(angles, deficits, float(theta), schedule)
        excess, worst = _worst(profile.partial_sums[i], sums, slack)
        if excess > 0.0:
            problems.append(f"angle #{i}: partial sums off by {worst:.3g}")
        divergent += profile.classifications[i] == "divergent"
        if not oracles.frostman_ambiguous(sums, slack, policy):
            if profile.classifications[i] != oracles.frostman_class(sums, policy):
                problems.append(f"angle #{i}: classification disagrees with the direct sums")
    if profile.divergent_fraction != divergent / n:
        problems.append("divergent_fraction does not match the classifications")
    return problems


# --- grid checks ----------------------------------------------------------

def check_labeling(plane, subject_mask, labeling) -> list:
    outside = plane.cells == 0
    labels, count = oracles.components(~outside & ~subject_mask)
    problems = _problems(
        (len(labeling.components) == count,
         f"{len(labeling.components)} components, scipy finds {count}"),
        (np.array_equal(labeling.labels, labels), "labels differ from the scipy partition"),
    )
    if problems:
        return problems
    for comp, (cells, touches, adjacent, bbox, first) in zip(
            labeling.components, oracles.component_facts(labels, count, outside)):
        got = (comp.cell_count, comp.touches_frame, comp.adjacent_to_boundary_of_g,
               tuple(comp.bbox), tuple(comp.first_cell))
        if got != (cells, touches, adjacent, bbox, first):
            problems.append(f"component {comp.component_id}: facts {got} differ from scipy")
    return problems


def check_verdict(plane, subject_mask, verdict) -> list:
    """Condition 1 (a G-hole exists) against scipy; condition 2 by reference."""
    outside = plane.cells == 0
    labels, count = oracles.components(~outside & ~subject_mask)
    holes = oracles.g_hole_ids(labels, count, outside, plane.frame_is_unbounded)
    witnesses = [w.component_id for w in verdict.witnesses]
    if holes:
        return _problems(
            (verdict.failed_condition == 1, f"scipy finds G-holes {holes}, verdict {verdict.label}"),
            (witnesses == holes, f"witnesses {witnesses} differ from scipy's G-holes {holes}"),
        )
    return _problems((verdict.failed_condition != 1, "condition 1 failed but scipy finds no G-hole"))


def check_independence(plane, e_mask, f_mask, report) -> list:
    dep = oracles.dependent(plane.cells, e_mask, f_mask, plane.frame_is_unbounded)
    return _problems((report.independent == (not dep),
                      f"independent={report.independent}, scipy says dependent={dep}"))


def check_union(plane, e_mask, f_mask, report) -> list:
    return (
        _problems((report.lemma_consistent, "union_check reports lemma_consistent = false"))
        + check_verdict(plane, e_mask, report.e_verdict)
        + check_verdict(plane, f_mask, report.f_verdict)
        + check_verdict(plane, e_mask | f_mask, report.union_verdict)
        + check_independence(plane, e_mask, f_mask, report.independence)
    )


def verdict_summary(v):
    return [v.label, v.failed_condition, v.failing_probe]


def union_summary(rep):
    return {"e": verdict_summary(rep.e_verdict), "f": verdict_summary(rep.f_verdict),
            "independent": rep.independence.independent,
            "union": verdict_summary(rep.union_verdict)}


# --- CLI output parsing ---------------------------------------------------

def parse_csv(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[:1]} is not {header!r}")
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


# --- disc-eval --------------------------------------------------------------

# (angle, radius) of the sampled-density evaluations before the seed's
# rotation; at each of them the integral stops after the same 2^19-point
# refinement, so the sampled-density jobs of one kind all cost about the same
_POISSON_POINTS = tuple((a, 0.6) for a in (0.1, 0.29, 0.67, 0.86, 1.05, 1.43,
                                           2.19, 2.38, 2.57, 2.95, 3.14, 3.33))
_OUTER_POINTS = (tuple((a, 0.6) for a in (0.67, 0.86, 1.05, 1.24, 1.43, 2.19,
                                          3.14, 3.33, 3.52, 4.47, 5.8, 5.99))
                 + tuple((a, 0.55) for a in (0.1, 0.48, 0.67, 0.86, 2.38, 2.95, 4.28, 4.66)))
_DENSITY_SEED = 20230420
SCAN_ANGLES = 512


def _density(ctx, r):
    """The fixed 64-sample density, rotated, reflected and negated by the seed."""
    base = np.random.default_rng(_DENSITY_SEED).normal(size=64)
    shift = int(r.integers(64))
    reflect = bool(r.integers(2))
    sign = 1.0 if r.integers(2) else -1.0
    values = sign * np.roll(base[(-np.arange(64)) % 64] if reflect else base, shift)
    grid = TWO_PI * np.arange(64) / 64

    def place(angle: float, radius: float) -> complex:
        a = -angle if reflect else angle
        return radius * complex(np.exp(1j * (a + TWO_PI * shift / 64)))

    return ctx.lib.herglotz.BoundaryFunction.from_samples(grid, values), values, place


def disc_eval(ctx) -> list[Job]:
    L = ctx.lib
    B, H = L.blaschke, L.herglotz
    r = rng(ctx.seed, STREAM_POINTS)
    seqs = {name: L.unitdisc.ZeroSequence.from_json(ctx.read_json(f"{name}.json"))
            for name in ("radial30", "radial60", "cantor8")}
    prods = {name: B.BlaschkeProduct(seq) for name, seq in seqs.items()}
    spec = L.series.SeriesSpec.from_json(ctx.read_json("lp6.json"))
    tol = L.config.DEFAULTS["truncation_tolerance"]
    verdict_tol = L.config.DEFAULTS["verdict_tolerance"]
    window = L.config.DEFAULTS["oscillation_window"]
    policy = L.frostman.FrostmanPolicy()
    cos = H.BoundaryFunction.form("cos")
    arc_start = float(r.uniform(0.0, TWO_PI))
    arc = (arc_start, arc_start + 1.0)
    indicator = H.BoundaryFunction.form("indicator-arc", arc=arc)
    samples, sample_values, place = _density(ctx, r)
    csv_scan = B.boundary_scan(prods["radial60"], 0.999, 4096)
    jobs: list[Job] = []

    # scans of 512 angles: radial30 and radial60 certified, cantor8 best effort
    bands = {"radial30": (0.99, 0.995, True), "radial60": (0.995, 0.999, True),
             "cantor8": (0.99, 0.999, False)}
    for name, (lo, hi, strict) in bands.items():
        for k in range(16):
            rad = float(r.uniform(lo, hi))

            def run(p=prods[name], rad=rad, strict=strict):
                return B.boundary_scan(p, rad, SCAN_ANGLES, strict=strict)

            def check(s, seq=seqs[name], rad=rad):
                pts = rad * np.exp(1j * TWO_PI * np.arange(SCAN_ANGLES) / SCAN_ANGLES)
                mod = np.abs(s.values)
                return check_values(seq, pts, s.values, tol) + _problems(
                    (s.modulus_min == mod.min() and s.modulus_max == mod.max(),
                     "modulus summary does not match the values"))
            jobs.append(Job(f"scan:{name}:{k}", "blaschke.scan", run, check))

    # radial traces: toward the radial zeros and at random angles
    for name, count in (("radial30", 2), ("radial60", 3), ("cantor8", 3)):
        zero_angle = float(seqs[name].angles[0])
        for k in range(count):
            angle = zero_angle if name != "cantor8" and k == 0 else float(r.uniform(0.0, TWO_PI))

            def run(p=prods[name], angle=angle):
                return B.radial_trace(p, angle)

            def check(t, p=prods[name]):
                return check_trace(p, t, tol, verdict_tol, window)
            jobs.append(Job(f"trace:{name}:{k}", "blaschke.trace", run, check,
                            lambda t: t.limit_estimate is not None))

    # limit probes: cantor8 on its accumulation set, radial sets away from their ray
    radii = B.default_radius_schedule()
    for name, count in (("radial30", 2), ("radial60", 3), ("cantor8", 3)):
        seq = seqs[name]
        for k in range(count):
            if name == "cantor8":
                angle = float(seq.angles[int(r.integers(len(seq)))])
            else:
                angle = float(seq.angles[0]) + float(r.uniform(0.5, TWO_PI - 0.5))

            def run(p=prods[name], angle=angle):
                return B.limit_probe(p, angle)

            def check(rep, p=prods[name]):
                return check_probe(p, rep, radii, tol, verdict_tol, window)
            jobs.append(Job(f"probe:{name}:{k}", "blaschke.probe", run, check, probe_summary))

    # Frostman classification at single angles
    for name in ("cantor8", "radial60"):
        seq = seqs[name]
        for k in range(4):
            theta = float(seq.angles[0]) if k == 0 else float(r.uniform(0.0, TWO_PI))

            def run(seq=seq, theta=theta):
                return L.frostman.frostman_classify(seq, theta)

            def check(rep, seq=seq):
                return check_classify(seq, rep, policy)
            jobs.append(Job(f"classify:{name}:{k}", "frostman.classify", run, check,
                            lambda rep: rep.classification))

    # series in circle mode: 64 points per job
    terms = [(t.weight, t.component.blaschke.zeros) for t in spec.terms]
    for k in range(6):
        rad = float(r.uniform(0.99, 0.999))
        pts = rad * np.exp(1j * TWO_PI * np.arange(64) / 64)

        def run(pts=pts):
            return [L.series.eval_series(spec, complex(z)) for z in pts]

        def check(evals, pts=pts):
            want, slack = series_direct(terms, pts, tol)
            excess, worst = _worst([e.value for e in evals], want, slack)
            return _problems(
                (excess <= 0.0, f"series value off the direct sum by {worst:.3g}"),
                (all(e.terms_used == len(terms) for e in evals), "not every term was used"),
                (all(0.0 <= e.tail_bound <= 1e-12 for e in evals), "tail_bound is not the unused weight 0"),
            )
        jobs.append(Job(f"series:{k}", "series.circle", run, check))

    # Poisson, Herglotz and kernel-mass values
    for k, rad in enumerate((0.5, 0.9, 0.99, 0.995)):
        z = rad * complex(np.exp(1j * r.uniform(0.0, TWO_PI)))
        jobs.append(Job(
            f"poisson:cos:{k}", "herglotz.poisson:cos", lambda z=z: H.poisson_integral(cos, z),
            lambda v, z=z: _problems((abs(v - z.real) <= QUAD_CHECK, f"P[cos] off Re z by {abs(v - z.real):.3g}"))))
        jobs.append(Job(
            f"outer:cos:{k}", "herglotz.outer:cos", lambda z=z: H.eval_outer(H.OuterDensity(k=cos), z),
            lambda v, z=z: _problems((abs(v - np.exp(z)) <= QUAD_CHECK * abs(np.exp(z)),
                                      f"outer[cos] off exp(z) by {abs(v - np.exp(z)):.3g}"))))
        jobs.append(Job(
            f"kernel_mass:{k}", "herglotz.kernel_mass", lambda rad=rad: H.kernel_mass(rad),
            lambda m: _problems((abs(m - 1.0) <= QUAD_CHECK, f"kernel mass {m!r} is not 1"))))
    for k, rad in enumerate((0.3, 0.6, 0.9, 0.99)):
        z = rad * complex(np.exp(1j * r.uniform(0.0, TWO_PI)))

        def check_p(v, z=z):
            h = oracles.herglotz_arc(arc, 1.0, z)
            return _problems((abs(v - h.real) <= 1e-12, f"P[arc] off harmonic measure by {abs(v - h.real):.3g}"))

        def check_o(v, z=z):
            w = np.exp(oracles.herglotz_arc(arc, 1.0, z))
            return _problems((abs(v - w) <= 1e-12 * abs(w), f"outer[arc] off by {abs(v - w):.3g}"))
        jobs.append(Job(f"poisson:arc:{k}", "herglotz.poisson:arc",
                        lambda z=z: H.poisson_integral(indicator, z), check_p))
        jobs.append(Job(f"outer:arc:{k}", "herglotz.outer:arc",
                        lambda z=z: H.eval_outer(H.OuterDensity(k=indicator), z), check_o))
    for k, (angle, rad) in enumerate(_POISSON_POINTS + _OUTER_POINTS):
        z = place(angle, rad)
        if k < len(_POISSON_POINTS):
            def check(v, z=z):
                w = oracles.herglotz_samples(sample_values, z, "poisson").real
                return _problems((abs(v - w) <= QUAD_CHECK, f"P[samples] off by {abs(v - w):.3g}"))
            jobs.append(Job(f"poisson:samples:{k}", "herglotz.poisson:samples",
                            lambda z=z: H.poisson_integral(samples, z), check))
        else:
            def check(v, z=z):
                w = np.exp(oracles.herglotz_samples(sample_values, z, "herglotz"))
                return _problems((abs(v - w) <= QUAD_CHECK * abs(w), f"outer[samples] off by {abs(v - w):.3g}"))
            jobs.append(Job(f"outer:samples:{k}", "herglotz.outer:samples",
                            lambda z=z: H.eval_outer(H.OuterDensity(k=samples), z), check))

    # report writing into memory
    for k in range(4):
        def run():
            buf = io.StringIO()
            csv_scan.write_csv(buf)
            return buf.getvalue()

        def check(text):
            rows = parse_csv(text, "angle,re,im,modulus")
            v = csv_scan.values
            return _problems((rows.shape == (v.size, 4) and np.array_equal(rows[:, 0], csv_scan.angles)
                              and np.array_equal(rows[:, 1] + 1j * rows[:, 2], v)
                              and np.allclose(rows[:, 3], np.abs(v), rtol=4 * oracles.EPS, atol=0.0),
                              "CSV cells do not round-trip the scan values"))
        jobs.append(Job(f"csv:{k}", "textio.csv", run, check))

    # in-process CLI: certified scan, partial-report scan, series circle and point
    def cli_scan(name, rad, angles, expect_code):
        argv = ["scan", "--zeros", ctx.path(f"{name}.json"), "--r", repr(rad), "--angles", str(angles)]

        def check(res):
            code, out, err = res
            rows = parse_csv(out, "angle,re,im,modulus")
            pts = rad * np.exp(1j * rows[:, 0])
            return _problems(
                (code == expect_code, f"exit {code}, expected {expect_code}"),
                (rows.shape[0] == angles, f"{rows.shape[0]} rows, expected {angles}"),
                (expect_code == 0 or "best-effort" in err, "no best-effort notice on stderr"),
            ) + check_values(seqs[name], pts, rows[:, 1] + 1j * rows[:, 2], tol)
        return Job(f"cli:scan:{name}", "cli.scan", lambda: ctx.cli(argv), check,
                   lambda res: res[0])

    jobs.append(cli_scan("radial60", 0.999, 4096, 0))
    jobs.append(cli_scan("cantor8", 0.999, 512, 1))
    rad = 0.999
    argv = ["series", "--spec", ctx.path("lp6.json"), "--r", repr(rad), "--angles", "64"]

    def check_series_csv(res):
        code, out, err = res
        rows = parse_csv(out, "angle,re,im,modulus")
        want, slack = series_direct(terms, rad * np.exp(1j * rows[:, 0]), tol)
        excess, worst = _worst(rows[:, 1] + 1j * rows[:, 2], want, slack)
        return _problems((code == 0, f"exit {code}"), (rows.shape[0] == 64, "row count"),
                         (excess <= 0.0, f"series CSV off the direct sum by {worst:.3g}"))
    jobs.append(Job("cli:series:circle", "cli.series", lambda: ctx.cli(argv), check_series_csv,
                    lambda res: res[0]))
    z = 0.9 * complex(np.exp(1j * r.uniform(0.0, TWO_PI)))
    argv_at = ["series", "--spec", ctx.path("lp6.json"), "--at", repr(z.real), repr(z.imag)]

    def check_series_at(res, z=z):
        code, out, err = res
        doc = json.loads(out)
        want, slack = series_direct(terms, [z], tol)
        err = abs(complex(doc["re"], doc["im"]) - want[0])
        return _problems((code == 0, f"exit {code}"),
                         (err <= slack[0], f"series point off by {err:.3g}"))
    jobs.append(Job("cli:series:at", "cli.series", lambda: ctx.cli(argv_at), check_series_at,
                    lambda res: res[0]))
    return jobs


# --- deep-zeros ---------------------------------------------------------------

DEEP_RADII = (0.5, 0.9, 0.99, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -30, 1.0 - 2.0 ** -40)


def deep_zeros(ctx) -> list[Job]:
    L = ctx.lib
    B = L.blaschke
    r = rng(ctx.seed, STREAM_POINTS)
    seqs = {name: L.unitdisc.ZeroSequence.from_json(ctx.read_json(f"{name}.json"))
            for name in ("full12", "full10")}
    prods = {name: B.BlaschkeProduct(seq) for name, seq in seqs.items()}
    tol = L.config.DEFAULTS["truncation_tolerance"]
    verdict_tol = L.config.DEFAULTS["verdict_tolerance"]
    window = L.config.DEFAULTS["oscillation_window"]
    policy = L.frostman.FrostmanPolicy()
    jobs: list[Job] = []

    for name, count in (("full12", 12), ("full10", 4)):
        for k in range(count):
            theta = float(r.uniform(0.0, TWO_PI))
            for j, rad in enumerate(DEEP_RADII):
                z = rad * complex(np.exp(1j * theta))

                def run(p=prods[name], z=z):
                    return p.eval_best_effort(z)

                def check(res, p=prods[name], z=z):
                    return check_eval(p, z, res)
                jobs.append(Job(f"eval:{name}:{k}:{j}", f"blaschke.eval:{name}", run, check,
                                lambda res, p=prods[name]: res.tail_bound <= p.truncation_tolerance))

    # the shape of the cluster-diameter criterion: the last ten radius levels
    radii = B.default_radius_schedule()[30:]
    for name, count in (("full12", 2), ("full10", 20)):
        for k in range(count):
            angle = float(r.uniform(0.0, TWO_PI))

            def run(p=prods[name], angle=angle):
                return B.limit_probe(p, angle, radii=radii)

            def check(rep, p=prods[name]):
                return check_probe(p, rep, radii, tol, verdict_tol, window)
            jobs.append(Job(f"probe:{name}:{k}", f"blaschke.probe:{name}", run, check, probe_summary))

    for name in ("full12", "full10"):
        seq = seqs[name]
        for k in range(8):
            theta = float(seq.angles[-1]) if k == 0 else float(r.uniform(0.0, TWO_PI))

            def run(seq=seq, theta=theta):
                return L.frostman.frostman_classify(seq, theta)

            def check(rep, seq=seq):
                return check_classify(seq, rep, policy)
            jobs.append(Job(f"classify:{name}:{k}", f"frostman.classify:{name}", run, check,
                            lambda rep: rep.classification))

    for name, count in (("full10", 64), ("full10", 48), ("full12", 8)):
        seq = seqs[name]

        def run(seq=seq, count=count):
            return L.frostman.frostman_profile(seq, count)

        def check(prof, seq=seq):
            return check_profile(seq, prof, policy)
        jobs.append(Job(f"profile:{name}:{count}", "frostman.profile", run, check,
                        lambda prof: list(prof.classifications)))
    return jobs


# --- raster-holes ---------------------------------------------------------------

def raster_holes(ctx) -> list[Job]:
    L = ctx.lib
    G, F = L.grid, L.fixtures
    pair_seed = int(rng(ctx.seed, STREAM_POINTS).integers(2**31))
    pairs = list(F.iter_random_pairs(pair_seed, 40, 48))
    fixtures = {(name, res): F.get_fixture(name, res)
                for name in ("annulus", "punctured-disc", "radial-segment") for res in (96, 192)}
    parsed48 = G.GridPlane.parse_text(ctx.read_text("grid48.txt"))
    parsed192 = G.GridPlane.parse_text(ctx.read_text("grid192.txt"))
    jobs: list[Job] = []

    def masks(plane, subject):
        return plane.subject_mask(subject)

    def label_job(jid, plane, subject, fixed=False):
        def run():
            return G.label_components(plane, subject)

        def check(lab):
            return check_labeling(plane, masks(plane, subject), lab)
        return Job(jid, f"grid.label{plane.height}", run, check,
                   lambda lab: len(lab.components), fixed)

    def union_job(jid, plane, fixed=False):
        def run():
            return G.union_check(plane, "e", "f")

        def check(rep):
            return check_union(plane, masks(plane, "e"), masks(plane, "f"), rep)
        return Job(jid, f"grid.union{plane.height}", run, check, union_summary, fixed)

    def verdict_job(jid, plane, subject, fixed=False):
        def run():
            return G.is_arakeljan(plane, subject)

        def check(v):
            return check_verdict(plane, masks(plane, subject), v)
        return Job(jid, f"grid.arakeljan{plane.height}", run, check, verdict_summary, fixed)

    def independence_job(jid, plane, fixed=False):
        def run():
            return G.hole_independence(plane, "e", "f")

        def check(rep):
            return check_independence(plane, masks(plane, "e"), masks(plane, "f"), rep)
        return Job(jid, f"grid.independence{plane.height}", run, check,
                   lambda rep: rep.independent, fixed)

    # label48 jobs hold the median and label192 jobs the 90th percentile,
    # which falls near the middle of their class because only nine jobs
    # (two random-pair union checks and the big fixtures) sit above it
    subjects = ("e", "f", "e+f")
    for k, plane in enumerate(pairs):
        for subject in subjects:
            jobs.append(label_job(f"label48:{k}:{subject}", plane, subject))
        if k < 8:
            jobs.append(independence_job(f"independence48:{k}", plane))
            jobs.append(verdict_job(f"arakeljan48:{k}", plane, subjects[k % 2]))
        if k < 2:
            jobs.append(union_job(f"union48:{k}", plane))

    big = [(f"{name}@192", fixtures[(name, 192)]) for name in ("annulus", "punctured-disc", "radial-segment")]
    for repeat in range(2):
        for tag, plane in big + [("parsed@192", parsed192)]:
            for subject in subjects:
                jobs.append(label_job(f"label192:{tag}:{subject}:{repeat}", plane, subject, fixed=True))
    for name in ("annulus", "punctured-disc", "radial-segment"):
        jobs.append(label_job(f"label96:{name}", fixtures[(name, 96)], "f", fixed=True))
        for res in (96, 192):
            tag = f"{name}@{res}"
            if name == "punctured-disc":
                jobs.append(union_job(f"union:{tag}", fixtures[(name, res)], fixed=True))
            else:
                jobs.append(verdict_job(f"arakeljan:{tag}", fixtures[(name, res)], "f", fixed=True))
    jobs.append(independence_job("independence:punctured-disc@192",
                                 fixtures[("punctured-disc", 192)], fixed=True))

    def cli_union(name, plane, fixed):
        argv = ["arakeljan", "--grid", ctx.path(name), "--union"]

        def check(res):
            code, out, err = res
            doc = json.loads(out)
            e, f = masks(plane, "e"), masks(plane, "f")
            dep = oracles.dependent(plane.cells, e, f, plane.frame_is_unbounded)
            return _problems(
                (code == 0, f"exit {code}"),
                (doc["lemma_consistent"] is True, "lemma_consistent is not true"),
                (doc["independence"]["independent"] == (not dep), "independence disagrees with scipy"),
            )

        def summary(res):
            doc = json.loads(res[1])
            return [res[0]] + [[doc[s]["label"], doc[s]["failed_condition"]] for s in ("e", "f", "union")]
        return Job(f"cli:union:{name}", f"cli.arakeljan{plane.height}", lambda: ctx.cli(argv),
                   check, summary, fixed)

    jobs.append(cli_union("grid48.txt", parsed48, False))
    jobs.append(cli_union("grid192.txt", parsed192, True))
    return jobs


BUILDERS = {"disc-eval": disc_eval, "deep-zeros": deep_zeros, "raster-holes": raster_holes}


def is_default(seed: int) -> bool:
    return seed == DEFAULT_SEED
