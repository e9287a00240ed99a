import cmath
import dataclasses
import io
import json
import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from boundarylab import blaschke, config
from boundarylab.blaschke import (
    BatchEval,
    BlaschkeProduct,
    _zero_chase_path,
    _zeros_at,
    boundary_scan,
    default_radius_schedule,
    limit_probe,
    radial_trace,
)
from boundarylab.cli import run
from boundarylab.errors import BoundaryLabError, PoleError, PrefixExhaustedError, ValidationError
from boundarylab.series import InnerFunctionSpec, SeriesSpec
from boundarylab.textio import json_text, write_csv
from boundarylab.unitdisc import (
    MAX_ANGLES,
    TWO_PI,
    ClosedSetSpec,
    LevelBlock,
    ZeroSequence,
    circle_points,
    gen_accumulation_sequence,
    gen_radial_sequence,
    normalize_angle,
    uniform_angles,
)


def _one_factor(a):
    return BlaschkeProduct(ZeroSequence.from_zeros([a]))


def _with_tol(prod, tol):
    """prod with truncation tolerance tol (prod itself for None)."""
    return prod if tol is None else dataclasses.replace(prod, truncation_tolerance=tol)


def test_eval_factor_basics():
    a = 0.3 + 0.4j
    factor = _one_factor(a)
    assert abs(factor.eval_partial(1, a)) < 1e-15
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        z = cmath.exp(1j * t)
        assert abs(abs(factor.eval_partial(1, z)) - 1.0) < 1e-14
    # the zero at the origin degenerates to the identity factor
    z = 0.2 - 0.7j
    assert _one_factor(0.0).eval_partial(1, z) == z


def test_product_at_zero_matches_rational_oracle():
    # sum_{k=1..200} of log(1 - 2^-k) computed in exact arithmetic, then one
    # float conversion at the end
    prod = Fraction(1)
    for k in range(1, 201):
        prod *= 1 - Fraction(1, 2 ** k)
    oracle = float(prod)
    assert oracle == 0.28878809508660242

    seq = gen_radial_sequence(0.0, 0.5, 60)
    prod = BlaschkeProduct(seq, truncation_tolerance=1e-12)
    got = prod.eval_many([0.0], strict=True)
    assert abs(got.values[0] - oracle) <= 2e-12
    assert got.tail_bounds[0] <= 1e-12


def test_truncation_bound_is_honest():
    rng = np.random.default_rng(7)
    seq = gen_radial_sequence(0.25, 0.5, 64)
    prod = BlaschkeProduct(seq)
    for _ in range(40):
        r = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, 2.0 * math.pi)
        z = r * cmath.exp(1j * t)
        full = prod.eval_partial(64, z)
        for n in (8, 16, 32):
            part = prod.eval_partial(n, z)
            bound = prod.tail_bound(abs(z), n)
            assert abs(full - part) <= bound + 1e-15


def test_factors_needed_and_exhaustion():
    seq = gen_radial_sequence(0.0, 0.5, 30)
    prod = BlaschkeProduct(seq)
    n = prod.factors_needed(0.5, 1e-6)
    assert 0 < n <= 30
    assert prod.tail_bound(0.5, n) <= 1e-6
    # the generator tail alone exceeds a tolerance this tight at r close to 1
    assert prod.factors_needed(0.9999999, 1e-12) == -1
    with pytest.raises(PrefixExhaustedError):
        _with_tol(prod, 1e-12).eval_many([0.9999999], strict=True)
    got = prod.eval_best_effort(0.9999999 + 0.0j)
    assert got.factors_used == 30
    assert abs(got.value) <= 1.0 + 1e-12


def test_product_is_frozen_and_keeps_the_arrays_of_its_zeros():
    seq = gen_radial_sequence(0.0, 0.5, 60)
    prod = BlaschkeProduct(seq)
    z = 0.3 + 0.0j
    want = prod.eval_best_effort(z)
    # a product whose zeros or tolerance were swapped after construction would
    # evaluate with arrays and a tolerance check of its former ones
    for field, value in (("zeros", gen_radial_sequence(0.0, 0.9, 10)),
                         ("truncation_tolerance", 7.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prod, field, value)
    assert prod.zeros is seq and tuple(prod.eval_best_effort(z)) == tuple(want)
    # equality is unchanged: the same zeros object and tolerance
    assert prod == BlaschkeProduct(seq)
    assert prod != BlaschkeProduct(seq, truncation_tolerance=1e-6)
    assert prod != BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 60))


def test_riesz_mean_square_identity():
    # mean of |B_n - B_m|^2 over the circle is 2(1 - prod_{m+1..n} |a_k|);
    # both sides are trig polynomials, so a 4096-point trapezoid rule is exact
    rng = np.random.default_rng(21)
    radii = rng.uniform(0.1, 0.9, size=12)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
    seq = ZeroSequence(angles=angles, deficits=1.0 - radii)
    prod = BlaschkeProduct(seq)
    n, m = 12, 5
    ts = np.arange(4096) * (2.0 * math.pi / 4096)
    zs = np.exp(1j * ts)
    diff = np.array([prod.eval_partial(n, z) - prod.eval_partial(m, z) for z in zs])
    lhs = float(np.mean(np.abs(diff) ** 2))
    rhs = 2.0 * (1.0 - float(np.prod(radii[m:n])))
    assert abs(lhs - rhs) < 1e-12


def test_zeros_are_interpolated():
    seq = ZeroSequence.from_zeros([0.5, -0.3 + 0.4j, 0.1j])
    prod = BlaschkeProduct(seq)
    for z in _zeros_at(seq, slice(None)):
        assert abs(prod.eval_partial(3, complex(z))) < 1e-12


def test_default_radius_schedule():
    radii = default_radius_schedule(10)
    assert len(radii) == 10
    assert np.allclose(radii, 1.0 - np.power(0.5, np.arange(1, 11)), rtol=0.0)
    assert np.all(np.diff(radii) > 0.0)
    # 1 - 2^-53 is the float just below 1; 1 - 2^-54 rounds to 1.0
    assert default_radius_schedule(53)[-1] == 1.0 - 2.0 ** -53
    for levels in (0, 54, 100, 10 ** 6):
        with pytest.raises(ValidationError, match="radius_levels"):
            default_radius_schedule(levels)


def test_chunked_eval_matches_direct_product():
    # a product over many tiles of factors, against one reduce of the same factors
    n = 65537
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    deficits = np.power(0.999, np.arange(n)) * 1e-3
    seq = ZeroSequence(angles=angles, deficits=deficits)
    prod = BlaschkeProduct(seq)
    z = 0.3 + 0.1j
    got = prod.eval_partial(n, z)
    absa, rot, conj_a = _eager_arrays(seq)
    direct = complex(np.multiply.reduce((absa - rot * z) / (1.0 - conj_a * z)))
    assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))
    assert abs(got) <= 1.0
    # same call twice gives the identical float
    assert prod.eval_partial(n, z) == got


def test_boundary_pole_detection():
    # the deficit is below float resolution, so the stored modulus collapses
    # to 1 and the factor has a genuine pole at z = 1
    seq = ZeroSequence(angles=[0.0], deficits=[2.0 ** -54])
    prod = BlaschkeProduct(seq)
    with pytest.raises(PoleError):
        prod.eval_partial(1, 1.0 + 0.0j)


def test_radial_trace_limit_and_oscillation():
    seq = gen_radial_sequence(0.0, 0.5, 60)
    prod = BlaschkeProduct(seq)
    radii = default_radius_schedule(30)
    # at the antipode the product converges: every factor is (a+1)/(1+a) = 1
    # at z = -1, so the radial path settles near B(-1) = 1
    radial = limit_probe(prod, math.pi, radii=radii, verdict_tolerance=1e-3,
                         window=8).path_limits[0]
    assert radial.name == "radial"
    assert radial.estimate is not None
    assert abs(radial.estimate - 1.0) < 1e-3
    assert radial.oscillation < 1e-3
    # midpoint radii interleave the zeros, so the radial path keeps swinging
    mids = 1.0 - 1.5 * np.power(0.5, np.arange(1, 31))
    radial = limit_probe(prod, 0.0, radii=mids, verdict_tolerance=1e-3, window=8).path_limits[0]
    assert radial.oscillation > 1e-3
    assert radial.estimate is None
    # radial_trace judges with the config defaults (the last 32 samples, 1e-4):
    # at radii 1 - 2^-n for n = 20..53 the antipode's samples are within 2^-20 of 1
    tr = radial_trace(prod, math.pi, default_radius_schedule(53)[19:])
    assert tr.limit_estimate is not None
    assert abs(tr.limit_estimate - 1.0) < 1e-4
    assert tr.oscillation < config.DEFAULTS["verdict_tolerance"]
    tr = radial_trace(prod, 0.0, mids)
    assert tr.oscillation > 1e-3
    assert tr.limit_estimate is None
    with pytest.raises(ValidationError):
        radial_trace(prod, 0.0, [0.5, 0.5])
    with pytest.raises(ValidationError):
        radial_trace(prod, 0.0, [0.5, 1.0])


@pytest.mark.parametrize("radii,message", [
    ([], "radial trace needs at least one radius"),
    ([0.5, 0.5], "trace radii must be strictly increasing"),
    ([0.9, 0.5], "trace radii must be strictly increasing"),
    ([-0.5], r"trace radii must lie in \(0, 1\)"),
    ([0.0, 0.5], r"trace radii must lie in \(0, 1\)"),
    ([0.5, 1.0], r"trace radii must lie in \(0, 1\)"),
    ([0.5, math.nan], r"trace radii must lie in \(0, 1\)"),
    ([math.nan], r"trace radii must lie in \(0, 1\)"),
], ids=["empty", "repeated", "decreasing", "negative", "zero", "one", "nan-last", "nan"])
@pytest.mark.parametrize("entry", ["radial_trace", "limit_probe"])
def test_radius_schedules_are_checked_by_both_entry_points(entry, radii, message):
    prod = BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 30))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        getattr(blaschke, entry)(prod, 0.0, radii=radii)


def test_boundary_scan_report():
    import io

    seq = gen_radial_sequence(0.0, 0.5, 60)
    prod = BlaschkeProduct(seq)
    scan = boundary_scan(prod, 0.99, 128)
    assert len(scan.angles) == 128
    assert len(scan.values) == 128
    moduli = np.abs(scan.values)
    assert (scan.modulus_min, scan.modulus_max) == (moduli.min(), moduli.max())
    buf = io.StringIO()
    scan.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "angle,re,im,modulus"
    assert len(lines) == 129
    assert lines[1].startswith("0,")
    with pytest.raises(ValidationError):
        boundary_scan(prod, 1.0, 16)
    with pytest.raises(ValidationError):
        boundary_scan(prod, 0.9, 0)


def test_standard_paths_shapes():
    radii = np.array([0.5, 0.9, 0.99])
    pts = radii * np.exp(1j * (0.7 + blaschke._path_offsets(1.0 - radii)))
    assert pts.shape == (5, 3)
    assert np.all(np.abs(pts) < 1.0)
    assert np.allclose(np.abs(pts), radii)
    # radial path heads straight at the boundary point
    assert np.allclose(np.angle(pts[0]), 0.7)
    report = limit_probe(BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 40)), 0.7, radii=radii)
    assert [p.name for p in report.path_limits] == ["radial", "nontangential+", "nontangential-",
                                                    "tangential+", "tangential-"]
    assert report.path_ends == (3, 6, 9, 12, 15)


def test_limit_probe_zero_chase_path():
    target = ClosedSetSpec(kind="arc-union", arcs=((0.0, 2.0 * math.pi),))
    seq = gen_accumulation_sequence(target, 6)
    prod = BlaschkeProduct(seq)
    report = limit_probe(prod, 1.0)
    names = [p.name for p in report.path_limits]
    assert "zero-chase" in names
    assert report.cluster_diameter_estimate >= 0.0
    data = report.to_json()
    assert set(data.keys()) == {
        "angle",
        "paths",
        "cluster_diameter_estimate",
        "radial_exists",
    }


# --- eval_many against the per-point loop it replaced ------------------------
#
# _reference_eval is the one-point evaluation as it was before eval_many, with
# the product's bits from _chain: every batched value must carry exactly its
# bits, and every failure its exception type and message.

_CHUNK = 65536  # a size unit of the long-product tests: 1 MiB of complex values

RADIAL30 = {"generator": {"kind": "radial", "angle": 4.002148315014479, "rate": 0.4, "count": 30}}
RADIAL60 = {"generator": {"kind": "radial", "angle": 1.6951199159934145, "rate": 0.5, "count": 60}}
CANTOR8 = {"generator": {"kind": "accumulation", "depth": 8, "target": {
    "kind": "cantor", "cantor_level": 3, "base_arc": [0.25744424357926954, 1.2574442435792696]}}}
FULL10 = {"generator": {"kind": "accumulation", "depth": 10, "target": {
    "kind": "arc-union", "arcs": [[0.10384619671527331, 6.3870315038948595]]}}}


_THREE_SETS = pytest.mark.parametrize("spec", [RADIAL30, RADIAL60, CANTOR8],
                                      ids=["radial30", "radial60", "cantor8"])


def _product(spec):
    return BlaschkeProduct(ZeroSequence.from_json(spec))


def _eager_arrays(seq):
    """|a|, rot = conj(a)/|a| and conj(a) of every zero, as the product built
    them at construction before they were built on first read."""
    absa = 1.0 - seq.deficits
    a = absa * np.exp(1j * seq.angles)
    conj_a = np.conj(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        rot = np.where(absa > 0.0, conj_a / np.where(absa > 0.0, absa, 1.0), -1.0)
    return absa, rot, conj_a


def _chain(factors):
    """The one reference for product bits: the rows of factors (factors x
    points; a 1-d array is one point) multiplied strictly left to right, each
    step one numpy binary complex multiply of the running products by the
    next row, on arrays of at least one element.  No row gives 1 + 0i, one
    row gives itself.  Each step writes a new array: a one-element multiply
    written over its own input is run by numpy's unfused reduce loop."""
    factors = np.asarray(factors, dtype=np.complex128)
    factors = factors[:, None] if factors.ndim == 1 else factors
    if not factors.shape[0]:
        return np.ones(factors.shape[1], dtype=np.complex128)
    acc = factors[0]
    for row in factors[1:]:
        acc = np.multiply(acc, row)
    return acc.copy()


def _range_products(prod, z, lo, hi):
    """Factors lo..hi-1 of prod at each point z[i], chained (_chain) over
    blocks of at most 4,096 factors, each block's first row the running
    products.  A point's factors are one vector at the scalar point, which
    has the bits of a column of a tile of two or more points; a (1 x 1)
    broadcast product does not."""
    absa, rot, conj_a = _eager_arrays(prod.zeros)
    points = np.asarray(z, dtype=np.complex128).reshape(-1).tolist()
    acc = np.empty((0, len(points)), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(lo, hi, 4096) if points else ():
            f = slice(c, min(c + 4096, hi))
            rows = np.column_stack([(absa[f] - rot[f] * w) / (1.0 - conj_a[f] * w) for w in points])
            acc = _chain(np.concatenate([acc, rows]))[None]
    return acc.reshape(-1) if acc.size else np.ones(len(points), dtype=np.complex128)


def _reference_partial(prod, n, z):
    absa, rot, conj_a = _eager_arrays(prod.zeros)
    num = absa[:n] - rot[:n] * z
    den = 1.0 - conj_a[:n] * z
    if np.any(den == 0.0):
        k = int(np.argmin(np.abs(den)))
        raise PoleError(f"evaluation point {z!r} is the pole of the factor at zero #{k}")
    return complex(_chain(num / den)[0])


def _reference_eval(prod, z, strict):
    z = complex(z)
    tol = prod.truncation_tolerance
    r = abs(z)
    n = prod.factors_needed(r, tol)
    bound = prod.tail_bound(r, len(prod) if n < 0 else n)
    # strict mode fails wherever the bound exceeds tol, also at a certified count
    if strict and (n < 0 or bound > tol):
        raise PrefixExhaustedError(
            f"stored prefix of {len(prod)} zeros cannot reach tolerance "
            f"{tol:g} at |z| = {r:.6g} (achieved tail bound {bound:.6g})",
            tail_bound=bound,
        )
    n = len(prod) if n < 0 else n
    return _reference_partial(prod, n, z), n, bound


def _outcome(call):
    """(values, factor counts, tail bounds) as arrays, or the failure's type,
    message and tail bound (None where it has none)."""
    try:
        values, counts, bounds = call()
    except BoundaryLabError as exc:
        return type(exc), str(exc), getattr(exc, "tail_bound", None)
    return (np.asarray(values, dtype=np.complex128), np.asarray(counts, dtype=np.int64),
            np.asarray(bounds, dtype=np.float64))


def _reference_many(prod, points, strict):
    def call():
        rows = [_reference_eval(prod, z, strict) for z in points]
        return tuple(zip(*rows)) if rows else ([], [], [])
    return _outcome(call)


def _assert_same(got, want):
    assert len(got) == len(want)
    if isinstance(want[0], type):
        assert got == want
        return
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _check_many(prod, points, strict, tol=None):
    prod, points = _with_tol(prod, tol), np.asarray(points, dtype=np.complex128)
    got = _outcome(lambda: prod.eval_many(points, strict=strict))
    want = _reference_many(prod, points.tolist(), strict)
    _assert_same(got, want)
    return got


def _old_circle(r, count, angles=None):
    angles = TWO_PI * np.arange(count, dtype=np.float64) / count if angles is None else angles
    return np.array([r * cmath.exp(1j * t) for t in angles], dtype=np.complex128)


def test_circle_points_have_the_scalar_bits():
    # numpy's exp and product against one cmath.exp call per point, on the
    # scan grid and at random angles far outside [0, 2 pi), out to 1 - 2^-40
    random = np.random.default_rng(4096).uniform(-1e3, 1e3, 200_000)
    for r in (0.1, 0.5, 0.9, 0.999, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40):
        for angles in (uniform_angles(4096), random):
            want = _old_circle(r, 0, angles.tolist())
            assert np.array_equal(circle_points(r, angles).view(np.uint64), want.view(np.uint64))


@_THREE_SETS
@pytest.mark.parametrize("strict", [True, False])
def test_eval_many_matches_the_per_point_loop_on_scans(spec, strict):
    prod = _product(spec)
    for r in (0.5, 0.99, 0.995, 0.999, 0.9999):
        points = _old_circle(r, 512)
        assert np.array_equal(circle_points(r, uniform_angles(512)).view(np.uint8),
                              points.view(np.uint8))
        got = _check_many(prod, points, strict)
        scan = _outcome(lambda: (boundary_scan(prod, r, 512, strict=strict).values, [], []))
        if isinstance(got[0], type):
            assert scan == got
        else:
            assert np.array_equal(scan[0].view(np.uint8), got[0].view(np.uint8))


@_THREE_SETS
def test_eval_many_matches_the_per_point_loop_on_traces(spec):
    prod = _product(spec)
    zero_angle = float(prod.zeros.angles[0])
    radii = default_radius_schedule()
    for angle in (zero_angle, zero_angle + 1e-9, 0.3, math.pi, 5.5):
        direction = cmath.exp(1j * normalize_angle(angle))
        old_points = [r * direction for r in radii]
        assert np.array_equal((radii * direction).view(np.uint8),
                              np.array(old_points, dtype=np.complex128).view(np.uint8))
        _check_many(prod, old_points, strict=True)
        got = _check_many(prod, old_points, strict=False)
        trace = radial_trace(prod, angle).values
        assert np.array_equal(trace.view(np.uint8), got[0].view(np.uint8))


# The offset paths of the probe family as they were written before the offset
# table: one offset function of s = 1 - r per path, sampled radius by radius.
_FORMER_PATHS = (
    ("radial", lambda s: 0.0),
    ("nontangential+", lambda s: s),
    ("nontangential-", lambda s: -s),
    ("tangential+", lambda s: 0.1 * math.sqrt(s)),
    ("tangential-", lambda s: -0.1 * math.sqrt(s)),
)


class _ReferenceProbe(NamedTuple):
    offsets: np.ndarray  # (offset paths, radii)
    names: list
    points: np.ndarray  # every path's points in family order
    ends: list
    samples: tuple
    json: dict


def _reference_probe(prod, angle, tol=None, evaluate=None):
    """What limit_probe(prod, angle) should use and give at the default window
    and radii: the offset paths sampled through _FORMER_PATHS, then the zero
    chase; samples from evaluate(points) (default: one-point reference
    evaluations); then a copy of the late-window rule at verdict tolerance
    tol (default from config)."""
    angle = normalize_angle(angle)
    radii = default_radius_schedule()
    offsets = np.array([[offset(s) for s in 1.0 - radii] for _, offset in _FORMER_PATHS],
                       dtype=np.float64)
    names = [name for name, _ in _FORMER_PATHS]
    points = [radii * np.exp(1j * (angle + row)) for row in offsets]
    chase = _zero_chase_path(prod, angle)
    if chase is not None:
        names.append("zero-chase")
        points.append(np.asarray(chase, dtype=np.complex128))
    ends = np.cumsum([p.size for p in points]).tolist()
    points = np.concatenate(points)
    if evaluate is None:
        samples = _reference_many(prod, points.tolist(), False)
    else:
        samples = tuple(evaluate(points))
    tol = config.DEFAULTS["verdict_tolerance"] if tol is None else tol
    window = config.DEFAULTS["oscillation_window"]
    paths, pooled = [], []
    for name, lo, hi in zip(names, [0] + ends, ends):
        tail = samples[0][max(lo, hi - window):hi]
        osc = float(np.abs(tail[:, None] - tail[None, :]).max()) if tail.size > 1 else 0.0
        mean = complex(np.mean(tail))
        paths.append({"name": name,
                      "estimate": {"re": mean.real, "im": mean.imag} if osc < tol else None,
                      "oscillation": osc})
        pooled.append(tail)
    pooled = np.concatenate(pooled)
    diameter = float(np.abs(pooled[:, None] - pooled[None, :]).max())
    return _ReferenceProbe(offsets, names, points, ends, samples, {
        "angle": angle, "paths": paths, "cluster_diameter_estimate": diameter,
        "radial_exists": paths[0]["estimate"] is not None})


@_THREE_SETS
def test_eval_many_matches_the_per_point_loop_on_probe_paths(spec):
    prod = _product(spec)
    angles = [float(prod.zeros.angles[0]), float(prod.zeros.angles[-1]), 2.0, 4.5]
    for angle in angles:
        # the report's samples and verdicts equal those built from the reference
        # loop, at tolerances from the default up to where some paths' late
        # windows pass and others fail
        for tol in (None, 1e-3, 1e-2, 0.1, 0.5):
            want = _reference_probe(prod, angle, tol)
            if angle == prod.zeros.angles[0] and spec is not RADIAL30:
                assert want.names[-1] == "zero-chase"
            report = limit_probe(prod, angle, verdict_tolerance=tol)
            _assert_same(tuple(report.samples), want.samples)
            assert list(report.path_ends) == want.ends
            assert json_text(report.to_json()) == json_text(want.json)
        _check_many(prod, want.points, strict=False)


@pytest.mark.parametrize("spec", [RADIAL30, RADIAL60, CANTOR8, FULL10],
                         ids=["radial30", "radial60", "cantor8", "full10"])
def test_reports_keep_the_record_of_one_eval_many_call(spec):
    prod = _product(spec)
    angle = float(prod.zeros.angles[0])
    radii = default_radius_schedule()
    pairs = []  # (report's record, one eval_many call on the report's points)
    # strict scans of cantor8 and full10 fail wherever they are taken: both raise alike
    for strict, r in ((True, 0.99), (False, 0.999)):
        pairs.append((_outcome(lambda: boundary_scan(prod, r, 512, strict=strict).samples),
                      _outcome(lambda: prod.eval_many(circle_points(r, uniform_angles(512)),
                                                      strict=strict))))
    trace = radial_trace(prod, angle)
    assert type(trace.samples) is BatchEval and trace.values is trace.samples.values
    pairs.append((trace.samples,
                  prod.eval_many(radii * cmath.exp(1j * normalize_angle(angle)), strict=False)))
    report = limit_probe(prod, angle)
    ref = _reference_probe(prod, angle, evaluate=partial(prod.eval_many, strict=False))
    assert list(report.path_ends) == ref.ends
    pairs.append((report.samples, ref.samples))
    for got, want in pairs:
        if isinstance(want[0], type):
            assert got == want
        else:
            assert len(got) == len(want) == 3
            assert all(_same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("spec", [RADIAL30, RADIAL60, CANTOR8, FULL10],
                         ids=["radial30", "radial60", "cantor8", "full10"])
def test_probe_paths_have_the_bits_of_the_former_path_functions(spec):
    prod = _product(spec)
    offsets = blaschke._path_offsets(1.0 - default_radius_schedule())
    angles = [float(prod.zeros.angles[0]), float(prod.zeros.angles[-1]), 2.0, 4.5,
              float(np.random.default_rng(len(prod)).uniform(0.0, TWO_PI))]
    for angle in angles:
        report = limit_probe(prod, angle)
        want = _reference_probe(prod, angle, evaluate=partial(prod.eval_many, strict=False))
        # the offset table holds the former offset functions' values, bit for bit
        assert _same_bits(offsets, want.offsets)
        assert [p.name for p in report.path_limits] == want.names
        assert list(report.path_ends) == want.ends
        assert all(_same_bits(a, b) for a, b in zip(report.samples, want.samples))
        assert json_text(report.to_json()) == json_text(want.json)


FULL12 = {"generator": {"kind": "accumulation", "depth": 12, "target": {
    "kind": "arc-union", "arcs": [[0.10384619671527331, 6.3870315038948595]]}}}


def _former_late_window(values, window, tol):
    """The late-window rule as it was applied path by path before the windows
    were pooled: the last `window` values as a list, their diameter (max
    pairwise distance) and their mean if the diameter is below tol."""
    tail = values[len(values) - min(window, len(values)):].tolist()
    arr = np.asarray(tail, dtype=np.complex128)
    osc = float(np.abs(arr[:, None] - arr[None, :]).max()) if arr.size >= 2 else 0.0
    return tail, osc, (complex(np.mean(tail)) if osc < tol else None)


def _hex(x):
    if x is None:
        return None
    return (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x.hex()


@pytest.mark.parametrize("spec", [FULL10, FULL12, RADIAL30, RADIAL60, CANTOR8],
                         ids=["full10", "full12", "radial30", "radial60", "cantor8"])
def test_probe_and_trace_windows_have_the_bits_of_the_per_path_rule(spec):
    prod = _product(spec)
    rng = np.random.default_rng(len(prod))
    stored = prod.zeros.angles
    angles = ([float(stored[0]), float(stored[-1])]
              + stored[rng.integers(0, stored.size, 2)].tolist()
              + rng.uniform(0.0, TWO_PI, 3).tolist())
    default = (config.DEFAULTS["verdict_tolerance"], config.DEFAULTS["oscillation_window"])
    for radii in (None, default_radius_schedule()[30:]):
        for angle in angles:
            for tol, window in (default, (0.5, 3)):
                report = limit_probe(prod, angle, radii=radii, verdict_tolerance=tol,
                                     window=window)
                want, pooled = [], []
                for lo, hi in zip((0, *report.path_ends), report.path_ends):
                    tail, osc, estimate = _former_late_window(report.samples.values[lo:hi],
                                                              window, tol)
                    want.append((osc.hex(), _hex(estimate)))
                    pooled.extend(tail)
                _, diameter, _ = _former_late_window(np.array(pooled), len(pooled), 0.0)
                assert [(p.oscillation.hex(), _hex(p.estimate))
                        for p in report.path_limits] == want
                assert report.cluster_diameter_estimate.hex() == diameter.hex()
                assert report.radial_exists == (float.fromhex(want[0][0]) < tol)
            trace = radial_trace(prod, angle, radii)
            _, osc, estimate = _former_late_window(trace.values, *default[::-1])
            assert (trace.oscillation.hex(), _hex(trace.limit_estimate)) == \
                (osc.hex(), _hex(estimate))


@pytest.mark.parametrize("call", [
    lambda fn: boundary_scan(fn, 0.9, 16),
    lambda fn: radial_trace(fn, 0.0),
    lambda fn: limit_probe(fn, 0.0),
], ids=["scan", "trace", "probe"])
def test_reports_take_only_blaschke_products(call):
    spec = InnerFunctionSpec(blaschke=_product(RADIAL30))
    for fn, name in ((spec, "InnerFunctionSpec"), (lambda z: z, "function"), (None, "NoneType")):
        with pytest.raises(ValidationError, match=f"cannot evaluate object of type {name}; "):
            call(fn)


# verdict settings refused by limit_probe, with their messages
_BAD_VERDICT_SETTINGS = [
    ({"window": 0}, "window must be a positive integer, got 0"),
    ({"window": -3}, "window must be a positive integer, got -3"),
    ({"window": 2.5}, "window must be a positive integer, got 2.5"),
    ({"window": True}, "window must be a positive integer, got True"),
    ({"window": "8"}, "window must be a positive integer, got '8'"),
    ({"verdict_tolerance": math.nan}, "verdict_tolerance must be finite and positive, got nan"),
    ({"verdict_tolerance": math.inf}, "verdict_tolerance must be finite and positive, got inf"),
    ({"verdict_tolerance": -1e-3},
     "verdict_tolerance must be finite and positive, got -0.001"),
    ({"verdict_tolerance": 0.0}, "verdict_tolerance must be finite and positive, got 0.0"),
    ({"verdict_tolerance": False}, "verdict_tolerance must be finite and positive, got False"),
    ({"verdict_tolerance": "1e-3"},
     "verdict_tolerance must be finite and positive, got '1e-3'"),
]


def test_verdict_settings_are_refused_with_their_message():
    prod = _product(RADIAL30)
    for kwargs, message in _BAD_VERDICT_SETTINGS:
        with pytest.raises(ValidationError) as info:
            limit_probe(prod, 1.0, **kwargs)
        assert str(info.value) == message
    # the smallest window and an integral tolerance are accepted
    assert limit_probe(prod, 1.0, window=1, verdict_tolerance=1).radial_exists


def _without_blocks(spec):
    """The generated zeros of spec as an explicit sequence, evaluated factor by factor."""
    seq = ZeroSequence.from_json(spec)
    return BlaschkeProduct(ZeroSequence(angles=seq.angles, deficits=seq.deficits,
                                        extension_mass=seq.extension_mass))


def test_eval_many_past_one_chunk():
    prod = _without_blocks(FULL10)
    assert len(prod) == 88575 and not prod.zeros.blocks
    theta = 0.7
    # the whole prefix (88,575 factors): each point's chain runs across many tiles
    points = [r * cmath.exp(1j * theta) for r in (0.5, 0.99, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40)]
    got = _check_many(prod, points, strict=False)
    assert set(got[1].tolist()) == {88575}
    # looser tolerances certify short and long prefixes, ending at different counts
    for tol in (0.5, 0.03, 0.01, 0.003):
        pts = [r * cmath.exp(1j * (theta + k)) for k, r in enumerate((0.1, 0.5, 0.5, 0.7, 0.9))]
        got = _check_many(prod, pts, strict=True, tol=tol)
        _check_many(prod, pts, strict=False, tol=tol)
        if not isinstance(got[0], type):
            assert np.all(got[1] > 0)


def test_eval_many_block_footprint():
    # factor tiles keep the temporaries small: the untiled products below
    # would need over 32 MiB per temporary
    import tracemalloc

    cantor8, full10 = _product(CANTOR8), _product(FULL10)
    scan_points = circle_points(0.995, uniform_angles(4096))
    ring = circle_points(0.9, uniform_angles(64))
    assert len(cantor8) * scan_points.size > 32 * _CHUNK
    loose = _with_tol(full10, 0.03)
    counts = loose.eval_many(ring, strict=False).factors_used
    assert np.all((counts > _CHUNK // 2) & (counts <= _CHUNK))
    assert counts.size * counts[0] > 32 * _CHUNK
    tracemalloc.start()
    try:
        for prod, points in ((cantor8, scan_points), (loose, ring), (full10, ring)):
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            prod.eval_many(points, strict=False)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < 8 * _CHUNK * 16
    finally:
        tracemalloc.stop()


def test_eval_many_near_zeros_and_at_the_origin_factor():
    prod = _product(RADIAL60)
    eps = np.finfo(np.float64).eps
    points = []
    for a in _zeros_at(prod.zeros, slice(0, 50, 7)):
        for k in (-3, -1, 0, 1, 3):
            points += [a * (1.0 + k * eps), a + k * eps, a + 1j * k * eps]
    for strict in (True, False):
        _check_many(prod, points, strict)
    # a zero at the origin (deficit 1) makes the factor z itself
    seq = ZeroSequence(angles=[0.0, 1.0, 2.0], deficits=[1.0, 0.5, 1.0])
    prod = BlaschkeProduct(seq)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 0.9, 64) * np.exp(1j * rng.uniform(0.0, TWO_PI, 64))
    pts = np.concatenate([pts, [0.0, 1e-300, -0.0]])
    for strict in (True, False):
        _check_many(prod, pts, strict)
    want = pts * pts * BlaschkeProduct(ZeroSequence(angles=[1.0], deficits=[0.5])).eval_many(
        pts, strict=False).values
    assert np.allclose(prod.eval_many(pts, strict=False).values, want, rtol=1e-14, atol=1e-300)


def test_eval_many_mixed_moduli_and_first_failure_in_input_order():
    prod = _product(RADIAL30)
    rng = np.random.default_rng(11)
    r = np.concatenate([rng.uniform(0.0, 0.999, 60), [0.9999999, 0.3, 0.9999999]])
    pts = r * np.exp(1j * rng.uniform(0.0, TWO_PI, r.size))
    for strict in (True, False):
        for tol in (None, 1e-3):
            _check_many(prod, pts, strict, tol)
            _check_many(prod, pts[::-1], strict, tol)
    # |z| >= 1 fails in both modes, at its place in the input
    _check_many(prod, [0.5, 1.0, 0.9999999], strict=False)
    _check_many(prod, [0.5, 0.9999999, 2.0], strict=True)
    _check_many(prod, [], strict=True)


def _bypass_truncation(monkeypatch, prod, needed):
    """Replace the truncation rule of BlaschkeProduct for the test, in eval_many
    and in the reference loop, by needed(r) factors at every radius, the circle
    included, and zero tail bounds; prod is frozen, so its class is patched.
    eval_many refuses |z| >= 1 before the rule, so np.hypot (its modulus) is
    clamped to 1 - 2^-53 for the test, which lets circle points through."""
    cls = type(prod)
    monkeypatch.setattr(cls, "factors_needed", lambda self, r, tol: needed(r))
    monkeypatch.setattr(cls, "tail_bound", lambda self, r, n: 0.0)

    def rule(self, r, tol):
        n = np.array([needed(x) for x in np.atleast_1d(r).tolist()], dtype=np.int64)
        over, counts, bounds = n < 0, np.where(n < 0, len(self), n), np.zeros(n.size)
        return (over, counts, bounds) if np.ndim(r) else (over[0], counts[0], bounds[0])
    monkeypatch.setattr(cls, "_prefix_rule", rule)
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda x, y: np.minimum(hypot(x, y), 1.0 - 2.0 ** -53))


def test_eval_many_poles_raise_like_the_per_point_loop(monkeypatch):
    # a deficit below float resolution puts the factor's pole at z = 1 (and at
    # 1 - 0j, which prints differently); the truncation rule is bypassed so
    # that points on the circle are evaluated
    seq = ZeroSequence(angles=[0.0, 0.0], deficits=[0.5, 2.0 ** -54])
    prod = BlaschkeProduct(seq)
    _bypass_truncation(monkeypatch, prod, lambda r: -1 if r == 0.75 else 2)
    for points in ([0.5, 1.0, 0.3], [0.75j, 1.0], [1.0, 0.75], [0.2, complex(1.0, -0.0), 1.0]):
        for strict in (True, False):
            got = _check_many(prod, points, strict)
            assert isinstance(got[0], type)
    assert _outcome(lambda: prod.eval_many([0.5, 1.0], strict=False))[0] is PoleError


def test_one_point_calls_match_the_reference():
    prod = _product(CANTOR8)
    for z in (0.0, 0.3 + 0.4j, 0.999j, -0.5):
        want = _reference_eval(prod, z, False)
        assert tuple(prod.eval_best_effort(z)) == want
        _check_many(prod, [z], strict=True)
    prod = _product(RADIAL60)
    for z in (0.0, 0.3 + 0.4j, 0.999j, -0.5):
        got = tuple(x.item() for x in prod.eval_many([z], strict=True))
        assert got == _reference_eval(prod, z, True)
        assert prod.eval_partial(7, z) == _reference_partial(prod, 7, complex(z))


def _reference_series(spec, z):
    """The weighted sum as evaluated point by point before the batched path."""
    value = 0.0 + 0.0j
    for term in spec.terms:
        part = _reference_eval(term.component.blaschke, z, False)[0]
        value += term.weight * ((1.0 + 0.0j) * part)
    return value


def _cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_output_matches_the_reference_loop(tmp_path, capsys):
    files = {}
    for name, spec in (("radial60", RADIAL60), ("cantor8", CANTOR8)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    radial60, cantor8 = _product(RADIAL60), _product(CANTOR8)

    def table(header, rows):
        buf = io.StringIO()
        write_csv(buf, header, list(zip(*rows)))
        return buf.getvalue()

    def scan_rows(prod, r, count, strict):
        values = [_reference_eval(prod, z, strict)[0] for z in _old_circle(r, count)]
        angles = TWO_PI * np.arange(count, dtype=np.float64) / count
        return [(float(t), v.real, v.imag, float(abs(np.complex128(v))))
                for t, v in zip(angles, values)]

    code, out, _ = _cli(capsys, ["scan", "--zeros", str(files["radial60"]),
                                 "--r", "0.999", "--angles", "1024"])
    assert code == 0
    assert out == table(("angle", "re", "im", "modulus"), scan_rows(radial60, 0.999, 1024, True))

    code, out, err = _cli(capsys, ["scan", "--zeros", str(files["cantor8"]),
                                   "--r", "0.999", "--angles", "256"])
    assert code == 1
    failure = _reference_many(cantor8, _old_circle(0.999, 256).tolist(), True)
    assert err == f"boundarylab scan: {failure[1]}; writing best-effort samples\n"
    assert out == table(("angle", "re", "im", "modulus"), scan_rows(cantor8, 0.999, 256, False))

    angle = float(radial60.zeros.angles[0])
    code, out, _ = _cli(capsys, ["trace", "--zeros", str(files["radial60"]),
                                 "--angle", repr(angle)])
    assert code == 0
    direction = cmath.exp(1j * angle)
    radii = default_radius_schedule()
    values = np.array([_reference_eval(radial60, r * direction, False)[0] for r in radii])
    rows = [(float(r), float(v.real), float(v.imag), float(abs(v))) for r, v in zip(radii, values)]
    assert out == table(("radius", "re", "im", "modulus"), rows)

    for name, prod, angle in (("radial60", radial60, angle), ("cantor8", cantor8, 0.3)):
        code, out, _ = _cli(capsys, ["probe", "--zeros", str(files[name]), "--angle", repr(angle)])
        assert code == 0
        assert out == json_text(_reference_probe(prod, angle).json)

    series = {"weight_rule": "inverse-square", "terms": [
        {"weight": w, "component": {"blaschke": spec, "atoms": None, "outer": None, "series": None}}
        for w, spec in ((1.0, RADIAL60), (0.25, CANTOR8), (1.0 / 9.0, RADIAL30))]}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series))
    spec = SeriesSpec.from_json(series)
    code, out, _ = _cli(capsys, ["series", "--spec", str(path), "--r", "0.999", "--angles", "128"])
    assert code == 0
    rows = []
    for k in range(128):
        t = TWO_PI * k / 128
        v = _reference_series(spec, 0.999 * cmath.exp(1j * t))
        rows.append((float(t), float(v.real), float(v.imag), float(abs(v))))
    assert out == table(("angle", "re", "im", "modulus"), rows)
    code, out, _ = _cli(capsys, ["series", "--spec", str(path), "--at", "0.3", "-0.8"])
    v = _reference_series(spec, complex(0.3, -0.8))
    assert json.loads(out)["re"] == v.real and json.loads(out)["im"] == v.imag


def test_scan_refuses_too_many_angles_before_allocating():
    import tracemalloc

    prod = _product(RADIAL30)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="angle cap"):
            boundary_scan(prod, 0.9, MAX_ANGLES + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- closed-form full-circle blocks -------------------------------------------

FULL12 = {"generator": {"kind": "accumulation", "depth": 12, "target": {
    "kind": "arc-union", "arcs": [[0.10384619671527331, 6.3870315038948595]]}}}
DEEP_RADII = (0.5, 0.9, 0.99, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -30,
              1.0 - 2.0 ** -40)
_EPS = float(np.finfo(np.float64).eps)


def _full_circle(depth, start=0.4):
    target = ClosedSetSpec(kind="arc-union", arcs=((start, start + TWO_PI),))
    return BlaschkeProduct(gen_accumulation_sequence(target, depth))


def _phase(prod, z, n):
    """The phase bound of the blocks inside the first n factors at |z|."""
    return float(prod._phase_bounds(np.array([abs(z)]),
                                    prod._block_ends.searchsorted([n], "right"))[0])


def _direct_slack(plain, z, n):
    """A factor-by-factor product's rounding slack, as the benchmark's oracle takes it."""
    conj_a = plain._factor_arrays[1][:n]
    with np.errstate(divide="ignore"):  # at a stored zero: near_zero inf, relative nan
        near_zero = float(np.sum(1.0 / np.abs(z - np.conj(conj_a))))
    near_pole = float(np.sum(1.0 / np.abs(1.0 - conj_a * z)))
    relative = (n + 4.0 * near_zero) * abs(plain.eval_partial(n, z))
    return 16.0 * _EPS * float(np.fmin(relative, n + 4.0 * near_pole)) + 64.0 * _EPS


def test_full12_stays_within_the_direct_products_slack():
    prod, plain = _product(FULL12), _without_blocks(FULL12)
    assert len(prod) == 797163 and len(prod.zeros.blocks) == 12
    rng = np.random.default_rng(12)
    points = [r * cmath.exp(1j * t) for t in rng.uniform(0.0, TWO_PI, 4) for r in DEEP_RADII]
    got = prod.eval_many(points, strict=False)
    assert np.all(got.factors_used == len(prod))
    for z, value, bound in zip(points, got.values.tolist(), got.tail_bounds.tolist()):
        direct = plain.eval_partial(len(prod), z)
        assert abs(value - direct) <= _direct_slack(plain, z, len(prod))
        assert bound >= prod.tail_bound(abs(z), len(prod))
        # a value does not depend on the other points of the call
        assert prod.eval_best_effort(z) == (value, len(prod), bound)


def test_prefixes_ending_inside_a_level_mix_blocks_and_factors():
    prod, plain = _product(FULL10), _without_blocks(FULL10)
    rng = np.random.default_rng(10)
    points = rng.uniform(0.05, 0.95, 40) * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
    ends = [b.start + b.count for b in prod.zeros.blocks]
    inside = 0
    for tol in (0.3, 0.05, 0.01, 0.002):
        got = _with_tol(prod, tol).eval_many(points, strict=False)
        for z, value, n, bound in zip(points.tolist(), got.values.tolist(),
                                      got.factors_used.tolist(), got.tail_bounds.tolist()):
            inside += n not in ends
            direct = plain.eval_partial(n, z)
            assert abs(value - direct) <= _direct_slack(plain, z, n) + _phase(prod, z, n)
            assert bound == prod.tail_bound(abs(z), n) + _phase(prod, z, n)
            assert prod.eval_partial(n, z) == value
    assert inside > 20


def test_blocks_then_a_range_past_one_chunk_keep_the_per_point_bits():
    prod = _product(FULL12)
    ends = [b.start + b.count for b in prod.zeros.blocks]
    angles = np.random.default_rng(5).uniform(0.0, TWO_PI, 16)
    for tol, r in ((1e-3, 0.5), (3e-4, 0.05)):
        points = r * np.exp(1j * angles)
        got = _with_tol(prod, tol).eval_many(points, strict=True)
        n = int(got.factors_used[0])
        k = sum(end <= n for end in ends)
        # whole blocks, then more than 4 x 65,536 factors of the next level
        assert n - ends[k - 1] > 4 * _CHUNK
        # each block's closed form, then the range's product as one column
        parts = np.hstack([prod._closed_forms(points, k),
                           _range_products(prod, points, ends[k - 1], n)[:, None]])
        want = np.multiply.reduce(parts, axis=1)
        assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))


def test_closed_form_is_within_its_bound_of_an_mpmath_product():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.default_rng(2024)
    # depth, random angles and their radii, stored zeros approached within 1e-12 and radii
    cases = ((6, 3, DEEP_RADII, 4, None), (7, 1, DEEP_RADII, 2, None),
             (8, 1, (0.99, 1.0 - 2.0 ** -40), 1, (None, 1.0 - 2.0 ** -40)))
    for depth, thetas, radii, near, near_radii in cases:
        prod = _full_circle(depth)
        seq = prod.zeros
        # the stored zeros exactly: modulus fl(1 - d) (the evaluator's) and the stored angle
        rho = [mp.mpf(float(x)) for x in prod._factor_arrays[0]]
        turn = [mp.expj(-mp.mpf(float(t))) for t in seq.angles]
        points = [r * cmath.exp(1j * t) for t in rng.uniform(0.0, TWO_PI, thetas) for r in radii]
        for j in rng.integers(0, len(seq), near):
            t = float(seq.angles[j]) + float(rng.uniform(-1e-12, 1e-12))
            on_zero = float(1.0 - seq.deficits[j])
            points += [(on_zero if r is None else r) * cmath.exp(1j * t)
                       for r in (near_radii or (None, 0.999, 1.0 - 2.0 ** -40))]
        got = prod.eval_many(points, strict=False)
        for z, value, n in zip(points, got.values.tolist(), got.factors_used.tolist()):
            w = mp.mpc(z.real, z.imag)
            num, den = mp.mpc(1), mp.mpc(1)
            for k in range(n):
                v = turn[k] * w
                num *= rho[k] - v
                den *= 1 - rho[k] * v
            error = float(abs(mp.mpc(value.real, value.imag) - num / den))
            # one closed-form factor per block, each a few rounding errors
            rounding = 16.0 * _EPS * len(seq.blocks) * abs(value) + 64.0 * _EPS
            assert error <= _phase(prod, z, n) + rounding


def test_phase_terms_enter_the_tail_bounds_and_strict_mode():
    prod = _full_circle(5)
    z = 0.3 * cmath.exp(0.9j)
    n = prod.factors_needed(0.3, 0.5)
    assert 0 < n < len(prod)
    phase = _phase(prod, z, n)
    assert phase > 0.0
    got = _with_tol(prod, 0.5).eval_many([z], strict=True)
    assert got.factors_used[0] == n
    assert got.tail_bounds[0] == prod.tail_bound(0.3, n) + phase
    # a tolerance that the truncation bound meets but truncation plus phase does not
    tight = prod.tail_bound(0.3, n)
    assert prod.factors_needed(0.3, tight) == n
    prod = _with_tol(prod, tight)
    with pytest.raises(PrefixExhaustedError) as info:
        prod.eval_many([z], strict=True)
    assert info.value.tail_bound == got.tail_bounds[0]
    assert prod.eval_many([z], strict=False).tail_bounds[0] == got.tail_bounds[0]
    # later points are not evaluated; the first failing point in input order raises
    with pytest.raises(PrefixExhaustedError, match=r"\|z\| = 0\.3 "):
        prod.eval_many([0.1, z, 0.9999999], strict=True)
    # the phase term grows with |z| and vanishes at the origin
    radii = np.array([0.0, 0.5, 0.9, 0.999, 1.0 - 2.0 ** -40])
    bounds = prod._phase_bounds(radii, np.full(radii.size, len(prod.zeros.blocks)))
    assert bounds[0] == 0.0 and np.all(np.diff(bounds) > 0.0)


# the golden input full8.json: 9,842 zeros in full-circle blocks of 3 to 6,561
FULL8 = {"generator": {"kind": "accumulation", "depth": 8, "target": {
    "kind": "arc-union", "arcs": [[0.0, 6.283185307179586]]}}}


def test_a_strict_failure_reports_the_bound_of_the_record():
    # no count is certified at |z| = 0.999; the failure's bound is the best-effort
    # record's, whose block phase bounds the truncation bound alone leaves out
    prod = _product(FULL8)
    want = prod.eval_many([0.999], strict=False)
    assert want.factors_used[0] == len(prod) == 9842
    with pytest.raises(PrefixExhaustedError) as info:
        prod.eval_many([0.999], strict=True)
    assert info.value.tail_bound == want.tail_bounds[0] > prod.tail_bound(0.999, len(prod))


def _reference_zero_chase(product, angle):
    """The zero-chase chain as it was built before blocks: every level scanned."""
    seq = product.zeros
    zeta = cmath.exp(1j * angle)
    zs = _zeros_at(seq, slice(None))
    inside = np.array([abs(z) < 1.0 for z in zs.tolist()], dtype=bool)  # the evaluator's rule
    dist = np.abs(zs - zeta)
    chain, best = [], math.inf
    for d in sorted(set(seq.deficits.tolist()), reverse=True):
        idx = np.nonzero((seq.deficits == d) & inside)[0]
        if idx.size == 0:
            continue
        j = idx[int(np.argmin(dist[idx]))]
        if dist[j] < best:
            best = float(dist[j])
            chain.append(complex(zs[j]))
    if len(chain) < 2 or best > 0.05:
        return None
    return chain


@pytest.mark.parametrize("spec,count", [
    (FULL10, 24), (FULL12, 4), ({"generator": {"kind": "accumulation", "depth": 6, "target": {
        "kind": "arc-union", "arcs": [[5.0, 5.0 + TWO_PI]]}}}, 60),
    (RADIAL60, 10), (CANTOR8, 20)], ids=["full10", "full12", "full6", "radial60", "cantor8"])
def test_zero_chase_reads_the_blocks(spec, count):
    prod = _product(spec)
    seq = prod.zeros
    rng = np.random.default_rng(count)
    stored = seq.angles[rng.integers(0, len(seq), count)]
    order = np.sort(seq.angles)
    between = order[:-1] + 0.5 * np.diff(order)  # halfway between neighbouring zeros
    angles = np.concatenate([rng.uniform(0.0, TWO_PI, count), stored,
                             between[rng.integers(0, between.size, count)],
                             [0.0, math.nextafter(TWO_PI, 0.0)]])
    for block in seq.blocks[-3:]:  # halfway inside one level, from its own spacing
        angles = np.append(angles, [normalize_angle(block.angle + (j + 0.5) * TWO_PI / block.count)
                                    for j in rng.integers(0, block.count, 4)])
    for angle in angles.tolist():
        path = _zero_chase_path(prod, angle)
        want = _reference_zero_chase(prod, angle)
        assert path == want


def test_mixed_levels_chase_like_the_scan():
    # a full-circle arc next to a short arc: each level is one block plus
    # more zeros of the same deficit, so the chase scans those levels
    target = ClosedSetSpec(kind="arc-union",
                           arcs=((1.0, 1.0 + TWO_PI - 5e-10), (1.0 - 4e-10, 1.0 - 1e-10)))
    seq = gen_accumulation_sequence(target, 5)
    assert len(seq.blocks) == 5 and len(seq) > sum(b.count for b in seq.blocks)
    prod = BlaschkeProduct(seq)
    for angle in np.linspace(0.0, TWO_PI, 40, endpoint=False).tolist() + [1.0, 1.0 - 2e-10]:
        path = _zero_chase_path(prod, angle)
        want = _reference_zero_chase(prod, angle)
        assert path == want


def test_reference_product_at_zero_is_the_rational_product():
    from boundarylab.acceptance import REFERENCE_PRODUCT_AT_ZERO

    # the product over zeros 1 - 2^-k, k = 1..200, exactly; the factors left
    # out change it by less than sum_{k > 200} 2^-k = 2^-200
    exact = Fraction(1)
    for k in range(1, 201):
        exact *= 1 - Fraction(1, 2 ** k)
    assert abs(exact - Fraction(REFERENCE_PRODUCT_AT_ZERO)) <= Fraction(5, 10 ** 11)
    assert round(float(exact), 10) == REFERENCE_PRODUCT_AT_ZERO


# --- tiled factor products --------------------------------------------------

def _same_bits(a, b):
    """Same shape and bit patterns: -0.0 differs from 0.0, and nan matches only itself."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _circle(count, r=0.9, seed=0):
    return r * np.exp(1j * np.random.default_rng(seed).uniform(0.0, TWO_PI, count))


def test_products_keep_their_bits_across_tile_edges(monkeypatch):
    prod = _product(CANTOR8)
    n = len(prod)
    ranges = ((0, n), (3, n - 5), (0, 1), (7, 9), (4, 4))
    # the default tile, then tiles of 3, 2 and 1 factors per row of 28 points
    for budget in (blaschke._TILE_ELEMENTS, 3 * 28, 2 * 28 + 1, 28):
        monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", budget)
        for count in (0, 1, 2, 3, 4, 5, 6, 7, 28, 29, 513):
            z = _circle(count, seed=count)
            for lo, hi in ranges:
                assert _same_bits(prod._products(z, lo, hi), _range_products(prod, z, lo, hi))


def test_products_carry_each_point_across_tiles(monkeypatch):
    # a long range: each point's running product is the first row of its next tile
    prod = _without_blocks(FULL10)
    n = len(prod)
    z = _circle(5, r=0.97, seed=1)
    for budget in (blaschke._TILE_ELEMENTS, 5 * 600, 7):
        monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", budget)
        for lo, hi in ((0, 20_000), (n - 3_001, n), (1, 1 + 4_099)):
            if budget > 7 or hi - lo < 5_000:
                assert _same_bits(prod._products(z, lo, hi), _range_products(prod, z, lo, hi))
    # every point has its one-point product's bits
    got = prod._products(z, 0, n)
    assert _same_bits(got, np.array([prod._products(z[i:i + 1], 0, n)[0] for i in range(5)]))
    assert _same_bits(got, _range_products(prod, z, 0, n))


def _mixed_ends(spec, seed):
    """A product and points with many prefix ends: circle points, a radial
    schedule, stored zeros (where zero parts carry signs) and both zeros,
    with random ends; a quarter of the points end at the whole prefix, and
    the last one alone past every other."""
    prod = _product(spec)
    seq = prod.zeros
    rng = np.random.default_rng(seed)
    z = np.concatenate([_circle(30, r=0.99, seed=seed), default_radius_schedule()[:30] * cmath.exp(0.4j),
                        _zeros_at(seq, np.flatnonzero(seq.deficits > 2.0 ** -50)[::9]), [0.0, -0.0]])
    ends = rng.integers(0, len(prod), z.size)
    ends[::4] = len(prod)
    ends[-1], ends[:-1] = len(prod), np.minimum(ends[:-1], len(prod) - 3)
    return prod, z, ends


@pytest.mark.parametrize("budget", [2, 3, 64, 2 ** 14])
def test_chain_values_do_not_depend_on_the_tile_size(budget, monkeypatch):
    monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", budget)
    for spec in (CANTOR8, RADIAL60):
        prod, z, ends = _mixed_ends(spec, budget)
        want = np.array([_range_products(prod, [w], 0, n)[0] for w, n in zip(z.tolist(), ends)])
        assert _same_bits(prod._products(z, 0, ends), want)
        assert _same_bits(prod._products(z, 0, len(prod)), _range_products(prod, z, 0, len(prod)))
        assert _same_bits(prod._products(z, 5, 6), _range_products(prod, z, 5, 6))
    # full-circle blocks, then ranges inside a level, batched and one point at a time
    prod = _full_circle(6)
    points = _circle(24, r=0.6, seed=budget)
    for tol in (0.3, 0.05):
        got = _with_tol(prod, tol).eval_many(points, strict=False)
        want = [prod.eval_partial(int(n), w) for n, w in zip(got.factors_used, points.tolist())]
        assert _same_bits(got.values, np.array(want))
        monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", 2 ** 14)
        assert _same_bits(got.values, _with_tol(prod, tol).eval_many(points, strict=False).values)
        monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", budget)


def test_chain_values_do_not_depend_on_the_other_points():
    for spec in (CANTOR8, RADIAL60):
        prod, z, ends = _mixed_ends(spec, 7)
        every = prod._products(z, 0, ends)
        rng = np.random.default_rng(len(prod))
        # subsets in any order: alone, with a point ending earlier or later,
        # the one point running past all others, and the whole set reversed
        subsets = [[i] for i in range(0, z.size, 5)] + [[z.size - 1, 0], [3, z.size - 1, 1]]
        subsets += [rng.permutation(z.size)[:size].tolist() for size in (2, 3, 17, 40)]
        subsets.append(list(range(z.size))[::-1])
        for at in subsets:
            assert _same_bits(prod._products(z[at], 0, ends[at]), every[at])
        # one-point calls and the batched call of the public route
        counts = set()
        for tol in (None, 0.6, 0.99):
            loose = _with_tol(prod, tol)
            batched = loose.eval_many(z, strict=False)
            counts |= set(batched.factors_used.tolist())
            one = [loose.eval_many([w], strict=False).values for w in z.tolist()]
            assert _same_bits(batched.values, np.concatenate(one))
        assert len(counts) > 10


def test_chain_values_are_within_the_rounding_allowance_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mp = mpmath.mp.clone()
    mp.dps = 50
    named = [_product(spec) for spec in (RADIAL30, RADIAL60, CANTOR8)]
    drawn = st.lists(st.tuples(st.floats(0.0, TWO_PI, exclude_max=True),
                               st.floats(2.0 ** -40, 0.999) | st.sampled_from([0.5, 2.0 ** -30])),
                     min_size=1, max_size=40).map(lambda rows: BlaschkeProduct(ZeroSequence(
                         angles=[t for t, _ in rows], deficits=[d for _, d in rows])))
    radii = st.floats(0.0, 1.0 - 2.0 ** -30) | st.sampled_from([0.5, 0.99, 1.0 - 2.0 ** -20])

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(prod=st.sampled_from(named) | drawn, r=radii, t=st.floats(0.0, TWO_PI),
                      share=st.floats(0.0, 1.0), on_zero=st.booleans())
    def check(prod, r, t, share, on_zero):
        seq = prod.zeros
        n = round(share * len(prod))
        zeros = _zeros_at(seq, slice(None))
        z = complex(zeros[min(n, len(prod) - 1)]) if on_zero else r * cmath.exp(1j * t)
        hypothesis.assume(abs(z) < 1.0)
        w = mp.mpc(z.real, z.imag)
        exact = mp.mpc(1)
        for rho, theta in zip((1.0 - seq.deficits[:n]).tolist(), seq.angles[:n].tolist()):
            turn = mp.expj(-mp.mpf(theta))
            exact *= (mp.mpf(rho) - turn * w) / (1 - mp.mpf(rho) * turn * w)
        value = prod.eval_partial(n, z)
        assert float(abs(mp.mpc(value.real, value.imag) - exact)) <= _direct_slack(prod, z, n)
        one = prod.eval_many([z], strict=False)  # the one-point route, at its own count
        m = int(one.factors_used[0])
        if m == n:
            assert _same_bits(one.values, np.array([value]))

    check()


def test_one_factor_ranges_keep_the_one_point_bits():
    # a one-factor range is its factor as the tile computes it, batched or alone
    rng = np.random.default_rng(8)
    z = (1.0 - rng.uniform(0.0, 1.0, 1000) ** 4) * np.exp(1j * rng.uniform(0.0, TWO_PI, 1000))
    one = _one_factor(0.3 - 0.4j)
    want = np.array([one.eval_best_effort(p).value for p in z.tolist()])
    assert _same_bits(one.eval_many(z, strict=False).values, want)
    # a prefix ending one factor past a full-circle block ends in a one-factor range
    prod = _product(FULL10)
    n = prod.zeros.blocks[3].start + prod.zeros.blocks[3].count + 1
    want = np.array([prod.eval_partial(n, p) for p in z.tolist()])
    assert _same_bits(prod._value(z, np.full(z.size, n)), want)


def test_products_allocate_only_the_rows_they_use(monkeypatch):
    prod, z = _product(CANTOR8), _circle(1)
    sizes = []
    real_empty = np.empty

    def spy_empty(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(blaschke.np, "empty", spy_empty)
    prod._products(z, 0, len(prod))
    # two buffers of the whole range and the running products, the point twice
    assert sorted(sizes) == [2 * (len(prod) + 1)] * 2


def test_boundary_pole_names_its_zero_at_any_tile(monkeypatch):
    angles = np.linspace(0.1, 6.0, 40)
    angles[17] = 0.0
    deficits = np.full(40, 0.25)
    deficits[17] = 2.0 ** -54  # |a| rounds to 1: a pole at z = 1
    prod = BlaschkeProduct(ZeroSequence(angles=angles, deficits=deficits))
    # every point, the pole on the circle included, takes all 40 factors
    _bypass_truncation(monkeypatch, prod, lambda r: 40)
    pole = 1.0 + 0.0j
    messages = {_outcome(lambda: prod.eval_many([pole], strict=False))[1]}
    for budget in (blaschke._TILE_ELEMENTS, 40, 80, 120):
        monkeypatch.setattr(blaschke, "_TILE_ELEMENTS", budget)
        for at in (0, 1, 2, 3, 5):
            points = list(_circle(6, r=0.5, seed=at))
            points.insert(at, pole)
            assert not np.isfinite(prod._products(np.array(points), 0, 40)[at])
            with pytest.raises(PoleError, match="zero #17") as info:
                prod.eval_many(points, strict=False)
            messages.add(str(info.value))
    assert len(messages) == 1


# --- per-zero data built on first read ----------------------------------------

def _bits_equal(got, want):
    """Each pair has one dtype and the same bytes."""
    pairs = [(np.atleast_1d(g), np.atleast_1d(w)) for g, w in zip(got, want)]
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in pairs)


def test_factor_arrays_are_built_on_first_read_with_the_eager_bits():
    prod = _product(FULL10)
    absa, rot, conj_a = _eager_arrays(prod.zeros)
    # whole-prefix evaluations and probes read only the blocks
    prod.eval_many(circle_points(0.9, uniform_angles(64)), strict=False)
    limit_probe(prod, 1.0, radii=default_radius_schedule()[30:])
    assert "_factor_arrays" not in vars(prod)
    # prefixes ending inside a level, batched and one point at a time
    ends = [b.start + b.count for b in prod.zeros.blocks]
    rng = np.random.default_rng(14)
    points = rng.uniform(0.05, 0.9, 24) * np.exp(1j * rng.uniform(0.0, TWO_PI, 24))
    inside = 0
    for tol in (0.3, 0.05, 0.01, 0.002):
        loose = _with_tol(prod, tol)
        got = loose.eval_many(points, strict=False)
        for z, value, n in zip(points.tolist(), got.values.tolist(), got.factors_used.tolist()):
            k = sum(end <= n for end in ends)
            if n in ends or k == 0:
                continue
            inside += 1
            col = np.array([z])
            parts = np.hstack([prod._closed_forms(col, k),
                               _range_products(prod, col, ends[k - 1], n)[:, None]])
            want = complex(np.multiply.reduce(parts, axis=1)[0])
            assert _bits_equal([value, prod.eval_partial(n, z)], [want, want])
            assert loose.eval_many([z], strict=True).values[0] == value
    assert inside > 10
    assert _bits_equal(prod._factor_arrays, (absa, conj_a, rot))


def _with_blocks(angles, deficits, blocks):
    """A sequence on fresh copies of angles and deficits with hand-built blocks,
    for layouts the generator does not make; nothing checks the blocks."""
    return ZeroSequence._adopt(np.array(angles, dtype=np.float64),
                               np.array(deficits, dtype=np.float64), 0.0,
                               tuple(LevelBlock(*b) for b in blocks))


def test_a_pole_rescan_reads_the_factor_arrays_with_the_eager_bits():
    # a block-covered sequence and one zero whose modulus rounds to 1: z = 1 is its pole
    full = _product(FULL10).zeros
    n = len(full)
    seq = _with_blocks(np.append(full.angles, 0.0), np.append(full.deficits, 2.0 ** -54), full.blocks)
    prod = BlaschkeProduct(seq)
    assert "_factor_arrays" not in vars(prod)
    with pytest.raises(PoleError, match=f"zero #{n}$"):
        prod.eval_partial(n + 1, 1.0 + 0.0j)
    absa, rot, conj_a = _eager_arrays(seq)
    assert _bits_equal(prod._factor_arrays, (absa, conj_a, rot))


def _near_circle_levels():
    """A shallow full circle, then hand-built levels of zeros within 2^-50 of
    the circle, some of whose numpy moduli round to 1."""
    shallow = gen_accumulation_sequence(
        ClosedSetSpec(kind="arc-union", arcs=((0.4, 0.4 + TWO_PI),)), 4)
    angles, deficits, blocks = [shallow.angles], [shallow.deficits], list(shallow.blocks)
    start = len(shallow)
    for m, d in ((97, 2.0 ** -49), (211, 2.0 ** -51), (389, 2.0 ** -52), (997, 2.0 ** -53)):
        s = 0.4 + 0.01 * m
        angles.append(np.array([normalize_angle(s + j * (TWO_PI / m)) for j in range(m)]))
        deficits.append(np.full(m, d))
        blocks.append((start, m, float(angles[-1][0]), d))
        start += m
    seq = _with_blocks(np.concatenate(angles), np.concatenate(deficits), blocks)
    return len(shallow), seq


def test_zero_chase_rechecks_a_block_next_to_the_circle():
    shallow, seq = _near_circle_levels()
    # zeros in the band next to the circle; some numpy moduli round onto it
    modulus = np.abs(_zeros_at(seq, slice(shallow, None)))
    band = (modulus < 1.0) & (modulus > 1.0 - 2.0 ** -50)
    assert band.any() and (modulus >= 1.0).any()
    prod = BlaschkeProduct(seq)
    rng = np.random.default_rng(50)
    for angle in rng.uniform(0.0, TWO_PI, 60).tolist() + seq.angles[-40:].tolist():
        path = _zero_chase_path(prod, angle)
        want = _reference_zero_chase(prod, angle)
        assert path == want


def test_zero_chase_keeps_zeros_whose_numpy_modulus_rounds_to_one():
    # numpy's complex abs rounds some of these zeros to 1 where Python's abs
    # (the evaluator's modulus) keeps them inside; the chase ends at such a zero
    _, seq = _near_circle_levels()
    zs = _zeros_at(seq, slice(None))
    kept = [j for j in range(len(seq) - 997, len(seq))
            if np.abs(zs[j]) >= 1.0 and abs(complex(zs[j])) < 1.0]
    assert kept
    prod = BlaschkeProduct(seq)
    for j in kept[:5]:
        path = _zero_chase_path(prod, float(seq.angles[j]))
        assert path is not None and path[-1] == complex(zs[j])
        assert prod.eval_best_effort(complex(zs[j])).factors_used == len(seq)


def _traced_peak(call):
    """Bytes allocated by call at its peak, and bytes it left allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


def test_full12_product_evaluation_and_probe_stay_small():
    seq = ZeroSequence.from_json(FULL12)
    # construction keeps block scalars only; no per-zero array
    prod, peak, _ = _traced_peak(lambda: BlaschkeProduct(seq))
    assert peak <= 64 << 10
    theta = 2.2

    def evaluate():
        return [prod.eval_best_effort(r * cmath.exp(1j * theta)) for r in DEEP_RADII]
    values, peak, _ = _traced_peak(evaluate)
    assert peak <= 4 << 20 and all(v.factors_used == len(prod) for v in values)
    # the first probe decides the chase levels from the blocks, with no per-zero scratch
    _, peak, _ = _traced_peak(lambda: limit_probe(prod, theta, radii=default_radius_schedule()[30:]))
    assert peak <= 1 << 19
    # extension mass 2^-12 > tol: no count certifies, and the deficit prefix sums are never built
    assert "_factor_arrays" not in vars(prod) and "_mass" not in vars(prod)


# --- one pass per call: per-point prefix ends ----------------------------------

def _one_point_calls(prod, points, strict):
    """eval_many's outcome assembled from one-point calls in input order: the
    stacked values, counts and bounds, or the first failing point's error."""
    rows = []
    for z in points:
        got = _outcome(lambda z=z: prod.eval_many([z], strict=strict))
        if isinstance(got[0], type):
            return got
        rows.append(got)
    return tuple(np.concatenate(parts) for parts in zip(*rows))


def _same_as_one_point_calls(prod, points, strict, tol=None):
    prod, points = _with_tol(prod, tol), np.asarray(points, dtype=np.complex128)
    got = _outcome(lambda: prod.eval_many(points, strict=strict))
    want = _one_point_calls(prod, points.tolist(), strict)
    if isinstance(want[0], type):
        assert got == want
    else:  # sign of zero included
        assert _same_bits(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert _same_bits(got[2], want[2])
    return got


@pytest.mark.parametrize("spec", [RADIAL60, CANTOR8], ids=["radial60", "cantor8"])
def test_mixed_prefix_ends_keep_the_one_point_bits(spec):
    prod = _product(spec)
    seq = prod.zeros
    rng = np.random.default_rng(len(seq))
    r = np.concatenate([1.0 - rng.uniform(0.0, 1.0, 100) ** 3, rng.uniform(0.0, 0.05, 20)])
    points = np.concatenate([r * np.exp(1j * rng.uniform(0.0, TWO_PI, r.size)),
                             _zeros_at(seq, seq.deficits > 2.0 ** -50)[::3], [0.0, -0.0]])
    spread = set()
    for tol in (None, 1e-4, 0.05, 0.6, 0.99):
        got = _same_as_one_point_calls(prod, points, strict=False, tol=tol)
        spread |= set(got[1].tolist())
        _same_as_one_point_calls(prod, points[::-1], strict=False, tol=tol)
    # one- or two-factor and longer prefixes, many ends per call (the whole
    # mass is at least 1, so no tolerance below 1 certifies the empty prefix)
    assert min(spread) in (1, 2) and len(spread) > 20


def test_prefix_ends_inside_one_level_keep_the_one_point_bits():
    prod = _product(FULL10)
    ends = np.array([b.start + b.count for b in prod.zeros.blocks])
    rng = np.random.default_rng(100)
    points = rng.uniform(0.05, 0.95, 80) * np.exp(1j * rng.uniform(0.0, TWO_PI, 80))
    for tol in (0.05, 0.01, 0.002):
        counts = _same_as_one_point_calls(prod, points, strict=False, tol=tol)[1]
        inside = counts[~np.isin(counts, ends)]
        level = np.searchsorted(ends, inside, side="right")
        # two or more different ends inside the same level in one call
        assert max(len(set(inside[level == k].tolist())) for k in set(level.tolist())) > 1


def test_an_empty_range_after_the_blocks_is_left_out_of_the_row():
    prod = _product(FULL10)
    seq = prod.zeros
    end = seq.blocks[4].start + seq.blocks[4].count
    # points on stored zeros of the whole blocks, where the product can be
    # 0 - 0i (a factor 1 + 0i would make it 0 + 0i), and elsewhere; prefixes
    # end at the last whole block or past it
    rng = np.random.default_rng(4)
    z = np.concatenate([_zeros_at(seq, [18, 56, 121, 127]),
                        0.9 * np.exp(1j * rng.uniform(0.0, TWO_PI, 8))])
    counts = np.array([end, end + 1, end, end + 7, end, end + 300, end + 2, end, end, end + 1,
                       end + 40, end])
    want = np.array([prod.eval_partial(int(n), p) for n, p in zip(counts, z.tolist())])
    assert np.signbit(want[[0, 2]].imag).all()
    assert _same_bits(prod._value(z, counts), want)
    assert _same_bits(prod._value(z, np.full(z.size, end)), np.array(
        [prod.eval_partial(end, p) for p in z.tolist()]))


def test_strict_failure_is_the_first_failing_point_in_input_order():
    prod = _product(RADIAL60)
    for points in ([0.5, 0.3j, 0.5, -0.2, 0.9999999999, 0.1, 0.99999999, 1.5],
                   [0.1, 0.2, 0.2, 2.0, 0.9999999999], [0.3, 0.4, 0.9999999999j, 0.4]):
        got = _same_as_one_point_calls(prod, points, strict=True)
        assert isinstance(got[0], type)
        assert prod.eval_many(points[:2], strict=True).values.size == 2
    # with blocks, the phase bound fails a point that is not the first distinct modulus
    prod = _full_circle(5)
    z = 0.3 * cmath.exp(0.9j)
    n = prod.factors_needed(0.3, 0.5)
    tight = prod.tail_bound(0.3, n)
    points = [0.01, 0.02j, 0.01, z, 0.05, 0.9999999]
    assert _with_tol(prod, tight).eval_many(points[:3], strict=True).values.size == 3
    got = _same_as_one_point_calls(prod, points, strict=True, tol=tight)
    assert got[0] is PrefixExhaustedError and "|z| = 0.3 " in got[1]


def test_one_product_pass_and_one_prefix_choice_per_call(monkeypatch):
    calls, radii_kinds = {}, []
    for name in ("_products", "_prefix_rule", "factors_needed", "_closed_forms"):
        real = getattr(BlaschkeProduct, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            if _name == "_prefix_rule":
                radii_kinds.append(np.ndim(args[0]))
            return _real(self, *args)
        monkeypatch.setattr(BlaschkeProduct, name, counted)
    prod = _product(RADIAL60)
    radii = default_radius_schedule()[:30]
    counts = prod.eval_many(radii * cmath.exp(1j), strict=False).factors_used
    assert len(set(counts.tolist())) > 20
    calls.clear()
    radial_trace(prod, 1.0, radii=radii)
    assert calls == {"_prefix_rule": 1, "_products": 1}
    # a probe on a block-covered sequence takes whole prefixes: closed forms only
    calls.clear()
    full10 = _product(FULL10)
    limit_probe(full10, 2.0, radii=default_radius_schedule()[30:])
    assert calls == {"_prefix_rule": 1, "_closed_forms": 1}
    # a one-point call chooses its prefix at a float radius and evaluates its
    # whole blocks in one closed-form call, plus one product where the prefix
    # ends inside a level
    inside = set()
    for z in (0.9 * cmath.exp(1j), 0.3 * cmath.exp(2j), 0.999 * cmath.exp(4j)):
        for tol in (None, 0.01):
            calls.clear()
            radii_kinds.clear()
            n = _with_tol(full10, tol).eval_many([z], strict=False).factors_used[0]
            inside.add(n not in full10._block_ends)
            assert calls == {"_prefix_rule": 1, "_closed_forms": 1, **(
                {"_products": 1} if n not in full10._block_ends else {})}
            assert radii_kinds == [0]
    assert inside == {False, True}


def test_mixed_prefix_ends_past_one_chunk_and_between_blocks():
    # counts on both sides of 65,536 factors, ending at different counts
    prod = _without_blocks(FULL10)
    rng = np.random.default_rng(88)
    points = rng.uniform(0.3, 0.99, 12) * np.exp(1j * rng.uniform(0.0, TWO_PI, 12))
    counts = _same_as_one_point_calls(prod, points, strict=False, tol=0.01)[1]
    assert counts.min() < _CHUNK < counts.max()
    # each level one block plus zeros of the same deficit: ranges between blocks
    target = ClosedSetSpec(kind="arc-union",
                           arcs=((1.0, 1.0 + TWO_PI - 5e-10), (1.0 - 4e-10, 1.0 - 1e-10)))
    prod = BlaschkeProduct(gen_accumulation_sequence(target, 5))
    points = rng.uniform(0.05, 0.95, 40) * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
    for tol in (0.3, 0.05, None):
        counts = _same_as_one_point_calls(prod, points, strict=False, tol=tol)[1]
        _same_as_one_point_calls(prod, points, strict=True, tol=tol)
    assert len(prod.zeros.blocks) == 5 and counts.min() > prod.zeros.blocks[1].start


# --- one-point calls: the one-point route --------------------------------------
#
# eval_many on one point with |z| < 1 - 2^-48 that does not fail takes a
# one-point route, with _prefix_rule at a float radius and the kernels on
# one-element rows; every outcome must be the batched one.

_GAMMA = 5.590393700586497  # the Lohwater-Piranian targets of the lp6 series, rotated
LP6_TERMS = [{"generator": {"kind": "accumulation", "depth": 6, "target": target}} for target in (
    {"kind": "finite-points", "points": [_GAMMA]},
    {"kind": "arc-union", "arcs": [[_GAMMA + math.pi / 3.0, _GAMMA + 2.0 * math.pi / 3.0]]},
    {"kind": "cantor", "cantor_level": 3, "base_arc": [_GAMMA + math.pi, _GAMMA + 1.5 * math.pi]},
)]


def _count_one_point_routes(monkeypatch):
    """A list that gains one entry per one-point eval_many call answered
    without a call of _prefix_rule on an array, the array route's prefix choice."""
    taken, arrays = [], []
    many, rule = BlaschkeProduct.eval_many, BlaschkeProduct._prefix_rule

    def counted_rule(self, r, tol):
        if np.ndim(r):
            arrays.append(r)
        return rule(self, r, tol)

    def counted_many(self, points, **kwargs):
        arrays.clear()
        out = many(self, points, **kwargs)
        if np.size(points) == 1 and not arrays:
            taken.append(out)
        return out
    monkeypatch.setattr(BlaschkeProduct, "_prefix_rule", counted_rule)
    monkeypatch.setattr(BlaschkeProduct, "eval_many", counted_many)
    return taken


def _as_one_and_batched(prod, z, strict, tol=None):
    """The outcome at z alone, checked against the rows of the batched call at
    [z, z] (values, signed zeros included, counts and bounds, or the failure's
    type, message and tail bound) and, on a sequence without blocks, against
    the oracle, which multiplies factor by factor and knows no phase bound."""
    got = _same_as_one_point_calls(prod, [z, z], strict, tol)
    if prod.zeros.blocks:
        return got
    _check_many(prod, [z], strict, tol)
    return got


_EDGE_POINTS = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.3),
                complex(0.3, -0.0), 1.0, -1.0, 1.5j, 1.0 - 2.0 ** -49, complex(math.nan, 0.0),
                complex(0.3, math.nan), complex(math.inf, 0.0), 0.9999999, 0.9999999j]


def _deep_points(rng, count):
    """count points with |z| drawn out to 1 - 2^-40, then 1 - 2^-48 (where the
    one-point route ends) and its float neighbours, on the real axis and rotated."""
    r = 1.0 - 2.0 ** -rng.uniform(1.0, 40.0, count)
    edge = blaschke._POLE_FREE_RADIUS
    edge = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
    return [*(r * np.exp(1j * rng.uniform(0.0, TWO_PI, count))).tolist(),
            *edge.tolist(), *(edge * cmath.exp(2.5j)).tolist()]


@pytest.mark.parametrize("spec", [RADIAL30, RADIAL60, CANTOR8, *LP6_TERMS, FULL10,
                                  partial(_full_circle, 5)],
                         ids=["radial30", "radial60", "cantor8", "lp6-1", "lp6-2", "lp6-3",
                              "full10", "full5"])
def test_one_point_calls_are_the_batched_rows(spec, monkeypatch):
    prod = spec() if callable(spec) else _product(spec)
    seq = prod.zeros
    rng = np.random.default_rng(len(seq) + 17)
    r = np.concatenate([1.0 - rng.uniform(0.0, 1.0, 24) ** 3, rng.uniform(0.0, 0.05, 4)])
    if seq.blocks:  # four stored zeros of each block
        stored = [b.start + j * b.count // 4 for b in seq.blocks for j in range(4)]
    else:
        stored = np.flatnonzero(seq.deficits > 2.0 ** -50)[::5]
    points = np.concatenate([r * np.exp(1j * rng.uniform(0.0, TWO_PI, r.size)),
                             _zeros_at(seq, stored)]).tolist()
    points += _EDGE_POINTS + _deep_points(rng, 8)
    taken = _count_one_point_routes(monkeypatch)
    counts, failures = set(), set()
    one_factor = 1.1 * prod.tail_bound(0.0, 1)  # certifies one factor near 0
    tols = [tol for tol in (None, 1e-3, 1e-12, 0.6, 0.99, one_factor) if tol is None or tol < 1.0]
    for strict in (True, False):
        for tol in tols:
            for z in points:
                got = _as_one_and_batched(prod, z, strict, tol)
                if isinstance(got[0], type):
                    failures.add(got[0])
                else:
                    counts.add(int(got[1][0]))
    # one-factor and longer prefixes, and the empty one where the whole mass is
    # below 0.99; truncation and domain failures
    assert {1, len(prod)} <= counts and len(counts) > 5
    assert (0 in counts) == (prod.tail_bound(0.0, 0) < 0.99)
    assert failures == {PrefixExhaustedError, ValidationError}
    assert len(taken) > 200


def test_one_point_calls_at_stored_zeros_and_poles(monkeypatch):
    # at a stored zero the product vanishes up to rounding
    prod = _product(RADIAL60)
    taken = _count_one_point_routes(monkeypatch)
    for z in _zeros_at(prod.zeros, slice(0, 40, 3)).tolist():
        _as_one_and_batched(prod, z, strict=True)
        assert abs(_as_one_and_batched(prod, z, strict=False)[0][0]) < 1e-6
    assert taken
    # a zero at the circle puts its factor's pole there; the pole error names it
    prod = BlaschkeProduct(ZeroSequence(angles=[0.0, 0.0], deficits=[0.5, 2.0 ** -54]))
    _bypass_truncation(monkeypatch, prod, lambda r: 2)
    for z in (1.0, complex(1.0, -0.0)):
        got = _as_one_and_batched(prod, z, strict=False)
        assert got[0] is PoleError and "zero #1" in got[1]


def test_strict_mode_fails_a_certified_count_whose_bound_exceeds_tol():
    # the tail mass _mass[-1] - _mass[N] cancels: 53 factors are certified at
    # tol 1e-9, yet their bound is 1.877e-9
    prod = _product(RADIAL60)
    r = 1.0 - 2.0 ** -23
    z = r * cmath.exp(0.4j)
    assert prod.factors_needed(r, 1e-9) == 53 and prod.tail_bound(r, 53) > 1e-9
    tight = _with_tol(prod, 1e-9)
    for call in (lambda: tight.eval_many([z], strict=True),
                 lambda: tight.eval_many([0.5, z], strict=True)):
        with pytest.raises(PrefixExhaustedError, match=r"achieved tail bound 1\.8772e-09") as info:
            call()
        assert info.value.tail_bound == prod.tail_bound(r, 53)
    _as_one_and_batched(prod, z, strict=True, tol=1e-9)
    # best effort keeps the certified count and reports its bound
    got = _as_one_and_batched(prod, z, strict=False, tol=1e-9)
    assert got[1][0] == 53 and got[2][0] == prod.tail_bound(r, 53)


def test_one_point_calls_on_block_products_take_the_one_point_route(monkeypatch):
    taken = _count_one_point_routes(monkeypatch)
    prod = _product(FULL10)
    rng = np.random.default_rng(10)
    points = rng.uniform(0.05, 0.999, 20) * np.exp(1j * rng.uniform(0.0, TWO_PI, 20))
    failed = 0
    for z in points.tolist():
        for strict, tol in ((False, None), (False, 0.01), (True, 0.5), (True, 0.01)):
            before = len(taken)
            got = _same_as_one_point_calls(prod, [z, z], strict, tol)
            # both one-point calls take the one-point route unless they fail
            ok = not isinstance(got[0], type)
            assert len(taken) - before == 2 * ok
            failed += not ok
            if ok:
                assert got[1][0] >= prod.zeros.blocks[0].count
    assert 0 < failed < 20
    # radial zeros, full-circle blocks, radial zeros: prefixes before the
    # first block, inside a level, at a block's end and past the last block
    radial, circle = ZeroSequence.from_json(RADIAL30), _full_circle(3).zeros
    prod = BlaschkeProduct(_with_blocks(
        np.concatenate([radial.angles[:20], circle.angles, radial.angles[20:]]),
        np.concatenate([radial.deficits[:20], circle.deficits, radial.deficits[20:]]),
        [b._replace(start=b.start + 20) for b in circle.blocks]))
    first, ends = prod.zeros.blocks[0].start, prod._block_ends.tolist()
    kinds = set()
    # points near 0 certify prefixes before the first block at tolerance 0.99
    near = 0.04 * np.exp(1j * rng.uniform(0.0, TWO_PI, 4))
    for z in points.tolist() + near.tolist():
        for tol in (0.99, 0.3, 1e-3, 1e-6, None):
            before = len(taken)
            n = int(_same_as_one_point_calls(prod, [z, z], strict=False, tol=tol)[1][0])
            assert len(taken) - before == 2
            kinds.add("before" if n <= first else "end" if n in ends else
                      "past" if n > ends[-1] else "inside")
    assert kinds == {"before", "inside", "end", "past"}


def test_one_point_route_on_drawn_points():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    prods = [_product(spec) for spec in (RADIAL30, RADIAL60, CANTOR8, LP6_TERMS[1], FULL10)]
    prods.append(_full_circle(5))
    parts = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-300, -5e-324])
    edge = blaschke._POLE_FREE_RADIUS
    radii = st.floats(0.0, 1.0 - 2.0 ** -40) | st.sampled_from(
        [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
    stored = [complex(z) for prod in prods[-2:]
              for z in _zeros_at(prod.zeros, [b.start + b.count // 3 for b in prod.zeros.blocks])]
    points = (st.builds(complex, parts, parts)
              | st.builds(lambda r, t: r * cmath.exp(1j * t), radii, st.floats(0.0, TWO_PI))
              | st.sampled_from(_EDGE_POINTS + stored))
    tols = st.sampled_from([None, 1e-12, 1e-6, 1e-3, 0.3, 0.99])

    @hypothesis.settings(max_examples=250, deadline=None, database=None)
    @hypothesis.given(k=st.integers(0, len(prods) - 1), z=points, strict=st.booleans(), tol=tols)
    def check(k, z, strict, tol):
        _as_one_and_batched(prods[k], z, strict, tol)

    check()


# --- the prefix rule's arguments and bits --------------------------------------

def test_tail_bound_and_factors_needed_refuse_bad_arguments():
    prod = _product(RADIAL30)
    for n in (31, 2.0, 3.5, True, False, None, "3"):
        with pytest.raises(ValidationError, match="factor count must be an integer of at most 30"):
            prod.tail_bound(0.5, n)
    for tol in (math.nan, math.inf, 0.0, -1e-9, True, None):
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            prod.factors_needed(0.5, tol)
    # n <= 0 still means no factor used; a numpy count is an integer
    assert prod.tail_bound(0.5, -3) == prod.tail_bound(0.5, 0) > prod.tail_bound(0.5, 1)
    assert prod.tail_bound(0.5, np.int64(30)) == prod.tail_bound(0.5, 30)
    # a radius is one real number in [0, 1): arrays, bools, strings and nan are refused
    for r in (np.array([0.5, 0.6]), np.array(0.5), [0.5], True, "0.5", None, math.nan, -0.1, 1.0,
              0.5 + 0j):
        with pytest.raises(ValidationError, match="tail bound requires radius < 1"):
            prod.tail_bound(r, 3)
        with pytest.raises(ValidationError, match="truncation requires .z. < 1"):
            prod.factors_needed(r, 1e-6)
    for r in (0, 0.3, np.float64(0.3), np.float32(0.3), np.int64(0)):
        assert prod.tail_bound(r, 3) == prod.tail_bound(float(r), 3)
        assert prod.factors_needed(r, 1e-6) == prod.factors_needed(float(r), 1e-6)


def _cumsum_rule(seq, r, tol):
    """The prefix rule from a deficit cumsum built here, the formula every
    product read before the mass array was built on first use: (no count
    certified, the count used, the truncation bound of each count in 0..len)."""
    mass = np.zeros(len(seq) + 1)
    np.cumsum(seq.deficits, out=mass[1:])
    ext = seq.extension_mass
    growth = (1.0 + r) / (1.0 - r)
    budget = tol / growth
    over = ext > budget
    n = len(seq) if over else int(mass.searchsorted(mass[-1] + ext - budget))
    return over, n, growth * (mass[-1] - mass + ext)


_RULE_SETS = {"radial30": RADIAL30, "radial60": RADIAL60, "cantor8": CANTOR8,
              "full8": FULL8, "full10": FULL10}


@pytest.mark.parametrize("tol", [1e-9, 0.5])
@pytest.mark.parametrize("name", [*_RULE_SETS, "explicit"])
def test_prefix_rule_keeps_the_bits_of_the_cumsum_formula(name, tol):
    # at tol 1e-9 the extension mass of cantor8, full8 and full10 exceeds tol:
    # no count is certified and the mass array is never built; at 0.5 some
    # counts certify on every set
    if name == "explicit":
        seq = ZeroSequence.from_zeros([0.5, -0.3j, 0.9 * cmath.exp(2j), 0.99, 0.999j, -0.7 + 0.1j])
    else:
        seq = ZeroSequence.from_json(_RULE_SETS[name])
    hexes = np.vectorize(float.hex)
    lazy = seq.extension_mass > tol
    certified = set()  # whether a count certifies, per radius
    for r in (0.0, 0.5, 0.99, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40):
        over, n, tails = _cumsum_rule(seq, r, tol)
        certified.add(not over)
        # a fresh product per radius: only the calls below build its mass array
        prod = BlaschkeProduct(seq, tol)
        assert prod.factors_needed(r, tol) == (-1 if over else n)
        assert ("_mass" in vars(prod)) != lazy
        # the rule reads |z| as np.hypot gives it, which can differ from r by an ulp
        points = r * np.exp(1j * np.linspace(0.3, 5.9, 4))
        rules = [_cumsum_rule(seq, abs(z), tol) for z in points.tolist()]
        counts = np.array([rule[1] for rule in rules])
        want = np.array([rule[2][rule[1]] for rule in rules])
        if seq.blocks:
            want += [_phase(prod, z, k) for z, k in zip(points, counts)]
        batched = prod.eval_many(points, strict=False)
        for k, got in enumerate([batched] + [prod.eval_many([z], strict=False) for z in points]):
            at = slice(None) if k == 0 else slice(k - 1, k)
            assert np.array_equal(got.factors_used, counts[at])
            assert list(hexes(got.tail_bounds)) == list(hexes(want[at]))
        values = np.array([prod.eval_partial(int(k), complex(z)) for z, k in zip(points, counts)])
        assert _same_bits(batched.values, values)
        assert ("_mass" in vars(prod)) != lazy
        # tail_bound at every count, first on a product whose mass was never built
        fresh = BlaschkeProduct(seq, tol)
        assert fresh.tail_bound(r, len(seq) // 2).hex() == tails[len(seq) // 2].hex()
        assert "_mass" in vars(fresh)
        got = [float(fresh.tail_bound(r, k)).hex() for k in range(len(seq) + 1)]
        assert got == list(hexes(tails))
    assert (True in certified) != lazy  # a count certifies where ext <= tol


def _mask_chase_levels(seq):
    """The chase levels as a per-zero mask decides them: a block is a level
    when its deficit is >= 2^-48 and no zero outside it shares that deficit;
    returned as (deficit, block or the level's indices) pairs."""
    levels, rest = {}, np.ones(len(seq), dtype=bool)
    for b in seq.blocks:
        if b.deficit >= 2.0 ** -48 and np.count_nonzero(seq.deficits == b.deficit) == b.count:
            levels[b.deficit] = b
            rest[b.start:b.start + b.count] = False
    idx = np.flatnonzero(rest)
    zs = _zeros_at(seq, idx)
    idx = idx[np.hypot(zs.real, zs.imag) < 1.0]
    for d in np.unique(seq.deficits[idx]):
        levels[float(d)] = idx[seq.deficits[idx] == d]
    return sorted(levels.items(), key=lambda item: -item[0])


def test_chase_levels_are_read_from_the_blocks():
    radial, circle = ZeroSequence.from_json(RADIAL30), _full_circle(3).zeros
    b0, b1, b2 = circle.blocks

    def joined(parts, blocks):
        angles, deficits = map(np.concatenate, zip(*parts))
        return _with_blocks(angles, deficits, blocks)
    shift = [b._replace(start=b.start + 20) for b in circle.blocks]
    seqs = [ZeroSequence.from_json(spec) for spec in (FULL10, CANTOR8, RADIAL60)] + [
        # radial zeros before, between and after the blocks
        joined([(radial.angles[:20], radial.deficits[:20]), (circle.angles, circle.deficits),
                (radial.angles[20:], radial.deficits[20:])], shift),
        # a loose zero shares the deficit of the first block, so that block is no level
        joined([(circle.angles, circle.deficits), ([1.0], [b0.deficit])], circle.blocks),
        # two blocks share a deficit: neither is a level
        joined([(circle.angles[:b0.count], circle.deficits[:b0.count])] * 2,
               [b0, b0._replace(start=b0.count)]),
    ]
    for seq in seqs:
        got = BlaschkeProduct(seq)._chase_levels
        want = _mask_chase_levels(seq)
        assert len(got) == len(want)
        for level, (d, ref) in zip(got, want):
            if isinstance(ref, LevelBlock):
                assert level == ref
            else:
                assert _same_bits(level, _zeros_at(seq, ref))
