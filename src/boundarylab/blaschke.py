"""Blaschke products: factor evaluation, certified truncation, boundary probes.

The product over zeros (a_k) uses the factor

    b_a(z) = -(conj(a)/|a|) (z - a) / (1 - conj(a) z),      b_0(z) = z,

normalized so b_a(0) = |a| > 0.  Truncation after N factors is certified by

    |B(z) - B_N(z)| <= (1+r)/(1-r) * sum_{k>N} (1 - |a_k|)      (|z| <= r < 1)

which follows from |1 - b_a(z)| = (1-|a|) |a + conj(a) z| / (|a| |1 - conj(a) z|)
<= (1-|a|)(1+r)/(1-r) and telescoping the partial products (each factor has
modulus at most 1 on |z| <= 1... the disc algebra bound).  The same bound with
the sequence's extension mass covers the unmaterialized tail of generated
sequences, so a truncated evaluation either meets the requested tolerance or
fails loudly with the best bound it could achieve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from . import config
from .errors import BoundaryLabError, PoleError, PrefixExhaustedError, ValidationError
from .textio import write_values
from .unitdisc import ZeroSequence, circle_points, normalize_angle, uniform_angles


# Factor block size for long products: one chunk evaluates strictly in
# sequence, and chunk boundaries are fixed, so values never depend on timing
# or thread count.
_EVAL_CHUNK = 65536


class TruncatedEval(NamedTuple):
    value: complex
    factors_used: int
    tail_bound: float


class BatchEval(NamedTuple):
    """Per-point results of BlaschkeProduct.eval_many, one array entry per point."""

    values: np.ndarray
    factors_used: np.ndarray
    tail_bounds: np.ndarray


@dataclass
class BlaschkeProduct:
    """A Blaschke product over a stored zero prefix.

    Evaluation inside the disc picks the shortest prefix whose certified tail
    bound (including the sequence's extension mass) is below the tolerance.
    """

    zeros: ZeroSequence
    truncation_tolerance: float = config.DEFAULTS["truncation_tolerance"]

    def __post_init__(self) -> None:
        if not isinstance(self.zeros, ZeroSequence):
            raise ValidationError("zeros must be a ZeroSequence")
        if not (0.0 < self.truncation_tolerance < 1.0):
            raise ValidationError(
                f"truncation_tolerance must lie in (0, 1), got {self.truncation_tolerance!r}"
            )
        seq = self.zeros
        absa = 1.0 - seq.deficits
        a = absa * np.exp(1j * seq.angles)
        conj_a = np.conj(a)
        # rot = conj(a)/|a|; the -1 placeholder at |a| = 0 makes the generic
        # formula (|a| - rot z)/(1 - conj(a) z) evaluate to z there.
        with np.errstate(invalid="ignore", divide="ignore"):
            rot = np.where(absa > 0.0, conj_a / np.where(absa > 0.0, absa, 1.0), -1.0)
        self._absa = absa
        self._conj_a = conj_a
        self._rot = rot
        self._cumulative_mass = np.cumsum(seq.deficits)

    def __len__(self) -> int:
        return len(self.zeros)

    def _factors(self, z: complex, n: int) -> np.ndarray:
        num = self._absa[:n] - self._rot[:n] * z
        den = 1.0 - self._conj_a[:n] * z
        if np.any(den == 0.0):
            k = int(np.argmin(np.abs(den)))
            raise PoleError(
                f"evaluation point {z!r} is the pole of the factor at zero #{k}"
            )
        return num / den

    def _products(self, z: np.ndarray, n: int) -> np.ndarray:
        """Product of the first n factors at each point of z, with a one-point
        product's bits: (points x n) blocks of at most _EVAL_CHUNK elements,
        each row reduced left to right; past one chunk, point by point in
        fixed chunks.  A pole leaves a non-finite value.
        """
        out = np.empty(z.size, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            if n <= _EVAL_CHUNK:
                rows = _EVAL_CHUNK // max(n, 1)
                for lo in range(0, z.size, rows):
                    col = z[lo:lo + rows, None]
                    block = (self._absa[:n] - self._rot[:n] * col) / (1.0 - self._conj_a[:n] * col)
                    out[lo:lo + rows] = np.multiply.reduce(block, axis=1)
                return out
            num = np.empty(_EVAL_CHUNK, dtype=np.complex128)
            den = np.empty(_EVAL_CHUNK, dtype=np.complex128)
            for i, zi in enumerate(z.tolist()):
                acc = 1.0 + 0.0j
                for lo in range(0, n, _EVAL_CHUNK):
                    m = min(lo + _EVAL_CHUNK, n) - lo
                    np.multiply(self._rot[lo:lo + m], zi, out=num[:m])
                    np.subtract(self._absa[lo:lo + m], num[:m], out=num[:m])
                    np.multiply(self._conj_a[lo:lo + m], zi, out=den[:m])
                    np.subtract(1.0, den[:m], out=den[:m])
                    np.divide(num[:m], den[:m], out=num[:m])
                    acc *= complex(np.multiply.reduce(num[:m]))
                out[i] = acc
        return out

    def eval_partial(self, n: int, z: complex) -> complex:
        """Product of the first n stored factors, in stored order.

        Factors are consumed left to right in fixed-size chunks, so results
        are deterministic run to run; prefixes up to one chunk reduce in
        strictly sequential order.  Every factor has modulus at most 1 on the
        closed disc, so the accumulator cannot overflow; a non-finite result
        can only mean a boundary pole, which is rescanned for a diagnostic.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError(f"factor count must be a nonnegative integer, got {n!r}")
        if n > len(self):
            raise ValidationError(
                f"insufficient prefix: {n} factors requested, {len(self)} stored"
            )
        z = complex(z)
        acc = complex(self._products(np.array([z]), n)[0])
        if not cmath.isfinite(acc):
            self._factors(z, n)  # locates the pole and raises with its index
        return acc

    def factors_needed(self, r: float, tol: float) -> int:
        """Smallest N whose tail bound at radius r is <= tol, or -1 if none."""
        if not (0.0 <= r < 1.0):
            raise ValidationError(f"truncation requires |z| < 1, got radius {r!r}")
        if tol <= 0.0:
            raise ValidationError(f"tolerance must be positive, got {tol!r}")
        growth = (1.0 + r) / (1.0 - r)
        budget = tol / growth
        seq = self.zeros
        total = self._cumulative_mass[-1] if len(self) else 0.0
        if seq.extension_mass > budget:
            return -1
        if total + seq.extension_mass <= budget:
            return 0
        # smallest N with total + ext - cumulative[N-1] <= budget
        target = total + seq.extension_mass - budget
        return int(np.searchsorted(self._cumulative_mass, target, side="left")) + 1

    def tail_bound(self, r: float, n: int) -> float:
        """Certified bound on |B - B_n| for |z| <= r."""
        if not (0.0 <= r < 1.0):
            raise ValidationError(f"tail bound requires radius < 1, got {r!r}")
        seq = self.zeros
        total = self._cumulative_mass[-1] if len(self) else 0.0
        used = self._cumulative_mass[n - 1] if n > 0 else 0.0
        return (1.0 + r) / (1.0 - r) * (total - used + seq.extension_mass)

    def _prefix(self, r: float, tol: float, strict: bool) -> tuple[int, float]:
        """Factor count and tail bound for |z| = r: certified, else the whole prefix."""
        n = self.factors_needed(r, tol)
        if n < 0:
            if strict:
                achieved = self.tail_bound(r, len(self))
                raise PrefixExhaustedError(
                    f"stored prefix of {len(self)} zeros cannot reach tolerance "
                    f"{tol:g} at |z| = {r:.6g} (achieved tail bound {achieved:.6g})",
                    tail_bound=achieved,
                )
            n = len(self)
        return n, self.tail_bound(r, n)

    def eval_many(self, points, *, strict: bool, tol: float | None = None) -> BatchEval:
        """Value, factor count and tail bound at each point, bit for bit what
        eval_truncated (strict) or eval_best_effort gives for that point.

        |z| is taken with Python's abs, the count chosen once per distinct
        modulus, and the points sharing a count are evaluated together.  A
        failure is raised as the first failing point in input order raises it.
        """
        tol = self.truncation_tolerance if tol is None else tol
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        moduli = [abs(p) for p in z.tolist()]
        slot: dict[float, int] = {}  # distinct modulus -> its entry in prefixes
        prefixes: list[tuple[int, float]] = []
        failure = None
        for r in dict.fromkeys(moduli):  # in order of first occurrence
            try:
                prefixes.append(self._prefix(r, tol, strict))
            except BoundaryLabError as exc:
                failure = exc  # points from its first occurrence on stay unevaluated
                break
            slot[r] = len(prefixes) - 1
        stop = z.size if failure is None else moduli.index(r)
        where = np.fromiter(map(slot.__getitem__, moduli[:stop]), dtype=np.intp, count=stop)
        counts = np.array([n for n, _ in prefixes], dtype=np.int64)[where]
        bounds = np.array([b for _, b in prefixes], dtype=np.float64)[where]
        values = np.empty(stop, dtype=np.complex128)
        for n in set(counts.tolist()):
            at = np.flatnonzero(counts == n)
            values[at] = self._products(z[at], n)
        poles = np.flatnonzero(~np.isfinite(values))
        if poles.size:  # locate the first pole and raise with its index
            self._factors(complex(z[poles[0]]), int(counts[poles[0]]))
        if failure is not None:
            raise failure
        return BatchEval(values, counts, bounds)

    def eval_truncated(self, z: complex, tol: float | None = None) -> TruncatedEval:
        """Evaluate with a certified tail bound below tol, or fail loudly."""
        one = self.eval_many([complex(z)], strict=True, tol=tol)
        return TruncatedEval(*(field.item() for field in one))

    def eval(self, z: complex, tol: float | None = None) -> complex:
        return self.eval_truncated(z, tol).value

    def eval_best_effort(self, z: complex) -> TruncatedEval:
        """Like eval_truncated, but falls back to the full stored prefix."""
        one = self.eval_many([complex(z)], strict=False)
        return TruncatedEval(*(field.item() for field in one))


def evaluate_points(fn, points, *, strict: bool = False) -> np.ndarray:
    """Values of fn at the points, as a complex array.

    A BlaschkeProduct is evaluated in one eval_many call (strict or best
    effort); anything with .eval(z), or a plain callable, point by point.
    """
    if isinstance(fn, BlaschkeProduct):
        return fn.eval_many(points, strict=strict).values
    if hasattr(fn, "eval"):
        fn = fn.eval
    elif not callable(fn):
        raise ValidationError(f"cannot evaluate object of type {type(fn).__name__}")
    zs = np.asarray(points, dtype=np.complex128).reshape(-1).tolist()
    return np.array([fn(z) for z in zs], dtype=np.complex128)


def default_radius_schedule(levels: int | None = None) -> np.ndarray:
    """Radii 1 - 2^-n for n = 1..levels (default from config)."""
    levels = config.DEFAULTS["radius_levels"] if levels is None else levels
    if levels < 1:
        raise ValidationError("radius schedule needs at least one level")
    n = np.arange(1, levels + 1, dtype=np.float64)
    return 1.0 - np.power(2.0, -n)


def _max_pairwise_distance(samples: Sequence[complex]) -> float:
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.size < 2:
        return 0.0
    diff = np.abs(arr[:, None] - arr[None, :])
    return float(diff.max())


def _late_window(values: np.ndarray, window: int, tol: float):
    """The last `window` values, their diameter, and their mean if that is below tol."""
    tail = values[len(values) - min(window, len(values)):].tolist()
    osc = _max_pairwise_distance(tail)
    return tail, osc, (complex(np.mean(tail)) if osc < tol else None)


@dataclass(frozen=True, eq=False)
class RadialTrace:
    """Samples of a function along a ray toward e^(i*angle).

    ``oscillation`` is the diameter (max pairwise distance) of the last
    min(window, len) samples; ``limit_estimate`` is their mean when the
    oscillation is below the verdict tolerance, else None.
    """

    angle: float
    radii: np.ndarray
    values: np.ndarray
    limit_estimate: complex | None
    oscillation: float

    def write_csv(self, handle: TextIO) -> None:
        write_values(handle, "radius", self.radii, self.values)


def radial_trace(
    fn,
    angle: float,
    radii: Sequence[float] | None = None,
    *,
    verdict_tolerance: float | None = None,
    window: int | None = None,
    strict: bool = False,
) -> RadialTrace:
    """Sample fn along the ray of the given angle and judge the radial limit."""
    radii_arr = default_radius_schedule() if radii is None else np.asarray(radii, dtype=np.float64)
    if radii_arr.size == 0:
        raise ValidationError("radial trace needs at least one radius")
    if np.any(radii_arr <= 0.0) or np.any(radii_arr >= 1.0):
        raise ValidationError("trace radii must lie in (0, 1)")
    if np.any(np.diff(radii_arr) <= 0.0):
        raise ValidationError("trace radii must be strictly increasing")
    tol = config.DEFAULTS["verdict_tolerance"] if verdict_tolerance is None else verdict_tolerance
    win = config.DEFAULTS["oscillation_window"] if window is None else window
    angle = normalize_angle(angle)
    values = evaluate_points(fn, radii_arr * cmath.exp(1j * angle), strict=strict)
    _, osc, estimate = _late_window(values, win, tol)
    return RadialTrace(angle=angle, radii=radii_arr, values=values,
                       limit_estimate=estimate, oscillation=osc)


@dataclass(frozen=True, eq=False)
class BoundaryScan:
    """Uniform-angle samples of a function on the circle of radius r."""

    r: float
    delta: float
    angles: np.ndarray
    values: np.ndarray
    modulus_min: float
    modulus_max: float
    modulus_mean: float
    fraction_near_one: float

    def write_csv(self, handle: TextIO) -> None:
        write_values(handle, "angle", self.angles, self.values)


def boundary_scan(
    fn,
    r: float,
    angle_count: int,
    *,
    delta: float | None = None,
    strict: bool = True,
) -> BoundaryScan:
    """Scan fn on |z| = r at angle_count uniform angles.

    fraction_near_one counts samples with modulus above 1 - delta.  Truncation
    failures propagate (pass strict=False for best-effort sampling).
    """
    if not (0.0 < r < 1.0):
        raise ValidationError(f"scan radius must lie in (0, 1), got {r!r}")
    angles = uniform_angles(angle_count)
    delta = config.DEFAULTS["scan_delta"] if delta is None else delta
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")
    values = evaluate_points(fn, circle_points(r, angles), strict=strict)
    moduli = np.abs(values)
    return BoundaryScan(
        r=r,
        delta=delta,
        angles=angles,
        values=values,
        modulus_min=float(moduli.min()),
        modulus_max=float(moduli.max()),
        modulus_mean=float(moduli.mean()),
        fraction_near_one=float(np.mean(moduli > 1.0 - delta)),
    )


@dataclass(frozen=True)
class ApproachPath:
    """A within-disc approach to a boundary point.

    Offset paths visit (1-s) e^(i(angle + offset(s))) over the radius
    schedule, where s = 1 - r; discrete paths carry explicit points (late
    entries closest to the boundary point).  ``role`` is one of "radial",
    "nontangential", "tangential", "discrete".
    """

    name: str
    role: str
    offset: Callable[[float], float] | None = None
    points: tuple[complex, ...] | None = None

    def sample_points(self, angle: float, radii: np.ndarray) -> np.ndarray:
        if self.points is not None:
            return np.asarray(self.points, dtype=np.complex128)
        assert self.offset is not None
        sigma = 1.0 - radii
        offsets = np.array([self.offset(s) for s in sigma], dtype=np.float64)
        return radii * np.exp(1j * (angle + offsets))


def standard_paths() -> list[ApproachPath]:
    """Radial ray, nontangential pair (slope 1), tangential pair (0.1 sqrt s)."""
    return [
        ApproachPath("radial", "radial", offset=lambda s: 0.0),
        ApproachPath("nontangential+", "nontangential", offset=lambda s: s),
        ApproachPath("nontangential-", "nontangential", offset=lambda s: -s),
        ApproachPath("tangential+", "tangential", offset=lambda s: 0.1 * math.sqrt(s)),
        ApproachPath("tangential-", "tangential", offset=lambda s: -0.1 * math.sqrt(s)),
    ]


# A zero-chase path is dropped unless it ends within this chord distance of
# the boundary point; otherwise the stored zeros do not approach the point
# and the path would not witness anything about its cluster set.
_ZERO_CHASE_REACH = 0.05


def _zero_chase_path(product: BlaschkeProduct, angle: float) -> ApproachPath | None:
    """Chain of stored zeros with strictly decreasing distance to e^(i*angle).

    One candidate per deficit level (generated sequences share one deficit per
    level), nearest-in-angle first.  Blaschke products vanish at their zeros,
    so when zeros accumulate at the boundary point this path pins 0 into the
    cluster set.
    """
    seq = product.zeros
    if len(seq) == 0:
        return None
    zeta = cmath.exp(1j * angle)
    zs = seq.zeros
    # zeros whose deficit is below float resolution collapse onto the circle
    # in complex form; they are not valid evaluation points, so the chain
    # stops before them.  The evaluator measures |z| with Python's abs, which
    # can round a modulus just below 1 up to 1.0 where numpy's does not, so
    # zeros within a few ulps of the circle are rechecked with it.
    modulus = np.abs(zs)
    inside = modulus < 1.0
    for j in np.flatnonzero(inside & (modulus > 1.0 - 2.0 ** -50)):
        inside[j] = abs(complex(zs[j])) < 1.0
    dist = np.abs(zs - zeta)
    chain: list[complex] = []
    best = math.inf
    # descending deficit = shallow levels first, so the chain walks outward
    for d in sorted(set(seq.deficits.tolist()), reverse=True):
        idx = np.nonzero((seq.deficits == d) & inside)[0]
        if idx.size == 0:
            continue
        j = idx[int(np.argmin(dist[idx]))]
        if dist[j] < best:
            best = float(dist[j])
            chain.append(complex(zs[j]))
    if len(chain) < 2 or best > _ZERO_CHASE_REACH:
        return None
    return ApproachPath("zero-chase", "discrete", points=tuple(chain))


class PathLimit(NamedTuple):
    name: str
    estimate: complex | None
    oscillation: float


@dataclass(frozen=True)
class LimitProbeReport:
    """Per-path limit verdicts at one boundary angle plus a cluster estimate.

    cluster_diameter_estimate is the diameter of the pooled late-window
    samples of all paths; it is a lower bound for the true cluster set
    diameter and always at least the max pairwise distance between per-path
    limit estimates.
    """

    angle: float
    path_limits: tuple[PathLimit, ...]
    cluster_diameter_estimate: float
    radial_exists: bool

    def to_json(self) -> dict:
        return {
            "angle": float(self.angle),
            "paths": [
                {
                    "name": pl.name,
                    "estimate": None if pl.estimate is None else
                        {"re": pl.estimate.real, "im": pl.estimate.imag},
                    "oscillation": float(pl.oscillation),
                }
                for pl in self.path_limits
            ],
            "cluster_diameter_estimate": float(self.cluster_diameter_estimate),
            "radial_exists": self.radial_exists,
        }


def limit_probe(
    fn,
    angle: float,
    paths: Sequence[ApproachPath] | None = None,
    *,
    radii: Sequence[float] | None = None,
    verdict_tolerance: float | None = None,
    window: int | None = None,
) -> LimitProbeReport:
    """Probe the boundary behaviour of fn at e^(i*angle) along several paths.

    The default family is the standard five paths plus, for Blaschke
    products whose zeros approach the point, a discrete path through those
    zeros.  Custom families must include a radial path and at least two
    tangential paths.
    """
    angle = normalize_angle(angle)
    if paths is None:
        family = standard_paths()
        if isinstance(fn, BlaschkeProduct):
            chase = _zero_chase_path(fn, angle)
            if chase is not None:
                family.append(chase)
    else:
        family = list(paths)
        roles = [p.role for p in family]
        if "radial" not in roles or roles.count("tangential") < 2:
            raise ValidationError(
                "path family must include a radial path and at least two tangential paths"
            )
    radii_arr = default_radius_schedule() if radii is None else np.asarray(radii, dtype=np.float64)
    tol = config.DEFAULTS["verdict_tolerance"] if verdict_tolerance is None else verdict_tolerance
    win = config.DEFAULTS["oscillation_window"] if window is None else window

    points = [path.sample_points(angle, radii_arr) for path in family]
    values = evaluate_points(fn, np.concatenate(points), strict=False)
    ends = np.cumsum([p.size for p in points]).tolist()
    path_limits: list[PathLimit] = []
    pooled: list[complex] = []
    radial_exists = False
    for path, lo, hi in zip(family, [0] + ends, ends):
        tail, osc, estimate = _late_window(values[lo:hi], win, tol)
        path_limits.append(PathLimit(path.name, estimate, osc))
        pooled.extend(tail)
        if path.role == "radial":
            radial_exists = radial_exists or osc < tol
    return LimitProbeReport(
        angle=angle,
        path_limits=tuple(path_limits),
        cluster_diameter_estimate=_max_pairwise_distance(pooled),
        radial_exists=radial_exists,
    )
