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

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from . import config
from .errors import BoundaryLabError, PoleError, PrefixExhaustedError, ValidationError
from .herglotz import InnerFunctionSpec
from .textio import write_values
from .unitdisc import (
    TWO_PI,
    LevelBlock,
    ZeroSequence,
    _cmul,
    circle_points,
    normalize_angle,
    uniform_angles,
)

# Radius schedules stop at 1 - 2^-53, the float just below 1.
MAX_RADIUS_LEVELS = 53

# Factor block size for long products: one chunk evaluates strictly in
# sequence, and chunk boundaries are fixed, so values never depend on timing
# or thread count.
_EVAL_CHUNK = 65536

# Complex elements per (points x factors) tile of _products (256 KiB per
# buffer).  The tile only sets how many rows are evaluated together; a row's
# bits do not depend on it.
_TILE_ELEMENTS = 2 ** 14


class TruncatedEval(NamedTuple):
    value: complex
    factors_used: int
    tail_bound: float


class BatchEval(NamedTuple):
    """Per-point results of BlaschkeProduct.eval_many, one array entry per point."""

    values: np.ndarray
    factors_used: np.ndarray
    tail_bounds: np.ndarray


# Phase-error constant of the closed-form blocks, in units of ulp(2*pi) (see
# BlaschkeProduct._phase_bounds).
_PHASE_KAPPA = 8.0
_ULP_2PI = math.ulp(TWO_PI)


def _expm1j(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """e^(x + iy) - 1 with relative accuracy: expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    half = np.sin(0.5 * y)
    out = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
    out.real = np.expm1(x) * np.cos(y) - 2.0 * half * half
    out.imag = np.exp(x) * np.sin(y)
    return out


@dataclass
class BlaschkeProduct:
    """A Blaschke product over a stored zero prefix.

    Evaluation inside the disc picks the shortest prefix whose certified tail
    bound (including the sequence's extension mass) is below the tolerance.

    The zeros of a full-circle block (ZeroSequence.blocks) are m equally
    spaced zeros rho e^(i(s + 2 pi j/m)); with u = z e^(-is) their factors
    multiply to (rho^m - u^m)/(1 - rho^m u^m), one Blaschke factor in u^m,
    which is evaluated in polar form instead of factor by factor.
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
        self._cumulative_mass = np.cumsum(seq.deficits)
        self._block_ends = [b.start + b.count for b in seq.blocks]
        if seq.blocks:  # count m, start angle s, log rho and m log rho, rho = fl(1 - d)
            self._block_m = np.array([b.count for b in seq.blocks], dtype=np.float64)
            self._block_s = np.array([b.angle for b in seq.blocks], dtype=np.float64)
            rho = 1.0 - seq.deficits[[b.start for b in seq.blocks]]
            self._block_log_rho = np.log1p(-(1.0 - rho))
            self._block_lrho = self._block_m * self._block_log_rho
        self._chase = None  # zero-chase levels, built on first use

    @functools.cached_property
    def _factor_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|a|, conj(a) and rot = conj(a)/|a| per zero, built for the first factor range
        or pole rescan; rot is -1 at |a| = 0, where (|a| - rot z)/(1 - conj(a) z) is z."""
        absa = 1.0 - self.zeros.deficits
        conj_a = np.conj(absa * np.exp(1j * self.zeros.angles))
        with np.errstate(invalid="ignore", divide="ignore"):
            rot = np.where(absa > 0.0, conj_a / np.where(absa > 0.0, absa, 1.0), -1.0)
        return absa, conj_a, rot

    def __len__(self) -> int:
        return len(self.zeros)

    def _factors(self, z: complex, n: int) -> np.ndarray:
        absa, conj_a, rot = self._factor_arrays
        num = absa[:n] - rot[:n] * z
        den = 1.0 - conj_a[:n] * z
        if np.any(den == 0.0):
            k = int(np.argmin(np.abs(den)))
            raise PoleError(
                f"evaluation point {z!r} is the pole of the factor at zero #{k}"
            )
        return num / den

    def _products(self, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Product of factors lo..hi-1 at each point of z, with a one-point
        product's bits: each chunk of at most _EVAL_CHUNK factors is evaluated
        as (points x factors) tiles of about _TILE_ELEMENTS elements, each row
        reduced left to right, and past one chunk a point's chunk products are
        reduced left to right in turn.  A pole leaves a non-finite value.
        """
        out = np.empty(z.size, dtype=np.complex128)
        if hi <= lo:
            out.fill(1.0)
            return out
        absa, conj_a, rot = self._factor_arrays
        if hi - lo == 1:  # a (points x 1) tile would multiply down the column, with other bits
            with np.errstate(divide="ignore", invalid="ignore"):
                num = absa[lo] - _cmul(rot[lo], z)
                return np.divide(num, 1.0 - _cmul(conj_a[lo], z), out=out)
        starts = range(lo, hi, _EVAL_CHUNK)
        width = min(hi - lo, _EVAL_CHUNK)
        # past one chunk a tile is one point, whose chunk products are reduced
        # in turn; buffers hold the rows actually used
        step = 1 if len(starts) > 1 else max(1, _TILE_ELEMENTS // width)
        rows = min(step, z.size)
        num_buf = np.empty((rows, width), dtype=np.complex128)
        den_buf = np.empty((rows, width), dtype=np.complex128)
        parts = np.empty((1, len(starts)), dtype=np.complex128) if len(starts) > 1 else None
        with np.errstate(divide="ignore", invalid="ignore"):
            for at in range(0, z.size, step):
                col = z[at:at + step, None]
                k = col.shape[0]
                dest = out[at:at + k, None] if parts is None else parts
                for j, c in enumerate(starts):
                    w = min(c + _EVAL_CHUNK, hi) - c
                    num, den = num_buf[:k, :w], den_buf[:k, :w]
                    np.multiply(rot[c:c + w], col, out=num)
                    np.subtract(absa[c:c + w], num, out=num)
                    np.multiply(conj_a[c:c + w], col, out=den)
                    np.subtract(1.0, den, out=den)
                    np.multiply.reduce(np.divide(num, den, out=num), axis=1, out=dest[:, j])
                if parts is not None:
                    np.multiply.reduce(parts, axis=1, out=out[at:at + 1])
        return out

    def _closed_forms(self, z: np.ndarray, k: int) -> np.ndarray:
        """Product over each of the first k blocks at each point, (points x k).

        With psi = m ((arg z - s) mod 2 pi/m), l_r = m log|z| and
        l_rho = m log rho, u^m = e^(l_r + i psi) and rho^m = e^(l_rho), so
        (rho^m - u^m)/(1 - rho^m u^m)
            = e^(l_rho) expm1(l_r - l_rho + i psi) / expm1(l_rho + l_r + i psi),
        which keeps its relative accuracy where u^m is close to rho^m.
        """
        m, s = self._block_m[:k], self._block_s[:k]
        lrho = self._block_lrho[:k]
        col = z[:, None]
        with np.errstate(divide="ignore"):
            lr = m * np.log(np.abs(col))
        psi = m * np.mod(np.angle(col) - s, TWO_PI / m)
        psi[psi > math.pi] -= TWO_PI
        return np.exp(lrho) * _expm1j(lr - lrho, psi) / _expm1j(lrho + lr, psi)

    def _value(self, z: np.ndarray, n: int) -> np.ndarray:
        """Product of the first n factors at each point of z.

        Blocks lying inside [0, n) contribute one closed-form factor each,
        in block order, and the factor ranges outside them one product each,
        in index order.  These parts are multiplied row by row, left to
        right (a reduction, so a value does not depend on the other points
        in the call).  Without such blocks this is _products(z, 0, n).
        """
        k = bisect.bisect_right(self._block_ends, n)
        if k == 0:
            return self._products(z, 0, n)
        ranges, lo = [], 0
        for b in self.zeros.blocks[:k]:
            if b.start > lo:
                ranges.append((lo, b.start))
            lo = b.start + b.count
        if n > lo:
            ranges.append((lo, n))
        out = np.empty(z.size, dtype=np.complex128)
        rows = max(1, _EVAL_CHUNK // (8 * k))
        for at in range(0, z.size, rows):
            part = z[at:at + rows]
            columns = [self._closed_forms(part, k)]
            columns += [self._products(part, lo, hi)[:, None] for lo, hi in ranges]
            out[at:at + rows] = np.multiply.reduce(np.hstack(columns), axis=1)
        return out

    def _phase_bounds(self, r: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Error bound of the closed-form blocks inside [0, counts[i]) at |z| = r[i].

        For block (m, rho) at |z| = r, with c = rho^m and w = u^m: an error e
        in log w (in psi or in m log r) moves (c - w)/(1 - cw) by at most
        (1 - c^2) r^m e / |1 - cw|^2 <= (1 - c^2) r^m e / (1 - c r^m)^2, the
        worst case over psi.  Rounding in arg z, the reduction modulo
        fl(2 pi/m) and the logarithm keeps e within a few m ulp(2 pi) for
        r >= e^-8 (below that, r^m m |log r| eps is under eps).  The stored
        angles lie within a few ulp(2 pi) of s + 2 pi j/m (BLOCK_ANGLE_SLACK);
        moving zero j by delta moves the product by at most delta |db_j/dtheta|,
        and summing the Poisson kernel over the m-th roots of unity gives, with
        x = rho r, sum_j |db_j/dtheta| <= m (1 - rho^2) r (1 + x^m) / ((1 - x^2)(1 - x^m)).
        Both terms take e = _PHASE_KAPPA ulp(2 pi) per zero; on the depth-12
        full circle the measured errors are below 0.8 and 1.4 of that unit.
        """
        out = np.zeros(r.size, dtype=np.float64)
        k = np.searchsorted(self._block_ends, counts, side="right")
        if not k.any():
            return out
        m, log_rho, lrho = self._block_m, self._block_log_rho, self._block_lrho
        col = r[:, None]
        with np.errstate(divide="ignore"):
            log_r = np.log(col)
        lr = m * log_r
        one_minus_x = -np.expm1(lrho + lr)  # 1 - rho^m r^m
        common = m * -np.expm1(2.0 * lrho) * np.exp(lr) / (one_minus_x * one_minus_x)
        spread = (m * -np.expm1(2.0 * log_rho) * col * (2.0 - one_minus_x)
                  / (-np.expm1(2.0 * (log_rho + log_r)) * one_minus_x))
        terms = _PHASE_KAPPA * _ULP_2PI * (common + spread)
        terms[np.arange(terms.shape[1]) >= k[:, None]] = 0.0
        return np.sum(terms, axis=1, out=out)

    def eval_partial(self, n: int, z: complex) -> complex:
        """Product of the first n stored factors, in stored order.

        Factors are consumed left to right in fixed-size chunks, so results
        are deterministic run to run; prefixes up to one chunk reduce in
        strictly sequential order.  Full-circle blocks inside the prefix are
        evaluated in closed form.  Every factor has modulus at most 1 on the
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
        acc = complex(self._value(np.array([z]), n)[0])
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
        """Certified bound on |B - B_n| for |z| <= r (truncation only)."""
        if not (0.0 <= r < 1.0):
            raise ValidationError(f"tail bound requires radius < 1, got {r!r}")
        seq = self.zeros
        total = self._cumulative_mass[-1] if len(self) else 0.0
        used = self._cumulative_mass[n - 1] if n > 0 else 0.0
        return (1.0 + r) / (1.0 - r) * (total - used + seq.extension_mass)

    def _exhausted(self, r: float, tol: float, achieved: float) -> PrefixExhaustedError:
        return PrefixExhaustedError(
            f"stored prefix of {len(self)} zeros cannot reach tolerance "
            f"{tol:g} at |z| = {r:.6g} (achieved tail bound {achieved:.6g})",
            tail_bound=achieved,
        )

    def _prefix(self, r: float, tol: float, strict: bool) -> tuple[int, float]:
        """Factor count and truncation bound for |z| = r: certified, else the whole prefix."""
        n = self.factors_needed(r, tol)
        if n < 0:
            if strict:
                raise self._exhausted(r, tol, self.tail_bound(r, len(self)))
            n = len(self)
        return n, self.tail_bound(r, n)

    def eval_many(self, points, *, strict: bool, tol: float | None = None) -> BatchEval:
        """Value, factor count and tail bound at each point.

        |z| is taken with Python's abs, the count chosen once per distinct
        modulus, and the points sharing a count are evaluated together.  The
        tail bound is the truncation bound plus, for each closed-form block
        used, its phase bound (_phase_bounds); strict mode fails where that
        sum exceeds tol.  A failure is raised as the first failing point in
        input order raises it.  On a sequence without blocks every result is
        bit for bit that of a one-point product of the chosen prefix.
        """
        tol = self.truncation_tolerance if tol is None else tol
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        moduli = [abs(p) for p in z.tolist()]
        prefixes: dict[float, tuple[int, float]] = {}  # in order of first occurrence
        failure = None
        for r in moduli:
            if r not in prefixes:
                try:
                    prefixes[r] = self._prefix(r, tol, strict)
                except BoundaryLabError as exc:
                    failure = exc  # points from its first occurrence on stay unevaluated
                    break
        counts = np.array([n for n, _ in prefixes.values()], dtype=np.int64)
        bounds = np.array([b for _, b in prefixes.values()], dtype=np.float64)
        if self._block_ends:
            bounds += self._phase_bounds(np.fromiter(prefixes, np.float64, len(prefixes)), counts)
            over = np.flatnonzero(bounds > tol) if strict else ()
            if len(over):  # truncation plus phase exceeds tol at this modulus
                r = list(prefixes)[over[0]]
                failure = self._exhausted(r, tol, float(bounds[over[0]]))
        stop = z.size if failure is None else moduli.index(r)
        if len(prefixes) > 1:
            slot = {r: i for i, r in enumerate(prefixes)}
            where = np.fromiter(map(slot.__getitem__, moduli[:stop]), dtype=np.intp, count=stop)
            counts, bounds = counts[where], bounds[where]
        else:
            counts, bounds = counts.repeat(stop), bounds.repeat(stop)
        values = np.empty(stop, dtype=np.complex128)
        distinct = set(counts.tolist())
        for n in distinct:
            at = np.flatnonzero(counts == n) if len(distinct) > 1 else slice(None)
            values[at] = self._value(z[:stop][at], n)
        if not np.isfinite(values).all():  # locate the first pole and raise with its index
            first = int(np.argmin(np.isfinite(values)))
            self._factors(complex(z[first]), int(counts[first]))
        if failure is not None:
            raise failure
        return BatchEval(values, counts, bounds)

    def eval_truncated(self, z: complex, tol: float | None = None) -> TruncatedEval:
        """Evaluate with a certified tail bound below tol, or fail loudly."""
        values, counts, bounds = self.eval_many([complex(z)], strict=True, tol=tol)
        return TruncatedEval(values.item(), counts.item(), bounds.item())

    def eval_best_effort(self, z: complex) -> TruncatedEval:
        """Like eval_truncated, but falls back to the full stored prefix."""
        values, counts, bounds = self.eval_many([complex(z)], strict=False)
        return TruncatedEval(values.item(), counts.item(), bounds.item())


def evaluate_points(fn, points, *, strict: bool = False) -> np.ndarray:
    """Values of fn at the points, as a complex array.

    A BlaschkeProduct or InnerFunctionSpec is evaluated in one eval_many
    call (the spec's Blaschke part best effort), a plain callable point by point.
    """
    if isinstance(fn, BlaschkeProduct):
        return fn.eval_many(points, strict=strict).values
    if isinstance(fn, InnerFunctionSpec):
        return fn.eval_many(points)
    if not callable(fn):
        raise ValidationError(f"cannot evaluate object of type {type(fn).__name__}")
    zs = np.asarray(points, dtype=np.complex128).reshape(-1).tolist()
    return np.array([fn(z) for z in zs], dtype=np.complex128)


def default_radius_schedule(levels: int | None = None) -> np.ndarray:
    """Radii 1 - 2^-n for n = 1..levels (default from config).

    At most MAX_RADIUS_LEVELS levels: 1 - 2^-54 rounds to 1.0.
    """
    levels = config.DEFAULTS["radius_levels"] if levels is None else levels
    if not 1 <= levels <= MAX_RADIUS_LEVELS:
        raise ValidationError(
            f"radius_levels must lie in 1..{MAX_RADIUS_LEVELS} (1 - 2^-54 rounds to 1), "
            f"got {levels!r}"
        )
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


def _zeros_at(seq: ZeroSequence, idx) -> np.ndarray:
    """The stored zeros at the given indices, with the bits of seq.zeros."""
    return (1.0 - seq.deficits[idx]) * np.exp(1j * seq.angles[idx])


def _chase_levels(product: BlaschkeProduct) -> list:
    """The deficit levels of the stored zeros, deepest last, built once per product.

    A level is a LevelBlock when it is exactly one block of deficit d >= 2^-48,
    else the complex zeros of the level inside the circle, in index order.
    Zeros whose deficit is below float resolution collapse onto the circle in
    complex form; they are not valid evaluation points, so the chain stops
    before them.  The evaluator measures |z| with Python's abs, which can
    round a modulus just below 1 up to 1.0 where numpy's does not, so zeros
    within 2^-50 of the circle are rechecked with it.  A block's zeros lie
    below 1 - 2^-50: fl(1 - d) is within eps/2 of 1 - d, and rounding e^(it),
    the product and the modulus adds at most 6 eps.
    """
    if product._chase is None:
        seq = product.zeros
        levels: dict[float, object] = {}
        rest = np.ones(len(seq), dtype=bool)
        for b in seq.blocks:
            if b.deficit >= 2.0 ** -48 and np.count_nonzero(seq.deficits == b.deficit) == b.count:
                levels[b.deficit] = b
                rest[b.start:b.start + b.count] = False
        idx = np.flatnonzero(rest)
        zs = _zeros_at(seq, idx)
        modulus = np.abs(zs)
        inside = modulus < 1.0
        for j in np.flatnonzero(inside & (modulus > 1.0 - 2.0 ** -50)):
            inside[j] = abs(complex(zs[j])) < 1.0
        idx, zs = idx[inside], zs[inside]
        order = np.argsort(-seq.deficits[idx], kind="stable")  # ties keep index order
        idx, zs = idx[order], zs[order]
        cuts = np.flatnonzero(np.diff(seq.deficits[idx])) + 1
        for group, level in zip(np.split(idx, cuts), np.split(zs, cuts)) if idx.size else ():
            levels[float(seq.deficits[group[0]])] = level
        product._chase = [levels[d] for d in sorted(levels, reverse=True)]
    return product._chase


def _zero_chase_path(product: BlaschkeProduct, angle: float) -> ApproachPath | None:
    """Chain of stored zeros with strictly decreasing distance to e^(i*angle).

    One candidate per deficit level (generated sequences share one deficit per
    level), the nearest first, ties to the lowest index; in a full-circle
    block only the arithmetic nearest zero and its two neighbours can be
    nearest.  Blaschke products vanish at their zeros, so when zeros
    accumulate at the boundary point this path pins 0 into the cluster set.
    """
    zeta = cmath.exp(1j * angle)
    chain: list[complex] = []
    best = math.inf
    # descending deficit = shallow levels first, so the chain walks outward
    for zs in _chase_levels(product):
        if isinstance(zs, LevelBlock):
            m = zs.count
            j = round((angle - zs.angle) / (TWO_PI / m))
            zs = _zeros_at(product.zeros, sorted({zs.start + (j + i) % m for i in (-1, 0, 1)}))
        dist = np.abs(zs - zeta)
        k = int(np.argmin(dist))
        if dist[k] < best:
            best = float(dist[k])
            chain.append(complex(zs[k]))
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
