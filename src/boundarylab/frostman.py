"""Frostman sums: do the zeros crowd a boundary point too hard?

For zeros a_k and a boundary angle theta the partial sums

    f_n(theta) = sum_{k<=n} (1 - |a_k|) / |e^(i theta) - a_k|

decide (in the limit) whether the Blaschke product has a unimodular radial
limit at theta: bounded sums mean the zeros approach e^(i theta) slowly enough.
Numerically only a prefix is visible, so the classifier is a trichotomy:
divergent once the sum passes a threshold, convergent once the tail over the
last few prefix doublings is negligible, undecided otherwise.

The distance in the denominator is evaluated from the polar representation:

    |e^(i theta) - a| = hypot(d, 2 sqrt(1-d) sin(gap/2)),   d = 1 - |a|,

which is exact at gap = 0 (the term is exactly 1 there, for any positive d,
subnormals included) and never cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import config
from .errors import ValidationError
from .textio import write_csv
from .unitdisc import ZeroSequence, normalize_angle, uniform_angles

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FrostmanPolicy:
    """Thresholds for the three-way classification."""

    divergence_threshold: float = config.DEFAULTS["frostman_divergence_threshold"]
    growth_window: int = config.DEFAULTS["frostman_growth_window"]
    cauchy_tolerance: float = config.DEFAULTS["frostman_cauchy_tolerance"]

    def __post_init__(self) -> None:
        if self.divergence_threshold <= 0.0:
            raise ValidationError("divergence_threshold must be positive")
        if self.growth_window < 1:
            raise ValidationError("growth_window must be at least 1")
        if self.cauchy_tolerance <= 0.0:
            raise ValidationError("cauchy_tolerance must be positive")


def frostman_terms(seq: ZeroSequence, theta: float | np.ndarray) -> np.ndarray:
    """Per-zero summands (1 - |a_k|) / |e^(i theta) - a_k| in stored order.

    An array of angles in [0, 2 pi) gives one row per angle.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0:
        theta = np.asarray(normalize_angle(float(theta)))
    theta = theta[..., None]
    a, d = seq.angles, seq.deficits
    return _fill_terms(a, d, 2.0 * np.sqrt(1.0 - d), theta,
                       np.empty(np.broadcast_shapes(theta.shape, a.shape)))


def _fill_terms(angles: np.ndarray, d: np.ndarray, scale: np.ndarray, theta: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """out = d / hypot(d, scale sin(0.5 (angles - theta))) in place, scale = 2 sqrt(1 - d).

    The chord is scale |sin|; hypot ignores the sign, so the abs is not taken.
    """
    np.subtract(angles, theta, out=out)
    np.multiply(out, 0.5, out=out)
    np.sin(out, out=out)
    np.multiply(scale, out, out=out)
    np.hypot(d, out, out=out)
    return np.divide(d, out, out=out)


def frostman_partial(seq: ZeroSequence, theta: float, n: int) -> float:
    """f_n(theta) over the first n stored zeros, with the bits of the classifier's f_n."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"prefix length must be a nonnegative integer, got {n!r}")
    if n > len(seq):
        raise ValidationError(f"prefix length {n} exceeds the {len(seq)} stored zeros")
    return float(_schedule_sums(seq, np.array([normalize_angle(theta)]), (n,))[0, 0])


def doubling_schedule(count: int) -> tuple[int, ...]:
    """1, 2, 4, ... capped at count, with count itself as the last entry."""
    if count <= 0:
        return (0,)
    out = []
    n = 1
    while n < count:
        out.append(n)
        n *= 2
    out.append(count)
    return tuple(out)


@dataclass(frozen=True)
class FrostmanReport:
    """Classification at one angle with the partial sums that justified it."""

    theta: float
    classification: str
    schedule: tuple[int, ...]
    partial_sums: tuple[float, ...]
    tail: float


def _classify_sums(sums: Sequence[float], policy: FrostmanPolicy) -> tuple[str, float]:
    final = sums[-1] if sums else 0.0
    base_index = max(0, len(sums) - 1 - policy.growth_window)
    tail = final - (sums[base_index] if sums else 0.0)
    if final >= policy.divergence_threshold:
        return DIVERGENT, tail
    if tail < policy.cauchy_tolerance:
        return CONVERGENT, tail
    return UNDECIDED, tail


def frostman_classify(
    seq: ZeroSequence,
    theta: float,
    policy: FrostmanPolicy | None = None,
) -> FrostmanReport:
    """Three-way verdict for the Frostman sum at one angle.

    Divergence wins when the full-prefix sum reaches the threshold; otherwise
    the sum is convergent when the last growth_window prefix doublings added
    less than the Cauchy tolerance, and undecided when still growing.
    """
    policy = FrostmanPolicy() if policy is None else policy
    theta = normalize_angle(theta)
    schedule = doubling_schedule(len(seq))
    sums = tuple(_schedule_sums(seq, np.array([theta]), schedule)[0].tolist())
    classification, tail = _classify_sums(sums, policy)
    return FrostmanReport(
        theta=theta,
        classification=classification,
        schedule=schedule,
        partial_sums=sums,
        tail=tail,
    )


@dataclass(frozen=True, eq=False)
class FrostmanProfile:
    """Frostman sums on a uniform angle grid.

    partial_sums has shape (angle_count, len(schedule)); classifications is a
    string per angle; divergent_fraction is the grid measure of DIVERGENT.
    """

    angles: np.ndarray
    schedule: tuple[int, ...]
    partial_sums: np.ndarray
    classifications: tuple[str, ...]
    divergent_fraction: float

    def write_csv(self, handle: TextIO) -> None:
        """One row per (angle, schedule entry), angles outermost."""
        per_angle = len(self.schedule)
        write_csv(handle, ("angle", "n", "partial_sum", "classification"), (
            np.repeat(self.angles, per_angle),
            np.tile(np.asarray(self.schedule, dtype=np.int64), self.angles.size),
            self.partial_sums.ravel(),
            np.repeat(np.asarray(self.classifications, dtype=object), per_angle),
        ))


# working set of the Frostman kernel in float64 elements (1 MiB): one tile of
# (angles x zeros) terms; a single angle on up to this many zeros is one tile
_TILE_ELEMENTS = 1 << 17


def _schedule_sums(seq: ZeroSequence, angles: np.ndarray, schedule: Sequence[int]) -> np.ndarray:
    """f_n at each angle (rows) for each n of the schedule (columns); f_0 = 0.

    The terms are computed tile by tile in one reused buffer. A row's running
    sum enters each tile through the tile's first term before the in-place
    cumsum, so every f_n is the left-to-right sum of its terms in stored
    order, as one cumsum over the whole row would give.
    """
    sums = np.zeros((angles.size, len(schedule)), dtype=np.float64)
    first = int(schedule[0] == 0)  # an increasing schedule has 0 first if at all
    cols = np.subtract(schedule[first:], 1)
    if not cols.size or not angles.size:
        return sums
    count = int(cols[-1]) + 1  # the terms past the last schedule entry are never needed
    width = min(count, _TILE_ELEMENTS)
    rows = max(1, min(angles.size, _TILE_ELEMENTS // width))
    buf, scale_buf = np.empty(rows * width), np.empty(width)
    carry = np.zeros(angles.size)
    theta = angles[:, None]
    starts = range(0, count, width)
    split = np.searchsorted(cols, [*starts, count]).tolist()
    for t, lo in enumerate(starts):
        hi = min(lo + width, count)
        a, d = seq.angles[lo:hi], seq.deficits[lo:hi]
        scale = np.subtract(1.0, d, out=scale_buf[:hi - lo])
        np.sqrt(scale, out=scale)
        scale *= 2.0
        here = cols[split[t]:split[t + 1]] - lo
        dest = slice(first + split[t], first + split[t + 1])
        for r0 in range(0, angles.size, rows):
            r1 = min(r0 + rows, angles.size)
            b = buf[:(r1 - r0) * (hi - lo)].reshape(r1 - r0, -1)
            _fill_terms(a, d, scale, theta[r0:r1], b)
            b[:, 0] += carry[r0:r1]
            np.cumsum(b, axis=1, out=b)
            carry[r0:r1] = b[:, -1]
            sums[r0:r1, dest] = b[:, here]
    return sums


def frostman_profile(
    seq: ZeroSequence,
    angle_count: int,
    prefix_schedule: Sequence[int] | None = None,
    policy: FrostmanPolicy | None = None,
) -> FrostmanProfile:
    """Classify every angle of a uniform grid; sums computed by brute force."""
    angles = uniform_angles(angle_count)
    policy = FrostmanPolicy() if policy is None else policy
    if prefix_schedule is None:
        schedule = doubling_schedule(len(seq))
    else:
        schedule = tuple(int(n) for n in prefix_schedule)
        if not schedule:
            raise ValidationError("prefix schedule must be nonempty")
        for n in schedule:
            if n < 0 or n > len(seq):
                raise ValidationError(f"schedule entry {n} outside [0, {len(seq)}]")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValidationError("prefix schedule must be strictly increasing")

    sums = _schedule_sums(seq, angles, schedule)
    classifications = tuple(_classify_sums(row, policy)[0] for row in sums.tolist())
    return FrostmanProfile(
        angles=angles,
        schedule=schedule,
        partial_sums=sums,
        classifications=classifications,
        divergent_fraction=classifications.count(DIVERGENT) / angle_count,
    )
