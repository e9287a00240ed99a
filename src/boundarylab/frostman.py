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
    return _terms(seq.angles, seq.deficits, theta)


def _terms(angles: np.ndarray, d: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0:
        theta = np.float64(normalize_angle(float(theta)))
    half_gap = 0.5 * (angles - theta[..., None])
    chord = 2.0 * np.sqrt(1.0 - d) * np.abs(np.sin(half_gap))
    return d / np.hypot(d, chord)


def frostman_partial(seq: ZeroSequence, theta: float, n: int) -> float:
    """f_n(theta) over the first n stored zeros."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"prefix length must be a nonnegative integer, got {n!r}")
    if n > len(seq):
        raise ValidationError(f"prefix length {n} exceeds the {len(seq)} stored zeros")
    return float(np.sum(_terms(seq.angles[:n], seq.deficits[:n], theta)))


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
        def rows():
            for i, angle in enumerate(self.angles):
                for j, n in enumerate(self.schedule):
                    yield (
                        float(angle),
                        int(n),
                        float(self.partial_sums[i, j]),
                        self.classifications[i],
                    )

        write_csv(handle, ("angle", "n", "partial_sum", "classification"), rows())


# chunk cap for the (angles x zeros) term matrix, in elements
_PROFILE_CHUNK_ELEMENTS = 4_000_000


def _schedule_sums(seq: ZeroSequence, angles: np.ndarray, schedule: Sequence[int]) -> np.ndarray:
    """f_n at each angle (rows) for each n of the schedule (columns); f_0 = 0."""
    sums = np.zeros((angles.size, len(schedule)), dtype=np.float64)
    if len(seq):
        first = int(schedule[0] == 0)  # an increasing schedule has 0 first if at all
        cols = np.subtract(schedule[first:], 1)
        chunk = max(1, _PROFILE_CHUNK_ELEMENTS // len(seq))
        for lo in range(0, angles.size, chunk):
            cumulative = np.cumsum(frostman_terms(seq, angles[lo:lo + chunk]), axis=1)
            sums[lo:lo + chunk, first:] = cumulative[:, cols]
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
