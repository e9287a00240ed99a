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

Two routes compute f_n. A sequence whose ``blocks`` cover every stored zero
(a full-circle generator set) takes the block route; any other sequence is
summed term by term, left to right in stored order.

The block route. A LevelBlock holds m zeros at one deficit d and angles
s + j h, h = 2 pi / m, so its term of index j is

    g(j) = 1 / sqrt(1 + c sin^2 u_j),   u_j = (s + j h - theta) / 2,   c = 4 (1 - d) / d^2,

a smooth function of j away from theta's index position j0 = ((theta - s) / h)
mod m. For a range [0, q) of a block with q > _FRAME, the indices within
K = _WINDOW of j0, and runs of fewer than p + 1 nodes next to them, are summed
directly from the stored angles; each other run [a, b] (at most two) goes by
Gregory's end-corrected trapezoid rule of order p = len(_GREGORY) (Fornberg,
"Improving the accuracy of the trapezoidal rule", SIAM Review 63, 2021):

    sum_a^b g = (2/h) (F(u_b | -c) - F(u_a | -c)) + (g_a + g_b) / 2
                + sum_k=1..p G_k (nabla^k g_b + (-1)^k Delta^k g_a),

F(u | -c) = int_0^u dt / sqrt(1 + c sin^2 t) being the incomplete elliptic
integral of the first kind, from Carlson's R_F. Ranges of at most _FRAME terms
and blocks of at most _FRAME zeros are summed term by term. Whatever m is, an
angle costs per block one frame of _FRAME terms (two if the block has ranges
of both kinds), and per range O(K + p) masked terms, run nodes and run ends:
O(K + p) per level instead of O(zeros). The segment, range and frame plan and
each block's complete integral K(-c) depend only on the blocks and the
schedule, so they are computed once per (blocks, schedule) and cached, not per
call, block or tile. A block's modulus 1 - d is below 1 in floating point, so
d >= 2^-54 and c < 2^110: d^2 does not underflow and c does not overflow.

Error bound of a range sum against the sum over the stored angles. Let
tau = 2 / (h sqrt(c)) = d / (h sqrt(1 - d)), about the term at index distance
1 from j0 when d is small; every run node is at index distance delta >= K
from j0.

1. Gregory remainder. In the half angle v, 1 + c sin^2 v = c sin(v + ib)
   sin(v - ib) with sinh b = 1 / sqrt(c), and |sin w| >= (2/pi) dist(w, pi Z),
   so Cauchy's estimate on the disc of radius delta k / (k + 1) gives
   |g^(k)(j)| <= (pi/2) e (k + 1) k! tau / delta^(k+1). The rule is exact on
   polynomials of degree p, and its Peano kernel is at most kappa = 0.0026515
   for p = 13 on runs of p + 1 or more nodes (computed in exact rational
   arithmetic). A range's runs meet each delta at most twice, so
       E1 = kappa pi e (p + 2) p! tau / K^(p+1) = 1.09e-16 tau.
   K and p are chosen from E1: it is below the unit roundoff 2^-53 times tau
   at K = 64 from p = 13 on (p = 12 gives 3.1e-16 tau), and at K = 32 for no
   order.
2. Angles. The stored angles are within BLOCK_ANGLE_SLACK of s + j h, and the
   angles the rule evaluates, its node values and its run ends, are computed
   within 8 ulp(2 pi) of it; eps is the sum of the two. With
   |dg/dangle| <= pi e tau / (h delta^2), and the end weights of the rule
   summing to Lambda = sum_i |_END_WEIGHTS[i]| = 79.7 in magnitude,
       E2 = (2 pi (e + 1) + 4 pi e Lambda / K) eps tau / (h K).
3. Cancellation. The computed F is within 16 * 2^-53 (|F(r)| + 2 |k| K(-c))
   <= 48 * 2^-53 K(-c) of F at its reduced argument r = u - k pi, so the four
   run ends add at most E3 = 384 * 2^-53 K(-c) / h.

Past these, the sums round like any floating-point sum: a few units of 2^-53
per term for the directly summed terms and the end values (times Lambda), and
one per addition. Values on full-circle sets therefore differ from the
term-by-term sums at rounding level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import config
from .errors import ValidationError
from .textio import write_csv
from .unitdisc import (MAX_ANGLES, TWO_PI, ZeroSequence, _positive_finite, _positive_int,
                       normalize_angle, uniform_angles)

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FrostmanPolicy:
    """Thresholds for the three-way classification: finite and positive, and a
    positive int window."""

    divergence_threshold: float = config.DEFAULTS["frostman_divergence_threshold"]
    growth_window: int = config.DEFAULTS["frostman_growth_window"]
    cauchy_tolerance: float = config.DEFAULTS["frostman_cauchy_tolerance"]

    def __post_init__(self) -> None:
        _positive_finite(self.divergence_threshold, "divergence_threshold")
        _positive_int(self.growth_window, "growth_window")
        _positive_finite(self.cauchy_tolerance, "cauchy_tolerance")


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


# working set of the Frostman kernels in float64 elements (1 MiB): one tile of
# (angles x zeros) terms, or of (angles x ranges x _FRAME) block-route terms;
# a single angle on up to this many zeros is one tile
_TILE_ELEMENTS = 1 << 17


def _schedule_sums(seq: ZeroSequence, angles: np.ndarray, schedule: Sequence[int]) -> np.ndarray:
    """f_n at each angle (rows) for each n of the schedule (columns); f_0 = 0.

    A sequence whose blocks cover every stored zero takes the block route
    (_block_sums); any other is summed term by term (_tiled_sums).
    """
    sums = np.zeros((angles.size, len(schedule)), dtype=np.float64)
    first = int(schedule[0] == 0)  # an increasing schedule has 0 first if at all
    ends = np.asarray(schedule[first:], dtype=np.int64)
    if not ends.size or not angles.size:
        return sums
    if seq.blocks and sum(b.count for b in seq.blocks) == len(seq):
        _block_sums(seq, angles, ends, sums[:, first:])
    else:
        _tiled_sums(seq.angles, seq.deficits, angles, ends - 1, sums[:, first:])
    return sums


def _tiled_sums(a_all: np.ndarray, d_all: np.ndarray, angles: np.ndarray, cols: np.ndarray,
                sums: np.ndarray) -> None:
    """sums[i, c] = the running sum of the terms of zeros (a_all, d_all) at angle
    i up to column cols[c]; cols is increasing.

    The terms are computed tile by tile in one reused buffer. A row's running
    sum enters each tile through the tile's first term before the in-place
    cumsum, so every sum is the left-to-right sum of its terms in stored
    order, as one cumsum over the whole row would give.
    """
    count = int(cols[-1]) + 1  # the terms past the last column are never needed
    width = min(count, _TILE_ELEMENTS)
    rows = max(1, min(angles.size, _TILE_ELEMENTS // width))
    buf, scale_buf = np.empty(rows * width), np.empty(width)
    carry = np.zeros(angles.size)
    theta = angles[:, None]
    starts = range(0, count, width)
    split = np.searchsorted(cols, [*starts, count]).tolist()
    for t, lo in enumerate(starts):
        hi = min(lo + width, count)
        a, d = a_all[lo:hi], d_all[lo:hi]
        scale = np.subtract(1.0, d, out=scale_buf[:hi - lo])
        np.sqrt(scale, out=scale)
        scale *= 2.0
        here = cols[split[t]:split[t + 1]] - lo
        dest = slice(split[t], split[t + 1])
        for r0 in range(0, angles.size, rows):
            r1 = min(r0 + rows, angles.size)
            b = buf[:(r1 - r0) * (hi - lo)].reshape(r1 - r0, -1)
            _fill_terms(a, d, scale, theta[r0:r1], b)
            b[:, 0] += carry[r0:r1]
            np.cumsum(b, axis=1, out=b)
            carry[r0:r1] = b[:, -1]
            sums[r0:r1, dest] = b[:, here]


# --- the block route (see the module docstring for the error bound) ----------
#
# K: the terms within index distance K of theta's position in a block are summed
# directly; p = len(_GREGORY) = 13: the order of the Gregory end corrections
_WINDOW = 64
_GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192, 33953 / 3628800,
            8183 / 1036800, 3250433 / 479001600, 4671 / 788480,
            13695779093 / 2615348736000, 2224234463 / 475517952000,
            132282840127 / 31384184832000)
# runs with fewer nodes than this (p + 1) are summed directly
_RUN_MIN = len(_GREGORY) + 1
# width of a range's direct frame: the window and a short run on each side; a
# range of at most this many terms is summed directly as a whole
_FRAME = 2 * _WINDOW + 1 + 2 * (_RUN_MIN - 1)
# the weight of g(a + i) (and of g(b - i)) in (g_a + g_b) / 2 + sum_k G_k (nabla^k g_b
# + (-1)^k Delta^k g_a): both ends expand to (-1)^i sum_k>=i G_k C(k, i)
_END_WEIGHTS = np.array([(i == 0) / 2 + (-1) ** i * math.fsum(
    g * math.comb(k, i) for k, g in enumerate(_GREGORY, start=1) if k >= i)
    for i in range(_RUN_MIN)])
# Carlson's duplication stops when max |A - x| <= (3 r)^(1/6) A, r the unit roundoff:
# the series R_F = A^(-1/2) (1 - E2/10 + E3/14 + E2^2/24 - 3 E2 E3/44) is then within r
_RF_SPREAD = (3.0 * 2.0 ** -53) ** (1.0 / 6.0)
_FRAME_POS, _END_POS = np.arange(_FRAME, dtype=np.int32), np.arange(_RUN_MIN)


def _carlson_rf(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Carlson's R_F(x, y, z) elementwise (Carlson, Numer. Algorithms 10, 1995).

    The duplication steps run on one state array [x, y, z, A], all elements
    together, until each element's spread max |A - v| has been at most
    _RF_SPREAD A; each element keeps the state of its own first such step, so
    its bits do not depend on the other elements. In exact arithmetic a step
    divides every A - v by 4 and does not raise A, so no element meets the
    test within log4(min spread / (_RF_SPREAD A)) steps of the start (by a
    factor of 4 that rounding cannot close); those steps skip it. An empty
    input returns at once.
    """
    state = np.empty((4, *np.broadcast(x, y, z).shape))
    state[0], state[1], state[2] = x, y, z
    state[3] = (state[0] + state[1] + state[2]) / 3.0
    last = np.empty_like(state)
    done = np.zeros(state.shape[1:], dtype=bool)
    ratio = float(np.min(np.abs(state[3] - state[:3]).max(axis=0) / state[3],
                         initial=math.inf)) / _RF_SPREAD
    skip = int(math.log(ratio, 4.0)) if 1.0 < ratio < math.inf else 0
    for step in itertools.count():
        if step >= skip:
            fresh = ~((np.abs(state[3] - state[:3]).max(axis=0) > _RF_SPREAD * state[3]) | done)
            np.copyto(last, state, where=fresh)
            done |= fresh
            if done.all():
                break
        s = np.sqrt(state[:3])
        state += s[0] * s[1] + s[1] * s[2] + s[2] * s[0]
        state *= 0.25
    a = last[3]
    dx, dy = (a - last[0]) / a, (a - last[1]) / a
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)


def _ellipf(u: np.ndarray, c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """F(u | -c) = int_0^u dt / sqrt(1 + c sin^2 t) for real u, given k = K(-c) =
    R_F(0, 1 + c, 1); c and k broadcast against u.

    F(u | -c) = sin u R_F(cos^2 u, 1 + c sin^2 u, 1) on [-pi/2, pi/2], and
    F(u + j pi) = F(u) + 2 j K(-c).
    """
    j = np.round(u / np.pi)
    r = u - j * np.pi
    sin = np.sin(r)
    return sin * _carlson_rf(np.cos(r) ** 2, 1.0 + c * sin * sin, 1.0) + 2.0 * j * k


@functools.lru_cache(maxsize=64)
def _block_plan(blocks: tuple, size: int, ends: tuple) -> tuple:
    """The part of _block_sums that depends only on the blocks, the zero count
    and the schedule ends, built once per (blocks, size, ends); every array is
    read-only.

    The blocks are grouped into segments: each block of more than _FRAME zeros
    is a segment, and so is each longest run of the other blocks. Each f_n is
    the sum of the whole segments before n's segment (the first nwhole are
    summed whole), plus the range [0, q) of n's segment, unless q is the whole
    segment. Returns (whole, part, nwhole, take, rq, plain, cols, fr, frames):
    the ends that end a segment and the others; the prefix column each end
    reads (its segment's for a partial end); the length of each range; the
    (start, stop, columns) of each run of small blocks, summed term by term;
    the columns of the large blocks' ranges, shortest first, and each one's
    frame; and the frames as (start, count, angle, d, zero, h, 2 sqrt(1 - d),
    c, K(-c)), K computed for the window frames only (0 for the others).
    """
    big = [b.count > _FRAME for b in blocks]
    heads = [k for k in range(len(blocks)) if k == 0 or big[k] or big[k - 1]]
    first = np.array([blocks[k].start for k in heads], dtype=np.int64)  # segment starts
    stops = np.append(first[1:], size)
    ends = np.array(ends, dtype=np.int64)
    at = np.searchsorted(stops, ends)  # the segment holding zero n - 1
    q = ends - first[at]
    whole = q == stops[at] - first[at]
    nwhole = int(at[-1]) + int(whole[-1])  # segments 0..nwhole-1 are summed whole
    rs = np.concatenate([np.arange(nwhole), at[~whole]])  # each range's segment
    rq = np.concatenate([stops[:nwhole] - first[:nwhole], q[~whole]])
    plain: dict[int, list[int]] = {}  # segment summed term by term -> its columns by q
    framed: dict[tuple[int, bool], int] = {}  # (segment, q <= _FRAME) -> frame number
    cols, fr = [], []  # the Gregory columns, and each one's frame
    segs, lengths = rs.tolist(), rq.tolist()
    for col in sorted(range(rs.size), key=lengths.__getitem__):
        k = segs[col]
        if big[heads[k]]:
            cols.append(col)
            fr.append(framed.setdefault((k, lengths[col] <= _FRAME), len(framed)))
        else:
            plain.setdefault(k, []).append(col)
    frames = ()
    if framed:
        segment, zero = map(np.array, zip(*framed))
        start, count, angle, d = map(np.array, zip(*[blocks[heads[k]] for k in segment]))
        # int32 frame indices: a start or count past 2^31 would take 32 GiB of zeros
        start, count = start.astype(np.int32), count.astype(np.int32)
        c = 4.0 * (1.0 - d) / (d * d)
        kc = np.zeros(c.size)
        kc[~zero] = _carlson_rf(0.0, 1.0 + c[~zero], 1.0)
        frames = (start, count, angle, d, zero, TWO_PI / count, 2.0 * np.sqrt(1.0 - d), c, kc)
    runs = tuple((int(first[k]), int(stops[k]), np.array(c)) for k, c in plain.items())
    plan = (whole, ~whole, nwhole, at + whole, rq, runs, np.array(cols, dtype=np.int64),
            np.array(fr, dtype=np.int64), frames)
    for x in (*plan, *frames, *(c for *_, c in runs)):
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return plan


def _block_sums(seq: ZeroSequence, angles: np.ndarray, ends: np.ndarray,
                out: np.ndarray) -> None:
    """out[i, c] = f_n at angle i for n = ends[c] (n >= 1), on a sequence its
    blocks cover.

    The segments, ranges and frames come from _block_plan. Whole segments are
    prefix-summed once per angle; a run of small blocks is summed term by
    term (_tiled_sums), a large block's ranges by _range_sums from the block's
    frames. Every range sum depends only on its angle and range, so f_n does
    not depend on what else is in the batch, nor on which sequence built the
    plan: the stored angles and deficits are read at call time. The angles
    are tiled so that each tile's work arrays hold at most about
    _TILE_ELEMENTS elements.
    """
    whole, part, nwhole, take, rq, plain, cols, fr, frames = _block_plan(
        seq.blocks, len(seq), tuple(ends.tolist()))
    width = _TILE_ELEMENTS // _FRAME  # ranges per _range_sums call
    step = max(1, _TILE_ELEMENTS // (_FRAME * rq.size))
    for r0 in range(0, angles.size, step):
        theta = angles[r0:r0 + step]
        sums = np.empty((theta.size, rq.size))
        for lo, hi, c in plain:
            run = np.empty((theta.size, c.size))
            _tiled_sums(seq.angles[lo:hi], seq.deficits[lo:hi], theta, rq[c] - 1, run)
            sums[:, c] = run
        for c0 in range(0, cols.size, width):
            c = cols[c0:c0 + width]
            sums[:, c] = _range_sums(seq.angles, theta, frames, fr[c0:c0 + width], rq[c])
        prefix = np.cumsum(np.concatenate([np.zeros((theta.size, 1)), sums[:, :nwhole]], axis=1),
                           axis=1)
        rows = out[r0:r0 + step]
        rows[:, whole] = prefix[:, take[whole]]
        rows[:, part] = prefix[:, take[part]] + sums[:, nwhole:]


def _range_sums(stored: np.ndarray, theta: np.ndarray, frames: tuple, fr: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """Sum of the terms of zeros 0..q-1 of a block of more than _FRAME zeros for
    each range (columns), at each angle (rows); stored holds the sequence's
    angles.

    A range of more than _FRAME terms sums the indices within _WINDOW of
    theta's position, and runs shorter than _RUN_MIN next to them, directly;
    each longer run goes by Gregory's rule. A shorter range is summed directly.
    frames holds the direct frames from _block_plan: _FRAME indices of a block
    from its window's start less a short run, or from 0 (zero set) for the
    shorter ranges, with the block's constants. Range i masks and sums its own
    copy of frame fr[i]'s terms, zeros included, which keeps its bits.
    """
    start, count, angle, d, zero, h, scale, c, kc = frames
    greg = q > _FRAME
    theta = theta[:, None]
    j0 = np.mod((theta - angle) / h, count)
    jc = np.floor(j0 + 0.5).astype(np.int32)
    # each frame's first index, wrapped into [0, count) by one add; the later
    # indices then wrap by one subtract, as count > _FRAME
    lead = np.where(zero, 0, jc - (_WINDOW + _RUN_MIN - 1))
    lead += count * (lead < 0)
    idx = lead[..., None] + _FRAME_POS
    idx -= count[:, None] * (idx >= count[:, None])
    terms = stored[start[:, None] + idx]
    _fill_terms(terms, d[:, None], scale[:, None], theta[..., None], terms)
    # the window [w0, w1] around the index nearest theta's position, possibly
    # wrapping past 0 or count - 1; the rest of [0, q) is at most two runs
    # [lo, hi): [0, w0) and [w1 + 1, q), or the gap between the window's two
    # parts when it wraps (and an empty run)
    j0, jc, count = j0[:, fr], jc[:, fr], count[fr]
    w0, w1 = jc - _WINDOW, jc + _WINDOW
    wrap = (w0 < 0) | (w1 >= count)
    lo, hi = np.empty((2, 2, *jc.shape), dtype=np.int64)
    lo[0], lo[1] = (w1 + 1) % count * wrap, np.where(wrap, q, w1 + 1)
    hi[0], hi[1] = np.minimum(w0 % count, q), q
    long = greg & (hi - lo >= _RUN_MIN)
    idx = idx[:, fr]
    keep = idx < q[:, None]
    for r in (0, 1):
        keep &= ~(long[r, ..., None] & (idx >= lo[r, ..., None]) & (idx < hi[r, ..., None]))
    terms = terms[:, fr]
    terms *= keep
    total = terms.sum(axis=-1)
    if not long.any():
        return total
    side, row, col = np.nonzero(long)
    a, b = lo[side, row, col], hi[side, row, col] - 1
    nodes = np.concatenate([a[:, None] + _END_POS, b[:, None] - _END_POS], axis=1)
    frame = fr[col][:, None]
    hr, dr = h[frame], d[frame]
    # half the angle from theta to the closed-form angle of each node; j - j0
    # is exact near j0, so the rounding of u does not vary from node to node
    u = (0.5 * hr) * (nodes - j0[row, col][:, None])
    g = dr / np.hypot(dr, scale[frame] * np.sin(u))
    ends = ((g[:, :_RUN_MIN] * _END_WEIGHTS).sum(axis=1)
            + (g[:, _RUN_MIN:] * _END_WEIGHTS).sum(axis=1))
    # F at the run's two ends, a and b
    f = _ellipf(u[:, ::_RUN_MIN], c[frame], kc[frame])
    runs = np.zeros(long.shape)
    runs[side, row, col] = (2.0 / hr[:, 0]) * (f[:, 1] - f[:, 0]) + ends
    return total + runs[0] + runs[1]


def frostman_profile(seq: ZeroSequence, angle_count: int, *,
                     policy: FrostmanPolicy | None = None) -> FrostmanProfile:
    """Classify every angle of a uniform grid over doubling_schedule(len(seq)).

    The partial sums are frostman_classify's, row for row and bit for bit: the
    block route on a full-circle sequence, term by term on any other.  The grid
    has one CSV row per angle and schedule entry, at most MAX_ANGLES in all.
    """
    angles = uniform_angles(angle_count)
    policy = FrostmanPolicy() if policy is None else policy
    schedule = doubling_schedule(len(seq))
    if angle_count * len(schedule) > MAX_ANGLES:
        raise ValidationError(f"{angle_count} angles x {len(schedule)} schedule entries exceed "
                              f"the {MAX_ANGLES} row cap of the frostman grid")

    sums = _schedule_sums(seq, angles, schedule)
    classifications = tuple(_classify_sums(row, policy)[0] for row in sums.tolist())
    return FrostmanProfile(
        angles=angles,
        schedule=schedule,
        partial_sums=sums,
        classifications=classifications,
        divergent_fraction=classifications.count(DIVERGENT) / angle_count,
    )
