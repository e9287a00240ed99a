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
import collections
import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from . import config
from .errors import PoleError, PrefixExhaustedError, ValidationError
from .textio import write_values
from .unitdisc import (
    TWO_PI,
    LevelBlock,
    ZeroSequence,
    _positive_finite,
    _positive_int,
    circle_points,
    normalize_angle,
    uniform_angles,
)

# Radius schedules stop at 1 - 2^-53, the float just below 1.
MAX_RADIUS_LEVELS = 53

# Factor rows times points per tile of _products: 256 KiB of numerators, as
# much of denominators and of the points spread over the rows; a value's bits
# do not depend on it.
_TILE_ELEMENTS = 2 ** 14

# Factors per group of _products: one complex division per group and point.
# Below _POLE_FREE_RADIUS each factor's |a| |1 - conj(a) z| is at least 2^-55, so
# a group's scaled denominator stays above 2^(-55 G) = 2^-880, a normal float.
_GROUP = 16

# No factor denominator 1 - conj(a) z rounds to 0 below this modulus: |conj(a)| <= 1 + 3 eps
# and Re(conj(a) z) is within 3 eps of exact, so it stays below 1 for |z| < 1 - 8 eps.
_POLE_FREE_RADIUS = 1.0 - 2.0 ** -48


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


def _expm1j(x: np.ndarray, half: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """e^(x + iy) - 1 with relative accuracy, from half = sin(y/2), cos y and
    sin y (broadcast against x): expm1(x) cos y - 2 half^2 + i e^x sin y."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.subtract(np.expm1(x) * cos, 2.0 * half * half, out=out.real)
    np.multiply(np.exp(x), sin, out=out.imag)
    return out


@dataclass(frozen=True)
class BlaschkeProduct:
    """A Blaschke product over a stored zero prefix.

    Frozen, so the arrays it derives from its zeros and tolerance stay theirs.

    Evaluation inside the disc picks the shortest prefix whose certified tail
    bound (including the sequence's extension mass) is below truncation_tolerance.
    Construction keeps per-block scalars only; the per-zero arrays are built
    on first use.  The factor arrays are built for the first factor range or
    pole rescan.  The deficit prefix sums (_mass) are built for a tail bound
    short of the whole prefix, and for the prefix rule at a tolerance at
    least the extension mass, the only case where a count can certify.

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
        # frozen: the arrays derived from the zeros are written past __setattr__
        seq, state = self.zeros, vars(self)
        state["_block_ends"] = ends = np.array([b.start + b.count for b in seq.blocks],
                                               dtype=np.int64)
        state["_gaps"] = [(lo, b.start) for lo, b in zip([0, *ends.tolist()], seq.blocks)
                          if b.start > lo]  # factor ranges before a block
        if seq.blocks:  # count m, start angle s, log rho and m log rho, rho = fl(1 - d)
            m = np.array([b.count for b in seq.blocks], dtype=np.float64)
            rho = 1.0 - seq.deficits[[b.start for b in seq.blocks]]
            log_rho = np.log1p(-(1.0 - rho))
            lrho = m * log_rho
            state.update(
                _block_m=m, _block_s=np.array([b.angle for b in seq.blocks], dtype=np.float64),
                _block_log_rho=log_rho, _block_lrho=lrho,
                _block_lrho_pair=np.array([-lrho, lrho])[:, None, :],  # (2, 1, blocks)
                _block_period=TWO_PI / m, _block_rho_m=np.exp(lrho),
                # m (1 - rho^2m) and m (1 - rho^2), the phase bounds' numerators
                _block_common=m * -np.expm1(2.0 * lrho), _block_spread=m * -np.expm1(2.0 * log_rho),
            )

    @functools.cached_property
    def _mass(self) -> np.ndarray:
        """mass[n]: the deficit sum of the first n zeros."""
        mass = np.zeros(len(self.zeros) + 1)
        np.cumsum(self.zeros.deficits, out=mass[1:])
        return mass

    @functools.cached_property
    def _factor_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """|a|^2, conj(a) and the scale |a| per zero, all complex, built for the
        first factor range or pole rescan, each followed by _GROUP neutral
        entries (0, 0 and 1) that let a tile end on a whole group; and the
        indices of the zeros at the origin, whose scale is 1 and whose
        numerator the tile sets to z."""
        absa = 1.0 - self.zeros.deficits
        conj_a = np.conj(absa * np.exp(1j * self.zeros.angles))
        pad = np.zeros(_GROUP)
        return (np.concatenate([absa * absa, pad]).astype(np.complex128),
                np.concatenate([conj_a, pad]),
                np.concatenate([np.where(absa > 0.0, absa, 1.0), pad + 1.0]).astype(np.complex128),
                np.flatnonzero(absa == 0.0))

    @functools.cached_property
    def _chase_levels(self) -> list:
        """The deficit levels of the stored zeros, deepest last, for the zero chase.

        A level is a LevelBlock when it is exactly one block of deficit d >= 2^-48,
        else the complex zeros of the level inside the circle, in index order.
        Which blocks are levels is read from the blocks and the zeros in no
        block, so the zeros of level blocks are never visited.
        Zeros whose deficit is below float resolution collapse onto the circle in
        complex form; they are not valid evaluation points, so the chain stops
        before them.  A zero is inside when its modulus, taken as the evaluator
        takes it (np.hypot of the parts, the bits of Python's abs; numpy's
        complex abs can round it up to 1), is below 1.  A block's zeros lie
        below 1 - 2^-50: fl(1 - d) is within eps/2 of 1 - d, and rounding e^(it),
        the product and the modulus adds at most 6 eps.
        """
        seq = self.zeros
        end = int(self._block_ends[-1]) if seq.blocks else 0
        rest = [*self._gaps, (end, len(seq))]  # the ranges in no block (the last may be empty)
        # a block is a level when no other zero shares its deficit: no other
        # block's, and none of the zeros in no block
        shared = collections.Counter(b.deficit for b in seq.blocks)
        if seq.blocks:
            shared.update(set(np.concatenate([seq.deficits[lo:hi] for lo, hi in rest]).tolist()))
        levels: dict[float, object] = {}
        for b in seq.blocks:
            if b.deficit >= 2.0 ** -48 and shared[b.deficit] == 1:
                levels[b.deficit] = b
            else:
                rest.append((b.start, b.start + b.count))
        idx = np.concatenate([np.arange(lo, hi) for lo, hi in sorted(rest)])
        zs = _zeros_at(seq, idx)
        inside = np.hypot(zs.real, zs.imag) < 1.0
        idx, zs = idx[inside], zs[inside]
        order = np.argsort(-seq.deficits[idx], kind="stable")  # ties keep index order
        idx, zs = idx[order], zs[order]
        cuts = np.flatnonzero(np.diff(seq.deficits[idx])) + 1
        for group, level in zip(np.split(idx, cuts), np.split(zs, cuts)) if idx.size else ():
            levels[float(seq.deficits[group[0]])] = level
        return [levels[d] for d in sorted(levels, reverse=True)]

    def __len__(self) -> int:
        return len(self.zeros)

    def _check_pole(self, z: complex, n: int) -> None:
        """Raise PoleError if z is the pole of one of the first n factors."""
        den = 1.0 - self._factor_arrays[1][:n] * z
        if np.any(den == 0.0):
            k = int(np.argmin(np.abs(den)))
            raise PoleError(
                f"evaluation point {z!r} is the pole of the factor at zero #{k}"
            )

    def _products(self, z: np.ndarray, lo: int, hi) -> np.ndarray:
        """Product of factors lo..hi[i]-1 at each point z[i] (hi an array, or
        one end for all).  A value depends only on z[i], lo and its end, not
        on the tile size or the other points.  A pole leaves a non-finite value.

        A factor is (|a|^2 - w) / (|a| (1 - w)) with w = conj(a) z, and z / 1
        for a zero at the origin (scale 1).  The factors are taken in groups
        of _GROUP counted from lo; the group in which a point's range ends is
        padded with exact ones past its end.  Per group and point the
        numerators and the denominators are chained apart, strictly left to
        right with every complex multiply rounded as numpy's SIMD multiply
        rounds it; the denominator product times the group's |a| product (a
        complex multiply by |a| + 0i, each part rounded as by a real one) is
        divided into the numerator product once; and the quotients are
        chained left to right into the value.  In a 32 x 512 tile a division
        per factor took about 70 of 170 us, and the group quotients take 5 us
        (shared 2-vCPU Xeon with AVX-512, numpy 2.4.6; _fill has the rest).

        Range: below _POLE_FREE_RADIUS, fl(Re w) < 1, so Re(1 - w), exact by
        Sterbenz near 1, is at least 2^-53; where |a| <= 1/2 it is at least
        1/2 - 3 eps, and |a| >= 2^-53 for a zero off the origin.  So each
        factor has |a| |1 - w| >= 2^-55, and a group's scaled denominator is
        at least 2^(-55 _GROUP) = 2^-880 (up to 2 _GROUP eps): a normal float,
        so a numerator that underflows moves its quotient by under 2^-190, and
        nothing overflows (|a|^2, |w| and |1 - w| stay below 2.01).  The case
        this does not cover is a real part that rounds to exactly 0, which
        needs fl(Re w) = 1 and so |z| >= _POLE_FREE_RADIUS; such points are
        chained in groups of one, a division per factor.  _GROUP = 16 keeps
        880 below 1022 with a margin of 2^142; 32 would not.

        One point is _point.  More points are evaluated in tiles of whole
        groups in factor order, points contiguous, at most _TILE_ELEMENTS //
        _GROUP points per pass.  Points are stable-sorted by end; per tile,
        each distinct last group is one reduce of the group quotients on the
        points still running, with their running products in the row ahead.
        A one-column reduce would take numpy's unfused loop: a last running
        point is reduced beside a finished one whose result is dropped.
        """
        lengths = np.subtract(hi, lo, out=np.zeros(z.size, dtype=np.int64))
        near = np.hypot(z.real, z.imag) >= _POLE_FREE_RADIUS
        with np.errstate(divide="ignore", invalid="ignore"):
            if not near.any():
                return self._chain(z, lo, lengths, _GROUP)
            out = np.empty(z.size, dtype=np.complex128)
            for group, at in ((_GROUP, ~near), (1, near)):
                out[at] = self._chain(z[at], lo, lengths[at], group)
        return out

    def _fill(self, num: np.ndarray, den: np.ndarray, f0: int, zs: np.ndarray) -> None:
        """Numerators and denominators of factors f0.. at the points zs[0] into
        the rows of num and den (factors, points); zs holds the points in every
        row.  numpy's loops over two whole arrays run about 2.5 times faster
        than with one operand broadcast along a row (a 32 x 512 complex
        multiply: 10 against 25 us), so each factor's coefficient is first
        spread over its row of num."""
        absa2, conj_a, _, origins = self._factor_arrays
        f = slice(f0, f0 + num.shape[0])
        np.copyto(num, conj_a[f, None])
        np.multiply(num, zs, out=den)
        np.copyto(num, absa2[f, None])
        np.subtract(num, den, out=num)
        np.subtract(1.0, den, out=den)
        if origins.size:
            num[origins[(origins >= f.start) & (origins < f.stop)] - f0] = zs[0]

    def _coefficients(self, f0: int, groups: int, g: int) -> tuple[np.ndarray, np.ndarray]:
        """[conj(a), conj(a), 0] and [|a|^2, 1, scale] of the factors in the
        given groups of g from factor f0, as (g, groups, 3) arrays with factor
        f0 + i g + r at [r, i]: one multiply by z and one subtract give the
        three columns of a _point tile."""
        absa2, conj_a, scale, _ = self._factor_arrays
        f = slice(f0, f0 + g * groups)
        conj = np.zeros((g, groups, 3), dtype=np.complex128)
        coef = np.ones((g, groups, 3), dtype=np.complex128)
        conj[..., 0] = conj[..., 1] = conj_a[f].reshape(groups, g).T
        coef[..., 0] = absa2[f].reshape(groups, g).T
        coef[..., 2] = scale[f].reshape(groups, g).T
        return conj, coef

    @functools.cached_property
    def _point_tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """_coefficients of the one-point route: groups of _GROUP from factor 0,
        up to the first whole block and at most one tile."""
        end = int(self._block_ends[0]) if self._block_ends.size else len(self)
        return self._coefficients(0, min(-(-end // _GROUP), max(1, _TILE_ELEMENTS // (3 * _GROUP))),
                                  _GROUP)

    def _point(self, z: complex, lo: int, n: int, g: int) -> np.ndarray:
        """_products at the one point z over factors lo..lo+n-1, n > 0, in groups
        of g.  Its numerators, denominators and scales are the three columns of
        a (g, groups, 3) tile (_coefficients), so one reduce over the first
        axis chains all three for every group (a complex multiply of real
        scales is the real one in its parts); its quotients are chained as
        two equal columns."""
        origins = self._factor_arrays[3]
        count = -(-n // g)
        step = max(1, _TILE_ELEMENTS // (3 * g))  # groups per tile
        cached = lo == 0 and g == _GROUP and count <= self._point_tiles[0].shape[1]
        nd = np.empty((count, 3), dtype=np.complex128)
        for i in range(0, count, step):
            size, f0 = min(step, count - i), lo + i * g
            conj, coef = ([c[:, i:i + size] for c in self._point_tiles] if cached
                          else self._coefficients(f0, size, g))
            t = np.multiply(conj, z)
            np.subtract(coef, t, out=t)
            if origins.size:
                for k in (origins[(origins >= f0) & (origins < f0 + g * size)] - f0).tolist():
                    t[k % g, k // g, 0] = z
            if n < (i + size) * g:  # the last group is padded with ones past factor n
                t[n - (i + size - 1) * g:, size - 1] = 1.0
            np.multiply.reduce(t, axis=0, initial=None, out=nd[i:i + size])
        q = np.divide(nd[:, :1], nd[:, 1:2] * nd[:, 2:], out=np.empty((count, 2), dtype=np.complex128))
        return q[0, :1] if count == 1 else np.multiply.reduce(q, axis=0, initial=None)[:1]

    def _chain(self, z: np.ndarray, lo: int, lengths: np.ndarray, g: int) -> np.ndarray:
        """_products over factors lo..lo+lengths[i]-1 in groups of g."""
        if z.size < 2:
            return self._point(z.item(), lo, int(lengths[0]), g) if z.size and lengths[0] \
                else np.ones(z.size, dtype=np.complex128)
        step = max(2, _TILE_ELEMENTS // g)  # points per call: a tile of one group at most
        if z.size > step:
            return np.concatenate([self._chain(z[i:i + step], lo, lengths[i:i + step], g)
                                   for i in range(0, z.size, step)])
        width = int(lengths.max(initial=0))
        order = None if lengths.min(initial=width) == width else lengths.argsort(kind="stable")
        z, lengths = (z, lengths) if order is None else (z[order], lengths[order])
        acc = np.ones(z.size, dtype=np.complex128)  # before the buffers: they free the heap top
        size = min(max(step, z.size), -(-width // g) * z.size)  # groups x points
        t_buf = np.empty(2 * g * size, dtype=np.complex128)
        z_buf = np.empty(g * size, dtype=np.complex128)  # the tile's points in every row
        q_buf = np.empty(size + z.size, dtype=np.complex128)
        spread = (0, 0)  # the first point and the rows in z_buf
        scale = self._factor_arrays[2]
        # run: the first point still running at factor c
        run, c, last = int(lengths.searchsorted(0, "right")), 0, z.size - 2
        while c < width:  # one tile: groups from factor c, quotient row 0 spare
            s = min(run, last)  # no reduce starts past column `last`
            col = z[s:]
            count = min(max(1, _TILE_ELEMENTS // (g * col.size)), -(-(width - c) // g))
            t = t_buf[:2 * g * count * col.size].reshape(2, g * count, col.size)
            q = q_buf[:(count + 1) * col.size].reshape(count + 1, col.size)
            if spread[0] != s or spread[1] < g * count:
                spread = (s, g * count)
                np.copyto(z_buf[:g * count * col.size].reshape(-1, col.size), col)
            self._fill(t[0], t[1], lo + c, z_buf[:g * count * col.size].reshape(-1, col.size))
            f = slice(lo + c, lo + c + g * count)
            if lengths[run] >= c + g * count:  # no point ends here: one segment
                scales = np.multiply.reduce(scale[f].reshape(count, g), axis=1)[:, None]
                firsts, rows = [0], [count]
            else:  # a point ending here has its last group padded with ones
                left = lengths[s:] - c  # factors left per point
                first = int(left[run - s])  # rows from `first` on are some point's padding
                table = np.ones((count, g + 1), dtype=np.complex128)  # |a| products of first k
                np.multiply.accumulate(scale[f].reshape(count, g), axis=1, out=table[:, 1:])
                if first == left[-1]:  # the points running here all end at `first`
                    t[:, first:] = 1.0
                    row = -(-first // g)
                    table[row - 1, g] = table[row - 1, first - g * (row - 1)]
                    scales, firsts, rows = table[:, g:], [0], [row]
                else:
                    np.copyto(t[:, first:], 1.0, where=np.arange(first, g * count)[:, None] >= left)
                    used = left - g * np.arange(count)[:, None]  # factors used of each group
                    np.minimum(np.maximum(used, 0, out=used), g, out=used)
                    scales = table[np.arange(count)[:, None], used]
                    rows = np.minimum(-(-left[run - s:] // g), count)  # each point's last group
                    firsts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()]
                    rows = rows[firsts].tolist()
            nd = np.multiply.reduce(t.reshape(2, count, g, col.size), axis=2, initial=None)
            np.divide(nd[0], nd[1] * scales, out=q[1:])
            # one reduce per distinct last group, on the points from k on, their
            # running products in the row ahead (once one is started)
            prev = 0
            for i, row in zip(firsts, rows):
                k, started = run + i, c or prev
                k0 = min(k, last)
                if started and row - prev == 1:  # one row: one binary multiply, not in place
                    acc[k:] = (acc[k0:] * q[row, k0 - s:])[k - k0:]
                else:
                    if started:
                        q[prev, k0 - s:] = acc[k0:]
                    part = q[prev + (not started):row + 1, k0 - s:]
                    acc[k:] = np.multiply.reduce(part, axis=0, initial=None)[k - k0:]
                prev = row
            c += g * count
            run = int(lengths.searchsorted(c, "right"))
        if order is not None:
            acc[order] = acc.copy()
        return acc

    def _closed_forms(self, z: np.ndarray, k: int) -> np.ndarray:
        """Product over each of the first k blocks at each point, (points x k).

        With psi = m ((arg z - s) mod 2 pi/m), l_r = m log|z| and
        l_rho = m log rho, u^m = e^(l_r + i psi) and rho^m = e^(l_rho), so
        (rho^m - u^m)/(1 - rho^m u^m)
            = e^(l_rho) expm1(l_r - l_rho + i psi) / expm1(l_rho + l_r + i psi),
        which keeps its relative accuracy where u^m is close to rho^m.
        """
        m = self._block_m[:k]
        col = z[:, None]
        mod = np.abs(col)
        if np.count_nonzero(mod) == mod.size:  # no log 0; an errstate costs about a log
            lr = m * np.log(mod)
        else:
            with np.errstate(divide="ignore"):
                lr = m * np.log(mod)
        psi = m * np.mod(np.arctan2(col.imag, col.real) - self._block_s[:k], self._block_period[:k])
        np.subtract(psi, TWO_PI, out=psi, where=psi > math.pi)
        # numerator and denominator share one expm1: lr + (-l_rho) is lr - l_rho exactly
        e = _expm1j(lr + self._block_lrho_pair[..., :k], np.sin(0.5 * psi), np.cos(psi),
                    np.sin(psi))
        return self._block_rho_m[:k] * e[0] / e[1]

    def _value(self, z: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Product of the first counts[i] factors at each point z[i].

        Blocks lying inside a point's prefix contribute one closed-form
        factor each, in block order, and the factor ranges outside them one
        product each, in index order.  These parts are multiplied row by
        row, left to right, each row up to its own last part (a reduction,
        so a value does not depend on the other points in the call).
        Points covering the same number of whole blocks are evaluated
        together (_covering); without such blocks this is _products(z, 0, counts).
        """
        if not self._block_ends.size:
            return self._products(z, 0, counts)
        covered = self._block_ends.searchsorted(counts, "right")
        groups = set(covered.tolist())
        if len(groups) < 2:
            return self._covering(z, counts, groups.pop() if groups else 0)
        out = np.empty(z.size, dtype=np.complex128)
        for k in groups:
            at = (covered == k).nonzero()[0]
            out[at] = self._covering(z[at], counts[at], k)
        return out

    def _covering(self, z: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
        """_value at points whose prefixes all cover exactly the first k blocks."""
        if k == 0:
            return self._products(z, 0, counts)
        step = max(1, _TILE_ELEMENTS // (2 * k))  # rows per tile
        if z.size > step:
            return np.concatenate([self._covering(z[at:at + step], counts[at:at + step], k)
                                   for at in range(0, z.size, step)])
        lo = int(self._block_ends[k - 1])
        columns = [self._closed_forms(z, k)]
        columns += [self._products(z, a, b)[:, None] for a, b in self._gaps if b < lo]
        # a factor range after the last whole block, in the rows whose prefix reaches it;
        # the other rows leave its column out (x (1 + 0i) can flip the sign of a zero part)
        if lo < len(self) and np.count_nonzero(past := counts > lo):
            columns.append(self._products(z, lo, counts)[:, None])
            parts = np.hstack(columns)
            out = np.multiply.reduce(parts[:, :-1], axis=1)
            out[past] = np.multiply.reduce(parts[past], axis=1)
            return out
        return np.multiply.reduce(np.hstack(columns) if len(columns) > 1 else columns[0], axis=1)

    def _phase_bounds(self, r: np.ndarray, k) -> np.ndarray:
        """Error bound of the first k[i] closed-form blocks at |z| = r[i] (k an
        array, or one int for every row).

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
        col = r[:, None]
        if np.count_nonzero(r) == r.size:  # no log 0; an errstate costs about a log
            log_r = np.log(col)
        else:
            with np.errstate(divide="ignore"):
                log_r = np.log(col)
        lr = self._block_m * log_r
        x_m = np.expm1(self._block_lrho + lr)  # rho^m r^m - 1; its sign cancels below
        common = self._block_common * np.exp(lr) / (x_m * x_m)
        spread = (self._block_spread * col * (2.0 + x_m)
                  / (np.expm1(2.0 * (self._block_log_rho + log_r)) * x_m))
        terms = _PHASE_KAPPA * _ULP_2PI * (common + spread)
        # the uncovered blocks' terms are zeroed, not cut, so every row sums all columns
        blocks = terms.shape[1]
        if np.ndim(k):
            if k.min(initial=blocks) < blocks:
                terms[np.arange(blocks) >= k[:, None]] = 0.0
        elif k < blocks:
            terms[:, k:] = 0.0
        return np.add.reduce(terms, axis=1)

    def eval_partial(self, n: int, z: complex) -> complex:
        """Product of the first n stored factors, in stored order.

        Factors are chained in fixed groups (_products), so results are
        deterministic run to run.  Full-circle blocks inside the prefix are
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
        acc = complex(self._value(np.array([z]), np.array([n]))[0])
        if not cmath.isfinite(acc):
            self._check_pole(z, n)  # locates the pole and raises with its index
        return acc

    def factors_needed(self, r: float, tol: float) -> int:
        """The count the prefix rule certifies at radius r for tol, or -1 if none."""
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0.0 <= r < 1.0:
            raise ValidationError(f"truncation requires |z| < 1, got radius {r!r}")
        over, count, _ = self._prefix_rule(float(r), _positive_finite(tol, "tol"))
        return -1 if over else int(count)

    def tail_bound(self, r: float, n: int) -> float:
        """Certified bound on |B - B_n| for |z| <= r (truncation only); n <= 0
        means no factor used."""
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0.0 <= r < 1.0:
            raise ValidationError(f"tail bound requires radius < 1, got {r!r}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n > len(self):
            raise ValidationError(
                f"factor count must be an integer of at most {len(self)}, got {n!r}")
        r = float(r)
        return self._tail((1.0 + r) / (1.0 - r), max(n, 0))

    def _tail(self, growth, n):
        """tail_bound from growth = (1 + r)/(1 - r), elementwise over arrays."""
        return growth * (self._mass[-1] - self._mass[n] + self.zeros.extension_mass)

    def _prefix_rule(self, r, tol: float):
        """The prefix rule at a radius r in [0, 1), a float or an array of
        them, for tol > 0: whether no count is certified, the count used (the
        certified one, else the whole prefix) and its truncation bound.

        _mass is built on the first call where the extension mass is at most
        tol.  Where it exceeds tol no radius certifies a count, as the budget
        tol/growth is at most tol (growth >= 1 in floating point), and the
        rule returns the whole prefix and growth times the extension mass:
        the bits of the mass formula, whose stored part is then exactly 0.
        """
        growth = (1.0 + r) / (1.0 - r)
        budget = tol / growth
        ext = self.zeros.extension_mass
        over = ext > budget
        if ext > tol:  # over everywhere
            counts = np.full(r.shape, len(self)) if isinstance(r, np.ndarray) else len(self)
            return over, counts, growth * ext
        # smallest N with stored plus extension mass - _mass[N] <= budget
        n = self._mass.searchsorted(self._mass[-1] + ext - budget)
        counts = n + over * (len(self) - n)  # the whole prefix where over
        return over, counts, self._tail(growth, counts)

    def eval_many(self, points, *, strict: bool) -> BatchEval:
        """Value, factor count and tail bound at each point.

        |z| is np.hypot of z's parts, which has the bits of Python's abs.  The
        counts and bounds of the points before the first one outside [0, 1)
        are chosen at once (_prefix_rule), and those points are evaluated in
        one pass, each to its own count (_value).  The tail bound is the
        truncation bound plus, for each closed-form block used, its phase
        bound; strict mode fails where that sum exceeds truncation_tolerance.
        A failure is raised as the first failing point in input order raises
        it, a strict one with the point's recorded bound.  One point with
        |z| < 1 - 2^-48 that does not fail skips the array bookkeeping: the
        rule at a float radius, then _phase_bounds and the kernels of _value
        on one-element rows, or for a prefix covering no whole block _point,
        whose tile is one multiply and one subtract on cached coefficients.
        Batched and one-point calls agree bit for bit.
        """
        tol = self.truncation_tolerance
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        # one point below _POLE_FREE_RADIUS (no pole) that does not fail: the array route's ufuncs
        w = z.item() if z.size == 1 else None
        if w is not None and abs(w) < _POLE_FREE_RADIUS:
            at = abs(w)  # np.hypot's bits
            over, n, bound = self._prefix_rule(at, tol)
            k = int(self._block_ends.searchsorted(n, "right")) if self._block_ends.size else 0
            if k:
                bound += self._phase_bounds(np.array([at]), k)[0]
            if not (strict and (over or bound > tol)):
                if not k and n:  # no block: the point's own chain, in groups of _GROUP
                    values = self._point(w, 0, int(n), _GROUP)
                else:
                    values = self._covering(z, np.array([n]), k)
                return BatchEval(values, np.array([n]), np.array([bound]))
        r = np.hypot(z.real, z.imag)
        stop = z.size if r.max(initial=0.0) < 1.0 else int((r < 1.0).argmin())  # r >= 0 or nan
        over, counts, bounds = self._prefix_rule(r[:stop], tol)
        if self._block_ends.size:
            bounds += self._phase_bounds(r[:stop], self._block_ends.searchsorted(counts, "right"))
        if strict:
            # rounding in the tail mass can leave a certified count's bound above tol
            failed = over | (bounds > tol)
            stop = int(failed.argmax()) if failed.any() else stop
        values = self._value(z[:stop], counts[:stop])
        if not np.isfinite(values.sum()):  # |values| <= 1, so only a pole makes it infinite
            first = int(np.argmin(np.isfinite(values)))  # raise with the first pole's index
            self._check_pole(complex(z[first]), int(counts[first]))
        if stop < z.size:
            at = float(r[stop])
            if stop == bounds.size:
                raise ValidationError(f"truncation requires |z| < 1, got radius {at!r}")
            raise PrefixExhaustedError(
                f"stored prefix of {len(self)} zeros cannot reach tolerance "
                f"{tol:g} at |z| = {at:.6g} (achieved tail bound {bounds[stop]:.6g})",
                tail_bound=float(bounds[stop]),
            )
        return BatchEval(values, counts, bounds)

    def eval_best_effort(self, z: complex) -> TruncatedEval:
        """eval_many at one point, falling back to the full stored prefix."""
        values, counts, bounds = self.eval_many([complex(z)], strict=False)
        return TruncatedEval(values.item(), counts.item(), bounds.item())


def _require_product(product) -> None:
    if not isinstance(product, BlaschkeProduct):
        raise ValidationError(f"cannot evaluate object of type {type(product).__name__}; "
                              "expected a BlaschkeProduct")


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


def _late_windows(values: np.ndarray, ends: Sequence[int], window: int, tol: float):
    """Judge the last `window` values of each path: path i is values[ends[i - 1]:ends[i]]
    (from 0 for the first).

    One matrix of |v_i - v_j| over the pooled windows gives each window's
    diameter (its diagonal block) and the diameter of all of them. Returns
    [(diameter, mean or None), ...] per path, the mean given when the diameter
    is below tol, and the pooled diameter.
    """
    bounds = [(max(lo, hi - window), hi) for lo, hi in zip([0, *ends], ends)]
    pooled = np.concatenate([values[lo:hi] for lo, hi in bounds])
    dist = np.abs(pooled[:, None] - pooled[None, :])
    judged, at = [], 0
    for lo, hi in bounds:
        osc = float(dist[at:at + hi - lo, at:at + hi - lo].max())
        judged.append((osc, complex(np.mean(values[lo:hi])) if osc < tol else None))
        at += hi - lo
    return judged, float(dist.max())


@dataclass(frozen=True, eq=False)
class RadialTrace:
    """Samples of a Blaschke product along a ray toward e^(i*angle).

    ``samples`` is the eval_many record of the ray's points (value, factor
    count and tail bound per radius).  ``oscillation`` is the diameter (max
    pairwise distance) of the last min(window, len) values; ``limit_estimate``
    is their mean when the oscillation is below the verdict tolerance, else
    None.  The window and tolerance are the config defaults
    ``oscillation_window`` and ``verdict_tolerance``.
    """

    angle: float
    radii: np.ndarray
    samples: BatchEval
    limit_estimate: complex | None
    oscillation: float

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    def write_csv(self, handle: TextIO) -> None:
        write_values(handle, "radius", self.radii, self.values)


def _radius_schedule(radii: Sequence[float] | None) -> np.ndarray:
    """The radii as an array (default_radius_schedule() if None): nonempty,
    strictly increasing and inside (0, 1), so nan is refused too."""
    r = default_radius_schedule() if radii is None else np.asarray(radii, dtype=np.float64)
    if r.size == 0:
        raise ValidationError("radial trace needs at least one radius")
    if not np.all((r > 0.0) & (r < 1.0)):
        raise ValidationError("trace radii must lie in (0, 1)")
    if np.any(np.diff(r) <= 0.0):
        raise ValidationError("trace radii must be strictly increasing")
    return r


def radial_trace(
    product: BlaschkeProduct,
    angle: float,
    radii: Sequence[float] | None = None,
) -> RadialTrace:
    """Sample the product along the ray of the given angle and judge the
    radial limit with the config defaults."""
    _require_product(product)
    radii_arr = _radius_schedule(radii)
    angle = normalize_angle(angle)
    samples = product.eval_many(radii_arr * cmath.exp(1j * angle), strict=False)
    [(osc, estimate)], _ = _late_windows(samples.values, [radii_arr.size],
                                         config.DEFAULTS["oscillation_window"],
                                         config.DEFAULTS["verdict_tolerance"])
    return RadialTrace(angle=angle, radii=radii_arr, samples=samples,
                       limit_estimate=estimate, oscillation=osc)


@dataclass(frozen=True, eq=False)
class BoundaryScan:
    """Uniform-angle samples of a Blaschke product on the circle of radius r,
    with the eval_many record (value, factor count and tail bound per angle)."""

    angles: np.ndarray
    samples: BatchEval
    modulus_min: float
    modulus_max: float

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    def write_csv(self, handle: TextIO) -> None:
        write_values(handle, "angle", self.angles, self.values)


def boundary_scan(
    product: BlaschkeProduct,
    r: float,
    angle_count: int,
    *,
    strict: bool = True,
) -> BoundaryScan:
    """Scan the product on |z| = r at angle_count uniform angles.

    Truncation failures propagate (pass strict=False for best-effort sampling).
    """
    _require_product(product)
    if not (0.0 < r < 1.0):
        raise ValidationError(f"scan radius must lie in (0, 1), got {r!r}")
    angles = uniform_angles(angle_count)
    samples = product.eval_many(circle_points(r, angles), strict=strict)
    moduli = np.abs(samples.values)
    return BoundaryScan(angles, samples, float(moduli.min()), float(moduli.max()))


# The probe family's offset paths, in family order: the radial ray, the
# nontangential pair (slope 1) and the tangential pair (0.1 sqrt s).
_PATH_NAMES = ("radial", "nontangential+", "nontangential-", "tangential+", "tangential-")


def _path_offsets(s):
    """Angular offsets of the five offset paths, one row per path, where the
    path visits (1 - s) e^(i(angle + offset)); s is a float or an array."""
    t = 0.1 * np.sqrt(s)
    return np.array([np.zeros_like(t), s, -s, t, -t])


# A zero-chase path is dropped unless it ends within this chord distance of
# the boundary point; otherwise the stored zeros do not approach the point
# and the path would not witness anything about its cluster set.
_ZERO_CHASE_REACH = 0.05


def _zeros_at(seq: ZeroSequence, idx) -> np.ndarray:
    """The stored zeros at the given indices as complex numbers (lossy for tiny deficits)."""
    return (1.0 - seq.deficits[idx]) * np.exp(1j * seq.angles[idx])


def _zero_chase_path(product: BlaschkeProduct, angle: float) -> list[complex] | None:
    """Chain of stored zeros with strictly decreasing distance to e^(i*angle).

    One candidate per deficit level (generated sequences share one deficit per
    level), the nearest first, ties to the lowest index; in a full-circle
    block only the arithmetic nearest zero and its two neighbours can be
    nearest, and the candidates of all blocks are built together. Blaschke
    products vanish at their zeros, so when zeros accumulate at the boundary
    point this path pins 0 into the cluster set.
    """
    levels = product._chase_levels
    if not levels:
        return None
    picks = []  # each block level's arithmetic nearest zero and its neighbours
    for level in levels:
        if isinstance(level, LevelBlock):
            j = round((angle - level.angle) / (TWO_PI / level.count))
            picks.append(sorted({level.start + (j + i) % level.count for i in (-1, 0, 1)}))
    near = iter(np.split(_zeros_at(product.zeros, [i for p in picks for i in p]),
                         np.cumsum([len(p) for p in picks[:-1]], dtype=np.int64)))
    zs = [next(near) if isinstance(level, LevelBlock) else level for level in levels]
    sizes = [z.size for z in zs]
    starts = np.cumsum([0, *sizes[:-1]])
    zs = np.concatenate(zs)
    dist = np.abs(zs - cmath.exp(1j * angle))
    # descending deficit = shallow levels first, so the chain walks outward; a
    # level joins when its nearest zero is nearer than every shallower level's
    low = np.minimum.reduceat(dist, starts)
    chain = np.flatnonzero(low < np.minimum.accumulate(np.append(math.inf, low[:-1])))
    if chain.size < 2 or low[chain[-1]] > _ZERO_CHASE_REACH:
        return None
    # the first zero of each level at the level's least distance: ties go to the lowest index
    first = np.flatnonzero(dist == np.repeat(low, sizes))
    return zs[first[np.searchsorted(first, starts[chain])]].tolist()


class PathLimit(NamedTuple):
    name: str
    estimate: complex | None
    oscillation: float


@dataclass(frozen=True, eq=False)
class LimitProbeReport:
    """Per-path limit verdicts at one boundary angle plus a cluster estimate.

    ``samples`` is the eval_many record of all paths' points in family order
    (value, factor count and tail bound per point); path i holds entries
    path_ends[i - 1] (0 for the first) to path_ends[i].
    cluster_diameter_estimate is the diameter of the pooled late-window
    values of all paths, at least the max pairwise distance between per-path
    limit estimates.  It is the diameter of the sampled values only, not a
    bound on the cluster set's: finite radii are not limit points, and each
    value is off the true product by up to its tail bound in ``samples``.
    """

    angle: float
    path_limits: tuple[PathLimit, ...]
    cluster_diameter_estimate: float
    radial_exists: bool
    samples: BatchEval
    path_ends: tuple[int, ...]

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
    product: BlaschkeProduct,
    angle: float,
    *,
    radii: Sequence[float] | None = None,
    verdict_tolerance: float | None = None,
    window: int | None = None,
) -> LimitProbeReport:
    """Probe the boundary behaviour of the product at e^(i*angle) along several paths.

    The family is the five offset paths of _path_offsets over the radius
    schedule plus, where the product's zeros approach the point, a discrete
    path through those zeros.  The radial limit exists when the radial
    path's late window oscillates less than the verdict tolerance.  The
    window and the tolerance come from config where None.  Every path's
    oscillation, and the cluster diameter, come from one matrix of pairwise
    distances over the pooled late windows (_late_windows).
    """
    _require_product(product)
    angle = normalize_angle(angle)
    radii_arr = _radius_schedule(radii)
    win = _positive_int(config.DEFAULTS["oscillation_window"] if window is None else window,
                        "window")
    tol = config.DEFAULTS["verdict_tolerance"] if verdict_tolerance is None else verdict_tolerance
    tol = _positive_finite(tol, "verdict_tolerance")
    points = radii_arr * np.exp(1j * (angle + _path_offsets(1.0 - radii_arr)))
    names = list(_PATH_NAMES)
    ends = [radii_arr.size * k for k in range(1, len(names) + 1)]
    chase = _zero_chase_path(product, angle)
    if chase is not None:
        points = np.append(points, chase)
        names.append("zero-chase")
        ends.append(points.size)
    samples = product.eval_many(points, strict=False)
    judged, diameter = _late_windows(samples.values, ends, win, tol)
    path_limits = tuple(PathLimit(name, estimate, osc)
                        for name, (osc, estimate) in zip(names, judged))
    return LimitProbeReport(angle, path_limits, diameter, path_limits[0].oscillation < tol,
                            samples, tuple(ends))
