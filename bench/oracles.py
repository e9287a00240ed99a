"""Independent answers for the benchmark's output checks.

Nothing here calls the code under test for the value it checks.  Blaschke
products are recomputed as a direct numpy product of the textbook factors;
Frostman sums use the law-of-cosines distance; Poisson and Herglotz integrals
use closed forms or Gauss-Legendre rules on each linear piece of a sampled
density; grid components come from ``scipy.ndimage.label``.  Every float
comparison carries a rounding slack derived from the conditioning of the
terms, so a check fails only on a real disagreement.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
TWO_PI = 2.0 * math.pi

# elements per (points x factors) block; bounds the oracle's own memory
_BLOCK = 1 << 20


_FACTOR_CACHE: dict = {}


def _factors(angles, deficits):
    """Zeros, conjugates, rotations and a = 0 flags; cached per zero set."""
    key = (id(angles), id(deficits))
    if key not in _FACTOR_CACHE:
        mod = 1.0 - np.asarray(deficits, dtype=np.float64)
        a = mod * np.exp(1j * np.asarray(angles, dtype=np.float64))
        conj_a = np.conj(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            rot = np.where(mod > 0.0, -conj_a / mod, 0.0)
        # the arrays stay referenced, so their ids cannot be reused
        _FACTOR_CACHE[key] = (a, conj_a, rot, mod == 0.0, angles, deficits)
    return _FACTOR_CACHE[key][:4]


def blaschke(angles, deficits, points, n: int | None = None):
    """Product of the first n stored factors at each point, and its slack.

    Factor: -(conj(a)/|a|) (z - a) / (1 - conj(a) z), and z itself at a = 0.
    The slack bounds the rounding of this product and of the program's own.
    Each computed factor carries a relative error of a few ulps times
    1 + 2/|z - a| + 2/|1 - conj(a) z| <= 1 + 4/|z - a| (since
    |1 - conj(a) z| >= |z - a| in the disc), so the product's error is at most
    |B| sum(1 + 4/|z - a|); and since |b_a| = |z - a|/|1 - conj(a) z| <= 1,
    also at most sum(1 + 4/|1 - conj(a) z|), which stays finite at a zero.
    """
    n = len(angles) if n is None else n
    z = np.atleast_1d(np.asarray(points, dtype=np.complex128))[:, None]
    a, conj_a, rot, origin = _factors(angles, deficits)
    value = np.ones(z.shape[0], dtype=np.complex128)
    near_zero = np.zeros(z.shape[0], dtype=np.float64)
    near_pole = np.zeros(z.shape[0], dtype=np.float64)
    step = max(1, _BLOCK // z.shape[0])
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        num = z - a[None, lo:hi]
        den = 1.0 - conj_a[None, lo:hi] * z
        with np.errstate(divide="ignore", invalid="ignore"):
            near_zero += np.sum(1.0 / np.abs(num), axis=1)
            near_pole += np.sum(1.0 / np.abs(den), axis=1)
            fac = rot[None, lo:hi] * num / den
        if origin[lo:hi].any():
            fac[:, origin[lo:hi]] = z
        value *= np.prod(fac, axis=1)
    with np.errstate(invalid="ignore"):
        relative = (n + 4.0 * near_zero) * np.abs(value)
    slack = 16.0 * EPS * np.fmin(relative, n + 4.0 * near_pole) + 64.0 * EPS
    return value, slack


def frostman(angles, deficits, theta: float, schedule):
    """Partial sums of d_k / |e^(i theta) - a_k| at the schedule, with slack.

    The distance comes from the law of cosines in polar form,
    |e^(i theta) - a|^2 = d^2 + 4 (1 - d) sin^2(gap / 2), which keeps full
    relative accuracy for deficits below float resolution, where the complex
    zero itself rounds onto the circle.
    """
    d = np.asarray(deficits, dtype=np.float64)
    half_gap = 0.5 * (np.asarray(angles, dtype=np.float64) - theta)
    terms = d / np.sqrt(d * d + 4.0 * (1.0 - d) * np.sin(half_gap) ** 2)
    cols = np.asarray(schedule, dtype=np.int64) - 1
    sums = np.cumsum(terms)[cols]
    # a few ulps per term, and the accumulated rounding of the running sum
    slack = 8.0 * EPS * np.cumsum(terms)[cols] + 2.0 * (cols + 1) * EPS * sums
    return sums, slack


def frostman_class(sums, policy) -> str:
    """The three-way rule on oracle partial sums."""
    final = sums[-1]
    base = sums[max(0, len(sums) - 1 - policy.growth_window)]
    if final >= policy.divergence_threshold:
        return "divergent"
    if final - base < policy.cauchy_tolerance:
        return "convergent"
    return "undecided"


def frostman_ambiguous(sums, slack, policy) -> bool:
    """True when rounding alone could move the sums across a threshold."""
    final, base = sums[-1], sums[max(0, len(sums) - 1 - policy.growth_window)]
    width = 2.0 * slack[-1]
    return (abs(final - policy.divergence_threshold) <= width
            or abs(final - base - policy.cauchy_tolerance) <= width)


def herglotz_arc(arc, scale: float, z: complex) -> complex:
    """Mean of scale * 1_arc(t) (e^it + z)/(e^it - z) over the circle.

    The real part is the harmonic measure of the arc: Delta arg / pi - L/(2 pi),
    with Delta arg the turn of e^it - z along the arc.
    """
    s, e = arc
    length = min(e - s, TWO_PI)
    ratio = (np.exp(1j * e) - z) / (np.exp(1j * s) - z)
    turn = math.atan2(ratio.imag, ratio.real) % TWO_PI
    if length >= TWO_PI:
        turn = TWO_PI
    return scale * (-length / TWO_PI + turn / math.pi - 1j * math.log(abs(ratio)) / math.pi)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def herglotz_samples(values, z: complex, kernel: str) -> complex:
    """Mean of the linear interpolant of uniform samples against a kernel.

    Gauss-Legendre with 32 nodes on each piece between samples, where the
    interpolant is linear and the kernel analytic.  kernel is "poisson"
    (real part only) or "herglotz".
    """
    v = np.asarray(values, dtype=np.complex128)
    n = v.size
    h = TWO_PI / n
    left = h * np.arange(n)[:, None]
    t = left + 0.5 * h * (_GL_X[None, :] + 1.0)
    frac = (t - left) / h
    f = v[:, None] * (1.0 - frac) + np.roll(v, -1)[:, None] * frac
    zeta = np.exp(1j * t)
    if kernel == "poisson":
        r = abs(z)
        k = (1.0 - r * r) / np.abs(zeta - z) ** 2
    else:
        k = (zeta + z) / (zeta - z)
    return complex(np.sum(f * k * _GL_W[None, :]) * 0.5 * h / TWO_PI)


def components(complement: np.ndarray):
    """4-connected components by scipy, renumbered in row-major first-cell order."""
    from scipy import ndimage

    labels, count = ndimage.label(complement)
    flat = labels.reshape(-1)
    first = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    order = np.argsort(first[1:])
    renumber = np.full(count + 1, -1, dtype=np.int64)
    renumber[1 + order] = np.arange(count)
    return renumber[labels], count


def _dilate(mask: np.ndarray, diagonal: bool) -> np.ndarray:
    from scipy import ndimage

    structure = np.ones((3, 3), bool) if diagonal else ndimage.generate_binary_structure(2, 1)
    return ndimage.binary_dilation(mask, structure=structure)


def component_facts(labels: np.ndarray, count: int, outside: np.ndarray):
    """Per component: cell count, frame contact, 4-adjacency to outside G, bbox."""
    h, w = labels.shape
    facts = []
    frame = np.zeros((h, w), bool)
    frame[0, :] = frame[-1, :] = frame[:, 0] = frame[:, -1] = True
    near_outside = _dilate(outside, diagonal=False)
    for cid in range(count):
        mask = labels == cid
        rows, cols = np.nonzero(mask)
        facts.append((
            int(mask.sum()),
            bool(np.any(mask & frame)),
            bool(np.any(mask & near_outside)),
            (int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max())),
            (int(rows[0]), int(cols[0])),
        ))
    return facts


def g_hole_ids(labels, count, outside, unbounded: bool) -> list[int]:
    """Components that are G-holes: no frame contact (if unbounded), no outside contact."""
    out = []
    for cid, (cells, touches, adjacent, bbox, first) in enumerate(
            component_facts(labels, count, outside)):
        if not ((unbounded and touches) or adjacent):
            out.append(cid)
    return out


def dependent(cells: np.ndarray, e_mask, f_mask, unbounded: bool) -> bool:
    """Some G-hole of G minus (E u F) lies in strict holes of both E and F."""
    outside = cells == 0
    g = ~outside
    lab_e, n_e = components(g & ~e_mask)
    lab_f, n_f = components(g & ~f_mask)
    lab_u, n_u = components(g & ~(e_mask | f_mask))
    strict_e = set(range(n_e)) - set(g_hole_ids(lab_e, n_e, outside, unbounded))
    strict_f = set(range(n_f)) - set(g_hole_ids(lab_f, n_f, outside, unbounded))
    for cid in g_hole_ids(lab_u, n_u, outside, unbounded):
        r, c = np.argwhere(lab_u == cid)[0]
        if lab_e[r, c] in strict_e and lab_f[r, c] in strict_f:
            return True
    return False
