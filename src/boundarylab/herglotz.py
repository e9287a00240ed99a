"""Poisson and Herglotz kernels; singular inner and outer functions.

The Poisson kernel is evaluated as

    p_r(t) = (1 - r^2) / ((1 - r)^2 + 4 r sin(t/2)^2)

which is the textbook (1 - r^2)/(1 - 2 r cos t + r^2) rearranged so the
denominator never cancels catastrophically as r -> 1.  The kernel maximum
(1+r)/(1-r) stays finite for every float r < 1, so there is no extra floor.

Poisson and Herglotz integrals of boundary data are computed in closed form
(``_herglotz``): every boundary kind has an exact transform, down to a sum of
dilogarithms for sampled data, so the cost does not grow as |z| -> 1.  The
uniform trapezoid rule remains only in ``kernel_mass``, which measures it: for
the Poisson kernel at radius r its error decays like r^n on n points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, ResolutionError, ValidationError
from .unitdisc import (TWO_PI, _cmul, _points, _require_complex, _require_number, _require_object,
                       _require_row, normalize_angle)

_FORM_NAMES = ("cos", "sin", "indicator-arc")
_MIN_SAMPLE_COUNT = 16

# kernel_mass doubles its circle grid from QUAD_MIN_POINTS until two successive
# grids agree within QUAD_TOLERANCE, at most QUAD_MAX_POINTS
QUAD_TOLERANCE = 1e-10
QUAD_MIN_POINTS = 64
QUAD_MAX_POINTS = 1 << 22

# B_2k / (2k+1)! for k = 1..11: the even terms of the Bernoulli series
# Li_2(w) = sum_n B_n u^(n+1) / (n+1)!, u = -log(1 - w).  _li2 keeps
# |u| <= pi/3, where the term ratio is at most (1/6)^2, so the first dropped
# term is below 1e-18.
_LI2_BERNOULLI = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
    -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
    8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
    -1.0356517612181247e-17, 2.395218621026187e-19,
)


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Boundary data on the circle: a constant, uniform samples, or a form.

    Samples live on a uniform grid over [0, 2*pi) with at least 16 points and
    are evaluated between grid points by periodic linear interpolation.
    Closed forms are limited to the registered set {cos, sin, indicator-arc};
    forms take an optional real scale (so e.g. log(2) * indicator is a form).
    """

    kind: str
    value: complex = 0.0 + 0.0j
    sample_values: np.ndarray | None = None
    form_name: str = ""
    arc: tuple[float, float] = (0.0, math.pi)
    scale: float = 1.0

    @classmethod
    def constant(cls, value: complex) -> "BoundaryFunction":
        return cls(kind="constant", value=complex(value))

    @classmethod
    def from_samples(cls, angles, values) -> "BoundaryFunction":
        angles = np.asarray(angles, dtype=np.float64)
        values = np.asarray(values, dtype=np.complex128)
        if angles.shape != values.shape or angles.ndim != 1:
            raise ValidationError("samples need matching 1-d angle and value arrays")
        n = angles.size
        if n < _MIN_SAMPLE_COUNT:
            raise ValidationError(f"need at least {_MIN_SAMPLE_COUNT} samples, got {n}")
        expected = TWO_PI * np.arange(n) / n
        if not np.allclose(angles, expected, atol=1e-9, rtol=0.0):
            raise ValidationError("sample angles must be the uniform grid 2*pi*j/n")
        return cls(kind="samples", sample_values=values.copy())

    @classmethod
    def form(cls, name: str, *, arc: tuple[float, float] | None = None,
             scale: float = 1.0) -> "BoundaryFunction":
        if name not in _FORM_NAMES:
            raise ValidationError(f"unknown form {name!r}; registered: {_FORM_NAMES}")
        if not math.isfinite(scale):
            raise ValidationError("form scale must be finite")
        if name == "indicator-arc":
            if arc is None:
                raise ValidationError("indicator-arc needs an arc [start, end]")
            s, e = float(arc[0]), float(arc[1])
            if not (math.isfinite(s) and math.isfinite(e) and e > s):
                raise ValidationError("indicator arc must satisfy end > start")
            if e - s >= TWO_PI:
                # the whole circle, stored as one turn from s mod 2 pi: for a huge s,
                # s + 2 pi would round back to s
                s = normalize_angle(s)
                e = s + TWO_PI
            return cls(kind="form", form_name=name, arc=(s, e), scale=float(scale))
        return cls(kind="form", form_name=name, scale=float(scale))

    def is_real(self) -> bool:
        if self.kind == "constant":
            return self.value.imag == 0.0
        if self.kind == "samples":
            return bool(np.all(self.sample_values.imag == 0.0))
        return True

    @classmethod
    def from_json(cls, data: dict) -> "BoundaryFunction":
        _require_object(data, "boundary function JSON must be an object with a 'kind'", "kind")
        kind = data["kind"]
        if kind == "constant":
            return cls.constant(_require_complex(data))
        if kind == "samples":
            samples = data.get("samples")
            if not isinstance(samples, list) or not samples:
                raise ValidationError("field 'samples' must be a nonempty list")
            rows = [_require_row(row, 3, "sample") for row in samples]
            return cls.from_samples([a for a, _, _ in rows], [complex(x, y) for _, x, y in rows])
        if kind == "form":
            name = data.get("name")
            if not isinstance(name, str):
                raise ValidationError("form boundary function needs a string 'name'")
            arc = data.get("arc")
            return cls.form(
                name,
                arc=None if arc is None else _require_row(arc, 2, "arc"),
                scale=_require_number(data, "scale") if "scale" in data else 1.0,
            )
        raise ValidationError(f"unknown boundary function kind {kind!r}")


@dataclass(frozen=True)
class SingularAtoms:
    """A purely atomic positive singular measure on the circle."""

    angles: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.angles) != len(self.masses):
            raise ValidationError("atom angles and masses disagree in length")
        if not self.angles:
            raise ValidationError("need at least one atom")
        norm = tuple(normalize_angle(float(a)) for a in self.angles)
        if len(set(norm)) != len(norm):
            raise ValidationError("atom angles must be pairwise distinct mod 2*pi")
        for m in self.masses:
            if not (math.isfinite(m) and m > 0.0):
                raise ValidationError(f"atom masses must be finite and positive, got {m!r}")
        object.__setattr__(self, "angles", norm)
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))

    @classmethod
    def from_json(cls, data: dict) -> "SingularAtoms":
        if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
            raise ValidationError("singular atoms JSON needs a list field 'atoms'")
        rows = [_require_row(row, 2, "atom") for row in data["atoms"]]
        return cls(angles=tuple(a for a, _ in rows), masses=tuple(m for _, m in rows))


@dataclass(frozen=True)
class OuterDensity:
    """Boundary log-modulus k and a unimodular constant for an outer function."""

    k: BoundaryFunction
    lam: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not isinstance(self.k, BoundaryFunction):
            raise ValidationError("outer density k must be a BoundaryFunction")
        if not self.k.is_real():
            raise ValidationError("outer density k must be real-valued")
        if abs(abs(complex(self.lam)) - 1.0) > 1e-12:
            raise ValidationError(
                f"outer constant must have modulus 1 (within 1e-12), got {self.lam!r}"
            )
        object.__setattr__(self, "lam", complex(self.lam))

    @classmethod
    def from_json(cls, data: dict) -> "OuterDensity":
        _require_object(data, "outer density JSON needs field 'k'", "k")
        return cls(
            k=BoundaryFunction.from_json(data["k"]),
            lam=_require_complex(data["lambda"], "lambda") if "lambda" in data else 1.0,
        )


def poisson_kernel(r: float, theta) -> np.ndarray | float:
    """p_r(theta) >= 0 with mean 1 over the circle; scalar or array theta."""
    if not (0.0 <= r < 1.0):
        raise ValidationError(f"kernel radius must lie in [0, 1), got {r!r}")
    t = np.asarray(theta, dtype=np.float64)
    s = np.sin(0.5 * t)
    out = (1.0 - r * r) / ((1.0 - r) ** 2 + 4.0 * r * s * s)
    return float(out) if np.isscalar(theta) or out.ndim == 0 else out


def _li2_series(u: np.ndarray) -> np.ndarray:
    """Li_2(1 - e^-u) by its Bernoulli series, for |u| <= pi/3."""
    u2 = u * u
    acc = np.full(u.shape, _LI2_BERNOULLI[-1], dtype=np.complex128)
    for c in _LI2_BERNOULLI[-2::-1]:
        acc = acc * u2 + c
    return u - 0.25 * u2 + u * u2 * acc


def _li2(w: np.ndarray) -> np.ndarray:
    """The dilogarithm sum_k w^k / k^2 on |w| <= 1, elementwise.

    Points with Re w <= 1/2 take the series in u = -log(1 - w) directly; the
    others take the reflection Li_2(w) = pi^2/6 - log(w) log(1 - w)
    - Li_2(1 - w), whose series variable -log(w) is small near w = 1.  Either
    way |u| <= pi/3.
    """
    w = np.asarray(w, dtype=np.complex128)
    log1mw = np.log(1.0 - w)
    out = np.empty_like(w)
    near = w.real > 0.5
    far = ~near
    out[far] = _li2_series(-log1mw[far])
    logw = np.log(w[near])
    out[near] = math.pi ** 2 / 6.0 - logw * log1mw[near] - _li2_series(-logw)
    return out


def _herglotz(f: BoundaryFunction, z: np.ndarray, *, harmonic: bool) -> np.ndarray:
    """H[f](z) = mean of (e^it + z)/(e^it - z) f(t), exactly, at each point of z.

    Expanding the kernel as 1 + 2 sum_k z^k e^(-ikt) gives
    H[f] = mean(f) + 2 sum_k>=1 fhat_k z^k, so a constant c gives c, s cos
    gives s z and s sin gives -i s z.  An arc indicator integrates through
    the antiderivative t - 2i log(1 - z e^(-it)): Re(1 - z e^(-it)) >= 1 - |z|
    > 0, so the principal branch is continuous along the arc.  For n samples
    v_j the linear interpolant's second derivative is the slope jumps
    (v_j+1 - 2 v_j + v_j-1) n / (2 pi) at the nodes, so fhat_k is -1/k^2 times
    their Fourier coefficient, and

        H = mean(v) + n / (2 pi^2) sum_j (2 v_j - v_j+1 - v_j-1) Li_2(z e^(-2 pi i j/n)).

    With harmonic the result is the Poisson integral (H[f] + conj H[conj f])/2:
    each kind is a complex coefficient times a real function, and the real
    function's transform is replaced by its real part.  The sample sum is
    taken one point at a time: over a batch it rounds differently and holds
    points x n elements.  Every other kind is elementwise.
    """
    if f.kind == "constant":
        return np.full(z.shape, f.value, dtype=np.complex128)
    if f.kind == "samples":
        v = f.sample_values
        n = v.size
        jumps = 2.0 * v - np.roll(v, 1) - np.roll(v, -1)
        roots = np.exp(-1j * TWO_PI * np.arange(n) / n)
        out = np.empty(z.shape, dtype=np.complex128)
        for i in range(z.size):
            li2 = _li2(z[i:i + 1, None] * roots)
            li2 = li2.real if harmonic else li2
            out[i] = (np.mean(v) + n / (2.0 * math.pi ** 2) * (li2 @ jumps))[0]
        return out
    if f.form_name == "cos":
        h = z
    elif f.form_name == "sin":
        h = -1j * z
    else:
        s, e = f.arc
        e = min(e, s + TWO_PI)
        ws = np.log(1.0 - z * cmath.exp(-1j * s))
        we = np.log(1.0 - z * cmath.exp(-1j * e))
        h = ((e - s) - 2j * (we - ws)) / TWO_PI
    h = f.scale * h
    return h.real.astype(np.complex128) if harmonic else h


def _adaptive_mean(
    integrand,
    start_points: int,
    tolerance: float,
    max_points: int,
) -> complex:
    """Double a uniform circle grid until the mean stabilizes within tolerance.

    The even points TWO_PI*(2j)/(2n) of a doubled grid are bit for bit the
    previous grid's TWO_PI*j/n, so a refinement evaluates only the odd points.
    """
    n = start_points
    prev = values = None
    achieved = math.inf  # change made by the last refinement
    while n <= max_points:
        if values is None:
            values = integrand(TWO_PI * np.arange(n, dtype=np.float64) / n)
        else:
            odd = integrand(TWO_PI * np.arange(1, n, 2, dtype=np.float64) / n)
            values = np.stack((values, odd), axis=1).reshape(-1)
        current = complex(np.mean(values))
        if prev is not None:
            achieved = abs(current - prev)
            if achieved <= tolerance:
                return current
        prev = current
        n *= 2
    raise _unresolved(tolerance, max_points, achieved)


def _unresolved(tolerance: float, max_points: int, achieved: float) -> ResolutionError:
    """The failure of a refinement that stalled at `achieved` above `tolerance`."""
    return ResolutionError(
        f"quadrature did not stabilize within {tolerance:g} below {max_points} points "
        f"(last refinement moved {achieved:.3g})",
        achieved=achieved,
    )


def _in_disc(z, message: str) -> tuple[np.ndarray, bool]:
    """_points(z).  Its first point with |z| >= 1 or nan raises ValidationError(message)
    formatted with the point as z and |z| as r; |z| is Python's abs of one point
    and else np.hypot of the parts, which has its bits (np.abs does not)."""
    points, one = _points(z)
    if (not abs(points.item()) < 1.0 if points.size == 1
            else not np.all(np.hypot(points.real, points.imag) < 1.0)):
        bad = complex(points[(~(np.hypot(points.real, points.imag) < 1.0)).argmax()])
        raise ValidationError(message.format(z=bad, r=abs(bad)))
    return points, one


def poisson_integral(f: BoundaryFunction, z: complex) -> complex:
    """Harmonic extension of f at z: mean of f(t) p_|z|(arg z - t).

    Exact up to rounding: the closed-form transform (H[f] + conj H[conj f]) / 2
    of _herglotz, for every boundary kind.
    """
    points, _ = _in_disc(complex(z), "Poisson integral needs |z| < 1, got |z| = {r}")
    if not isinstance(f, BoundaryFunction):
        raise ValidationError("boundary data must be a BoundaryFunction")
    return _herglotz(f, points, harmonic=True).item()


def kernel_mass(r: float) -> float:
    """Mean of the Poisson kernel over the circle (should be 1), by quadrature.

    The grid doubles from QUAD_MIN_POINTS until two refinements agree within
    QUAD_TOLERANCE, at most QUAD_MAX_POINTS points; the quadrature itself is
    what this measures.  The mean on n nodes is exactly (1 + r^n)/(1 - r^n),
    so doubling n moves it by 2 r^n/(1 - r^2n).  Where that move still exceeds
    QUAD_TOLERANCE from QUAD_MAX_POINTS to twice as many nodes, the loop would
    stop two doublings past its cap at the earliest: the radius is refused at
    once, with the move of the loop's last refinement, before any grid is built.
    """
    if 0.0 <= r < 1.0:
        x = r ** (QUAD_MAX_POINTS // 2)  # r^n at the last refinement's coarse grid
        if 2.0 * x * x > QUAD_TOLERANCE * (1.0 - x ** 4):
            raise _unresolved(QUAD_TOLERANCE, QUAD_MAX_POINTS, 2.0 * x / (1.0 - x * x))
    mean = _adaptive_mean(lambda t: poisson_kernel(r, t) + 0.0j, QUAD_MIN_POINTS,
                          QUAD_TOLERANCE, QUAD_MAX_POINTS)
    return mean.real


@dataclass(frozen=True)
class ApproxIdentityReport:
    """Approximate-identity numbers for p_r: total mass and tail sup."""

    r: float
    delta: float
    mass: float
    sup_outside_delta: float

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "delta": self.delta,
            "mass": self.mass,
            "sup_outside_delta": self.sup_outside_delta,
        }


def approx_identity_report(r: float, delta: float) -> ApproxIdentityReport:
    """Mass by quadrature; tail sup = p_r(delta) since p_r decreases on (0, pi]."""
    if not (0.0 < delta <= math.pi):
        raise ValidationError(f"delta must lie in (0, pi], got {delta!r}")
    return ApproxIdentityReport(
        r=r,
        delta=delta,
        mass=kernel_mass(r),
        sup_outside_delta=float(poisson_kernel(r, delta)),
    )


def eval_singular_inner(atoms: SingularAtoms, z):
    """exp(-sum m_j (zeta_j + z)/(zeta_j - z)) for atoms (theta_j, m_j), summed in atom
    order at one point (a complex is returned) or at each point of a 1-d array."""
    zetas = [cmath.exp(1j * angle) for angle in atoms.angles]
    points, one = _points(z)
    # zeta - z is 0 exactly where z == zeta (np.isin costs about 15 us on one point)
    poles = (([0] if points.item() in zetas else []) if points.size == 1
             else np.flatnonzero(np.isin(points, zetas)).tolist())
    _in_disc(points[:poles[0] + 1] if poles else points,  # moduli up to the first pole
             "singular inner functions are evaluated for |z| < 1, got {z!r}")
    if poles:
        bad = complex(points[poles[0]])
        raise PoleError(f"evaluation point {bad!r} coincides with the atom at angle "
                        f"{atoms.angles[zetas.index(bad)]}")
    expo = np.zeros(points.shape, dtype=np.complex128)
    for zeta, mass in zip(zetas, atoms.masses):
        expo -= mass * (zeta + points) / (zeta - points)
    values = np.exp(expo)
    return values.item() if one else values


def eval_outer(density: OuterDensity, z):
    """lambda * exp(H[k](z)) at one point (a complex is returned) or a 1-d array.

    H[k] is the closed-form transform of _herglotz.
    """
    points, one = _in_disc(z, "outer functions are evaluated for |z| < 1, got {z!r}")
    values = np.exp(_herglotz(density.k, points, harmonic=False))
    # Python's complex product has _cmul's bits
    return density.lam * values.item() if one else _cmul(density.lam, values)
