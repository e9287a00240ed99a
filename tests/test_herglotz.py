import cmath
import functools
import math
import re

import numpy as np
import pytest

from boundarylab.blaschke import BlaschkeProduct
from boundarylab.errors import PoleError, ResolutionError, ValidationError
from boundarylab.herglotz import (
    QUAD_MAX_POINTS,
    QUAD_MIN_POINTS,
    QUAD_TOLERANCE,
    BoundaryFunction,
    _adaptive_mean,
    _herglotz,
    _li2,
    OuterDensity,
    SingularAtoms,
    approx_identity_report,
    eval_outer,
    eval_singular_inner,
    kernel_mass,
    poisson_integral,
    poisson_kernel,
)
from boundarylab.series import InnerFunctionSpec, SeriesSpec, SeriesTerm, build_lohwater_piranian
from boundarylab.unitdisc import TWO_PI, ClosedSetSpec, ZeroSequence, gen_radial_sequence


def _evaluate(f, theta) -> np.ndarray:
    """Brute-force values of boundary data f at the given angles: periodic
    linear interpolation of samples, the form itself otherwise."""
    t = np.asarray(theta, dtype=np.float64)
    if f.kind == "constant":
        return np.full(t.shape, f.value, dtype=np.complex128)
    if f.kind == "samples":
        vals = f.sample_values
        n = vals.size
        pos = (np.mod(t, TWO_PI)) * n / TWO_PI
        i0 = np.floor(pos).astype(np.int64) % n
        frac = pos - np.floor(pos)
        i1 = (i0 + 1) % n
        return vals[i0] * (1.0 - frac) + vals[i1] * frac
    if f.form_name == "cos":
        return (f.scale * np.cos(t)).astype(np.complex128)
    if f.form_name == "sin":
        return (f.scale * np.sin(t)).astype(np.complex128)
    s, e = f.arc
    lifted = s + np.mod(t - s, TWO_PI)
    return (f.scale * (lifted <= e)).astype(np.complex128)


def test_poisson_kernel_values():
    # p_r(0) = (1+r)/(1-r); at r = 1/2 that is exactly 3
    assert poisson_kernel(0.5, 0.0) == 3.0
    ts = np.linspace(-math.pi, math.pi, 101)
    vals = poisson_kernel(0.7, ts)
    assert np.all(vals > 0.0)
    assert np.allclose(vals, poisson_kernel(0.7, -ts))
    # decreasing away from the peak on (0, pi]
    half = poisson_kernel(0.7, np.linspace(1e-3, math.pi, 200))
    assert np.all(np.diff(half) < 0.0)
    with pytest.raises(ValidationError):
        poisson_kernel(1.0, 0.0)


def test_kernel_mass_is_one():
    for r in (0.0, 0.5, 0.9, 0.99):
        assert abs(kernel_mass(r) - 1.0) < 1e-8


def test_poisson_integral_constant():
    f = BoundaryFunction.constant(2.5 - 1.0j)
    got = poisson_integral(f, 0.3 + 0.4j)
    assert abs(got - (2.5 - 1.0j)) < 1e-9


def test_poisson_integral_cos_form():
    f = BoundaryFunction.form("cos")
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = rng.uniform(0.0, 0.95)
        t = rng.uniform(0.0, TWO_PI)
        z = r * cmath.exp(1j * t)
        got = poisson_integral(f, z)
        assert abs(got - r * math.cos(t)) < 1e-10


def test_poisson_integral_sampled_cos():
    n = 256
    angles = TWO_PI * np.arange(n) / n
    f = BoundaryFunction.from_samples(angles, np.cos(angles))
    z = 0.5 * cmath.exp(0.9j)
    got = poisson_integral(f, z)
    assert abs(got - 0.5 * math.cos(0.9)) < 1e-3


def test_kernel_mass_resolution_error_reports_last_change():
    with pytest.raises(ResolutionError) as exc:
        kernel_mass(0.9999999999)
    assert exc.value.achieved > 0.0
    assert "moved 0)" not in str(exc.value)


def test_indicator_closed_form():
    f = BoundaryFunction.form("indicator-arc", arc=(0.0, math.pi))
    # at the origin the integral is the normalized arc length
    assert abs(poisson_integral(f, 0.0) - 0.5) < 1e-15
    # closed form agrees with brute quadrature away from the jump
    z = 0.3 * cmath.exp(0.7j)
    closed = poisson_integral(f, z)
    t = TWO_PI * np.arange(16384) / 16384
    brute = np.mean(_evaluate(f, t) * poisson_kernel(abs(z), cmath.phase(z) - t))
    assert abs(closed - brute) < 1e-3


def test_indicator_of_the_whole_circle_with_huge_endpoints():
    # an arc of 2 pi or more is the whole circle, stored as one turn from its
    # start mod 2 pi, so s + 2 pi cannot round back to s
    for arc in ((-1e17, 1e17), (1e16, 1e16 + 8.0), (3.0, 3.0 + TWO_PI), (-2.0, 40.0)):
        f = BoundaryFunction.form("indicator-arc", arc=arc, scale=2.5)
        s, e = f.arc
        assert 0.0 <= s < TWO_PI and e == s + TWO_PI
        assert np.all(_evaluate(f, TWO_PI * np.arange(4096) / 4096) == 2.5)
        for z in (0.0, 0.3 * cmath.exp(0.7j), 0.999 * cmath.exp(-2.0j)):
            assert abs(poisson_integral(f, z) - 2.5) < 1e-12
    # a shorter arc is stored as given
    assert BoundaryFunction.form("indicator-arc", arc=(1e16, 1e16 + 6.0)).arc == (1e16, 1e16 + 6.0)
    assert BoundaryFunction.form("indicator-arc", arc=(-7.5, -1.5)).arc == (-7.5, -1.5)


def test_singular_atom_closed_form():
    atoms = SingularAtoms(angles=(0.0,), masses=(1.0,))
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, TWO_PI)
        z = r * cmath.exp(1j * t)
        got = eval_singular_inner(atoms, z)
        want = cmath.exp(-(1.0 + z) / (1.0 - z))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(got) < 1.0 or r == 0.0
    assert abs(eval_singular_inner(atoms, 0.0) - math.exp(-1.0)) < 1e-15
    with pytest.raises(ValidationError):
        eval_singular_inner(atoms, 1.0 + 0.0j)


def test_singular_atoms_validation():
    with pytest.raises(ValidationError):
        SingularAtoms(angles=(0.0, TWO_PI), masses=(1.0, 1.0))  # same point
    with pytest.raises(ValidationError):
        SingularAtoms(angles=(0.0,), masses=(0.0,))
    atoms = SingularAtoms(angles=(0.5, 2.5), masses=(0.25, 0.75))
    assert math.fsum(atoms.masses) == 1.0
    assert SingularAtoms.from_json({"atoms": [[0.5, 0.25], [2.5, 0.75]]}) == atoms
    assert SingularAtoms.from_json({"atoms": [[2.5, 1]]}).masses == (1.0,)


def test_atom_rows_have_two_entries():
    assert SingularAtoms.from_json({"atoms": [[0.5, 1]]}).masses == (1.0,)
    with pytest.raises(ValidationError, match="^atom must have 2 entries, found 3$"):
        SingularAtoms.from_json({"atoms": [[0.5, 1.0], [1.5, 1.0, 9.0]]})
    with pytest.raises(ValidationError, match=r"^missing atom\[1\]$"):
        SingularAtoms.from_json({"atoms": [[0.5]]})


def test_outer_constant_log_modulus():
    density = OuterDensity(k=BoundaryFunction.constant(math.log(2.0)))
    rng = np.random.default_rng(23)
    for _ in range(10):
        r = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, TWO_PI)
        z = r * cmath.exp(1j * t)
        assert abs(abs(eval_outer(density, z)) - 2.0) < 1e-10


def test_outer_indicator_at_origin():
    density = OuterDensity(
        k=BoundaryFunction.form("indicator-arc", arc=(0.0, math.pi), scale=math.log(2.0))
    )
    # mean of k is log(2)/2, so F(0) = sqrt(2)
    assert abs(eval_outer(density, 0.0) - math.sqrt(2.0)) < 1e-14


def test_outer_density_validation():
    with pytest.raises(ValidationError):
        OuterDensity(k=BoundaryFunction.constant(1.0 + 1.0j))  # not real
    with pytest.raises(ValidationError):
        OuterDensity(k=BoundaryFunction.constant(1.0), lam=2.0)
    density = OuterDensity(k=BoundaryFunction.constant(0.5), lam=1j)
    k = {"kind": "constant", "re": 0.5, "im": 0}
    back = OuterDensity.from_json({"k": k, "lambda": {"re": 0, "im": 1.0}})
    assert back.lam == density.lam and back.k.value == density.k.value
    assert OuterDensity.from_json({"k": k}).lam == OuterDensity(k=density.k).lam == 1.0


def test_approx_identity_report():
    rep = approx_identity_report(0.9, 0.1)
    assert abs(rep.mass - 1.0) < 1e-8
    assert abs(rep.sup_outside_delta - poisson_kernel(0.9, 0.1)) < 1e-15
    data = rep.to_json()
    assert set(data.keys()) == {"r", "delta", "mass", "sup_outside_delta"}
    with pytest.raises(ValidationError):
        approx_identity_report(0.9, 0.0)
    with pytest.raises(ValidationError):
        approx_identity_report(0.9, 4.0)


def test_boundary_function_sample_wraparound():
    n = 16
    angles = TWO_PI * np.arange(n) / n
    values = np.arange(n, dtype=np.float64)
    f = BoundaryFunction.from_samples(angles, values)
    # halfway between the last grid point and 2*pi interpolates toward 0
    mid = TWO_PI - 0.5 * TWO_PI / n
    got = _evaluate(f, np.array([mid]))[0]
    assert abs(got - 7.5) < 1e-9
    with pytest.raises(ValidationError):
        BoundaryFunction.from_samples(angles + 0.01, values)
    with pytest.raises(ValidationError):
        BoundaryFunction.from_samples(angles[:8], values[:8])


def test_boundary_function_json_round_trip():
    n = 32
    angles = TWO_PI * np.arange(n) / n
    cases = [
        BoundaryFunction.constant(1.0 - 2.0j),
        BoundaryFunction.from_samples(angles, np.sin(angles)),
        BoundaryFunction.form("cos", scale=0.5),
        BoundaryFunction.form("indicator-arc", arc=(0.25, 1.5), scale=math.log(3.0)),
    ]
    docs = [
        {"kind": "constant", "re": 1.0, "im": -2},
        {"kind": "samples", "samples": [[a, math.sin(a), 0.0] for a in angles.tolist()]},
        {"kind": "form", "name": "cos", "scale": 0.5},
        {"kind": "form", "name": "indicator-arc", "arc": [0.25, 1.5], "scale": math.log(3.0)},
    ]
    ts = np.linspace(0.0, TWO_PI, 37)
    for doc, f in zip(docs, cases):
        back = BoundaryFunction.from_json(doc)
        assert (back.kind, back.form_name, back.arc, back.scale) == (f.kind, f.form_name, f.arc,
                                                                     f.scale)
        assert np.array_equal(_evaluate(back, ts), _evaluate(f, ts))
    with pytest.raises(ValidationError):
        BoundaryFunction.form("indicator-arc", arc=(1.0, 1.0))
    with pytest.raises(ValidationError):
        BoundaryFunction.form("tan")


def test_arc_rows_have_two_entries():
    form = {"kind": "form", "name": "indicator-arc"}
    assert BoundaryFunction.from_json({**form, "arc": [0, 1]}).arc == (0.0, 1.0)
    with pytest.raises(ValidationError, match="^arc must have 2 entries, found 3$"):
        BoundaryFunction.from_json({**form, "arc": [0, 1, 7]})
    with pytest.raises(ValidationError, match=r"^missing arc\[1\]$"):
        BoundaryFunction.from_json({**form, "arc": [0]})


def test_sample_rows_have_three_entries():
    rows = [[TWO_PI * k / 16, math.cos(TWO_PI * k / 16), 0.0] for k in range(16)]
    BoundaryFunction.from_json({"kind": "samples", "samples": rows})
    with pytest.raises(ValidationError, match="^sample must have 3 entries, found 4$"):
        BoundaryFunction.from_json({"kind": "samples", "samples": rows[:15] + [rows[15] + [1.0]]})
    with pytest.raises(ValidationError, match=r"^missing sample\[2\]$"):
        BoundaryFunction.from_json({"kind": "samples", "samples": rows[:15] + [rows[15][:2]]})


def test_inner_function_spec_product():
    prod = BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 30))
    atoms = SingularAtoms(angles=(math.pi,), masses=(0.5,))
    spec = InnerFunctionSpec(blaschke=prod, atoms=atoms)
    z = 0.2 + 0.3j
    want = prod.eval_best_effort(z).value * eval_singular_inner(atoms, z)
    assert abs(spec.eval_many(z).item() - want) < 1e-14
    assert spec.is_unit_bounded()
    assert abs(spec.eval_many(z).item()) < 1.0


def test_inner_function_spec_boundedness():
    outer = OuterDensity(k=BoundaryFunction.constant(math.log(2.0)))
    assert not InnerFunctionSpec(outer=outer).is_unit_bounded()
    target = ClosedSetSpec(kind="finite-points", points=(0.0,))
    # inverse-square weights start at 1, so two targets already exceed mass 1
    heavy = build_lohwater_piranian([target, target], 3)
    assert not InnerFunctionSpec(series=heavy).is_unit_bounded()
    light = SeriesSpec.from_json({"weight_rule": "inverse-power-2", "terms": [
        {"weight": weight, "component": {"blaschke": {"generator": {
            "kind": "accumulation", "depth": 3, "target": {"kind": "finite-points", "points": [0.0]}}}}}
        for weight in (0.5, 0.25)]})
    assert InnerFunctionSpec(series=light).is_unit_bounded()


def test_inner_function_spec_json_round_trip():
    prod = BlaschkeProduct(gen_radial_sequence(1.0, 0.5, 12))
    atoms = SingularAtoms(angles=(2.0,), masses=(0.25,))
    spec = InnerFunctionSpec(blaschke=prod, atoms=atoms)
    back = InnerFunctionSpec.from_json({
        "blaschke": {"generator": {"kind": "radial", "angle": 1.0, "rate": 0.5, "count": 12}},
        "atoms": {"atoms": [[2.0, 0.25]]},
        "outer": None,
    })
    assert back.outer is None and back.series is None
    assert np.array_equal(back.blaschke.zeros.deficits, prod.zeros.deficits)
    assert back.atoms == atoms
    z = 0.4 - 0.2j
    assert back.eval_many(z).item() == spec.eval_many(z).item()
    with pytest.raises(ValidationError):
        InnerFunctionSpec()


def _full_recompute_mean(integrand, start_points, tolerance, max_points):
    """The refinement loop before grid reuse: every level evaluates its whole grid."""
    n = start_points
    prev = None
    achieved = math.inf
    while n <= max_points:
        t = TWO_PI * np.arange(n, dtype=np.float64) / n
        current = complex(np.mean(integrand(t)))
        if prev is not None:
            achieved = abs(current - prev)
            if achieved <= tolerance:
                return current
        prev = current
        n *= 2
    raise ResolutionError(
        f"quadrature did not stabilize within {tolerance:g} below {max_points} points "
        f"(last refinement moved {achieved:.3g})",
        achieved=achieved,
    )


def _outcome(call):
    try:
        return complex(call())
    except ResolutionError as exc:
        return str(exc), exc.achieved


def _mean_outcome(mean, integrand, *args):
    return _outcome(lambda: mean(integrand, *args))


def _same(a, b):
    if isinstance(a, complex) and isinstance(b, complex):
        return np.array([a]).view(np.uint64).tolist() == np.array([b]).view(np.uint64).tolist()
    return a == b


def test_adaptive_mean_reuses_the_grid_bit_for_bit():
    rng = np.random.default_rng(20230420)
    n = 64
    grid = TWO_PI * np.arange(n) / n
    density = BoundaryFunction.from_samples(grid, rng.normal(size=n))
    cos = BoundaryFunction.form("cos")
    start = 256
    cases = []
    for f in (cos, density):
        for z in (0.3 + 0.1j, 0.6 * cmath.exp(2.2j), 0.9 * cmath.exp(5.0j), 0.99j):
            r, theta = abs(z), cmath.phase(z)
            cases.append(lambda t, f=f, r=r, theta=theta:
                         _evaluate(f, t) * poisson_kernel(r, theta - t))
            cases.append(lambda t, f=f, z=z:
                         (np.exp(1j * t) + z) / (np.exp(1j * t) - z) * _evaluate(f, t))
    for r in (0.5, 0.99, 0.9999, 0.9999999999):
        cases.append(lambda t, r=r: poisson_kernel(r, t) + 0.0j)
    evaluated = []

    def counting(integrand):
        def wrapped(t):
            evaluated.append(t.size)
            return integrand(t)
        return wrapped

    for integrand in cases:
        for tol, cap in ((1e-10, 2 ** 20), (1e-14, 2 ** 12)):
            want = _mean_outcome(_full_recompute_mean, integrand, start, tol, cap)
            evaluated.clear()
            got = _mean_outcome(_adaptive_mean, counting(integrand), start, tol, cap)
            assert _same(got, want)
            # each level evaluates only the points the previous one lacked
            assert sum(evaluated) == start * 2 ** (len(evaluated) - 1)
    tol, low, cap = QUAD_TOLERANCE, QUAD_MIN_POINTS, QUAD_MAX_POINTS
    want = _full_recompute_mean(lambda t: poisson_kernel(0.99, t) + 0.0j, low, tol, cap)
    assert _same(complex(kernel_mass(0.99)), complex(want.real))
    with pytest.raises(ResolutionError) as exc:
        kernel_mass(0.9999999999)
    want = _mean_outcome(_full_recompute_mean, lambda t: poisson_kernel(0.9999999999, t) + 0.0j,
                         low, tol, cap)
    assert (str(exc.value), exc.value.achieved) == want


# --- closed-form transforms against 30-digit mpmath -----------------------

_RADII = (0.0, 0.5, 0.99, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -30)


@functools.cache
def _mp():
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 30
    return mp


def _mp_antiderivative(mp, z, t):
    """G(t) = t - 2i log(1 - z e^-it), an antiderivative of K(t) = (e^it + z)/(e^it - z).

    Re(1 - z e^-it) > 0 for |z| < 1, so the principal branch is continuous in t.
    """
    return t - 2j * mp.log(1 - z * mp.expj(-t))


@functools.cache
def _mp_sample_tables(n, z):
    """G and Li_2(z e^-it) at the nodes 2 pi j / n, j = 0..n."""
    mp = _mp()
    z = mp.mpc(z)
    nodes = [2 * mp.pi * j / n for j in range(n + 1)]
    li2 = [mp.polylog(2, z * mp.expj(-t)) for t in nodes[:n]]
    return nodes, [_mp_antiderivative(mp, z, t) for t in nodes], li2 + li2[:1]


def _mp_samples_herglotz(mp, values, z):
    """Mean of K(t) f(t), f the periodic linear interpolant of the real samples.

    On the piece [a, b] = [jh, (j+1)h], f = v_j + m_j (t - a), and
    (t - a) G(t) - t^2/2 + 2 Li_2(z e^-it) is an antiderivative of (t - a) K(t).
    """
    n = len(values)
    nodes, g, li2 = _mp_sample_tables(n, complex(z))
    h = 2 * mp.pi / n
    total = mp.mpc(0)
    for j in range(n):
        a, b = nodes[j], nodes[j + 1]
        v = mp.mpf(float(values[j]))
        slope = (mp.mpf(float(values[(j + 1) % n])) - v) / h
        total += v * (g[j + 1] - g[j])
        total += slope * (h * g[j + 1] - (b * b - a * a) / 2 + 2 * (li2[j + 1] - li2[j]))
    return total / (2 * mp.pi)


def test_mpmath_oracles_match_quadrature():
    # the antiderivative oracles below, against direct 30-digit quadrature
    mp = _mp()
    rng = np.random.default_rng(5)
    n = 16
    values = rng.normal(size=n)
    z = 0.9 * cmath.exp(0.7j)
    h = 2 * mp.pi / n
    total = mp.mpc(0)
    for j in range(n):
        v0, v1 = mp.mpf(values[j]), mp.mpf(values[(j + 1) % n])
        total += mp.quad(lambda t, j=j, v0=v0, v1=v1: (mp.expj(t) + z) / (mp.expj(t) - z)
                         * (v0 + (v1 - v0) * (t - j * h) / h), [j * h, (j + 1) * h])
    assert abs(_mp_samples_herglotz(mp, values, z) - total / (2 * mp.pi)) < 1e-25
    s, e = 0.25, 2.0
    quad = mp.quad(lambda t: (mp.expj(t) + z) / (mp.expj(t) - z), [s, e]) / (2 * mp.pi)
    closed = (_mp_antiderivative(mp, z, e) - _mp_antiderivative(mp, z, s)) / (2 * mp.pi)
    assert abs(closed - quad) < 1e-25


def _check_against(mp, f, points, parts, bound):
    """poisson_integral and, for real f, eval_outer against mpmath at each point.

    parts(z) gives the transforms H[Re f](z) and H[Im f](z); the Poisson
    integral is Re H[Re f] + i Re H[Im f], and for real f the outer value is
    lambda exp(H[f]), compared relatively.
    """
    lam = cmath.exp(0.3j)
    for z in points:
        hr, hi = parts(z)
        want = complex(mp.re(hr), mp.re(hi))
        got = poisson_integral(f, z)
        assert abs(got - want) <= bound, (z, got, want)
        if f.is_real():
            want = complex(lam * mp.exp(hr))
            got = eval_outer(OuterDensity(k=f, lam=lam), z)
            assert abs(got - want) <= bound * abs(want), (z, got, want)


def _points(angles, radii=_RADII):
    return [r * cmath.exp(1j * a) for r in radii for a in angles]


def test_forms_and_constants_match_mpmath():
    mp = _mp()
    rng = np.random.default_rng(11)
    arc = (0.25, 2.0)
    points = _points((arc[0], 0.5 * (arc[0] + arc[1]), arc[1], float(rng.uniform(0.0, TWO_PI))))
    c = math.log(3.0) - 0.5j
    _check_against(mp, BoundaryFunction.constant(c.real), points,
                   lambda z: (mp.mpf(c.real), 0), 1e-13 * c.real)
    _check_against(mp, BoundaryFunction.constant(c), points,
                   lambda z: (mp.mpf(c.real), mp.mpf(c.imag)), 1e-13 * abs(c))
    _check_against(mp, BoundaryFunction.form("cos", scale=0.7), points,
                   lambda z: (0.7 * mp.mpc(z), 0), 1e-13 * 0.7)
    _check_against(mp, BoundaryFunction.form("sin", scale=-1.5), points,
                   lambda z: (1.5j * mp.mpc(z), 0), 1e-13 * 1.5)
    scale = math.log(2.0)

    def arc_parts(z):
        z = mp.mpc(z)
        g = _mp_antiderivative(mp, z, arc[1]) - _mp_antiderivative(mp, z, arc[0])
        return scale * g / (2 * mp.pi), 0
    indicator = BoundaryFunction.form("indicator-arc", arc=arc, scale=scale)
    for z in points:
        # the transform jumps across the arc ends: a rounding of z e^-is
        # (about 2^-51 |z|) moves it by up to 2^-51 |z| / (pi |e^is - z|)
        near = min(abs(cmath.exp(1j * end) - z) for end in arc)
        _check_against(mp, indicator, [z], arc_parts,
                       scale * (1e-13 + 2.0 ** -51 * abs(z) / (math.pi * near)))


@pytest.mark.parametrize("n, radii, bound", [
    (16, _RADII, 1e-13),
    (64, _RADII, 1e-13),
    (1024, (0.0, 0.99, 1.0 - 2.0 ** -30), 1e-11),
])
def test_samples_match_mpmath(n, radii, bound):
    mp = _mp()
    rng = np.random.default_rng(n)
    grid = TWO_PI * np.arange(n) / n
    j = int(rng.integers(n))
    # on a sample, halfway between two samples, and at random
    angles = (grid[j], grid[j] + 0.5 * TWO_PI / n, float(rng.uniform(0.0, TWO_PI)))
    if n == 1024:  # the mpmath tables cost seconds per point here: one angle per radius
        points = [r * cmath.exp(1j * a) for r, a in zip(radii, angles)]
    else:
        points = _points(angles, radii)
    real, imag = rng.normal(size=n), rng.normal(size=n)
    _check_against(mp, BoundaryFunction.from_samples(grid, real), points,
                   lambda z: (_mp_samples_herglotz(mp, real, z), 0),
                   bound * np.abs(real).max())
    _check_against(mp, BoundaryFunction.from_samples(grid, real + 1j * imag), points,
                   lambda z: (_mp_samples_herglotz(mp, real, z), _mp_samples_herglotz(mp, imag, z)),
                   bound * np.abs(real + 1j * imag).max())


def test_li2_matches_mpmath():
    mp = _mp()
    rng = np.random.default_rng(2)
    w = np.concatenate((
        [0.0, 1e-300, -1.0, 0.5, 0.5 + 1e-16, 0.5 - 1e-16],
        0.5 + 1j * np.linspace(-0.86, 0.86, 41),  # the branch line Re w = 1/2
        1.0 - 10.0 ** -rng.uniform(1, 12, 40) * np.exp(1j * rng.uniform(-1.5, 1.5, 40)),
        (1.0 - 10.0 ** -rng.uniform(0, 12, 200)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200)),
    ))
    got = _li2(w)
    for x, y in zip(w, got):
        want = complex(mp.polylog(2, mp.mpc(complex(x))))
        assert abs(y - want) <= 1e-15, (x, y, want)


def test_sampled_poisson_integral_near_the_circle_returns_a_value():
    # 64 complex samples at r = 0.99: adaptive quadrature raised ResolutionError
    # here after 4,194,304 points; the closed form returns the integral
    mp = _mp()
    n = 64
    rng = np.random.default_rng(0)
    real, imag = rng.normal(size=n), rng.normal(size=n)
    f = BoundaryFunction.from_samples(TWO_PI * np.arange(n) / n, real + 1j * imag)
    want = complex(mp.re(_mp_samples_herglotz(mp, real, 0.99)),
                   mp.re(_mp_samples_herglotz(mp, imag, 0.99)))
    assert abs(poisson_integral(f, 0.99) - want) <= 1e-12


# --- batched evaluation -------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


def _disc_points(count, seed, deepest=1.0 - 2.0 ** -40):
    """Random points out to |z| = deepest, with radii crowding toward it."""
    rng = np.random.default_rng(seed)
    radii = deepest * (1.0 - rng.uniform(0.0, 1.0, count) ** 4)
    return radii * np.exp(1j * rng.uniform(0.0, TWO_PI, count))


_ATOMS = SingularAtoms(angles=(0.3, 2.0, 4.0), masses=(0.5, 1.0, 0.25))
_SAMPLE_GRID = TWO_PI * np.arange(64) / 64
_DENSITIES = {
    "constant": BoundaryFunction.constant(-0.4),
    "cos": BoundaryFunction.form("cos", scale=0.7),
    "sin": BoundaryFunction.form("sin", scale=-1.3),
    "arc": BoundaryFunction.form("indicator-arc", arc=(0.5, 2.0), scale=math.log(2.0)),
    "samples": BoundaryFunction.from_samples(_SAMPLE_GRID, np.cos(3.0 * _SAMPLE_GRID) + 0.2),
}


def _nested_series():
    one = BlaschkeProduct(ZeroSequence.from_zeros([0.3 - 0.4j]))
    radial = BlaschkeProduct(gen_radial_sequence(1.0, 0.5, 30))
    return SeriesSpec(terms=(SeriesTerm(0.5, InnerFunctionSpec(blaschke=one)),
                             SeriesTerm(0.25, InnerFunctionSpec(blaschke=radial, atoms=_ATOMS))))


def _specs():
    radial = BlaschkeProduct(gen_radial_sequence(1.0, 0.5, 30))
    specs = {
        "blaschke": InnerFunctionSpec(blaschke=radial),
        "atoms": InnerFunctionSpec(atoms=_ATOMS),
        "series": InnerFunctionSpec(series=_nested_series()),
        "mixed": InnerFunctionSpec(blaschke=radial, atoms=_ATOMS,
                                   outer=OuterDensity(k=_DENSITIES["arc"], lam=cmath.exp(0.3j)),
                                   series=_nested_series()),
    }
    for name, k in _DENSITIES.items():
        specs[f"outer-{name}"] = InnerFunctionSpec(outer=OuterDensity(k=k, lam=cmath.exp(0.3j)))
    return specs


@pytest.mark.parametrize("count", [1, 2, 7, 513])
@pytest.mark.parametrize("name", sorted(_specs()))
def test_eval_many_has_the_bits_of_one_point_calls(name, count):
    spec = _specs()[name]
    z = _disc_points(count, seed=count)
    got = spec.eval_many(z)
    want = [spec.eval_many(p).item() for p in z.tolist()]
    assert all(type(v) is complex for v in want)
    assert _same_bits(got, np.array(want))
    if spec.blaschke is not None and spec.atoms is None:
        assert _same_bits(got, [spec.blaschke.eval_best_effort(p).value for p in z.tolist()])


@pytest.mark.parametrize("count", [1, 2, 7, 513])
def test_array_evaluators_have_the_bits_of_scalar_calls(count):
    z = _disc_points(count, seed=100 + count)
    got = eval_singular_inner(_ATOMS, z)
    assert _same_bits(got, [eval_singular_inner(_ATOMS, p) for p in z.tolist()])
    for k in _DENSITIES.values():
        density = OuterDensity(k=k, lam=cmath.exp(-1.1j))
        assert _same_bits(eval_outer(density, z), [eval_outer(density, p) for p in z.tolist()])
    assert type(eval_singular_inner(_ATOMS, 0.5)) is complex
    assert type(eval_outer(OuterDensity(k=_DENSITIES["cos"]), 0.5)) is complex


def test_outer_values_keep_the_python_product_bits():
    # lambda exp(H) as one Python complex product, as the scalar evaluator gave it
    lam = cmath.exp(-1.1j)
    z = _disc_points(64, seed=9)
    for k in _DENSITIES.values():
        got = eval_outer(OuterDensity(k=k, lam=lam), z)
        h = [complex(_herglotz(k, np.array([p]), harmonic=False)[0]) for p in z.tolist()]
        assert _same_bits(got, [lam * cmath.exp(v) for v in h])


def _mp_singular(mp, z):
    z = mp.mpc(z)
    expo = mp.mpc(0)
    for angle, mass in zip(_ATOMS.angles, _ATOMS.masses):
        zeta = mp.expj(mp.mpf(angle))
        expo -= mass * (zeta + z) / (zeta - z)
    return mp.exp(expo)


def _singular_slack(z):
    """Relative error allowed in exp(-sum m (zeta + z)/(zeta - z)): a few ulps of
    each term, whose rounded zeta moves it by 2 m |z| |dzeta| / |zeta - z|^2."""
    eps = np.finfo(np.float64).eps
    total = 1.0
    for angle, mass in zip(_ATOMS.angles, _ATOMS.masses):
        gap = abs(cmath.exp(1j * angle) - z)
        total += mass * (2.0 / gap + 2.0 / gap ** 2)
    return 16.0 * eps * total


def _oracle_points():
    """Points on rays toward the atoms, next to them and at random, out to 1 - 2^-40."""
    radii = (0.0, 0.5, 0.99, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40)
    angles = [a + d for a in _ATOMS.angles for d in (0.0, 1e-3)] + [1.0, 5.5]
    return np.array([r * cmath.exp(1j * a) for r in radii for a in angles])


def test_singular_inner_batches_match_mpmath():
    mp = _mp()
    z = _oracle_points()
    got = eval_singular_inner(_ATOMS, z)
    for p, v in zip(z.tolist(), got.tolist()):
        want = complex(_mp_singular(mp, p))
        assert abs(v - want) <= _singular_slack(p) * abs(want) + 1e-300, (p, v, want)


def test_outer_batches_match_mpmath():
    mp = _mp()
    z = _oracle_points()
    lam = cmath.exp(0.3j)
    arc, scale = _DENSITIES["arc"].arc, _DENSITIES["arc"].scale

    def arc_transform(p):
        g = _mp_antiderivative(mp, mp.mpc(p), arc[1]) - _mp_antiderivative(mp, mp.mpc(p), arc[0])
        return scale * g / (2 * mp.pi)

    cases = (
        ("constant", lambda p: mp.mpf(-0.4), lambda p: 1e-13),
        ("cos", lambda p: 0.7 * mp.mpc(p), lambda p: 1e-13),
        ("sin", lambda p: 1.3j * mp.mpc(p), lambda p: 2e-13),
        # the arc transform jumps across the arc ends (see the forms test above)
        ("arc", arc_transform, lambda p: scale * (1e-13 + 2.0 ** -51 * abs(p) / (
            math.pi * min(abs(cmath.exp(1j * end) - p) for end in arc)))),
    )
    for name, transform, slack in cases:
        got = eval_outer(OuterDensity(k=_DENSITIES[name], lam=lam), z)
        for p, v in zip(z.tolist(), got.tolist()):
            want = complex(lam * mp.exp(transform(p)))
            assert abs(v - want) <= slack(p) * abs(want), (name, p, v, want)
    samples = np.cos(3.0 * _SAMPLE_GRID[::4]) + 0.2  # 16 samples keep the mpmath tables cheap
    density = OuterDensity(k=BoundaryFunction.from_samples(_SAMPLE_GRID[::4], samples), lam=lam)
    picks = z[[1, 15, 22, 30, 38, 39]]  # one or two per radius
    for p, v in zip(picks.tolist(), eval_outer(density, picks).tolist()):
        want = complex(lam * mp.exp(_mp_samples_herglotz(mp, samples, p)))
        assert abs(v - want) <= 1e-13 * np.abs(samples).max() * abs(want), (p, v, want)


def _mp_blaschke(mp, prod, z):
    value = mp.mpc(1)
    for angle, deficit in zip(prod.zeros.angles.tolist(), prod.zeros.deficits.tolist()):
        a = (1 - mp.mpf(deficit)) * mp.expj(mp.mpf(angle))
        value *= -(mp.conj(a) / abs(a)) * (z - a) / (1 - mp.conj(a) * z)
    return value


def test_mixed_spec_batches_match_mpmath():
    mp = _mp()

    def product(*zeros):
        return BlaschkeProduct(ZeroSequence.from_zeros(zeros))

    outer_b, b1, b2 = product(0.5j, -0.3 + 0.2j), product(0.3 - 0.4j), product(0.6, -0.1j, 0.2 + 0.7j)
    nested = SeriesSpec(terms=(SeriesTerm(0.5, InnerFunctionSpec(blaschke=b1)),
                               SeriesTerm(0.25, InnerFunctionSpec(blaschke=b2))))
    lam = cmath.exp(-0.7j)
    spec = InnerFunctionSpec(blaschke=outer_b, atoms=_ATOMS,
                             outer=OuterDensity(k=_DENSITIES["cos"], lam=lam), series=nested)
    z = _oracle_points()
    got = spec.eval_many(z)
    for p, v in zip(z.tolist(), got.tolist()):
        q = mp.mpc(p)
        head = _mp_blaschke(mp, outer_b, q) * _mp_singular(mp, p) * lam * mp.exp(0.7 * q)
        tail = 0.5 * _mp_blaschke(mp, b1, q) + 0.25 * _mp_blaschke(mp, b2, q)
        want = complex(head * tail)
        # relative errors of the factors add; the series adds an absolute 1e-13 of its weight
        slack = (_singular_slack(p) + 1e-13) * abs(want) + 1e-13 * 0.75 * abs(complex(head))
        assert abs(v - want) <= slack + 1e-300, (p, v, want)


def _pole_angle():
    """An atom angle whose float e^(i angle) lies inside the disc, so it is a
    valid evaluation point at the atom's pole."""
    return next(t for t in np.arange(1, 2000) * 1e-3 if abs(cmath.exp(1j * t)) < 1.0)


def test_failures_name_the_first_bad_point_in_input_order():
    t = float(_pole_angle())
    s = float(next(u for u in np.arange(2001, 6000) * 1e-3 if abs(cmath.exp(1j * u)) < 1.0))
    atoms = SingularAtoms(angles=(t, s), masses=(1.0, 0.5))
    pole_t, pole_s = cmath.exp(1j * t), cmath.exp(1j * s)
    spec = InnerFunctionSpec(atoms=atoms)
    for evaluate in (lambda z: eval_singular_inner(atoms, np.array(z)), spec.eval_many):
        # poles in input order, whatever the atom order
        with pytest.raises(PoleError, match=re.escape(f"{pole_s!r} coincides with the atom at angle {s}")):
            evaluate([0.1, pole_s, pole_t, 1.5])
        with pytest.raises(ValidationError, match=re.escape("got (1.5+0j)")):
            evaluate([0.1, 1.5, pole_t, 2.0])
        with pytest.raises(PoleError, match=re.escape(repr(pole_t))):
            evaluate([pole_t, -1.0])
    density = OuterDensity(k=_DENSITIES["arc"])
    with pytest.raises(ValidationError, match=re.escape("got (-1+0j)")):
        eval_outer(density, np.array([0.1, 0.9j, -1.0, 2j]))
    with pytest.raises(ValidationError, match=re.escape("|z| = 1.0")):
        poisson_integral(_DENSITIES["cos"], 1j)
    with pytest.raises(ValidationError, match="truncation requires"):
        _specs()["mixed"].eval_many([0.5, 1.0])


@pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.5, math.nan)])
def test_nan_points_are_outside_the_disc(nan):
    atoms = SingularAtoms(angles=(0.0,), masses=(1.0,))
    density = OuterDensity(k=_DENSITIES["arc"])
    for evaluate in (lambda z: eval_singular_inner(atoms, z), lambda z: eval_outer(density, z)):
        for z in (nan, np.array([0.1, nan, 2.0])):
            with pytest.raises(ValidationError, match=re.escape(f"got {nan!r}")):
                evaluate(z)
    with pytest.raises(ValidationError, match=re.escape("|z| = nan")):
        poisson_integral(_DENSITIES["cos"], nan)


def test_spec_failures_are_the_first_failing_points_not_the_first_failing_parts():
    # the Blaschke part fails at 1.5 before the atom part runs, but in input
    # order the atom's pole at the first point fails first
    t = 0.259
    assert abs(cmath.exp(1j * t)) < 1.0
    spec = InnerFunctionSpec(blaschke=BlaschkeProduct(ZeroSequence.from_zeros([0.5])),
                             atoms=SingularAtoms(angles=(t,), masses=(1.0,)))
    pole = cmath.exp(1j * t)
    with pytest.raises(PoleError) as one:
        spec.eval_many(pole)
    for points in ([pole, 1.5], [0.2, pole, 1.5, 0.3j]):
        with pytest.raises(PoleError) as many:
            spec.eval_many(points)
        assert str(many.value) == str(one.value)
    with pytest.raises(ValidationError, match="truncation requires"):
        spec.eval_many([0.2, 1.5, pole])
    nested = InnerFunctionSpec(series=SeriesSpec(terms=(SeriesTerm(1.0, spec),)))
    with pytest.raises(PoleError):
        nested.eval_many([0.1, pole, 2.0])


def test_the_disc_check_agrees_with_pythons_abs():
    # np.abs rounds some moduli next to 1 the other way from Python's abs
    rng = np.random.default_rng(4)
    z = np.exp(1j * rng.uniform(0.0, TWO_PI, 4000)) * (1.0 - rng.integers(0, 3, 4000) * 2.0 ** -53)
    inside = np.array([abs(p) < 1.0 for p in z.tolist()])
    assert ((np.abs(z) < 1.0) != inside).any()
    density = OuterDensity(k=_DENSITIES["cos"])
    for p, ok in zip(z[:400].tolist(), inside[:400]):
        if ok:
            eval_outer(density, p)
        else:
            with pytest.raises(ValidationError):
                eval_outer(density, p)
    values = eval_outer(density, z[inside])
    assert values.shape == (int(inside.sum()),)
