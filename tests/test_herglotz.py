import cmath
import math

import numpy as np
import pytest

from boundarylab.blaschke import BlaschkeProduct
from boundarylab.errors import ResolutionError, ValidationError
from boundarylab.herglotz import (
    QUAD_MAX_POINTS,
    QUAD_MIN_POINTS,
    QUAD_TOLERANCE,
    BoundaryFunction,
    _adaptive_mean,
    InnerFunctionSpec,
    OuterDensity,
    SingularAtoms,
    approx_identity_report,
    eval_outer,
    eval_singular_inner,
    kernel_mass,
    poisson_integral,
    poisson_kernel,
)
from boundarylab.series import build_bgh_sum, build_lohwater_piranian
from boundarylab.unitdisc import TWO_PI, ClosedSetSpec, gen_radial_sequence


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


def test_poisson_integral_resolution_error():
    f = BoundaryFunction.form("cos")
    # 64 points cannot resolve the kernel spike at r = 0.99
    with pytest.raises(ResolutionError) as exc:
        poisson_integral(f, 0.99, 64, tolerance=1e-10)
    assert exc.value.achieved > 0.0
    with pytest.raises(ValidationError):
        poisson_integral(f, 0.5, 32)  # below the 64-point floor


def test_outer_fixed_grid_is_cross_checked_like_the_poisson_integral():
    density = OuterDensity(k=BoundaryFunction.form("cos"))
    with pytest.raises(ResolutionError) as exc:
        eval_outer(density, 0.99, 64, tolerance=1e-10)
    assert exc.value.achieved > 0.0
    # a check that passes returns the doubled grid's value
    assert _same(eval_outer(density, 0.5, 64, tolerance=1e-3), eval_outer(density, 0.5, 128))
    assert _same(poisson_integral(density.k, 0.5, 64, tolerance=1e-3),
                 poisson_integral(density.k, 0.5, 128))
    with pytest.raises(ValidationError):
        eval_outer(density, 0.5, 32, tolerance=1e-3)  # below the 64-point floor


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
    brute = poisson_integral(f, z, 16384)
    assert abs(closed - brute) < 1e-3


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
    assert atoms.total_mass == 1.0
    back = SingularAtoms.from_json(atoms.to_json())
    assert back.angles == atoms.angles
    assert back.masses == atoms.masses


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
    back = OuterDensity.from_json(density.to_json())
    assert back.lam == 1j


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
    got = f.evaluate(np.array([mid]))[0]
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
    ts = np.linspace(0.0, TWO_PI, 37)
    for f in cases:
        back = BoundaryFunction.from_json(f.to_json())
        assert np.allclose(back.evaluate(ts), f.evaluate(ts), atol=1e-15)
    with pytest.raises(ValidationError):
        BoundaryFunction.form("indicator-arc", arc=(1.0, 1.0))
    with pytest.raises(ValidationError):
        BoundaryFunction.form("tan")


def test_inner_function_spec_product():
    prod = BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 30))
    atoms = SingularAtoms(angles=(math.pi,), masses=(0.5,))
    spec = InnerFunctionSpec(blaschke=prod, atoms=atoms)
    z = 0.2 + 0.3j
    want = prod.eval_best_effort(z).value * eval_singular_inner(atoms, z)
    assert abs(spec.eval(z) - want) < 1e-14
    assert spec.is_unit_bounded()
    assert abs(spec.eval(z)) < 1.0


def test_inner_function_spec_boundedness():
    outer = OuterDensity(k=BoundaryFunction.constant(math.log(2.0)))
    assert not InnerFunctionSpec(outer=outer).is_unit_bounded()
    target = ClosedSetSpec(kind="finite-points", points=(0.0,))
    # inverse-square weights start at 1, so two targets already exceed mass 1
    heavy = build_lohwater_piranian([target, target], 3)
    assert not InnerFunctionSpec(series=heavy).is_unit_bounded()
    light = build_bgh_sum([target, target], 3)
    assert InnerFunctionSpec(series=light).is_unit_bounded()


def test_inner_function_spec_json_round_trip():
    prod = BlaschkeProduct(gen_radial_sequence(1.0, 0.5, 12))
    atoms = SingularAtoms(angles=(2.0,), masses=(0.25,))
    spec = InnerFunctionSpec(blaschke=prod, atoms=atoms)
    back = InnerFunctionSpec.from_json(spec.to_json())
    z = 0.4 - 0.2j
    assert abs(back.eval(z) - spec.eval(z)) < 1e-12
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


def _mean_outcome(mean, integrand, *args):
    try:
        return complex(mean(integrand, *args))
    except ResolutionError as exc:
        return str(exc), exc.achieved


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
                         f.evaluate(t) * poisson_kernel(r, theta - t))
            cases.append(lambda t, f=f, z=z:
                         (np.exp(1j * t) + z) / (np.exp(1j * t) - z) * f.evaluate(t))
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
    # the public entry points give the same bits as the full-recompute loop
    tol, low, cap = QUAD_TOLERANCE, QUAD_MIN_POINTS, QUAD_MAX_POINTS
    z = 0.6 * cmath.exp(2.2j)
    want = _full_recompute_mean(
        lambda t: density.evaluate(t) * poisson_kernel(abs(z), cmath.phase(z) - t), 4 * n, tol, cap)
    assert _same(poisson_integral(density, z), want)
    want = _full_recompute_mean(
        lambda t: (np.exp(1j * t) + z) / (np.exp(1j * t) - z) * density.evaluate(t), 4 * n, tol, cap)
    assert _same(eval_outer(OuterDensity(k=density), z), cmath.exp(want))
    want = _full_recompute_mean(lambda t: poisson_kernel(0.99, t) + 0.0j, low, tol, cap)
    assert _same(complex(kernel_mass(0.99)), complex(want.real))
    with pytest.raises(ResolutionError) as exc:
        kernel_mass(0.9999999999)
    want = _mean_outcome(_full_recompute_mean, lambda t: poisson_kernel(0.9999999999, t) + 0.0j,
                         low, tol, cap)
    assert (str(exc.value), exc.value.achieved) == want
