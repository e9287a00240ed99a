"""Bundled acceptance checks: one quantitative criterion per headline property.

Thirteen independent criteria exercise the public API end to end: finite and
infinite Blaschke products, the Poisson kernel and its harmonic extensions,
singular inner and outer factors, the Frostman classifier, cluster-set
probes, weighted series, and the raster hole checker.  Each criterion gets
its own seeded generator, so runs are reproducible and reordering or skipping
criteria does not change any of them.  ``run_acceptance`` executes a
selection and ``format_table`` renders one PASS/FAIL line per criterion; the
``selftest`` subcommand and the test suite both consume these.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fixtures
from .blaschke import (
    _PATH_NAMES,
    BlaschkeProduct,
    _path_offsets,
    default_radius_schedule,
    limit_probe,
)
from .frostman import CONVERGENT, DIVERGENT, frostman_classify, frostman_partial, frostman_profile
from .grid import is_arakeljan, union_check
from .herglotz import (
    BoundaryFunction,
    OuterDensity,
    SingularAtoms,
    eval_outer,
    eval_singular_inner,
    kernel_mass,
    poisson_integral,
)
from .series import build_lohwater_piranian, eval_series
from .unitdisc import (
    TWO_PI,
    ClosedSetSpec,
    ZeroSequence,
    gen_accumulation_sequence,
    gen_radial_sequence,
)

# Frozen reference for the infinite product over zeros 1 - 2^-k at angle 0,
# computed independently with exact rational arithmetic over 200 factors.
REFERENCE_PRODUCT_AT_ZERO = 0.2887880951


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _random_zeros(rng: np.random.Generator, count: int, max_radius: float = 0.95) -> ZeroSequence:
    radii = rng.uniform(0.0, max_radius, size=count)
    angles = rng.uniform(0.0, TWO_PI, size=count)
    return ZeroSequence(angles=angles, deficits=1.0 - radii)


def _random_interior_point(rng: np.random.Generator, max_radius: float) -> complex:
    r = rng.uniform(0.0, max_radius)
    t = rng.uniform(0.0, TWO_PI)
    return r * cmath.exp(1j * t)


def _criterion_unimodularity(rng: np.random.Generator) -> tuple[bool, str]:
    """Finite products have modulus 1 everywhere on the circle."""
    product = BlaschkeProduct(_random_zeros(rng, 20))
    worst = 0.0
    for t in TWO_PI * np.arange(4096) / 4096.0:
        value = product.eval_partial(20, cmath.exp(1j * t))
        worst = max(worst, abs(abs(value) - 1.0))
    return worst < 1e-9, f"max ||B|-1| = {worst:.3e} over 4096 boundary samples (need < 1e-9)"


def _criterion_center_value(rng: np.random.Generator) -> tuple[bool, str]:
    """B(0) equals the product of the zero moduli."""
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 41))
        seq = _random_zeros(rng, count)
        value = BlaschkeProduct(seq).eval_partial(count, 0.0)
        oracle = float(np.multiply.reduce(1.0 - seq.deficits))
        worst = max(worst, abs(value - oracle) / oracle)
    return worst < 1e-12, f"max relative error {worst:.3e} over 100 products (need < 1e-12)"


def _criterion_truncation_bound(rng: np.random.Generator) -> tuple[bool, str]:
    """|B_2n - B_n| stays below the certified growth * tail-mass bound."""
    seq = gen_radial_sequence(0.0, 0.5, 64)
    product = BlaschkeProduct(seq)
    growth = (1.0 + 0.9) / (1.0 - 0.9)
    worst = 0.0
    for _ in range(100):
        z = _random_interior_point(rng, 0.9)
        for n in (8, 16, 32):
            diff = abs(product.eval_partial(2 * n, z) - product.eval_partial(n, z))
            bound = growth * float(np.sum(seq.deficits[n:2 * n]))
            worst = max(worst, diff / bound)
    return worst <= 1.0, f"max |B_2n - B_n| / bound = {worst:.3f} (need <= 1)"


def _criterion_infinite_product(rng: np.random.Generator) -> tuple[bool, str]:
    """Truncated value at 0 matches the frozen 200-factor reference."""
    product = BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 60), truncation_tolerance=1e-6)
    value, count, bound = (x.item() for x in product.eval_many([0.0], strict=True))
    err = abs(value - REFERENCE_PRODUCT_AT_ZERO)
    ok = err < 1e-6 and bound <= 1e-6
    return ok, (
        f"B(0) = {value.real:.10f} from {count} factors, "
        f"|error| = {err:.3e} (need < 1e-6)"
    )


def _criterion_kernel_mass(rng: np.random.Generator) -> tuple[bool, str]:
    """The Poisson kernel has unit mean on the circle."""
    worst = max(abs(kernel_mass(r) - 1.0) for r in (0.5, 0.9, 0.99))
    return worst < 1e-8, f"max |mass - 1| = {worst:.3e} at r in {{0.5, 0.9, 0.99}} (need < 1e-8)"


def _path_point_at_chord(path: int, angle: float, chord: float) -> complex:
    """Point of offset path number `path` of the limit probe at the given chord distance."""
    zeta = cmath.exp(1j * angle)

    def point(s: float) -> complex:
        return (1.0 - s) * cmath.exp(1j * (angle + float(_path_offsets(s)[path])))

    lo, hi = 0.0, 0.25
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if abs(point(mid) - zeta) < chord:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi))


def _criterion_fatou_paths(rng: np.random.Generator) -> tuple[bool, str]:
    """P[cos] equals r cos(theta) inside and approaches cos(theta0) along paths."""
    f = BoundaryFunction.form("cos")
    worst_interior = 0.0
    for _ in range(100):
        z = _random_interior_point(rng, 0.95)
        got = poisson_integral(f, z)
        want = abs(z) * math.cos(cmath.phase(z))
        worst_interior = max(worst_interior, abs(got - want))
    theta0 = 1.0
    target = math.cos(theta0)
    worst_path = 0.0
    for path in range(len(_PATH_NAMES)):
        z = _path_point_at_chord(path, theta0, 1e-3)
        worst_path = max(worst_path, abs(poisson_integral(f, z) - target))
    ok = worst_interior < 1e-8 and worst_path < 1e-3
    return ok, (
        f"interior error {worst_interior:.3e} (need < 1e-8); "
        f"path error {worst_path:.3e} at chord 1e-3 over 5 paths (need < 1e-3)"
    )


def _criterion_singular_atom(rng: np.random.Generator) -> tuple[bool, str]:
    """A unit atom at angle 0: value e^-1 at 0, decay toward the atom only."""
    atoms = SingularAtoms(angles=(0.0,), masses=(1.0,))
    center_err = abs(eval_singular_inner(atoms, 0.0) - math.exp(-1.0))
    radii = np.linspace(0.0, 1.0 - 1e-4, 256)
    toward = [abs(eval_singular_inner(atoms, complex(r, 0.0))) for r in radii]
    away = abs(eval_singular_inner(atoms, complex(-radii[-1], 0.0)))
    monotone = all(b <= a for a, b in zip(toward, toward[1:]))
    # strict decrease is only meaningful above the underflow floor
    strict = all(b < a for a, b in zip(toward, toward[1:]) if a > 1e-12)
    ok = center_err < 1e-12 and monotone and strict and toward[-1] < 1e-6 and away > 0.999
    return ok, (
        f"|g(0) - 1/e| = {center_err:.3e}; radial modulus at the atom "
        f"{toward[-1]:.3e} (need < 1e-6), opposite {away:.6f} (need > 0.999)"
    )


def _criterion_outer_modulus(rng: np.random.Generator) -> tuple[bool, str]:
    """Outer function for log(2) * arc indicator has boundary modulus 2 / 1."""
    density = OuterDensity(
        k=BoundaryFunction.form("indicator-arc", arc=(0.0, math.pi), scale=math.log(2.0))
    )
    r = 0.999
    interior = (0.5 * math.pi - 0.5, 0.5 * math.pi, 0.5 * math.pi + 0.5)
    exterior = (1.5 * math.pi - 0.5, 1.5 * math.pi, 1.5 * math.pi + 0.5)
    worst_in = max(
        abs(abs(eval_outer(density, r * cmath.exp(1j * t))) - 2.0) for t in interior
    )
    worst_out = max(
        abs(abs(eval_outer(density, r * cmath.exp(1j * t))) - 1.0) for t in exterior
    )
    ok = worst_in < 1e-2 and worst_out < 1e-2
    return ok, (
        f"| |F| - 2 | = {worst_in:.3e} inside the arc, | |F| - 1 | = {worst_out:.3e} "
        f"outside, at r = 0.999 (need < 1e-2)"
    )


def _criterion_frostman_dichotomy(rng: np.random.Generator) -> tuple[bool, str]:
    """Radial zeros: divergent at their angle, convergent opposite, exact sums."""
    seq = gen_radial_sequence(0.0, 0.5, 1050)
    at_zero = frostman_classify(seq, 0.0)
    at_pi = frostman_classify(seq, math.pi)
    exact = all(
        frostman_partial(seq, 0.0, n) == float(n) for n in (1, 2, 7, 64, 1000, 1050)
    )
    profile = frostman_profile(seq, 64)
    monotone = bool(np.all(np.diff(profile.partial_sums, axis=1) >= 0.0))
    ok = (
        at_zero.classification == DIVERGENT
        and at_pi.classification == CONVERGENT
        and exact
        and monotone
    )
    return ok, (
        f"theta=0: {at_zero.classification} (f_1050 = {at_zero.partial_sums[-1]:.1f}), "
        f"theta=pi: {at_pi.classification}; f_n(0) = n exactly: {exact}; "
        f"monotone on 64-angle grid: {monotone}"
    )


def _criterion_cluster_diameter(rng: np.random.Generator) -> tuple[bool, str]:
    """Zeros equidistributed toward the whole circle: big cluster sets everywhere."""
    target = ClosedSetSpec(kind="arc-union", arcs=((0.0, TWO_PI),))
    product = BlaschkeProduct(gen_accumulation_sequence(target, 12))
    radii = default_radius_schedule()[30:]
    smallest = math.inf
    for angle in TWO_PI * np.arange(16) / 16.0:
        report = limit_probe(product, float(angle), radii=radii)
        smallest = min(smallest, report.cluster_diameter_estimate)
    return smallest >= 0.9, (
        f"min cluster diameter estimate {smallest:.6f} over 16 boundary points "
        f"({len(product)} zeros; need >= 0.9)"
    )


def _criterion_series_bounds(rng: np.random.Generator) -> tuple[bool, str]:
    """Inverse-square series: weight cap, global bound, honest truncation."""
    targets = (
        ClosedSetSpec(kind="finite-points", points=(0.0,)),
        ClosedSetSpec(kind="arc-union", arcs=((math.pi / 3.0, 2.0 * math.pi / 3.0),)),
        ClosedSetSpec(kind="cantor", cantor_level=3, base_arc=(math.pi, 1.5 * math.pi)),
    )
    spec = build_lohwater_piranian(targets, depth=6)
    total = spec.total_weight
    weights_ok = total < math.pi * math.pi / 6.0
    unused = total - spec.terms[0].weight - spec.terms[1].weight
    zs = np.array([_random_interior_point(rng, 0.95) for _ in range(100)])
    full = eval_series(spec, zs, tol=1e-15).value
    part = eval_series(spec, zs, tol=0.2)
    worst_value = float(np.max(np.abs(full)))
    worst_excess = max(0.0, float(np.max(np.abs(full - part.value))) - part.tail_bound)
    tail_matches = abs(eval_series(spec, 0.0, tol=0.2).tail_bound - unused) < 1e-12
    ok = (
        weights_ok
        and worst_value <= total + 1e-12
        and worst_excess <= 1e-12
        and tail_matches
    )
    return ok, (
        f"weight sum {total:.4f} < pi^2/6; max |Phi| = {worst_value:.4f} "
        f"(cap {total:.4f}); max truncation excess {worst_excess:.2e} (need <= 0)"
    )


def _criterion_hole_fixtures(rng: np.random.Generator) -> tuple[bool, str]:
    """Annulus and two-circle fixtures give the frozen verdicts at 1x and 2x."""
    problems: list[str] = []
    for res in (64, 128):
        verdict = is_arakeljan(fixtures.annulus_window_plane(res), "f")
        if not (
            verdict.label == "fails"
            and verdict.failed_condition == 1
            and len(verdict.witnesses) == 1
            and verdict.witnesses[0].is_g_hole
        ):
            problems.append(f"annulus@{res}: {verdict.label}/{verdict.failed_condition}")
    for res in (96, 192):
        rep = union_check(fixtures.punctured_disc_plane(res), "e", "f")
        if not (
            rep.e_verdict.passed
            and rep.f_verdict.passed
            and not rep.independence.independent
            and rep.independence.witness is not None
            and rep.union_verdict.label == "fails"
            and rep.union_verdict.failed_condition == 1
        ):
            problems.append(
                f"two-circles@{res}: E={rep.e_verdict.label} F={rep.f_verdict.label} "
                f"indep={rep.independence.independent} union={rep.union_verdict.label}"
            )
    if problems:
        return False, "; ".join(problems)
    return True, (
        "annulus fails condition 1 with one G-hole witness; two-circle fixture: "
        "E pass, F pass, dependent, union fails; stable at 2x refinement"
    )


def _criterion_union_law(rng: np.random.Generator) -> tuple[bool, str]:
    """Disjoint independent probe-passing pairs: the union always passes."""
    seed = int(rng.integers(2**31))
    qualifying = 0
    union_failures = 0
    draws = 0
    for plane in fixtures.iter_random_pairs(seed=seed, count=600, size=48):
        draws += 1
        rep = union_check(plane, "e", "f")
        if not (
            rep.e_verdict.passed
            and rep.f_verdict.passed
            and rep.independence.independent
        ):
            continue
        qualifying += 1
        if not rep.union_verdict.passed:
            union_failures += 1
        if qualifying >= 120:
            break
    ok = qualifying >= 100 and union_failures == 0
    return ok, (
        f"{qualifying} qualifying pairs from {draws} draws (need >= 100); "
        f"{union_failures} union failures (need 0)"
    )


CRITERIA: tuple[tuple[str, Callable[[np.random.Generator], tuple[bool, str]]], ...] = (
    ("finite-product-unimodularity", _criterion_unimodularity),
    ("center-value", _criterion_center_value),
    ("truncation-bound", _criterion_truncation_bound),
    ("infinite-product-value", _criterion_infinite_product),
    ("poisson-kernel-mass", _criterion_kernel_mass),
    ("fatou-approach-paths", _criterion_fatou_paths),
    ("singular-atom-decay", _criterion_singular_atom),
    ("outer-boundary-modulus", _criterion_outer_modulus),
    ("frostman-dichotomy", _criterion_frostman_dichotomy),
    ("cluster-diameter", _criterion_cluster_diameter),
    ("series-bounds", _criterion_series_bounds),
    ("hole-condition-fixtures", _criterion_hole_fixtures),
    ("union-law-suite", _criterion_union_law),
)


def run_acceptance(seed: int = 0, indices: Sequence[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), each on its own generator.

    A criterion that raises is reported as a failure with the exception text;
    the table must always cover the full selection, so nothing propagates.
    """
    if indices is None:
        selected: Sequence[int] = range(1, len(CRITERIA) + 1)
    else:
        selected = list(indices)
        for idx in selected:
            if not 1 <= idx <= len(CRITERIA):
                raise ValueError(f"criterion index {idx} outside 1..{len(CRITERIA)}")
    results: list[CriterionResult] = []
    for idx in selected:
        name, fn = CRITERIA[idx - 1]
        rng = np.random.default_rng(1000 * seed + idx)
        start = time.perf_counter()
        try:
            passed, detail = fn(rng)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(idx, name, passed, detail, time.perf_counter() - start))
    return results


def all_passed(results: Sequence[CriterionResult]) -> bool:
    return all(res.passed for res in results)


def format_table(results: Sequence[CriterionResult]) -> str:
    """One PASS/FAIL line per criterion plus a summary line.

    Wall times are left out, so a table depends only on the seed and the
    selection.
    """
    lines = [
        f"[{res.index:2d}] {'PASS' if res.passed else 'FAIL'} {res.name:<30} {res.detail}"
        for res in results
    ]
    count = sum(1 for res in results if res.passed)
    lines.append(f"{count}/{len(results)} criteria passed")
    return "\n".join(lines)
