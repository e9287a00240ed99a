import io
import math

import numpy as np
import pytest

from boundarylab import frostman
from boundarylab.errors import ValidationError
from boundarylab.frostman import (
    CONVERGENT,
    DIVERGENT,
    UNDECIDED,
    FrostmanPolicy,
    doubling_schedule,
    frostman_classify,
    frostman_partial,
    frostman_profile,
    frostman_terms,
)
from boundarylab.unitdisc import (
    MAX_ANGLES,
    TWO_PI,
    ZeroSequence,
    gen_radial_sequence,
    uniform_angles,
)


def _naive_terms(seq, theta):
    zeta = complex(math.cos(theta), math.sin(theta))
    out = []
    for z, d in zip(seq.zeros, seq.deficits):
        out.append(d / abs(zeta - complex(z)))
    return np.array(out)


def test_terms_match_naive_formula():
    rng = np.random.default_rng(31)
    angles = rng.uniform(0.0, TWO_PI, size=50)
    deficits = rng.uniform(1e-6, 0.5, size=50)
    seq = ZeroSequence(angles=angles, deficits=deficits)
    for theta in rng.uniform(0.0, TWO_PI, size=10):
        got = frostman_terms(seq, float(theta))
        want = _naive_terms(seq, float(theta))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_terms_survive_tiny_deficits():
    # the stable form keeps the on-ray term equal to 1 even when the complex
    # chord |zeta - a| would round to 0
    seq = ZeroSequence(angles=[0.0], deficits=[2.0 ** -80])
    assert frostman_terms(seq, 0.0)[0] == 1.0
    off = frostman_terms(seq, 1.0)[0]
    assert 0.0 < off < 1e-15


def test_partial_sum_oracle():
    # at the antipode of a radial sequence the chord is 2|a|, so each term is
    # d_k / (1 + (1-d_k)); for rate 1/2 the first three give 1/3 + 1/7 + 1/15
    seq = gen_radial_sequence(0.0, 0.5, 3)
    got = frostman_partial(seq, math.pi, 3)
    assert abs(got - 0.5428571428571428) < 1e-15
    assert frostman_partial(seq, math.pi, 0) == 0.0
    with pytest.raises(ValidationError):
        frostman_partial(seq, 0.0, 4)
    with pytest.raises(ValidationError):
        frostman_partial(seq, 0.0, -1)


def test_on_ray_partial_sums_are_exact():
    seq = gen_radial_sequence(0.0, 0.5, 1050)
    for n in (1, 2, 7, 64, 1000, 1050):
        assert frostman_partial(seq, 0.0, n) == float(n)


class _CountingNumpy:
    """numpy, with the size of every hypot result recorded."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def hypot(self, a, b, out=None):
        out = np.hypot(a, b, out=out)
        self.sizes.append(out.size)
        return out


def test_partial_sums_build_only_the_first_n_terms(monkeypatch):
    rng = np.random.default_rng(12)
    seq = ZeroSequence(angles=rng.uniform(0.0, TWO_PI, 5000),
                       deficits=rng.uniform(1e-9, 1e-2, 5000))
    terms = frostman_terms(seq, 1.0)
    spy = _CountingNumpy()
    monkeypatch.setattr(frostman, "np", spy)
    running = np.concatenate(([0.0], np.cumsum(terms)))
    for n in (0, 1, 100, len(seq)):
        spy.sizes.clear()
        got = frostman_partial(seq, 1.0, n)
        # the same bits as the left-to-right running sum of the full term row
        assert np.float64(got).tobytes() == running[n].tobytes()
        assert sum(spy.sizes) == n


def test_doubling_schedule():
    assert doubling_schedule(0) == (0,)
    assert doubling_schedule(1) == (1,)
    assert doubling_schedule(5) == (1, 2, 4, 5)
    assert doubling_schedule(8) == (1, 2, 4, 8)


def test_dichotomy_on_radial_sequence():
    seq = gen_radial_sequence(0.0, 0.5, 1050)
    at_zero = frostman_classify(seq, 0.0)
    assert at_zero.classification == DIVERGENT
    assert at_zero.partial_sums[-1] >= 1e3
    away = frostman_classify(seq, math.pi)
    assert away.classification == CONVERGENT
    assert away.tail < 1e-6
    assert away.schedule == doubling_schedule(1050)
    monotone = np.diff(away.partial_sums)
    assert np.all(monotone >= 0.0)


def test_undecided_fixture():
    # deficits 2^-k at angles k 2^-k: the sum keeps creeping without ever
    # reaching the divergence threshold over this prefix
    ks = np.arange(1, 901, dtype=np.float64)
    seq = ZeroSequence(angles=ks * np.power(0.5, ks), deficits=np.power(0.5, ks))
    report = frostman_classify(seq, 0.0)
    assert report.classification == UNDECIDED
    assert report.partial_sums[-1] < 1e3
    assert report.tail > 1e-6


def test_policy_validation():
    with pytest.raises(ValidationError):
        FrostmanPolicy(divergence_threshold=0.0)
    with pytest.raises(ValidationError):
        FrostmanPolicy(growth_window=0)
    with pytest.raises(ValidationError):
        FrostmanPolicy(cauchy_tolerance=-1.0)
    # a tiny threshold flips the convergent verdict to divergent
    seq = gen_radial_sequence(0.0, 0.5, 64)
    strict = FrostmanPolicy(divergence_threshold=0.1)
    assert frostman_classify(seq, math.pi, strict).classification == DIVERGENT


def test_profile_grid():
    seq = gen_radial_sequence(0.0, 0.5, 1050)
    profile = frostman_profile(seq, 64)
    assert len(profile.angles) == 64
    assert profile.classifications[0] == DIVERGENT
    assert abs(profile.divergent_fraction - 1.0 / 64.0) < 1e-15
    for theta, cls in zip(profile.angles, profile.classifications):
        assert frostman_classify(seq, float(theta)).classification == cls


def test_classify_and_profile_share_their_sums(monkeypatch):
    import boundarylab.frostman as frostman

    rng = np.random.default_rng(41)
    seq = ZeroSequence(angles=rng.uniform(0.0, TWO_PI, 1050),
                       deficits=rng.uniform(1e-9, 0.3, 1050))
    # a small tile budget splits the profile's sums into many tiles
    monkeypatch.setattr(frostman, "_TILE_ELEMENTS", 3000)
    schedule = doubling_schedule(len(seq))
    profile = frostman_profile(seq, 16)
    from_zero = frostman_profile(seq, 16, prefix_schedule=(0,) + schedule)
    assert np.all(from_zero.partial_sums[:, 0] == 0.0)
    rows = frostman_terms(seq, profile.angles)
    for i, theta in enumerate(profile.angles.tolist()):
        report = frostman_classify(seq, theta)
        assert report.partial_sums == tuple(profile.partial_sums[i].tolist())
        assert report.partial_sums == tuple(from_zero.partial_sums[i, 1:].tolist())
        assert np.array_equal(rows[i], frostman_terms(seq, theta))
    assert frostman_profile(ZeroSequence(angles=[], deficits=[]), 4).partial_sums.tolist() == \
        [[0.0]] * 4


def test_profile_csv_shape():
    seq = gen_radial_sequence(0.0, 0.5, 40)
    profile = frostman_profile(seq, 8)
    buf = io.StringIO()
    profile.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "angle,n,partial_sum,classification"
    schedule = doubling_schedule(40)
    assert len(lines) == 1 + 8 * len(schedule)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"
    assert first[3] in (CONVERGENT, DIVERGENT, UNDECIDED)


def test_profile_refuses_too_many_angles_before_allocating():
    import tracemalloc

    seq = gen_radial_sequence(0.0, 0.5, 30)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="angle cap"):
            frostman_profile(seq, MAX_ANGLES + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _generated(generator):
    return ZeroSequence.from_json({"generator": generator})


def _full_circle(depth):
    return _generated({"kind": "accumulation", "depth": depth, "target": {
        "kind": "arc-union", "arcs": [[0.10384619671527331, 6.3870315038948595]]}})


def _cantor8():
    return _generated({"kind": "accumulation", "depth": 8, "target": {
        "kind": "cantor", "cantor_level": 3,
        "base_arc": [0.25744424357926954, 1.2574442435792696]}})


def _whole_row_sums(seq, angles, schedule):
    """The untiled kernel: all terms of a row in one array, then one cumsum over the row."""
    a, d = seq.angles, seq.deficits
    sums = np.zeros((angles.size, len(schedule)))
    if len(seq):
        first = int(schedule[0] == 0)
        cols = np.subtract(schedule[first:], 1)
        for i, theta in enumerate(angles.tolist()):
            chord = 2.0 * np.sqrt(1.0 - d) * np.abs(np.sin(0.5 * (a - theta)))
            sums[i, first:] = np.cumsum(d / np.hypot(d, chord))[cols]
    return sums


def _tile_edge_schedule(count, width):
    """0, then n on the first and the last column of every tile, and count."""
    edges = {0, count}
    for lo in range(0, count, max(width, 1)):
        edges.update((lo + 1, min(lo + width, count)))
    return tuple(sorted(edges))


def test_tiled_sums_match_whole_row_cumsum_bit_for_bit(monkeypatch):
    budget = 3000
    monkeypatch.setattr(frostman, "_TILE_ELEMENTS", budget)
    rng = np.random.default_rng(43)
    seqs = {
        "full10": _full_circle(10),
        "cantor8": _cantor8(),
        "radial60": _generated({"kind": "radial", "angle": 1.6951199159934145, "rate": 0.5,
                                "count": 60}),
        "random5000": ZeroSequence(angles=rng.uniform(0.0, TWO_PI, 5000),
                                   deficits=rng.uniform(1e-12, 0.5, 5000)),
        "one": ZeroSequence(angles=[2.0], deficits=[0.25]),
        "empty": ZeroSequence(angles=[], deficits=[]),
    }
    assert len(seqs["full10"]) > 20 * budget  # many column tiles
    assert 2 * len(seqs["cantor8"]) < budget  # several angles per row group
    for name, seq in seqs.items():
        count = len(seq)
        edges = _tile_edge_schedule(count, min(count, budget))
        schedules = {doubling_schedule(count), edges, edges[:len(edges) // 2 + 1]}
        if count:
            schedules.add((0,) + doubling_schedule(count))
        for angle_count in (1, 7, 33, 64):
            angles = uniform_angles(angle_count)
            if count:
                angles[0] = seq.angles[-1]  # a term exactly 1
            for schedule in schedules:
                got = frostman._schedule_sums(seq, angles, schedule)
                assert np.array_equal(got, _whole_row_sums(seq, angles, schedule)), \
                    (name, angle_count, schedule)
        if count:
            theta = float(seq.angles[0])
            want = seq.deficits / np.hypot(seq.deficits, 2.0 * np.sqrt(1.0 - seq.deficits)
                                           * np.abs(np.sin(0.5 * (seq.angles - theta))))
            assert np.array_equal(frostman_terms(seq, theta), want)


def test_partial_has_the_bits_of_the_classifier_sums():
    for seq in (_full_circle(10), _cantor8()):
        for theta in (1.0, 1.0 + TWO_PI, float(seq.angles[-1])):
            report = frostman_classify(seq, theta)
            got = [frostman_partial(seq, theta, n) for n in report.schedule]
            assert np.array(got).tobytes() == np.array(report.partial_sums).tobytes()


def test_kernel_memory_does_not_grow_with_the_zero_count():
    import tracemalloc

    full12 = _full_circle(12)
    assert len(full12) == 797163
    tracemalloc.start()
    try:
        frostman_profile(full12, 8)
        _, profile_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        frostman_classify(full12, 1.0)
        _, classify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile_peak < 8 << 20
    assert classify_peak < 8 << 20
