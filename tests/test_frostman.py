import io
import math
import pickle

import numpy as np
import pytest

from boundarylab import frostman
from boundarylab.blaschke import _zeros_at
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
)
from boundarylab.unitdisc import (
    BLOCK_ANGLE_SLACK,
    MAX_ANGLES,
    TWO_PI,
    ZeroSequence,
    gen_radial_sequence,
    uniform_angles,
)


def _naive_terms(seq, theta):
    zeta = complex(math.cos(theta), math.sin(theta))
    out = []
    for z, d in zip(_zeros_at(seq, slice(None)), seq.deficits):
        out.append(d / abs(zeta - complex(z)))
    return np.array(out)


def _terms(seq, theta):
    """The summands d_k / |e^(i theta) - a_k| with the classifier's bits: the law
    of cosines in polar form, |e^(i theta) - a| = hypot(d, 2 sqrt(1 - d) sin(gap / 2))."""
    d = seq.deficits
    return d / np.hypot(d, 2.0 * np.sqrt(1.0 - d) * np.abs(np.sin(0.5 * (seq.angles - theta))))


def test_terms_match_naive_formula():
    rng = np.random.default_rng(31)
    angles = rng.uniform(0.0, TWO_PI, size=50)
    deficits = rng.uniform(1e-6, 0.5, size=50)
    seq = ZeroSequence(angles=angles, deficits=deficits)
    for theta in rng.uniform(0.0, TWO_PI, size=10):
        got = [frostman_partial(seq, float(theta), n) for n in range(1, len(seq) + 1)]
        want = np.cumsum(_naive_terms(seq, float(theta)))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_terms_survive_tiny_deficits():
    # the stable form keeps the on-ray term equal to 1 even when the complex
    # chord |zeta - a| would round to 0
    seq = ZeroSequence(angles=[0.0], deficits=[2.0 ** -80])
    assert frostman_partial(seq, 0.0, 1) == 1.0
    off = frostman_partial(seq, 1.0, 1)
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
    terms = _terms(seq, 1.0)
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


_POSITIVE = "must be finite and positive, got"


@pytest.mark.parametrize("kwargs, message", [
    ({"divergence_threshold": math.nan}, f"divergence_threshold {_POSITIVE} nan"),
    ({"divergence_threshold": math.inf}, f"divergence_threshold {_POSITIVE} inf"),
    ({"divergence_threshold": 0.0}, f"divergence_threshold {_POSITIVE} 0.0"),
    ({"divergence_threshold": True}, f"divergence_threshold {_POSITIVE} True"),
    ({"cauchy_tolerance": math.nan}, f"cauchy_tolerance {_POSITIVE} nan"),
    ({"cauchy_tolerance": -math.inf}, f"cauchy_tolerance {_POSITIVE} -inf"),
    ({"cauchy_tolerance": "1e-3"}, f"cauchy_tolerance {_POSITIVE} '1e-3'"),
    ({"growth_window": 2.5}, "growth_window must be a positive integer, got 2.5"),
    ({"growth_window": True}, "growth_window must be a positive integer, got True"),
    ({"growth_window": 0}, "growth_window must be a positive integer, got 0"),
    ({"growth_window": "4"}, "growth_window must be a positive integer, got '4'"),
])
def test_policy_refuses_bad_thresholds_and_windows_with_their_message(kwargs, message):
    # a nan threshold or tolerance would turn a divergent or convergent angle
    # undecided, and a float window would fail inside frostman_classify
    with pytest.raises(ValidationError) as info:
        FrostmanPolicy(**kwargs)
    assert str(info.value) == message


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
    profile = frostman_profile(seq, 16)
    assert profile.schedule == doubling_schedule(len(seq))
    for i, theta in enumerate(profile.angles.tolist()):
        report = frostman_classify(seq, theta)
        assert report.partial_sums == tuple(profile.partial_sums[i].tolist())
        assert frostman_partial(seq, theta, 0) == 0.0
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


def test_profile_refuses_more_grid_rows_than_the_cap_before_allocating(monkeypatch):
    # with the cap patched down to 64 rows, 30 zeros (6 schedule entries) allow
    # 10 angles and refuse 11 before any partial sum is computed
    seq = gen_radial_sequence(0.0, 0.5, 30)
    assert len(doubling_schedule(len(seq))) == 6
    monkeypatch.setattr(frostman, "MAX_ANGLES", 64)
    assert frostman_profile(seq, 10).partial_sums.shape == (10, 6)
    monkeypatch.setattr(frostman, "_schedule_sums", None)
    with pytest.raises(ValidationError) as info:
        frostman_profile(seq, 11)
    assert str(info.value) == \
        "11 angles x 6 schedule entries exceed the 64 row cap of the frostman grid"


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
    full10 = _full_circle(10)
    seqs = {
        # the full-circle zeros without their blocks, so the term-by-term
        # kernel (not the block route) sums them
        "full10": ZeroSequence(angles=full10.angles, deficits=full10.deficits),
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
            assert frostman_partial(seq, theta, count) == np.cumsum(_terms(seq, theta))[-1]


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
        tracemalloc.reset_peak()
        # the block route tiles over angles: 4,096 angles fit the same ceiling
        frostman_profile(full12, 4096)
        _, wide_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile_peak < 8 << 20
    assert classify_peak < 8 << 20
    assert wide_peak < 8 << 20


# --- the block route ---------------------------------------------------------

UNIT = 2.0 ** -53


def _block_ends(seq):
    return [b.start + b.count for b in seq.blocks]


def test_block_route_sums_do_not_depend_on_the_batch(monkeypatch):
    seq = _full_circle(10)
    ends = _block_ends(seq)
    assert ends[-1] == len(seq)
    tiles = []
    range_sums = frostman._range_sums

    def spy(stored, theta, *rest):
        tiles.append(theta.size)
        return range_sums(stored, theta, *rest)
    monkeypatch.setattr(frostman, "_range_sums", spy)
    # a small budget splits the angles into tiles of two
    monkeypatch.setattr(frostman, "_TILE_ELEMENTS", 5000)
    on_zero = [float(seq.angles[-1]), float(seq.angles[ends[-2]]), float(seq.angles[0])]
    angles = np.concatenate([uniform_angles(24), on_zero])
    doubling = doubling_schedule(len(seq))
    mids = [e - 1 for e in ends[5:]] + [e + 300 for e in ends[5:-1]]
    schedule = tuple(sorted(set(doubling) | set(ends) | set(mids)))
    batch = frostman._schedule_sums(seq, angles, schedule)
    assert len(tiles) > 1 and max(tiles) < angles.size
    assert np.all(batch[-3:, -1] >= 1.0)  # each on-zero row holds a term of exactly 1
    profile = frostman_profile(seq, 24)
    cols = [schedule.index(n) for n in doubling]
    for i, theta in enumerate(angles.tolist()):
        alone = frostman._schedule_sums(seq, angles[i:i + 1], schedule)[0]
        assert alone.tobytes() == batch[i].tobytes()
        report = frostman_classify(seq, theta)
        assert np.array(report.partial_sums).tobytes() == batch[i, cols].tobytes()
        if i < 24:
            assert profile.partial_sums[i].tobytes() == batch[i, cols].tobytes()
        for n in ends + mids:
            got = frostman_partial(seq, theta, n)
            assert np.float64(got).tobytes() == batch[i, schedule.index(n)].tobytes()


def test_block_route_computes_each_frame_and_k_once_per_block(monkeypatch):
    """Each tile fills each block frame once; K(-c) of each block is computed
    once per (blocks, schedule), however many calls and tiles use it."""
    seq = _full_circle(10)
    ends = _block_ends(seq)
    mids = [e - 1 for e in ends[5:]] + [e + 300 for e in ends[5:-1]]
    schedule = tuple(sorted(set(doubling_schedule(len(seq))) | set(ends) | set(mids)))
    frame_terms, k_args, calls = [], [], []
    fill, rf, range_sums = frostman._fill_terms, frostman._carlson_rf, frostman._range_sums

    def fill_spy(angles, d, scale, theta, out):
        if out.ndim == 3:  # the block route's (angles, frames, _FRAME) terms
            frame_terms.append(out.size)
        return fill(angles, d, scale, theta, out)

    def rf_spy(x, y, z):
        if np.all(np.asarray(x) == 0.0):  # R_F(0, 1 + c, 1) = K(-c)
            k_args.append(sorted(np.ravel(y).tolist()))
        return rf(x, y, z)

    def range_spy(*args):
        calls.append(args[1].size)
        return range_sums(*args)
    monkeypatch.setattr(frostman, "_fill_terms", fill_spy)
    monkeypatch.setattr(frostman, "_carlson_rf", rf_spy)
    monkeypatch.setattr(frostman, "_range_sums", range_spy)
    frostman._block_plan.cache_clear()
    first = frostman._schedule_sums(seq, uniform_angles(64), schedule)
    again = frostman._schedule_sums(seq, uniform_angles(64), schedule)
    assert again.tobytes() == first.tobytes()
    frames, ranges = set(), 0
    for start, stop, gregory in _segments(seq):
        qs = [min(n, stop) - start for n in schedule if n > start]
        if gregory:
            frames |= {(start, q <= frostman._FRAME) for q in qs}
            ranges += len(set(qs))
    assert len(calls) > 2 and sum(calls) == 2 * 64  # several angle tiles per call
    assert len(frames) < ranges
    assert sum(frame_terms) == 2 * 64 * len(frames) * frostman._FRAME
    ks = sorted(1.0 + 4.0 * (1.0 - b.deficit) / (b.deficit * b.deficit)
                for b in seq.blocks if b.count > frostman._FRAME)
    assert len(ks) == 6 and k_args == [ks]


def _segments(seq):
    """(start, stop, gregory?) of the block route's segments."""
    big = [b.count > frostman._FRAME for b in seq.blocks]
    out = []
    for k, b in enumerate(seq.blocks):
        if k and not big[k] and not big[k - 1]:
            out[-1][1] = b.start + b.count
        else:
            out.append([b.start, b.start + b.count, big[k]])
    return out


def _route_bound(seq, n, value):
    """The module docstring's bound on |f_n - sum over the stored angles| for the
    block route, with the rounding of its sums; value is about f_n."""
    mpmath = pytest.importorskip("mpmath")
    p, k = len(frostman._GREGORY), frostman._WINDOW
    kappa, lam = 0.0026515, float(np.sum(np.abs(frostman._END_WEIGHTS)))
    assert p == 13 and lam < 79.8
    eps = BLOCK_ANGLE_SLACK + 8.0 * math.ulp(TWO_PI)
    segments = [s for s in _segments(seq) if s[0] < n]
    longest = 0
    total = 0.0
    for start, stop, gregory in segments:
        q = min(stop, n) - start
        if not gregory or q <= frostman._FRAME:
            longest = max(longest, q)
            continue
        block = next(b for b in seq.blocks if b.start == start)
        d, h = block.deficit, TWO_PI / block.count
        tau = d / (h * math.sqrt(1.0 - d))
        c = 4.0 * (1.0 - d) / (d * d)
        e1 = kappa * math.pi * math.e * (p + 2) * math.factorial(p) / k ** (p + 1) * tau
        e2 = (2.0 * math.pi * (math.e + 1.0) + 4.0 * math.pi * math.e * lam / k) \
            * eps * tau / (h * k)
        e3 = 384.0 * UNIT * float(mpmath.ellipk(-c)) / h
        rounding = 8.0 * math.pi * lam * UNIT * tau / k
        total += e1 + e2 + e3 + rounding
    return total + UNIT * abs(value) * (32 + len(segments) + longest)


def _reference_sums(seq, theta, ends, near=256):
    """f_n over the stored angles, and the reference's own error bound.

    Within `near` indices of theta's position in each block the terms are
    summed in 30-digit mpmath; every other term is computed in float64 and
    the runs between consecutive ends are summed exactly rounded by
    math.fsum. A float64 term is within 4 units of 2^-53 of the exact term
    at its rounded a - theta, which is within ulp(2 pi) / 2 of the exact
    difference; the docstring's |dg/dangle| bound turns that into `shift`.
    """
    mpmath = pytest.importorskip("mpmath")
    a, d = seq.angles, seq.deficits
    close = np.zeros(len(seq), dtype=bool)
    shift = 0.0
    for b in seq.blocks:
        if b.count > 2 * near + 1:
            h = TWO_PI / b.count
            tau = b.deficit / (h * math.sqrt(1.0 - b.deficit))
            shift += 2.0 * math.pi * math.e * tau * math.ulp(TWO_PI) / (2.0 * h * near)
        j = np.arange(b.count)
        j0 = ((theta - b.angle) / (TWO_PI / b.count)) % b.count
        gap = np.abs(j - j0)
        close[b.start:b.start + b.count] = np.minimum(gap, b.count - gap) <= near
    terms = d / np.hypot(d, 2.0 * np.sqrt(1.0 - d) * np.sin(0.5 * (a - theta)))
    with mpmath.workdps(30):
        exact = np.zeros(len(seq), dtype=object)
        th = mpmath.mpf(theta)
        for i in np.flatnonzero(close).tolist():
            di = mpmath.mpf(float(d[i]))
            sin = mpmath.sin((mpmath.mpf(float(a[i])) - th) / 2)
            exact[i] = di / mpmath.sqrt(di * di + 4 * (1 - di) * sin * sin)
        sums, errors = [], []
        acc, err, lo = mpmath.mpf(0), 0.0, 0
        for n in ends:
            far = terms[lo:n][~close[lo:n]]
            part = math.fsum(far.tolist())
            acc += mpmath.fsum(exact[lo:n][close[lo:n]].tolist()) + part
            err += 4.0 * UNIT * part + UNIT * part
            sums.append(acc)
            errors.append(err + shift)
            lo = n
    return sums, errors


@pytest.mark.parametrize("depth", [10, 12])
def test_block_route_is_within_its_bound_of_an_mpmath_sum(depth):
    pytest.importorskip("mpmath")
    seq = _full_circle(depth)
    ends = sorted(set(doubling_schedule(len(seq))) | set(_block_ends(seq)))
    last = seq.blocks[-1]
    assert abs(last.deficit - 4.6e-10) < 1e-11 or depth == 10
    between = last.angle + (0.5 + 1000) * TWO_PI / last.count  # midway between two deepest zeros
    for theta in (float(seq.angles[-1]), 2.0, between % TWO_PI):
        got = frostman._schedule_sums(seq, np.array([theta]), ends)[0]
        want, slack = _reference_sums(seq, theta, ends)
        for n, g, w, s in zip(ends, got.tolist(), want, slack):
            bound = _route_bound(seq, n, g) + s
            assert abs(g - w) <= bound, (theta, n, float(abs(g - w)), bound)


def test_elliptic_integral_is_within_the_stated_accuracy():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    u = np.concatenate([rng.uniform(-math.pi, math.pi, 200),
                        [math.pi / 2, -math.pi / 2, 1e-9, 0.0]])
    # a block's deficit is at least 2^-54, so c = 4 (1 - d) / d^2 < 2^110
    c = 10.0 ** rng.uniform(-1.0, 33.0, u.size)
    got = frostman._ellipf(u, c, frostman._carlson_rf(0.0, 1.0 + c, 1.0))
    with mpmath.workdps(30):
        for ui, ci, g in zip(u.tolist(), c.tolist(), got.tolist()):
            kc = mpmath.ellipk(-ci)
            want = mpmath.ellipf(ui, -ci)
            # 48 units of 2^-53 of K(-c), plus the rounding of u - k pi moving the argument
            slope = 1.0 / math.sqrt(1.0 + ci * math.sin(ui) ** 2)
            assert abs(g - want) <= 48.0 * UNIT * kc + slope * 2.0 * math.ulp(TWO_PI)


def _former_carlson_rf(x, y, z):
    """R_F(x, y, z) of one element, its duplication stopping at the first step
    whose spread is at most _RF_SPREAD A: the loop each element ran on its own
    before the elements were stepped together."""
    a = (x + y + z) / 3.0
    while max(abs(a - x), abs(a - y), abs(a - z)) > frostman._RF_SPREAD * a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25, (a + lam) * 0.25
    dx, dy = (a - x) / a, (a - y) / a
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def test_carlson_rf_has_the_bits_of_the_one_element_loop():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 50))
        r = rng.uniform(-math.pi / 2, math.pi / 2, n)
        c = 2.0 ** rng.uniform(-5.0, 110.0, n) if trial % 2 else 10.0 ** rng.uniform(2, 4, n)
        x, y = np.cos(r) ** 2, 1.0 + c * np.sin(r) ** 2
        if trial % 3 == 0:  # complete integrals, the slowest elements
            x, y = np.zeros(n), 1.0 + c
        if trial % 5 == 0:  # one element that meets the test at once
            x[0] = y[0] = 1.0
        got = frostman._carlson_rf(x, y, 1.0)
        want = [_former_carlson_rf(*v, 1.0) for v in zip(x.tolist(), y.tolist())]
        assert got.tobytes() == np.array(want).tobytes(), trial


def test_carlson_rf_returns_on_an_empty_input_and_a_schedule_without_a_window_frame():
    assert frostman._carlson_rf(np.zeros(0), np.zeros(0), 1.0).shape == (0,)
    assert frostman._carlson_rf(np.zeros((0, 2)), 1.0, 1.0).shape == (0, 2)
    # n within the first _FRAME zeros of the first large block: every range is
    # summed directly, so the plan computes K(-c) of no block
    seq = _full_circle(10)
    big = next(b for b in seq.blocks if b.count > frostman._FRAME)
    frostman._block_plan.cache_clear()
    for n in (big.start + 1, big.start + frostman._FRAME):
        frames = frostman._block_plan(seq.blocks, len(seq), (n,))[-1]
        assert frames[4].all() and not frames[-1].any()  # zero frames only, no K
        for theta in (1.0, float(seq.angles[n - 1]), float(big.angle)):
            got = frostman_partial(seq, theta, n)
            want = math.fsum(_terms(seq, theta)[:n].tolist())
            assert abs(got - want) <= (n + 4) * UNIT * want, (n, theta)


def test_the_block_plan_is_shared_by_sequences_with_equal_blocks():
    """Two sequences with equal blocks, whose stored angles differ within
    BLOCK_ANGLE_SLACK, share one plan; each sums bit for bit as with a cleared
    cache (a fresh process), in either order."""
    seq = _full_circle(10)
    moved = np.nextafter(seq.angles, TWO_PI)  # one ulp up, far inside the slack
    other = ZeroSequence(angles=moved, deficits=seq.deficits, blocks=seq.blocks)
    assert other.blocks == seq.blocks and not np.array_equal(other.angles, seq.angles)
    angles = np.concatenate([uniform_angles(8), seq.angles[-2:], other.angles[-2:]])
    schedule = tuple(sorted(set(doubling_schedule(len(seq))) | set(_block_ends(seq))))
    sums = {}
    for order in ((seq, other), (other, seq)):
        frostman._block_plan.cache_clear()
        for s in order:
            sums.setdefault(id(s), []).append(frostman._schedule_sums(s, angles, schedule).tobytes())
        assert frostman._block_plan.cache_info().hits == 1
    for got in sums.values():
        assert got[0] == got[1]
    assert sums[id(seq)][0] != sums[id(other)][0]  # the stored angles are read per call
    for theta in (2.0, float(seq.angles[-1])):
        frostman._block_plan.cache_clear()
        cold = frostman_classify(seq, theta)
        warm = frostman_classify(seq, theta)
        assert frostman._block_plan.cache_info().hits == 1
        assert pickle.dumps(cold) == pickle.dumps(warm)


def _hand_built(levels, start):
    """Full-circle blocks of (count, deficit), spaced as the generator spaces them."""
    angles, deficits, blocks = [], [], []
    for count, deficit in levels:
        step = TWO_PI / count
        t = np.fmod(start + np.arange(count) * step, TWO_PI)
        t[t < 0.0] += TWO_PI
        blocks.append((len(angles), count, float(t[0]), deficit))
        angles += t.tolist()
        deficits += [deficit] * count
    return ZeroSequence(angles=angles, deficits=deficits, blocks=blocks)


def test_block_route_agrees_with_the_kernel_on_hand_built_blocks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        levels=st.lists(st.tuples(st.integers(1, 700), st.floats(-300.0, math.log10(0.5))),
                        min_size=1, max_size=4),
        start=st.floats(0.0, TWO_PI, exclude_max=True),
        where=st.floats(0.0, 1.0),
        on_zero=st.booleans())
    def check(levels, start, where, on_zero):
        levels = [(m, 10.0 ** e) for m, e in levels]
        if any(1.0 - d == 1.0 for _, d in levels):
            # a block at modulus 1 is refused, so the route never sees d < 2^-54
            with pytest.raises(ValidationError, match="deficit"):
                _hand_built(levels, start)
            levels = [(m, max(d, 2.0 ** -53)) for m, d in levels]
        seq = _hand_built(levels, start)
        theta = float(seq.angles[int(where * (len(seq) - 1))]) if on_zero else where * TWO_PI
        theta = np.array([theta % TWO_PI])
        ends = tuple(sorted(set(doubling_schedule(len(seq))) | set(_block_ends(seq))))
        got = frostman._schedule_sums(seq, theta, ends)[0]
        plain = ZeroSequence(angles=seq.angles, deficits=seq.deficits)
        want = frostman._schedule_sums(plain, theta, ends)[0]
        for n, g, w in zip(ends, got.tolist(), want.tolist()):
            # the bound, and the kernel's own left-to-right rounding
            assert abs(g - w) <= _route_bound(seq, n, w) + (n + 4) * UNIT * w, (n, g, w)
        # blocks that leave a zero uncovered: the term-by-term kernel, bit for bit
        extra = ZeroSequence(angles=np.append(seq.angles, 1.0),
                             deficits=np.append(seq.deficits, 0.25), blocks=seq.blocks)
        schedule = doubling_schedule(len(extra))
        assert np.array_equal(frostman._schedule_sums(extra, theta, schedule),
                              _whole_row_sums(extra, theta, schedule))

    check()
