import math

import numpy as np
import pytest

from boundarylab.blaschke import _zeros_at
from boundarylab.errors import InvalidZeroError, ValidationError
from boundarylab import unitdisc
from boundarylab.unitdisc import (
    BLOCK_ANGLE_SLACK,
    TWO_PI,
    ClosedSetSpec,
    LevelBlock,
    ZeroSequence,
    _require_number,
    gen_accumulation_sequence,
    gen_radial_sequence,
    normalize_angle,
)


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TWO_PI) == 0.0
    assert math.copysign(1.0, normalize_angle(-0.0)) == 1.0  # -0.0 maps to 0.0, not -0.0
    assert abs(normalize_angle(-0.5) - (TWO_PI - 0.5)) < 1e-15
    assert abs(normalize_angle(7.0) - (7.0 - TWO_PI)) < 1e-15
    for t in np.linspace(-20.0, 20.0, 101):
        n = normalize_angle(float(t))
        assert 0.0 <= n < TWO_PI
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="angle must be finite"):
            normalize_angle(bad)


def test_generators_refuse_deficits_that_underflow():
    # 3^-678 is the smallest positive level deficit of a one-point target
    target = ClosedSetSpec(kind="finite-points", points=(0.5,))
    assert gen_accumulation_sequence(target, 678).deficits[-1] > 0.0
    for depth in (679, 100000):
        with pytest.raises(ValidationError, match=f"depth {depth} is too deep"):
            gen_accumulation_sequence(target, depth)
    # 2^-1074 is the smallest positive float
    assert gen_radial_sequence(0.0, 0.5, 1074).deficits[-1] == 2.0 ** -1074
    with pytest.raises(ValidationError, match="count 2000 is too large"):
        gen_radial_sequence(0.0, 0.5, 2000)
    with pytest.raises(InvalidZeroError, match=r"zero #1 has modulus 1\.0;"):
        ZeroSequence(angles=[0.0, 0.0], deficits=[0.5, 0.0])


def test_zero_sequence_from_zeros_round_trip():
    zs = [0.5 + 0.0j, -0.25j, 0.1 + 0.2j]
    seq = ZeroSequence.from_zeros(zs)
    assert len(seq) == 3
    back = _zeros_at(seq, slice(None))
    assert np.allclose(back, np.asarray(zs), atol=1e-15)
    assert abs(float(np.sum(seq.deficits)) - sum(1.0 - abs(z) for z in zs)) < 1e-15


def test_zero_sequence_rejects_boundary_zeros():
    with pytest.raises(InvalidZeroError):
        ZeroSequence.from_zeros([0.5, 1.0 + 0.0j])
    with pytest.raises(InvalidZeroError):
        ZeroSequence(angles=[0.0], deficits=[0.0])
    with pytest.raises(InvalidZeroError):
        ZeroSequence(angles=[0.0], deficits=[-0.1])
    with pytest.raises(ValidationError):
        ZeroSequence(angles=[0.0, 1.0], deficits=[0.5])


def test_polar_storage_keeps_tiny_deficits():
    # 1 - 2^-80 is not representable as a float modulus, but the polar form
    # keeps the deficit exactly
    seq = ZeroSequence(angles=[0.3], deficits=[2.0 ** -80])
    assert seq.deficits[0] == 2.0 ** -80
    assert abs(_zeros_at(seq, 0)) == 1.0  # the complex view is lossy here


def test_zero_sequence_json_round_trip():
    seq = ZeroSequence.from_zeros([0.5, -0.25j, 0.1 + 0.2j])
    back = ZeroSequence.from_json(
        {"zeros": [{"re": 0.5, "im": 0}, {"re": 0.0, "im": -0.25}, {"re": 0.1, "im": 0.2}]}
    )
    assert np.array_equal(back.angles, seq.angles)
    assert np.array_equal(back.deficits, seq.deficits)
    assert back.blocks == seq.blocks and back.extension_mass == seq.extension_mass == 0.0


def test_zero_sequence_generator_json():
    seq = ZeroSequence.from_json(
        {"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5, "count": 8}}
    )
    assert len(seq) == 8
    assert seq.extension_mass == 2.0 ** -8  # the geometric tail of the generator
    with pytest.raises(ValidationError):
        ZeroSequence.from_json({"generator": {"kind": "mystery"}})
    with pytest.raises(ValidationError):
        ZeroSequence.from_json({"generator": {"kind": "radial", "angle": 0.0}})


def _angular_distance(spec, theta):
    """Distance (in angle) from theta to the closure of a closed-set spec."""
    best = math.inf
    for s, e in spec.closure_arcs():
        t = s + (theta - s) % TWO_PI
        best = min(best, 0.0 if t <= e else min(t - e, s + TWO_PI - t))
    return best


def test_closed_set_finite_points():
    spec = ClosedSetSpec(kind="finite-points", points=(0.5, -0.5))
    assert _angular_distance(spec, 0.5) == 0.0
    assert abs(_angular_distance(spec, 0.6) - 0.1) < 1e-12
    with pytest.raises(ValidationError):
        ClosedSetSpec(kind="finite-points")


def test_closed_set_arcs():
    spec = ClosedSetSpec(kind="arc-union", arcs=((0.0, 1.0), (2.0, 3.0)))
    assert _angular_distance(spec, 0.5) == 0.0
    assert abs(_angular_distance(spec, 1.5) - 0.5) < 1e-12
    # wrapping arc covers angles on both sides of 0
    wrap = ClosedSetSpec(kind="arc-union", arcs=((TWO_PI - 0.5, TWO_PI + 0.5),))
    assert _angular_distance(wrap, 0.25) == 0.0
    assert _angular_distance(wrap, TWO_PI - 0.25) == 0.0
    with pytest.raises(ValidationError):
        ClosedSetSpec(kind="arc-union", arcs=((0.0, 1.0), (0.5, 2.0)))


def test_closed_set_json_pairs_keep_their_messages():
    spec = {"kind": "arc-union", "arcs": [[0, 1]]}
    assert ClosedSetSpec.from_json(spec).arcs == ((0.0, 1.0),)
    for arcs in ([[0, 1], [2, 3, 4]], [[0, 1], [2]], [[0, 1], 2]):
        with pytest.raises(ValidationError, match=r"^arcs\[1\] must be a \[start, end\] pair$"):
            ClosedSetSpec.from_json({**spec, "arcs": arcs})
    with pytest.raises(ValidationError, match=r"^arcs\[0\]\[1\] must be a number$"):
        ClosedSetSpec.from_json({**spec, "arcs": [[0, "1"]]})
    with pytest.raises(ValidationError, match=r"^'base_arc' must be a \[start, end\] pair$"):
        ClosedSetSpec.from_json({"kind": "cantor", "base_arc": [0, 1, 2]})


def test_closed_set_cantor():
    spec = ClosedSetSpec(kind="cantor", cantor_level=3, base_arc=(0.0, 1.0))
    arcs = spec.closure_arcs()
    assert len(arcs) == 8
    lengths = [e - s for s, e in arcs]
    assert np.allclose(lengths, 3.0 ** -3)
    # middle third removed at level 1
    assert _angular_distance(spec, 0.5) > 0.05
    assert _angular_distance(spec, 1.0 / 27.0) == 0.0
    assert _angular_distance(spec, 2.0 / 3.0) == 0.0


def test_closed_set_json_round_trip():
    cases = [
        ({"kind": "cantor", "cantor_level": 2, "base_arc": [0.5, 2.5]},
         ClosedSetSpec(kind="cantor", cantor_level=2, base_arc=(0.5, 2.5))),
        ({"kind": "cantor"}, ClosedSetSpec(kind="cantor")),
        ({"kind": "arc-union", "arcs": [[1, 2], [3.0, 6.5]]},
         ClosedSetSpec(kind="arc-union", arcs=((1.0, 2.0), (3.0, 6.5)))),
        ({"kind": "finite-points", "points": [0.5, 2]},
         ClosedSetSpec(kind="finite-points", points=(0.5, 2.0))),
    ]
    for doc, spec in cases:
        assert ClosedSetSpec.from_json(doc) == spec
    with pytest.raises(ValidationError):
        ClosedSetSpec.from_json({"points": [1.0]})


def test_gen_radial_sequence_geometry():
    seq = gen_radial_sequence(1.0, 0.5, 60)
    assert np.all(seq.angles == 1.0)
    assert np.allclose(seq.deficits, np.power(0.5, np.arange(1, 61)), rtol=0.0)
    assert abs(seq.extension_mass - 2.0 ** -60) < 1e-25
    with pytest.raises(ValidationError):
        gen_radial_sequence(0.0, 1.0, 5)
    with pytest.raises(ValidationError):
        gen_radial_sequence(0.0, 0.5, 0)


def _max_gap_to_zeros(target, seq):
    worst = 0.0
    for s, e in target.closure_arcs():
        for t in np.linspace(s, e, 50):
            d = np.abs(t - seq.angles) % TWO_PI
            worst = max(worst, float(np.min(np.minimum(d, TWO_PI - d))))
    return worst


def test_gen_accumulation_sequence_pins_target():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = rng.uniform(0.0, TWO_PI)
        length = rng.uniform(0.3, 2.0)
        target = ClosedSetSpec(kind="arc-union", arcs=((s, s + length),))
        depth = 4
        seq = gen_accumulation_sequence(target, depth)
        # every zero angle lies on the target
        for a in seq.angles:
            assert _angular_distance(target, float(a)) < 1e-9
        # every target angle is approached at the deepest level's resolution
        assert _max_gap_to_zeros(target, seq) <= TWO_PI * 3.0 ** -depth + 1e-12
        assert seq.extension_mass == 2.0 ** -depth


def test_gen_accumulation_level_mass_is_summable():
    target = ClosedSetSpec(kind="arc-union", arcs=((0.0, TWO_PI),))
    seq = gen_accumulation_sequence(target, 8)
    # level mass is capped at 2^-level, so the whole prefix stays below 1
    assert float(np.sum(seq.deficits)) < 1.0
    assert np.all(seq.deficits > 0.0)


# The generator as it was before its levels were built with numpy: every
# angle and deficit must keep its bits.
def _reference_level_angles(target, level):
    if target.kind == "finite-points":
        return list(target.points)
    gap = TWO_PI * (3.0 ** -level)
    out = []
    for s, e in target.closure_arcs():
        length = e - s
        if length >= TWO_PI - 1e-9:
            m = max(int(math.ceil(TWO_PI / gap)), 3)
            out.extend(normalize_angle(s + j * (TWO_PI / m)) for j in range(m))
        elif length == 0.0:
            out.append(s)
        else:
            m = max(int(math.ceil(length / gap)) + 1, 2)
            out.extend(normalize_angle(s + j * (length / (m - 1))) for j in range(m))
    return out


def _reference_accumulation(target, depth):
    angles, deficits = [], []
    for level in range(1, depth + 1):
        level_angles = _reference_level_angles(target, level)
        d = min(3.0 ** -level, (2.0 ** -level) / len(level_angles))
        angles += level_angles
        deficits += [d] * len(level_angles)
    seq = ZeroSequence(angles=np.array(angles, dtype=np.float64),
                       deficits=np.array(deficits, dtype=np.float64))
    return seq.angles, seq.deficits


_FULL12 = ClosedSetSpec(kind="arc-union", arcs=((0.10384619671527331, 6.3870315038948595),))


@pytest.mark.parametrize("target,depth", [
    (_FULL12, 12),
    (ClosedSetSpec(kind="arc-union", arcs=((5.0, 5.0 + TWO_PI),)), 9),
    (ClosedSetSpec(kind="arc-union", arcs=((0.3, 1.9), (4.0, 6.5))), 8),
    (ClosedSetSpec(kind="cantor", cantor_level=3,
                   base_arc=(0.25744424357926954, 1.2574442435792696)), 8),
    (ClosedSetSpec(kind="finite-points", points=(5.590393700586498, 0.0, 3.0, -0.0)), 10),
], ids=["full12", "full9-wrapping", "two-arcs", "cantor", "finite-points"])
def test_generator_levels_keep_their_bits(target, depth):
    seq = gen_accumulation_sequence(target, depth)
    angles, deficits = _reference_accumulation(target, depth)
    assert np.array_equal(seq.angles.view(np.uint64), angles.view(np.uint64))
    assert np.array_equal(seq.deficits.view(np.uint64), deficits.view(np.uint64))


def test_full_circle_levels_are_recorded_as_blocks():
    seq = gen_accumulation_sequence(_FULL12, 12)
    counts = [b.count for b in seq.blocks]
    # ceil(2 pi / (2 pi 3^-l)) rounds 3^l up at levels 3, 6 and 10
    assert counts == [3, 9, 28, 81, 243, 730, 2187, 6561, 19683, 59050, 177147, 531441]
    start = 0
    for b in seq.blocks:
        assert b.start == start and b.angle == seq.angles[start] == _FULL12.arcs[0][0]
        assert np.all(seq.deficits[start:start + b.count] == b.deficit)
        start += b.count
    assert start == len(seq)
    # only generated full-circle levels are blocks
    others = [
        ZeroSequence(angles=seq.angles[:1000], deficits=seq.deficits[:1000]),
        ZeroSequence(angles=seq.angles, deficits=seq.deficits),
        ZeroSequence.from_zeros([0.5, 0.25j]),
        gen_radial_sequence(1.0, 0.5, 20),
        gen_accumulation_sequence(ClosedSetSpec(kind="arc-union", arcs=((0.3, 1.9),)), 6),
        gen_accumulation_sequence(ClosedSetSpec(kind="cantor", cantor_level=2), 5),
        gen_accumulation_sequence(ClosedSetSpec(kind="finite-points", points=(1.0,)), 5),
    ]
    assert all(other.blocks == () for other in others)


def test_blocks_must_describe_their_zeros():
    seq = gen_accumulation_sequence(_FULL12, 4)
    angles, deficits = seq.angles, seq.deficits
    # a block rebuilt from its fields is accepted
    assert ZeroSequence(angles=angles, deficits=deficits, blocks=seq.blocks).blocks == seq.blocks
    first, second = seq.blocks[:2]
    bad = [
        (first._replace(count=4),),                      # wrong count: angles disagree
        (first._replace(deficit=first.deficit / 2),),    # deficit unlike its zeros'
        (first._replace(angle=first.angle + 1e-12),),    # shifted start angle
        (second, first),                                 # out of order
        (first._replace(start=len(seq) - 1),),           # runs past the end
        (first._replace(count=1.5),),                    # not an integer
        (LevelBlock(0, 3, 0.0, 1.0),),                   # deficit 1: zeros at the origin
    ]
    for blocks in bad:
        with pytest.raises(ValidationError):
            ZeroSequence(angles=angles, deficits=deficits, blocks=blocks)


def test_booleans_are_not_numbers():
    assert _require_number({"x": 1}, "x") == 1.0
    for value in (True, False):
        with pytest.raises(ValidationError, match="must be a number"):
            _require_number({"x": value}, "x")
        with pytest.raises(ValidationError, match=r"points\[0\] must be a number"):
            _require_number([value], 0, "points")


# The generator as it was with whole-sequence temporaries: every run through
# one np.repeat pass, and the constructor's reduction into a second array.
def _repeat_spaced(runs):
    starts, steps, counts, _ = zip(*runs)
    counts = np.array(counts, dtype=np.int64)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    t = np.fmod(np.repeat(starts, counts) + j * np.repeat(steps, counts), TWO_PI)
    t[t < 0.0] += TWO_PI
    t[t >= TWO_PI] = 0.0
    return t


def _repeat_accumulation(target, depth):
    runs, deficits, blocks = [], [], []
    for level in range(1, depth + 1):
        level_runs = unitdisc._level_runs(target, level)
        n = sum(m for _, _, m, _ in level_runs)
        d = min(3.0 ** -level, (2.0 ** -level) / n)
        for _, _, m, full_circle in level_runs:
            if full_circle:
                blocks.append((len(deficits), m, d))
            deficits += [d] * m
        runs += level_runs
    angles = np.mod(np.array(_repeat_spaced(runs), dtype=np.float64, copy=True), TWO_PI)
    angles[angles >= TWO_PI] = 0.0
    blocks = tuple(LevelBlock(at, m, float(angles[at]), d) for at, m, d in blocks)
    return angles, np.array(deficits), blocks, runs


@pytest.mark.parametrize("target,depth", [
    (_FULL12, 12),
    (ClosedSetSpec(kind="arc-union", arcs=((5.0, 5.0 + TWO_PI),)), 10),
    (ClosedSetSpec(kind="arc-union", arcs=((0.3, 1.9), (4.0, 6.5))), 9),
    (ClosedSetSpec(kind="cantor", cantor_level=4), 9),
], ids=["full12", "full10-wrapping", "two-arcs", "cantor"])
def test_generator_writes_each_run_in_place_with_the_same_bits(target, depth):
    seq = gen_accumulation_sequence(target, depth)
    angles, deficits, blocks, runs = _repeat_accumulation(target, depth)
    assert np.array_equal(unitdisc._spaced(runs).view(np.uint64), _repeat_spaced(runs).view(np.uint64))
    assert np.array_equal(seq.angles.view(np.uint64), angles.view(np.uint64))
    assert np.array_equal(seq.deficits.view(np.uint64), deficits.view(np.uint64))
    assert seq.blocks == blocks


def _whole_block_accepts(block, angles):
    """The block angle check over the whole block at once."""
    span = slice(block.start, block.start + block.count)
    offset = angles[span] - (block.angle + np.arange(block.count) * (TWO_PI / block.count))
    offset -= TWO_PI * np.round(offset / TWO_PI)
    return bool(np.max(np.abs(offset)) <= BLOCK_ANGLE_SLACK)


def test_block_angles_are_checked_in_chunks_with_the_whole_block_decisions():
    seq = gen_accumulation_sequence(ClosedSetSpec(kind="arc-union", arcs=((5.0, 5.0 + TWO_PI),)), 10)
    block = seq.blocks[-1]
    assert block.count > 3 * 2 ** 14
    ulp = math.ulp(TWO_PI)
    decisions = set()
    for at in (0, 2 ** 14 - 1, 2 ** 14, 40000, block.count - 1):
        for shift in (-6 * ulp, -2 * ulp, 3 * ulp, 5 * ulp, 1e-9, TWO_PI):
            angles = seq.angles.copy()
            angles[block.start + at] += shift
            plain = ZeroSequence(angles=angles, deficits=seq.deficits)
            want = _whole_block_accepts(block, plain.angles)
            try:
                ZeroSequence(angles=angles, deficits=seq.deficits, blocks=seq.blocks)
                got = True
            except ValidationError:
                got = False
            assert got == want, (at, shift)
            decisions.add(got)
    assert decisions == {True, False}


def test_generation_peaks_at_most_two_and_a_quarter_times_what_it_keeps():
    import tracemalloc

    target = {"kind": "arc-union", "arcs": [[0.10384619671527331, 6.3870315038948595]]}
    assert ClosedSetSpec.from_json(target) == _FULL12
    spec = {"generator": {"kind": "accumulation", "depth": 12, "target": target}}
    tracemalloc.start()
    try:
        seq = ZeroSequence.from_json(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 797163 and kept >= seq.angles.nbytes + seq.deficits.nbytes
    assert peak <= 2.25 * kept


def test_cantor_levels_past_the_cap_are_refused_before_they_are_built():
    import tracemalloc

    for level in (19, 20):
        # 2^level subarcs of at least 2 zeros each pass the 10^6 cap at level 1
        spec = {"generator": {"kind": "accumulation", "depth": 1,
                              "target": {"kind": "cantor", "cantor_level": level}}}
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match="^level 1 pushes the zero count past 1000000; "):
                ZeroSequence.from_json(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    # the floor is a level's size where subarcs get 2 zeros, and where they
    # are too short to differ from their starts and get 1
    for target, per in ((ClosedSetSpec(kind="cantor", cantor_level=6), 2),
                        (ClosedSetSpec(kind="cantor", cantor_level=4, base_arc=(3.0, 3.0 + 1e-14)), 1)):
        least = unitdisc._least_level_size(target)
        assert least == per * 2 ** target.cantor_level == len(gen_accumulation_sequence(target, 1))
        sizes = np.diff([len(gen_accumulation_sequence(target, d)) for d in range(1, 6)])
        assert np.all(sizes >= least)
