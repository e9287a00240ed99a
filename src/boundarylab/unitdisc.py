"""Zero sequences in the unit disc and closed target sets on the circle.

A sequence (a_k) in the open disc supports a Blaschke product exactly when
sum(1 - |a_k|) converges.  That deficit sum is the quantity everything
downstream cares about (truncation bounds, Frostman sums, per-level mass
budgets), so ZeroSequence stores each zero in polar form as a pair
(angle, deficit) with deficit = 1 - |a_k| kept exactly.  The complex zeros are
a derived view: for deficits below about 2^-53 the complex value collapses
onto the circle in float64, while the stored deficit stays meaningful.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidZeroError, ValidationError

TWO_PI = 2.0 * math.pi

# Hard cap on the number of zeros any generator may materialize.
MAX_GENERATED_ZEROS = 1_000_000

# Hard cap on the size of a uniform angle grid (scans, profiles, series circles).
MAX_ANGLES = 2 ** 22


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi); a non-finite angle is a ValidationError."""
    if not math.isfinite(theta):
        raise ValidationError(f"angle must be finite, got {theta}")
    t = math.fmod(theta, TWO_PI) + 0.0  # -0.0 + 0.0 is 0.0, so -0 and 0 print alike
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t >= TWO_PI else t


def uniform_angles(count: int) -> np.ndarray:
    """The grid 2*pi*k/count, k = 0..count-1; the count is checked before allocating."""
    _positive_int(count, "angle_count")
    if count > MAX_ANGLES:
        raise ValidationError(f"angle_count {count} exceeds the {MAX_ANGLES} angle cap")
    return TWO_PI * np.arange(count, dtype=np.float64) / count


def circle_points(r: float, angles: np.ndarray) -> np.ndarray:
    """The points r e^(it), bit for bit r * cmath.exp(1j * t) as a scalar caller computes them."""
    return r * np.exp(1j * angles)


def _cmul(a, b) -> np.ndarray:
    """a b elementwise with the bits of Python's complex product.  numpy's own
    product fuses multiply-adds in its vectorized loop, which a one-point call
    of some layouts (a (points x 1) column) does not take."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _points(z) -> tuple[np.ndarray, bool]:
    """z as a 1-d complex array, and whether z is one point (0-d)."""
    points = np.asarray(z, dtype=np.complex128)
    return points.reshape(-1), points.ndim == 0


# Largest offset, measured in float64, that a full-circle block's stored angles
# may have from angle + 2*pi*j/count; the generator's are within 1.4 ulp of
# the exact angles, and the closed form's error bound assumes a few ulps.
BLOCK_ANGLE_SLACK = 4.0 * math.ulp(TWO_PI)


class LevelBlock(NamedTuple):
    """One full-circle generator level: ``count`` zeros at one radius.

    Zeros ``start`` to ``start + count - 1`` have deficit ``deficit`` and
    angles ``angle + 2*pi*j/count`` (j = 0..count-1, reduced to [0, 2*pi)),
    up to BLOCK_ANGLE_SLACK.  Their product is one Blaschke factor in z^count,
    which BlaschkeProduct evaluates in closed form.  Only
    gen_accumulation_sequence makes them.
    """

    start: int
    count: int
    angle: float
    deficit: float


@dataclass(frozen=True, eq=False)
class ZeroSequence:
    """A finite prefix of a disc zero sequence, stored in polar form.

    angles[k] and deficits[k] describe a_k = (1 - deficits[k]) * e^(i*angles[k]).
    ``extension_mass`` bounds sum(1 - |a_k|) over the unmaterialized tail,
    which certifies the Blaschke condition for the infinite extension; the
    generators set it from their analytic tail formulas, every truncation
    bound reads it, and explicit finite lists have 0.  ``blocks`` lists the
    full-circle levels (LevelBlock, in index order) that
    gen_accumulation_sequence records; it is not a constructor argument, and
    every other sequence has none.
    """

    angles: np.ndarray
    deficits: np.ndarray
    extension_mass: float = 0.0
    blocks: tuple[LevelBlock, ...] = field(default=(), init=False)

    def __post_init__(self, copy: bool = True) -> None:
        # explicit inputs are copied, so changing the caller's arrays leaves the sequence
        # alone; only _adopt passes copy=False
        angles = np.array(self.angles, dtype=np.float64, copy=copy).reshape(-1)
        deficits = np.array(self.deficits, dtype=np.float64, copy=copy).reshape(-1)
        if angles.shape != deficits.shape:
            raise ValidationError(
                f"angles and deficits disagree in length: {angles.size} vs {deficits.size}"
            )
        if not np.all(np.isfinite(angles)):
            raise ValidationError("zero angles must be finite")
        if deficits.size and (not np.all(deficits > 0.0) or not np.all(deficits <= 1.0)):
            bad = int(np.argmin((deficits > 0.0) & (deficits <= 1.0)))
            raise InvalidZeroError(
                f"zero #{bad} has modulus {float(1.0 - deficits[bad])!r}; every zero "
                "must lie strictly inside the unit disc"
            )
        np.mod(angles, TWO_PI, out=angles)
        angles[angles >= TWO_PI] = 0.0
        angles.flags.writeable = False
        deficits.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "deficits", deficits)
        if self.extension_mass < 0.0 or not math.isfinite(self.extension_mass):
            raise ValidationError("extension_mass must be finite and >= 0")

    @classmethod
    def _adopt(cls, angles: np.ndarray, deficits: np.ndarray, extension_mass: float,
               blocks: tuple[LevelBlock, ...] = ()) -> "ZeroSequence":
        """A sequence that takes over a generator's fresh 1-d float64 arrays:
        __post_init__ checks them and reduces the angles in place, without a copy.
        The generator's blocks are its own record and are not checked again."""
        seq = object.__new__(cls)
        vars(seq).update(angles=angles, deficits=deficits, extension_mass=extension_mass,
                         blocks=blocks)  # frozen: written past __setattr__
        seq.__post_init__(copy=False)
        return seq

    def __len__(self) -> int:
        return int(self.angles.size)

    @classmethod
    def from_zeros(cls, zeros: Iterable[complex]) -> "ZeroSequence":
        """Build from explicit complex zeros; rejects modulus >= 1."""
        zs = [complex(z) for z in zeros]
        angles = np.array([cmath.phase(z) for z in zs], dtype=np.float64)
        try:
            moduli = np.array([abs(z) for z in zs], dtype=np.float64)
        except OverflowError as exc:
            raise InvalidZeroError("a zero's modulus overflows the float range") from exc
        for k, m in enumerate(moduli):
            if m >= 1.0:
                raise InvalidZeroError(
                    f"zero #{k} = {zs[k]!r} has modulus {m} >= 1"
                )
        return cls(angles=angles, deficits=1.0 - moduli)

    @classmethod
    def from_json(cls, data: dict) -> "ZeroSequence":
        """Accept {"zeros": [...]} or the generator form {"generator": {...}}."""
        _require_object(data, "zero sequence JSON must be an object")
        if "generator" in data:
            gen = _require_object(data["generator"],
                                  "field 'generator' must be an object with a 'kind'", "kind")
            kind = gen["kind"]
            if kind == "radial":
                return gen_radial_sequence(
                    _require_number(gen, "angle"),
                    _require_number(gen, "rate"),
                    _require_int(gen, "count"),
                )
            if kind == "accumulation":
                _require_object(gen, "accumulation generator needs a 'target'", "target")
                return gen_accumulation_sequence(
                    ClosedSetSpec.from_json(gen["target"]),
                    _require_int(gen, "depth"),
                )
            raise ValidationError(f"unknown generator kind {kind!r}")
        zeros = _require_object(data, "zero sequence JSON needs field 'zeros'", "zeros")["zeros"]
        if not isinstance(zeros, list):
            raise ValidationError("field 'zeros' must be a list")
        out = []
        for k, entry in enumerate(zeros):
            where = f"zeros[{k}]"
            _require_object(entry, f"{where} must be an object with 're' and 'im'", "re", "im")
            out.append(_require_complex(entry, where))
        return cls.from_zeros(out)


def _require_number(obj, key, where: str = "") -> float:
    """obj[key] (a dict field or a list entry) as a finite float; only JSON numbers pass."""
    name = f"{where}[{key}]" if isinstance(key, int) else f"{where} field {key!r}".lstrip()
    try:
        value = obj[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(name)
        value = float(value)
    except (KeyError, IndexError) as exc:
        raise ValidationError(f"missing {name}") from exc
    except TypeError as exc:
        raise ValidationError(f"{name} must be a number") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"{name} must be finite") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite")
    return value


def _positive_int(value, name: str) -> int:
    """value, when it is a positive int (a bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _positive_finite(value, name: str) -> float:
    """value, when it is a finite positive int or float (nan and bools are refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and positive, got {value!r}")
    return value


def _require_row(row, size: int, where: str, shape_error: str = "") -> tuple[float, ...]:
    """A JSON row of size numbers as floats; a longer list is refused.

    With shape_error, every row but a list of size entries is refused with
    that message.  Without it, a short or non-list row fails at its first
    missing or non-numeric entry, as _require_number reports it.
    """
    is_list = isinstance(row, (list, tuple))
    if shape_error and not (is_list and len(row) == size):
        raise ValidationError(shape_error)
    if is_list and len(row) > size:
        raise ValidationError(f"{where} must have {size} entries, found {len(row)}")
    return tuple(_require_number(row, k, where) for k in range(size))


def _require_object(data, message: str, *keys: str) -> dict:
    """data if it is a dict holding every key, else ValidationError(message)."""
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise ValidationError(message)
    return data


def _require_complex(obj, where: str = "") -> complex:
    """obj's 're' and 'im' fields as a complex, each read by _require_number."""
    return complex(_require_number(obj, "re", where), _require_number(obj, "im", where))


def _require_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValidationError(f"missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field {key!r} must be an integer")
    return value


_CLOSED_SET_KINDS = ("finite-points", "arc-union", "cantor")
_FULL_CIRCLE_SLACK = 1e-9
MAX_CANTOR_LEVEL = 20


@dataclass(frozen=True)
class ClosedSetSpec:
    """A closed subset of the unit circle, described by angles.

    kind "finite-points": the listed angles.
    kind "arc-union": a union of closed arcs [start, end] (end may wrap past
    2*pi, and a span of a turn or more is the whole circle; overlap of
    positive length between listed arcs is rejected).
    kind "cantor": the level-n middle-thirds prefigure of base_arc, i.e. the
    union of 2^n closed subarcs each a 3^-n fraction of the base arc.
    """

    kind: str
    points: tuple[float, ...] = ()
    arcs: tuple[tuple[float, float], ...] = ()
    cantor_level: int = 0
    base_arc: tuple[float, float] = (0.0, TWO_PI)

    def __post_init__(self) -> None:
        if self.kind not in _CLOSED_SET_KINDS:
            raise ValidationError(
                f"kind must be one of {_CLOSED_SET_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(
            self, "points", tuple(normalize_angle(float(p)) for p in self.points)
        )
        object.__setattr__(
            self, "arcs", tuple(_normalize_arc(s, e) for (s, e) in self.arcs)
        )
        object.__setattr__(self, "base_arc", _normalize_arc(*self.base_arc))
        if self.kind == "finite-points":
            if not self.points:
                raise ValidationError("finite-points spec needs at least one angle")
        elif self.kind == "arc-union":
            if not self.arcs:
                raise ValidationError("arc-union spec needs at least one arc")
            _check_arcs_disjoint(self.arcs)
        else:
            if not isinstance(self.cantor_level, int) or isinstance(self.cantor_level, bool):
                raise ValidationError("cantor_level must be an integer")
            if not 0 <= self.cantor_level <= MAX_CANTOR_LEVEL:
                raise ValidationError(
                    f"cantor_level must lie in [0, {MAX_CANTOR_LEVEL}]"
                )

    def closure_arcs(self) -> list[tuple[float, float]]:
        """The closure as a list of (start, end) arcs; points are degenerate."""
        if self.kind == "finite-points":
            return [(p, p) for p in self.points]
        if self.kind == "arc-union":
            return list(self.arcs)
        return _cantor_subarcs(self.base_arc, self.cantor_level)

    @classmethod
    def from_json(cls, data: dict) -> "ClosedSetSpec":
        _require_object(data, "closed-set JSON must be an object with a 'kind'", "kind")
        points = data.get("points", [])
        arcs = data.get("arcs", [])
        if not isinstance(points, list) or not isinstance(arcs, list):
            raise ValidationError("'points' and 'arcs' must be lists")
        arcs = tuple(_require_row(arc, 2, f"arcs[{k}]", f"arcs[{k}] must be a [start, end] pair")
                     for k, arc in enumerate(arcs))
        base = _require_row(data.get("base_arc", [0.0, TWO_PI]), 2, "base_arc",
                            "'base_arc' must be a [start, end] pair")
        level = data.get("cantor_level", 0)
        if isinstance(level, bool) or not isinstance(level, int):
            raise ValidationError("'cantor_level' must be an integer")
        return cls(
            kind=data["kind"],
            points=tuple(_require_number(points, k, "points") for k in range(len(points))),
            arcs=arcs,
            cantor_level=level,
            base_arc=base,
        )


def _normalize_arc(start: float, end: float) -> tuple[float, float]:
    """Normalize to (s, s + length) with s in [0, 2*pi) and 0 < length <= 2*pi.

    An end below the start wraps past 2*pi; a span of a turn or more is the
    whole circle, one turn from s."""
    length = end - start
    if not math.isfinite(length):  # also finite endpoints whose difference overflows
        raise ValidationError("arc endpoints must be finite, with a finite difference")
    if length == 0.0:
        raise ValidationError("zero-length arc; use finite-points for single angles")
    if length < 0.0:
        length = length % TWO_PI or TWO_PI
    s = normalize_angle(start)
    return (s, s + min(length, TWO_PI))


def _arc_segments(arc: tuple[float, float]) -> list[tuple[float, float]]:
    """Split a possibly wrapping arc into non-wrapping [s, e] pieces in [0, 2*pi]."""
    s, e = arc
    if e <= TWO_PI:
        return [(s, e)]
    return [(s, TWO_PI), (0.0, e - TWO_PI)]


def _check_arcs_disjoint(arcs: Sequence[tuple[float, float]]) -> None:
    segs: list[tuple[float, float]] = []
    for arc in arcs:
        segs.extend(_arc_segments(arc))
    segs.sort()
    for (s1, e1), (s2, e2) in zip(segs, segs[1:]):
        if s2 < e1 - 1e-15:
            raise ValidationError(
                f"arcs overlap near angle {s2:.6g}; arc-union arcs must be disjoint"
            )


def _cantor_subarcs(base: tuple[float, float], level: int) -> list[tuple[float, float]]:
    s0, e0 = base
    pieces = [(s0, e0 - s0)]
    for _ in range(level):
        nxt = []
        for s, length in pieces:
            third = length / 3.0
            nxt.append((s, third))
            nxt.append((s + 2.0 * third, third))
        pieces = nxt
    return [(s, s + length) for (s, length) in pieces]


def gen_radial_sequence(angle: float, rate: float, count: int) -> ZeroSequence:
    """Zeros a_k = (1 - rate^k) e^(i*angle), k = 1..count.

    The deficit sum is geometric, so the Blaschke condition holds for the
    infinite extension; extension_mass carries the exact geometric tail.
    """
    if not (0.0 < rate < 1.0):
        raise ValidationError(f"rate must lie in (0, 1), got {rate!r}")
    _positive_int(count, "count")
    if count > MAX_GENERATED_ZEROS:
        raise ValidationError(
            f"count {count} exceeds the {MAX_GENERATED_ZEROS} generated-zero cap"
        )
    if rate ** count == 0.0:
        raise ValidationError(
            f"count {count} is too large for rate {rate!r}: the deficit rate^count underflows to 0"
        )
    k = np.arange(1, count + 1, dtype=np.float64)
    deficits = np.power(rate, k)
    angles = np.full(count, normalize_angle(angle), dtype=np.float64)
    tail = rate ** (count + 1) / (1.0 - rate)
    return ZeroSequence._adopt(angles, deficits, tail)


def _spaced(runs: list[tuple[float, float, int, bool]]) -> np.ndarray:
    """s + j*step for j = 0..m-1 of each run (s, step, m, _), one run after
    another, each written in place; ZeroSequence reduces them to [0, 2*pi)."""
    t = np.empty(sum(m for _, _, m, _ in runs), dtype=np.float64)
    at = 0
    for s, step, m, _ in runs:
        run = t[at:at + m]
        np.add(s, np.multiply(np.arange(m, dtype=np.float64), step, out=run), out=run)
        at += m
    return t


def _level_runs(target: ClosedSetSpec, level: int) -> list[tuple[float, float, int, bool]]:
    """One generator level as runs (start, step, count, full circle?), one per
    arc, with angular gap at most 2*pi*3^-level on each arc."""
    gap = TWO_PI * (3.0 ** -level)
    runs = []
    for s, e in target.closure_arcs():
        length = e - s
        if length >= TWO_PI - _FULL_CIRCLE_SLACK:
            m = max(int(math.ceil(TWO_PI / gap)), 3)
            runs.append((s, TWO_PI / m, m, True))
        elif length == 0.0:
            runs.append((s, 0.0, 1, False))
        else:
            m = max(int(math.ceil(length / gap)) + 1, 2)
            runs.append((s, length / (m - 1), m, False))
    return runs


def _least_level_size(target: ClosedSetSpec) -> int:
    """Fewest zeros any generator level puts on the target, known before it is
    built: 2 on each of a Cantor target's 2^c subarcs (1 if too short for its
    ends to differ in float64); 0 for the few, cheap arcs of other targets."""
    if target.kind != "cantor":
        return 0
    s, e = target.base_arc
    per = 2 if (e - s) * 3.0 ** -target.cantor_level >= 2.0 * math.ulp(2.0 * TWO_PI) else 1
    return per << target.cantor_level


def gen_accumulation_sequence(target: ClosedSetSpec, depth: int) -> ZeroSequence:
    """Zeros whose accumulation set on the circle is exactly the target closure.

    Level l (= 1..depth) places zeros at angles inside the target with angular
    gap at most 2*pi*3^-l, all at the same radius 1 - d_l where
    d_l = min(3^-l, 2^-l / n_l) and n_l is the level population.  The radius
    cap keeps level-l Blaschke mass at most 2^-l, so the infinite extension
    satisfies the Blaschke condition with tail mass at most 2^-depth beyond
    the stored prefix.  Every angle of the target has a level-l zero within
    angular distance 2*pi*3^-l, which pins the accumulation set to the target
    closure and nothing else (all zero angles lie on the target).  Each
    level of a full-circle arc (its count need not be 3^l: the count is
    rounded up) is recorded as a LevelBlock; this is the one writer of
    ZeroSequence.blocks.
    """
    _positive_int(depth, "depth")
    runs: list[tuple[float, float, int, bool]] = []
    sizes: list[int] = []
    level_deficits: list[float] = []
    blocks: list[LevelBlock] = []
    total = 0
    least = _least_level_size(target)
    for level in range(1, depth + 1):
        # a level that cannot fit is refused before its runs are built
        level_runs = _level_runs(target, level) if total + least <= MAX_GENERATED_ZEROS else []
        n = max(least, sum(m for _, _, m, _ in level_runs))
        if total + n > MAX_GENERATED_ZEROS:
            raise ValidationError(
                f"level {level} pushes the zero count past {MAX_GENERATED_ZEROS}; "
                "reduce depth or the target resolution"
            )
        d = min(3.0 ** -level, (2.0 ** -level) / n)
        if d == 0.0:
            raise ValidationError(
                f"depth {depth} is too deep: the level-{level} deficit underflows to 0"
            )
        for s, _, m, full_circle in level_runs:
            if full_circle:
                blocks.append(LevelBlock(total, m, s, d))
            total += m
        runs += level_runs
        sizes.append(n)
        level_deficits.append(d)
    return ZeroSequence._adopt(
        _spaced(runs), np.repeat(np.array(level_deficits, dtype=np.float64), sizes),
        2.0 ** -depth, tuple(blocks),
    )
