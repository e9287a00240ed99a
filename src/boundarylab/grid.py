"""Raster proxy for Arakeljan's hole conditions in a plane domain G.

A grid window samples a domain G: cells are outside G, free G cells, members
of one or two closed sets (F and E), or probe cells.  Complement components of
a subject set within G are 4-connected; the subject itself is treated with
8-connectivity where adjacency of the set matters (the standard dual pairing,
so thin diagonal curves still separate).  One routine, ``_runs``, finds the
components for both connectivities by union-find on horizontal runs.

A component of G minus the subject is a G-hole when it could be enclosed in a
compact subset of G at raster fidelity: it must not touch the window frame
while the frame stands for an unbounded part of G, and no cell of it may be
4-adjacent to a cell outside G.  Every other component is a strict hole (it
escapes toward the boundary of G or to infinity).

The first Arakeljan condition is the absence of G-holes.  The second
(no compact K may trap an uncontainable family of holes) is only
semi-decidable on a finite raster: we union a family of probe compacts (the
auto rings and the grid's K cells) onto the subject and fail if some
resulting G-hole's closure reaches the boundary of G.  Two closed cell
squares meet exactly when the cells are 8-adjacent, so the closure test is
8-adjacency of hole cells to cells outside G (plain 4-adjacency already
disqualifies a component from being a G-hole at all).
A clean run is reported as "passes-probes", never as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ValidationError
from .unitdisc import _require_number, _require_object, _require_row


class CellClass(IntEnum):
    OUTSIDE_G = 0
    G_FREE = 1
    F_SET = 2
    E_SET = 3
    K_PROBE = 4


# text-format character of each cell class, indexed by class code
_CELL_CHARS = " .#EK"
_CHAR_CODES = np.frombuffer(_CELL_CHARS.encode("ascii"), dtype=np.uint8)
_CODE_OF_CHAR = np.zeros(128, dtype=np.uint8)
_CODE_OF_CHAR[_CHAR_CODES] = np.arange(len(_CELL_CHARS))
_KNOWN_CHAR = np.zeros(128, dtype=bool)
_KNOWN_CHAR[_CHAR_CODES] = True


# bit c of a spelling's table is set when class c is in the subject
_SUBJECT_BITS = {
    "f": 1 << CellClass.F_SET,
    "e": 1 << CellClass.E_SET,
    "e+f": 1 << CellClass.E_SET | 1 << CellClass.F_SET,
    "none": 0,
}
_G_BITS = sum(1 << c for c in CellClass if c != CellClass.OUTSIDE_G)

# Largest grid accepted (4096 x 4096); the parsers check it before allocating,
# and it keeps every flat cell index within int32.
MAX_GRID_CELLS = 1 << 24

# Cells of one labeling canvas; masks past it are labeled in several calls.
_CANVAS_CELLS = 1 << 18


def _check_dimensions(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValidationError("grid dimensions must be positive")
    if width * height > MAX_GRID_CELLS:
        raise ValidationError(
            f"grid of {width} x {height} cells exceeds the limit of {MAX_GRID_CELLS} cells"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class GridPlane:
    """A rectangular window of cells sampling the domain G.

    Frozen, with a read-only copy of the cells, so it keeps the masks derived
    from them: each is built on first use.
    """

    cells: np.ndarray
    frame_is_unbounded: bool
    cell_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.size == 0:
            raise ValidationError("grid cells must form a nonempty 2-d array")
        _check_dimensions(cells.shape[1], cells.shape[0])
        # a fractional code is in range but differs from its (truncating) cast
        if not (np.all((cells >= 0) & (cells <= 4)) and np.all(cells.astype(np.uint8) == cells)):
            raise ValidationError("grid cells must carry class codes 0..4")
        # astype copies, so later writes to the caller's array miss the plane
        object.__setattr__(self, "cells", _read_only(cells.astype(np.uint8)))
        # a string such as "false" would be truthy
        if not isinstance(self.frame_is_unbounded, (bool, np.bool_)):
            raise ValidationError("frame_is_unbounded must be True or False")
        object.__setattr__(self, "frame_is_unbounded", bool(self.frame_is_unbounded))
        if not 0.0 < self.cell_size < np.inf:
            raise ValidationError("cell_size must be positive and finite")
        counts = np.bincount(self.cells.reshape(-1), minlength=5)
        if counts[CellClass.G_FREE] + counts[CellClass.F_SET] == 0:
            raise ValidationError("grid must contain at least one G_FREE or F_SET cell")

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    @cached_property
    def outside_mask(self) -> np.ndarray:
        """The complement of G, read-only."""
        return _read_only(self.cells == CellClass.OUTSIDE_G)

    # Flat indices of the G cells 4- (rim_4) or 8-adjacent (rim_8) to the
    # outside, read-only.  Outside cells carry no label, so label lookups near
    # the outside need only these; the dilation holds the outside, so xor drops it.
    @cached_property
    def rim_4(self) -> np.ndarray:
        outside = self.outside_mask
        return _read_only(np.flatnonzero(_dilate(outside, diagonal=False) ^ outside))

    @cached_property
    def rim_8(self) -> np.ndarray:
        outside = self.outside_mask
        return _read_only(np.flatnonzero(_dilate(outside, diagonal=True) ^ outside))

    def subject_mask(self, selector) -> np.ndarray:
        """The boolean mask of a subject selector: "F", "E", "E+F" or "none",
        in any case.  Anything else, a mask included, is refused."""
        return _lookup(_subject_bits(selector), self.cells)

    # --- text format ------------------------------------------------------

    @classmethod
    def parse_text(cls, text: str) -> "GridPlane":
        """Parse "grid <w> <h> <unbounded>" plus h rows of cell characters.

        Blank lines before the header are skipped.
        Rows shorter than the width are padded with spaces (outside G), since
        trailing blanks rarely survive editors; longer or extra rows are errors.
        """
        lines = text.splitlines()
        # the header is the first nonblank line, as the CLI's format sniffing reads it
        top = next((i for i, line in enumerate(lines) if line.strip()), None)
        if top is None:
            raise ValidationError("empty grid text")
        head = lines[top].split()
        if len(head) != 4 or head[0] != "grid":
            raise ValidationError(
                "grid header must be 'grid <width> <height> <unbounded:0|1>'"
            )
        # int() would also take signs, underscores and non-ASCII digits
        if not all(field.isascii() and field.isdigit() for field in head[1:]):
            raise ValidationError("grid header fields must be integers")
        width, height, unbounded = map(int, head[1:])
        _check_dimensions(width, height)
        if unbounded not in (0, 1):
            raise ValidationError("unbounded flag must be 0 or 1")
        body = lines[top + 1:]
        if len(body) < height:
            raise ValidationError(f"expected {height} grid rows, found {len(body)}")
        if any(line.strip() for line in body[height:]):
            raise ValidationError(f"grid text has rows past the height {height}")
        rows = body[:height]
        too_long = np.fromiter(map(len, rows), dtype=np.intp, count=height) > width
        n = int(too_long.argmax()) if too_long.any() else height
        # the rows before the first long one, padded with spaces, in one string;
        # a non-ASCII character turns into "?", which is no cell character either
        flat = "".join(map(str.ljust, rows[:n], repeat(width)))
        codes = np.frombuffer(flat.encode("ascii", "replace"), dtype=np.uint8)
        unknown = np.flatnonzero(~_KNOWN_CHAR[codes])
        if unknown.size:
            ch, r = flat[unknown[0]], unknown[0] // width
            raise ValidationError(f"unknown grid character {ch!r} at row {r}")
        if n < height:
            raise ValidationError(f"grid row {n} longer than width {width}")
        cells = _CODE_OF_CHAR[codes].reshape(height, width)
        return cls(cells=cells, frame_is_unbounded=bool(unbounded))

    def format_text(self) -> str:
        lines = [f"grid {self.width} {self.height} {1 if self.frame_is_unbounded else 0}"]
        lines += [row.tobytes().decode("ascii") for row in _CHAR_CODES[self.cells]]
        return "\n".join(lines) + "\n"

    # --- JSON format ------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "GridPlane":
        _require_object(data, "grid JSON must be an object")
        for key in ("width", "height", "unbounded", "cells"):
            if key not in data:
                raise ValidationError(f"grid JSON missing field {key!r}")
        width, height = data["width"], data["height"]
        if type(width) is not int or type(height) is not int:
            raise ValidationError("grid 'width' and 'height' must be integers")
        _check_dimensions(width, height)
        flat = data["cells"]
        if not isinstance(flat, list) or len(flat) != width * height:
            raise ValidationError("grid 'cells' must list width*height codes")
        if not set(map(type, flat)) <= {int}:
            raise ValidationError("grid 'cells' must be integer class codes")
        if type(data["unbounded"]) not in (bool, int) or data["unbounded"] not in (0, 1):
            raise ValidationError("grid 'unbounded' must be true, false, 0 or 1")
        cells = np.asarray(flat).reshape(height, width)
        origin = data.get("origin", [0.0, 0.0])
        return cls(
            cells=cells,
            frame_is_unbounded=bool(data["unbounded"]),
            cell_size=_require_number(data, "cell_size") if "cell_size" in data else 1.0,
            origin=_require_row(origin, 2, "origin"),
        )


def _dilate(mask: np.ndarray, diagonal: bool) -> np.ndarray:
    pairs = [(np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :])]
    if diagonal:
        pairs += [(np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1])]
    out = mask.copy()
    for a, b in pairs:
        out[a] |= mask[b]
        out[b] |= mask[a]
    return out


def _subject_bits(selector) -> int:
    key = selector.strip().lower() if isinstance(selector, str) else None
    bits = _SUBJECT_BITS.get(key)
    if bits is None:
        raise ValidationError(f"unknown subject selector {selector!r}")
    return bits


def _lookup(bits: int, cells: np.ndarray) -> np.ndarray:
    """The cells whose class code c has bit c set in the table."""
    # one shift reads the table for every cell; indexing a bool table with the
    # uint8 cells would widen them to intp first (10x slower at 192 x 192)
    found = np.right_shift(np.uint8(bits), cells)
    found &= 1
    return found.view(bool)


def _complement(grid: GridPlane, subject) -> np.ndarray:
    """G minus the subject, the mask that labeling reads.  The subject is a
    selector's bits (_subject_bits) or a mask inside G built from selectors and
    probes, which is taken as it is."""
    if isinstance(subject, np.ndarray):
        return ~(grid.outside_mask | subject)
    return _lookup(_G_BITS & ~subject, grid.cells)


def _runs(mask: np.ndarray, diagonal: bool) -> tuple:
    """Run table of a mask's components, 4- or (diagonal) 8-connected.

    Per maximal horizontal run of mask cells, in row-major order: the flat
    indices of its first cell and one past its last, and its component; then
    each component's first flat index.  One sequential union-find pass over
    runs holding vertical (or diagonal) neighbours halves paths and hooks the
    larger root under the smaller (Tarjan & van Leeuwen, J. ACM 31, 1984; He,
    Chao & Suzuki, IEEE TIP 17, 2008), so a component's root is its first run
    and one increasing pass numbers components in row-major order.
    """
    h, w = mask.shape
    # a row's changes, with False on both sides, alternate start and stop
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    change = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    # change r * (w + 1) + c is flat cell r * w + c
    start, stop = (change - change // (w + 1)).reshape(-1, 2).T
    edges = []
    # Cell (r, c) meets cell (r + 1, c + shift) where both[r, c], whose flat
    # index is the upper cell's.  An edge is skipped when the left neighbours
    # of its cells form one too: both link the same two runs.
    for shift in (0, 1, -1) if diagonal else (0,):
        lo, hi = max(0, -shift), w - max(0, shift)
        both = np.zeros((h - 1, w), dtype=bool)
        np.logical_and(mask[:-1, lo:hi], mask[1:, lo + shift:hi + shift], out=both[:, lo:hi])
        both[:, 1:] &= ~both[:, :-1]
        edges.append(np.flatnonzero(both) + np.array([[0], [w + shift]]))
    # the run of a cell is the last run starting at or before it
    edges = np.searchsorted(start, np.concatenate(edges, axis=1), side="right") - 1
    parent = list(range(start.size))
    for a, b in zip(*edges.tolist()):
        while a != (up := parent[a]):
            parent[a] = a = parent[up]
        while b != (up := parent[b]):
            parent[b] = b = parent[up]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # in place: parent[i] <= i, so comp[parent[i]] is final when run i is reached
    comp, roots = parent, []
    for i, p in enumerate(parent):
        if i == p:
            comp[i] = len(roots)
            roots.append(i)
        else:
            comp[i] = comp[p]
    return start, stop, np.array(comp, dtype=np.int32), start[roots]


class Component(NamedTuple):
    """One 4-connected component of G minus the subject, and its hole class:
    a G-hole, or else a strict hole (see the module docstring)."""

    component_id: int
    cell_count: int
    touches_frame: bool
    adjacent_to_boundary_of_g: bool
    bbox: tuple[int, int, int, int]  # (row_min, col_min, row_max, col_max)
    first_cell: tuple[int, int]
    is_g_hole: bool

    @property
    def is_strict_hole(self) -> bool:
        return not self.is_g_hole

    def to_json(self) -> dict:
        return {
            "component_id": self.component_id,
            "cell_count": self.cell_count,
            "touches_frame": self.touches_frame,
            "adjacent_to_boundary_of_g": self.adjacent_to_boundary_of_g,
            "is_g_hole": self.is_g_hole,
            "is_strict_hole": self.is_strict_hole,
        }


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    labels: np.ndarray  # int32, -1 where not in the complement
    components: tuple[Component, ...]


def _canvas(bands: list) -> np.ndarray:
    """Masks of one shape as the row bands of one mask, one all-False row apart.

    No 4- or 8-connected component crosses an all-False row, so each band is
    labeled exactly as it would be alone.  One band is its own canvas.
    """
    if len(bands) == 1:
        return bands[0]
    h, w = bands[0].shape
    canvas = np.zeros((len(bands), h + 1, w), dtype=bool)
    canvas[:, :h] = bands
    return canvas.reshape(-1, w)


def _labeled(grid: GridPlane, canvas: np.ndarray, k: int) -> list[ComponentLabeling]:
    """Labelings of the k bands of a canvas of complements of subjects."""
    h, w = grid.cells.shape
    stride = canvas.shape[0] // k  # rows per band, its separator included
    start, stop, comp, first = _runs(canvas, diagonal=False)
    n = first.size
    row, start_col = np.divmod(start, w)
    # the first cell lies in the top row of its component
    row_min, first_col = np.divmod(first, w)
    if k == 1:
        ends, local = (0, n), comp
    else:
        # band b holds the components numbered ends[b] to ends[b + 1] - 1
        ends = np.searchsorted(first, np.arange(k + 1) * (stride * w)).astype(np.int32)
        local = comp - ends[row // stride]
        row %= stride
        row_min %= stride
    labels = np.full(canvas.shape, -1, dtype=np.int32)
    labels[canvas] = np.repeat(local, stop - start)
    labels = labels.reshape(k, stride, w)
    rim_ids = labels.reshape(k, -1)[:, grid.rim_4]
    # components with a cell in rim_4; label -1 marks the spare last entry
    near = np.zeros(n + 1, dtype=bool)
    near[rim_ids if k == 1 else np.where(rim_ids < 0, -1, rim_ids + ends[:k, None])] = True
    col_min, row_max, col_max = np.full(n, w), np.full(n, -1), np.full(n, -1)
    np.minimum.at(col_min, comp, start_col)
    np.maximum.at(row_max, comp, row)
    np.maximum.at(col_max, comp, (stop - 1) % w)
    # a component meets the window frame exactly where its bounding box does
    touches = (row_min == 0) | (row_max == h - 1) | (col_min == 0) | (col_max == w - 1)
    near = near[:n]
    # per component, the Component fields after the id
    columns = (
        np.bincount(comp, weights=stop - start, minlength=n).astype(np.int64).tolist(),
        touches.tolist(),
        near.tolist(),
        list(zip(row_min.tolist(), col_min.tolist(), row_max.tolist(), col_max.tolist())),
        list(zip(row_min.tolist(), first_col.tolist())),
        (~(near | (touches & grid.frame_is_unbounded))).tolist(),
    )
    return [
        ComponentLabeling(labels=labels[b, :h], components=tuple(
            map(Component, range(hi - lo), *(column[lo:hi] for column in columns))
        ))
        for b, (lo, hi) in enumerate(zip(ends, ends[1:]))
    ]


def label_components(grid: GridPlane, subject) -> ComponentLabeling:
    """4-connected components of G minus the subject, a selector.

    Components are numbered in row-major order of their first cells.  Each
    records its cell count, bounding box and contact with the window frame,
    all read off its runs, its 4-adjacency to a cell outside G, and its hole
    class.
    """
    return _labeled(grid, _complement(grid, _subject_bits(subject)), 1)[0]


def _label_masks(grid: GridPlane, masks: list) -> Iterator[ComponentLabeling]:
    """Labelings of G minus each of the boolean masks, which must lie inside G
    already (they are not checked again), one _runs call per canvas.  A canvas
    is labeled when the first of its labelings is asked for."""
    h, w = grid.cells.shape
    per = max(1, _CANVAS_CELLS // ((h + 1) * w))  # masks of the grid's shape per canvas
    for i in range(0, len(masks), per):
        bands = [_complement(grid, m) for m in masks[i:i + per]]
        yield from _labeled(grid, _canvas(bands), len(bands))


# --- probes ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Probe:
    """A compact probe set: an 8-connected mask with Jordan-like boundary."""

    name: str
    mask: np.ndarray


def validate_probe(grid: GridPlane, mask: np.ndarray, name: str = "probe") -> Probe:
    """Probes must be nonempty, strictly inside G, 8-connected, with
    4-connected complement inside their bounding box (the raster stand-in for
    a compact with Jordan boundary).  Strictly inside means no cell is even
    8-adjacent to the complement of G: a compact subset of an open set keeps
    positive distance from its boundary, and on the raster two closed cell
    squares meet exactly when the cells are 8-adjacent.  Connectivity is
    decided on the mask's bounding-box crop."""
    mask = mask.astype(bool)
    if mask.shape != grid.cells.shape:
        raise ValidationError(f"{name}: mask shape does not match the grid")
    if not mask.any():
        raise ValidationError(f"{name}: empty probe mask")
    if np.any(mask & grid.outside_mask):
        raise ValidationError(f"{name}: probe leaves G")
    # 8-adjacency is symmetric: the probe meets the rim around the outside
    if mask.reshape(-1)[grid.rim_8].any():
        raise ValidationError(f"{name}: probe touches the boundary of G")
    rows = np.any(mask, axis=1).nonzero()[0]
    cols = np.any(mask, axis=0).nonzero()[0]
    box = mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    if _runs(box, diagonal=True)[3].size > 1:
        raise ValidationError(f"{name}: probe mask is disconnected")
    if _runs(~box, diagonal=False)[3].size > 1:
        raise ValidationError(
            f"{name}: probe complement splits inside its bounding box "
            "(boundary is not Jordan-like)"
        )
    return Probe(name, mask)


def auto_probes(grid: GridPlane) -> list[Probe]:
    """Expanding concentric square annuli centered on the window.

    Each ring has radius at most (min(h, w) - 1) // 2 - 1, so it lies in
    rows and columns 1 to n - 2 of the window: a full square ring, 4-connected,
    whose box complement is a connected square of at least 3 x 3 cells.  Such
    a ring fails validation only by leaving G or touching the boundary of G,
    that is by a cell outside G or in rim_8.  Radii that hold such a cell are
    skipped, so domains with punctures or narrow windows simply get a smaller
    family; the first four others are kept.
    """
    h, w = grid.cells.shape
    # Chebyshev distance of every cell from the window's center cell
    distance = np.maximum(np.abs(np.arange(h)[:, None] - h // 2), np.abs(np.arange(w) - w // 2))
    blocked = np.zeros(max(h, w), dtype=bool)  # indexed by distance
    blocked[distance[grid.outside_mask]] = True
    blocked[distance.reshape(-1)[grid.rim_8]] = True
    max_radius = (min(h, w) - 1) // 2 - 1
    radii, radius = [], 2
    while radius <= max_radius and len(radii) < 4:
        if not blocked[radius]:
            radii.append(radius)
        radius = radius * 2 if radius * 2 <= max_radius else radius + max(1, max_radius // 4)
    return [Probe(f"auto-ring-{i}", distance == radius) for i, radius in enumerate(radii)]


def _gather_probes(grid: GridPlane) -> list[Probe]:
    """The auto rings, then the grid's K cells as the validated probe "grid-K"
    where it marks any."""
    family = auto_probes(grid)
    marked = grid.cells == CellClass.K_PROBE
    if marked.any():
        family.append(validate_probe(grid, marked, "grid-K"))
    return family


@dataclass(frozen=True)
class ArakeljanVerdict:
    """Outcome of the two hole conditions for one subject.

    ``label`` is "fails" or "passes-probes" (a pass is evidence, not proof:
    only the listed probes were tried).  ``failed_condition`` is 1 when the
    subject has a G-hole, 2 when some probe traps a hole whose closure
    reaches the boundary of G, else None.
    """

    label: str
    failed_condition: int | None
    witnesses: tuple[Component, ...]
    probe_names: tuple[str, ...]
    failing_probe: str | None = None

    @property
    def passed(self) -> bool:
        return self.label == "passes-probes"

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "failed_condition": self.failed_condition,
            "witnesses": [w.to_json() for w in self.witnesses],
            "probes_tested": list(self.probe_names),
            "failing_probe": self.failing_probe,
        }


def _verdict(
    grid: GridPlane, subject_mask: np.ndarray, labeling: ComponentLabeling, family: list[Probe],
) -> ArakeljanVerdict:
    """Both hole conditions, given the subject's own labeling and its probes."""
    names = tuple(p.name for p in family)
    g_holes = tuple(comp for comp in labeling.components if comp.is_g_hole)
    if g_holes:
        return ArakeljanVerdict("fails", 1, g_holes, names)
    # Closed cell squares meet exactly when cells are 8-adjacent, so a hole
    # with a cell in rim_8 is the raster reading of "the hole's closure
    # meets the boundary of G".  4-adjacent contact cannot occur here: it
    # would have disqualified the component as a G-hole already.
    # The unions are labeled one canvas at a time: a return leaves later ones unlabeled.
    unions = _label_masks(grid, [subject_mask | probe.mask for probe in family])
    for probe, trapped in zip(family, unions):
        reaching = set(trapped.labels.reshape(-1)[grid.rim_8].tolist())
        offenders = tuple(
            comp for comp in trapped.components if comp.is_g_hole and comp.component_id in reaching
        )
        if offenders:
            return ArakeljanVerdict("fails", 2, offenders, names, failing_probe=probe.name)
    return ArakeljanVerdict("passes-probes", None, (), names)


def is_arakeljan(grid: GridPlane, subject) -> ArakeljanVerdict:
    """Check both hole conditions for the subject set at raster fidelity."""
    subject_mask = grid.subject_mask(subject)
    family = _gather_probes(grid)
    return _verdict(grid, subject_mask, next(_label_masks(grid, [subject_mask])), family)


# --- independence and the union law ----------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    """Whether strict holes of E and F intersect in a G-hole."""

    independent: bool
    witness: Component | None
    witness_pair: tuple[int, int] | None  # (E component id, F component id)

    def to_json(self) -> dict:
        return {
            "independent": self.independent,
            "witness_component": None if self.witness is None else self.witness.component_id,
            "witness": None if self.witness is None else self.witness.to_json(),
            "witness_pair": None if self.witness_pair is None else list(self.witness_pair),
        }


def _labelings(grid: GridPlane, e_mask: np.ndarray, f_mask: np.ndarray) -> tuple:
    """Labelings of G minus E, G minus F and G minus their union."""
    if np.any(e_mask & f_mask):
        raise ValidationError("E and F overlap; independence needs disjoint sets")
    return tuple(_label_masks(grid, [e_mask, f_mask, e_mask | f_mask]))


def _independence(
    lab_e: ComponentLabeling, lab_f: ComponentLabeling, lab_u: ComponentLabeling
) -> IndependenceReport:
    for comp in lab_u.components:
        if not comp.is_g_hole:
            continue
        # a union component lies inside one component of each complement
        e_id = int(lab_e.labels[comp.first_cell])
        f_id = int(lab_f.labels[comp.first_cell])
        if lab_e.components[e_id].is_strict_hole and lab_f.components[f_id].is_strict_hole:
            return IndependenceReport(
                independent=False, witness=comp, witness_pair=(e_id, f_id)
            )
    return IndependenceReport(independent=True, witness=None, witness_pair=None)


def hole_independence(grid: GridPlane, e_subject="E", f_subject="F") -> IndependenceReport:
    """Check that no strict hole of E meets a strict hole of F in a G-hole.

    Components of G minus (E union F) are exactly the components of the
    pairwise intersections of complement components of E and F, so one
    labeling of the union complement suffices: a union component that is a
    G-hole while sitting inside strict holes of both E and F is a witness of
    dependence.
    """
    e_mask = grid.subject_mask(e_subject)
    f_mask = grid.subject_mask(f_subject)
    return _independence(*_labelings(grid, e_mask, f_mask))


@dataclass(frozen=True)
class UnionCheckReport:
    """Both sets, their independence, their union, and the union law.

    When E and F both pass probes and are independent, the union must pass;
    a violation is flagged as an inconsistency (it would be a bug, not a
    mathematical possibility).
    """

    e_verdict: ArakeljanVerdict
    f_verdict: ArakeljanVerdict
    independence: IndependenceReport
    union_verdict: ArakeljanVerdict
    lemma_consistent: bool
    note: str | None

    def to_json(self) -> dict:
        return {
            "e": self.e_verdict.to_json(),
            "f": self.f_verdict.to_json(),
            "independence": self.independence.to_json(),
            "union": self.union_verdict.to_json(),
            "lemma_consistent": self.lemma_consistent,
            "note": self.note,
        }


def union_check(grid: GridPlane, e_subject="E", f_subject="F") -> UnionCheckReport:
    """Verdicts for E, F and E union F from one probe family and one labeling each."""
    e_mask = grid.subject_mask(e_subject)
    family = _gather_probes(grid)
    f_mask = grid.subject_mask(f_subject)
    lab_e, lab_f, lab_union = _labelings(grid, e_mask, f_mask)
    e_verdict = _verdict(grid, e_mask, lab_e, family)
    f_verdict = _verdict(grid, f_mask, lab_f, family)
    independence = _independence(lab_e, lab_f, lab_union)
    union_verdict = _verdict(grid, e_mask | f_mask, lab_union, family)
    premises = e_verdict.passed and f_verdict.passed and independence.independent
    consistent = (not premises) or union_verdict.passed
    note = None if consistent else (
        "inconsistency: union fails although both parts pass probes and "
        "are independent; this indicates a defect in the hole logic"
    )
    return UnionCheckReport(
        e_verdict=e_verdict,
        f_verdict=f_verdict,
        independence=independence,
        union_verdict=union_verdict,
        lemma_consistent=consistent,
        note=note,
    )
