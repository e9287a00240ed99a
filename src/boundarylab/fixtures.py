"""Ready-made grid fixtures for the hole-condition checks.

Cell (i, j) of an n-by-n window over [x0, x1] x [y0, y1] has its center at
x = x0 + (j + 1/2) h and y = y1 - (i + 1/2) h, so row 0 renders at the top.
Classification is by cell center; curves are drawn as bands of width about
1.5 cells so they stay 8-connected and separate their two sides.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import CellClass, GridPlane


def _center_coords(resolution: int, half_extent: float) -> tuple[np.ndarray, np.ndarray, float]:
    if resolution < 8:
        raise ValidationError("fixture resolution must be at least 8")
    cell = 2.0 * half_extent / resolution
    j = np.arange(resolution)
    x = -half_extent + (j + 0.5) * cell
    y = half_extent - (j + 0.5) * cell
    xx, yy = np.meshgrid(x, y)
    return xx, yy, cell


def annulus_window_plane(resolution: int = 64) -> GridPlane:
    """The annulus 1/2 <= |z| <= 2 as F in a window on the whole plane.

    G is the entire plane, so the frame is unbounded.  The disc |z| < 1/2 is
    a hole of F that no compact subset of the plane lets escape: the first
    hole condition fails with that disc as witness.
    """
    xx, yy, _ = _center_coords(resolution, 3.0)
    rho = np.hypot(xx, yy)
    cells = np.full(rho.shape, int(CellClass.G_FREE), dtype=np.uint8)
    cells[(rho >= 0.5) & (rho <= 2.0)] = int(CellClass.F_SET)
    return GridPlane(cells=cells, frame_is_unbounded=True)


def punctured_disc_plane(resolution: int = 96) -> GridPlane:
    """Two circles in the punctured unit disc: E at radius 1/2, F at 1/4.

    G is the open unit disc minus the center.  Each circle on its own has
    only escaping holes (the puncture and the unit circle drain them), but
    their strict holes overlap in the annulus between the circles, which is a
    G-hole of the union: the sets are dependent and the union fails.
    """
    xx, yy, cell = _center_coords(resolution, 1.1)
    rho = np.hypot(xx, yy)
    cells = np.full(rho.shape, int(CellClass.G_FREE), dtype=np.uint8)
    cells[rho >= 1.0] = int(CellClass.OUTSIDE_G)
    cells[(np.abs(xx) < cell) & (np.abs(yy) < cell)] = int(CellClass.OUTSIDE_G)
    band = 0.75 * cell
    cells[np.abs(rho - 0.5) <= band] = int(CellClass.E_SET)
    cells[np.abs(rho - 0.25) <= band] = int(CellClass.F_SET)
    return GridPlane(cells=cells, frame_is_unbounded=False)


def radial_segment_plane(resolution: int = 64) -> GridPlane:
    """A radius of the unit disc as F; it reaches the boundary, so every
    complement region drains and both hole conditions pass the probes."""
    xx, yy, cell = _center_coords(resolution, 1.1)
    rho = np.hypot(xx, yy)
    cells = np.full(rho.shape, int(CellClass.G_FREE), dtype=np.uint8)
    cells[rho >= 1.0] = int(CellClass.OUTSIDE_G)
    band = 0.75 * cell
    segment = (np.abs(yy) <= band) & (xx >= -band) & (rho < 1.0 + cell)
    cells[segment & (cells != int(CellClass.OUTSIDE_G))] = int(CellClass.F_SET)
    return GridPlane(cells=cells, frame_is_unbounded=False)


_FIXTURES = {
    "annulus": annulus_window_plane,
    "punctured-disc": punctured_disc_plane,
    "radial-segment": radial_segment_plane,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def get_fixture(name: str, resolution: int | None = None) -> GridPlane:
    try:
        builder = _FIXTURES[name]
    except KeyError:
        known = ", ".join(fixture_names())
        raise ValidationError(f"unknown fixture {name!r} (known: {known})") from None
    if resolution is None:
        return builder()
    return builder(resolution)


# --- random shape pairs for the union law ----------------------------------


def _shape_rect(rng: np.random.Generator) -> np.ndarray:
    h = int(rng.integers(2, 8))
    w = int(rng.integers(2, 8))
    return np.ones((h, w), dtype=bool)


def _shape_bar(rng: np.random.Generator) -> np.ndarray:
    length = int(rng.integers(3, 13))
    bar = np.ones((1, length), dtype=bool)
    if rng.integers(2):
        return bar.T
    return bar


def _shape_ell(rng: np.random.Generator) -> np.ndarray:
    h = int(rng.integers(4, 10))
    w = int(rng.integers(4, 10))
    mask = np.zeros((h, w), dtype=bool)
    mask[:, 0] = True
    mask[-1, :] = True
    return mask


def _shape_open_ring(rng: np.random.Generator) -> np.ndarray:
    h = int(rng.integers(5, 11))
    w = int(rng.integers(5, 11))
    mask = np.zeros((h, w), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    gap = int(rng.integers(1, w - 1))
    mask[0, gap] = False
    return mask


def _shape_closed_ring(rng: np.random.Generator) -> np.ndarray:
    h = int(rng.integers(5, 11))
    w = int(rng.integers(5, 11))
    mask = np.zeros((h, w), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return mask


_SHAPES = (_shape_rect, _shape_bar, _shape_ell, _shape_open_ring, _shape_closed_ring)


def _place(rng: np.random.Generator, size: int, shape: np.ndarray) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    h, w = shape.shape
    r = int(rng.integers(1, size - h - 1))
    c = int(rng.integers(1, size - w - 1))
    mask[r:r + h, c:c + w] = shape
    return mask


def random_pair_plane(rng: np.random.Generator, size: int = 48) -> GridPlane:
    """One random disjoint (E, F) pair in an all-plane window.

    Shapes include closed rings, which carry a G-hole of their own; callers
    screening for probe-passing pairs will reject those draws, which is part
    of what the union-law suite exercises.
    """
    if size < 24:
        raise ValidationError("random pair windows need size >= 24")
    e_shape = _SHAPES[int(rng.integers(len(_SHAPES)))](rng)
    e_mask = _place(rng, size, e_shape)
    for _ in range(64):
        f_shape = _SHAPES[int(rng.integers(len(_SHAPES)))](rng)
        f_mask = _place(rng, size, f_shape)
        if not np.any(e_mask & f_mask):
            break
    else:
        raise ValidationError("could not place disjoint shapes")
    cells = np.full((size, size), int(CellClass.G_FREE), dtype=np.uint8)
    cells[e_mask] = int(CellClass.E_SET)
    cells[f_mask] = int(CellClass.F_SET)
    return GridPlane(cells=cells, frame_is_unbounded=True)


def iter_random_pairs(seed: int, count: int, size: int = 48):
    """Yield deterministic random (E, F) grids for the union-law suite."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_pair_plane(rng, size)
