import dataclasses
from collections import deque
from functools import cached_property

import numpy as np
import pytest

from boundarylab import grid as grid_module
from boundarylab.errors import ValidationError
from boundarylab.fixtures import (
    annulus_window_plane,
    get_fixture,
    iter_random_pairs,
    punctured_disc_plane,
    radial_segment_plane,
)
from boundarylab.grid import (
    MAX_GRID_CELLS,
    CellClass,
    Component,
    GridPlane,
    auto_probes,
    hole_independence,
    is_arakeljan,
    label_components,
    union_check,
    validate_probe,
)


def _all_plane(size):
    cells = np.full((size, size), int(CellClass.G_FREE), dtype=np.uint8)
    return cells


def _ring_mask(size, center, radius):
    rows = np.abs(np.arange(size)[:, None] - center)
    cols = np.abs(np.arange(size)[None, :] - center)
    return np.maximum(rows, cols) == radius


def test_text_round_trip():
    text = "grid 5 3 1\n..#..\n.E.K.\n     \n"
    grid = GridPlane.parse_text(text)
    assert grid.width == 5 and grid.height == 3
    assert grid.frame_is_unbounded
    assert grid.cells[0, 2] == CellClass.F_SET
    assert grid.cells[1, 1] == CellClass.E_SET
    assert grid.cells[1, 3] == CellClass.K_PROBE
    assert np.all(grid.cells[2] == CellClass.OUTSIDE_G)
    assert grid.format_text() == text
    # short rows pad with outside cells
    padded = GridPlane.parse_text("grid 4 2 0\n..\n.E\n")
    assert np.all(padded.cells[0, 2:] == CellClass.OUTSIDE_G)


def test_text_rejects_malformed_input():
    with pytest.raises(ValidationError):
        GridPlane.parse_text("")
    with pytest.raises(ValidationError):
        GridPlane.parse_text("mesh 2 2 0\n..\n..\n")
    with pytest.raises(ValidationError):
        GridPlane.parse_text("grid 2 2 7\n..\n..\n")
    with pytest.raises(ValidationError):
        GridPlane.parse_text("grid 2 2 0\n...\n..\n")  # row too long
    with pytest.raises(ValidationError):
        GridPlane.parse_text("grid 2 2 0\n.x\n..\n")  # unknown character
    with pytest.raises(ValidationError):
        GridPlane.parse_text("grid 2 2 0\n..\n")  # missing row
    with pytest.raises(ValidationError, match="past the height"):
        GridPlane.parse_text("grid 2 1 0\n..\n##\n")  # extra row
    # blank lines after the last row are not rows
    assert GridPlane.parse_text("grid 2 1 0\n..\n\n  \n").height == 1


def test_text_header_is_the_first_nonblank_line():
    plain = GridPlane.parse_text("grid 3 2 1\n.E.\n .#\n")
    for lead in ("\n", "\n\n", "  \n\t\n", "\r\n"):
        grid = GridPlane.parse_text(lead + "grid 3 2 1\n.E.\n .#\n")
        assert np.array_equal(grid.cells, plain.cells)
        assert grid.frame_is_unbounded
    for blank in ("\n", "  \n \n"):
        with pytest.raises(ValidationError, match="empty grid text"):
            GridPlane.parse_text(blank)
    with pytest.raises(ValidationError, match="expected 2 grid rows, found 1"):
        GridPlane.parse_text("\ngrid 3 2 1\n.E.\n")


def _row_by_row_cells(rows, width):
    """The grid rows decoded one by one: the reference for parse_text's body."""
    cells = np.zeros((len(rows), width), dtype=np.uint8)
    for r, row in enumerate(rows):
        if len(row) > width:
            raise ValidationError(f"grid row {r} longer than width {width}")
        unknown = set(row).difference(" .#EK")
        if unknown:
            ch = min(unknown, key=row.index)
            raise ValidationError(f"unknown grid character {ch!r} at row {r}")
        cells[r, :len(row)] = [" .#EK".index(ch) for ch in row]
    return cells


def _assert_body_matches_row_by_row(rows, width):
    text = "\n".join([f"grid {width} {len(rows)} 0", *rows]) + "\n"
    try:
        want = _row_by_row_cells(rows, width)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            GridPlane.parse_text(text)
        assert str(info.value) == str(exc)
        return
    if not np.any((want == CellClass.G_FREE) | (want == CellClass.F_SET)):
        return  # refused by GridPlane itself
    assert np.array_equal(GridPlane.parse_text(text).cells, want)


def test_text_body_errors_match_row_by_row_decoding():
    cases = [
        ([".#", "xy"], 2), ([".\x00", ".."], 2), (["..", ". \x00"], 2), ([". é", "..."], 3),
        (["..", "...x", ".☃"], 3), ([".", "☃", "...."], 3), (["\ud800.", ".."], 2),
        ([".", "", " E"], 2), (["..K#E "], 6), (["#.", "E\x7f"], 2), (["..", "..\x80"], 2),
        (["..", ".?é"], 3),
    ]
    for rows, width in cases:
        _assert_body_matches_row_by_row(rows, width)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rows = st.lists(st.text(alphabet=" .#EKx?\x00é☃", max_size=7), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(rows=rows, width=st.integers(1, 6))
    def check(rows, width):
        _assert_body_matches_row_by_row(rows, width)

    check()


def test_json_round_trip():
    cases = [
        ({"width": 3, "height": 2, "unbounded": True, "cell_size": 0.5, "origin": [1, -2.0],
          "cells": [1, 2, 3, 0, 4, 1]},
         GridPlane(cells=np.array([[1, 2, 3], [0, 4, 1]]), frame_is_unbounded=True,
                   cell_size=0.5, origin=(1.0, -2.0))),
        ({"width": 1, "height": 2, "unbounded": 0, "cells": [1, 0]},
         GridPlane(cells=np.array([[1], [0]]), frame_is_unbounded=False)),
    ]
    for doc, grid in cases:
        back = GridPlane.from_json(doc)
        assert np.array_equal(back.cells, grid.cells) and back.cells.dtype == grid.cells.dtype
        assert back.frame_is_unbounded is grid.frame_is_unbounded
        assert (back.cell_size, back.origin) == (grid.cell_size, grid.origin)
    with pytest.raises(ValidationError):
        GridPlane.from_json({"width": 2, "height": 1, "unbounded": 0, "cells": [0, 9]})
    with pytest.raises(ValidationError):
        GridPlane.from_json({"width": 2, "height": 2, "unbounded": 0, "cells": [1, 1]})


def test_char_class_mapping():
    text = "grid 5 1 0\n .#EK\n"
    grid = GridPlane.parse_text(text)
    assert list(grid.cells[0]) == [0, 1, 2, 3, 4]


def test_label_components_ring():
    size = 21
    cells = _all_plane(size)
    cells[_ring_mask(size, 10, 5)] = int(CellClass.F_SET)
    grid = GridPlane(cells=cells, frame_is_unbounded=True)
    labeling = label_components(grid, "F")
    assert len(labeling.components) == 2
    inner = [c for c in labeling.components if not c.touches_frame]
    assert len(inner) == 1
    assert inner[0].cell_count == 9 * 9
    # the two components partition G minus F
    total = sum(c.cell_count for c in labeling.components)
    assert total == size * size - int(np.sum(grid.subject_mask("F")))


def test_label_components_empty_subject():
    grid = GridPlane(cells=_all_plane(9), frame_is_unbounded=True)
    labeling = label_components(grid, "none")
    assert len(labeling.components) == 1
    assert labeling.components[0].cell_count == 81


def test_hole_dichotomy():
    for grid in (annulus_window_plane(48), punctured_disc_plane(48)):
        for subject in ("E", "F", "e+f"):
            for comp in label_components(grid, subject).components:
                assert comp.is_strict_hole is (not comp.is_g_hole)


def test_punctured_disc_union_components():
    grid = punctured_disc_plane(96)
    labeling = label_components(grid, "e+f")
    assert len(labeling.components) == 3


def test_classify_holes_annulus():
    grid = annulus_window_plane(64)
    reports = label_components(grid, "F").components
    assert len(reports) == 2
    holes = [r for r in reports if r.is_g_hole]
    strict = [r for r in reports if r.is_strict_hole]
    assert len(holes) == 1 and len(strict) == 1
    # the trapped disc does not reach the window frame; the outer region does
    assert not holes[0].touches_frame
    assert strict[0].touches_frame


def test_validate_probe_rules():
    size = 21
    grid = GridPlane(cells=_all_plane(size), frame_is_unbounded=True)
    with pytest.raises(ValidationError):
        validate_probe(grid, np.zeros((size, size), dtype=bool))  # empty
    split = np.zeros((size, size), dtype=bool)
    split[2, 2] = split[10, 10] = True
    with pytest.raises(ValidationError):
        validate_probe(grid, split)  # disconnected
    cross = np.zeros((size, size), dtype=bool)
    cross[10, 6:15] = True
    cross[6:15, 10] = True
    with pytest.raises(ValidationError):
        validate_probe(grid, cross)  # bbox complement splits into corners
    # rings and solid blocks are fine
    validate_probe(grid, _ring_mask(size, 10, 4))
    solid = np.zeros((size, size), dtype=bool)
    solid[6:15, 6:15] = True
    probe = validate_probe(grid, solid)
    assert probe.mask.sum() == 81
    # the probe is 8-connected through a diagonal, its box complement 4-connected
    hooked = np.zeros((size, size), dtype=bool)
    hooked[5, 5:9] = hooked[5:9, 5] = hooked[6, 6] = hooked[7, 7] = True
    validate_probe(grid, hooked)
    # a ring missing one corner leaves that corner and its center 8-adjacent only
    notched = _ring_mask(size, 10, 1)
    notched[11, 11] = False
    with pytest.raises(ValidationError, match="complement splits"):
        validate_probe(grid, notched)


def test_probe_must_stay_off_boundary_of_g():
    size = 21
    cells = _all_plane(size)
    cells[10, 10] = int(CellClass.OUTSIDE_G)  # puncture
    grid = GridPlane(cells=cells, frame_is_unbounded=False)
    block = np.zeros((size, size), dtype=bool)
    block[9:12, 9:12] = True
    block[10, 10] = False
    with pytest.raises(ValidationError):
        validate_probe(grid, block)  # 8-adjacent to the puncture
    corner = np.zeros((size, size), dtype=bool)
    corner[7:10, 7:10] = True
    with pytest.raises(ValidationError, match="touches the boundary"):
        validate_probe(grid, corner)  # only its corner cell is diagonal to the puncture
    shifted = np.zeros((size, size), dtype=bool)
    shifted[2:5, 2:5] = True
    validate_probe(grid, shifted)
    outside = np.zeros((size, size), dtype=bool)
    outside[10, 10] = True
    with pytest.raises(ValidationError):
        validate_probe(grid, outside)  # leaves G


def test_auto_probes_on_open_window():
    grid = GridPlane(cells=_all_plane(64), frame_is_unbounded=True)
    probes = auto_probes(grid)
    assert 1 <= len(probes) <= 4
    for i, p in enumerate(probes):
        assert p.name == f"auto-ring-{i}"
        validate_probe(grid, p.mask)


def test_is_arakeljan_fixture_verdicts():
    segment = radial_segment_plane(64)
    verdict = is_arakeljan(segment, "F")
    assert verdict.passed
    assert verdict.failed_condition is None
    assert verdict.witnesses == ()

    annulus = annulus_window_plane(64)
    verdict = is_arakeljan(annulus, "F")
    assert not verdict.passed
    assert verdict.failed_condition == 1
    assert len(verdict.witnesses) == 1
    assert verdict.witnesses[0].is_g_hole
    # a witness is the labeling's own component
    assert verdict.witnesses[0] in label_components(annulus, "F").components

    empty = is_arakeljan(segment, "none")
    assert empty.passed


def test_verdict_json_shape():
    data = is_arakeljan(annulus_window_plane(48), "F").to_json()
    assert set(data.keys()) == {
        "label",
        "failed_condition",
        "witnesses",
        "probes_tested",
        "failing_probe",
    }
    assert data["label"] == "fails"
    assert data["failed_condition"] == 1


def test_hole_independence_punctured_disc():
    grid = punctured_disc_plane(96)
    report = hole_independence(grid, "E", "F")
    assert not report.independent
    assert report.witness is not None
    assert report.witness.is_g_hole
    data = report.to_json()
    assert data["independent"] is False
    assert data["witness_component"] == report.witness.component_id
    with pytest.raises(ValidationError):
        hole_independence(grid, "E", "E")  # overlapping subjects
    vacuous = hole_independence(grid, "none", "F")
    assert vacuous.independent


def test_union_check_fixture():
    grid = punctured_disc_plane(96)
    report = union_check(grid)
    assert report.e_verdict.passed
    assert report.f_verdict.passed
    assert not report.independence.independent
    assert not report.union_verdict.passed
    assert report.union_verdict.failed_condition == 1
    assert report.lemma_consistent
    assert report.note is None
    data = report.to_json()
    assert set(data.keys()) == {
        "e", "f", "independence", "union", "lemma_consistent", "note",
    }


def test_refinement_stability():
    for resolution in (96, 192):
        report = union_check(punctured_disc_plane(resolution))
        assert report.e_verdict.passed
        assert report.f_verdict.passed
        assert not report.independence.independent
        assert not report.union_verdict.passed


def test_get_fixture_names():
    assert get_fixture("annulus").frame_is_unbounded
    with pytest.raises(ValidationError):
        get_fixture("torus")


def test_iter_random_pairs_deterministic():
    a = [g.cells.copy() for g in iter_random_pairs(7, 5)]
    b = [g.cells.copy() for g in iter_random_pairs(7, 5)]
    for ca, cb in zip(a, b):
        assert np.array_equal(ca, cb)
    # E and F are always disjoint by construction
    for cells in a:
        assert not np.any((cells == CellClass.E_SET) & (cells == CellClass.F_SET))
        assert np.any(cells == CellClass.E_SET)
        assert np.any(cells == CellClass.F_SET)


def test_json_rejects_malformed_fields():
    good = {"width": 2, "height": 1, "unbounded": 0, "cells": [1, 1]}
    GridPlane.from_json(good)
    for bad in (
        {"width": -1, "height": -1, "cells": [1]},
        {"width": "a"},
        {"width": 2.0},
        {"width": True, "height": True, "cells": [1]},
        {"cells": [1, "x"]},
        {"cells": [1, 1.5]},
        {"cells": [1, None]},
        {"cells": [1, [1]]},
        {"cells": [1, True]},
        {"unbounded": "false"},
        {"unbounded": 2},
        {"unbounded": None},
        {"unbounded": 1.0},
    ):
        with pytest.raises(ValidationError):
            GridPlane.from_json({**good, **bad})
    for flag, unbounded in ((True, True), (False, False), (1, True), (0, False)):
        assert GridPlane.from_json({**good, "unbounded": flag}).frame_is_unbounded is unbounded


def test_json_origin_rows_have_two_entries():
    good = {"width": 2, "height": 1, "unbounded": 0, "cells": [1, 1]}
    assert GridPlane.from_json({**good, "origin": [1, 2.5]}).origin == (1.0, 2.5)
    with pytest.raises(ValidationError, match="^origin must have 2 entries, found 3$"):
        GridPlane.from_json({**good, "origin": [1, 2, 3]})
    with pytest.raises(ValidationError, match=r"^missing origin\[1\]$"):
        GridPlane.from_json({**good, "origin": [1]})


_BAD_CELLS = "grid cells must carry class codes 0..4"
_BAD_CELL_SIZE = "cell_size must be positive and finite"


@pytest.mark.parametrize("cells, cell_size, message", [
    (np.array([[1.5, 2.7]]), 1.0, _BAD_CELLS),
    (np.array([[1.0, 0.5]]), 1.0, _BAD_CELLS),
    (np.array([[1.0, np.nan]]), 1.0, _BAD_CELLS),
    (np.array([[1.0, np.inf]]), 1.0, _BAD_CELLS),
    (np.array([[1, 5]]), 1.0, _BAD_CELLS),
    (np.array([[1, -1]]), 1.0, _BAD_CELLS),
    (np.array([[1, 257]]), 1.0, _BAD_CELLS),  # 1 after a uint8 cast
    (np.array([[1, 2]]), float("nan"), _BAD_CELL_SIZE),
    (np.array([[1, 2]]), float("inf"), _BAD_CELL_SIZE),
    (np.array([[1, 2]]), -float("inf"), _BAD_CELL_SIZE),
    (np.array([[1, 2]]), 0.0, _BAD_CELL_SIZE),
    (np.array([[1, 2]]), -1.0, _BAD_CELL_SIZE),
])
def test_grid_plane_refuses_invalid_cells_and_cell_sizes(cells, cell_size, message):
    with pytest.raises(ValidationError) as info:
        GridPlane(cells=cells, frame_is_unbounded=True, cell_size=cell_size)
    assert str(info.value) == message


@pytest.mark.parametrize("flag", [
    "false", "true", "", 0, 1, 1.0, None, np.int64(1), np.array(True), [True],
])
def test_grid_plane_refuses_a_frame_flag_that_is_not_a_bool(flag):
    cells = np.ones((9, 9), dtype=np.uint8)
    cells[_ring_mask(9, 4, 2)] = int(CellClass.F_SET)
    with pytest.raises(ValidationError) as info:
        GridPlane(cells=cells, frame_is_unbounded=flag)
    assert str(info.value) == "frame_is_unbounded must be True or False"


def test_grid_plane_stores_a_numpy_frame_flag_as_a_bool():
    for flag in (np.True_, np.False_, True, False):
        grid = GridPlane(cells=np.ones((3, 3)), frame_is_unbounded=flag)
        assert type(grid.frame_is_unbounded) is bool and grid.frame_is_unbounded == flag


@pytest.mark.parametrize("cells", [
    np.array([[1, 2, 0, 4]]), np.array([[1, 3]], dtype=np.int8),
    np.array([[1, 3]], dtype=np.uint64), np.array([[True, False]]), np.array([[1.0, 4.0]]),
])
def test_grid_plane_accepts_integral_codes(cells):
    grid = GridPlane(cells=cells, frame_is_unbounded=True, cell_size=2)
    assert grid.cells.dtype == np.uint8
    assert np.array_equal(grid.cells, cells)


def test_grid_plane_is_frozen_and_keeps_its_own_cells():
    for given in (np.array([[1, 2], [0, 3]]), np.array([[1, 2], [0, 3]], dtype=np.uint8)):
        grid = GridPlane(cells=given, frame_is_unbounded=True)
        with pytest.raises(ValueError):
            grid.cells[0, 0] = int(CellClass.OUTSIDE_G)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.cells = np.ones((2, 2), dtype=np.uint8)
        # the plane holds a copy: writes to the caller's array miss it
        given[0, 0] = int(CellClass.E_SET)
        assert grid.cells.tolist() == [[1, 2], [0, 3]]


_BAD_HEADER = "grid header must be 'grid <width> <height> <unbounded:0|1>'"
_NOT_INTEGERS = "grid header fields must be integers"


@pytest.mark.parametrize("head, message", [
    ("mesh 2 1 0", _BAD_HEADER),
    ("grid 2 1", _BAD_HEADER),
    ("grid x 1 0", _NOT_INTEGERS),
    ("grid 1_0 1 0", _NOT_INTEGERS),
    ("grid \uff12 1 0", _NOT_INTEGERS),  # fullwidth digit two
    ("grid 2 1 \uff10", _NOT_INTEGERS),
    ("grid \u00b2 1 0", _NOT_INTEGERS),  # superscript two
    ("grid +2 1 0", _NOT_INTEGERS),
    ("grid -2 1 0", _NOT_INTEGERS),
    ("grid 2.0 1 0", _NOT_INTEGERS),
    ("grid 0 1 0", "grid dimensions must be positive"),
    ("grid 2 1 7", "unbounded flag must be 0 or 1"),
])
def test_text_header_messages(head, message):
    with pytest.raises(ValidationError) as info:
        GridPlane.parse_text(head + "\n..\n")
    assert str(info.value) == message


def test_parsers_raise_only_validation_errors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers(-3, 6) | st.just(2 ** 1024) | st.floats() \
        | st.text(max_size=3)
    json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=6), max_leaves=12)
    # a valid grid with some fields replaced by arbitrary JSON values or left out
    good = {"width": 2, "height": 2, "unbounded": 0, "cells": [1, 2, 0, 1],
            "cell_size": 1.5, "origin": [0.0, 1.0]}
    grids = st.builds(
        lambda changed, dropped: {k: v for k, v in {**good, **changed}.items() if k not in dropped},
        st.dictionaries(st.sampled_from(sorted(good)), json_values, max_size=2),
        st.sets(st.sampled_from(sorted(good)), max_size=1),
    )
    rows = st.lists(st.text(alphabet=" .#EKx\t", max_size=6), max_size=6)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=grids | json_values)
    def check_json(data):
        try:
            GridPlane.from_json(data)
        except ValidationError:
            pass

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(head=st.text(max_size=12) | st.builds(
        "grid {} {} {}".format, st.integers(-1, 5), st.integers(-1, 5), st.integers(-1, 2)),
        body=rows)
    def check_text(head, body):
        try:
            GridPlane.parse_text("\n".join([head, *body]))
        except ValidationError:
            pass

    check_json()
    check_text()


def test_grid_size_limit_is_checked_before_allocating():
    with pytest.raises(ValidationError, match="limit"):
        GridPlane.parse_text(f"grid {MAX_GRID_CELLS + 1} 1 0\n")
    with pytest.raises(ValidationError, match="limit"):
        GridPlane.from_json(
            {"width": MAX_GRID_CELLS + 1, "height": 1, "unbounded": 0, "cells": []}
        )


# --- the array labeler against a breadth-first reference and scipy ----------


def _bfs_labeling(grid, mask):
    """Per-cell breadth-first search of G minus a subject mask: the labeler's
    reference implementation."""
    complement = ~grid.outside_mask & ~mask
    outside = grid.outside_mask
    h, w = complement.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    components = []
    for r0 in range(h):
        for c0 in range(w):
            if not complement[r0, c0] or labels[r0, c0] >= 0:
                continue
            cid = len(components)
            labels[r0, c0] = cid
            queue = deque([(r0, c0)])
            count, touches, adjacent = 0, False, False
            rmin = rmax = r0
            cmin = cmax = c0
            while queue:
                r, c = queue.popleft()
                count += 1
                rmin, rmax, cmin, cmax = min(rmin, r), max(rmax, r), min(cmin, c), max(cmax, c)
                touches |= r == 0 or r == h - 1 or c == 0 or c == w - 1
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if not (0 <= rr < h and 0 <= cc < w):
                        continue
                    if outside[rr, cc]:
                        adjacent = True
                    elif complement[rr, cc] and labels[rr, cc] < 0:
                        labels[rr, cc] = cid
                        queue.append((rr, cc))
            components.append(Component(
                component_id=cid,
                cell_count=count,
                touches_frame=touches,
                adjacent_to_boundary_of_g=adjacent,
                bbox=(rmin, cmin, rmax, cmax),
                first_cell=(r0, c0),
                is_g_hole=not ((grid.frame_is_unbounded and touches) or adjacent),
            ))
    return labels, tuple(components)


def _bfs_connected(mask, diagonal):
    cells = list(zip(*np.nonzero(mask)))
    if not cells:
        return True
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
             if (dr or dc) and (diagonal or not (dr and dc))]
    seen = {cells[0]}
    queue = deque([cells[0]])
    while queue:
        r, c = queue.popleft()
        for dr, dc in steps:
            nxt = (r + dr, c + dc)
            if nxt not in seen and 0 <= nxt[0] < mask.shape[0] and 0 <= nxt[1] < mask.shape[1] \
                    and mask[nxt]:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(cells)


def _scipy_labels(mask, diagonal=False):
    """scipy's 4- (diagonal: 8-) connected labels, renumbered in row-major first-cell order."""
    ndimage = pytest.importorskip("scipy.ndimage")
    labels, count = ndimage.label(mask, structure=np.ones((3, 3)) if diagonal else None)
    flat = labels.reshape(-1)
    first = np.full(count + 1, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    renumber = np.full(count + 1, -1)
    renumber[1 + np.argsort(first[1:])] = np.arange(count)
    return renumber[labels]


def _assert_matches_references(grid, subject):
    """A selector is labeled by label_components, a mask inside G by _label_masks."""
    if isinstance(subject, str):
        got, mask = label_components(grid, subject), grid.subject_mask(subject)
    else:
        got, mask = next(grid_module._label_masks(grid, [subject])), subject
    labels, components = _bfs_labeling(grid, mask)
    assert got.labels.dtype == np.int32
    assert np.array_equal(got.labels, labels)
    assert got.components == components
    complement = ~grid.outside_mask & ~mask
    assert np.array_equal(got.labels, _scipy_labels(complement))


def _serpentine_plane(size):
    cells = _all_plane(size)
    for r in range(1, size - 1, 2):
        wall = slice(0, size - 1) if r % 4 == 1 else slice(1, size)
        cells[r, wall] = int(CellClass.F_SET)
    return GridPlane(cells=cells, frame_is_unbounded=True)


def _spiral_plane(size):
    cells = _all_plane(size)
    top, left, bottom, right = 1, 1, size - 2, size - 2
    while top < bottom and left < right:
        cells[top, left:right + 1] = int(CellClass.F_SET)
        cells[top:bottom + 1, right] = int(CellClass.F_SET)
        cells[bottom, left:right + 1] = int(CellClass.F_SET)
        cells[top + 2:bottom + 1, left] = int(CellClass.F_SET)
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
    return GridPlane(cells=cells, frame_is_unbounded=True)


@pytest.mark.parametrize("name", ["annulus", "punctured-disc", "radial-segment"])
@pytest.mark.parametrize("resolution", [48, 96, 192])
def test_labeler_matches_references_on_fixtures(name, resolution):
    grid = get_fixture(name, resolution)
    for subject in ("E", "F", "E+F", "none"):
        _assert_matches_references(grid, subject)


def test_labeler_matches_references_on_random_pairs():
    for grid in iter_random_pairs(2024, 100, 48):
        probe = auto_probes(grid)[0].mask
        for subject in ("E", "F", "E+F", "none"):
            mask = grid.subject_mask(subject)
            _assert_matches_references(grid, mask)
            _assert_matches_references(grid, mask | probe)


def test_labeler_matches_references_on_random_cells():
    rng = np.random.default_rng(5)
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 30, size=2))
        cells = rng.choice(5, size=shape, p=[0.2, 0.35, 0.25, 0.1, 0.1]).astype(np.uint8)
        cells.flat[0] = int(CellClass.G_FREE)
        grid = GridPlane(cells=cells, frame_is_unbounded=bool(rng.integers(2)))
        for subject in ("E", "F", "E+F", "none"):
            _assert_matches_references(grid, subject)


def test_labeler_on_serpentine_and_spiral():
    serpentine = _serpentine_plane(192)
    _assert_matches_references(serpentine, "F")
    assert len(label_components(serpentine, "F").components) == 1
    spiral = _spiral_plane(192)
    _assert_matches_references(spiral, "F")
    _assert_matches_references(spiral, "none")


def _assert_runs_match_scipy(mask, diagonal):
    """_runs against scipy's labels; returns the counts of runs and components."""
    start, stop, comp, first = grid_module._runs(mask, diagonal)
    assert comp.dtype == np.int32
    assert start.dtype == stop.dtype == first.dtype == np.intp
    labels = np.full(mask.shape, -1, dtype=np.int32)
    labels[mask] = np.repeat(comp, stop - start)
    want = _scipy_labels(mask, diagonal)
    values, first_cells = np.unique(want, return_index=True)
    assert np.array_equal(labels, want)
    assert np.array_equal(first, first_cells[values >= 0])
    return start.size, first.size


def test_8_connected_labeler_matches_scipy():
    for name in ("annulus", "punctured-disc", "radial-segment"):
        grid = get_fixture(name, 192)
        for subject in ("E", "F", "E+F", "none"):
            mask = grid.subject_mask(subject)
            _assert_runs_match_scipy(mask, diagonal=True)
            _assert_runs_match_scipy(~grid.outside_mask & ~mask, diagonal=True)
    rng = np.random.default_rng(19)
    for density in (0.3, 0.4, 0.5, 0.6, 0.7):
        for _ in range(8):
            shape = tuple(int(n) for n in rng.integers(1, 201, size=2))
            _assert_runs_match_scipy(rng.random(shape) < density, diagonal=True)
    for mask in (np.zeros((5, 7), dtype=bool), np.ones((7, 5), dtype=bool), np.eye(9, dtype=bool)):
        _assert_runs_match_scipy(mask, diagonal=True)


def _comb(size):
    """A full top row (the spine) and a tooth down every even column."""
    mask = np.zeros((size, size), dtype=bool)
    mask[0] = True
    mask[1:, ::2] = True
    return mask


def _checkerboard(height, width):
    return (np.arange(height)[:, None] + np.arange(width)) % 2 == 0


def test_runs_match_scipy_on_adversarial_masks():
    comb = _comb(512)
    # spine on top, then at the bottom: there each tooth is its own tree until the last row
    for mask in (comb, comb[::-1]):
        for diagonal in (False, True):
            assert _assert_runs_match_scipy(mask, diagonal) == (130_817, 1)
    board = _checkerboard(33, 40)
    cells = int(board.sum())
    assert _assert_runs_match_scipy(board, diagonal=False) == (cells, cells)
    assert _assert_runs_match_scipy(board, diagonal=True) == (cells, 1)
    # the corridors between the walls of the serpentine and spiral fixtures
    snake = ~_serpentine_plane(96).subject_mask("F")
    spiral = ~_spiral_plane(96).subject_mask("F")
    rng = np.random.default_rng(41)
    for mask in (snake, spiral, ~spiral, rng.random((1, 300)) < 0.5, rng.random((300, 1)) < 0.5,
                 np.zeros((6, 9), dtype=bool), np.ones((9, 6), dtype=bool)):
        for diagonal in (False, True):
            _assert_runs_match_scipy(mask, diagonal)
    assert _assert_runs_match_scipy(snake, diagonal=False)[1] == 1
    assert _assert_runs_match_scipy(spiral, diagonal=False)[1] == 1


def test_three_adversarial_bands_match_single_labelings(monkeypatch):
    grid = GridPlane(cells=_all_plane(64), frame_is_unbounded=True)
    snake = ~_serpentine_plane(64).subject_mask("F")
    # subjects whose complements are a comb, a checkerboard and a snake
    subjects = [~_comb(64), ~_checkerboard(64, 64), ~snake]
    runs, shapes = grid_module._runs, []
    monkeypatch.setattr(grid_module, "_runs", lambda mask, diagonal: shapes.append(mask.shape)
                        or runs(mask, diagonal))
    stacked = list(grid_module._label_masks(grid, subjects))
    assert shapes == [(3 * 65, 64)]
    monkeypatch.setattr(grid_module, "_runs", runs)
    assert [len(lab.components) for lab in stacked] == [1, 32 * 64, 1]
    _assert_stack_matches_single(grid, subjects)


def test_connected_matches_reference():
    rng = np.random.default_rng(11)
    masks = [rng.random(tuple(int(n) for n in rng.integers(1, 16, size=2))) < density
             for density in (0.3, 0.5, 0.7) for _ in range(60)]
    stair = np.eye(6, dtype=bool)
    masks.append(stair)
    for diagonal in (False, True):
        counts = [grid_module._runs(m, diagonal)[3].size for m in masks]
        assert [count <= 1 for count in counts] == [_bfs_connected(m, diagonal) for m in masks]
    assert grid_module._runs(stair, True)[3].size == 1
    assert grid_module._runs(stair, False)[3].size == 6


def _assert_stack_matches_single(grid, subjects):
    stacked = list(grid_module._label_masks(grid, subjects))
    assert len(stacked) == len(subjects)
    for subject, got in zip(subjects, stacked):
        want = next(grid_module._label_masks(grid, [subject]))
        assert got.labels.dtype == np.int32
        assert np.array_equal(got.labels, want.labels)
        assert got.components == want.components
        assert np.array_equal(got.labels, _scipy_labels(~grid.outside_mask & ~subject))


def _band_cases(grid, rng):
    """Subject masks whose complements end and start on a band's edge rows."""
    inside = ~grid.outside_mask
    last_row, first_row = inside.copy(), inside.copy()
    last_row[-1], first_row[0] = False, False  # complements: the last and first rows
    # complements on the last row and the first row of the next band, one
    # column apart: diagonal neighbours but for the separator row
    diagonal = inside.copy()
    diagonal[-1, 0] = False
    shifted = inside.copy()
    shifted[0, 1:2] = False
    return [
        np.zeros(inside.shape, dtype=bool),  # the complement is all of G
        inside.copy(),  # an empty complement: an all-False band
        last_row, first_row, diagonal, shifted,
        *[(rng.random(inside.shape) < density) & inside for density in (0.2, 0.45, 0.6, 0.8)],
    ]


def test_stacked_labelings_match_single_labelings():
    rng = np.random.default_rng(29)
    planes = [punctured_disc_plane(40), annulus_window_plane(24), *iter_random_pairs(3, 3, 48)]
    for grid in planes:
        _assert_stack_matches_single(grid, _band_cases(grid, rng))
    for _ in range(20):
        shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
        cells = rng.choice(5, size=shape, p=[0.2, 0.35, 0.25, 0.1, 0.1]).astype(np.uint8)
        cells.flat[0] = int(CellClass.G_FREE)
        grid = GridPlane(cells=cells, frame_is_unbounded=bool(rng.integers(2)))
        _assert_stack_matches_single(grid, _band_cases(grid, rng))


def _assert_run_counts_match_scipy(masks):
    ndimage = pytest.importorskip("scipy.ndimage")
    for diagonal in (False, True):
        structure = np.ones((3, 3)) if diagonal else None
        assert [grid_module._runs(mask, diagonal)[3].size for mask in masks] == \
            [ndimage.label(mask, structure=structure)[1] for mask in masks]


def test_run_counts_of_ragged_masks_match_scipy():
    rng = np.random.default_rng(31)
    corner = np.zeros((3, 4), dtype=bool)
    corner[-1, -1] = True
    _assert_run_counts_match_scipy([corner, np.eye(5, dtype=bool), np.zeros((2, 9), dtype=bool),
                                    np.ones((4, 2), dtype=bool), np.eye(1, 7, 6, dtype=bool)])
    for _ in range(30):
        masks = [rng.random(tuple(int(n) for n in rng.integers(1, 14, size=2))) < density
                 for density in rng.uniform(0.2, 0.8, size=int(rng.integers(1, 7)))]
        _assert_run_counts_match_scipy(masks)


def test_stacks_match_single_masks_on_drawn_masks():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("scipy.ndimage")
    st = hypothesis.strategies
    arrays = pytest.importorskip("hypothesis.extra.numpy").arrays
    cells = st.integers(1, 7).flatmap(lambda h: st.integers(1, 7).flatmap(
        lambda w: arrays(np.uint8, (h, w), elements=st.integers(0, 4))))
    ragged = st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: arrays(bool, shape)), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cells=cells, unbounded=st.booleans(), seed=st.integers(0, 2 ** 16))
    def check_labelings(cells, unbounded, seed):
        cells = cells.copy()
        cells.flat[0] = int(CellClass.G_FREE)
        grid = GridPlane(cells=cells, frame_is_unbounded=unbounded)
        _assert_stack_matches_single(grid, _band_cases(grid, np.random.default_rng(seed)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(masks=ragged)
    def check_counts(masks):
        _assert_run_counts_match_scipy(masks)

    check_labelings()
    check_counts()


def test_small_canvas_budget_splits_calls_and_keeps_results(monkeypatch):
    grid = punctured_disc_plane(48)
    wanted = [union_check(grid).to_json(), is_arakeljan(grid, "E").to_json(),
              [p.name for p in auto_probes(grid)]]
    labeling = label_components(grid, "F")
    runs, shapes = grid_module._runs, []
    monkeypatch.setattr(grid_module, "_runs", lambda mask, diagonal: shapes.append(mask.shape)
                        or runs(mask, diagonal))
    budget = 2 * 49 * 48
    monkeypatch.setattr(grid_module, "_CANVAS_CELLS", budget)
    assert [union_check(grid).to_json(), is_arakeljan(grid, "E").to_json(),
            [p.name for p in auto_probes(grid)]] == wanted
    # two bands to a canvas: E, F and the union take two calls, each passing
    # verdict one for its two probes, and E's own labeling one
    assert [p.name for p in auto_probes(grid)] == ["auto-ring-0", "auto-ring-1"]
    assert shapes == [(98, 48), (48, 48), (98, 48), (98, 48), (48, 48), (98, 48)]
    shapes.clear()
    stacked = grid_module._label_masks(grid, [grid.subject_mask("F")] * 5)
    first = next(stacked)
    assert shapes == [(98, 48)]  # a canvas is labeled when its first labeling is asked for
    stacked = [first, *stacked]
    assert shapes == [(98, 48), (98, 48), (48, 48)]  # bands of two, two and one
    for got in stacked:
        assert np.array_equal(got.labels, labeling.labels)
        assert got.components == labeling.components
    monkeypatch.setattr(grid_module, "_CANVAS_CELLS", 1)
    shapes.clear()
    assert union_check(grid).to_json() == wanted[0]
    assert set(shapes) == {(48, 48)}  # one mask to a call


def test_grid_k_probe_errors_name_the_probe():
    cells = _all_plane(21)
    cells[10, 10] = int(CellClass.OUTSIDE_G)
    split, touching, cross = (np.zeros(cells.shape, dtype=bool) for _ in range(3))
    split[3, 3] = split[3, 6] = True
    touching[9, 9] = True  # diagonal to the outside cell
    cross[4, 3:6] = cross[3:6, 4] = True
    cases = [
        (split, "grid-K: probe mask is disconnected"),
        (touching, "grid-K: probe touches the boundary of G"),
        (cross, "grid-K: probe complement splits inside its bounding box"),
    ]
    for marked, message in cases:
        with_k = cells.copy()
        with_k[marked] = int(CellClass.K_PROBE)
        grid = GridPlane(cells=with_k, frame_is_unbounded=False)
        for call in (lambda g: is_arakeljan(g, "F"), union_check):
            with pytest.raises(ValidationError, match=message):
                call(grid)


def _punctured_plane(puncture):
    """A 41 x 41 unbounded window with one cell outside G, F on its four
    neighbours and a ring of K cells at Chebyshev distance 2 around it.  The
    four diagonal neighbours meet the outside cell only at a corner."""
    r, c = puncture
    rows, cols = np.ogrid[:41, :41]
    distance = np.maximum(np.abs(rows - r), np.abs(cols - c))
    cells = _all_plane(41)
    cells[distance == 2] = int(CellClass.K_PROBE)
    cells[(distance == 1) & ((rows == r) | (cols == c))] = int(CellClass.F_SET)
    cells[r, c] = int(CellClass.OUTSIDE_G)
    return cells, distance


def test_condition_two_reads_diagonal_contact_and_keeps_the_first_failing_probe():
    rings = ("auto-ring-0", "auto-ring-1", "auto-ring-2", "auto-ring-3")
    # six cells right of the center: rings 0 and 1 (radius 2 and 4) trap
    # nothing near the puncture, ring 2 (radius 8) traps a hole reaching it at
    # the diagonal cells, and ring 3 and the K ring would trap one too
    cells, distance = _punctured_plane((20, 26))
    verdict = is_arakeljan(GridPlane(cells=cells, frame_is_unbounded=True), "F")
    assert verdict.probe_names == (*rings, "grid-K")
    assert verdict.failed_condition == 2 and verdict.failing_probe == "auto-ring-2"
    (witness,) = verdict.witnesses
    assert witness.is_g_hole and witness.cell_count == 15 * 15 - 5
    # F on the diagonal cells too: no trapped hole reaches the outside cell
    cells[distance == 1] = int(CellClass.F_SET)
    assert is_arakeljan(GridPlane(cells=cells, frame_is_unbounded=True), "F").passed
    # eighteen cells right of the center no ring reaches the puncture, and the
    # K ring, last in the family, traps the four diagonal cells
    cells, _ = _punctured_plane((20, 38))
    verdict = is_arakeljan(GridPlane(cells=cells, frame_is_unbounded=True), "F")
    assert verdict.probe_names == (*rings, "grid-K")
    assert verdict.failed_condition == 2 and verdict.failing_probe == "grid-K"
    assert [(w.cell_count, w.is_g_hole) for w in verdict.witnesses] == [(1, True)] * 4


def test_empty_probe_family_passes_probes():
    cells = np.full((5, 5), int(CellClass.G_FREE), dtype=np.uint8)
    cells[1, 1], cells[3, 3] = int(CellClass.E_SET), int(CellClass.F_SET)
    grid = GridPlane(cells=cells, frame_is_unbounded=True)
    assert auto_probes(grid) == []
    for subject in ("E", "F", "E+F", "none"):
        verdict = is_arakeljan(grid, subject).to_json()
        assert verdict["label"] == "passes-probes" and verdict["probes_tested"] == []
    report = union_check(grid)
    assert report.lemma_consistent and report.union_verdict.passed
    assert report.union_verdict.probe_names == ()


def _old_auto_probes(grid):
    """Ring candidates validated one by one until four pass."""
    h, w = grid.cells.shape
    distance = np.maximum(np.abs(np.arange(h)[:, None] - h // 2), np.abs(np.arange(w) - w // 2))
    probes, max_radius, radius = [], (min(h, w) - 1) // 2 - 1, 2
    while radius <= max_radius and len(probes) < 4:
        try:
            probes.append(validate_probe(grid, distance == radius, f"auto-ring-{len(probes)}"))
        except ValidationError:
            pass
        radius = radius * 2 if radius * 2 <= max_radius else radius + max(1, max_radius // 4)
    return probes


def _assert_auto_probes_match_the_oracle(grid):
    got, want = auto_probes(grid), _old_auto_probes(grid)
    assert [p.name for p in got] == [p.name for p in want]
    assert all(np.array_equal(a.mask, b.mask) for a, b in zip(got, want))
    for probe in got:
        validate_probe(grid, probe.mask, probe.name)
    # the family labeled as one list of subjects, on canvases of the current
    # budget, is labeled as each ring alone
    if got:
        for probe, stacked in zip(got, grid_module._label_masks(grid, [p.mask for p in got])):
            alone = next(grid_module._label_masks(grid, [probe.mask]))
            assert np.array_equal(stacked.labels, alone.labels)
            assert stacked.components == alone.components


@pytest.mark.parametrize("budget", [1, 1 << 18])
def test_auto_probes_match_one_by_one_validation(monkeypatch, budget):
    monkeypatch.setattr(grid_module, "_CANVAS_CELLS", budget)
    planes = [get_fixture(name, size) for name in ("annulus", "punctured-disc", "radial-segment")
              for size in (33, 64, 96, 192)]
    planes += [GridPlane(cells=_all_plane(200), frame_is_unbounded=True),
               *iter_random_pairs(5, 12, 48)]
    for grid in planes:
        _assert_auto_probes_match_the_oracle(grid)
    # the rings are built valid: auto_probes labels nothing and validates nothing
    runs, validate = grid_module._runs, grid_module.validate_probe

    def refuse(*args, **kwargs):
        raise AssertionError("auto_probes checked a ring")

    monkeypatch.setattr(grid_module, "_runs", refuse)
    monkeypatch.setattr(grid_module, "validate_probe", refuse)
    for grid in planes:
        auto_probes(grid)
    monkeypatch.setattr(grid_module, "_runs", runs)
    monkeypatch.setattr(grid_module, "validate_probe", validate)

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(h=st.integers(1, 59), w=st.integers(1, 59), unbounded=st.booleans(),
                      punctures=st.lists(st.tuples(st.integers(0, 58), st.integers(0, 58)),
                                         max_size=6))
    def check(h, w, unbounded, punctures):
        cells = np.full((h, w), int(CellClass.G_FREE), dtype=np.uint8)
        for r, c in punctures:
            cells[r % h, c % w] = int(CellClass.OUTSIDE_G)
        hypothesis.assume((cells == CellClass.G_FREE).any())
        _assert_auto_probes_match_the_oracle(GridPlane(cells=cells, frame_is_unbounded=unbounded))

    check()


def test_union_check_validates_probes_once_and_labels_each_subject_once(monkeypatch):
    grid = punctured_disc_plane(96)
    calls = {"label": 0, "validate": 0, "label masks": 0}
    label, validate = grid_module._label_masks, grid_module.validate_probe

    def counting_label(grid, masks):
        calls["label"] += 1
        calls["label masks"] += len(masks)
        return label(grid, masks)

    def counting_validate(*args, **kwargs):
        calls["validate"] += 1
        return validate(*args, **kwargs)

    monkeypatch.setattr(grid_module, "_label_masks", counting_label)
    monkeypatch.setattr(grid_module, "validate_probe", counting_validate)
    family = auto_probes(grid)
    report = union_check(grid)
    # auto rings are built valid and need no validation
    assert calls["validate"] == 0
    # E and F pass after their own labelings and one per probe; the union
    # fails condition 1 on its own labeling
    assert report.e_verdict.passed and report.f_verdict.passed
    assert report.union_verdict.failed_condition == 1
    assert calls["label masks"] == 3 + 2 * len(family)
    # one call labels E, F and their union, and one per verdict its probes
    assert calls["label"] == 3
    # a probe marked on the grid is validated once for all three verdicts
    cells = grid.cells.copy()
    cells[family[0].mask] = int(CellClass.K_PROBE)
    union_check(GridPlane(cells=cells, frame_is_unbounded=grid.frame_is_unbounded))
    assert calls["validate"] == 1


def _old_dilate(mask, diagonal):
    """The 4- or 8-neighbourhood of a mask, written out cell by cell."""
    out = mask.copy()
    h, w = mask.shape
    steps = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    if diagonal:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for r, c in zip(*np.nonzero(mask)):
        for dr, dc in steps:
            if 0 <= r + dr < h and 0 <= c + dc < w:
                out[r + dr, c + dc] = True
    return out


def test_grid_masks_are_the_dilations_of_the_outside():
    for grid in (punctured_disc_plane(48), annulus_window_plane(40), radial_segment_plane(32)):
        outside = grid.cells == CellClass.OUTSIDE_G
        assert np.array_equal(grid.outside_mask, outside)
        # the rims are the G cells of the outside's 4- and 8-neighbourhoods
        for rim, diagonal in ((grid.rim_4, False), (grid.rim_8, True)):
            assert np.array_equal(rim, np.flatnonzero(_old_dilate(outside, diagonal) & ~outside))
        # the plane hands out its masks read-only
        for mask in (grid.outside_mask, grid.rim_4, grid.rim_8):
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[...] = 0


def test_probe_band_check_is_the_dilated_probe_check():
    # a probe inside G meets the 8-rim around the outside exactly when its
    # own 8-dilation meets the outside
    rng = np.random.default_rng(11)
    grid = punctured_disc_plane(40)
    assert not (grid.outside_mask.flags.writeable or grid.rim_8.flags.writeable)
    seen = set()
    for _ in range(300):
        mask = (rng.random(grid.cells.shape) < rng.uniform(0.001, 0.02)) & ~grid.outside_mask
        touches = bool(np.any(_old_dilate(mask, diagonal=True) & grid.outside_mask))
        assert bool(mask.reshape(-1)[grid.rim_8].any()) == touches
        seen.add(touches)
    assert seen == {True, False}


def test_subject_lookup_matches_the_class_by_class_masks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arrays = pytest.importorskip("hypothesis.extra.numpy").arrays
    classes = {"F": (CellClass.F_SET,), " e ": (CellClass.E_SET,),
               "E+F": (CellClass.E_SET, CellClass.F_SET), "none": ()}
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
    cells = shapes.flatmap(lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 4)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cells=cells)
    def check(cells):
        hypothesis.assume(np.isin(cells, (CellClass.G_FREE, CellClass.F_SET)).any())
        grid = GridPlane(cells=cells, frame_is_unbounded=True)
        for selector, members in classes.items():
            want = np.zeros(cells.shape, dtype=bool)
            for cls in members:
                want |= cells == cls
            subject = grid.subject_mask(selector)
            assert subject.dtype == bool and np.array_equal(subject, want)
            complement = grid_module._complement(grid, grid_module._subject_bits(selector))
            assert complement.dtype == bool
            assert np.array_equal(complement, ~(grid.outside_mask | want))

    check()


@pytest.mark.parametrize("call", [
    lambda g: label_components(g, "F"),
    lambda g: is_arakeljan(g, "E"),
    lambda g: hole_independence(g, "E", "F"),
    lambda g: union_check(g),
    lambda g: auto_probes(g),
], ids=["label", "arakeljan", "independence", "union", "probes"])
def test_public_calls_build_the_grid_masks_once(monkeypatch, call):
    want = call(punctured_disc_plane(96))
    counts = {"outside": 0, False: 0, True: 0}
    outside, dilate = vars(GridPlane)["outside_mask"].func, grid_module._dilate

    def counting_outside(self):
        counts["outside"] += 1
        return outside(self)

    def counting_dilate(mask, diagonal):
        counts[diagonal] += 1
        return dilate(mask, diagonal)

    counted = cached_property(counting_outside)
    counted.__set_name__(GridPlane, "outside_mask")
    monkeypatch.setattr(GridPlane, "outside_mask", counted)
    monkeypatch.setattr(grid_module, "_dilate", counting_dilate)
    grid = punctured_disc_plane(96)
    got = call(grid)
    # each mask at most once, and only the masks the call reads
    assert counts["outside"] == 1 and counts[False] <= 1 and counts[True] <= 1
    # the plane keeps them: the next call builds none
    built = dict(counts)
    again = call(grid)
    assert counts == built

    def summary(result):
        if isinstance(result, list):
            return [p.name for p in result]
        if hasattr(result, "to_json"):
            return result.to_json()
        return result.components, result.labels.tolist()

    assert summary(got) == summary(want) == summary(again)


# each public entry that takes a caller's subject, fed the mask under test
_MASK_ENTRIES = {
    "subject": lambda g, m: g.subject_mask(m),
    "label": lambda g, m: label_components(g, m),
    "arakeljan": lambda g, m: is_arakeljan(g, m),
    "independence-e": lambda g, m: hole_independence(g, m, "F"),
    "independence-f": lambda g, m: hole_independence(g, "E", m),
    "union-e": lambda g, m: union_check(g, m, "F"),
    "union-f": lambda g, m: union_check(g, "E", m),
}


@pytest.mark.parametrize("entry", list(_MASK_ENTRIES.values()), ids=list(_MASK_ENTRIES))
def test_public_entries_check_a_callers_mask(entry):
    # subjects are selectors only: internal masks are labeled unchecked, so
    # no mask of a caller's reaches them, not even one inside G
    grid = punctured_disc_plane(48)
    leaving = grid.subject_mask("F")
    leaving.reshape(-1)[np.flatnonzero(grid.outside_mask)[0]] = True  # one cell outside G
    for mask in (grid.subject_mask("F"), np.zeros(grid.cells.shape, dtype=bool), leaving,
                 np.zeros((grid.height, grid.width + 1), dtype=bool)):
        with pytest.raises(ValidationError, match="unknown subject selector"):
            entry(grid, mask)
