"""Every JSON parser raises only ValidationError, whatever the document holds."""

import math

import pytest

from boundarylab.errors import ValidationError
from boundarylab.grid import GridPlane
from boundarylab.herglotz import BoundaryFunction, OuterDensity, SingularAtoms
from boundarylab.series import InnerFunctionSpec, SeriesSpec
from boundarylab.unitdisc import TWO_PI, ClosedSetSpec, ZeroSequence

# One valid document per schema (and per kind), small enough that no
# generator count or depth comes near the size caps.
_CLOSED_SETS = [
    {"kind": "finite-points", "points": [0.5, 2.0]},
    {"kind": "arc-union", "arcs": [[1.0, 2.0], [3.0, 6.5]]},
    {"kind": "cantor", "cantor_level": 2, "base_arc": [0.0, 2.0]},
]
_ZEROS = [
    {"zeros": [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": -0.25}]},
    {"generator": {"kind": "radial", "angle": 1.0, "rate": 0.5, "count": 3}},
    {"generator": {"kind": "accumulation", "target": _CLOSED_SETS[1], "depth": 2}},
]
_BOUNDARIES = [
    {"kind": "constant", "re": 0.5, "im": 0.0},
    {"kind": "form", "name": "indicator-arc", "arc": [0.0, 1.0], "scale": 2.0},
    {"kind": "samples", "samples": [[TWO_PI * j / 16, math.cos(j), 0.0] for j in range(16)]},
]
_ATOMS = {"atoms": [[0.0, 1.0], [3.0, 0.5]]}
_OUTER = {"k": _BOUNDARIES[1], "lambda": {"re": 0.0, "im": 1.0}}
_INNER = {"blaschke": _ZEROS[0], "atoms": _ATOMS, "outer": _OUTER, "series": None}
_SERIES = {"weight_rule": "inverse-power-2", "terms": [
    {"weight": 0.5, "component": {"blaschke": _ZEROS[1], "atoms": _ATOMS}},
    {"weight": 0.25, "component": {"series": {"terms": [
        {"weight": 0.5, "component": {"blaschke": _ZEROS[2]}}]}}},
]}
_GRID = {"width": 3, "height": 2, "unbounded": True, "cells": [1, 2, 3, 0, 4, 1]}
_PARSERS = {
    ZeroSequence: _ZEROS,
    ClosedSetSpec: _CLOSED_SETS,
    BoundaryFunction: _BOUNDARIES,
    SingularAtoms: [_ATOMS],
    OuterDensity: [_OUTER],
    InnerFunctionSpec: [_INNER],
    SeriesSpec: [_SERIES],
    GridPlane: [_GRID],
}


def test_json_parsers_raise_only_validation_errors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers(-3, 6) | st.integers(2 ** 63, 2 ** 70) \
        | st.sampled_from([-2 ** 64, 2 ** 1024]) | st.floats() | st.text(max_size=4)
    json_values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                   max_size=3),
        max_leaves=10,
    )

    def variants(doc):
        """doc with any of its parts replaced by an arbitrary JSON value, or left out."""
        if isinstance(doc, dict):
            kept = st.fixed_dictionaries({k: variants(v) for k, v in doc.items()})
            dropped = st.builds(lambda d, key: {k: v for k, v in d.items() if k != key},
                                kept, st.sampled_from(sorted(doc)))
            return kept | dropped | json_values
        if isinstance(doc, list):
            return st.tuples(*map(variants, doc)).map(list) | json_values
        return st.just(doc) | json_values

    def fuzz(cls, docs):
        for doc in docs:
            cls.from_json(doc)  # the templates themselves parse

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(data=st.one_of(*map(variants, docs)))
        def check(data):
            try:
                cls.from_json(data)
            except ValidationError:
                pass

        check()

    for cls, docs in _PARSERS.items():
        fuzz(cls, docs)


@pytest.mark.parametrize("doc", [
    # the endpoints' difference overflows, leaving a nan arc length
    {"generator": {"kind": "accumulation", "depth": 1,
                   "target": {"kind": "arc-union", "arcs": [[1e308, -1e308]]}}},
    # |z| overflows although both parts are finite
    {"zeros": [{"re": 1.7976931348623157e308, "im": 1.7976931348623157e308}]},
])
def test_zero_sequence_json_overflow_is_a_validation_error(doc):
    with pytest.raises(ValidationError):
        ZeroSequence.from_json(doc)


_ARC = {"kind": "arc-union", "arcs": [[1.0, 2.0]]}
_RADIAL = {"kind": "radial", "angle": 1.0, "rate": 0.5, "count": 3}
_CONSTANT = {"kind": "constant", "re": 0.5, "im": 0.0}
# One malformed document per raise site of the eight parsers, and the shared
# number, row and integer readers as each parser reaches them, with the exact
# text of the ValidationError it raises.
_MESSAGES = [
    (ZeroSequence, [0.5], "zero sequence JSON must be an object"),
    (ZeroSequence, {"generator": [1]}, "field 'generator' must be an object with a 'kind'"),
    (ZeroSequence, {"generator": {"angle": 1.0}},
     "field 'generator' must be an object with a 'kind'"),
    (ZeroSequence, {"generator": {"kind": "mystery"}}, "unknown generator kind 'mystery'"),
    (ZeroSequence, {"generator": {"kind": "accumulation", "depth": 2}},
     "accumulation generator needs a 'target'"),
    (ZeroSequence, {"generator": {**_RADIAL, "angle": "1"}}, "field 'angle' must be a number"),
    (ZeroSequence, {"generator": {"kind": "radial", "angle": 1.0, "count": 3}},
     "missing field 'rate'"),
    (ZeroSequence, {"generator": {**_RADIAL, "rate": float("nan")}},
     "field 'rate' must be finite"),
    (ZeroSequence, {"generator": {**_RADIAL, "count": 3.0}}, "field 'count' must be an integer"),
    (ZeroSequence, {"generator": {"kind": "radial", "angle": 1.0, "rate": 0.5}},
     "missing field 'count'"),
    (ZeroSequence, {"generator": {"kind": "accumulation", "target": _ARC}},
     "missing field 'depth'"),
    (ZeroSequence, {"generator": {"kind": "accumulation", "target": 3, "depth": 2}},
     "closed-set JSON must be an object with a 'kind'"),
    (ZeroSequence, {}, "zero sequence JSON needs field 'zeros'"),
    (ZeroSequence, {"zeros": {"re": 0.5, "im": 0.0}}, "field 'zeros' must be a list"),
    (ZeroSequence, {"zeros": [{"re": 0.5, "im": 0.0}, {"re": 0.5}]},
     "zeros[1] must be an object with 're' and 'im'"),
    (ZeroSequence, {"zeros": [[0.5, 0.0]]}, "zeros[0] must be an object with 're' and 'im'"),
    (ZeroSequence, {"zeros": [{"re": True, "im": 0.0}]}, "zeros[0] field 're' must be a number"),
    (ZeroSequence, {"zeros": [{"re": 0.5, "im": 2 ** 1024}]},
     "zeros[0] field 'im' must be finite"),
    (ClosedSetSpec, "arc-union", "closed-set JSON must be an object with a 'kind'"),
    (ClosedSetSpec, {"points": [1.0]}, "closed-set JSON must be an object with a 'kind'"),
    (ClosedSetSpec, {"kind": "finite-points", "points": 1.0}, "'points' and 'arcs' must be lists"),
    (ClosedSetSpec, {"kind": "arc-union", "arcs": (1.0, 2.0)},
     "'points' and 'arcs' must be lists"),
    (ClosedSetSpec, {"kind": "arc-union", "arcs": [[1.0, 2.0, 3.0]]},
     "arcs[0] must be a [start, end] pair"),
    (ClosedSetSpec, {"kind": "arc-union", "arcs": [[1.0, None]]}, "arcs[0][1] must be a number"),
    (ClosedSetSpec, {"kind": "cantor", "base_arc": 1.0}, "'base_arc' must be a [start, end] pair"),
    (ClosedSetSpec, {"kind": "cantor", "base_arc": [0.0, "2"]}, "base_arc[1] must be a number"),
    (ClosedSetSpec, {"kind": "cantor", "cantor_level": 2.0}, "'cantor_level' must be an integer"),
    (ClosedSetSpec, {"kind": "finite-points", "points": [0.5, "1"]}, "points[1] must be a number"),
    (BoundaryFunction, ["constant"], "boundary function JSON must be an object with a 'kind'"),
    (BoundaryFunction, {"re": 0.5}, "boundary function JSON must be an object with a 'kind'"),
    (BoundaryFunction, {"kind": "wave"}, "unknown boundary function kind 'wave'"),
    (BoundaryFunction, {"kind": "constant", "im": 0.0}, "missing field 're'"),
    (BoundaryFunction, {**_CONSTANT, "im": "0"}, "field 'im' must be a number"),
    (BoundaryFunction, {"kind": "samples"}, "field 'samples' must be a nonempty list"),
    (BoundaryFunction, {"kind": "samples", "samples": []},
     "field 'samples' must be a nonempty list"),
    (BoundaryFunction, {"kind": "samples", "samples": [[0.0, 1.0, 0.0, 4.0]]},
     "sample must have 3 entries, found 4"),
    (BoundaryFunction, {"kind": "samples", "samples": [[0.0, 1.0]]}, "missing sample[2]"),
    (BoundaryFunction, {"kind": "form"}, "form boundary function needs a string 'name'"),
    (BoundaryFunction, {"kind": "form", "name": "indicator-arc", "arc": [0.0, 1.0, 2.0]},
     "arc must have 2 entries, found 3"),
    (BoundaryFunction, {"kind": "form", "name": "cos", "scale": float("inf")},
     "field 'scale' must be finite"),
    (SingularAtoms, [[0.0, 1.0]], "singular atoms JSON needs a list field 'atoms'"),
    (SingularAtoms, {"atoms": {"0": 1.0}}, "singular atoms JSON needs a list field 'atoms'"),
    (SingularAtoms, {"atoms": [[0.0, 1.0, 2.0]]}, "atom must have 2 entries, found 3"),
    (SingularAtoms, {"atoms": [[0.0]]}, "missing atom[1]"),
    (SingularAtoms, {"atoms": [0.0]}, "atom[0] must be a number"),
    (OuterDensity, None, "outer density JSON needs field 'k'"),
    (OuterDensity, {"lambda": {"re": 1.0, "im": 0.0}}, "outer density JSON needs field 'k'"),
    (OuterDensity, {"k": 1.0}, "boundary function JSON must be an object with a 'kind'"),
    (OuterDensity, {"k": _CONSTANT, "lambda": 1.0}, "lambda field 're' must be a number"),
    (OuterDensity, {"k": _CONSTANT, "lambda": {"re": 1.0}}, "missing lambda field 'im'"),
    (InnerFunctionSpec, [], "inner-outer spec JSON must be an object"),
    (InnerFunctionSpec, {"blaschke": []}, "zero sequence JSON must be an object"),
    (InnerFunctionSpec, {"atoms": {}}, "singular atoms JSON needs a list field 'atoms'"),
    (InnerFunctionSpec, {"outer": {}}, "outer density JSON needs field 'k'"),
    (InnerFunctionSpec, {"series": {}}, "series JSON needs a list field 'terms'"),
    (SeriesSpec, "terms", "series JSON needs a list field 'terms'"),
    (SeriesSpec, {"terms": {"weight": 0.5}}, "series JSON needs a list field 'terms'"),
    (SeriesSpec, {"terms": [{"weight": 0.5}]}, "terms[0] must have 'weight' and 'component'"),
    (SeriesSpec, {"terms": [0.5]}, "terms[0] must have 'weight' and 'component'"),
    (SeriesSpec, {"terms": [{"weight": "0.5", "component": _INNER}]},
     "terms[0] field 'weight' must be a number"),
    (SeriesSpec, {"terms": [{"weight": 0.5, "component": 1}]},
     "inner-outer spec JSON must be an object"),
    (GridPlane, [1, 1], "grid JSON must be an object"),
    *[(GridPlane, {k: v for k, v in _GRID.items() if k != key}, f"grid JSON missing field {key!r}")
      for key in ("width", "height", "unbounded", "cells")],
    (GridPlane, {**_GRID, "width": 3.0}, "grid 'width' and 'height' must be integers"),
    (GridPlane, {**_GRID, "height": True}, "grid 'width' and 'height' must be integers"),
    (GridPlane, {**_GRID, "cells": [1, 2, 3]}, "grid 'cells' must list width*height codes"),
    (GridPlane, {**_GRID, "cells": [1, 2, 3, 0, 4, 1.0]},
     "grid 'cells' must be integer class codes"),
    (GridPlane, {**_GRID, "unbounded": 2}, "grid 'unbounded' must be true, false, 0 or 1"),
]


@pytest.mark.parametrize("cls, doc, message", _MESSAGES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(_MESSAGES)])
def test_parser_messages(cls, doc, message):
    with pytest.raises(ValidationError) as info:
        cls.from_json(doc)
    assert str(info.value) == message
