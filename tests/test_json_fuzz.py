"""Every JSON parser raises only ValidationError, whatever the document holds."""

import math

import pytest

from boundarylab.errors import ValidationError
from boundarylab.grid import GridPlane
from boundarylab.herglotz import BoundaryFunction, InnerFunctionSpec, OuterDensity, SingularAtoms
from boundarylab.series import SeriesSpec
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
_GRID = {"width": 3, "height": 2, "unbounded": True, "cell_size": 0.5, "origin": [1.0, -2.0],
         "cells": [1, 2, 3, 0, 4, 1]}
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
