import cmath
import json
import math

import numpy as np
import pytest

from boundarylab.blaschke import BlaschkeProduct
from boundarylab.cli import run
from boundarylab.errors import ValidationError
from boundarylab.herglotz import BoundaryFunction, OuterDensity
from boundarylab.series import (
    InnerFunctionSpec,
    SeriesSpec,
    SeriesTerm,
    build_lohwater_piranian,
    eval_series,
)
from boundarylab.unitdisc import (TWO_PI, ClosedSetSpec, ZeroSequence, gen_accumulation_sequence,
                                  gen_radial_sequence)


def _targets(n):
    out = []
    for i in range(n):
        s = TWO_PI * i / n
        out.append(ClosedSetSpec(kind="arc-union", arcs=((s, s + 0.5),)))
    return out


def test_builder_weights():
    lp = build_lohwater_piranian(_targets(4), 3)
    assert [t.weight for t in lp.terms] == [1.0, 0.25, 1.0 / 9.0, 0.0625]
    assert lp.weight_rule == "inverse-square"
    with pytest.raises(ValidationError):
        build_lohwater_piranian([], 3)


def test_component_zeros_live_on_targets():
    targets = _targets(3)
    spec = build_lohwater_piranian(targets, 4)
    for term, target in zip(spec.terms, targets):
        seq = term.component.blaschke.zeros
        for a in seq.angles:
            (s, e), = target.arcs
            t = s + (float(a) - s) % TWO_PI  # a's angle past the arc's start
            assert t <= e + 1e-9 or s + TWO_PI - t < 1e-9


def test_weight_rule_caps():
    unit = InnerFunctionSpec(
        blaschke=BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 4))
    )
    # enough inverse-square weights to pass pi^2/6
    heavy = tuple(SeriesTerm(1.0 / (i * i), unit) for i in range(1, 4)) + (
        SeriesTerm(0.4, unit),
    )
    with pytest.raises(ValidationError):
        SeriesSpec(terms=heavy, weight_rule="inverse-square")
    with pytest.raises(ValidationError):
        SeriesSpec(terms=(SeriesTerm(1.0, unit),), weight_rule="inverse-power-2")
    with pytest.raises(ValidationError):
        SeriesSpec(terms=(SeriesTerm(0.5, unit),), weight_rule="triangular")
    with pytest.raises(ValidationError):
        SeriesSpec(terms=())
    # the custom rule takes any positive finite weights
    SeriesSpec(terms=(SeriesTerm(3.0, unit),))


def test_components_must_be_inner():
    outer = InnerFunctionSpec(
        outer=OuterDensity(k=BoundaryFunction.constant(math.log(2.0)))
    )
    with pytest.raises(ValidationError):
        SeriesSpec(terms=(SeriesTerm(0.5, outer),))


def test_series_is_weight_bounded():
    spec = build_lohwater_piranian(_targets(3), 4)
    total = spec.total_weight
    rng = np.random.default_rng(41)
    for _ in range(30):
        r = rng.uniform(0.0, 0.97)
        t = rng.uniform(0.0, TWO_PI)
        z = r * cmath.exp(1j * t)
        got = eval_series(spec, z, 1e-12)
        assert abs(got.value) <= total + 1e-12


def test_truncation_honesty():
    spec = build_lohwater_piranian(_targets(4), 4)
    rng = np.random.default_rng(43)
    for _ in range(20):
        z = rng.uniform(0.0, 0.9) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        full = eval_series(spec, z, 1e-15)
        part = eval_series(spec, z, 0.2)
        assert part.terms_used < full.terms_used
        assert abs(full.value - part.value) <= part.tail_bound + 1e-12
        unused = math.fsum(t.weight for t in spec.terms[part.terms_used:])
        assert abs(part.tail_bound - unused) < 1e-12


def test_degenerate_truncation():
    spec = build_lohwater_piranian(_targets(2), 3)
    got = eval_series(spec, 0.1 + 0.1j, spec.total_weight)
    assert got.terms_used == 0
    assert got.value == 0.0
    assert abs(got.tail_bound - spec.total_weight) < 1e-15
    with pytest.raises(ValidationError):
        eval_series(spec, 0.0, 0.0)


def test_json_round_trip():
    spec = SeriesSpec(terms=tuple(
        SeriesTerm(2.0 ** -n, InnerFunctionSpec(
            blaschke=BlaschkeProduct(gen_accumulation_sequence(target, 3))))
        for n, target in enumerate(_targets(2), start=1)), weight_rule="inverse-power-2")
    back = SeriesSpec.from_json({"weight_rule": "inverse-power-2", "terms": [
        {"weight": weight, "component": {"blaschke": {"generator": {
            "kind": "accumulation", "depth": 3,
            "target": {"kind": "arc-union", "arcs": [[s, s + 0.5]]}}}}}
        for weight, s in ((0.5, 0.0), (0.25, math.pi))
    ]})
    assert back.weight_rule == spec.weight_rule
    assert [t.weight for t in back.terms] == [t.weight for t in spec.terms]
    z = 0.3 - 0.4j
    assert eval_series(back, z, 1e-12) == eval_series(spec, z, 1e-12)
    assert SeriesSpec.from_json({"terms": [{"weight": 1, "component": {
        "atoms": {"atoms": [[0.0, 1.0]]}}}]}).weight_rule == "custom"
    with pytest.raises(ValidationError):
        SeriesSpec.from_json({"terms": [{"weight": 0.5}]})


def _nested_spec_json(tmp_path, inner_weights):
    """Weight 1 on a nested series of Blaschke factors with zeros 0.5 and -0.5."""
    def factor(a):
        return {"blaschke": {"zeros": [{"re": a, "im": 0.0}]}}
    nested = {"terms": [{"weight": w, "component": factor(a)}
                        for w, a in zip(inner_weights, (0.5, -0.5))]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"terms": [{"weight": 1.0, "component": {"series": nested}}]}))
    return str(path)


def _series_at(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_nested_series_take_the_tolerance_and_report_their_tail(tmp_path, capsys):
    spec = _nested_spec_json(tmp_path, (0.5, 1e-10))
    # the first factor vanishes at 0.5 and the second is 0.8 there: the true value is 8e-11
    argv = ["series", "--spec", spec, "--at", "0.5", "0"]
    tight = _series_at(capsys, argv + ["--series-tolerance", "1e-14"])
    assert abs(complex(tight["re"], tight["im"]) - 8e-11) <= 1e-24
    assert tight["tail_bound"] <= 1e-14
    # at the default 1e-9 the nested series drops its second term, and says so
    loose = _series_at(capsys, argv)
    assert abs(complex(loose["re"], loose["im"]) - 8e-11) <= loose["tail_bound"]
    assert loose["tail_bound"] == pytest.approx(1e-10, rel=1e-6)


def test_nested_tail_bounds_are_weighted_sums():
    unit = InnerFunctionSpec(blaschke=BlaschkeProduct(gen_radial_sequence(0.0, 0.5, 4)))
    inner = SeriesSpec(terms=(SeriesTerm(0.5, unit), SeriesTerm(0.25, unit), SeriesTerm(1e-3, unit)))
    outer = SeriesSpec(terms=(SeriesTerm(0.5, InnerFunctionSpec(series=inner)),
                              SeriesTerm(0.25, InnerFunctionSpec(blaschke=unit.blaschke, series=inner)),
                              SeriesTerm(0.01, unit)))
    got = eval_series(outer, 0.3j, 0.02)
    # the outer series leaves 0.01 unused; each nested one leaves 1e-3
    assert got.terms_used == 2
    assert got.tail_bound == pytest.approx(0.01 + 0.75 * 1e-3, rel=1e-12)
    full = eval_series(outer, 0.3j, 1e-15)
    assert full.tail_bound <= 1e-15
    assert abs(full.value - got.value) <= got.tail_bound


def test_series_batches_have_the_bits_of_scalar_calls():
    unit = InnerFunctionSpec(blaschke=BlaschkeProduct(gen_radial_sequence(2.0, 0.5, 12)))
    inner = SeriesSpec(terms=(SeriesTerm(0.5, unit), SeriesTerm(0.25, InnerFunctionSpec(
        blaschke=BlaschkeProduct(ZeroSequence.from_zeros([0.1 + 0.6j]))))))
    spec = SeriesSpec(terms=(SeriesTerm(0.5, InnerFunctionSpec(series=inner)), SeriesTerm(0.25, unit)))
    rng = np.random.default_rng(3)
    z = (1.0 - rng.uniform(0.0, 1.0, 257) ** 3) * np.exp(1j * rng.uniform(0.0, TWO_PI, 257))
    batch = eval_series(spec, z).value
    one = np.array([eval_series(spec, p).value for p in z.tolist()])
    assert np.array_equal(batch.view(np.float64), one.view(np.float64))
