"""Weighted series of inner functions with certified truncation.

Because every component is bounded by modulus 1 on the disc, the tail of a
weighted sum is bounded by the remaining weight mass, so truncation is exact
bookkeeping: stop once the unused weights total at most the tolerance and
report that total as the tail bound.

The stock builder targets boundary sets: inverse-square weights (sum bounded
by pi^2/6), each term a Blaschke product whose zeros accumulate exactly on one
prescribed closed set.  Specs read from JSON may also carry dyadic
(inverse-power-2, sum bounded by 1) or custom weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import config
from .blaschke import BlaschkeProduct
from .errors import ValidationError
from .herglotz import InnerFunctionSpec
from .unitdisc import (ClosedSetSpec, _points, _require_number, _require_object,
                       gen_accumulation_sequence)

_WEIGHT_RULES = ("inverse-square", "inverse-power-2", "custom")
_PI2_OVER_6 = math.pi * math.pi / 6.0


class SeriesTerm(NamedTuple):
    weight: float
    component: InnerFunctionSpec


@dataclass(frozen=True)
class SeriesSpec:
    """An ordered weighted sum of unit-bounded inner-function specs."""

    terms: tuple[SeriesTerm, ...]
    weight_rule: str = "custom"

    def __post_init__(self) -> None:
        if self.weight_rule not in _WEIGHT_RULES:
            raise ValidationError(
                f"weight_rule must be one of {_WEIGHT_RULES}, got {self.weight_rule!r}"
            )
        if not self.terms:
            raise ValidationError("series needs at least one term")
        terms = tuple(SeriesTerm(float(w), c) for (w, c) in self.terms)
        for i, term in enumerate(terms):
            if not (math.isfinite(term.weight) and term.weight > 0.0):
                raise ValidationError(f"terms[{i}] weight must be finite and positive")
            if not isinstance(term.component, InnerFunctionSpec):
                raise ValidationError(f"terms[{i}] component must be an InnerFunctionSpec")
            if not term.component.is_unit_bounded():
                raise ValidationError(
                    f"terms[{i}] component is not certainly bounded by modulus 1; "
                    "series components must be inner"
                )
        object.__setattr__(self, "terms", terms)
        total = self.total_weight
        if self.weight_rule == "inverse-square" and total >= _PI2_OVER_6 + 1e-12:
            raise ValidationError(
                f"inverse-square weights must sum below pi^2/6, got {total!r}"
            )
        if self.weight_rule == "inverse-power-2" and total >= 1.0:
            raise ValidationError(
                f"dyadic weights must sum below 1, got {total!r}"
            )

    @property
    def total_weight(self) -> float:
        return float(math.fsum(t.weight for t in self.terms))

    @classmethod
    def from_json(cls, data: dict) -> "SeriesSpec":
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValidationError("series JSON needs a list field 'terms'")
        terms = []
        for i, entry in enumerate(data["terms"]):
            _require_object(entry, f"terms[{i}] must have 'weight' and 'component'",
                            "weight", "component")
            terms.append(SeriesTerm(_require_number(entry, "weight", f"terms[{i}]"),
                                    InnerFunctionSpec.from_json(entry["component"])))
        return cls(terms=tuple(terms), weight_rule=data.get("weight_rule", "custom"))


class SeriesEvaluation(NamedTuple):
    value: complex
    terms_used: int
    tail_bound: float


def _truncation(spec: SeriesSpec, tol: float) -> tuple[int, float]:
    """Terms used at tol, and the truncation bound: the unused weight plus each used
    nested series' own bound times its weight (the other parts have modulus <= 1)."""
    remaining = spec.total_weight
    used = 0
    for term in spec.terms:
        if remaining <= tol:
            break
        remaining -= term.weight
        used += 1
    bound = max(remaining, 0.0)
    for term in spec.terms[:used]:
        if term.component.series is not None:
            bound += term.weight * _truncation(term.component.series, tol)[1]
    return used, bound


def eval_series(spec: SeriesSpec, z, tol: float | None = None) -> SeriesEvaluation:
    """Partial sum with unused weight mass at most tol (default 1e-9).

    Terms are consumed in stored order; since each component is bounded by 1,
    the reported tail_bound (the unused mass, plus the weighted bounds of
    nested series, evaluated at the same tol) bounds the truncation error.
    z is one point, or a 1-d array of points for which ``value`` is an array.
    Each component takes one eval_many call over all points; one point is
    summed as a complex, with the bits of the array sum.
    """
    if not isinstance(spec, SeriesSpec):
        raise ValidationError("expected a SeriesSpec")
    tol = config.DEFAULTS["series_tolerance"] if tol is None else tol
    if tol <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol!r}")
    used, bound = _truncation(spec, tol)
    points, one = _points(z)
    value = 0j if one else np.zeros(points.shape, dtype=np.complex128)
    for term in spec.terms[:used]:
        part = term.component.eval_many(points, tol)
        value += term.weight * (part.item() if one else part)
    return SeriesEvaluation(value=value, terms_used=used, tail_bound=bound)


def build_lohwater_piranian(
    targets: Sequence[ClosedSetSpec], depth: int
) -> SeriesSpec:
    """sum_i B_i / i^2 with the i-th zeros accumulating on the i-th target."""
    if not targets:
        raise ValidationError("need at least one target set")
    terms = tuple(
        SeriesTerm(1.0 / (i * i), InnerFunctionSpec(
            blaschke=BlaschkeProduct(gen_accumulation_sequence(target, depth))))
        for i, target in enumerate(targets, start=1)
    )
    return SeriesSpec(terms=terms, weight_rule="inverse-square")
