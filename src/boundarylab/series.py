"""Inner-function specs and weighted series of them with certified truncation.

An InnerFunctionSpec multiplies optional parts (a Blaschke product, singular
atoms, an outer factor, a nested series), so it and SeriesSpec refer to each
other and live in one module.

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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import config
from .blaschke import BlaschkeProduct
from .errors import BoundaryLabError, ValidationError
from .herglotz import OuterDensity, SingularAtoms, eval_outer, eval_singular_inner
from .unitdisc import (ClosedSetSpec, ZeroSequence, _cmul, _points, _require_number,
                       _require_object, gen_accumulation_sequence)

_WEIGHT_RULES = ("inverse-square", "inverse-power-2", "custom")
_PI2_OVER_6 = math.pi * math.pi / 6.0


@dataclass
class InnerFunctionSpec:
    """A bounded analytic function assembled from optional parts.

    The value at z is the product of the parts present: a Blaschke product
    over a zero sequence, a singular inner factor from atomic masses, an
    outer factor from a boundary log-modulus density, and a weighted series
    of such specs.  Inner-only specs (no outer part, series weight at most 1)
    are bounded by modulus 1 on the disc.
    """

    blaschke: BlaschkeProduct | None = None
    atoms: SingularAtoms | None = None
    outer: OuterDensity | None = None
    series: SeriesSpec | None = None

    def __post_init__(self) -> None:
        if self.blaschke is not None and not isinstance(self.blaschke, BlaschkeProduct):
            raise ValidationError("field 'blaschke' must be a BlaschkeProduct")
        if self.atoms is not None and not isinstance(self.atoms, SingularAtoms):
            raise ValidationError("field 'atoms' must be SingularAtoms")
        if self.outer is not None and not isinstance(self.outer, OuterDensity):
            raise ValidationError("field 'outer' must be an OuterDensity")
        if self.series is not None and not isinstance(self.series, SeriesSpec):
            raise ValidationError("field 'series' must be a SeriesSpec")
        if all(part is None for part in (self.blaschke, self.atoms, self.outer, self.series)):
            raise ValidationError("inner-outer spec needs at least one part")

    def is_unit_bounded(self) -> bool:
        """True when the spec is certainly bounded by modulus 1 on the disc."""
        spec = self.series
        return self.outer is None and (spec is None or (
            spec.total_weight <= 1.0 + 1e-12
            and all(term.component.is_unit_bounded() for term in spec.terms)))

    def eval_many(self, points, tol: float | None = None) -> np.ndarray:
        """Values at each point, bit for bit those of one-point calls.

        Each part present is evaluated once over all points (the Blaschke
        product best effort, a nested series at tolerance tol) and the parts
        are multiplied in field order; a failure is the first failing point's.
        """
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        parts = []
        try:
            if self.blaschke is not None:
                parts.append(self.blaschke.eval_many(z, strict=False).values)
            if self.atoms is not None:
                parts.append(eval_singular_inner(self.atoms, z))
            if self.outer is not None:
                parts.append(eval_outer(self.outer, z))
            if self.series is not None:
                parts.append(eval_series(self.series, z, tol).value)
        except BoundaryLabError:  # a later part may fail first at an earlier point
            for point in z.tolist() if z.size > 1 else ():
                self.eval_many(point, tol)
            raise
        return functools.reduce(_cmul, parts)

    @classmethod
    def from_json(cls, data: dict) -> "InnerFunctionSpec":
        _require_object(data, "inner-outer spec JSON must be an object")
        parsers = (("blaschke", lambda part: BlaschkeProduct(ZeroSequence.from_json(part))),
                   ("atoms", SingularAtoms.from_json), ("outer", OuterDensity.from_json),
                   ("series", SeriesSpec.from_json))
        return cls(**{field: None if data.get(field) is None else parse(data[field])
                      for field, parse in parsers})


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
