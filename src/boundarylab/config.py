"""Single source of truth for the settings a user can change.

DEFAULTS holds every setting the CLI accepts, as a flag whose destination is
the key or as a config-file line.  The CLI layers, in increasing precedence:
DEFAULTS, an optional ``boundarylab.toml``-style key = value file, then flags.
A value takes the type of its default and one bound: integers at least 1
(``seed`` at least 0), floats finite and positive.  Constants that no setting
exposes (quadrature limits, size caps) live in the modules that use them.
"""

from __future__ import annotations

import math
from typing import Any

from .errors import ValidationError

DEFAULTS: dict[str, Any] = {
    # Blaschke product evaluation
    "truncation_tolerance": 1e-9,
    # radial limit machinery
    "radius_levels": 40,            # schedule r_n = 1 - 2^-n, n = 1..radius_levels
    "oscillation_window": 32,       # samples examined at the end of a trace
    "verdict_tolerance": 1e-4,      # oscillation below this => "limit exists"
    # boundary scans
    "scan_delta": 0.05,             # "near modulus one" means modulus > 1 - delta
    # Frostman classifier policy
    "frostman_divergence_threshold": 1e3,
    "frostman_growth_window": 4,    # prefix doublings inspected for the tail
    "frostman_cauchy_tolerance": 1e-6,
    # series truncation
    "series_tolerance": 1e-9,
    # misc
    "seed": 0,
}


def _check(key: str, value: Any) -> Any:
    """A setting as the type of its default, within its bound.

    Text is parsed by that type, so an integer key refuses ``7.9``; booleans,
    quoted strings and non-finite floats are refused for every key.
    """
    if key not in DEFAULTS:
        raise ValidationError(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, kind)):
            raise ValueError
        number = kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"config key {key} needs {noun}, got {value!r}") from None
    low = 0 if key == "seed" else 1
    if kind is int and number < low:
        raise ValidationError(f"config key {key} must be at least {low}, got {number}")
    if kind is float and not (math.isfinite(number) and number > 0.0):
        raise ValidationError(f"config key {key} must be finite and positive, got {number!r}")
    return number


def load_config_file(path: str) -> dict[str, Any]:
    """Read a flat ``key = value`` file (comments start with ``#``).

    Unknown keys are rejected so typos cannot silently fall back to defaults.
    """
    overrides: dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            overrides[key] = _check(key, value)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return overrides


def effective_config(
    file_path: str | None = None,
    overrides: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Layer DEFAULTS <- config file <- explicit overrides (flags win)."""
    cfg = dict(DEFAULTS)
    if file_path is not None:
        cfg.update(load_config_file(file_path))
    for key, value in (overrides or {}).items():
        cfg[key] = _check(key, value)
    return cfg
