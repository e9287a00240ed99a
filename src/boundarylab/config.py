"""Single source of truth for numeric defaults.

Every tolerance, schedule length and threshold that the computational modules
consult lives in DEFAULTS.  The CLI builds an effective mapping by layering,
in increasing precedence: DEFAULTS, an optional ``boundarylab.toml``-style
key = value file, then command-line flags.
"""

from __future__ import annotations

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
    # Poisson / Herglotz quadrature
    "quad_tolerance": 1e-10,        # stop doubling when successive values agree
    "quad_min_points": 64,
    "quad_max_points": 1 << 22,
    # Frostman classifier policy
    "frostman_divergence_threshold": 1e3,
    "frostman_growth_window": 4,    # prefix doublings inspected for the tail
    "frostman_cauchy_tolerance": 1e-6,
    # series truncation
    "series_tolerance": 1e-9,
    # misc
    "seed": 0,
}


def _coerce(text: str) -> Any:
    """Parse a config-file value: bool, int, float, else bare string."""
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    if len(t) >= 2 and t[0] == t[-1] and t[0] in "'\"":
        return t[1:-1]
    return t


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
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(value)
        if isinstance(overrides[key], str):  # every setting is a number
            raise ValidationError(f"{path}:{lineno}: {key} needs a number, got {value.strip()!r}")
    return overrides


def effective_config(
    file_path: str | None = None,
    overrides: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Layer DEFAULTS <- config file <- explicit overrides (flags win)."""
    cfg = dict(DEFAULTS)
    if file_path is not None:
        cfg.update(load_config_file(file_path))
    if overrides:
        for key, value in overrides.items():
            if key not in DEFAULTS:
                raise ValidationError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg
