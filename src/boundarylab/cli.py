"""Command-line front end: JSON/grid specs in, CSV/JSON reports out.

Subcommands: ``scan`` samples a Blaschke product on a circle (CSV), ``trace``
follows one radial ray (CSV), ``probe`` judges boundary limits along several
approach paths (JSON), ``frostman`` classifies the boundary sum at one angle
(JSON) or over a grid (CSV), ``series`` evaluates a weighted inner-function
series (JSON or CSV), ``arakeljan`` runs the raster hole checks (JSON),
``kernels`` reports Poisson-kernel mass and concentration (JSON), and
``selftest`` runs the bundled acceptance criteria.

Every report goes through one deterministic text layer (17 significant
digits, fixed key order), so identical inputs and flags produce byte-identical
output; ``--out -`` streams to standard output.  Exit codes: 0 success, 1
computation failure (any partial report is still written), 2 validation
failure with a diagnostic naming the offending input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import config
from .blaschke import (
    BlaschkeProduct,
    boundary_scan,
    default_radius_schedule,
    limit_probe,
    radial_trace,
)
from .errors import EvaluationError, ValidationError
from .frostman import FrostmanPolicy, frostman_classify, frostman_profile
from .grid import GridPlane, hole_independence, is_arakeljan, union_check
from .herglotz import approx_identity_report
from .series import SeriesSpec, eval_series
from .textio import json_text, write_values
from .unitdisc import ZeroSequence, circle_points, uniform_angles

def _setting(parser: argparse.ArgumentParser, flag: str, key: str, metavar: str,
             text: str) -> None:
    """A flag that overrides config key ``key``; type and default come from DEFAULTS."""
    default = config.DEFAULTS[key]
    parser.add_argument(flag, dest=key, type=type(default), metavar=metavar,
                        help=f"{text} (default {default})")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key = value config file; flags win over it (default none)")
    common.add_argument("--out", metavar="PATH", default="-",
                        help="output path, - for standard output (default -)")

    zeros = argparse.ArgumentParser(add_help=False)
    zeros.add_argument("--zeros", metavar="FILE", required=True,
                       help="zero-sequence JSON ({'zeros': [...]} or {'generator': {...}})")
    truncation = argparse.ArgumentParser(add_help=False)
    _setting(truncation, "--truncation-tolerance", "truncation_tolerance", "TOL",
             "certified truncation tail bound")
    ray = argparse.ArgumentParser(add_help=False)
    ray.add_argument("--angle", type=float, default=0.0,
                     help="boundary angle in radians (default 0.0)")
    _setting(ray, "--radius-levels", "radius_levels", "N", "radii 1 - 2^-n for n = 1..N")

    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="Boundary behaviour of bounded analytic functions on the unit disc.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("scan", parents=[common, zeros, truncation],
                       help="sample a Blaschke product on the circle |z| = r (CSV)")
    p.add_argument("--r", type=float, default=0.999, help="scan radius in (0, 1) (default 0.999)")
    p.add_argument("--angles", type=int, default=4096,
                   help="number of uniform sample angles (default 4096)")
    sub.add_parser("trace", parents=[common, zeros, ray, truncation],
                   help="sample a Blaschke product along one radial ray (CSV)")
    p = sub.add_parser("probe", parents=[common, zeros, ray, truncation],
                       help="boundary-limit probe along several approach paths (JSON)")
    _setting(p, "--window", "oscillation_window", "N", "trailing samples judged for oscillation")
    _setting(p, "--verdict-tolerance", "verdict_tolerance", "TOL",
             "oscillation below this counts as a limit")

    p = sub.add_parser("frostman", parents=[common, zeros],
                       help="Frostman sum classification at one angle (JSON) or a grid (CSV)")
    p.add_argument("--theta", type=float, metavar="T",
                   help="classify this single angle instead of a grid (default none)")
    p.add_argument("--angles", type=int, default=256,
                   help="grid size when --theta is absent (default 256)")
    _setting(p, "--divergence-threshold", "frostman_divergence_threshold", "X",
             "partial sums this large mean divergent")
    _setting(p, "--growth-window", "frostman_growth_window", "N",
             "prefix doublings inspected for the tail")
    _setting(p, "--cauchy-tolerance", "frostman_cauchy_tolerance", "TOL",
             "tail below this means convergent")

    p = sub.add_parser("series", parents=[common],
                       help="evaluate a weighted inner-function series (JSON or CSV)")
    p.add_argument("--spec", metavar="FILE", required=True, help="series spec JSON")
    p.add_argument("--at", nargs=2, type=float, metavar=("RE", "IM"),
                   help="evaluate at one point and emit JSON (default: circle CSV)")
    p.add_argument("--r", type=float, default=0.999,
                   help="circle radius for the CSV mode (default 0.999)")
    p.add_argument("--angles", type=int, default=256,
                   help="sample angles for the CSV mode (default 256)")
    _setting(p, "--series-tolerance", "series_tolerance", "TOL",
             "unused weight mass allowed in the tail")

    p = sub.add_parser("arakeljan", parents=[common],
                       help="raster hole checks: verdict, independence, union law (JSON)")
    p.add_argument("--grid", metavar="FILE", required=True,
                   help="grid file (text format or JSON)")
    p.add_argument("--subject", metavar="SEL",
                   help="subject selector: F, E, E+F or none (default F)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--independence", nargs=2, metavar=("E_SEL", "F_SEL"),
                      help="report hole independence of two subjects instead")
    mode.add_argument("--union", action="store_true",
                      help="report the full union-law check for E and F instead")

    p = sub.add_parser("kernels", parents=[common],
                       help="Poisson kernel mass and concentration numbers (JSON)")
    p.add_argument("--r", type=float, default=0.99,
                   help="kernel radius in [0, 1) (default 0.99)")
    p.add_argument("--delta", type=float, default=0.1,
                   help="tail threshold angle in (0, pi] (default 0.1)")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the bundled acceptance criteria; exit 0 iff all pass")
    p.add_argument("--only", metavar="LIST",
                   help="comma-separated criterion indices, e.g. 1,5,13 (default all)")
    _setting(p, "--seed", "seed", "N", "seed for randomized fixtures")

    return parser


def _effective(args: argparse.Namespace) -> dict:
    """Every flag whose destination is a config key overrides it when given."""
    overrides = {k: v for k, v in vars(args).items() if k in config.DEFAULTS and v is not None}
    return config.effective_config(args.config, overrides)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc


def _parse_json(path: str, text: str, failure: str):
    """The JSON document in text; a syntax error is ValidationError(f"{path}: {failure}: ...")."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {failure}: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the parser's stack
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from exc


def _read_json(path: str) -> dict:
    return _parse_json(path, _read_text(path), "invalid JSON")


@contextlib.contextmanager
def _out_handle(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc
    try:
        yield fh
    finally:
        fh.close()


def _load_product(args: argparse.Namespace, cfg: dict) -> BlaschkeProduct:
    seq = ZeroSequence.from_json(_read_json(args.zeros))
    return BlaschkeProduct(seq, truncation_tolerance=cfg["truncation_tolerance"])


def _load_grid(path: str) -> GridPlane:
    text = _read_text(path)
    # a text grid's first word is "grid", as GridPlane.parse_text reads its header
    if text.split(None, 1)[:1] == ["grid"]:
        return GridPlane.parse_text(text)
    return GridPlane.from_json(_parse_json(
        path, text, "neither a 'grid <w> <h> <unbounded>' text file nor JSON"))


def _cmd_scan(args: argparse.Namespace, cfg: dict) -> int:
    product = _load_product(args, cfg)
    kwargs = dict(r=args.r, angle_count=args.angles)
    code = 0
    try:
        scan = boundary_scan(product, strict=True, **kwargs)
    except EvaluationError as exc:
        # partial report: best-effort samples below the certified tolerance
        print(f"boundarylab scan: {exc}; writing best-effort samples", file=sys.stderr)
        scan = boundary_scan(product, strict=False, **kwargs)
        code = 1
    with _out_handle(args.out) as fh:
        scan.write_csv(fh)
    return code


def _cmd_trace(args: argparse.Namespace, cfg: dict) -> int:
    trace = radial_trace(_load_product(args, cfg), args.angle,
                         default_radius_schedule(cfg["radius_levels"]))
    with _out_handle(args.out) as fh:
        trace.write_csv(fh)
    return 0


def _cmd_probe(args: argparse.Namespace, cfg: dict) -> int:
    report = limit_probe(_load_product(args, cfg), args.angle,
                         radii=default_radius_schedule(cfg["radius_levels"]),
                         verdict_tolerance=cfg["verdict_tolerance"],
                         window=cfg["oscillation_window"])
    with _out_handle(args.out) as fh:
        fh.write(json_text(report.to_json()))
    return 0


def _cmd_frostman(args: argparse.Namespace, cfg: dict) -> int:
    seq = ZeroSequence.from_json(_read_json(args.zeros))
    policy = FrostmanPolicy(
        divergence_threshold=cfg["frostman_divergence_threshold"],
        growth_window=cfg["frostman_growth_window"],
        cauchy_tolerance=cfg["frostman_cauchy_tolerance"],
    )
    if args.theta is not None:
        report = frostman_classify(seq, args.theta, policy)
        payload = {
            "theta": float(report.theta),
            "classification": report.classification,
            "schedule": [int(n) for n in report.schedule],
            "partial_sums": [float(s) for s in report.partial_sums],
            "tail": float(report.tail),
        }
        with _out_handle(args.out) as fh:
            fh.write(json_text(payload))
        return 0
    profile = frostman_profile(seq, args.angles, policy=policy)
    with _out_handle(args.out) as fh:
        profile.write_csv(fh)
    return 0


def _cmd_series(args: argparse.Namespace, cfg: dict) -> int:
    spec = SeriesSpec.from_json(_read_json(args.spec))
    tol = cfg["series_tolerance"]
    if args.at is not None:
        z = complex(args.at[0], args.at[1])
        if not abs(z) < 1.0:
            raise ValidationError(f"--at point must lie inside the unit disc, got |z| = {abs(z)}")
        ev = eval_series(spec, z, tol=tol)
        payload = {
            "re": ev.value.real,
            "im": ev.value.imag,
            "modulus": abs(ev.value),
            "terms_used": int(ev.terms_used),
            "tail_bound": float(ev.tail_bound),
        }
        with _out_handle(args.out) as fh:
            fh.write(json_text(payload))
        return 0
    if not (0.0 < args.r < 1.0):
        raise ValidationError(f"--r must lie in (0, 1), got {args.r!r}")
    angles = uniform_angles(args.angles)
    values = eval_series(spec, circle_points(args.r, angles), tol=tol).value
    with _out_handle(args.out) as fh:
        write_values(fh, "angle", angles, values)
    return 0


def _cmd_arakeljan(args: argparse.Namespace, cfg: dict) -> int:
    if args.subject is not None and (args.union or args.independence is not None):
        raise ValidationError("--subject applies to the verdict only, "
                              "not to --union or --independence")
    grid = _load_grid(args.grid)
    if args.independence is not None:
        payload = hole_independence(grid, *args.independence).to_json()
    elif args.union:
        payload = union_check(grid, "e", "f").to_json()
    else:
        payload = is_arakeljan(grid, "F" if args.subject is None else args.subject).to_json()
    with _out_handle(args.out) as fh:
        fh.write(json_text(payload))
    return 0


def _cmd_kernels(args: argparse.Namespace, cfg: dict) -> int:
    report = approx_identity_report(args.r, args.delta)
    with _out_handle(args.out) as fh:
        fh.write(json_text(report.to_json()))
    return 0


def _parse_only(text: str | None, count: int) -> list[int] | None:
    if text is None:
        return None
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--only takes comma-separated integers, got {text!r}") from exc
    if not indices:
        raise ValidationError("--only selected no criteria")
    for idx in indices:
        if not 1 <= idx <= count:
            raise ValidationError(f"--only index {idx} outside 1..{count}")
    return indices


def _cmd_selftest(args: argparse.Namespace, cfg: dict) -> int:
    from . import acceptance  # only selftest needs it, so other commands start without it

    indices = _parse_only(args.only, len(acceptance.CRITERIA))
    results = acceptance.run_acceptance(seed=cfg["seed"], indices=indices)
    for res in results:  # wall times vary by run, so they stay off the report
        print(f"boundarylab selftest: [{res.index:2d}] {res.name} took {res.elapsed:.2f}s",
              file=sys.stderr)
    with _out_handle(args.out) as fh:
        fh.write(acceptance.format_table(results) + "\n")
    return 0 if acceptance.all_passed(results) else 1


_HANDLERS = {
    "scan": _cmd_scan,
    "trace": _cmd_trace,
    "probe": _cmd_probe,
    "frostman": _cmd_frostman,
    "series": _cmd_series,
    "arakeljan": _cmd_arakeljan,
    "kernels": _cmd_kernels,
    "selftest": _cmd_selftest,
}


# run's parser: parse_args leaves a parser as it was, so one serves every call
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its diagnostic; unknown subcommands
        # and malformed flags land here with code 2
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _effective(args)
        return _HANDLERS[args.subcommand](args, cfg)
    except ValidationError as exc:
        print(f"boundarylab {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"boundarylab {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
