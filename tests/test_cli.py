import argparse
import json
import re
from pathlib import Path

import pytest

from boundarylab import cli, config, frostman
from boundarylab.cli import build_parser, run
from boundarylab.fixtures import punctured_disc_plane
from boundarylab.unitdisc import MAX_ANGLES


@pytest.fixture
def deep_zeros(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(
        {"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5, "count": 60}}
    ))
    return str(path)


@pytest.fixture
def shallow_zeros(tmp_path):
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(
        {"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5, "count": 30}}
    ))
    return str(path)


def test_scan_writes_csv(deep_zeros, tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--zeros", deep_zeros, "--r", "0.9",
                "--angles", "64", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle,re,im,modulus"
    assert len(lines) == 65


def test_scan_is_deterministic(deep_zeros, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["scan", "--zeros", deep_zeros, "--r", "0.9",
                "--angles", "32", "--out", str(a)]) == 0
    assert run(["scan", "--zeros", deep_zeros, "--r", "0.9",
                "--angles", "32", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_streams_to_stdout(deep_zeros, capsys):
    code = run(["scan", "--zeros", deep_zeros, "--r", "0.9", "--angles", "8"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "angle,re,im,modulus"


def test_scan_partial_report_on_exhausted_prefix(shallow_zeros, tmp_path, capsys):
    # the stored prefix cannot certify the default 1e-9 tolerance, so the
    # scan exits 1 but still writes the best-effort table
    out = tmp_path / "partial.csv"
    code = run(["scan", "--zeros", shallow_zeros, "--r", "0.999",
                "--angles", "16", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err != ""
    lines = out.read_text().splitlines()
    assert lines[0] == "angle,re,im,modulus"
    assert len(lines) == 17


def test_validation_failures_exit_2(tmp_path, deep_zeros, capsys):
    assert run(["warp", "--zeros", deep_zeros]) == 2  # unknown subcommand
    assert run(["scan", "--zeros", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["scan", "--zeros", str(bad)]) == 2
    assert run(["scan", "--zeros", deep_zeros, "--truncation-tolerance", "-1"]) == 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mystery = 1\n")
    assert run(["scan", "--zeros", deep_zeros, "--config", str(cfg)]) == 2
    assert run([]) == 2  # no subcommand
    capsys.readouterr()
    cfg.write_text("verdict_tolerance 1e-3\n")  # no '='
    for argv, message in (
        (["scan", "--zeros", deep_zeros, "--config", str(tmp_path / "missing.conf")],
         "cannot read config file"),
        (["scan", "--zeros", deep_zeros, "--config", str(cfg)], "expected 'key = value'"),
        (["scan", "--zeros", deep_zeros, "--r", "0.5", "--out", str(tmp_path / "no" / "x.csv")],
         "cannot write"),
        (["selftest", "--only", ","], "--only selected no criteria"),
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"boundarylab {argv[0]}: ") and message in err, err
        assert "Traceback" not in err


def test_settings_are_range_checked(tmp_path, deep_zeros):
    assert run(["selftest", "--seed", "-1", "--only", "2"]) == 2
    assert run(["probe", "--zeros", deep_zeros, "--verdict-tolerance", "0"]) == 2
    # removed flags
    assert run(["trace", "--zeros", deep_zeros, "--threads", "2"]) == 2
    assert run(["trace", "--zeros", deep_zeros, "--window", "8"]) == 2
    assert run(["trace", "--zeros", deep_zeros, "--verdict-tolerance", "1e-3"]) == 2
    assert run(["scan", "--zeros", deep_zeros, "--delta", "0.2"]) == 2
    cfg = tmp_path / "cfg.txt"
    for removed_key in ("threads = 2\n", "scan_delta = 0.2\n"):
        cfg.write_text(removed_key)
        assert run(["trace", "--zeros", deep_zeros, "--config", str(cfg)]) == 2
    cfg.write_text("verdict_tolerance = abc\n")
    assert run(["trace", "--zeros", deep_zeros, "--config", str(cfg)]) == 2


# flag destinations that are inputs of one run, not settings
_INPUT_DESTS = {"help", "subcommand", "config", "out", "zeros", "spec", "grid", "angle", "r",
                "angles", "theta", "at", "subject", "independence", "union", "delta", "only"}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_setting_is_one_flag_whose_dest_is_its_key():
    owners, types = {}, {}
    for name, sub in _subcommands().items():
        for action in sub._actions:
            owners.setdefault(action.dest, []).append(name)
            types.setdefault(action.dest, set()).add(action.type)
    settings = set(owners) - _INPUT_DESTS
    assert settings == set(config.DEFAULTS)
    for key in settings:
        assert types[key] == {type(config.DEFAULTS[key])}
    assert owners["seed"] == ["selftest"]


_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


# (subcommand, flag) of every flag whose destination is a config key
_SETTING_FLAGS = [(name, action.option_strings[0]) for name, sub in _subcommands().items()
                  for action in sub._actions if action.dest in config.DEFAULTS]
_TRACE = ["--zeros", str(_INPUTS / "radial60.json"), "--angle", "1.0"]
_PROBE = ["--zeros", str(_INPUTS / "radial30.json"), "--angle", "1.0"]
_FROSTMAN = ["--zeros", str(_INPUTS / "cantor8.json"), "--theta", "0.7"]
# (subcommand, flag) -> (a run on golden inputs, another valid value of the flag)
_SETTING_CHANGES = {
    ("scan", "--truncation-tolerance"):
        (["--zeros", str(_INPUTS / "radial60.json"), "--r", "0.9", "--angles", "32"], "1e-3"),
    ("trace", "--radius-levels"): (_TRACE, "8"),
    ("trace", "--truncation-tolerance"): (_TRACE, "1e-3"),
    ("probe", "--radius-levels"): (_PROBE, "8"),
    ("probe", "--window"): (_PROBE, "4"),
    ("probe", "--verdict-tolerance"): (_PROBE, "0.5"),
    ("probe", "--truncation-tolerance"): (_PROBE, "1e-3"),
    ("frostman", "--divergence-threshold"): (_FROSTMAN, "1"),
    ("frostman", "--growth-window"): (_FROSTMAN, "2"),
    ("frostman", "--cauchy-tolerance"): (_FROSTMAN, "1e3"),
    ("series", "--series-tolerance"): (["--spec", str(_INPUTS / "lp6.json"), "--at", "0.1", "0.2"],
                                       "0.5"),
    ("selftest", "--seed"): (["--only", "3"], "1"),
}


@pytest.mark.parametrize("command,flag", _SETTING_FLAGS,
                         ids=[f"{command} {flag}" for command, flag in _SETTING_FLAGS])
def test_every_setting_changes_stdout(capsys, command, flag):
    # a setting that changes no output is a knob to delete, not one to document
    assert (command, flag) in _SETTING_CHANGES, "no run shows what this setting changes"
    base, value = _SETTING_CHANGES[command, flag]
    outputs = []
    for argv in ([command, *base], [command, *base, flag, value]):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("argv", [
    ["frostman", "--zeros", str(_INPUTS / "cantor8.json"), "--theta"],
    ["probe", "--zeros", str(_INPUTS / "radial30.json"), "--angle"],
    ["trace", "--zeros", str(_INPUTS / "radial30.json"), "--angle"],
], ids=["frostman", "probe", "trace"])
def test_minus_zero_angle_prints_as_zero(capsys, argv):
    outputs = []
    for angle in ("-0", "0"):
        assert run([*argv, angle]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("line,key", [
    ("verdict_tolerance = true", "verdict_tolerance"),
    ("radius_levels = 7.9", "radius_levels"),
    ("seed = 2.7", "seed"),
    ("scan_delta = nan", "scan_delta"),
    ("frostman_divergence_threshold = inf", "frostman_divergence_threshold"),
    ("truncation_tolerance = '1e-6'", "truncation_tolerance"),
    ('oscillation_window = "8"', "oscillation_window"),
    ("frostman_growth_window = 0", "frostman_growth_window"),
    ("quad_tolerance = 1e-2", "quad_tolerance"),
    ("quad_min_points = 0", "quad_min_points"),
    ("quad_max_points = 64", "quad_max_points"),
])
def test_bad_config_file_values_exit_2_naming_the_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert run(["kernels", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"boundarylab kernels: {cfg}:1: ")
    assert key in captured.err


@pytest.mark.parametrize("flag,value,message", [
    ("--verdict-tolerance", "inf", "config key verdict_tolerance must be finite and positive"),
    ("--window", "0", "config key oscillation_window must be at least 1"),
    ("--radius-levels", "54", "radius_levels must lie in 1..53"),
    ("--radius-levels", "1000000", "radius_levels must lie in 1..53"),
])
def test_bad_flag_values_exit_2_naming_the_key(deep_zeros, capsys, flag, value, message):
    # trace takes the ray's radii but not the verdict flags, which only probe reads
    for command in ("trace", "probe") if flag == "--radius-levels" else ("probe",):
        assert run([command, "--zeros", deep_zeros, flag, value]) == 2
        assert message in capsys.readouterr().err


def test_probe_refuses_radius_levels_past_53(deep_zeros, capsys):
    assert run(["probe", "--zeros", deep_zeros, "--radius-levels", "53"]) == 0
    capsys.readouterr()
    assert run(["probe", "--zeros", deep_zeros, "--radius-levels", "100"]) == 2
    assert "radius_levels must lie in 1..53" in capsys.readouterr().err


def test_kernels_delta_is_not_the_scan_delta(capsys):
    assert run(["kernels", "--delta", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boundarylab kernels: delta must lie in (0, pi]")
    assert "scan_delta" not in err


def test_seed_is_a_selftest_flag_only(deep_zeros, capsys):
    assert run(["scan", "--zeros", deep_zeros, "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert run(["selftest", "--seed", "-1", "--only", "2"]) == 2
    assert "config key seed must be at least 0" in capsys.readouterr().err


def test_probe_at_a_zero_angle_of_a_deep_radial_set(tmp_path, capsys):
    # the deepest zeros of this set have a modulus that numpy rounds below 1
    # and Python's abs rounds to exactly 1; the zero-chase path must skip them
    angle = 0.03155778894472362
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(
        {"generator": {"kind": "radial", "angle": angle, "rate": 0.5, "count": 60}}
    ))
    assert run(["probe", "--zeros", str(path), "--angle", repr(angle)]) == 0
    names = [p["name"] for p in json.loads(capsys.readouterr().out)["paths"]]
    assert "zero-chase" in names


def test_trace_csv_header(deep_zeros, tmp_path):
    out = tmp_path / "trace.csv"
    code = run(["trace", "--zeros", deep_zeros, "--angle", "3.14159",
                "--radius-levels", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "radius,re,im,modulus"
    assert len(lines) == 21


def test_probe_json_output(deep_zeros, capsys):
    code = run(["probe", "--zeros", deep_zeros, "--angle", "3.14159",
                "--window", "8"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data.keys()) == {
        "angle", "paths", "cluster_diameter_estimate", "radial_exists",
    }
    assert data["radial_exists"] is True


def test_repeated_runs_in_one_process_print_the_same_bytes(deep_zeros, capsys):
    """run parses with one parser per process; parse errors between runs
    leave it as it was, so every run prints what the first one printed."""
    argvs = [
        ["probe", "--zeros", deep_zeros, "--angle", "0.5", "--window", "8"],
        ["frostman", "--zeros", deep_zeros, "--theta", "0.0"],
        ["probe", "--zeros", deep_zeros, "--window", "many"],  # a bad flag value
        ["trace", "--zeros", deep_zeros, "--radius-levels", "12"],
        ["arakeljan", "--union"],  # a missing required flag
        ["nosuch"],
        [],  # no subcommand: the help on stderr
        ["scan", "--zeros", deep_zeros, "--r", "0.9", "--angles", "8"],
    ]
    first = []
    for argv in argvs:
        code = run(argv)
        first.append((code, *capsys.readouterr()))
    assert [f[0] for f in first] == [0, 0, 2, 0, 2, 2, 2, 0]
    assert all(f[2] for f in first if f[0] == 2) and all(f[1] for f in first if f[0] == 0)
    for _ in range(2):
        for argv, want in zip(argvs, first):
            code = run(argv)
            assert (code, *capsys.readouterr()) == want, argv
    assert cli._parser() is cli._parser()


def test_config_file_loses_to_flags(deep_zeros, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("verdict_tolerance = 0.5\n")
    assert run(["probe", "--zeros", deep_zeros, "--angle", "3.14159",
                "--window", "8", "--config", str(cfg)]) == 0
    relaxed = json.loads(capsys.readouterr().out)
    assert all(p["estimate"] is not None for p in relaxed["paths"])
    assert run(["probe", "--zeros", deep_zeros, "--angle", "3.14159",
                "--window", "8", "--config", str(cfg),
                "--verdict-tolerance", "1e-18"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert all(p["estimate"] is None for p in strict["paths"])


def test_frostman_single_angle(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(
        {"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5, "count": 1050}}
    ))
    code = run(["frostman", "--zeros", str(path), "--theta", "3.141592653589793"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "convergent"
    assert data["theta"] > 3.0
    assert len(data["partial_sums"]) == len(data["schedule"])


def test_frostman_grid_csv(deep_zeros, tmp_path):
    out = tmp_path / "frostman.csv"
    code = run(["frostman", "--zeros", deep_zeros, "--angles", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle,n,partial_sum,classification"
    assert len(lines) > 8


def test_series_point_and_circle(tmp_path, capsys):
    spec = {
        "weight_rule": "inverse-power-2",
        "terms": [
            {
                "weight": 0.5,
                "component": {
                    "blaschke": {
                        "generator": {
                            "kind": "radial", "angle": 0.0, "rate": 0.5, "count": 40,
                        }
                    },
                    "atoms": None,
                    "outer": None,
                    "series": None,
                },
            }
        ],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(spec))
    code = run(["series", "--spec", str(path), "--at", "0.1", "0.2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data.keys()) == {"re", "im", "modulus", "terms_used", "tail_bound"}
    out = tmp_path / "series.csv"
    code = run(["series", "--spec", str(path), "--r", "0.5",
                "--angles", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle,re,im,modulus"
    assert len(lines) == 17
    # evaluation points must stay inside the disc
    assert run(["series", "--spec", str(path), "--at", "2.0", "0.0"]) == 2


def test_arakeljan_subcommands(tmp_path, capsys):
    path = tmp_path / "remark3.grid"
    path.write_text(punctured_disc_plane(96).format_text())
    code = run(["arakeljan", "--grid", str(path), "--subject", "E"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["label"] == "passes-probes"
    code = run(["arakeljan", "--grid", str(path), "--independence", "E", "F"])
    assert code == 0
    indep = json.loads(capsys.readouterr().out)
    assert indep["independent"] is False
    assert indep["witness_component"] is not None
    code = run(["arakeljan", "--grid", str(path), "--union"])
    assert code == 0
    union = json.loads(capsys.readouterr().out)
    assert union["lemma_consistent"] is True
    assert union["union"]["failed_condition"] == 1


@pytest.mark.parametrize("flags, message", [
    (["--union", "--independence", "E", "F"], "argument --independence: not allowed with"),
    (["--independence", "E", "F", "--union"], "argument --union: not allowed with"),
    (["--union", "--subject", "E"], "--subject applies to the verdict only"),
    (["--subject", "F", "--independence", "E", "F"], "--subject applies to the verdict only"),
], ids=["union-independence", "independence-union", "union-subject", "independence-subject"])
def test_arakeljan_refuses_conflicting_modes(tmp_path, capsys, flags, message):
    path = tmp_path / "remark3.grid"
    path.write_text(punctured_disc_plane(12).format_text())
    assert run(["arakeljan", "--grid", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "boundarylab arakeljan: " in captured.err and message in captured.err


def test_text_grid_after_blank_lines(tmp_path, capsys):
    text = punctured_disc_plane(48).format_text()
    outputs = []
    variants = (("plain", text), ("blank", "\n" + text), ("blanks", "\n  \n\t\n" + text),
                ("tab", text.replace("grid ", "grid\t", 1)))
    for name, content in variants:
        path = tmp_path / f"{name}.grid"
        path.write_text(content)
        code = run(["arakeljan", "--grid", str(path), "--union"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append(captured.out)
    assert outputs == [outputs[0]] * len(variants)
    path = tmp_path / "small.grid"
    path.write_text("\ngrid 2 1 0\n..\n")
    assert run(["arakeljan", "--grid", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["failed_condition"] == 1


def test_kernels_report(capsys):
    code = run(["kernels", "--r", "0.5", "--delta", "3.141592653589793"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data.keys()) == {"r", "delta", "mass", "sup_outside_delta"}
    assert abs(data["mass"] - 1.0) < 1e-8
    # at delta = pi the kernel minimum (1-r)/(1+r) = 1/3 is the tail sup
    assert abs(data["sup_outside_delta"] - 1.0 / 3.0) < 1e-12


def test_selftest_subset(capsys):
    code = run(["selftest", "--only", "2,5"])
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "[ 2] PASS" in out
    assert "[ 5] PASS" in out
    assert "2/2 criteria passed" in out
    # wall times go to stderr, one line per criterion, and never to the report
    assert re.findall(r"(?m)^boundarylab selftest: \[ (\d)\] \S+ took \d+\.\d\ds$",
                      captured.err) == ["2", "5"]
    assert not re.search(r"\d\.\d\ds", out)
    assert run(["selftest", "--only", "0"]) == 2
    assert run(["selftest", "--only", "banana"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["scan", "--help"]) == 0
    out = capsys.readouterr().out
    assert "(default" in out


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _series_of(blaschke, weight=0.5):
    return {"weight_rule": "inverse-power-2", "terms": [{"weight": weight, "component": {
        "blaschke": blaschke, "atoms": None, "outer": None, "series": None}}]}


_RADIAL = {"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5, "count": 40}}


_ACCUMULATION = {"kind": "accumulation", "depth": 3}


@pytest.mark.parametrize("subcommand,text,message", [
    ("scan", json.dumps({"zeros": [{"re": "x", "im": 0.0}]}), "zeros[0] field 're' must be a number"),
    ("scan", json.dumps({"zeros": [{"re": 0.1, "im": 0.2}, {"re": None, "im": 0.0}]}),
     "zeros[1] field 're' must be a number"),
    ("scan", '{"generator": {"kind": "radial", "angle": 1e999, "rate": 0.5, "count": 4}}',
     "field 'angle' must be finite"),
    ("scan", json.dumps({"generator": {**_ACCUMULATION, "target": {
        "kind": "finite-points", "points": [0.5, "x"]}}}), "points[1] must be a number"),
    ("series", json.dumps(_series_of({"zeros": [{"re": "x", "im": 0.0}]})),
     "zeros[0] field 're' must be a number"),
    ("series", json.dumps(_series_of(_RADIAL, weight="half")),
     "terms[0] field 'weight' must be a number"),
    ("scan", json.dumps({"generator": {"kind": "radial", "angle": True, "rate": 0.5,
                                       "count": 4}}), "field 'angle' must be a number"),
    ("scan", json.dumps({"zeros": [{"re": False, "im": 0.5}]}),
     "zeros[0] field 're' must be a number"),
    ("scan", json.dumps({"generator": {**_ACCUMULATION, "depth": 100000, "target": {
        "kind": "finite-points", "points": [0.5]}}}), "depth 100000 is too deep"),
    ("scan", json.dumps({"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5,
                                       "count": 2000}}), "count 2000 is too large for rate 0.5"),
    ("scan", json.dumps({"generator": {**_ACCUMULATION, "target": {
        "kind": "cantor", "cantor_level": 21}}}), "cantor_level must lie in [0, 20]"),
    ("scan", json.dumps({"generator": {"kind": "radial", "angle": 0.0, "rate": 0.5,
                                       "count": 2_000_000}}),
     "count 2000000 exceeds the 1000000 generated-zero cap"),
    ("series", json.dumps(_series_of(_RADIAL, weight=0)), "terms[0] weight must be finite and positive"),
    ("series", json.dumps(_series_of(_RADIAL, weight=-0.5)),
     "terms[0] weight must be finite and positive"),
], ids=["re-string", "re-null", "infinite-angle", "finite-points-string", "series-zeros",
        "series-weight", "angle-true", "re-false", "depth-underflow", "count-underflow",
        "cantor-level-21", "count-cap", "series-weight-zero", "series-weight-negative"])
def test_malformed_evaluation_inputs_exit_2(tmp_path, capsys, subcommand, text, message):
    path = _write(tmp_path, "input.json", text)
    flag = "--zeros" if subcommand == "scan" else "--spec"
    assert run([subcommand, flag, path, "--angles", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"boundarylab {subcommand}: {message}")
    assert "Traceback" not in err
    assert "np." not in err


_GRID = {"width": 2, "height": 2, "unbounded": 0, "cells": [1, 1, 1, 1]}


@pytest.mark.parametrize("subcommand,data", [
    ("scan", {"zeros": [{"re": "0.5", "im": 0.1}]}),
    ("scan", {"zeros": [{"re": 0.5, "im": "0.1"}]}),
    ("scan", {"generator": {"kind": "radial", "angle": 0.0, "rate": "0.5", "count": 4}}),
    ("series", _series_of(_RADIAL, weight="0.5")),
], ids=["re", "im", "rate", "weight"])
def test_numeric_strings_are_not_numbers(tmp_path, capsys, subcommand, data):
    flag = {"scan": "--zeros", "series": "--spec"}[subcommand]
    assert run([subcommand, flag, _write(tmp_path, "input.json", data)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"boundarylab {subcommand}: ")
    assert err.rstrip().endswith("must be a number")
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand,flag", [
    ("scan", "--zeros"), ("trace", "--zeros"), ("probe", "--zeros"), ("frostman", "--zeros"),
    ("series", "--spec"), ("arakeljan", "--grid"),
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, subcommand, flag):
    # nesting past the parser's stack raises RecursionError, not JSONDecodeError
    path = _write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert run([subcommand, flag, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"boundarylab {subcommand}: {path}: invalid JSON: nested too deeply\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("name,text", [
    ("g.json", json.dumps({**_GRID, "unbounded": "false"})),
    ("g.json", json.dumps({**_GRID, "unbounded": 2})),
    ("g.json", json.dumps({**_GRID, "unbounded": None})),
    ("g.json", json.dumps({**_GRID, "unbounded": 1.0})),
    ("g.txt", "grid 2 1 0\n..\n##\n"),
], ids=["unbounded-string", "unbounded-2", "unbounded-null", "unbounded-float", "extra-row"])
def test_malformed_grid_frame_and_rows_exit_2(tmp_path, capsys, name, text):
    assert run(["arakeljan", "--grid", _write(tmp_path, name, text)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("boundarylab arakeljan: ")
    assert ("unbounded" if name == "g.json" else "past the height") in err
    assert "Traceback" not in err


def test_angle_counts_above_the_cap_exit_2(tmp_path, capsys):
    zeros = _write(tmp_path, "zeros.json", _RADIAL)
    spec = _write(tmp_path, "spec.json", _series_of(_RADIAL))
    too_many = str(MAX_ANGLES + 1)
    assert run(["scan", "--zeros", zeros, "--angles", "100000000"]) == 2
    assert run(["scan", "--zeros", zeros, "--angles", too_many]) == 2
    assert run(["frostman", "--zeros", zeros, "--angles", too_many]) == 2
    assert run(["series", "--spec", spec, "--angles", too_many]) == 2
    assert run(["series", "--spec", spec, "--angles", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"exceeds the {MAX_ANGLES} angle cap") == 4


def test_frostman_grid_rows_above_the_cap_exit_2(tmp_path, capsys, monkeypatch):
    # the cap patched down to 64 rows; 40 zeros have 7 schedule entries
    monkeypatch.setattr(frostman, "MAX_ANGLES", 64)
    zeros = _write(tmp_path, "zeros.json", _RADIAL)
    assert run(["frostman", "--zeros", zeros, "--angles", "9"]) == 0
    capsys.readouterr()
    assert run(["frostman", "--zeros", zeros, "--angles", "10"]) == 2
    assert capsys.readouterr() == ("", "boundarylab frostman: 10 angles x 7 schedule entries "
                                       "exceed the 64 row cap of the frostman grid\n")


@pytest.mark.parametrize("subcommand,flag,value", [
    ("frostman", "--theta", "nan"), ("frostman", "--theta", "inf"),
    ("trace", "--angle", "nan"), ("trace", "--angle", "inf"),
    ("probe", "--angle", "nan"), ("probe", "--angle", "inf"),
])
def test_non_finite_angles_exit_2(deep_zeros, capsys, subcommand, flag, value):
    assert run([subcommand, "--zeros", deep_zeros, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"boundarylab {subcommand}: angle must be finite, got {value}\n"


_ATOMS_SERIES = {"terms": [{"weight": 0.5, "component": {"atoms": {"atoms": [[0.0, 1.0]]}}}]}


@pytest.mark.parametrize("at", [["nan", "0"], ["0.1", "nan"], ["inf", "0"]])
def test_series_at_a_point_off_the_disc_exits_2(tmp_path, capsys, at):
    spec = _write(tmp_path, "spec.json", _ATOMS_SERIES)
    assert run(["series", "--spec", spec, "--at", *at]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    modulus = "inf" if "inf" in at else "nan"
    assert err == ("boundarylab series: --at point must lie inside the unit disc, "
                   f"got |z| = {modulus}\n")


# Flag values drawn by the argv fuzz: non-finite, zero, negative, valid and
# too-large numbers; every count past a cap is refused before it allocates.
_REALS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "0.1", "0.5", "0.999", "1", "2", "4"]
_POSITIVE = ["nan", "inf", "0", "-1", "1e-300", "1e-9", "0.05", "1e3"]
_SETTINGS = {
    "--truncation-tolerance": _POSITIVE, "--verdict-tolerance": _POSITIVE,
    "--divergence-threshold": _POSITIVE,
    "--cauchy-tolerance": _POSITIVE, "--series-tolerance": _POSITIVE,
    "--radius-levels": ["-1", "0", "1", "8", "53", "54", "1000000"],
    "--window": ["-1", "0", "1", "32", "1000000"],
    "--growth-window": ["-1", "0", "1", "4", "1000000"],
}
_ANGLE_COUNTS = ["-1", "0", "1", "16", "100", str(MAX_ANGLES + 1)]
_RAY = ("--angle", "--radius-levels", "--truncation-tolerance")


def test_argv_fuzz_exits_0_1_or_2_with_a_diagnostic(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    zeros = _write(tmp_path, "zeros.json", _RADIAL)
    spec = _write(tmp_path, "spec.json", _ATOMS_SERIES)
    grid = _write(tmp_path, "grid.txt", punctured_disc_plane(12).format_text())
    values = {**_SETTINGS, "--angle": _REALS, "--theta": _REALS, "--r": _REALS, "--delta": _REALS,
              "--angles": _ANGLE_COUNTS, "--at": [f"{x} {y}" for x in _REALS for y in _REALS],
              "--subject": ["F", "E", "E+F", "none", "X", ""],
              "--independence": ["E F", "F none", "E X"]}
    commands = {
        "scan": (["--zeros", zeros], ("--r", "--angles", "--truncation-tolerance")),
        "trace": (["--zeros", zeros], _RAY),
        "probe": (["--zeros", zeros], (*_RAY, "--window", "--verdict-tolerance")),
        "frostman": (["--zeros", zeros], ("--theta", "--angles", "--divergence-threshold",
                                          "--growth-window", "--cauchy-tolerance")),
        "series": (["--spec", spec], ("--at", "--r", "--angles", "--series-tolerance")),
        "arakeljan": (["--grid", grid], ("--subject", "--independence", "--union")),
        "kernels": ([], ("--r", "--delta")),
    }

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(commands)))
        required, flags = commands[command]
        argv = [command, *required]
        for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
            if flag == "--union":
                argv.append(flag)
                continue
            argv += [flag, *draw(st.sampled_from(values[flag])).split(" ")]
        return argv

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(argv=argvs())
    def check(argv):
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2:
            assert f"boundarylab {argv[0]}: " in err, (argv, err)

    check()


def test_only_selftest_imports_the_acceptance_criteria():
    # other commands start without importing boundarylab.acceptance;
    # selftest imports it and passes, in a fresh interpreter
    import os
    import subprocess
    import sys

    import boundarylab

    src = os.path.dirname(os.path.dirname(os.path.abspath(boundarylab.__file__)))
    script = ("import sys\n"
              "import boundarylab.cli as cli\n"
              "assert 'boundarylab.acceptance' not in sys.modules\n"
              "sys.exit(cli.run(['selftest']))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("13/13 criteria passed")
