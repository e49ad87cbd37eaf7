"""Command-line interface: configs, reports, determinism, exit codes."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcomp import cli, kernels, sampling
from kernelcomp.cli import (
    CLAIM_ANCHORS,
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    ballmap_from_json,
    kernel_spec_from_json,
    main,
    make_record,
    report_csv,
    run_experiment,
    stable_json,
    symbol_from_json,
)
from oracles import traced_peak


def _cfg(tmp_path, name, params=None, seed=0, tolerances=None, fname="c.json"):
    payload = {"name": name, "seed": seed}
    if params:
        payload["params"] = params
    if tolerances:
        payload["tolerances"] = tolerances
    path = tmp_path / fname
    path.write_text(json.dumps(payload))
    return path


def test_list_command_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_run_psd_report_shape(tmp_path, capsys):
    cfg = _cfg(tmp_path, "psd", params={"point_count": 10}, seed=5)
    out_path = tmp_path / "report.json"
    assert main(["run", "--config", str(cfg), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"config", "version", "records", "trace", "extras"}
    assert doc["config"]["name"] == "psd"
    assert doc["config"]["seed"] == 5
    assert "output_path" not in doc["config"]
    for rec in doc["records"]:
        assert set(rec) == {"description", "paper_anchor", "measured", "bound",
                            "tolerance", "pass"}
        assert rec["paper_anchor"] in CLAIM_ANCHORS
        assert rec["pass"] is True
    cert = doc["extras"]["certificate"]
    assert set(cert) == {"spec", "min_eigenvalue", "tolerance", "verdict",
                         "witness", "seed"}
    summary = capsys.readouterr().out
    assert "pass" in summary.lower()


def test_run_without_out_prints_payload(tmp_path, capsys):
    cfg = _cfg(tmp_path, "psd", params={"point_count": 8})
    code = main(["run", "--config", str(cfg), "--seed", "2"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["config"]["name"] == "psd"
    assert doc["config"]["seed"] == 2
    assert "pass" in captured.err.lower()


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 5}, seed=9)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_bytes(tmp_path):
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 5}, seed=9)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "10",
                 "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert json.loads(b.read_text())["config"]["seed"] == 10


def test_csv_format_hardy(tmp_path):
    cfg = _cfg(tmp_path, "hardy-bound",
               params={"section_degree": 16, "trace_degrees": [4, 8, 16],
                       "check_sharp": False})
    out_path = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--format", "csv",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "N,lower,upper"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_csv_format_br(tmp_path):
    cfg = _cfg(tmp_path, "br", params={"r_values": [0.5],
                                       "section_degree": 8})
    out_path = tmp_path / "br.csv"
    assert main(["run", "--config", str(cfg), "--format", "csv",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r,N,comp_lower,psd_verdict,min_eigenvalue"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_codes_for_config_errors(tmp_path, capsys):
    unknown = _cfg(tmp_path, "no-such-command", fname="u.json")
    assert main(["run", "--config", str(unknown)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = _cfg(tmp_path, "psd", params={"bogus_param": 1})
    assert main(["run", "--config", str(cfg)]) == 2
    cfg2 = _cfg(tmp_path, "psd", seed=-3, fname="c2.json")
    assert main(["run", "--config", str(cfg2)]) == 2
    capsys.readouterr()
    # config shapes and sampler arguments that raised a traceback, and
    # values the domain refuses
    for payload, message in (
            ({"name": "psd", "params": [1]}, "params must be a json object"),
            ({"name": "psd", "tolerances": 5},
             "tolerances must be a json object"),
            ({"name": ["psd"]}, "unknown experiment ['psd']"),
            ({"name": "ball-lemma", "params": {"dim": 0}},
             "dim must be at least 1"),
            ({"name": "ball-lemma", "params": {"dim": -1}},
             "ball-lemma parameter 'dim' must be nonnegative, got -1"),
            ({"name": "ball-bound", "params": {"dim": 0}},
             "dim must be at least 1"),
            ({"name": "ball-bound", "params": {"dim": -1}},
             "ball-bound parameter 'dim' must be nonnegative, got -1"),
            ({"name": "ball-lemma", "params": {"coord_degree": -1}},
             "ball-lemma parameter 'coord_degree' must be nonnegative, got -1"),
            ({"name": "ball-bound", "params": {"coord_degree": -1}},
             "ball-bound parameter 'coord_degree' must be nonnegative, got -1"),
            # a negative count or degree names its config key
            ({"name": "hardy-bound", "params": {"section_degree": -1}},
             "hardy-bound parameter 'section_degree' must be nonnegative, "
             "got -1"),
            ({"name": "theorem1", "params": {"section_degree": -1}},
             "theorem1 parameter 'section_degree' must be nonnegative, got -1"),
            ({"name": "inf-estimate", "params": {"family_size": -1}},
             "inf-estimate parameter 'family_size' must be at least 1, got -1"),
            ({"name": "bergman-bound", "params": {"alphas": [2, -1]}},
             "bergman-bound parameter 'alphas' must be at least 1, got -1"),
            # an alpha below 1 or a radius outside (0, 1) names its config key
            *[({"name": name, "params": {key: value}},
               f"{name} parameter '{key}' must be at least 1, got {got}")
              for name, key, value, got in (
                  ("bergman-bound", "alphas", [0], 0), ("br", "alpha", 0.5, 0.5),
                  ("ball-lemma", "alphas", [0], 0), ("ball-bound", "alphas", [0], 0))],
            *[({"name": name, "params": {key: value}}, f"{name} parameter "
               f"'{key}' must lie strictly between 0 and 1, got {value!r}")
              for name, key, value in (
                  ("ball-lemma", "cert_radius", 1.0), ("ball-lemma", "row_radius", 0),
                  ("theorem1", "node_radius", 1.0), ("psd", "radius", 1),
                  ("szego-identity", "point_radius", -0.5),
                  ("inf-estimate", "family_radius", 1.5))],
            # a unimodular constant is no self-map of the disk, in a
            # section and in a kernel alike
            ({"name": "hardy-bound", "params": {"symbol": {
                "type": "taylor", "coeffs": [[1, 0]]}}},
             "a disk self-map needs |b(0)| < 1"),
            ({"name": "psd", "params": {"spec": {"kind": "dbr", "b": {
                "type": "taylor", "coeffs": [[1, 0]]}}}},
             "a disk self-map needs |b(0)| < 1"),
            ({"name": "hardy-bound", "params": {"trace_degrees": []}},
             "trace degrees must not be empty"),
            # kernel values that overflow, in a Gram, before any eigen-solver
            # sees them
            ({"name": "psd", "params": {"spec": {"kind": "bergman",
                                                 "alpha": 1e308},
                                        "point_count": 5}},
             "bergman kernel values overflow on these points"),
            ({"name": "psd", "params": {"spec": {
                "kind": "dbr_power", "alpha": 100000, "b": {
                    "type": "monomial", "degree": 1, "scale": [0.5, 0]}}}},
             "dbr_power kernel values overflow on these points"),
            ({"name": "br", "params": {"alpha": 100000, "r_values": [0.95],
                                       "section_degree": 4}},
             "ball_map kernel values overflow on these points"),
            # sizes that leave nothing to reduce over
            ({"name": "summation", "params": {"test_degree": -1}},
             "summation parameter 'test_degree' must be nonnegative, got -1"),
            ({"name": "summation", "params": {"mode_count": 0}},
             "mode_count must be at least 1"),
            ({"name": "inf-estimate", "params": {"grid_size": 0}},
             "inf-estimate parameter 'grid_size' must be at least 1, got 0"),
            ({"name": "inf-estimate", "params": {"family_size": 0}},
             "inf-estimate parameter 'family_size' must be at least 1, got 0"),
            # br's verdicts follow from r and alpha: the search's keys are gone
            *[({"name": "br", key: {name: 1}}, f"unknown {what} '{name}' for br")
              for key, what, names in (
                  ("params", "parameter", ("witness_budget", "set_size", "radius",
                                           "negative_expect_min_r", "growth_threshold",
                                           "strict_increase_min")),
                  ("tolerances", "tolerance", ("witness_level", "saturation_tol")))
              for name in names],
            ({"name": "theorem1", "params": {"trials": 1, "node_max": 0}},
             "theorem1 parameter 'node_max' must be at least 1, got 0"),
            ({"name": "bergman-bound", "params": {"node_max": 0}},
             "bergman-bound parameter 'node_max' must be at least 1, got 0"),
            # a zero sample size or top degree names its config key
            ({"name": "psd", "params": {"point_count": 0}},
             "psd parameter 'point_count' must be at least 1, got 0"),
            ({"name": "szego-identity", "params": {"point_count": 0}},
             "szego-identity parameter 'point_count' must be at least 1, got 0"),
            ({"name": "ball-lemma", "params": {"cert_points": 0}},
             "ball-lemma parameter 'cert_points' must be at least 1, got 0"),
            ({"name": "ball-lemma", "params": {"maps": 1, "row_points": 0}},
             "ball-lemma parameter 'row_points' must be at least 1, got 0"),
            ({"name": "theorem1", "params": {"symbol_degree_max": 0}},
             "theorem1 parameter 'symbol_degree_max' must be at least 1, got 0"),
            ({"name": "bergman-bound", "params": {"symbol_degree_max": 0}},
             "bergman-bound parameter 'symbol_degree_max' must be at least 1, "
             "got 0"),
            # the inverse-kernel weight has no tail tolerance
            ({"name": "ball-lemma", "params": {"inv_tail_tol": 1e-10}},
             "unknown parameter 'inv_tail_tol' for ball-lemma"),
            # section degrees strictly increase: a repeated degree would
            # measure its residual against itself
            *[({"name": "szego-identity", "params": {"degrees": degrees}},
               "degrees must be at least two increasing values")
              for degrees in ([16], [64, 16], [16, 16], [8, 16, 16])]):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # a null params object is the defaults
    assert ExperimentConfig.from_dict(
        {"name": "psd", "params": None}).params == COMMANDS["psd"].defaults
    # a seed override passes the config's seed check
    cfg4 = _cfg(tmp_path, "psd", params={"point_count": 4}, fname="c4.json")
    assert main(["run", "--config", str(cfg4), "--seed", "-1"]) == 2
    assert "error: seed must be a nonnegative integer" in capsys.readouterr().err
    # refused before any section is built
    for params, message in (
            ({"trace_step": 0}, "br parameter 'trace_step' must be at least 1, got 0"),
            ({"trace_step": -1}, "br parameter 'trace_step' must be at least 1, got -1"),
            ({"section_degree": 0}, "br needs a section_degree of at least 1")):
        cfg3 = _cfg(tmp_path, "br", params=params, fname="c3.json")
        assert main(["run", "--config", str(cfg3)]) == 2
        assert message in capsys.readouterr().err


def test_hardy_bound_runs_a_one_column_section(tmp_path, capsys):
    # with no trace degrees given, degree 0 is traced: C_b 1 = 1 has norm 1
    out = tmp_path / "h.json"
    cfg = _cfg(tmp_path, "hardy-bound",
               params={"section_degree": 0, "check_sharp": False})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trace"]["rows"] == [
        [0, 1, math.sqrt(3.0)]]
    # one column cannot close the gap to the sharp bound
    cfg = _cfg(tmp_path, "hardy-bound", params={"section_degree": 0})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()


def test_constant_symbols_run_as_ordinary_symbols(tmp_path, capsys):
    # b = c has C_b f = f(c), of norm (1 - |c|^2)^(-1/2) < ((1 + c) / (1 - c))^(1/2)
    half = {"type": "taylor", "coeffs": [[0.5, 0]]}
    out = tmp_path / "h.json"
    cfg = _cfg(tmp_path, "hardy-bound",
               params={"symbol": half, "check_sharp": False})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["trace"]["rows"]
    assert abs(rows[-1][1] - 1.0 / math.sqrt(0.75)) <= 1e-12
    # a constant is not inner, so the sharpness record fails as it should
    cfg = _cfg(tmp_path, "hardy-bound", params={"symbol": half})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    assert [r["pass"] for r in records] == [True, False]
    for name, params in (("ball-bound", {"coord_degree": 0}),
                         ("inf-estimate", {"symbol": half}),
                         ("szego-identity", {"symbol": half}),
                         ("summation", {"symbol": half})):
        cfg = _cfg(tmp_path, name, params=params)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0, name
    capsys.readouterr()


def test_theorem1_runs_at_combo_degree_zero(tmp_path, capsys):
    # degree 0 keeps only f(0), so each weighted section is f(0) C_b
    out = tmp_path / "t.json"
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 3, "combo_degree": 0})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["trace"]["rows"]) == 3
    capsys.readouterr()


def test_run_with_no_checks_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 0})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "no checks" in capsys.readouterr().err
    # a check over no sampled values would pass with measured=-inf
    for name, params in (("bergman-bound", {"trials": 0}),
                         ("ball-lemma", {"maps": 0}),
                         ("ball-bound", {"maps": 0})):
        cfg = _cfg(tmp_path, name, params=params)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error: a check has no values" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(
            {"name": "br", "params": {"r_values": []}}))


def test_ball_lemma_at_large_alpha_runs_quickly(tmp_path, capsys):
    # the inverse-kernel weight is a finite sum through degree
    # 3 * section_degree, so its cost does not grow with alpha
    cfg = _cfg(tmp_path, "ball-lemma", params={
        "maps": 1, "alphas": [400], "section_degree": 2, "cert_points": 5})
    out = tmp_path / "r.json"
    start = time.perf_counter()
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert time.perf_counter() - start < 5.0
    assert code != 2
    assert len(json.loads(out.read_text())["trace"]["rows"]) == 1
    capsys.readouterr()


def test_exit_one_when_a_check_fails(tmp_path, capsys):
    # expecting a negativity witness from a kernel that is actually positive
    cfg = _cfg(tmp_path, "psd", params={"expect": "negative",
                                        "point_count": 8})
    assert main(["run", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_psd_refuses_an_unknown_expect_before_it_builds_a_gram(tmp_path, capsys,
                                                              monkeypatch):
    grams, real = [], kernels.gram
    monkeypatch.setattr(kernels, "gram",
                        lambda spec, pts: grams.append(len(pts)) or real(spec, pts))
    cfg = _cfg(tmp_path, "psd", params={"expect": "PSD", "point_count": 2000})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "error: expect must be one of psd, negative, any" in capsys.readouterr().err
    assert grams == []
    # the spy sees the one Gram a known expect builds
    cfg = _cfg(tmp_path, "psd", params={"expect": "psd", "point_count": 4})
    assert main(["run", "--config", str(cfg)]) == 0
    assert grams == [4]
    capsys.readouterr()


def test_config_rejects_unknown_tolerance(tmp_path):
    cfg = _cfg(tmp_path, "psd", tolerances={"unknown_knob": 1e-6})
    assert main(["run", "--config", str(cfg)]) == 2


def _from_params(name, **params):
    return ExperimentConfig.from_dict({"name": name, "params": params})


def test_config_rejects_bool_where_an_integer_is_expected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="'trials' must be an integer"):
        _from_params("theorem1", trials=True)
    with pytest.raises(ConfigError, match="'alphas' must be a list of integers"):
        _from_params("bergman-bound", alphas=[True])
    with pytest.raises(ConfigError, match="'check_sharp' must be true or false"):
        _from_params("hardy-bound", check_sharp=1)
    cfg = _cfg(tmp_path, "theorem1", params={"trials": True})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'trials' must be an integer" in capsys.readouterr().err


def test_config_rejects_float_where_an_integer_is_expected():
    with pytest.raises(ConfigError, match="'section_degree' must be an integer"):
        _from_params("theorem1", section_degree=16.9)
    with pytest.raises(ConfigError, match="'alphas' must be a list of integers"):
        _from_params("bergman-bound", alphas=[2.5])
    with pytest.raises(ConfigError, match="'r_values' must be a list of numbers"):
        _from_params("br", r_values=["0.5"])


def test_config_accepts_an_integer_where_a_float_is_expected():
    cfg = _from_params("br", alpha=2, r_values=[0, 0.5])
    assert cfg.params["alpha"] == 2 and isinstance(cfg.params["alpha"], float)
    assert cfg.params["r_values"] == [0, 0.5]
    tol = ExperimentConfig.from_dict(
        {"name": "theorem1", "tolerances": {"rel_slack": 1}})
    assert tol.tolerances["rel_slack"] == 1.0
    with pytest.raises(ConfigError, match="'rel_slack' must be a number"):
        ExperimentConfig.from_dict(
            {"name": "theorem1", "tolerances": {"rel_slack": True}})


def test_config_rejects_numbers_too_large_for_a_float(tmp_path, capsys):
    with pytest.raises(ConfigError, match="'rel_slack' must be a finite number"):
        ExperimentConfig.from_dict(
            {"name": "theorem1", "tolerances": {"rel_slack": 10**400}})
    with pytest.raises(ConfigError, match="'r_values' must be a finite number"):
        _from_params("br", r_values=[0.5, 10**400])
    cfg = _cfg(tmp_path, "theorem1", params={"boundary_max": 10**400})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'boundary_max' must be a finite number" in capsys.readouterr().err


def test_config_none_default_accepts_none_or_its_documented_type():
    assert _from_params("summation", mode_count=None).params["mode_count"] is None
    assert _from_params("summation", mode_count=3).params["mode_count"] == 3
    assert _from_params("summation", rank_tol=1e-9).params["rank_tol"] == 1e-9
    assert _from_params("hardy-bound", trace_degrees=[4, 16]) \
        .params["trace_degrees"] == [4, 16]
    with pytest.raises(ConfigError, match="'mode_count' must be an integer or null"):
        _from_params("summation", mode_count=2.5)
    with pytest.raises(ConfigError, match="'rank_tol' must be a number or null"):
        _from_params("summation", rank_tol="1e-9")
    with pytest.raises(ConfigError, match="'trace_degrees' must be a list of integers"):
        _from_params("hardy-bound", trace_degrees=[4.5])


def test_oversized_section_exits_two_before_allocating(tmp_path, capsys):
    cfg = _cfg(tmp_path, "hardy-bound", params={"section_degree": 100000})
    code, peak = traced_peak(lambda: main(["run", "--config", str(cfg)]))
    assert code == 2
    assert "byte limit" in capsys.readouterr().err
    assert peak < 2**24


def test_oversized_point_set_exits_two_before_allocating(tmp_path, capsys):
    for name, params, bound in (("psd", {"point_count": 100000}, 2**24),
                                ("szego-identity", {"point_count": 100000}, 2**24)):
        cfg = _cfg(tmp_path, name, params=params)
        code, peak = traced_peak(lambda: main(["run", "--config", str(cfg)]))
        assert code == 2
        assert "byte limit" in capsys.readouterr().err
        assert peak < bound


@pytest.mark.parametrize("spec", [
    {"kind": "dbr", "b": {"type": "monomial", "degree": 10**12}},
    {"kind": "dbr", "b": {"type": "blaschke", "a": [0.999999999, 0.0],
                          "tail_tol": 1e-300}},
    {"kind": "ball_map", "alpha": 1.0,
     "b": {"dim": 1, "coords": [{"dim": 1, "terms": [[[10**12], [0.5, 0.0]]]}]}},
])
def test_oversized_coefficient_array_exits_two_before_allocating(tmp_path, capsys,
                                                                 spec):
    cfg = _cfg(tmp_path, "psd", params={"spec": spec, "point_count": 4})
    code, peak = traced_peak(lambda: main(["run", "--config", str(cfg)]))
    err = capsys.readouterr().err
    if spec["kind"] == "ball_map":
        # a ball-map coordinate stays sparse in every dim, so nothing dense
        # is allocated for its degree and the run completes
        assert code == 0
    else:
        assert code == 2
        assert err.startswith("error: ") and "byte limit" in err
    assert peak < 2**24


def test_oversized_combo_degree_exits_two_before_allocating(tmp_path, capsys):
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 1, "combo_degree": 10**12})
    code, peak = traced_peak(lambda: main(["run", "--config", str(cfg)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "byte limit" in err
    assert peak < 2**24


def test_ball_lemma_above_the_weight_limit_exits_two_before_allocating(tmp_path,
                                                                      capsys):
    # at section_degree 64 in dim 2 the inverse-kernel weight's 33153x2145
    # section passes the byte limit (63 is the last degree within it); the
    # weight is checked before the coordinate sections are built
    cfg = _cfg(tmp_path, "ball-lemma", params={
        "maps": 1, "alphas": [1], "section_degree": 64, "cert_points": 2,
        "row_points": 1})
    code, peak = traced_peak(lambda: main(["run", "--config", str(cfg)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "33153x2145 section" in err \
        and "byte limit" in err
    assert peak < 2**24


def test_tiny_radius_draws_near_equal_points_and_passes(tmp_path, capsys):
    # 50 points within 1e-9 of 0, so near-equal: the Gram is all but the
    # all-ones matrix, PSD within its tolerance
    cfg = _cfg(tmp_path, "psd", params={"radius": 1e-9, "point_count": 50,
                                        "spec": {"kind": "bergman", "alpha": 3}})
    assert main(["run", "--config", str(cfg)]) == 0
    assert "[PASS]" in capsys.readouterr().err


def test_degenerate_combo_draw_exits_two_with_a_message(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(sampling, "hb_norm_combo", lambda combo: 0.0)
    cfg = _cfg(tmp_path, "theorem1", params={"trials": 1})
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        "error: degenerate combo draw; use another substream\n"


@pytest.mark.parametrize("exc", [
    ValueError("degenerate combo draw; use another substream"),
    cli.KernelPositivityError("defect is not positive"),
    np.linalg.LinAlgError("SVD did not converge"),
])
def test_numerical_failures_exit_two_with_a_message(tmp_path, capsys,
                                                    monkeypatch, exc):
    def fail(cfg):
        raise exc
    monkeypatch.setattr(cli, "run_experiment", fail)
    cfg = _cfg(tmp_path, "psd")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_an_oversized_inverse_kernel_section_exits_two_at_once(tmp_path, capsys):
    # refused before the weight's recurrence, which took over a minute and
    # hundreds of MB at this degree
    cfg = _cfg(tmp_path, "ball-lemma", params={
        "maps": 1, "alphas": [1], "cert_points": 2, "row_points": 1,
        "section_degree": 500})
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "error: a 1127251x125751 section would take" in capsys.readouterr().err


def test_an_oversized_circle_grid_exits_two_with_a_message(tmp_path, capsys):
    cfg = _cfg(tmp_path, "inf-estimate", params={"grid_size": 2**40,
                                                 "section_degree": 4})
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: a {2**40}-point circle grid would take {96 * 2**40} bytes, "
        f"above the {2**30}-byte limit\n")


_MAP_COORDS = [{"dim": 2, "terms": [[[1, 1], [0.5, 0.0]]]},
               {"dim": 2, "terms": []}]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "dbr", "b": {"type": "monomial", "degree": 2.7}},
     "monomial degree must be an integer, got 2.7"),
    ({"kind": "dbr", "b": {"type": "monomial", "degree": True}},
     "monomial degree must be an integer, got True"),
    ({"kind": "ball", "dim": 2.9, "alpha": 1.0},
     "ball dim must be an integer, got 2.9"),
    ({"kind": "ball", "dim": True, "alpha": 1.0},
     "ball dim must be an integer, got True"),
    ({"kind": "dbr_power", "alpha": 2.5,
      "b": {"type": "monomial", "degree": 1, "scale": [0.5, 0.0]}},
     "dbr_power alpha must be an integer, got 2.5"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2.0, "coords": _MAP_COORDS}},
     "ball map dim must be an integer, got 2.0"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2.0, "terms": []}, _MAP_COORDS[1]]}},
     "polynomial dim must be an integer, got 2.0"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[1.5, 1], [0.5, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "must hold 2 nonnegative integers, got [1.5, 1]"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[1, False], [0.5, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "must hold 2 nonnegative integers, got [1, False]"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[1, [0.5, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "must hold 2 nonnegative integers, got 1"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[2**63, 0], [0.5, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "exponents must be below 2**63"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[1, 1], [True, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "polynomial coefficient must be a finite number, got True"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[1, 1], ["2", 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "polynomial coefficient must be a finite number, got '2'"),
    ({"kind": "dbr", "b": {"type": "taylor", "coeffs": 5}},
     "taylor coefficients must be a list"),
    ({"kind": "bergman", "alpha": False},
     "bergman alpha must be a finite number, got False"),
    ({"kind": "ball", "dim": 2, "alpha": "2"},
     "ball alpha must be a finite number, got '2'"),
    ({"kind": "ball_map", "alpha": True, "b": {"dim": 2, "coords": _MAP_COORDS}},
     "ball_map alpha must be a finite number, got True"),
    ({"kind": "dbr", "b": {"type": "blaschke", "a": [0.5, 0.0], "tail_tol": True}},
     "blaschke tail_tol must be a finite number, got True"),
    ({"kind": "dbr", "b": {"type": "blaschke", "a": [0.5, 0.0], "tail_tol": "2"}},
     "blaschke tail_tol must be a finite number, got '2'"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 2, "coords": [{"dim": 2, "terms": [[[1, 1], [0.5, 0.0]],
                                                      [[1, 1], [0.3, 0.0]]]},
                                 _MAP_COORDS[1]]}},
     "multi-index [1, 1] appears more than once"),
    ({"kind": "ball_map", "alpha": 1.0,
      "b": {"dim": 1, "coords": [{"dim": 1, "terms": [[[1], [0.5, 0.0]],
                                                      [[1], [0.3, 0.0]]]}]}},
     "multi-index [1] appears more than once"),
], ids=[  # fixed: a message's wording can change without renaming its test
    "spec0-monomial degree must be an integer, got 2.7",
    "spec1-monomial degree must be an integer, got True",
    "spec2-ball dim must be an integer, got 2.9",
    "spec3-ball dim must be an integer, got True",
    "spec4-dbr_power alpha must be an integer, got 2.5",
    "spec5-ball map dim must be an integer, got 2.0",
    "spec6-polynomial dim must be an integer, got 2.0",
    "spec7-must hold 2 nonnegative integers, got [1.5, 1]",
    "spec8-must hold 2 nonnegative integers, got [1, False]",
    "spec9-must hold 2 nonnegative integers, got 1",
    "spec10-exponents must be below 2**63",
    "spec11-polynomial coefficient must be a finite number, got True",
    "spec12-polynomial coefficient must be a finite number, got '2'",
    "spec13-taylor coefficients must be a list",
    "spec14-bergman alpha must be a finite number, got False",
    "spec15-ball alpha must be a finite number, got '2'",
    "spec16-ball_map alpha must be a finite number, got True",
    "spec17-blaschke tail_tol must be a finite number, got True",
    "spec18-blaschke tail_tol must be a finite number, got '2'",
    "spec19-multi-index [1, 1] appears more than once",
    "spec20-multi-index [1] appears more than once",
])
def test_nested_spec_values_must_be_integers(tmp_path, capsys, spec, message):
    with pytest.raises(ConfigError) as err:
        kernel_spec_from_json(spec)
    assert message in str(err.value)
    cfg = _cfg(tmp_path, "psd", params={"spec": spec, "point_count": 4})
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


# every kind of nested spec the psd and hardy-bound configs take, each valid
_FUZZ_BASES = [
    ("psd", "spec", {"kind": "szego"}),
    ("psd", "spec", {"kind": "bergman", "alpha": 2.0}),
    ("psd", "spec", {"kind": "dbr", "b": {"type": "blaschke", "a": [0.5, 0.0],
                                          "tail_tol": 1e-13}}),
    ("psd", "spec", {"kind": "dbr_power", "alpha": 2,
                     "b": {"type": "taylor", "coeffs": [[0.0, 0.0], [0.5, 0.0]]}}),
    ("psd", "spec", {"kind": "ball", "dim": 2, "alpha": 1.0}),
    ("psd", "spec", {"kind": "ball_map", "alpha": 1.0,
                     "b": {"dim": 2, "coords": _MAP_COORDS}}),
    ("hardy-bound", "symbol", {"type": "monomial", "degree": 2,
                               "scale": [0.5, 0.0]}),
    ("hardy-bound", "symbol", {"type": "taylor",
                               "coeffs": [[0.1, 0.0], [0.5, 0.0]]}),
]
_FUZZ_SIZES = {"psd": {"point_count": 4},
               "hardy-bound": {"section_degree": 8, "check_sharp": False}}
# wrong types, bools, strings and huge integers
_ODD_VALUES = [True, False, None, "2", 2.5, -1, 2**63, 10**400, [], {}, [1, 2, 3]]


def _nodes(node, path=()):
    """Paths to every value of a json tree, the root first."""
    yield path
    children = ()
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def _mutated_configs(draw):
    # a mutation site is any value of the config: its name, seed, params,
    # tolerances and output_path, the size params, or a node of the spec
    name, key, base = draw(st.sampled_from(_FUZZ_BASES))
    root = {"name": name, "seed": 0,
            "params": dict(_FUZZ_SIZES[name], **{key: copy.deepcopy(base)}),
            "tolerances": dict(COMMANDS[name].tol_defaults),
            "output_path": None}
    for _ in range(draw(st.integers(1, 2))):
        *parent, last = draw(st.sampled_from(list(_nodes(root))[1:]))
        holder = root
        for k in parent:
            holder = holder[k]
        old = holder[last]
        change = draw(st.sampled_from(["odd", "shorter", "longer"]))
        if change == "shorter" and isinstance(old, (list, dict)) and old:
            new = old[:-1] if isinstance(old, list) else dict(list(old.items())[1:])
        elif change == "longer" and isinstance(old, list):
            new = old + (old[-1:] or [0])
        elif change == "longer" and isinstance(old, dict):
            new = dict(old, extra=0)
        else:
            new = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        holder[last] = new
    return root


@settings(max_examples=150, deadline=None)
@given(_mutated_configs())
def test_mutated_nested_specs_never_raise(tmp_path_factory, config):
    # exit 0 or 1 for a config that still runs, 2 with a message for one
    # that is refused; any exception escaping main fails the test.  --out
    # replaces any output_path the mutation leaves a string
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(base / "fuzz.out")])
    assert code in (0, 1, 2)


def test_inf_estimate_reciprocal_weight_blaschke_half():
    # at w = 0 the weight is 1 - b / 2 for the Blaschke factor b with a = 1/2:
    # its modulus is at least 1/2 on the circle, with equality at the grid
    # point z = 1, and its symbol-space norm is sqrt(1 - 1/4), so the
    # estimate is sqrt(3)
    cfg = ExperimentConfig.from_dict(
        {"name": "inf-estimate", "params": {"section_degree": 16, "family_size": 1}})
    rows = run_experiment(cfg).trace["rows"]
    assert len(rows) == 1
    w_re, w_im, weight_norm, inv_sup, estimate = rows[0]
    assert (w_re, w_im) == (0.0, 0.0)
    assert weight_norm == pytest.approx(math.sqrt(1 - 0.25), rel=1e-12)
    assert inv_sup == pytest.approx(2.0, rel=1e-12)
    assert estimate == pytest.approx(math.sqrt(3.0), rel=1e-6)


def test_stable_json_formatting():
    doc = {"b": 1.0, "a": [True, 2, 0.1], "c": float("nan"),
           "d": float("inf")}
    text = stable_json(doc)
    assert text.index('"a"') < text.index('"b"')
    assert '"NaN"' in text and '"Infinity"' in text
    assert stable_json(doc) == text


def test_make_record_validates_anchor():
    rec = make_record("demo", "kernel-positivity", 0.5, 1.0, 1e-9)
    # the report dict itself, keys in the CSV column order
    assert rec == {"description": "demo", "paper_anchor": "kernel-positivity",
                   "measured": 0.5, "bound": 1.0, "tolerance": 1e-9,
                   "pass": True}
    header = "description,paper_anchor,measured,bound,tolerance,pass"
    assert ",".join(rec) == header
    with pytest.raises(ValueError):
        make_record("demo", "not-an-anchor", 0.5, 1.0, 1e-9)
    boundary = make_record("demo", "kernel-positivity", 1.0 + 5e-10, 1.0, 1e-9)
    assert boundary["pass"]
    failing = make_record("demo", "kernel-positivity", 1.1, 1.0, 1e-9)
    assert not failing["pass"]


def test_symbol_parsers():
    b = symbol_from_json({"type": "blaschke", "a": [0.5, 0.0]})
    assert b.degree() == 44
    m = symbol_from_json({"type": "monomial", "degree": 2})
    assert np.array_equal(m.series.coeffs, np.array([0, 0, 1], dtype=complex))
    t = symbol_from_json({"type": "taylor",
                          "coeffs": [[0.0, 0.0], [0.5, 0.0]]})
    assert t.series(0.5) == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        symbol_from_json({"type": "rational"})
    with pytest.raises(ConfigError):
        symbol_from_json({"type": "blaschke"})
    with pytest.raises(ConfigError):
        symbol_from_json({"type": "blaschke", "a": 0.5})

    bm = ballmap_from_json({"dim": 2, "coords": [
        {"dim": 2, "terms": [[[1, 1], [0.5, 0.0]]]},
        {"dim": 2, "terms": []},
    ]})
    assert bm.dim == 2
    with pytest.raises(ConfigError):
        ballmap_from_json({"dim": 2})


def test_every_command_runs_green_at_reduced_size(tmp_path):
    quick = {
        "hardy-bound": {"section_degree": 16, "trace_degrees": [4, 16],
                        "check_sharp": False},
        "theorem1": {"trials": 3, "section_degree": 16, "combo_degree": 40},
        "szego-identity": {"degrees": [8, 16], "point_count": 10},
        "summation": {"section_degree": 16, "test_degree": 4},
        "bergman-bound": {"alphas": [2], "trials": 2, "section_degree": 16,
                          "combo_degree": 40},
        "inf-estimate": {"section_degree": 32, "family_size": 2},
        "ball-lemma": {"maps": 2, "alphas": [1], "section_degree": 4,
                       "cert_points": 10},
        "ball-bound": {"maps": 2, "alphas": [1], "section_degree": 4},
        "br": {"r_values": [0.0, 0.5], "section_degree": 8},
        "psd": {"point_count": 6},
    }
    for name, params in quick.items():
        cfg = ExperimentConfig.from_dict({"name": name, "seed": 1,
                                          "params": params})
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec["pass"], f"{name}: {rec['description']}"


def test_report_csv_falls_back_to_records():
    cfg = ExperimentConfig.from_dict({"name": "psd", "seed": 0})
    report = run_experiment(cfg)
    text = report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("description,")
    assert len(lines) == len(report.records) + 1


def test_installed_entry_point():
    proc = subprocess.run(["kernelcomp", "list"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "hardy-bound" in proc.stdout


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "kernelcomp", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "hardy-bound" in proc.stdout


def _thread_env(**threads):
    """The environment without either BLAS thread variable, plus ``threads``,
    with the checkout's src on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    return dict(env, **threads)


def test_reports_keep_their_digests_with_the_thread_count_unset(tmp_path):
    # the three default reports whose bytes follow the BLAS thread count, run
    # with neither variable set: the package sets one thread before numpy is
    # imported.  This only bites on 2 or more cores, where OpenBLAS would
    # otherwise start more threads.
    pinned = json.loads((Path(__file__).resolve().parent / "golden"
                         / "default_digests.json").read_text())
    for name in ("hardy-bound", "inf-estimate", "ball-lemma"):
        cfg = _cfg(tmp_path, name, fname=f"{name}.json")
        out = tmp_path / f"{name}.out.json"
        proc = subprocess.run([sys.executable, "-m", "kernelcomp", "run", "--config",
                               str(cfg), "--out", str(out)], capture_output=True,
                              text=True, env=_thread_env())
        assert proc.returncode in (0, 1), proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned[f"{name}@0"]


def test_an_explicit_thread_count_is_left_as_set():
    code = ("import os, kernelcomp; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "os.environ['OMP_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_thread_env(OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1"]


def test_ball_bound_maps_are_the_ones_ball_lemma_certifies(monkeypatch):
    # ball-bound's closed-form bound holds for a ball map only once its
    # kernel is positive, which ball-lemma certifies for the same draws
    seed = 3
    certified, bounded = {}, {}
    check_psd, comp_matrix = cli.check_psd, cli.comp_matrix

    def key(b):
        return tuple((c.exps.tobytes(), c.coefs.tobytes()) for c in b.coords)

    def spy_check(spec, pts):
        cert = check_psd(spec, pts)
        assert cert.verdict == "PSD"
        certified.setdefault(spec.alpha, []).append(key(spec.b))
        return cert

    def spy_comp(b, space, n):
        bounded.setdefault(space.alpha, []).append(key(b))
        return comp_matrix(b, space, n)

    monkeypatch.setattr(cli, "check_psd", spy_check)
    monkeypatch.setattr(cli, "comp_matrix", spy_comp)
    lemma = run_experiment(ExperimentConfig.from_dict({"name": "ball-lemma", "seed": seed}))
    assert lemma.all_pass() and not bounded
    bound = run_experiment(ExperimentConfig.from_dict({"name": "ball-bound", "seed": seed}))
    assert bound.all_pass()
    params = COMMANDS["ball-bound"].defaults
    assert sorted(bounded) == sorted(float(a) for a in params["alphas"])
    assert bounded == certified
    assert all(len(maps) == params["maps"] for maps in bounded.values())
