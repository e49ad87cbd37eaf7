"""The kind table: every kernel kind's json spec parses, builds its Gram and
keeps its psd report bytes, and a spec that breaks its kind's rules is
refused, directly and through the command line, before any Gram is built."""

import hashlib
import json
import re

import numpy as np
import pytest

from kernelcomp import kernels
from kernelcomp.cli import (
    ExperimentConfig,
    kernel_spec_from_json,
    main,
    render_report,
    run_experiment,
)
from kernelcomp.kernels import _KINDS, KernelSpec, gram, sample_point_set
from kernelcomp.series import BallMap, BallPoly, DiskPoly, SelfMapDisk

_MAP_JSON = {"dim": 2, "coords": [{"dim": 2, "terms": [[[1, 1], [0.8, 0.0]]]},
                                  {"dim": 2, "terms": [[[1, 0], [0.3, 0.1]]]}]}
_DISK_JSON = {"type": "blaschke", "a": [0.3, 0.2]}

# kind: (a valid spec, the sha256 of its psd report at 12 points of radius
# 0.9 and seed 0, pinned from the reports of the six constructors that came
# before the one table)
_KIND_REPORTS = {
    "szego": ({"kind": "szego"},
              "02629f5ab3120f5de6a5abaee79d25f70ec2d8a95909d10d69d4fc2f46a990d5"),
    "bergman": ({"kind": "bergman", "alpha": 2.5},
                "020d5b0a1838d6eec68bed75e119d469f149eec88017ebca899bebe2d6cd50e5"),
    "dbr": ({"kind": "dbr", "b": _DISK_JSON},
            "5634c17800183aca511dfdb990e803014958bb504b996a3b536cf1fd08d66cbe"),
    "dbr_power": ({"kind": "dbr_power", "alpha": 3, "b": {
        "type": "taylor", "coeffs": [[0.1, 0.0], [0.5, 0.0], [0.3, 0.0]]}},
        "477698de89bfc69a8c765f2aac6eda3e3186217b694f403db24089f7fc9fc451"),
    "ball": ({"kind": "ball", "dim": 3, "alpha": 1.5},
             "03e0a009b944d52920fc1ceb79950098925d227bcac4416f855eea207db888b3"),
    "ball_map": ({"kind": "ball_map", "alpha": 2.0, "b": _MAP_JSON},
                 "82c6ec780c710bae4d594f3d42b3b4a38c7a4f46de66289346bc663942e2b2e9"),
}


def test_the_pinned_specs_cover_every_kind():
    assert sorted(_KIND_REPORTS) == sorted(_KINDS)


@pytest.mark.parametrize("kind", sorted(_KIND_REPORTS))
def test_each_kind_parses_builds_its_gram_and_keeps_its_report(kind):
    spec_json, digest = _KIND_REPORTS[kind]
    spec = kernel_spec_from_json(spec_json)
    assert spec.kind == kind and set(spec_json) - {"kind"} == set(_KINDS[kind])
    assert spec.to_json_dict()["dim"] == spec.dim == {"ball": 3, "ball_map": 2}.get(kind, 1)
    g = gram(spec, sample_point_set(np.random.default_rng(0), spec.dim, 0.9, 6))
    assert g.shape == (6, 6) and np.array_equal(g, g.conj().T)
    cfg = ExperimentConfig.from_dict({"name": "psd", "params": {
        "spec": spec_json, "point_count": 12, "radius": 0.9}})
    report = render_report(run_experiment(cfg), "json")
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


_DISK = SelfMapDisk(DiskPoly([0.1, 0.5]))
_MAP = BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})])


@pytest.mark.parametrize("args, kwargs, message", [
    (("dbr", 2.0), {"b": _DISK}, "dbr fixes alpha = 1"),
    (("szego",), {"b": _DISK}, "szego takes no symbol"),
    (("ball", 2.0), {"b": _MAP, "dim": 2}, "ball takes no symbol"),
    (("dbr",), {"b": _MAP}, "dbr takes a SelfMapDisk"),
    (("ball_map", 1.0), {"b": _DISK}, "ball_map takes a BallMap"),
    (("ball_map", 1.0), {"b": _MAP, "dim": 3}, "ball_map has dim 2, not 3"),
    (("bergman", 2.0), {"dim": 2}, "bergman has dim 1, not 2"),
    (("ball", 2.0), {"dim": 0}, "ball dim must be at least 1, got 0"),
    (("ball", 2.0), {"dim": 2.0}, "ball dim must be at least 1, got 2.0"),
    (("ball", 2.0), {}, "ball dim must be at least 1, got None"),
    (("dbr_power", 2.5), {"b": _DISK}, "dbr_power is restricted to integer alpha"),
    (("bergman", 0.5), {}, "alpha must be at least 1"),
    ((["dbr"],), {}, "unknown kernel kind ['dbr']"),
])
def test_a_spec_that_breaks_its_kind_is_refused(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        KernelSpec(*args, **kwargs)


def test_a_spec_keeps_alpha_as_a_float_and_the_dim_of_its_kind():
    assert KernelSpec("ball_map", 2, _MAP).alpha == 2.0
    assert type(KernelSpec("ball_map", 2, _MAP).alpha) is float
    assert KernelSpec("ball_map", 1.0, _MAP).dim == 2
    assert KernelSpec("dbr_power", 1, _DISK, dim=1).dim == 1
    assert KernelSpec("ball", 2.0, dim=np.int64(4)).to_json_dict()["dim"] == 4


@pytest.mark.parametrize("spec, message", [
    ({"kind": "ball", "dim": 0, "alpha": 2.0}, "ball dim must be at least 1, got 0"),
    ({"kind": "ball", "dim": -2, "alpha": 2.0}, "ball dim must be at least 1, got -2"),
    ({"kind": "dbr", "alpha": 2.0, "b": _DISK_JSON},
     "dbr spec has unknown keys ['alpha']"),
    ({"kind": "szego", "b": _DISK_JSON}, "szego spec has unknown keys ['b']"),
    ({"kind": "ball", "dim": 2, "alpha": 1.0, "b": _MAP_JSON},
     "ball spec has unknown keys ['b']"),
    ({"kind": "ball_map", "dim": 3, "alpha": 1.0, "b": _MAP_JSON},
     "ball_map spec has unknown keys ['dim']"),
    ({"kind": "dbr_power", "b": _DISK_JSON}, "dbr_power spec is missing keys ['alpha']"),
    ({"kind": "dbr", "b": _MAP_JSON}, "symbol must be an object with a 'type' key"),
    ({"kind": ["dbr"]}, "unknown kernel kind ['dbr']"),
])
def test_a_refused_spec_exits_two_before_any_gram(tmp_path, capsys, monkeypatch,
                                                  spec, message):
    built = []
    monkeypatch.setattr(kernels, "_kernel_matrix", lambda *args: built.append(args))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "psd", "params": {"spec": spec}}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not built
