"""The drift ledger flags every change that is not a number moving and
reports how far the numbers moved."""

import copy
import json
from pathlib import Path

import pytest

from golden_diff import diff_dirs, diff_values, main

REPORT = {
    "config": {"name": "psd", "seed": 5},
    "extras": {"certificate": {"min_eigenvalue": 0.25, "verdict": "PSD"}},
    "records": [
        {"measured": 1.5, "bound": 2.0, "pass": True},
        {"measured": -0.5, "bound": 0.0, "pass": True},
    ],
    "trace": {"columns": ["N", "lower"], "rows": [[4, 1.25], [8, 1.5]]},
}


def _changed(edit):
    new = copy.deepcopy(REPORT)
    edit(new)
    return new


def test_identical_reports_show_no_change():
    fields, events = diff_values(REPORT, copy.deepcopy(REPORT))
    assert events == []
    assert all(moved == 0 for *_, moved in fields.values())


def test_flipped_pass_is_flagged():
    new = _changed(lambda r: r["records"][1].update({"pass": False}))
    _, events = diff_values(REPORT, new)
    assert events == ["pass/fail: records[1].pass true -> false"]


def test_changed_verdict_is_flagged():
    new = _changed(lambda r: r["extras"]["certificate"].update({"verdict": "NEGATIVE"}))
    _, events = diff_values(REPORT, new)
    assert events == ['verdict: extras.certificate.verdict "PSD" -> "NEGATIVE"']


def test_added_key_and_entry_are_structure_changes():
    new = _changed(lambda r: r["records"][0].update({"margin": 0.5}))
    _, events = diff_values(REPORT, new)
    assert events == ["structure: records[0].margin added"]
    new = _changed(lambda r: r["trace"]["rows"].append([16, 1.75]))
    _, events = diff_values(REPORT, new)
    assert events == ["structure: trace.rows has 3 entries, was 2"]


def test_largest_relative_change_of_a_perturbed_float():
    # exact perturbations of 2**-44 and 2**-50
    def edit(r):
        r["trace"]["rows"][0][1] = 1.25 + 2.0 ** -44
        r["trace"]["rows"][1][1] = 1.5 - 2.0 ** -50

    fields, events = diff_values(REPORT, _changed(edit))
    assert events == []
    top, big, seen, moved = fields["trace.rows[*][*]"]
    assert (seen, moved) == (4, 2)
    assert top == 2.0 ** -44 / (1.25 + 2.0 ** -44)
    assert big == 2.0 ** -44
    assert fields["records[*].measured"][0] == 0.0


def test_directories_are_compared_report_by_report(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    moved = _changed(lambda r: r["records"][0].update({"measured": 1.5 + 2.0 ** -45}))
    for d, report in ((old, REPORT), (new, moved)):
        (d / "psd.json").write_text(json.dumps(report))
        (d / "psd.config.json").write_text(json.dumps(REPORT["config"]))
    (new / "br.json").write_text(json.dumps(REPORT))
    lines, flagged = diff_dirs(old, new)
    assert flagged == 1
    assert lines[0] == "br: structure: report only in the new set"
    # 2**-45 / 1.5 = 1.9e-14
    assert lines[1] == ("psd: records[*].measured: max rel 1.9e-14, max abs 2.8e-14 "
                        "(1 of 2 numbers changed)")
    assert lines[-1].endswith("largest relative change: 1.9e-14 (psd records[*].measured)")
    assert main([str(old), str(new)]) == 1
    (new / "br.json").unlink()
    assert main([str(old), str(new)]) == 0
    assert "changes: 0" in capsys.readouterr().out.splitlines()[-1]


def test_write_defaults_covers_every_pinned_report(tmp_path, monkeypatch):
    # one file per pinned digest; the experiments themselves are stubbed out
    import kernelcomp.cli

    monkeypatch.setattr(kernelcomp.cli, "run_experiment", lambda cfg: cfg)
    monkeypatch.setattr(kernelcomp.cli, "render_report",
                        lambda cfg, fmt: json.dumps([cfg.name, cfg.seed]))
    assert main(["--write-defaults", str(tmp_path)]) == 0
    pinned = json.loads((Path(__file__).parent / "golden" /
                         "default_digests.json").read_text())
    written = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
    assert len(pinned) == 54 and written.keys() == pinned.keys()
    assert written["psd@1"] == ["psd", 1]
    assert written["ball-lemma-dim6@2"] == ["ball-lemma", 2]


def test_write_defaults_takes_a_seed_range(tmp_path, monkeypatch):
    # every default and sampler-heavy config at each seed of the range
    import kernelcomp.cli
    from test_default_digests import SAMPLER_CONFIGS

    monkeypatch.setattr(kernelcomp.cli, "run_experiment", lambda cfg: cfg)
    monkeypatch.setattr(kernelcomp.cli, "render_report",
                        lambda cfg, fmt: json.dumps([cfg.name, cfg.seed]))
    assert main(["--write-defaults", str(tmp_path), "--seeds", "3-5"]) == 0
    written = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
    labels = sorted(kernelcomp.cli.COMMANDS) + list(SAMPLER_CONFIGS)
    assert written.keys() == {f"{k}@{s}" for k in labels for s in (3, 4, 5)}
    assert written["summation-cubic@4"] == ["summation", 4]
    out = str(tmp_path)
    for args in (["--write-defaults", out, "--seeds", "5-3"],
                 ["--write-defaults", out, "--seeds", "7"],
                 ["--seeds", "1-2", out, out]):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
