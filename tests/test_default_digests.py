"""Default-config reports at seeds 0-2 must keep the sha256 digests in
tests/golden/default_digests.json, and so must a few sampler-heavy configs.

The reduced goldens of test_golden.py run at one seed, and a change in how a
single value is rounded can show at other seeds only, so these full-size
reports are pinned at three.  The sampler-heavy configs draw hundreds of
points into one set, row points in dim 6, or sets in the dim-7 and dim-9
balls; two more run constant symbols through the one-row sections every
self-map gets.  The last two are the benchmark's ``summation`` and ``br``
configs, the two of its workload configs that no default config covers.  All runs share one subprocess with one BLAS thread.  To
regenerate the file after an intended change, see README.md ("Golden
reports") and say why in CHANGES.md.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "golden" / "default_digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 1, 2)
# label: (experiment, params, seeds)
SAMPLER_CONFIGS = {
    "psd-ball2-400": ("psd", {"point_count": 400, "spec": {
        "kind": "ball", "dim": 2, "alpha": 2.0}}, SEEDS),
    "psd-ball3-300": ("psd", {"point_count": 300, "spec": {
        "kind": "ball", "dim": 3, "alpha": 2.0}}, SEEDS),
    "psd-ball7-5": ("psd", {"point_count": 5, "spec": {
        "kind": "ball", "dim": 7, "alpha": 2.0}}, SEEDS),
    "psd-ball9-40": ("psd", {"point_count": 40, "spec": {
        "kind": "ball", "dim": 9, "alpha": 2.0}}, SEEDS),
    "ball-lemma-dim6": ("ball-lemma", {"maps": 3, "dim": 6, "section_degree": 1,
                                       "cert_points": 2, "row_points": 10}, SEEDS),
    "ball-lemma-maps30": ("ball-lemma", {"maps": 30}, (0,)),
    "hardy-bound-const": ("hardy-bound", {"check_sharp": False, "symbol": {
        "type": "taylor", "coeffs": [[0.5, 0]]}}, SEEDS),
    "ball-bound-const": ("ball-bound", {"coord_degree": 0}, SEEDS),
    "summation-cubic": ("summation", {"symbol": {"type": "taylor", "coeffs": [
        [0, 0], [0.5, 0], [0, 0], [0.4, 0]]}, "section_degree": 64}, (0,)),
    "br-four-r": ("br", {"r_values": [0.5, 0.75, 0.95, 1.0]}, (0,)),
}


def default_reports(seeds=SEEDS):
    """(name@seed, JSON report text) of each experiment at its default
    config, at every seed in ``seeds``."""
    from kernelcomp.cli import COMMANDS, ExperimentConfig, render_report, run_experiment

    for name in sorted(COMMANDS):
        for seed in seeds:
            cfg = ExperimentConfig.from_dict({"name": name, "seed": seed})
            yield f"{name}@{seed}", render_report(run_experiment(cfg), "json")


def sampler_reports(seeds=None):
    """(label@seed, JSON report text) of each of SAMPLER_CONFIGS, at its own
    seeds or at every seed in ``seeds``."""
    from kernelcomp.cli import ExperimentConfig, render_report, run_experiment

    for label, (name, params, own) in SAMPLER_CONFIGS.items():
        for seed in own if seeds is None else seeds:
            cfg = ExperimentConfig.from_dict(
                {"name": name, "params": params, "seed": seed})
            yield f"{label}@{seed}", render_report(run_experiment(cfg), "json")


def default_digests() -> dict:
    """sha256 of each JSON report of default_reports and sampler_reports,
    by name@seed or label@seed."""
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for key, text in itertools.chain(default_reports(), sampler_reports())}


def test_default_reports_match_committed_digests():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    json.dump(default_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
