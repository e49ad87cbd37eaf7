"""Default-config digests: the JSON report of every experiment at its default
config, at seeds 0, 1 and 2, must hash to the sha256 committed in
tests/golden/default_digests.json.

The reduced goldens of test_golden.py run at one seed, and a change in how a
single value is rounded can show at other seeds only, so these full-size
reports are pinned at three.  All thirty runs share one subprocess with one
BLAS thread.  To regenerate the file after an intended change, see README.md
("Golden reports") and say why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "golden" / "default_digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 1, 2)


def default_reports():
    """(name@seed, JSON report text) of each experiment at its default
    config, at every seed in SEEDS."""
    from kernelcomp.cli import COMMANDS, ExperimentConfig, render_report, run_experiment

    for name in sorted(COMMANDS):
        for seed in SEEDS:
            cfg = ExperimentConfig.from_dict({"name": name, "seed": seed})
            yield f"{name}@{seed}", render_report(run_experiment(cfg), "json")


def default_digests() -> dict:
    """sha256 of each experiment's default-config JSON report, by name@seed."""
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for key, text in default_reports()}


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
