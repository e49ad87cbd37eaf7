"""Golden reports: each reduced config in tests/golden/ must reproduce its
committed JSON and CSV reports byte for byte through ``python -m kernelcomp``.

Reports depend on the BLAS thread count, so every run uses one thread.  To
regenerate the files after an intended change, see README.md ("Golden
reports") and say why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = sorted(GOLDEN.glob("*.config.json"))


def test_every_experiment_has_a_golden_config():
    from kernelcomp.cli import COMMANDS

    assert sorted(p.name[: -len(".config.json")] for p in CONFIGS) == sorted(COMMANDS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name.split(".")[0])
def test_report_matches_golden(config, fmt, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = tmp_path / f"report.{fmt}"
    proc = subprocess.run(
        [sys.executable, "-m", "kernelcomp", "run", "--config", str(config),
         "--format", fmt, "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    golden = config.with_name(config.name.replace(".config.json", f".{fmt}"))
    assert out.read_bytes() == golden.read_bytes()
