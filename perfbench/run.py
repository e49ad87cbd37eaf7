"""kernelcomp benchmark: command-line entry point.

    python3 perfbench/run.py --workload disk-sections --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from any directory; the checkout is the parent of this file's directory.
For one workload it runs perfbench/workload.py in a fresh interpreter and
prints three lines: ``env`` with what the numbers depend on besides the code,
``run`` with the passes, raw pass time, speed factor and report digests, and
last one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload untraced and
traced, one after the other, and prints every metric with its unit.

Every process it starts gets one BLAS thread (report bytes depend on the
thread count) and the checkout's ``src`` as its only added import path.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# A run must end within 180 s.
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    """What the numbers depend on, besides the code; numpy and BLAS versions
    come from the workload process."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "pinned": PINNED,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": model or platform.machine()}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # its own process group, so a timeout also stops the set-up interpreters
    proc = subprocess.Popen(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """The result object and the run's other facts (passes, speed, digests)."""
    child = run_workload(workload, seed, seconds, trace, monotonic() + DEADLINE_S)
    values = child["metrics"]
    wanted = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    result = {"correct": child["failed"] == 0,
              "attempted": child["attempted"],
              "failed": child["failed"],
              "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                          for name in wanted}}
    info = {k: v for k, v in child.items()
            if k not in ("attempted", "failed", "metrics")}
    return result, info


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kernelcomp" / "cli.py").is_file():
        print(f"error: no kernelcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = json.dumps({"seed": args.seed, **environment()}, sort_keys=True)
    if args.workload != "all":
        result, info = measure(args.workload, args.seed, args.seconds, args.trace)
        print("env " + env)
        print("run " + json.dumps(info))
        print(json.dumps(result))
        return 0

    print("env " + env)
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, info = measure(workload, args.seed, args.seconds, trace)
            print_table(f"{workload} (trace {trace})", result)
            print("  run " + json.dumps(info))
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
