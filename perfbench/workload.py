"""One workload in one process: a warm pass, then timed and traced passes.

Started by run.py in a fresh interpreter with the BLAS thread count pinned and
``src`` on the path.  It calls only public entry points
(``ExperimentConfig.from_dict``, ``run_experiment``, ``render_report``) and
prints one JSON object on its last line of standard output.

A pass runs every config of the workload once and renders each report to
JSON.  An experiment run fails if it raises, if any of its records fails, or
if its report bytes differ from those of the first pass in this process.

Pass times are reported in reference seconds: measured seconds scaled by the
host speed sampled during the pass (see speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import kernelcomp.cli as cli
from spans import LAYERS, Tracer
from speed import PROBE_NOMINAL_S, SpeedMeter, probe_median
from workloads import (REFERENCE_DIGESTS, REFERENCE_SEED, TIMED_EXPERIMENTS,
                       config_dicts)


def run_pass(configs, first_reports, tracer=None):
    """One pass over the configs.  Returns the pass time and the time of each
    experiment in reference seconds, the report text of each config (None
    when it raised), the number of failed runs, and the reference seconds
    per measured second."""
    exp_s = {}
    reports = []
    failed = 0
    meter = SpeedMeter(None if tracer is None else tracer.exclude)
    with meter, (tracer or contextlib.nullcontext()):
        start = perf_counter()
        for i, cfg in enumerate(configs):
            t0, p0 = perf_counter(), meter.probed_s
            try:
                report = cli.run_experiment(cfg)
                text = cli.render_report(report, "json")
            except Exception:
                traceback.print_exc(file=sys.stderr)
                report, text = None, None
            exp_s[cfg.name] = perf_counter() - t0 - (meter.probed_s - p0)
            ok = (text is not None and bool(report.records) and report.all_pass()
                  and (first_reports is None or text == first_reports[i]))
            if not ok:
                print(f"failed: {cfg.name} at seed {cfg.seed}", file=sys.stderr)
                failed += 1
            reports.append(text)
        wall = perf_counter() - start - meter.probed_s
    scale = meter.scale()
    return (wall * scale, {k: v * scale for k, v in exp_s.items()}, reports,
            failed, scale)


# What `kernelcomp run` does before its runner starts: import the CLI and
# resolve the configs.
SETUP_PROBE = ("import json, sys\n"
               "from kernelcomp.cli import ExperimentConfig\n"
               "[ExperimentConfig.from_dict(d) for d in json.loads(sys.argv[1])]\n")
SETUP_REPEATS = 9


def setup_seconds(config_list) -> float:
    """Median reference seconds of fresh interpreters running SETUP_PROBE,
    after one untimed start that fills the bytecode caches.  Each start is
    scaled by speed probes taken just before and after it."""
    cmd = [sys.executable, "-c", SETUP_PROBE, json.dumps(config_list)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = probe_median()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        took = perf_counter() - t0
        if i:
            times.append(took * PROBE_NOMINAL_S
                         / ((before + probe_median()) / 2))
    return statistics.median(times)


def median_index(values) -> int:
    """Index of the lower median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # one CPU for the passes, their speed probes and the set-up interpreters
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    dicts = config_dicts(args.workload, args.seed)
    setup = None if args.trace else setup_seconds(dicts)
    configs = [cli.ExperimentConfig.from_dict(d) for d in dicts]
    attempted = len(configs)
    _, _, first, failed, _ = run_pass(configs, None)   # warm, untimed

    walls, scales, exp_runs, traced = [], [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < args.seconds:
        wall, exp_s, _, bad, scale = run_pass(configs, first)
        walls.append(wall)
        scales.append(scale)
        exp_runs.append(exp_s)
        attempted += len(configs)
        failed += bad
        if args.trace:
            tracer = Tracer()
            wall, _, _, bad, scale = run_pass(configs, first, tracer)
            traced.append((wall, {k: v * scale if k.endswith("self_s") else v
                                  for k, v in tracer.metrics().items()}))
            attempted += len(configs)
            failed += bad

    digests = {c.name: None if t is None else hashlib.sha256(t.encode()).hexdigest()
               for c, t in zip(configs, first)}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"attempted": attempted, "failed": failed, "passes": len(walls),
              "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}",
              "raw_wall_s": statistics.median(w / k for w, k in zip(walls, scales)),
              "speed": statistics.median(scales), "digests": digests}
    if not args.trace:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
    else:
        traced_walls = [w for w, _ in traced]
        wall, metrics = traced[median_index(traced_walls)]
        layer_sum = sum(metrics[layer + ".self_s"] for layer in LAYERS)
        # drift from the reference reports, checked at the reference seed only
        ref = REFERENCE_DIGESTS.get(args.workload, {})
        metrics["cli.digest_changed"] = 0 if args.seed != REFERENCE_SEED else sum(
            d != ref.get(name) for name, d in digests.items())
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        metrics["trace.coverage"] = layer_sum / wall
        for name in TIMED_EXPERIMENTS:
            metrics["exp_s." + name] = statistics.median(
                [run.get(name, 0.0) for run in exp_runs])
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # this process must run the checkout's own sources
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"kernelcomp imported from {cli.__file__}, not from {src}")
    sys.exit(main())
