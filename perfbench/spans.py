"""Per-layer spans timed from outside the program.

The tracer wraps public functions of the kernelcomp modules and records, for
each span name, its call count and its self time: the span's duration minus
the time its child spans took.  The package imports across modules with
``from .x import f``, so a function is reachable through several module
attributes (``kernels.sample_point_set`` is also ``ball.sample_point_set``);
the tracer replaces every attribute bound to the function and puts the
originals back when it is removed.

Counts read from arguments and return values (section sizes, witness trials)
are taken after a span has ended.  That bookkeeping, and any time the caller
excludes (the speed probes), is charged to no span, so module self times add
up to the traced pass minus the tracer's own cost.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  A span name's first component is the
# layer it rolls up into.
SPANS = (
    ("series", "BallPoly.__mul__", "series.BallPoly.mul"),
    ("series", "BallPoly.__add__", "series.BallPoly.add"),
    ("series", "SelfMapDisk.__init__", "series.admission"),
    ("series", "BallMap.__init__", "series.admission"),
    ("operators", "monomial_norms", "operators.monomial_norms"),
    ("operators", "comp_matrix", "operators.comp_matrix"),
    ("operators", "mult_matrix", "operators.mult_matrix"),
    ("operators", "weighted_comp_matrix", "operators.weighted_comp_matrix"),
    ("operators", "op_norm_lower", "operators.op_norm_lower"),
    ("kernels", "sample_point_set", "kernels.sample_point_set"),
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "check_psd", "kernels.check_psd"),
    ("kernels", "find_negative_witness", "kernels.find_negative_witness"),
    ("dbr", "summation_partial", "dbr.summation_partial"),
    ("dbr", "onb_defect", "dbr.onb_defect"),
    ("dbr", "szego_residual", "dbr.szego_residual"),
    ("dbr", "combo_to_poly", "dbr.combo_to_poly"),
    ("ball", "row_mult_norm", "ball.row_mult_norm"),
    ("ball", "inv_kernel_mult_norm", "ball.inv_kernel_mult_norm"),
    ("ball", "br_experiment", "ball.br_experiment"),
    ("sampling", "random_disk_symbol", "sampling.random_disk_symbol"),
    ("sampling", "random_kernel_combo", "sampling.random_kernel_combo"),
    ("sampling", "random_ball_row_contraction",
     "sampling.random_ball_row_contraction"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "render_report", "cli.render_report"),
)

LAYERS = ("series", "operators", "kernels", "dbr", "ball", "sampling", "cli")

COUNTERS = (
    "operators.op_norm_lower.prefixes",
    "operators.section_entries",
    "operators.section_nonzeros",
    "operators.section_bytes_max",
    "kernels.points_drawn",
    "kernels.witness_trials",
    "kernels.witness_budget",
    "kernels.witness_found",
    "dbr.modes",
    "cli.report_bytes",
)


class Tracer:
    """Span totals for one traced pass; install with ``with tracer:``."""

    def __init__(self):
        self.calls = {name: 0 for _, _, name in SPANS}
        self.self_s = {name: 0.0 for _, _, name in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        # one [span name, seconds in child spans] pair per open span
        self._stack = []
        # seconds charged to no span: bookkeeping and exclusions
        self._paused = 0.0
        self._patched = []
        self._hooks = {
            "operators.comp_matrix": self._on_section,
            "operators.mult_matrix": self._on_section,
            "operators.weighted_comp_matrix": self._on_section,
            "operators.op_norm_lower": self._on_norm_bound,
            "kernels.sample_point_set": self._on_point_set,
            "kernels.find_negative_witness": self._on_search,
            "dbr.onb_defect": self._on_onb,
            "cli.render_report": self._on_render,
        }

    # -- counts taken from arguments and results ---------------------------

    def _on_section(self, args, kwargs, section):
        entries = section.entries
        self.counts["operators.section_entries"] += entries.size
        self.counts["operators.section_nonzeros"] += int(np.count_nonzero(entries))
        self.counts["operators.section_bytes_max"] = max(
            self.counts["operators.section_bytes_max"], entries.nbytes)

    def _on_norm_bound(self, args, kwargs, bound):
        self.counts["operators.op_norm_lower.prefixes"] += len(bound.trace)

    def _on_point_set(self, args, kwargs, points):
        self.counts["kernels.points_drawn"] += len(points)
        if any(name == "kernels.find_negative_witness" for name, _ in self._stack):
            self.counts["kernels.witness_trials"] += 1

    def _on_search(self, args, kwargs, found):
        self.counts["kernels.witness_budget"] += int(kwargs["budget"])
        self.counts["kernels.witness_found"] += found is not None

    def _on_onb(self, args, kwargs, onb):
        self.counts["dbr.modes"] += len(onb.basis)

    def _on_render(self, args, kwargs, text):
        self.counts["cli.report_bytes"] += len(text.encode("utf-8"))

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` that just passed to no span."""
        self._paused += seconds

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            p0, t0 = self._paused, perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1, p1 = perf_counter(), self._paused
                stack.pop()
                net = (t1 - t0) - (p1 - p0)
                self.calls[name] += 1
                self.self_s[name] += net - frame[1]
                if stack:
                    stack[-1][1] += net
            if hook is not None:
                hook(args, kwargs, out)
                # bookkeeping, less any exclusions made during it
                self._paused += (perf_counter() - t1) - (self._paused - p1)
            return out

        return span

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kernelcomp" or n.startswith("kernelcomp.")]
        for module_name, path, name in SPANS:
            owner = sys.modules["kernelcomp." + module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            # every attribute bound to the function: re-exports, imports by
            # other modules, and class aliases such as __rmul__ = __mul__
            holders = modules if not cls_path else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
        return False

    def metrics(self) -> dict:
        """Per-span, per-layer and counter values, keyed by metric name."""
        out = {}
        for name in self.calls:
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".calls"] = self.calls[name]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        out.update(self.counts)
        entries = self.counts["operators.section_entries"]
        out["operators.section_fill"] = (
            self.counts["operators.section_nonzeros"] / entries if entries else 0.0)
        return out
