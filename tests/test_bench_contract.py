"""What the benchmark under perfbench/ reads of the package.

The benchmark times the functions that perfbench/spans.py names and patches
every module attribute bound to them.  Its own tests are not part of this
suite, so these checks make a deletion or rename that would break the tracer
fail here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import kernelcomp
import kernelcomp.cli  # noqa: F401  (imports every module the spans name)
from kernelcomp import ball, kernels, series

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_resolves_in_its_owner():
    missing = []
    for module_name, path, _ in _spans():
        owner = importlib.import_module("kernelcomp." + module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = vars(owner).get(part)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing


def test_package_root_and_rebound_names():
    assert kernelcomp.BallPoly is series.BallPoly
    # the probe in br_experiment draws through ball's own binding
    assert vars(ball)["sample_point_set"] is kernels.sample_point_set
    budget = inspect.signature(kernels.find_negative_witness).parameters["budget"]
    assert budget.kind is inspect.Parameter.KEYWORD_ONLY
