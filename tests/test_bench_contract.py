"""What the benchmark under perfbench/ reads of the package.

The benchmark times the functions that perfbench/spans.py names and patches
every module attribute bound to them.  Its own tests are not part of this
suite, so these checks make a deletion or rename that would break the tracer
fail here.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

import kernelcomp
import kernelcomp.cli  # noqa: F401  (imports every module the spans name)
from kernelcomp import ball, kernels, operators, series

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_in_its_owner():
    missing = []
    for module_name, path, _ in _spans_module().SPANS:
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


def test_witness_counter_reads_the_search_result():
    # the tracer counts a search whose result is not None as one witness:
    # at r = 1 the product-map kernel fails positivity, at r = 0.5 it cannot
    for r, found in ((1.0, 1), (0.5, 0)):
        tracer = _spans_module().Tracer()
        with tracer:
            kernels.find_negative_witness(
                kernels.KernelSpec("ball_map", 1.0, ball.br_map(r)), seed=0,
                radius=0.95, set_size=8, budget=50)
        counts = tracer.metrics()
        assert counts["kernels.find_negative_witness.calls"] == 1
        assert counts["kernels.witness_budget"] == 50
        assert counts["kernels.witness_found"] == found


def test_check_psd_builds_its_gram_through_the_traced_name():
    # check_psd calls the module's own gram, which the tracer wraps, so one
    # certificate counts one Gram; op_norm_lower's hook counts the trace
    pts = kernels.PointSet([0.1, 0.4j, -0.3])
    section = operators.comp_matrix(series.blaschke_factor(0.5),
                                    operators.SpaceSpec(1, 1.0), 16)
    tracer = _spans_module().Tracer()
    with tracer:
        kernels.check_psd(kernels.KernelSpec("bergman", 2.0), pts)
        bound = operators.op_norm_lower(section, trace_degrees=[4, 8, 16])
    counts = tracer.metrics()
    assert counts["kernels.check_psd.calls"] == 1
    assert counts["kernels.gram.calls"] == 1
    assert counts["operators.op_norm_lower.calls"] == 1
    assert counts["operators.op_norm_lower.prefixes"] == len(bound.trace) == 3


def test_section_counters_read_the_stored_rows():
    # the tracer counts a section by its entries array; a ball composition
    # stores only its reachable rows, a disk composition its rows up to the
    # last one its powers reach above the floor, and the counters see exactly
    # those
    blaschke = series.blaschke_factor(0.5)
    tracer = _spans_module().Tracer()
    with tracer:
        ball_sec = operators.comp_matrix(ball.br_map(0.5),
                                         operators.SpaceSpec(2, 1.0), 12)
        disk_sec = operators.comp_matrix(blaschke, operators.SpaceSpec(1, 1.0), 128)
    dense_rows = math.comb(ball_sec.row_degree + 2, 2)
    assert ball_sec.entries.shape == (len(ball_sec.rows), math.comb(12 + 2, 2))
    assert len(ball_sec.rows) < dense_rows
    assert disk_sec.entries.shape == (1148, 129) and disk_sec.row_degree + 1 == 5633
    sections = (ball_sec, disk_sec)
    counts = tracer.metrics()
    assert counts["operators.comp_matrix.calls"] == 2
    assert counts["operators.section_entries"] == sum(s.entries.size for s in sections)
    assert counts["operators.section_nonzeros"] == \
        sum(np.count_nonzero(s.entries) for s in sections)
    assert counts["operators.section_bytes_max"] == \
        max(s.entries.nbytes for s in sections)


def test_sections_read_norms_through_the_traced_name():
    # section code calls the module's own monomial_norms, which the tracer
    # wraps, so the span counts one call per section
    tracer = _spans_module().Tracer()
    with tracer:
        operators.comp_matrix(series.blaschke_factor(0.5),
                              operators.SpaceSpec(1, 1.0), 16)
        operators.mult_matrix(series.DiskPoly([0.5, 0.25]),
                              operators.SpaceSpec(1, 2.0), 16)
    assert tracer.metrics()["operators.monomial_norms.calls"] == 2
