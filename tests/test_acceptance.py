"""Acceptance gate: the nine headline checks at their contract tolerances.

Each criterion is one test function, so the verbose run shows one pass/fail
line per criterion; each also prints its own summary line.
"""

import json
import math

import numpy as np

from kernelcomp.ball import br_experiment
from kernelcomp.cli import ExperimentConfig, main, run_experiment
from kernelcomp.dbr import (
    combo_to_poly,
    hb_norm_combo,
    onb_defect,
    summation_partial,
    szego_residual,
)
from kernelcomp.kernels import NEGATIVE, sample_point_set
from kernelcomp.operators import SpaceSpec, comp_matrix, op_norm_lower
from kernelcomp.sampling import random_disk_symbol
from kernelcomp.series import DiskPoly, SelfMapDisk, blaschke_factor
from oracles import hb_norm_defect, unnormalized_kernel_combo

H2 = SpaceSpec(1, 1.0)
SQRT3 = math.sqrt(3.0)


def _line(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_inner_symbol_sharpness():
    b = blaschke_factor(0.5, tail_tol=1e-13)
    sec = comp_matrix(b, H2, 256)
    bound = op_norm_lower(sec, trace_degrees=[4, 8, 16, 32, 64, 128, 192, 256])
    values = [v for _, v in bound.trace]
    never_exceeds = all(v <= SQRT3 + 1e-9 for v in values)
    gap_closes = SQRT3 - values[-1] <= 1e-2
    ok = _line(1, "inner-symbol composition bound is sharp",
               never_exceeds and gap_closes)
    assert ok, (values[-1], SQRT3 - values[-1])


def test_criterion_2_weighted_composition_contraction():
    cfg = ExperimentConfig.from_dict(
        {"name": "theorem1", "seed": 7, "params": {"trials": 100}})
    report = run_experiment(cfg)
    assert len(report.records) == 100
    ok = _line(2, "weighted composition sections stay under the combo norm",
               all(r["pass"] for r in report.records))
    assert ok, [r["description"] for r in report.records if not r["pass"]]


def test_criterion_3_szego_identity_residual():
    pts = sample_point_set(np.random.default_rng(13), 1, 0.5, 50)
    square = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    r64 = szego_residual(onb_defect(square, 64, rank_tol=None), pts)
    small = r64 <= 1e-6

    symbols = [square,
               SelfMapDisk(DiskPoly([0.0, 0.5])),
               SelfMapDisk(DiskPoly([0.0, 0.9])),
               SelfMapDisk(DiskPoly([0.0, 0.5, 0.5])),
               blaschke_factor(0.3)]
    monotone = True
    for b in symbols:
        lo = szego_residual(onb_defect(b, 16, rank_tol=None), pts)
        hi = szego_residual(onb_defect(b, 64, rank_tol=None), pts)
        monotone = monotone and hi <= lo
    ok = _line(3, "orthonormal modes reproduce the kernel identity",
               small and monotone)
    assert ok, (r64, small, monotone)


def test_criterion_4_partial_sums_resolve_identity():
    partials, defects = summation_partial(
        SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])), 64, mode_count=None,
        test_degree=8, rank_tol=None)
    increments_ok = True
    for prev, cur in zip(partials, partials[1:]):
        lam = np.linalg.eigvalsh(cur - prev)
        increments_ok = increments_ok and lam[0] >= -1e-10
    bounded_ok = all(np.linalg.eigvalsh(p)[-1] <= 1.0 + 1e-8
                     for p in partials)
    defect_ok = defects[-1] <= 1e-5
    ok = _line(4, "mode-wise partial sums increase to the identity",
               increments_ok and bounded_ok and defect_ok)
    assert ok, (increments_ok, bounded_ok, defects[-1])


def test_criterion_5_bergman_bounds():
    cfg = ExperimentConfig.from_dict(
        {"name": "bergman-bound", "seed": 3,
         "params": {"alphas": [2, 3], "trials": 20}})
    report = run_experiment(cfg)
    assert len(report.records) == 2 * 2
    ok = _line(5, "weighted-space composition and weighted sections bounded",
               all(r["pass"] for r in report.records))
    assert ok, [r["description"] for r in report.records if not r["pass"]]


def test_criterion_6_ball_row_contractions():
    cfg = ExperimentConfig.from_dict(
        {"name": "ball-lemma", "seed": 3,
         "params": {"maps": 10, "alphas": [1, 2]}})
    report = run_experiment(cfg)
    ok = _line(6, "row contractions give contractive multipliers and weights",
               all(r["pass"] for r in report.records))
    assert ok, [r["description"] for r in report.records if not r["pass"]]


def test_criterion_7_product_map_regimes():
    _, verdict, neg, _ = br_experiment(
        0.95, alpha=1.0, section_degree=8, trace_degrees=range(0, 9, 4))
    witness_ok = (verdict == "negative" and neg.verdict == NEGATIVE
                  and neg.min_eigenvalue < -neg.tolerance)

    grow, *_ = br_experiment(
        1.0, alpha=1.0, section_degree=60, trace_degrees=range(0, 61, 4))
    trace = [v for _, v in grow.trace]
    growth_ok = (all(b > a for a, b in zip(trace, trace[1:]))
                 and trace[-1] > 3.353367)

    flat, *_ = br_experiment(
        0.5, alpha=1.0, section_degree=60, trace_degrees=range(0, 61, 4))
    fvals = [v for _, v in flat.trace]
    saturation_ok = abs(fvals[-1] - fvals[-2]) <= 1e-3

    ok = _line(7, "product map: negativity, unbounded growth, saturation",
               witness_ok and growth_ok and saturation_ok)
    assert ok, (witness_ok, growth_ok, saturation_ok, trace[-1])


def test_criterion_8_cross_method_norms():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        b = random_disk_symbol(rng, max_degree=4, boundary_max=0.95)
        combo = unnormalized_kernel_combo(rng, b, alpha=1, max_nodes=5,
                                          node_radius=0.6)
        direct = hb_norm_combo(combo)
        sec, _ = hb_norm_defect(combo_to_poly(combo, 64), b, 64)
        worst = max(worst, abs(direct - sec))
    ok = _line(8, "combination and defect-section norms agree", worst <= 1e-5)
    assert ok, worst


def test_criterion_9_reports_are_deterministic(tmp_path):
    quick = {
        "hardy-bound": {"section_degree": 16, "trace_degrees": [4, 16],
                        "check_sharp": False},
        "theorem1": {"trials": 3, "section_degree": 16, "combo_degree": 40},
        "szego-identity": {"degrees": [8, 16], "point_count": 10},
        "summation": {"section_degree": 16, "test_degree": 4},
        "bergman-bound": {"alphas": [2], "trials": 2, "section_degree": 16,
                          "combo_degree": 40},
        "inf-estimate": {"section_degree": 32, "family_size": 2},
        "ball-lemma": {"maps": 2, "alphas": [1], "section_degree": 4,
                       "cert_points": 10},
        "ball-bound": {"maps": 2, "alphas": [1], "section_degree": 4},
        "br": {"r_values": [0.0, 0.5], "section_degree": 8},
        "psd": {"point_count": 6},
    }
    stable = True
    for idx, (name, params) in enumerate(quick.items()):
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps({"name": name, "seed": 5,
                                        "params": params}))
        for fmt in ("json", "csv"):
            a = tmp_path / f"{idx}-a.{fmt}"
            b = tmp_path / f"{idx}-b.{fmt}"
            assert main(["run", "--config", str(cfg_path), "--format", fmt,
                         "--out", str(a)]) == 0
            assert main(["run", "--config", str(cfg_path), "--format", fmt,
                         "--out", str(b)]) == 0
            stable = stable and a.read_bytes() == b.read_bytes()
    ok = _line(9, "identical config and seed give byte-identical reports",
               stable)
    assert ok
