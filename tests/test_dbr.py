"""Symbol-space norms, defect sections, and mode-resolution checks."""

import math

import numpy as np
import pytest

import kernelcomp.dbr
from kernelcomp.dbr import (
    KernelCombo,
    KernelPositivityError,
    combo_to_poly,
    defect_matrix,
    hb_norm_combo,
    onb_defect,
    summation_partial,
    szego_residual,
)
from kernelcomp.kernels import NEGATIVE, KernelSpec, PositivityCertificate, PointSet, \
    sample_point_set
from kernelcomp.sampling import random_disk_symbol, random_kernel_combo
from kernelcomp.series import DiskPoly, SelfMapDisk, blaschke_factor, sup_norm_circle
from oracles import (
    eval_kernel,
    hb_norm_defect,
    kernel_section_poly,
    traced_peak,
    unnormalized_kernel_combo,
)


def _symbols():
    return [
        SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])),
        SelfMapDisk(DiskPoly([0.0, 0.5])),
        SelfMapDisk(DiskPoly([0.0, 0.9])),
        blaschke_factor(0.3),
    ]


def test_single_node_combo_norm_is_diagonal_kernel_value():
    b = SelfMapDisk(DiskPoly([0.1, 0.6]))
    for alpha in (1, 2):
        for w in (0.0, 0.35 - 0.2j):
            combo = KernelCombo(b, alpha, PointSet([w]), [1.0])
            got = hb_norm_combo(combo)
            spec = KernelSpec("dbr", b=b) if alpha == 1 else \
                KernelSpec("dbr_power", alpha, b)
            expect = math.sqrt(eval_kernel(spec, w, w).real)
            assert got == pytest.approx(expect, rel=1e-13)


def test_combo_norm_two_nodes_closed_form():
    # |c1 k(., w1) + c2 k(., w2)| ** 2 expands through the Gram matrix
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    w = [0.25, -0.3j]
    c = [1.0, 2.0 - 1.0j]
    combo = KernelCombo(b, 1, PointSet(w), c)
    spec = KernelSpec("dbr", b=b)
    acc = 0.0
    for i in range(2):
        for j in range(2):
            acc += (c[i] * np.conj(c[j]) * eval_kernel(spec, w[j], w[i])).real
    assert hb_norm_combo(combo) == pytest.approx(math.sqrt(acc), rel=1e-12)


def test_combo_norm_takes_its_verdict_from_check_psd(monkeypatch):
    # a NEGATIVE certificate from check_psd is the only way to the error
    combo = KernelCombo(SelfMapDisk(DiskPoly([0.1, 0.6])), 1, PointSet([0.2]), [1.0])

    def negative(spec, point_set):
        return PositivityCertificate(spec=spec, min_eigenvalue=-1.0,
                                     tolerance=0.0, verdict=NEGATIVE)

    monkeypatch.setattr(kernelcomp.dbr, "check_psd", negative)
    with pytest.raises(KernelPositivityError, match="min eigenvalue -1"):
        hb_norm_combo(combo)


def test_combo_norm_builds_its_node_gram_once(monkeypatch):
    # check_psd's Gram is the one cᴴGc is taken on: one kernel matrix per
    # norm, and the value of a second, separately built Gram bit for bit
    import kernelcomp.kernels as kernels

    calls, build = [], kernels._kernel_matrix
    monkeypatch.setattr(kernels, "_kernel_matrix",
                        lambda spec, pts: calls.append(len(pts)) or build(spec, pts))
    rng = np.random.default_rng(7)
    for alpha in (1, 2, 3):
        b = random_disk_symbol(rng, 4, 0.9)
        nodes = PointSet(0.8 * rng.random(5) * np.exp(2j * np.pi * rng.random(5)))
        combo = KernelCombo(b, alpha, nodes, rng.standard_normal(5) + 1j)
        got = hb_norm_combo(combo)
        assert calls == [len(combo.nodes)]
        g = build(combo.spec(), combo.nodes.points)
        q = float(np.real(np.vdot(combo.coeffs, g @ combo.coeffs)))
        assert np.float64(got).tobytes() == np.float64(math.sqrt(max(q, 0.0))).tobytes()
        calls.clear()


def test_combo_rejects_bad_shapes():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        KernelCombo(b, 1, PointSet([0.1, 0.2]), [1.0])
    with pytest.raises(ValueError):
        KernelCombo(b, 0, PointSet([0.1]), [1.0])
    with pytest.raises(TypeError):
        KernelCombo(DiskPoly([0.5]), 1, PointSet([0.1]), [1.0])


def test_kernel_section_poly_matches_pointwise_kernel():
    b = blaschke_factor(0.3)
    for alpha in (1, 2):
        w = 0.3 + 0.25j
        p = kernel_section_poly(b, alpha, w, 120)
        spec = KernelSpec("dbr", b=b) if alpha == 1 else \
            KernelSpec("dbr_power", alpha, b)
        for z in (0.0, 0.4, -0.45j, 0.3 + 0.3j):
            assert abs(p(z) - eval_kernel(spec, z, w)) <= 1e-11


def test_combo_to_poly_is_linear_combination_of_sections():
    b = SelfMapDisk(DiskPoly([0.0, 0.5, 0.25]))
    combo = KernelCombo(b, 2, PointSet([0.2, -0.3]), [1.0, -2.0])
    p = combo_to_poly(combo, 60)
    q1 = kernel_section_poly(b, 2, 0.2, 60)
    q2 = kernel_section_poly(b, 2, -0.3, 60)
    expect = q1.coeffs - 2.0 * q2.coeffs
    assert np.max(np.abs(p.coeffs - expect)) <= 1e-13


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_combo_to_poly_matches_per_node_oracle(alpha):
    # the linear route against the per-node expansion at degrees 0, 1, one
    # below alpha * deg b (where the powers of b get truncated) and 72, on a
    # cubic and on a long Blaschke symbol, with one to five nodes.  The error
    # is measured against sum_k |c_k| |section_k|, the scale rounding acts
    # on: where the sections cancel, both routes lose the same digits.
    rng = np.random.default_rng(40 + alpha)
    cubic = SelfMapDisk(DiskPoly([0.1, 0.4, 0.2, 0.15]))
    for b in (cubic, blaschke_factor(0.3)):
        for degree in (0, 1, alpha * b.degree() - 1, 72):
            for count in range(1, 6):
                nodes = sample_point_set(rng, 1, 0.6, count)
                coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
                got = combo_to_poly(KernelCombo(b, alpha, nodes, coeffs), degree)
                sections = [kernel_section_poly(b, alpha, w, degree).coeffs
                            for w in nodes.points[:, 0]]
                expect = sum(c * s for c, s in zip(coeffs, sections))
                scale = sum(abs(c) * np.linalg.norm(s) for c, s in zip(coeffs, sections))
                assert got.coeffs.shape == (degree + 1,)
                assert np.linalg.norm(got.coeffs - expect) <= 1e-14 * scale


def test_defect_matrix_for_monomial_square():
    # b = z^2: multiplication is an isometric shift by two, so the defect is
    # the projection onto span{1, z}
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    d = defect_matrix(b, 8)
    expect = np.zeros((9, 9))
    expect[0, 0] = 1.0
    expect[1, 1] = 1.0
    assert np.max(np.abs(d - expect)) <= 1e-15


def test_defect_matrix_scaled_identity_symbol():
    # b = s z: the section of multiplication is s times the shift, so the
    # defect is I - s^2 (shift shift-transpose), assembled here by hand
    s = 0.5
    b = SelfMapDisk(DiskPoly([0.0, s]))
    d = defect_matrix(b, 6)
    scol = np.zeros((7, 7))
    for j in range(6):
        scol[j + 1, j] = s
    expect = np.eye(7) - scol @ scol.T
    assert np.max(np.abs(d - expect)) <= 1e-15


def test_combo_vs_defect_norms_agree():
    rng = np.random.default_rng(31)
    for b in _symbols():
        for _ in range(5):
            combo = unnormalized_kernel_combo(rng, b, alpha=1, max_nodes=4,
                                              node_radius=0.6)
            direct = hb_norm_combo(combo)
            f = combo_to_poly(combo, 64)
            sec, residual = hb_norm_defect(f, b, 64)
            # f lies (numerically) in the space
            assert residual <= 1e-6
            assert abs(direct - sec) <= 1e-10 * max(1.0, direct)


def test_defect_norm_flags_function_outside_range():
    # z^3 = z * b for b = z^2 lies in b H2, hence outside the symbol space
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    _, residual = hb_norm_defect(DiskPoly.monomial(3), b, 16)
    assert residual > 1e-6
    assert residual > 0.5


def test_defect_norm_validates_inputs():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        hb_norm_defect(DiskPoly.monomial(9), b, 8)


def test_combo_norm_power_kernel_stays_positive():
    # entrywise powers of a positive disk-symbol kernel stay positive, so the
    # norm routine must not raise on them
    b = blaschke_factor(0.4)
    combo = KernelCombo(b, 3, PointSet([0.1, 0.2, 0.3j]), [1.0, 1.0, 1.0])
    assert hb_norm_combo(combo) >= 0.0


def test_onb_defect_monomial_square():
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    onb = onb_defect(b, 12, rank_tol=None)
    assert np.max(np.abs(onb.eigenvalues - np.array([1.0, 1.0]))) <= 1e-12
    # the two basis functions span {1, z}
    vals = np.array([[p(0.0) for p in onb.basis], [p(0.5) for p in onb.basis]])
    assert np.linalg.matrix_rank(vals, tol=1e-8) == 2


def test_szego_residual_small_and_monotone():
    rng = np.random.default_rng(32)
    raw = rng.uniform(0.1, 0.5, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
    pts = PointSet(raw)
    for b in _symbols():
        r16 = szego_residual(onb_defect(b, 16, rank_tol=None), pts)
        r64 = szego_residual(onb_defect(b, 64, rank_tol=None), pts)
        assert r64 <= r16 + 1e-12
    exact = szego_residual(onb_defect(_symbols()[0], 64, rank_tol=None), pts)
    assert exact <= 1e-12


def test_szego_residual_rejects_large_points():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        szego_residual(onb_defect(b, 16, rank_tol=None), PointSet([0.8]))


def test_szego_residual_stays_within_the_bytes_it_checks(monkeypatch):
    checked = []
    real = kernelcomp.dbr._check_bytes
    monkeypatch.setattr(kernelcomp.dbr, "_check_bytes",
                        lambda nbytes, what: checked.append(nbytes) or real(nbytes, what))
    onb = onb_defect(_symbols()[0], 16, rank_tol=None)
    szego_residual(onb, PointSet([0.1, 0.2]))  # its first call imports lazily
    for count in (200, 1000):
        pts = sample_point_set(np.random.default_rng(count), 1, 0.7, count)
        _, peak = traced_peak(lambda: szego_residual(onb, pts))
        assert checked[-1] / 2 < peak <= checked[-1]
    assert len(checked) == 3


def test_summation_partial_monomial_square_exact():
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    partials, defects = summation_partial(b, 16, mode_count=None, test_degree=6,
                                          rank_tol=None)
    assert len(defects) == 2
    assert defects[0] == pytest.approx(1.0, abs=1e-12)
    assert defects[1] <= 1e-12
    for part in partials:
        lam = np.linalg.eigvalsh(part)
        assert lam[-1] <= 1.0 + 1e-10
        assert lam[0] >= -1e-10


def test_summation_partial_scaled_identity():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    partials, defects = summation_partial(b, 64, mode_count=None, test_degree=8,
                                          rank_tol=None)
    assert len(defects) == 65
    assert defects[-1] <= 1e-10
    diffs = np.diff(defects)
    assert np.max(diffs) <= 1e-10
    for part in (partials[0], partials[-1]):
        lam = np.linalg.eigvalsh(part)
        assert lam[-1] <= 1.0 + 1e-8


def test_summation_partial_validates_test_degree():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        summation_partial(b, 16, mode_count=None, test_degree=17, rank_tol=None)


def test_random_disk_symbol_is_admissible():
    rng = np.random.default_rng(33)
    for _ in range(10):
        b = random_disk_symbol(rng, max_degree=5, boundary_max=0.95)
        assert sup_norm_circle(b.series, 1024) <= 0.95 + 1e-9
        assert b.degree() > 0


def test_random_kernel_combo_normalization():
    rng = np.random.default_rng(34)
    b = SelfMapDisk(DiskPoly([0.0, 0.9]))
    combo = random_kernel_combo(rng, b, alpha=1, max_nodes=5, node_radius=0.5)
    assert hb_norm_combo(combo) == pytest.approx(1.0, rel=1e-10)
    assert len(combo.nodes) <= 5


def test_unnormalized_combo_oracle_draws_what_random_kernel_combo_draws():
    # the cross-method norm tests take their combos from the oracle; scaled
    # to unit norm, each is random_kernel_combo's combo bit for bit, and both
    # leave their generator in the same state
    for b in _symbols()[1:]:
        for alpha in (1, 2):
            for seed in range(4):
                rng_raw = np.random.default_rng(seed)
                rng = np.random.default_rng(seed)
                raw = unnormalized_kernel_combo(rng_raw, b, alpha, 5, 0.6)
                combo = random_kernel_combo(rng, b, alpha, 5, 0.6)
                assert raw.nodes.points.tobytes() == combo.nodes.points.tobytes()
                scaled = raw.coeffs / hb_norm_combo(raw)
                assert scaled.tobytes() == combo.coeffs.tobytes()
                assert rng_raw.random() == rng.random()
