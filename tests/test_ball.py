"""Row multiplier checks, inverse-kernel weights, and the product-map study."""

import math

import numpy as np
import pytest

from kernelcomp import ball, cli, kernels
from kernelcomp.cli import ExperimentConfig, run_experiment
from kernelcomp.ball import (
    br_experiment,
    br_map,
    br_norms,
    br_rise_limit,
    br_witness,
    coord_mult_sections,
    inv_kernel_mult_norm,
    row_mult_norm,
)
from kernelcomp.kernels import NEGATIVE, PSD, DomainError, KernelSpec, PointSet, \
    check_psd, sample_point_set, substream
from kernelcomp.operators import (
    SectionMatrix,
    SpaceSpec,
    comp_matrix,
    grlex_monomials,
    mult_matrix,
    op_norm_lower,
)
from kernelcomp.sampling import random_ball_row_contraction
from kernelcomp.series import BALL_MAP_GRID, BallMap, BallPoly, _sphere_samples
from oracles import exact_br_coefficient, exact_inv_kernel_weight, svd_row_mult_norm, \
    traced_peak

rising = lambda a, k: math.gamma(a + k) / math.gamma(a)


def test_row_mult_norm_identity_coordinate():
    # dim-1 map b(z) = z: the row operator at w is conj(w) times the shift,
    # whose section norm is exactly |w|
    b = BallMap([BallPoly(1, {(1,): 1.0})])
    ws = np.array([[0.6], [0.3j], [-0.2 + 0.1j]])
    lower, bound = row_mult_norm(b, PointSet(ws), coord_mult_sections(b, 1.0, 12))
    assert lower.shape == bound.shape == (3,)
    assert bound == pytest.approx(np.abs(ws[:, 0]), abs=1e-15)
    assert np.all(np.abs(bound - lower) <= 1e-12)


def test_row_mult_norm_two_coordinates():
    half = BallPoly(2, {(1, 0): 0.5})
    other = BallPoly(2, {(0, 1): 0.5})
    b = BallMap([half, other])
    ws = np.array([[0.4, 0.2], [0.0, 0.0], [-0.1j, 0.5]])
    lower, bound = row_mult_norm(b, PointSet(ws), coord_mult_sections(b, 2.0, 8))
    assert bound == pytest.approx(0.5 * np.linalg.norm(ws, axis=1), rel=1e-13)
    assert lower[1] == bound[1] == 0.0
    assert np.all(bound - lower >= -1e-10)


def test_row_mult_norm_rejects_outside_point():
    # row points come as a PointSet, which refuses a point off the ball
    b = BallMap([BallPoly(1, {(1,): 0.5})])
    with pytest.raises(DomainError, match="need < 1"):
        row_mult_norm(b, PointSet([[1.2]]), coord_mult_sections(b, 1.0, 8))


@pytest.mark.parametrize("bad", [[1.0, 0.0], [0.0, -1.0j], [0.9, 0.9],
                                 [np.nan, 0.0], [0.0, complex(0.0, np.nan)],
                                 [np.inf, 0.1], [0.1, -np.inf]],
                         ids=["on-real", "on-imag", "outside", "nan",
                              "nan-imag", "inf", "minus-inf"])
def test_row_mult_norm_rejects_a_batch_with_one_point_off_the_ball(bad):
    b = BallMap([BallPoly(2, {(1, 0): 0.5}), BallPoly(2, {(0, 1): 0.5})])
    ws = np.array([[0.1, 0.2], bad, [0.3, -0.1]])
    with pytest.raises(DomainError, match="need < 1"):
        row_mult_norm(b, PointSet(ws), coord_mult_sections(b, 1.0, 4))


def test_row_mult_norm_rejects_points_of_the_wrong_shape():
    b = BallMap([BallPoly(2, {(1, 0): 0.5}), BallPoly(2, {(0, 1): 0.5})])
    sections = coord_mult_sections(b, 1.0, 4)
    for ws in ([0.1, 0.2], [[0.1, 0.2, 0.0]]):
        with pytest.raises(DomainError, match="dimension does not match the map"):
            row_mult_norm(b, PointSet(ws), sections)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_row_mult_norm_matches_the_svd_of_each_row_section(dim, alpha):
    rng = np.random.default_rng(100 + dim)
    b = random_ball_row_contraction(rng, dim=dim, coord_degree=2, row_target=0.9)
    sections = coord_mult_sections(b, alpha, 6)
    ws = sample_point_set(rng, dim, 0.8, 12)
    lower, bound = row_mult_norm(b, ws, sections)
    expect = svd_row_mult_norm(b, ws.points, sections)
    assert np.max(np.abs(lower - expect) / expect) <= 1e-13
    assert bound == pytest.approx([np.linalg.norm(b(w)) for w in ws.points], rel=1e-15)
    assert np.all(bound - lower >= -1e-10)


@pytest.mark.parametrize("count", [40, 400])
def test_row_mult_norm_stays_within_the_bytes_it_checks(monkeypatch, count):
    # 400 points at 45 columns pass one _ROW_STACK_BYTES block, so the
    # Grams are eigen-solved in several blocks; the check counts one of them
    rng = np.random.default_rng(count)
    b = random_ball_row_contraction(rng, dim=2, coord_degree=2, row_target=0.9)
    sections = coord_mult_sections(b, 2.0, 8)
    ws = sample_point_set(rng, 2, 0.8, count)
    checked, real = [], ball._check_bytes

    def spy(nbytes, what):
        checked.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(ball, "_check_bytes", spy)
    b(ws.points)  # fills the map's caches off the count
    (lower, _), peak = traced_peak(lambda: row_mult_norm(b, ws, sections))
    assert len(checked) == 1 and len(lower) == count
    assert checked[0] / 2 < peak <= checked[0]


def test_inv_kernel_weight_trivial_when_centered():
    # b(0) = 0 makes the weight identically one
    b = BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})])
    lower, upper = inv_kernel_mult_norm(b, 2.0, 6)
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_inv_kernel_weight_brackets_closed_form():
    # dim-1 symbol with b(0) = 1/2: closed form (1 - 1/2)^(-alpha)
    b = BallMap([BallPoly(1, {(0,): 0.5, (1,): 0.4})])
    for alpha in (1.0, 2.0):
        lower, upper = inv_kernel_mult_norm(b, alpha, 24)
        assert upper == pytest.approx(2.0**alpha, rel=1e-10)
        assert lower <= upper + 1e-9
        # the constant coefficient of the weight alone gives a lower bound
        assert lower >= (1.0 - 0.25) ** (-alpha) - 1e-9
        # on the Hardy and Bergman spaces of the disk the multiplier norm is
        # the sup of |W| = |1 - 0.5 b(z)|^(-alpha) on the circle, at z = 1
        sup = 0.55 ** (-alpha)
        assert 0.95 * sup <= lower <= sup * (1.0 + 1e-12)


def test_inv_kernel_weight_matches_exact_arithmetic():
    # the rows of degree <= 3n of the section of W's exact coefficients,
    # rounded once; at alpha 400 the series in s truncated at a tail
    # estimate was 1.1e-4 off, from cancellation among its terms
    b = random_ball_row_contraction(substream(0, 0), 2, 2, 0.9)
    for alpha, n in ((1, 8), (2, 8), (400, 2)):
        space, top = SpaceSpec(2, float(alpha)), 3 * n
        weight = BallPoly(2, exact_inv_kernel_weight(b, alpha, top))
        section = mult_matrix(weight, space, n, row_degree=n + top)
        count = len(grlex_monomials(2, top))
        exact = op_norm_lower(SectionMatrix(space, n, top, section.rows[:count],
                                            section.entries[:count]),
                              trace_degrees=[n]).lower
        assert inv_kernel_mult_norm(b, alpha, n)[0] == pytest.approx(exact, rel=1e-13)


def test_inv_kernel_weight_coefficients_match_exact_arithmetic():
    # the monomial-basis Horner against W's coefficients rounded once from
    # exact rationals, through degree 3n
    for seed in range(3):
        b = random_ball_row_contraction(substream(seed, 0), 2, 2, 0.9)
        for alpha, n in ((1, 8), (2, 8), (400, 2)):
            exact = exact_inv_kernel_weight(b, alpha, 3 * n)
            want = np.array([exact.get(m, 0.0)
                             for m in map(tuple, grlex_monomials(2, 3 * n).tolist())])
            got = ball._inv_kernel_weight(b, float(alpha), 3 * n)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_inv_kernel_gather_is_one_plan_per_support(monkeypatch):
    # the ten default ball-lemma maps share one shift support: one gather
    # plan serves all of them, and each weight keeps the bits of a build
    # from an empty cache
    from kernelcomp import operators

    monkeypatch.setattr(operators, "_plans", {})
    maps = [random_ball_row_contraction(substream(0, mi), 2, 2, 0.9) for mi in range(10)]
    weights = [ball._inv_kernel_weight(b, 2.0, 24) for b in maps]
    assert [key[0] for key in operators._plans] == [ball._shifted_ranks]
    for b, w in zip(maps, weights):
        monkeypatch.setattr(operators, "_plans", {})
        assert ball._inv_kernel_weight(b, 2.0, 24).tobytes() == w.tobytes()


def test_inv_kernel_exponents_are_one_plan_per_degree(monkeypatch):
    # the weight's grlex exponents are the shared read-only table, which the
    # gather's plan reads too: one build of each table and one gather plan
    # serve every later call, and the plan cache keeps no table
    from kernelcomp import operators

    monkeypatch.setattr(operators, "_plans", {})
    grlex_monomials.cache_clear()
    b = random_ball_row_contraction(substream(0, 0), 2, 2, 0.9)
    for alpha in (1.0, 2.0, 1.0):
        inv_kernel_mult_norm(b, alpha, 8)
    built = grlex_monomials.cache_info()
    assert built.misses == built.currsize
    assert [key[0] for key in operators._plans] == [ball._shifted_ranks,
                                                     operators._mult_plan]
    assert not grlex_monomials(2, 24).flags.writeable


def test_inv_kernel_refuses_an_oversized_section_before_the_weight(monkeypatch):
    # the cut section of degree 3n, which mult_matrix refuses too, is
    # refused before the weight's recurrence runs
    def weight(*args):
        raise AssertionError("the weight was computed")

    monkeypatch.setattr(ball, "_inv_kernel_weight", weight)
    b = random_ball_row_contraction(substream(0, 0), 2, 2, 0.9)
    with pytest.raises(ValueError, match="a 1127251x125751 section would take"):
        inv_kernel_mult_norm(b, 1.0, 500)


def test_inv_kernel_section_is_the_mult_matrix_rows(monkeypatch):
    # the section op_norm_lower bounds holds, byte for byte, the rows of
    # degree <= 3n of mult_matrix's section of the same coefficients
    sections = []
    bound = ball.op_norm_lower
    monkeypatch.setattr(ball, "op_norm_lower",
                        lambda sec, **kw: sections.append(sec) or bound(sec, **kw))
    for seed in range(3):
        b = random_ball_row_contraction(substream(seed, 0), 2, 2, 0.9)
        for alpha, n in ((1, 8), (2, 8), (400, 2)):
            space, top = SpaceSpec(2, float(alpha)), 3 * n
            inv_kernel_mult_norm(b, alpha, n)
            exps = grlex_monomials(2, top)
            weight = BallPoly._of(2, exps, ball._inv_kernel_weight(b, float(alpha), top))
            full = mult_matrix(weight, space, n, row_degree=n + top)
            got = sections.pop()
            assert (got.col_degree, got.row_degree) == (n, top)
            assert got.rows.tolist() == list(range(len(exps)))
            assert got.entries.tobytes() == full.entries[:len(exps)].tobytes()


@pytest.mark.parametrize("coefs, alpha", [
    ({(0,): 0.9, (1,): 0.05}, 2000),  # the closed form passes float range
    ({(0,): 0.9, (1,): 0.1}, 300),  # the section's Gram passes it
])
def test_inv_kernel_weight_overflow_names_alpha(coefs, alpha):
    b = BallMap([BallPoly(1, coefs)])
    with pytest.raises(ValueError, match=f"float range at alpha={alpha}"):
        inv_kernel_mult_norm(b, alpha, 8)


def test_br_map_shape_and_values():
    bm = br_map(0.75)
    assert bm.dim == 2
    z = np.array([0.5, 0.4])
    vals = bm(z)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(2 * 0.75 * 0.5 * 0.4, rel=1e-15)
    assert vals[1] == 0.0
    with pytest.raises(ValueError):
        br_map(1.2)
    with pytest.raises(ValueError):
        br_map(-0.1)


def test_br_composition_trace_matches_closed_form():
    # columns for (a, 0) map to single monomials (2r z1 z2)^a, which are
    # mutually orthogonal, so the section norm is the best column ratio:
    # (2r)^a a! / sqrt((2a)!)
    r = 1.0
    sec = comp_matrix(br_map(r), SpaceSpec(2, 1.0), 12)
    bound = op_norm_lower(sec, trace_degrees=[12])
    best = max((2 * r) ** a * math.factorial(a) / math.sqrt(math.factorial(2 * a))
               for a in range(13))
    assert bound.lower == pytest.approx(best, rel=1e-12)


def test_br_experiment_flat_at_zero():
    bracket, verdict, cert, least = br_experiment(
        0.0, alpha=1.0, section_degree=8, trace_degrees=range(0, 9, 4))
    values = [v for _, v in bracket.trace]
    assert values == [1.0] * len(values)
    assert bracket.lower == 1.0
    assert verdict == "psd" and least is None
    assert cert.verdict == PSD and cert.coeffs is None
    assert len(cert.points) == 4


def test_br_zero_section_reads_one_at_every_degree():
    # br_map(0) is the constant 0: C_b f = f(0) has norm exactly 1
    bound = op_norm_lower(comp_matrix(br_map(0.0), SpaceSpec(2, 1.0), 60),
                          trace_degrees=range(61))
    assert [v for _, v in bound.trace] == [1.0] * 61


def test_br_experiment_saturates_below_half_root_two():
    bracket, verdict, cert, _ = br_experiment(
        0.5, alpha=1.0, section_degree=24, trace_degrees=range(0, 25, 4))
    values = [v for _, v in bracket.trace]
    assert abs(values[-1] - values[-2]) <= 1e-6
    assert verdict == "psd"
    assert cert.verdict == PSD
    assert cert.min_eigenvalue > -1e-10


def test_br_experiment_finds_negative_witness():
    _, verdict, cert, least = br_experiment(
        0.95, alpha=1.0, section_degree=8, trace_degrees=range(0, 9, 4))
    assert verdict == "negative" and least is None
    assert cert.verdict == NEGATIVE
    assert cert.min_eigenvalue < -cert.tolerance
    # the bottom eigenvector is the sign pattern s1 s2 the witness predicts
    assert len(cert.points) == 4 and cert.coeffs.shape == (4,)
    signs = np.array([1, -1, -1, 1]) * np.sign(cert.coeffs[0].real)
    assert np.allclose(cert.coeffs, signs / 2, atol=1e-6)


def test_br_experiment_draws_no_points(monkeypatch):
    # the verdict follows from r and alpha alone: no sampler, no search
    def refuse(*args, **kwargs):
        raise AssertionError("br_experiment drew points")

    drawers = {"sample_point_set", "find_negative_witness", "trial_stream", "substream"}
    assert not drawers & set(vars(ball))
    for name in drawers:
        monkeypatch.setattr(kernels, name, refuse)
    for r in (0.5, 0.75, 1.0):
        br_experiment(r, alpha=1.0, section_degree=4, trace_degrees=[4])


def test_br_experiment_growth_at_one():
    bracket, *_ = br_experiment(
        1.0, alpha=1.0, section_degree=40, trace_degrees=[8, 16, 24, 32, 40])
    values = [v for _, v in bracket.trace]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 3.35
    assert bracket.lower == values[-1]


def test_br_experiment_rejects_bad_r():
    with pytest.raises(ValueError):
        br_experiment(1.5, alpha=1.0, section_degree=8, trace_degrees=[8])


@pytest.mark.parametrize("r", [0.70, 0.7071])
def test_br_positivity_is_proved_at_alpha_one_up_to_half_root_two(r):
    # 4 r^2 <= 2 keeps every coefficient nonnegative; the Gram agrees
    _, verdict, cert, least = br_experiment(r, alpha=1.0, section_degree=4,
                                            trace_degrees=[4])
    assert verdict == "psd" and least is None and cert.verdict == PSD
    assert br_witness(r, 1.0) is None


def test_br_witness_at_r_071_clears_the_gram_tolerance():
    # k_11 = 2 - 4 (0.71)^2 < 0, but only just: a fixed eps is not enough
    spec = KernelSpec("ball_map", 1.0, br_map(0.71))
    _, verdict, cert, _ = br_experiment(0.71, alpha=1.0, section_degree=4,
                                        trace_degrees=[4])
    assert verdict == "negative" and cert.verdict == NEGATIVE
    assert cert.min_eigenvalue < -cert.tolerance
    assert cert.min_eigenvalue < -8e-7
    with pytest.raises(ValueError, match="the witness bound"):
        br_witness(0.71, 1.0, eps=0.3)
    # at eps 0.3 the set reads PSD, and at 0.05 a level of 1e-6 misses it
    assert check_psd(spec, PointSet(0.3 * ball._SIGNS)).min_eigenvalue == \
        pytest.approx(5.45e-4, rel=1e-3)
    small = check_psd(spec, br_witness(0.71, 1.0, eps=0.05))
    assert small.verdict == NEGATIVE
    assert -1e-6 < small.min_eigenvalue == pytest.approx(-4.09e-7, rel=1e-3)


@pytest.mark.parametrize("r,alpha", [(0.75, 1.0), (0.95, 1.0), (1.0, 1.0),
                                     (0.9, 2.0), (1.0, 2.5)])
def test_br_witness_refuses_an_eps_past_its_bound(r, alpha):
    pts = br_witness(r, alpha)
    eps = pts.points[0, 0].real
    # the default is half the bound in eps^4, so 1.2 eps passes it
    with pytest.raises(ValueError, match="the witness bound"):
        br_witness(r, alpha, eps=1.2 * eps)
    for bad in (0.0, 2.0):
        with pytest.raises(ValueError, match="the witness bound"):
            br_witness(r, alpha, eps=bad)
    cert = check_psd(KernelSpec("ball_map", alpha, br_map(r)), pts)
    assert cert.verdict == NEGATIVE


def test_br_witness_never_yields_a_silent_psd():
    # just past 1/sqrt(2) the closed form is negative, but the four-point
    # Gram cannot resolve it: the record fails instead of passing as PSD
    r = 0.7071068
    assert br_witness(r, 1.0) is not None
    report = run_experiment(ExperimentConfig.from_dict(
        {"name": "br", "params": {"r_values": [r], "section_degree": 4}}))
    assert report.trace["rows"][0][3] == "negative"
    negativity = [rec for rec in report.records
                  if rec["paper_anchor"] == "product-map-negativity"]
    assert len(negativity) == 1 and not negativity[0]["pass"]
    assert report.extras["certificates"][0]["verdict"] == PSD


@pytest.mark.parametrize("r,alpha,verdict", [(0.8, 2.0, "unproved"), (0.9, 2.5, "negative"),
                                             (0.95, 3.0, "negative"), (0.5, 1.5, "unproved"),
                                             (0.0, 1.5, "unproved")])
def test_br_scan_reads_the_exact_coefficient_signs(r, alpha, verdict):
    top = 12
    exact = [exact_br_coefficient(r, alpha, a1, a2)
             for a1 in range(top + 1) for a2 in range(a1, top + 1 - a1)]
    assert (min(exact) < 0) == (verdict == "negative")
    _, got, cert, least = br_experiment(r, alpha=alpha, section_degree=top // 2,
                                        trace_degrees=[top // 2])
    assert got == verdict and (least < 0) == (verdict == "negative")
    assert cert.points.points[0, 0] == 0.5


def test_br_norms_match_the_exact_closed_form():
    # at alpha 1, w_k^2 = (2r)^(2k) k!^2 / (2k)!; at r = 1 it rises for ever
    degrees = list(range(0, 41, 4))
    got = br_norms(1.0, 1.0, degrees)
    assert [v for v, _ in got] == [math.sqrt(4 ** d / math.comb(2 * d, d)) for d in degrees]
    assert all(rose for _, rose in got)
    bracket, *_ = br_experiment(1.0, alpha=1.0, section_degree=40, trace_degrees=degrees)
    for (_, lo), (big, _) in zip(bracket.trace, got):
        assert abs(lo - big) <= 1e-13 * big
    # at r = 0.5 the peak is w_0 = 1, and nothing rises after the first
    assert br_norms(0.5, 1.0, [0, 4, 8]) == [(1.0, True), (1.0, False), (1.0, False)]


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 2.5, 4.0, 7.3])
@pytest.mark.parametrize("r", [0.3, 0.5, 0.75, 0.9, 0.95, 0.99])
def test_br_rise_limit_bounds_the_last_rise(r, alpha):
    limit = br_rise_limit(r)
    norms = br_norms(r, alpha, range(limit + 200))
    assert not any(rose for _, rose in norms[limit + 1:])
    assert norms[-1][0] == norms[limit][0]


def test_br_rise_limit_values():
    assert [br_rise_limit(r) for r in (0.0, 0.5, 0.75, 0.95, 0.99)] == [0, 0, 1, 5, 28]


def test_br_csv_rows_shape():
    cfg = ExperimentConfig.from_dict(
        {"name": "br", "seed": 7, "params": {"r_values": [0.5], "section_degree": 8}})
    rows = run_experiment(cfg).trace["rows"]
    assert all(len(row) == 5 for row in rows)
    assert rows[0][0] == 0.5
    assert rows[-1][1] == 8
    assert rows[0][3] == "psd"


def test_run_br_verdict_column_follows_the_certificate(monkeypatch):
    # the verdict column and the positivity records read br_experiment's
    # verdict, and the certificates are its four-point Grams
    verdicts, real = [], cli.br_experiment

    def spy(r, **kwargs):
        out = real(r, **kwargs)
        verdicts.append((out[1], out[2].verdict))
        return out

    monkeypatch.setattr(cli, "br_experiment", spy)
    report = run_experiment(ExperimentConfig.from_dict(
        {"name": "br", "params": {"r_values": [0.5, 0.95], "section_degree": 8}}))
    assert verdicts == [("psd", PSD), ("negative", NEGATIVE)]
    assert {row[0]: row[3] for row in report.trace["rows"]} == {
        0.5: "psd", 0.95: "negative"}
    assert [c["verdict"] for c in report.extras["certificates"]] == [PSD, NEGATIVE]
    anchors = [r["paper_anchor"] for r in report.records]
    assert anchors.count("kernel-positivity") == anchors.count("product-map-negativity") == 1
    assert all(r["pass"] for r in report.records)


@pytest.mark.parametrize("seed", [0, 6209])
def test_br_passes_at_the_benchmark_config_whatever_the_seed(seed):
    # the benchmark's positivity config; the random search FAILed at 6209
    params = {"r_values": [0.5, 0.75, 0.95, 1.0]}
    report = run_experiment(ExperimentConfig.from_dict(
        {"name": "br", "seed": seed, "params": params}))
    assert all(r["pass"] for r in report.records)
    assert [row[3] for row in report.trace["rows"][::16]] == [
        "psd", "negative", "negative", "negative"]
    other = run_experiment(ExperimentConfig.from_dict(
        {"name": "br", "seed": 6209 - seed, "params": params}))
    assert other.trace == report.trace and other.records == report.records



def test_random_ball_row_contraction_margins():
    rng = np.random.default_rng(41)
    for _ in range(5):
        b = random_ball_row_contraction(rng, dim=2, coord_degree=2,
                                        row_target=0.9)
        assert b.dim == 2
        top = np.sum(np.abs(b(_sphere_samples(2, BALL_MAP_GRID))) ** 2, axis=-1)
        assert np.sqrt(np.max(top)) <= 1.0 + 1e-9
        w = np.array([0.3, -0.25])
        for alpha in (1.0, 2.0):
            lower, bound = row_mult_norm(b, PointSet([w]),
                                         coord_mult_sections(b, alpha, 8))
            assert bound[0] - lower[0] >= -1e-8


def test_random_ball_row_contraction_coordinate_sections():
    rng = np.random.default_rng(42)
    b = random_ball_row_contraction(rng, dim=2, coord_degree=2, row_target=0.9)
    space = SpaceSpec(2, 1.0)
    from kernelcomp.operators import mult_matrix

    for coord in b.coords:
        if not coord.terms:
            continue
        sec = mult_matrix(coord, space, 6)
        assert op_norm_lower(sec).lower <= 1.0 + 1e-8


@pytest.mark.parametrize("kwargs, message", [
    ({"dim": 0}, "dim must be at least 1"),
    ({"dim": -1}, "dim must be at least 1"),
    ({"coord_degree": -1}, "coord_degree must be nonnegative"),
], ids=[  # fixed: a message's wording can change without renaming its test
    "kwargs0-dim must be at least 1",
    "kwargs1-dim must be at least 1",
    "kwargs2-coord_degree must be nonnegative",
])
def test_random_ball_row_contraction_rejects_bad_shape(kwargs, message):
    with pytest.raises(ValueError, match=message):
        random_ball_row_contraction(np.random.default_rng(0), **{
            "dim": 2, "coord_degree": 2, "row_target": 0.9, **kwargs})
