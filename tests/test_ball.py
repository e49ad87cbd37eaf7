"""Row multiplier checks, inverse-kernel weights, and the product-map study."""

import math

import numpy as np
import pytest

from kernelcomp import ball
from kernelcomp.cli import ExperimentConfig, run_experiment
from kernelcomp.ball import (
    br_experiment,
    br_map,
    coord_mult_sections,
    inv_kernel_mult_norm,
    row_mult_norm,
)
from kernelcomp.kernels import NEGATIVE, PSD, sample_point_set, substream
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
from oracles import exact_inv_kernel_weight, svd_row_mult_norm, traced_peak

rising = lambda a, k: math.gamma(a + k) / math.gamma(a)


def test_row_mult_norm_identity_coordinate():
    # dim-1 map b(z) = z: the row operator at w is conj(w) times the shift,
    # whose section norm is exactly |w|
    b = BallMap([BallPoly(1, {(1,): 1.0})])
    ws = np.array([[0.6], [0.3j], [-0.2 + 0.1j]])
    lower, bound = row_mult_norm(b, ws, coord_mult_sections(b, 1.0, 12))
    assert lower.shape == bound.shape == (3,)
    assert bound == pytest.approx(np.abs(ws[:, 0]), abs=1e-15)
    assert np.all(np.abs(bound - lower) <= 1e-12)


def test_row_mult_norm_two_coordinates():
    half = BallPoly(2, {(1, 0): 0.5})
    other = BallPoly(2, {(0, 1): 0.5})
    b = BallMap([half, other])
    ws = np.array([[0.4, 0.2], [0.0, 0.0], [-0.1j, 0.5]])
    lower, bound = row_mult_norm(b, ws, coord_mult_sections(b, 2.0, 8))
    assert bound == pytest.approx(0.5 * np.linalg.norm(ws, axis=1), rel=1e-13)
    assert lower[1] == bound[1] == 0.0
    assert np.all(bound - lower >= -1e-10)


def test_row_mult_norm_rejects_outside_point():
    b = BallMap([BallPoly(1, {(1,): 0.5})])
    with pytest.raises(ValueError, match="strictly inside"):
        row_mult_norm(b, [[1.2]], coord_mult_sections(b, 1.0, 8))


@pytest.mark.parametrize("bad", [[1.0, 0.0], [0.0, -1.0j], [0.9, 0.9]],
                         ids=["on-real", "on-imag", "outside"])
def test_row_mult_norm_rejects_a_batch_with_one_point_off_the_ball(bad):
    b = BallMap([BallPoly(2, {(1, 0): 0.5}), BallPoly(2, {(0, 1): 0.5})])
    ws = np.array([[0.1, 0.2], bad, [0.3, -0.1]])
    with pytest.raises(ValueError, match="strictly inside"):
        row_mult_norm(b, ws, coord_mult_sections(b, 1.0, 4))


def test_row_mult_norm_rejects_points_of_the_wrong_shape():
    b = BallMap([BallPoly(2, {(1, 0): 0.5}), BallPoly(2, {(0, 1): 0.5})])
    sections = coord_mult_sections(b, 1.0, 4)
    for ws in ([0.1, 0.2], [[0.1, 0.2, 0.0]]):
        with pytest.raises(ValueError, match="one row of b.dim coordinates"):
            row_mult_norm(b, ws, sections)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_row_mult_norm_matches_the_svd_of_each_row_section(dim, alpha):
    rng = np.random.default_rng(100 + dim)
    b = random_ball_row_contraction(rng, dim=dim, coord_degree=2, row_target=0.9)
    sections = coord_mult_sections(b, alpha, 6)
    ws = sample_point_set(rng, dim, 0.8, 12).points
    lower, bound = row_mult_norm(b, ws, sections)
    expect = svd_row_mult_norm(b, ws, sections)
    assert np.max(np.abs(lower - expect) / expect) <= 1e-13
    assert bound == pytest.approx([np.linalg.norm(b(w)) for w in ws], rel=1e-15)
    assert np.all(bound - lower >= -1e-10)


@pytest.mark.parametrize("count", [40, 400])
def test_row_mult_norm_stays_within_the_bytes_it_checks(monkeypatch, count):
    # 400 points at 45 columns pass one _ROW_STACK_BYTES block, so the
    # Grams are eigen-solved in several blocks; the check counts one of them
    rng = np.random.default_rng(count)
    b = random_ball_row_contraction(rng, dim=2, coord_degree=2, row_target=0.9)
    sections = coord_mult_sections(b, 2.0, 8)
    ws = sample_point_set(rng, 2, 0.8, count).points
    checked, real = [], ball._check_bytes

    def spy(nbytes, what):
        checked.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(ball, "_check_bytes", spy)
    b(ws)  # fills the map's caches off the count
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
            want = np.array([exact.get(m, 0.0) for m in grlex_monomials(2, 3 * n)])
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
    # the weight's grlex exponents come from the plan cache, read-only: one
    # build for them and one for the gather serve every later call
    from kernelcomp import operators

    monkeypatch.setattr(operators, "_plans", {})
    built, grlex = [], ball._grlex_exps
    monkeypatch.setattr(ball, "_grlex_exps",
                        lambda dim, top: built.append((dim, top)) or grlex(dim, top))
    b = random_ball_row_contraction(substream(0, 0), 2, 2, 0.9)
    for alpha in (1.0, 2.0, 1.0):
        inv_kernel_mult_norm(b, alpha, 8)
    assert built == [(2, 24), (2, 24)]
    (exps, _), = [hit for key, hit in operators._plans.items()
                  if key[0] is ball._grlex_exps]
    assert exps.tolist() == [list(m) for m in grlex_monomials(2, 24)]
    assert not exps.flags.writeable


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
            exps = np.array(grlex_monomials(2, top))
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
    bracket, cert, found = br_experiment(
        0.0, alpha=1.0, section_degree=8, trace_degrees=range(0, 9, 4),
        witness_budget=5, set_size=4, radius=0.95, seed=0)
    values = [v for _, v in bracket.trace]
    assert values == [1.0] * len(values)
    assert bracket.lower == 1.0
    assert not found
    assert cert.verdict == PSD and cert.witness is None


def test_br_zero_section_reads_one_at_every_degree():
    # br_map(0) is the constant 0: C_b f = f(0) has norm exactly 1
    bound = op_norm_lower(comp_matrix(br_map(0.0), SpaceSpec(2, 1.0), 60),
                          trace_degrees=range(61))
    assert [v for _, v in bound.trace] == [1.0] * 61


def test_br_experiment_saturates_below_half_root_two():
    bracket, cert, found = br_experiment(
        0.5, alpha=1.0, section_degree=24, trace_degrees=range(0, 25, 4),
        witness_budget=50, set_size=6, radius=0.95, seed=3)
    values = [v for _, v in bracket.trace]
    assert abs(values[-1] - values[-2]) <= 1e-6
    assert not found
    assert cert.min_eigenvalue > -1e-10


def test_br_experiment_finds_negative_witness():
    bracket, cert, found = br_experiment(
        0.95, alpha=1.0, section_degree=8, trace_degrees=range(0, 9, 4),
        witness_budget=50, set_size=8, radius=0.95, seed=0)
    assert found
    assert cert.verdict == NEGATIVE
    assert cert.min_eigenvalue < -1e-6
    assert len(cert.witness.point_set) == 8


def test_br_experiment_found_comes_from_the_search(monkeypatch):
    # with no trials searched, the trial-0 probe is reported, and at
    # r = 0.95 that probe itself fails positivity: found still reads False
    draws = []
    original = ball.sample_point_set

    def spy(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ball, "sample_point_set", spy)
    params = dict(alpha=1.0, section_degree=8, trace_degrees=[8], set_size=8,
                  radius=0.95, seed=0)
    _, cert, found = br_experiment(0.95, witness_budget=0, **params)
    assert not found
    assert len(draws) == 1
    assert cert.verdict == NEGATIVE
    searched = br_experiment(0.95, witness_budget=1, **params)[1]
    assert cert.to_json_dict() == searched.to_json_dict()


def test_br_experiment_growth_at_one():
    bracket, _, _ = br_experiment(
        1.0, alpha=1.0, section_degree=40, trace_degrees=[8, 16, 24, 32, 40],
        witness_budget=5, set_size=4, radius=0.95, seed=1)
    values = [v for _, v in bracket.trace]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 3.35
    assert bracket.lower == values[-1]


def test_br_experiment_rejects_bad_r():
    with pytest.raises(ValueError):
        br_experiment(1.5, alpha=1.0, section_degree=8, trace_degrees=[8],
                      witness_budget=5, set_size=4, radius=0.95, seed=0)


def test_br_csv_rows_shape():
    cfg = ExperimentConfig.from_dict(
        {"name": "br", "seed": 7,
         "params": {"r_values": [0.5], "section_degree": 8, "witness_budget": 5,
                    "set_size": 4}})
    rows = run_experiment(cfg).trace["rows"]
    assert all(len(row) == 6 for row in rows)
    assert rows[0][0] == 0.5
    assert rows[-1][1] == 8
    assert rows[0][3] == "no-counterexample-at-budget-5"
    assert rows[0][5] == 7


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
            lower, bound = row_mult_norm(b, [w], coord_mult_sections(b, alpha, 8))
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
])
def test_random_ball_row_contraction_rejects_bad_shape(kwargs, message):
    with pytest.raises(ValueError, match=message):
        random_ball_row_contraction(np.random.default_rng(0), **{
            "dim": 2, "coord_degree": 2, "row_target": 0.9, **kwargs})
