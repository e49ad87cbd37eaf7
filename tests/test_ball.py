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
from kernelcomp.kernels import NEGATIVE, PSD
from kernelcomp.operators import SpaceSpec, comp_matrix, op_norm_lower
from kernelcomp.sampling import random_ball_row_contraction
from kernelcomp.series import BALL_MAP_GRID, BallMap, BallPoly, _sphere_samples

rising = lambda a, k: math.gamma(a + k) / math.gamma(a)


def test_row_mult_norm_identity_coordinate():
    # dim-1 map b(z) = z: the row operator at w is conj(w) times the shift,
    # whose section norm is exactly |w|
    b = BallMap([BallPoly(1, {(1,): 1.0})])
    lower, bound = row_mult_norm(b, 0.6, coord_mult_sections(b, 1.0, 12))
    assert bound == pytest.approx(0.6, abs=1e-15)
    assert abs(bound - lower) <= 1e-12
    assert lower <= bound + 1e-12


def test_row_mult_norm_two_coordinates():
    half = BallPoly(2, {(1, 0): 0.5})
    other = BallPoly(2, {(0, 1): 0.5})
    b = BallMap([half, other])
    w = np.array([0.4, 0.2])
    lower, bound = row_mult_norm(b, w, coord_mult_sections(b, 2.0, 8))
    assert bound == pytest.approx(np.linalg.norm([0.2, 0.1]), rel=1e-13)
    assert bound - lower >= -1e-10


def test_row_mult_norm_rejects_outside_point():
    b = BallMap([BallPoly(1, {(1,): 0.5})])
    with pytest.raises(ValueError):
        row_mult_norm(b, 1.2, coord_mult_sections(b, 1.0, 8))


def test_inv_kernel_weight_trivial_when_centered():
    # b(0) = 0 makes the weight identically one
    b = BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})])
    lower, upper = inv_kernel_mult_norm(b, 2.0, 6, tail_tol=1e-10)
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_inv_kernel_weight_brackets_closed_form():
    # dim-1 symbol with b(0) = 1/2: closed form (1 - 1/2)^(-alpha)
    b = BallMap([BallPoly(1, {(0,): 0.5, (1,): 0.4})])
    for alpha in (1.0, 2.0):
        lower, upper = inv_kernel_mult_norm(b, alpha, 24, tail_tol=1e-10)
        assert upper == pytest.approx(2.0**alpha, rel=1e-10)
        assert lower <= upper + 1e-9
        # the constant coefficient of the weight alone gives a lower bound
        assert lower >= (1.0 - 0.25) ** (-alpha) - 1e-9


def test_inv_kernel_weight_respects_term_budget(monkeypatch):
    b = BallMap([BallPoly(1, {(0,): 0.9})])
    monkeypatch.setattr(ball, "MAX_WEIGHT_TERMS", 3)
    with pytest.raises(ValueError, match="more than 3 terms"):
        inv_kernel_mult_norm(b, 1.0, 4, tail_tol=1e-300)


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
            lower, bound = row_mult_norm(b, w, coord_mult_sections(b, alpha, 8))
            assert bound - lower >= -1e-8


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
