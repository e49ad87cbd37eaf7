"""Polynomial types, circle-sampling composition, and admission checks."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcomp import series
from kernelcomp.ball import br_map
from kernelcomp.cli import ConfigError, poly_from_json_dict
from kernelcomp.operators import _grlex_rank, grlex_monomials
from kernelcomp.sampling import random_ball_row_contraction
from kernelcomp.series import (
    SELF_MAP_GRID,
    SELF_MAP_SLACK,
    BallMap,
    BallPoly,
    DiskPoly,
    ParameterError,
    SelfMapDisk,
    _blaschke_degree,
    _circle_points,
    blaschke_factor,
    sup_norm_circle,
)
from oracles import compose, disk_poly_power, traced_peak


def test_disk_poly_eval_matches_term_sum():
    # oracle: evaluate term by term with plain python powers
    rng = np.random.default_rng(1)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    p = DiskPoly(c)
    for z in [0.3 + 0.2j, -0.7j, 0.99, 0.0]:
        direct = sum(c[n] * z**n for n in range(9))
        assert abs(p(z) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_disk_poly_arithmetic_and_degree():
    p = DiskPoly([1.0, 2.0])
    q = DiskPoly([0.0, 0.0, 3.0])
    assert (p + q).degree() == 2
    assert (p * q).degree() == 3
    assert (2.0 * p).coeffs[1] == 4.0
    assert disk_poly_power(p, 3).degree() == 3
    assert DiskPoly([0.0]).degree() == 0
    assert DiskPoly([1.0, 0.0, 0.0]).degree() == 0


def test_disk_poly_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        DiskPoly([])
    with pytest.raises(ValueError):
        DiskPoly([1.0, np.inf])
    with pytest.raises(ValueError):
        DiskPoly([np.nan])


def test_ball_poly_eval_matches_term_sum():
    p = BallPoly(2, {(1, 1): 2.0, (0, 3): 1j, (0, 0): -0.5})
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    direct = 2.0 * z[0] * z[1] + 1j * z[1] ** 3 - 0.5
    assert abs(p(z) - direct) <= 1e-14
    batch = np.stack([z, 0.5 * z])
    vals = p(batch)
    assert vals.shape == (2,)
    assert abs(vals[0] - direct) <= 1e-14


def _term_loop(p, pts):
    # oracle: the term-by-term evaluation, one monomial product per term
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for i, c in enumerate(p.coefs.tolist()):
        out = out + c * np.prod(pts ** p.exps[i], axis=-1)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_ball_poly_eval_matches_term_loop_bit_for_bit(dim):
    # 150 terms span three blocks of the stacked evaluation
    rng = np.random.default_rng(dim)
    exps = {tuple(int(e) for e in rng.integers(0, 16 if dim > 1 else 400, dim))
            for _ in range(400)}
    p = BallPoly(dim, {m: complex(*rng.standard_normal(2))
                       for m in sorted(exps)[:150]})
    assert len(p.coefs) == 150
    for shape in [(dim,), (10, dim), (4, 8, dim)]:
        z = 0.9 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        z /= max(1.0, np.max(np.linalg.norm(z, axis=-1)) / 0.9)
        assert p(z).tobytes() == _term_loop(p, z).tobytes()


def test_many_term_map_admission_stays_small():
    # 2000 terms on the 2048-point sphere sample (their coefficient bound is
    # 2, so the sample decides): the term rows are stacked in blocks, not all
    # at once (188 MB)
    from kernelcomp.operators import grlex_monomials

    mons = map(tuple, grlex_monomials(2, 62)[:2000].tolist())
    p = BallPoly(2, {m: 1e-3 for m in mons})
    _, peak = traced_peak(lambda: BallMap([p, BallPoly(2, {})]))
    assert peak < 16 * 2**20


def test_ball_poly_drops_zero_terms_and_validates():
    p = BallPoly(2, {(1, 0): 0.0, (0, 1): 1.0})
    assert (1, 0) not in p.terms
    with pytest.raises(ValueError):
        BallPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        BallPoly(2, {(-1, 0): 1.0})


def test_ball_poly_rejects_non_integer_exponents():
    for m in [(1.5, 0), (1.0, 0), (True, 0), ("1", 0)]:
        with pytest.raises(ValueError, match="bad multi-index"):
            BallPoly(2, {m: 1.0})
    p = BallPoly(2, {(np.int64(2), 1): 1.0})
    assert p.terms == {(2, 1): 1.0}
    assert p.exps.dtype == np.int64 and p.coefs.dtype == complex


def test_ball_poly_arrays_are_read_only():
    p = BallPoly(2, {(1, 0): 1.0, (0, 1): 2.0})
    with pytest.raises(ValueError):
        p.exps[0, 0] = 3
    with pytest.raises(ValueError):
        p.coefs[0] = 3.0
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 3.0


# oracles: the dict arithmetic BallPoly ran before it stored arrays.  Each
# result went through the dict constructor, which checked every coefficient,
# added it to 0.0 and dropped exact zeros, keeping insertion order.

def _ref_poly(acc: dict) -> dict:
    clean = {}
    for m, c in acc.items():
        c = complex(c)
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
        if c != 0:
            clean[m] = clean.get(m, 0.0) + c
    return {m: c for m, c in clean.items() if c != 0}


def _ref_add(p: dict, q: dict) -> dict:
    acc = dict(p)
    for m, c in q.items():
        acc[m] = acc.get(m, 0.0) + c
    return _ref_poly(acc)


def _ref_scale(p: dict, s) -> dict:
    return _ref_poly({m: c * complex(s) for m, c in p.items()})


def _assert_matches(poly, ref: dict):
    exps = np.array(list(ref), dtype=np.int64).reshape(-1, poly.dim)
    coefs = np.array(list(ref.values()), dtype=complex)
    assert poly.exps.shape == exps.shape
    assert poly.exps.tobytes() == exps.tobytes()
    assert poly.coefs.tobytes() == coefs.tobytes()


def _random_terms(rng, dim, count, degree):
    # signed coefficients over six decades, so the summation order shows in
    # the last bits; some exact zeros and some -0.0 parts
    terms = {}
    for _ in range(count):
        m = tuple(int(e) for e in rng.integers(0, degree + 1, dim))
        re, im = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        kind = rng.integers(8)
        if kind == 0:
            re = -0.0
        elif kind == 1:
            im = -0.0
        elif kind == 2:
            re = im = 0.0
        terms[m] = complex(re, im)
    return terms


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ball_poly_arithmetic_matches_dict_reference(dim):
    rng = np.random.default_rng([dim, 7])
    scalars = [2.5, -3, 0, -0.0, complex(0.5, -1.25), complex(-0.0, 2.0),
               np.complex128(0.3 - 0.7j), np.float64(-1.5)]
    for _ in range(12):
        a = _random_terms(rng, dim, int(rng.integers(0, 12)), 3)
        b = _random_terms(rng, dim, int(rng.integers(0, 12)), 3)
        p, q = BallPoly(dim, a), BallPoly(dim, b)
        _assert_matches(p, _ref_poly(a))
        ra, rb = _ref_poly(a), _ref_poly(b)
        _assert_matches(p + q, _ref_add(ra, rb))
        _assert_matches(q + p, _ref_add(rb, ra))
        for s in scalars:
            _assert_matches(p * s, _ref_scale(ra, s))
            _assert_matches(s * p, _ref_scale(ra, s))


def test_ball_poly_sums_that_cancel_drop_the_terms():
    p = BallPoly(3, _random_terms(np.random.default_rng(11), 3, 20, 4))
    gone = p + (-1) * p
    assert gone.exps.shape == (0, 3) and gone.coefs.shape == (0,)
    assert gone.degree() == 0 and gone.constant_term() == 0
    # Python's 1j * -1 is (-0.0, -1.0); the dict constructor's 0.0 + c
    # stored its real part as +0.0
    flipped = BallPoly(1, {(1,): 1j}) * -1
    _assert_matches(flipped, {(1,): complex(0.0, -1.0)})
    assert not np.signbit(flipped.coefs.real[0])


@pytest.mark.parametrize("c", [complex(-0.0, -0.0), complex(-0.0, 1.5),
                               complex(2.0, -0.0), complex(-1.0, 0.0), 0j])
def test_combine_passes_a_lone_term_with_the_bits_of_the_general_path(c):
    # the general path's first sum is np.add.at into zeros; a second,
    # distinct term sends the input there
    exps = np.array([[1, 2]])
    one_exps, one = series._combine(exps, np.array([c]))
    both_exps, both = series._combine(np.array([[1, 2], [0, 1]]),
                                      np.array([c, 1.0 + 0j]))
    assert one_exps.tolist() == both_exps[:1].tolist() == [[1, 2]]
    assert one.dtype == np.complex128
    assert one.tobytes() == both[:1].tobytes()
    # -0.0 parts come out +0.0, as the first addition to 0.0 gives them
    assert np.signbit([one.real[0], one.imag[0]]).tolist() == [c.real < 0,
                                                               c.imag < 0]


def test_ball_poly_huge_exponents_match_dict_reference():
    # exponent ranges whose mixed-radix key would not fit in 64 bits
    big = 2**20
    a = {(big, 0, 1, big): 1.5 - 2j, (0, big, big, 3): 0.25j,
         (1, 1, 1, 1): -1.0}
    b = {(big, big, 0, 0): 2.0, (1, 1, 1, 1): 1.0, (0, 0, 0, 0): 3 - 1j}
    p, q = BallPoly(4, a), BallPoly(4, b)
    _assert_matches(p + q, _ref_add(_ref_poly(a), _ref_poly(b)))


def test_ball_poly_overflow_to_inf_raises():
    big = BallPoly(2, {(1, 0): 1e300, (0, 1): 1.0})
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        big * 1e10
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        BallPoly(2, {(1, 0): 1.7e308}) + BallPoly(2, {(1, 0): 1.7e308})
    with pytest.raises(ValueError, match="finite"):
        BallPoly(2, {(1, 0): complex(1.0, np.inf)})


def test_poly_json_rejects_non_integer_dim_and_exponents():
    good = {"dim": 2, "terms": [[[1, 0], [1.0, 0.0]]]}
    assert poly_from_json_dict(good).terms == {(1, 0): 1.0}
    for bad in [{"dim": 2.0, "terms": []}, {"dim": True, "terms": []},
                {"dim": 2, "terms": [[[1.5, 0], [1.0, 0.0]]]},
                {"dim": 2, "terms": [[[1.0, 0], [1.0, 0.0]]]},
                {"dim": 1, "terms": [[[True], [1.0, 0.0]]]}]:
        with pytest.raises(ConfigError, match="integer"):
            poly_from_json_dict(bad)


def test_poly_json_round_trip_and_golden_shape():
    p = DiskPoly([1.0, 0.0, 2.0j])
    d = p.to_json_dict()
    assert d == {"dim": 1, "terms": [[[0], [1.0, 0.0]], [[2], [0.0, 2.0]]]}
    q = poly_from_json_dict(d)
    assert isinstance(q, BallPoly) and q.terms == {(0,): 1.0, (2,): 2.0j}

    bp = BallPoly(2, {(0, 2): 1.0, (1, 1): 2.0, (2, 0): 3.0})
    d2 = bp.to_json_dict()
    # graded lexicographic: (2,0) then (1,1) then (0,2)
    assert [t[0] for t in d2["terms"]] == [[2, 0], [1, 1], [0, 2]]
    bq = poly_from_json_dict(d2)
    assert bq.terms == bp.terms
    # the json term order is the grlex rank the sections index by
    rng = np.random.default_rng(5)
    for dim in range(1, 5):
        for degree in range(6):
            mons = grlex_monomials(dim, degree)
            order = rng.permutation(len(mons))
            shuffled = BallPoly._of(dim, mons[order], 1.0 + order.astype(complex))
            terms = shuffled.to_json_dict()["terms"]
            assert [m for m, _ in terms] == mons.tolist()
            assert _grlex_rank([m for m, _ in terms]).tolist() == list(range(len(mons)))
            assert [c for _, c in terms] == [[1.0 + i, 0.0] for i in range(len(mons))]


def test_sup_and_inf_modulus_on_circle():
    f = DiskPoly([0.0, 1.0])
    assert sup_norm_circle(f, 64) == pytest.approx(1.0, abs=1e-15)
    # the grid inf-estimate reads: min |f| over the same points
    assert np.min(np.abs(f(_circle_points(64)))) == pytest.approx(1.0, abs=1e-15)
    g = DiskPoly([1.0, 0.5])
    assert sup_norm_circle(g, 4096) == pytest.approx(1.5, abs=1e-6)
    assert np.min(np.abs(g(_circle_points(4096)))) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ParameterError):
        sup_norm_circle(f, 8)


def test_blaschke_factor_matches_rational_function():
    a = 0.5
    b = blaschke_factor(a, tail_tol=1e-13)
    assert b.degree() == 44
    assert b.center == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = (rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        exact = (z + a) / (1 + np.conj(a) * z)
        assert abs(b(z) - exact) <= 2e-13
    # boundary grid stays within the admission slack
    assert sup_norm_circle(b.series, 1024) <= 1.0 + SELF_MAP_SLACK


def _blaschke_degree_loop(r, tail_tol):
    # oracle: the one-step search that chose the truncation degree before
    # the estimate from logarithms
    T = 1
    while (1.0 - r * r) * r**T / (1.0 - r) > tail_tol:
        T += 1
    return T


def test_blaschke_degree_matches_stepwise_search():
    for r in (1e-300, 1e-9, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        for tol in (1e300, 10.0, 1.0, 0.5, 1e-3, 1e-8, 1e-13, 1e-16, 1e-30,
                    1e-100):
            assert _blaschke_degree(r, tol) == _blaschke_degree_loop(r, tol)
    # tails where r**T leaves the normal range of floats
    for r in (1e-9, 0.5, 0.9):
        for tol in (1e-300, 1e-310, 5e-324):
            assert _blaschke_degree(r, tol) == _blaschke_degree_loop(r, tol)
    assert _blaschke_degree(0.5, math.inf) == 1


def test_blaschke_degree_above_the_coefficient_limit_is_refused():
    # about 1e8 coefficients, found by stepping; about 7e11, from the estimate
    for r in (1.0 - 7e-6, 0.999999999):
        with pytest.raises(ValueError, match="byte limit"):
            blaschke_factor(r, tail_tol=1e-300)


def test_blaschke_factor_within_the_slack_skips_the_grid(monkeypatch):
    # a tail within the slack bounds |B_T| by 1 + tail on the circle, so the
    # O(degree) grid is skipped; a longer tail still meets the grid, which
    # refuses this one
    grids = []
    sup_norm = series.sup_norm_circle
    monkeypatch.setattr(series, "sup_norm_circle",
                        lambda f, n: grids.append(n) or sup_norm(f, n))
    a, tol = 0.999, 1e-300
    start = time.perf_counter()
    b = blaschke_factor(a, tail_tol=tol)
    assert time.perf_counter() - start < 1.0
    degree = _blaschke_degree(a, tol)
    expect = np.zeros(degree + 1, dtype=complex)
    expect[0] = a
    expect[1:] = (1.0 - a * a) * (-np.conj(complex(a))) ** np.arange(degree)
    assert b.series.coeffs.tobytes() == expect.tobytes()
    blaschke_factor(0.5, tail_tol=SELF_MAP_SLACK)
    assert grids == []
    with pytest.raises(ValueError, match="not a disk self-map"):
        blaschke_factor(0.5, tail_tol=1e-6)
    assert grids == [SELF_MAP_GRID]


def test_blaschke_zero_parameter_is_identity():
    b = blaschke_factor(0.0)
    assert np.array_equal(b.series.coeffs, np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        blaschke_factor(1.0)
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        blaschke_factor(0.5, tail_tol=-1.0)


def test_self_map_admission():
    with pytest.raises(ValueError):
        SelfMapDisk(DiskPoly([0.0, 1.2]))
    with pytest.raises(ValueError):
        SelfMapDisk(DiskPoly([2.0]))
    with pytest.raises(ValueError, match=r"needs \|b\(0\)\| < 1"):
        SelfMapDisk(DiskPoly([1.0]))
    const = SelfMapDisk(DiskPoly([0.5]))
    assert const.degree() == 0
    b = SelfMapDisk(DiskPoly([0.0, 0.5, 0.5]))
    assert b.degree() == 2
    assert sup_norm_circle(b.series, 1024) <= 1.0 + SELF_MAP_SLACK


def test_ball_map_admission():
    half = BallPoly(2, {(1, 0): 0.5})
    other = BallPoly(2, {(0, 1): 0.5})
    bm = BallMap([half, other])
    assert bm.dim == 2
    assert bm.degree() > 0
    with pytest.raises(ValueError):
        BallMap([BallPoly(2, {(1, 0): 1.5}), BallPoly(2, {})])
    with pytest.raises(ValueError):
        BallMap([BallPoly(2, {(0, 0): 0.8}), BallPoly(2, {(0, 0): 0.8})])
    with pytest.raises(ValueError):
        BallMap([BallPoly(1, {(1,): 1.0}), BallPoly(1, {(1,): 1.0})])


def test_self_map_admission_by_coefficient_sum(monkeypatch):
    # a coefficient sum within the slack admits without the boundary grid;
    # the truncated Blaschke factor's sum is about 2, so the grid decides
    grids = []
    sup_norm = series.sup_norm_circle
    monkeypatch.setattr(series, "sup_norm_circle",
                        lambda f, n: grids.append(n) or sup_norm(f, n))
    SelfMapDisk(DiskPoly([0.0, 0.5, 0.5]))
    assert grids == []
    SelfMapDisk(blaschke_factor(0.5).series)
    assert grids == [SELF_MAP_GRID]


def test_ball_map_admission_by_coefficient_bound(monkeypatch):
    # the coordinates' sums of term sphere maxima bound |b| on the closed
    # ball: within the slack their l2 norm admits the map without the sample
    draws = []
    sample = series._sphere_samples
    monkeypatch.setattr(series, "_sphere_samples",
                        lambda dim, n: draws.append(dim) or sample(dim, n))
    for dim in (1, 2, 3, 6):
        random_ball_row_contraction(np.random.default_rng(dim), dim, 2, 0.9)
    BallMap([BallPoly(2, {(1, 0): 0.5}), BallPoly(2, {(0, 1): 0.5})])
    assert draws == []
    # ((z1 + z2) / sqrt(2), 0) has bound sqrt(2) and sphere maximum 1
    r = 1.0 / math.sqrt(2.0)
    BallMap([BallPoly(2, {(1, 0): r, (0, 1): r}), BallPoly(2, {})])
    assert draws == [2]
    # the constant (0.8, 0.8) has bound 0.8 sqrt(2), though each coordinate's
    # sum is 0.8: the sample refuses it before the center check does
    with pytest.raises(ValueError, match="sphere samples reach modulus 1.13137"):
        BallMap([BallPoly(2, {(0, 0): 0.8}), BallPoly(2, {(0, 0): 0.8})])
    assert draws == [2, 2]


def test_ball_map_admission_by_monomial_sphere_maxima(monkeypatch):
    # |2 r z1 z2| <= r on the sphere, with equality at |z1|^2 = |z2|^2 = 1/2,
    # so every br_map(r) with r <= 1 is admitted by its bound
    draws = []
    sample = series._sphere_samples
    monkeypatch.setattr(series, "_sphere_samples",
                        lambda dim, n: draws.append(dim) or sample(dim, n))
    for r in (0.0, 0.5, 0.75, 0.95, 1.0):
        br_map(r)
    assert draws == []
    # each of z1 / sqrt(2) and z2 / sqrt(2) reaches 1 / sqrt(2): the bound is
    # sqrt(2), and the sample admits the map at its sphere maximum 1
    r = 1.0 / math.sqrt(2.0)
    BallMap([BallPoly(2, {(1, 0): r, (0, 1): r}), BallPoly(2, {})])
    assert draws == [2]
    # 2.0001 z1 z2 has bound and sphere maximum 1.00005: the sample refuses it
    with pytest.raises(ValueError, match="sphere samples reach modulus 1.0000"):
        BallMap([BallPoly(2, {(1, 1): 2.0001}), BallPoly(2, {})])
    assert draws == [2, 2]


def test_circle_grid_is_cached_bounded_and_read_only():
    # the values a fresh grid gives, bit for bit, built once per size
    for size in (16, 1024, 4096):
        fresh = np.exp(1j * (2.0 * np.pi * np.arange(size) / size))
        pts = _circle_points(size)
        assert pts.tobytes() == fresh.tobytes()
        assert _circle_points(size) is pts
        with pytest.raises(ValueError):
            pts[0] = 0.0
    # inf-estimate takes its grid size from the config
    assert _circle_points.cache_info().maxsize is not None


def test_ball_map_sphere_sample_is_cached_and_read_only():
    # the values a fresh draw gives, bit for bit, drawn once per (dim, count)
    for dim in (1, 2, 3):
        rng = np.random.default_rng(20240814)
        x = rng.standard_normal((2048, dim)) + 1j * rng.standard_normal((2048, dim))
        fresh = x / np.linalg.norm(x, axis=1, keepdims=True)
        pts = series._sphere_samples(dim, series.BALL_MAP_GRID)
        assert pts.tobytes() == fresh.tobytes()
        assert series._sphere_samples(dim, series.BALL_MAP_GRID) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
    # admission only reads the shared sample; this map's coefficient bound
    # is 1.7 and its sphere maximum sqrt(0.72), so the sample decides
    BallMap([BallPoly(2, {(1, 0): 0.6, (0, 1): 0.6}),
             BallPoly(2, {(1, 0): 0.6, (0, 1): -0.6})])


def test_compose_with_identity_recovers_f():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    f = DiskPoly(c)
    ident = SelfMapDisk(DiskPoly.identity())
    g = compose(f, ident, 10)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12


def test_compose_matches_convolved_powers():
    # oracle: assemble f(b(z)) coefficients from explicit polynomial powers
    rng = np.random.default_rng(5)
    fc = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = DiskPoly(fc)
    raw = DiskPoly([0.1, 0.4, -0.2, 0.1j])
    b = SelfMapDisk((0.9 / sup_norm_circle(raw, 1024)) * raw)
    out_degree = 3 * 6
    expected = np.zeros(out_degree + 1, dtype=complex)
    power = np.ones(1, dtype=complex)
    expected[0] = fc[0]
    for k in range(1, 7):
        power = np.convolve(power, b.series.trimmed())
        expected[: power.size] += fc[k] * power
    got = compose(f, b, out_degree)
    assert np.max(np.abs(got.coeffs - expected)) <= 1e-11


def test_compose_parameter_validation():
    f = DiskPoly([1.0, 1.0])
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ParameterError):
        compose(f, b, 10, sample_radius=1.0)
    with pytest.raises(ParameterError):
        compose(f, b, 10, sample_radius=0.0)
    with pytest.raises(ParameterError):
        compose(f, b, 0)
    with pytest.raises(ParameterError):
        compose(f, b, 10, samples=12)
    with pytest.raises(ParameterError):
        compose(f, b, 100000, sample_radius=0.001)
    with pytest.raises(TypeError):
        compose(f, DiskPoly([0.0, 0.5]), 10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
       st.floats(-2.0, 2.0))
def test_compose_is_linear_in_f(c1, c2, scale):
    f1 = DiskPoly(c1)
    f2 = DiskPoly(c2)
    b = SelfMapDisk(DiskPoly([0.1, 0.3, 0.2]))
    combined = compose(DiskPoly(scale * f1.padded(7) + f2.padded(7)), b, 21)
    split = DiskPoly(
        scale * compose(f1, b, 21).coeffs + compose(f2, b, 21).coeffs)
    assert np.max(np.abs(combined.coeffs - split.coeffs)) <= 1e-10
