"""Gram assembly, positivity certificates, and counterexample search."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from kernelcomp import kernels
from kernelcomp.kernels import (
    NEGATIVE,
    PSD,
    DomainError,
    KernelSpec,
    PointSet,
    check_psd,
    find_negative_witness,
    gram,
    sample_point_set,
    seed_tuple,
    substream,
    trial_stream,
)
from kernelcomp.series import BallMap, BallPoly, DiskPoly, SelfMapDisk, blaschke_factor
from oracles import eval_kernel


def test_szego_gram_two_point_closed_form():
    # points 0 and 1/2 give [[1, 1], [1, 4/3]]; smallest eigenvalue of that
    # matrix is (7 - sqrt(37)) / 6
    g = gram(KernelSpec.szego(), PointSet([0.0, 0.5]))
    expect = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.max(np.abs(g - expect)) <= 1e-15
    lam = np.linalg.eigvalsh(g)[0]
    assert lam == pytest.approx((7.0 - math.sqrt(37.0)) / 6.0, rel=1e-12)


def test_gram_is_hermitian_with_real_diagonal():
    rng = np.random.default_rng(21)
    pts = sample_point_set(rng, 1, 0.8, 6)
    b = SelfMapDisk(DiskPoly([0.1, 0.3, 0.2]))
    specs = [
        KernelSpec.szego(),
        KernelSpec.bergman(3.0),
        KernelSpec.dbr(b),
        KernelSpec.dbr_power(b, 2),
    ]
    for spec in specs:
        g = gram(spec, pts)
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert np.max(np.abs(g.diagonal().imag)) == 0.0


def test_eval_kernel_matches_gram_and_conjugate_symmetry():
    b = SelfMapDisk(DiskPoly([0.2, 0.4]))
    spec = KernelSpec.dbr_power(b, 3)
    pts = PointSet([0.3 + 0.2j, -0.1j, 0.5])
    g = gram(spec, pts)
    raw = pts.points[:, 0]
    for i in range(3):
        for j in range(3):
            v = eval_kernel(spec, raw[i], raw[j])
            assert abs(v - g[i, j]) <= 1e-13
            assert abs(v - np.conj(eval_kernel(spec, raw[j], raw[i]))) <= 1e-13


def test_dbr_gram_matches_direct_formula():
    b = blaschke_factor(0.3)
    pts = PointSet([0.25, -0.4j])
    g = gram(KernelSpec.dbr(b), pts)
    z = pts.points[:, 0]
    bv = b.series(z)
    expect = (1.0 - np.outer(bv, bv.conj())) / (1.0 - np.outer(z, z.conj()))
    assert np.max(np.abs(g - expect)) <= 1e-13


def test_dbr_power_is_entrywise_power():
    b = SelfMapDisk(DiskPoly([0.0, 0.6, 0.2]))
    rng = np.random.default_rng(22)
    pts = sample_point_set(rng, 1, 0.7, 5)
    base = gram(KernelSpec.dbr(b), pts)
    for alpha in (2, 3):
        powered = gram(KernelSpec.dbr_power(b, alpha), pts)
        assert np.max(np.abs(powered - base**alpha)) <= 1e-13


def test_ball_kernel_value():
    spec = KernelSpec.ball(2, 2.0)
    z = np.array([0.3, 0.1j])
    w = np.array([0.2, 0.5])
    ip = z[0] * np.conj(w[0]) + z[1] * np.conj(w[1])
    assert eval_kernel(spec, z, w) == pytest.approx((1 - ip) ** -2.0, rel=1e-14)


def test_ball_map_kernel_against_direct_formula():
    r = 1.0
    bm = BallMap([BallPoly(2, {(1, 1): 2 * r}), BallPoly(2, {})])
    spec = KernelSpec.ball_map(bm, 1)
    rng = np.random.default_rng(23)
    pts = sample_point_set(rng, 2, 0.9, 4)
    g = gram(spec, pts)
    z = pts.points
    prod = 2 * r * z[:, 0] * z[:, 1]
    num = 1.0 - np.outer(prod, prod.conj())
    den = 1.0 - z @ z.conj().T
    assert np.max(np.abs(g - num / den)) <= 1e-12


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.bergman(0.5)
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        KernelSpec.dbr_power(b, 0)
    with pytest.raises(ValueError):
        KernelSpec.ball(0, 2.0)
    # a dim-1 ball kernel is legal: it coincides with the weighted disk kernel
    assert KernelSpec.ball(1, 2.0).dim == 1
    spec = KernelSpec.szego()
    assert spec.alpha == 1.0 and spec.dim == 1


def test_kernel_spec_json_round_trip_shape():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    d = KernelSpec.dbr_power(b, 2).to_json_dict()
    assert d["kind"] == "dbr_power"
    assert d["alpha"] == 2.0
    assert d["b"]["dim"] == 1
    d2 = KernelSpec.szego().to_json_dict()
    assert d2 == {"kind": "szego", "alpha": 1.0, "dim": 1}


def test_point_set_validation():
    with pytest.raises(DomainError):
        PointSet([0.5, 1.0])
    with pytest.raises(ValueError):
        PointSet([0.5, 0.5])
    with pytest.raises(ValueError):
        PointSet([0.5, 0.5 + 1e-12])
    with pytest.raises(DomainError):
        PointSet(np.array([[0.8, 0.7]]))
    ps = PointSet([0.5, -0.5])
    assert ps.dim == 1 and ps.points.shape == (2, 1)
    assert ps.to_json_list() == [[[0.5, 0.0]], [[-0.5, 0.0]]]


def test_eval_kernel_rejects_boundary_point():
    with pytest.raises(DomainError):
        eval_kernel(KernelSpec.szego(), 1.0, 0.0)


def test_sample_point_set_deterministic_and_bounded():
    a = sample_point_set(np.random.default_rng(7), 2, 0.9, 12)
    bb = sample_point_set(np.random.default_rng(7), 2, 0.9, 12)
    assert np.array_equal(a.points, bb.points)
    assert np.all(np.linalg.norm(a.points, axis=1) < 0.9)
    c = sample_point_set(np.random.default_rng(8), 2, 0.9, 12)
    assert not np.array_equal(a.points, c.points)


def test_check_psd_accepts_near_singular_positive_gram():
    # two nearly equal points give an almost rank-one matrix whose smallest
    # eigenvalue can round below zero; the size-scaled tolerance absorbs it
    cert = check_psd(KernelSpec.szego(), PointSet([0.3, 0.3 + 2e-6]))
    assert cert.verdict == PSD
    assert cert.witness is None
    assert cert.tolerance > 0


def test_check_psd_flags_indefinite_gram():
    bm = BallMap([BallPoly(2, {(1, 1): 2.0}), BallPoly(2, {})])
    spec = KernelSpec.ball_map(bm, 1)
    cert = find_negative_witness(spec, seed=0, radius=0.95, set_size=8, budget=50)
    assert cert is not None
    assert cert.verdict == NEGATIVE
    assert cert.min_eigenvalue < -1e-6
    assert cert.witness is not None
    pts = cert.witness.point_set

    # recompute the quadratic form from scratch through the scalar evaluator
    v = np.asarray(cert.witness.coeffs)
    m = pts.points.shape[0]
    g2 = np.array([[eval_kernel(spec, pts.points[i], pts.points[j])
                    for j in range(m)] for i in range(m)])
    quad = float(np.real(v.conj() @ g2 @ v))
    assert quad <= -cert.tolerance / 2


def test_find_negative_witness_none_for_psd_kernel():
    out = find_negative_witness(KernelSpec.szego(), seed=1, radius=0.9,
                                set_size=6, budget=20)
    assert out is None


def test_certificate_json_keys():
    cert = check_psd(KernelSpec.bergman(2.0), PointSet([0.1, 0.4j]))
    d = cert.to_json_dict()
    assert set(d) == {"spec", "min_eigenvalue", "tolerance", "verdict",
                      "witness"}
    assert d["verdict"] == "PSD"
    assert d["witness"] is None


def test_overflowing_kernel_values_are_refused():
    # (1 - z conj(w)) ** (-1e308) overflows for any two points near zero;
    # the map kernel's ratio ** 1000 overflows in the witness screen
    pts = sample_point_set(np.random.default_rng(0), 1, 0.95, 5)
    message = "kernel values overflow on these points"
    with pytest.raises(ValueError, match="bergman " + message):
        gram(KernelSpec.bergman(1e308), pts)
    with pytest.raises(ValueError, match="bergman " + message):
        check_psd(KernelSpec.bergman(1e308), pts)
    with pytest.raises(ValueError, match="ball_map " + message):
        find_negative_witness(_br_spec(0.95, alpha=1000.0), seed=0,
                              radius=0.95, set_size=8, budget=3)


def test_seed_tuple_normalization():
    assert seed_tuple(5) == (5,)
    assert seed_tuple((2, 3)) == (2, 3)
    assert seed_tuple([2, 3]) == (2, 3)
    assert seed_tuple(np.int64(4)) == (4,)


# --- the batched witness search against the one-trial-at-a-time search ----
#
# The functions below are the sampler, with its admission rule written out
# independently, the Gram assembly as it was before the search was batched,
# and a search loop that decides one trial at a time on the same
# trial_stream blocks.  They are the reference the batched search must
# reproduce bit for bit.


def _admitted(rad_u, radius):
    # radius * sqrt(sum of the radius uniforms) < radius, summed in order
    return radius * math.sqrt(np.cumsum(rad_u)[-1]) < radius


def _serial_sample_point_set(rng, dim, radius, count, max_rejects=10000):
    pts = np.zeros((count, dim), dtype=complex)
    have = 0
    rejects = 0
    while have < count:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        rad_u = rng.uniform(0.0, 1.0, size=dim)
        cand = radius * np.sqrt(rad_u) * np.exp(1j * theta)
        ok = _admitted(rad_u, radius)
        if ok and have > 0:
            sep = np.min(np.linalg.norm(pts[:have] - cand[None, :], axis=1))
            ok = sep > kernels.MIN_POINT_SEPARATION
        if ok:
            pts[have] = cand
            have += 1
        else:
            rejects += 1
            if rejects > max_rejects:
                raise RuntimeError("point sampling failed to fill the set")
    return PointSet(pts)


def _serial_gram_entries(spec, pts):
    ip = pts @ pts.conj().T
    den = 1.0 - ip
    if spec.kind == "szego":
        g = 1.0 / den
    elif spec.kind in ("bergman", "ball"):
        g = den ** (-spec.alpha)
    elif spec.kind == "dbr":
        bv = spec.b_disk(pts[:, 0])
        g = (1.0 - np.outer(bv, bv.conj())) / den
    elif spec.kind == "dbr_power":
        bv = spec.b_disk(pts[:, 0])
        g = ((1.0 - np.outer(bv, bv.conj())) / den) ** int(spec.alpha)
    else:
        bz = spec.b_ball(pts)
        num = 1.0 - bz @ bz.conj().T
        ratio = num / den
        g = ratio ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
            else ratio ** spec.alpha
    return 0.5 * (g + g.conj().T)


def _serial_gram(spec, point_set):
    return _serial_gram_entries(spec, point_set.points)


def _block(dim, set_size):
    """Uniforms in a trial's block: 2 dim uniforms per candidate, for about
    twice the candidates a set needs in an even count, as
    find_negative_witness sizes it."""
    draws = min(2 * set_size * math.factorial(dim) + 16, set_size + 10000)
    return 2 * dim * (draws - draws % 2)


def _trial_rng(seed, trial, dim, set_size):
    return trial_stream(seed, trial, _block(dim, set_size))


def _serial_search(spec, *, seed, radius, set_size, budget):
    """Returns (trial, points, certificate JSON) of the first NEGATIVE trial."""
    # check_psd builds its Gram through the module's name for gram, so the
    # old assembly stands in for it
    with mock.patch.object(kernels, "gram", _serial_gram):
        for trial in range(budget):
            rng = _trial_rng(seed, trial, spec.dim, set_size)
            pts = _serial_sample_point_set(rng, spec.dim, radius, set_size)
            cert = check_psd(spec, pts)
            if cert.verdict == NEGATIVE:
                return trial, pts.points, json.dumps(cert.to_json_dict())
    return None


def _batched_search(spec, **kw):
    cert = find_negative_witness(spec, **kw)
    if cert is None:
        return None
    pts = cert.witness.point_set
    trial = next(t for t in range(kw["budget"])
                 if np.array_equal(_serial_sample_point_set(
                     _trial_rng(kw["seed"], t, spec.dim, kw["set_size"]),
                     spec.dim, kw["radius"], kw["set_size"]).points,
                     pts.points))
    return trial, pts.points, json.dumps(cert.to_json_dict())


def _assert_same_search(spec, **kw):
    expect = _serial_search(spec, **kw)
    got = _batched_search(spec, **kw)
    if expect is None:
        assert got is None
        return None
    assert got is not None
    assert got[0] == expect[0]
    assert np.array_equal(got[1], expect[1])
    assert got[2] == expect[2]
    return expect[0]


_DISK_B = SelfMapDisk(DiskPoly([0.1, 0.5, 0.3]))

_KIND_SPECS = {
    "szego": KernelSpec.szego(),
    "bergman": KernelSpec.bergman(2.5),
    "dbr": KernelSpec.dbr(_DISK_B),
    "dbr_power": KernelSpec.dbr_power(_DISK_B, 3),
    "dbr_power_alpha_1": KernelSpec.dbr_power(_DISK_B, 1),
    "ball": KernelSpec.ball(3, 2.0),
    "ball_map": KernelSpec.ball_map(
        BallMap([BallPoly(2, {(1, 1): 2.0}), BallPoly(2, {})]), 2),
    "ball_map_fractional": KernelSpec.ball_map(
        BallMap([BallPoly(2, {(1, 1): 1.2}), BallPoly(2, {})]), 1.5),
    # alpha 1 skips the power: ratio ** 1 has the ratio's bytes
    "ball_map_alpha_1": KernelSpec.ball_map(
        BallMap([BallPoly(2, {(1, 1): 1.6}), BallPoly(2, {})]), 1),
}


def _br_spec(r, alpha=1.0):
    return KernelSpec.ball_map(
        BallMap([BallPoly(2, {(1, 1): 2.0 * r}), BallPoly(2, {})]), alpha)


@pytest.mark.parametrize("name", sorted(_KIND_SPECS))
def test_gram_bytes_unchanged_for_every_kind(name):
    spec = _KIND_SPECS[name]
    pts = sample_point_set(np.random.default_rng(31), spec.dim, 0.9, 7)
    entries = gram(spec, pts)
    assert entries.tobytes() == _serial_gram_entries(spec, pts.points).tobytes()


def test_sample_point_set_consumes_the_same_draws_as_before():
    for dim, radius, count in ((1, 0.5, 50), (2, 0.95, 8), (2, 0.3, 20),
                               (3, 0.9, 6)):
        new = np.random.default_rng((dim, count))
        old = np.random.default_rng((dim, count))
        # several sets from one shared generator, as ball-lemma draws them
        for _ in range(4):
            a = sample_point_set(new, dim, radius, count)
            b = _serial_sample_point_set(old, dim, radius, count)
            assert np.array_equal(a.points, b.points)
        assert new.random() == old.random()


@pytest.mark.parametrize("name", sorted(_KIND_SPECS))
def test_batched_search_matches_serial_for_every_kind(name):
    spec = _KIND_SPECS[name]
    radius = 0.95 if spec.dim == 2 else 0.9
    _assert_same_search(spec, seed=(4, 1), radius=radius, set_size=6,
                        budget=40)


@pytest.mark.parametrize("r, expect", [(0.5, None), (0.75, 177), (1.0, 0)])
def test_batched_search_matches_serial_on_the_product_map(r, expect):
    # seed 134: no witness at r = 0.5, one in the middle of the chunk of
    # trials 127-254 at r = 0.75, and one at trial 0 at r = 1
    budget = 200 if r == 0.5 else 1100
    trial = _assert_same_search(_br_spec(r), seed=134, radius=0.95,
                                set_size=8, budget=budget)
    assert trial == expect


def test_batched_search_with_zero_budget():
    for r in (0.5, 1.0):
        assert find_negative_witness(_br_spec(r), seed=0, radius=0.95,
                                     set_size=8, budget=0) is None


# with a cap of 16 the chunks are trials 0, 1-2, 3-6, 7-14, 15-30, 31-46, ...
@pytest.mark.parametrize("seed, budget, expect", [
    (35, 40, 1),      # second chunk
    (33, 40, 3),      # first trial of the third chunk
    (60, 40, 20),     # first chunk at the cap
    (48, 40, 34),     # last, partial chunk
    (48, 30, None),   # budget ends inside a chunk, before the witness
])
def test_batched_search_across_chunk_boundaries(monkeypatch, seed, budget,
                                                expect):
    monkeypatch.setattr(kernels, "_CHUNK_TRIALS", 16)
    trial = _assert_same_search(_br_spec(0.8), seed=seed, radius=0.95,
                                set_size=8, budget=budget)
    assert trial == expect


def _spy(monkeypatch, name, record=lambda *args: args):
    """What ``record`` makes of the arguments of each call to kernels.<name>."""
    seen = []
    real = getattr(kernels, name)

    def spy(*args, **kwargs):
        seen.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, name, spy)
    return seen


def _screened_chunks(monkeypatch):
    return _spy(monkeypatch, "_screen", lambda spec, base, trials, *_: len(trials))


def test_witness_at_trial_zero_screens_one_trial(monkeypatch):
    sizes = _screened_chunks(monkeypatch)
    cert = find_negative_witness(_br_spec(1.0), seed=0, radius=0.95,
                                 set_size=8, budget=1100)
    assert cert is not None and cert.verdict == NEGATIVE
    assert sizes == [1]


def test_search_chunks_double_up_to_the_cap(monkeypatch):
    sizes = _screened_chunks(monkeypatch)
    # seed 134, r = 0.75: the witness is trial 177, in the chunk of trials
    # 127-254; r = 0.5: no witness, so chunks reach the cap of 16
    assert _assert_same_search(_br_spec(0.75), seed=134, radius=0.95,
                               set_size=8, budget=1100) == 177
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128]
    sizes.clear()
    monkeypatch.setattr(kernels, "_CHUNK_TRIALS", 16)
    assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                 set_size=8, budget=50) is None
    assert sizes == [1, 2, 4, 8, 16, 16, 3]


def test_batched_search_reruns_trials_it_cannot_screen(monkeypatch):
    # a wide separation gives some trials a close pair, which the screen
    # defers and the serial sampler resolves by re-drawing
    monkeypatch.setattr(kernels, "MIN_POINT_SEPARATION", 0.3)
    reruns = _spy(monkeypatch, "sample_point_set")
    for r in (0.5, 0.8):
        _assert_same_search(_br_spec(r), seed=2, radius=0.95, set_size=8,
                            budget=30)
    assert len(reruns) == 10


def test_screen_never_clears_a_negative_trial():
    spec = _br_spec(0.8)
    base = (6,)
    trials = range(64)
    # 12 draws hold 6 admissible candidates on average, 48 hold 24
    for draws in (12, 20, 48):
        negative = set()
        for t in trials:
            pts = _serial_sample_point_set(trial_stream(base, t, 4 * draws),
                                           2, 0.95, 8)
            if check_psd(spec, pts).verdict == NEGATIVE:
                negative.add(t)
        assert negative
        deferred = kernels._screen(spec, base, trials, 0.95, 8, draws)
        assert negative <= set(deferred)
        assert deferred == sorted(deferred)
        for t in trials:
            u = trial_stream(base, t, 4 * draws).random((draws, 4))
            if sum(_admitted(row[2:], 0.95) for row in u) < 8:
                assert t in deferred


def test_batched_search_gives_up_where_the_serial_sampler_does():
    # in dim 7 one polydisk draw in 5040 lands in the ball, so filling 8
    # points takes more rejections than sample_point_set allows
    spec = KernelSpec.ball(7, 1.0)
    for search in (_serial_search, find_negative_witness):
        with pytest.raises(RuntimeError):
            search(spec, seed=0, radius=0.9, set_size=8, budget=3)


# --- the one admission and separation rule, and the Cholesky clearing rule --


def _screen_and_sampler(monkeypatch, block, radius, count):
    """On planted blocks: the trials _screen defers, the points it keeps,
    and per trial the points sample_point_set keeps from the same block."""
    dim = block.shape[-1] // 2
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "trial_stream", lambda base, trial, n: mock.Mock(
            random=lambda shape: block[trial:trial + shape[0]].reshape(shape)))
        kept = _spy(mp, "_kernel_matrix", lambda spec, pts: pts)
        deferred = kernels._screen(KernelSpec.ball(dim, 1.0), (0,), range(len(block)),
                                   radius, count, block.shape[1])
    serial = [sample_point_set(mock.Mock(random=mock.Mock(side_effect=list(rows))),
                               dim, radius, count).points.tobytes()
              for rows in block]
    return deferred, [k.tobytes() for k in kept[0]], serial


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [0.3, 0.6, 0.95])
def test_screen_keeps_the_samplers_points_or_defers(monkeypatch, dim, radius):
    # cap trials: candidate 0's radius uniforms sum to within 40 spacings of
    # 1, the cap; pair trials: candidate 1 is candidate 0 turned to 0.5 to
    # 1.5 MIN_POINT_SEPARATION from it.  The last two lie well inside.
    half, rad_u = 0.5 * np.spacing(1.0), 0.25 / dim
    caps = [[1.0 - j * half] for j in range(1, 41)] if dim == 1 else \
        [[0.5 / (dim - 1)] * (dim - 1) + [0.5 + j * half] for j in range(-40, 41)]
    turn = kernels.MIN_POINT_SEPARATION / (2 * np.pi * radius * math.sqrt(rad_u))
    c0, inner = [0.1] * dim + [rad_u] * dim, \
        [[0.4] * dim + [0.2 / dim] * dim, [0.7] * dim + [0.05 / dim] * dim]
    cap_trials = [[[a] * dim + cap, c0] + inner
                  for cap in caps for a in (np.arange(16) + 0.5) / 16]
    pair_trials = [[c0, [0.1 + f * turn] + c0[1:]] + inner
                   for f in np.linspace(0.5, 1.5, 101)]
    block = np.array(cap_trials + pair_trials)
    # the complex norm and the one rule disagree on some cap candidates
    old = [np.linalg.norm(c) < radius for c in kernels._candidates(block[:, 0], radius)]
    assert np.any(old != kernels._inside(block[:, 0], radius))
    # the screen keeps the sampler's points at the cap, and defers exactly
    # the pair trials in which the sampler rejects candidate 1
    deferred, kept, serial = _screen_and_sampler(monkeypatch, block, radius, 3)
    assert deferred == [t for t, pts in enumerate(serial) if pts != kept[t]]
    assert len(cap_trials) <= deferred[0] and len(deferred) < len(pair_trials)


def test_screen_hands_oversized_grams_to_the_serial_path(monkeypatch):
    # with a cap of 64 values a 9-point Gram is too large to stack
    monkeypatch.setattr(kernels, "_CHUNK_VALUES", 64)
    ndims = _spy(monkeypatch, "_kernel_matrix", lambda spec, pts: pts.ndim)
    for r in (0.5, 0.8, 0.95):
        _assert_same_search(_br_spec(r), seed=9, radius=0.95, set_size=9,
                            budget=30)
    assert ndims and set(ndims) == {2}


def _unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _planted(rng, spectrum):
    q = _unitary(rng, len(spectrum))
    g = (q * spectrum) @ q.conj().T
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("m", [1, 2, 8, 24, 40])
def test_cholesky_clears_only_what_the_eigenvalue_screen_would(m):
    rng = np.random.default_rng(m)
    tol = kernels.TOL_SCALE * m * np.finfo(float).eps  # lambda_max is 1
    stack, planted = [], []
    for lo in np.linspace(-2.0 * tol, tol, 31):
        for _ in range(3):
            # the other eigenvalues all 1 (max G_ii near lambda_max, so
            # tol_lo near tol), or spread over [0, 1]
            for rest in (np.ones(m), rng.uniform(0.0, 1.0, m)):
                spectrum = rest.copy()
                spectrum[-1] = 1.0
                spectrum[0] = lo if m > 1 else lo / tol
                stack.append(_planted(rng, spectrum))
                planted.append(spectrum[0])
    stack = np.array(stack)
    cleared = ~kernels._uncleared(stack)
    lam = np.linalg.eigvalsh(stack)
    assert np.all(lam[cleared, 0] >= -kernels.eig_tolerance(lam[cleared]) / 2)
    if m <= 24:
        # not vacuous: every planted positive semidefinite matrix but the
        # 1 x 1 zero is cleared
        psd = np.array(planted) >= 0.0
        assert np.all(cleared[psd] | (lam[:, -1] == 0.0)[psd])
    else:
        assert not cleared.any()


def test_cholesky_bound_admits_sets_up_to_23():
    # equal diagonals: tr(A) = m max_i A_ii, and the backward error bound
    # fits in the shift for m <= 23 only
    for m in (1, 2, 22, 23, 24, 25, 40):
        got = kernels._uncleared(np.eye(m, dtype=complex)[None] * 3.0)
        assert got.tolist() == [m > 23]


@pytest.mark.parametrize("failing", [(), (0,), (6,), (0, 1, 2, 3, 4, 5, 6),
                                     (1, 4, 5), (0, 2, 3, 6)])
def test_uncleared_bisects_to_exactly_the_failing_set(failing):
    rng = np.random.default_rng(len(failing))
    stack = np.array([_planted(rng, [-1.0] + [1.0] * 7) if t in failing
                      else _planted(rng, rng.uniform(0.5, 1.0, 8))
                      for t in range(7)])
    expect = [t in failing for t in range(7)]
    assert kernels._uncleared(stack).tolist() == expect
    for k in (1, 2):
        assert kernels._uncleared(stack[:k]).tolist() == expect[:k]
    assert kernels._uncleared(stack[:0]).shape == (0,)


def test_search_above_the_bound_size_matches_serial(monkeypatch):
    # m = 40 at radius 0.3: nearly equal diagonals, so the bound never fits
    # and every trial is decided by the serial path
    calls = _spy(monkeypatch, "sample_point_set")
    assert _assert_same_search(_br_spec(0.5), seed=3, radius=0.3,
                               set_size=40, budget=10) is None
    assert len(calls) == 10
    for set_size in (24, 30):
        assert _assert_same_search(_br_spec(0.8), seed=1, radius=0.95,
                                   set_size=set_size, budget=20) == 0


def test_bounded_regime_needs_no_serial_decision(monkeypatch):
    calls = _spy(monkeypatch, "sample_point_set")
    assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                 set_size=8, budget=10000) is None
    assert calls == []


def test_search_builds_one_stream_per_chunk(monkeypatch):
    # building a generator costs about 20 us, so one per trial would cost
    # more than screening the trial: an exhausted search builds one Philox
    # per screened chunk and one per serial re-decision
    sizes = _screened_chunks(monkeypatch)
    calls = _spy(monkeypatch, "sample_point_set")
    with mock.patch.object(np.random, "Philox",
                           wraps=np.random.Philox) as built:
        assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                     set_size=8, budget=10000) is None
    assert sum(sizes) == 10000
    assert 0 < built.call_count <= len(sizes) + len(calls)


def test_search_calls_no_eigenvalue_solver_in_the_screen():
    with mock.patch.object(np.linalg, "eigvalsh",
                           side_effect=AssertionError("eigvalsh")):
        for r in (0.5, 0.75, 1.0):
            find_negative_witness(_br_spec(r), seed=0, radius=0.95,
                                  set_size=8, budget=400)
        with mock.patch.object(np.linalg, "eigh",
                               side_effect=AssertionError("eigh")):
            kernels._screen(_br_spec(0.8), (6,), range(64), 0.95, 8, 48)


def test_screen_builds_only_the_kept_candidates(monkeypatch):
    rows = _spy(monkeypatch, "_candidates", lambda u, _: u.size // u.shape[-1])
    base, trials, count, draws = (6,), range(100, 356), 8, 20
    kernels._screen(_br_spec(0.8), base, trials, 0.95, count, draws)
    u = trial_stream(base, trials.start, draws * 4).random(
        (len(trials), draws, 4))
    inside = kernels._inside(u, 0.95)
    full = int(np.sum(inside.sum(axis=1) >= count))
    assert 0 < full < len(trials)
    assert rows == [count * full]


# --- the search's stream and the experiments' substreams ------------------


@pytest.mark.parametrize("seed", [0, 12345, (0, 1), (4, 1), (2**40, 7),
                                  (1, 2, 3, 4, 5), (2**70, 3, 9, 2**33, 6)])
@pytest.mark.parametrize("trials", [range(0, 1), range(1023, 2047),
                                    range(2**32 - 5, 2**32 + 5)])
def test_substream_uniforms_equal_default_rng(seed, trials):
    # the helper every experiment draws through: an int or a tuple seed,
    # multi-word seeds and indices, then the index, and no index at all
    base = seed_tuple(seed)
    for index in ((trials[0],), (trials[-1],), (3, trials[-1]), ()):
        assert substream(seed, *index).random(12).tobytes() == \
            np.random.default_rng(base + index).random(12).tobytes()


@pytest.mark.parametrize("seed", [0, (4, 1), (2**40, 7),
                                  (2**70, 3, 9, 2**33, 6)])
@pytest.mark.parametrize("start, trials", [
    (0, range(0, 9)),                  # a chunk from the stream's start
    (5, range(5, 12)),                 # a chunk that starts mid-stream
    (1000, range(1023, 1030)),         # a trial reached from an earlier one
    (2**32 - 3, range(2**32 - 3, 2**32 + 3)),  # around 2**32
])
def test_trial_stream_blocks_are_rows_of_one_draw(seed, start, trials):
    n = 12
    rows = trial_stream(seed, start, n).random((trials.stop - start, n))
    for t in trials:
        got = trial_stream(seed, t, n).random(n)
        assert got.tobytes() == rows[t - start].tobytes()
    # a block read a few uniforms at a time, as sample_point_set reads it
    rng = trial_stream(seed, trials[-1], n)
    pieces = np.concatenate([rng.random(2) for _ in range(n // 2)])
    assert pieces.tobytes() == rows[-1].tobytes()
    # the bare stream is trial 0, whatever the block size
    assert trial_stream(seed).random(n).tobytes() == \
        trial_stream(seed, 0, 6).random(n).tobytes()


def test_trial_stream_refuses_misaligned_trials():
    for n in (1, 2, 6, 10):
        with pytest.raises(ValueError, match=f"blocks of 4k uniforms, not {n}"):
            trial_stream(0, 1, n)
        trial_stream(0, 0, n)  # trial 0 starts at the stream's start
    trial_stream(0, 3, 8)


def test_negative_witness_budget_is_refused():
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        find_negative_witness(_br_spec(0.5), seed=0, radius=0.95, set_size=8,
                              budget=-1)
