"""Gram assembly, positivity certificates, and counterexample search."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from kernelcomp import ball, cli, dbr, kernels
from kernelcomp.ball import br_experiment
from kernelcomp.cli import ExperimentConfig, run_experiment
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
from oracles import (
    copying_uncleared,
    eigh_check_psd,
    eval_kernel,
    out_of_place_kernel_matrix,
    traced_peak,
)
from test_default_digests import SAMPLER_CONFIGS, SEEDS
from test_golden import GOLDEN


def test_szego_gram_two_point_closed_form():
    # points 0 and 1/2 give [[1, 1], [1, 4/3]]; smallest eigenvalue of that
    # matrix is (7 - sqrt(37)) / 6
    g = gram(KernelSpec("szego"), PointSet([0.0, 0.5]))
    expect = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.max(np.abs(g - expect)) <= 1e-15
    lam = np.linalg.eigvalsh(g)[0]
    assert lam == pytest.approx((7.0 - math.sqrt(37.0)) / 6.0, rel=1e-12)


def test_gram_is_hermitian_with_real_diagonal():
    rng = np.random.default_rng(21)
    pts = sample_point_set(rng, 1, 0.8, 6)
    b = SelfMapDisk(DiskPoly([0.1, 0.3, 0.2]))
    specs = [
        KernelSpec("szego"),
        KernelSpec("bergman", 3.0),
        KernelSpec("dbr", b=b),
        KernelSpec("dbr_power", 2, b),
    ]
    for spec in specs:
        g = gram(spec, pts)
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert np.max(np.abs(g.diagonal().imag)) == 0.0


def test_eval_kernel_matches_gram_and_conjugate_symmetry():
    b = SelfMapDisk(DiskPoly([0.2, 0.4]))
    spec = KernelSpec("dbr_power", 3, b)
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
    g = gram(KernelSpec("dbr", b=b), pts)
    z = pts.points[:, 0]
    bv = b.series(z)
    expect = (1.0 - np.outer(bv, bv.conj())) / (1.0 - np.outer(z, z.conj()))
    assert np.max(np.abs(g - expect)) <= 1e-13


def test_dbr_power_is_entrywise_power():
    b = SelfMapDisk(DiskPoly([0.0, 0.6, 0.2]))
    rng = np.random.default_rng(22)
    pts = sample_point_set(rng, 1, 0.7, 5)
    base = gram(KernelSpec("dbr", b=b), pts)
    for alpha in (2, 3):
        powered = gram(KernelSpec("dbr_power", alpha, b), pts)
        assert np.max(np.abs(powered - base**alpha)) <= 1e-13


def test_ball_kernel_value():
    spec = KernelSpec("ball", 2.0, dim=2)
    z = np.array([0.3, 0.1j])
    w = np.array([0.2, 0.5])
    ip = z[0] * np.conj(w[0]) + z[1] * np.conj(w[1])
    assert eval_kernel(spec, z, w) == pytest.approx((1 - ip) ** -2.0, rel=1e-14)


def test_ball_map_kernel_against_direct_formula():
    r = 1.0
    bm = BallMap([BallPoly(2, {(1, 1): 2 * r}), BallPoly(2, {})])
    spec = KernelSpec("ball_map", 1, bm)
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
        KernelSpec("bergman", 0.5)
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        KernelSpec("dbr_power", 0, b)
    with pytest.raises(ValueError):
        KernelSpec("ball", 2.0, dim=0)
    # a dim-1 ball kernel is legal: it coincides with the weighted disk kernel
    assert KernelSpec("ball", 2.0, dim=1).dim == 1
    spec = KernelSpec("szego")
    assert spec.alpha == 1.0 and spec.dim == 1


def test_kernel_spec_json_round_trip_shape():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    d = KernelSpec("dbr_power", 2, b).to_json_dict()
    assert d["kind"] == "dbr_power"
    assert d["alpha"] == 2.0
    assert d["b"]["dim"] == 1
    d2 = KernelSpec("szego").to_json_dict()
    assert d2 == {"kind": "szego", "alpha": 1.0, "dim": 1}


def test_point_set_validation():
    with pytest.raises(DomainError):
        PointSet([0.5, 1.0])
    with pytest.raises(DomainError):
        PointSet(np.array([[0.8, 0.7]]))
    ps = PointSet([0.5, -0.5])
    assert ps.dim == 1 and ps.points.shape == (2, 1)
    assert ps.to_json_list() == [[[0.5, 0.0]], [[-0.5, 0.0]]]


def test_eval_kernel_rejects_boundary_point():
    with pytest.raises(DomainError):
        eval_kernel(KernelSpec("szego"), 1.0, 0.0)


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
    cert = check_psd(KernelSpec("szego"), PointSet([0.3, 0.3 + 2e-6]))
    assert cert.verdict == PSD
    assert cert.witness is None
    assert cert.tolerance > 0


def test_check_psd_flags_indefinite_gram():
    bm = BallMap([BallPoly(2, {(1, 1): 2.0}), BallPoly(2, {})])
    spec = KernelSpec("ball_map", 1, bm)
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


def _solver_calls(monkeypatch):
    """Names of the numpy eigen-solvers called, in order."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, real=real:
                            calls.append(name) or real(a))
    return calls


def test_check_psd_solves_for_a_vector_only_on_negative(monkeypatch):
    negative = find_negative_witness(_br_spec(1.0), seed=0, radius=0.95,
                                     set_size=8, budget=1)
    calls = _solver_calls(monkeypatch)
    assert check_psd(KernelSpec("bergman", 2.0), PointSet([0.1, 0.4j])).verdict == PSD
    assert calls == ["eigvalsh"]
    calls.clear()
    cert = check_psd(negative.spec, negative.witness.point_set)
    assert cert.verdict == NEGATIVE
    assert calls == ["eigvalsh", "eigh"]


def _planted_pair(monkeypatch):
    """A Bergman pair whose Gram, patched in with its off-diagonal tripled,
    is indefinite: a NEGATIVE verdict on two points (a Bergman kernel with
    alpha >= 1 is positive, so the indefinite Gram has to be planted)."""
    spec, pts = KernelSpec("bergman", 2.0), PointSet([0.1, 0.4j])
    g = gram(spec, pts)
    g[0, 1], g[1, 0] = 3 * g[0, 1], 3 * g[1, 0]
    monkeypatch.setattr(kernels, "gram", lambda s, p: g.copy() if p is pts
                        else gram(s, p))
    return spec, pts


def _negative_cases(monkeypatch):
    """(label, spec, points) of NEGATIVE certificates: the planted pair,
    then the br witnesses at r = 0.75 and 1.0 at seeds 0-2."""
    witnesses = []
    for r in (0.75, 1.0):
        for seed in range(3):
            _, cert, found = br_experiment(
                r, trace_degrees=[2], alpha=1.0, section_degree=2,
                witness_budget=10000, set_size=8, radius=0.95, seed=seed)
            assert found
            witnesses.append((f"br r={r} seed={seed}", cert.spec,
                              cert.witness.point_set))
    return [("planted pair", *_planted_pair(monkeypatch))] + witnesses


def test_negative_certificates_match_the_eigh_oracle_byte_for_byte(monkeypatch):
    # a NEGATIVE verdict takes its numbers and witness from eigh, so its
    # certificate is the one a single eigh solve gives, byte for byte
    for label, spec, pts in _negative_cases(monkeypatch):
        cert, old = check_psd(spec, pts), eigh_check_psd(spec, pts)
        assert cert.verdict == old.verdict == NEGATIVE, label
        assert json.dumps(cert.to_json_dict()) == json.dumps(old.to_json_dict()), label


def _pinned_configs():
    """Every config a golden report pins that reaches check_psd: the reduced
    goldens, the default configs at seeds 0-2, and the sampler configs."""
    cfgs = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.config.json"))]
    cfgs += [{"name": name, "seed": seed} for name in ("ball-lemma", "br", "psd")
             for seed in SEEDS]
    cfgs += [{"name": name, "params": params, "seed": seed}
             for name, params, seeds in SAMPLER_CONFIGS.values()
             if name in ("ball-lemma", "br", "psd") for seed in seeds]
    return cfgs


def test_check_psd_agrees_with_the_eigh_oracle_on_the_pinned_configs(monkeypatch):
    # every verdict in the pinned reports: PSD ones within tol of eigh's
    # lambda_min, NEGATIVE ones byte-identical
    seen = []

    def both(spec, pts):
        cert, old = check_psd(spec, pts), eigh_check_psd(spec, pts)
        assert cert.verdict == old.verdict
        if cert.verdict == PSD:
            assert abs(cert.min_eigenvalue - old.min_eigenvalue) <= cert.tolerance
        else:
            assert json.dumps(cert.to_json_dict()) == json.dumps(old.to_json_dict())
        seen.append(cert.verdict)
        return cert

    for module in (kernels, cli, ball, dbr):
        monkeypatch.setattr(module, "check_psd", both)
    for cfg in _pinned_configs():
        run_experiment(ExperimentConfig.from_dict(cfg))
    assert seen.count(PSD) > 100 and seen.count(NEGATIVE) >= 6


def test_find_negative_witness_none_for_psd_kernel():
    out = find_negative_witness(KernelSpec("szego"), seed=1, radius=0.9,
                                set_size=6, budget=20)
    assert out is None


def test_certificate_json_keys():
    cert = check_psd(KernelSpec("bergman", 2.0), PointSet([0.1, 0.4j]))
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
        gram(KernelSpec("bergman", 1e308), pts)
    with pytest.raises(ValueError, match="bergman " + message):
        check_psd(KernelSpec("bergman", 1e308), pts)
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
# The functions below are the sampler, one point at a time with its
# spacings rule written out independently, the Gram assembly as it was
# before the search was batched, and a search loop that decides one trial at
# a time on a stream positioned at the trial's points.  They are the
# reference the batched search must reproduce bit for bit.


def _spacings(rad_u):
    # the first dim spacings of the sorted radius uniforms
    ordered = sorted(float(x) for x in rad_u)
    return np.array([b - a for a, b in zip([0.0] + ordered, ordered)])


def _serial_sample_point_set(rng, dim, radius, count):
    pts = np.zeros((count, dim), dtype=complex)
    for have in range(count):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        rad_u = rng.uniform(0.0, 1.0, size=dim)
        pts[have] = radius * np.sqrt(_spacings(rad_u)) * np.exp(1j * theta)
    return PointSet(pts)


def _serial_gram_entries(spec, pts):
    ip = pts @ pts.conj().T
    den = 1.0 - ip
    if spec.kind == "szego":
        g = 1.0 / den
    elif spec.kind in ("bergman", "ball"):
        g = den ** (-spec.alpha)
    elif spec.kind == "dbr":
        bv = spec.b(pts[:, 0])
        g = (1.0 - np.outer(bv, bv.conj())) / den
    elif spec.kind == "dbr_power":
        bv = spec.b(pts[:, 0])
        g = ((1.0 - np.outer(bv, bv.conj())) / den) ** int(spec.alpha)
    else:
        bz = spec.b(pts)
        num = 1.0 - bz @ bz.conj().T
        ratio = num / den
        g = ratio ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
            else ratio ** spec.alpha
    return 0.5 * (g + g.conj().T)


def _serial_gram(spec, point_set):
    return _serial_gram_entries(spec, point_set.points)


def _trial_rng(seed, trial, dim, set_size):
    """The search's Philox stream positioned at trial ``trial``'s points,
    trial * set_size * 2 dim uniforms in: whole counter steps of 4 uniforms
    by ``advance``, the rest drawn and discarded."""
    offset = trial * set_size * 2 * dim
    bits = np.random.Philox(np.random.SeedSequence(seed_tuple(seed)))
    rng = np.random.Generator(bits.advance(offset // 4))
    rng.random(offset % 4)
    return rng


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
    "szego": KernelSpec("szego"),
    "bergman": KernelSpec("bergman", 2.5),
    "dbr": KernelSpec("dbr", b=_DISK_B),
    "dbr_power": KernelSpec("dbr_power", 3, _DISK_B),
    "dbr_power_alpha_1": KernelSpec("dbr_power", 1, _DISK_B),
    "ball": KernelSpec("ball", 2.0, dim=3),
    "ball_map": KernelSpec(
        "ball_map", 2, BallMap([BallPoly(2, {(1, 1): 2.0}), BallPoly(2, {})])),
    "ball_map_fractional": KernelSpec(
        "ball_map", 1.5, BallMap([BallPoly(2, {(1, 1): 1.2}), BallPoly(2, {})])),
    # alpha 1 skips the power: ratio ** 1 has the ratio's bytes
    "ball_map_alpha_1": KernelSpec(
        "ball_map", 1, BallMap([BallPoly(2, {(1, 1): 1.6}), BallPoly(2, {})])),
}


def _br_spec(r, alpha=1.0):
    return KernelSpec(
        "ball_map", alpha, BallMap([BallPoly(2, {(1, 1): 2.0 * r}), BallPoly(2, {})]))


@pytest.mark.parametrize("name", sorted(_KIND_SPECS))
def test_gram_bytes_unchanged_for_every_kind(name):
    spec = _KIND_SPECS[name]
    pts = sample_point_set(np.random.default_rng(31), spec.dim, 0.9, 7)
    entries = gram(spec, pts)
    assert entries.tobytes() == _serial_gram_entries(spec, pts.points).tobytes()


@pytest.mark.parametrize("name", sorted(_KIND_SPECS))
def test_repeated_points_are_admitted_and_read_psd(name):
    # a Gram with two equal rows is the Gram of the set without the repeat
    # with that row and column copied: PSD exactly when that one is, and
    # singular up to rounding
    spec = _KIND_SPECS[name]
    pts = sample_point_set(np.random.default_rng(32), spec.dim, 0.9, 6).points
    cert = check_psd(spec, PointSet(pts[[0, 1, 2, 3, 4, 5, 2, 0]]))
    assert cert.verdict == check_psd(spec, PointSet(pts)).verdict == PSD
    assert abs(cert.min_eigenvalue) <= cert.tolerance and cert.witness is None


def test_repeated_points_keep_a_negative_verdict():
    spec = _br_spec(1.0)
    cert = find_negative_witness(spec, seed=0, radius=0.95, set_size=8, budget=1)
    pts = cert.witness.point_set.points
    assert check_psd(spec, PointSet(np.concatenate([pts, pts[:2]]))).verdict == NEGATIVE


_IN_PLACE_SPECS = {
    "szego": KernelSpec("szego"),
    "bergman-2": KernelSpec("bergman", 2.0),
    "ball-2": KernelSpec("ball", 2.0, dim=2),
    "ball-1.5": KernelSpec("ball", 1.5, dim=2),
    "dbr": KernelSpec("dbr", b=_DISK_B),
    "dbr_power-3": KernelSpec("dbr_power", 3, _DISK_B),
    "ball_map-1": _br_spec(0.8, 1.0),
    "ball_map-2": _br_spec(0.8, 2.0),
    "ball_map-2.5": _br_spec(0.8, 2.5),
}


@pytest.mark.parametrize("name", sorted(_IN_PLACE_SPECS))
def test_in_place_kernel_matrix_matches_the_out_of_place_one(name):
    # a 40-point set as gram passes it, and a 16 x 8 stack as the screen does
    spec = _IN_PLACE_SPECS[name]
    rng = np.random.default_rng(40)
    single = sample_point_set(rng, spec.dim, 0.95, 40).points
    stack = kernels._candidates(rng.random((16, 8, 2 * spec.dim)), 0.95)
    for pts in (single, stack):
        assert kernels._kernel_matrix(spec, pts).tobytes() == \
            out_of_place_kernel_matrix(spec, pts).tobytes()


def test_in_place_kernel_matrix_still_refuses_overflow():
    # the map ratio ** 1000 overflows on a stack near the boundary
    spec = _br_spec(0.95, alpha=1000.0)
    pts = kernels._candidates(np.random.default_rng(1).random((16, 8, 4)), 0.95)
    for build in (kernels._kernel_matrix, out_of_place_kernel_matrix):
        with pytest.raises(ValueError, match="ball_map kernel values overflow"):
            build(spec, pts)


@pytest.mark.parametrize("m", [200, 400])
def test_gram_holds_two_arrays_of_its_size(monkeypatch, m):
    # the check counts the two m x m arrays the assembly holds; beyond them
    # only numpy's ufunc buffer (getbufsize() elements, used when the
    # hermitization adds a transposed view) and O(m dim) values for the points
    pts = sample_point_set(np.random.default_rng(m), 2, 0.95, m)
    checked = _spy(monkeypatch, "_check_bytes", lambda nbytes, what: nbytes)
    g, peak = traced_peak(lambda: gram(KernelSpec("ball", 2.0, dim=2), pts))
    assert checked == [2 * g.nbytes]
    assert checked[0] / 2 < peak <= checked[0] + 16 * np.getbufsize() + 64 * m * 2


def test_sample_point_set_consumes_the_same_draws_as_before(monkeypatch):
    # several sets from one shared generator, as ball-lemma draws them, of
    # 1 to 400 points: the serial oracle's points, and the generator left
    # where one draw of exactly count * 2 * dim uniforms leaves it
    cases = [(1, 0.5, [50] * 4), (2, 0.95, [8] * 4), (2, 0.3, [20] * 4),
             (3, 0.9, [6] * 4)]
    cases += [(dim, 0.95, [1, 2, 40, 400, 2, 40, 1, 1, 2, 40]) for dim in (1, 2, 3, 4)]
    for dim, radius, counts in cases:
        new = np.random.default_rng((dim, counts[0]))
        old = np.random.default_rng((dim, counts[0]))
        bare = np.random.default_rng((dim, counts[0]))
        for count in counts:
            got = sample_point_set(new, dim, radius, count).points
            expect = _serial_sample_point_set(old, dim, radius, count).points
            assert got.tobytes() == expect.tobytes()
            bare.random((count, 2 * dim))
            assert new.bit_generator.state == old.bit_generator.state \
                == bare.bit_generator.state
    # each trial's points in the search are the sampler's on a stream
    # positioned at the trial, also when a trial's uniforms are not a whole
    # number of Philox counter steps (5 points in dims 1 and 3)
    for dim, count in ((1, 5), (2, 8), (3, 5)):
        stacks = _spy(monkeypatch, "_screen", lambda spec, pts: pts)
        find_negative_witness(KernelSpec("ball", 2.0, dim=dim), seed=7,
                              radius=0.9, set_size=count, budget=35)
        monkeypatch.undo()
        screened = np.concatenate(stacks)
        assert len(screened) == 35
        for t, pts in enumerate(screened):
            drawn = sample_point_set(_trial_rng(7, t, dim, count), dim, 0.9, count)
            assert drawn.points.tobytes() == pts.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 6, 8])
def test_candidates_are_uniform_on_the_ball(dim):
    # on the uniform ball of C^dim, |z|^2 / r^2 spreads as the sum of a
    # point uniform on the solid simplex: E|z_1|^2 / r^2 = 1 / (dim + 1) and
    # E|z|^2 / r^2 = dim / (dim + 1); the polydisk reads 1/2 and dim/2
    radius = 0.9
    z = kernels._candidates(np.random.default_rng((dim, 41)).random((200_000, 2 * dim)),
                            radius)
    sq = np.abs(z) ** 2 / radius ** 2
    for x, mean in ((sq[:, 0], 1 / (dim + 1)), (sq.sum(axis=1), dim / (dim + 1))):
        assert abs(x.mean() - mean) <= 5 * x.std() / math.sqrt(len(x))
    eps = np.finfo(float).eps
    assert np.all(np.linalg.norm(z, axis=1) < radius * (1 + 4 * eps * dim))


def test_candidates_in_dim_1_keep_the_disk_arithmetic():
    u = np.random.default_rng(42).random((1000, 2))
    expect = 0.7 * np.sqrt(u[:, 1:]) * np.exp(1j * (2.0 * np.pi * u[:, :1]))
    assert kernels._candidates(u, 0.7).tobytes() == expect.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_draw_stays_within_the_bytes_it_checks(monkeypatch, dim):
    # 1000 points build every array out of place; at 1e5 numpy reuses the
    # exponential's buffer for the product
    checked = _spy(monkeypatch, "_check_bytes", lambda nbytes, what: nbytes)
    for count in (1000, 100_000):
        rng = np.random.default_rng(dim)
        _, peak = traced_peak(lambda: sample_point_set(rng, dim, 0.95, count))
        assert checked[-1] / 2 < peak <= checked[-1]
    assert len(checked) == 2


@pytest.mark.parametrize("name", sorted(_KIND_SPECS))
def test_batched_search_matches_serial_for_every_kind(name):
    spec = _KIND_SPECS[name]
    radius = 0.95 if spec.dim == 2 else 0.9
    _assert_same_search(spec, seed=(4, 1), radius=radius, set_size=6,
                        budget=40)


@pytest.mark.parametrize("r, expect", [(0.5, None), (0.75, 177), (1.0, 0)])
def test_batched_search_matches_serial_on_the_product_map(r, expect):
    # seed 3671: no witness at r = 0.5, one in the middle of the chunk of
    # trials 127-254 at r = 0.75, and one at trial 0 at r = 1
    budget = 200 if r == 0.5 else 1100
    trial = _assert_same_search(_br_spec(r), seed=3671, radius=0.95,
                                set_size=8, budget=budget)
    assert trial == expect


def test_batched_search_with_zero_budget():
    for r in (0.5, 1.0):
        assert find_negative_witness(_br_spec(r), seed=0, radius=0.95,
                                     set_size=8, budget=0) is None


# with a cap of 16 the chunks are trials 0, 1-2, 3-6, 7-14, 15-30, 31-46, ...
@pytest.mark.parametrize("seed, budget, expect", [
    (49, 40, 1),      # second chunk
    (18, 40, 3),      # first trial of the third chunk
    (12, 40, 20),     # first chunk at the cap
    (10, 40, 34),     # last, partial chunk
    (10, 30, None),   # budget ends inside a chunk, before the witness
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
    return _spy(monkeypatch, "_screen", lambda spec, pts: len(pts))


def _stack(seed, trials, count, radius=0.95, dim=2):
    """The points of the search's first ``trials`` trials of ``count`` points."""
    u = trial_stream(seed).random((trials, count, 2 * dim))
    return kernels._candidates(u, radius)


def test_witness_at_trial_zero_screens_one_trial(monkeypatch):
    sizes = _screened_chunks(monkeypatch)
    cert = find_negative_witness(_br_spec(1.0), seed=0, radius=0.95,
                                 set_size=8, budget=1100)
    assert cert is not None and cert.verdict == NEGATIVE
    assert sizes == [1]


def test_search_chunks_double_up_to_the_cap(monkeypatch):
    sizes = _screened_chunks(monkeypatch)
    # seed 3671, r = 0.75: the witness is trial 177, in the chunk of trials
    # 127-254; r = 0.5: no witness, so chunks reach the cap of 16
    assert _assert_same_search(_br_spec(0.75), seed=3671, radius=0.95,
                               set_size=8, budget=1100) == 177
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128]
    sizes.clear()
    monkeypatch.setattr(kernels, "_CHUNK_TRIALS", 16)
    assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                 set_size=8, budget=50) is None
    assert sizes == [1, 2, 4, 8, 16, 16, 3]


def test_screen_never_clears_a_negative_trial():
    spec = _br_spec(0.8)
    for count in (8, 12):
        stack = _stack(6, 64, count)
        negative = set()
        for t in range(64):
            pts = _serial_sample_point_set(_trial_rng(6, t, 2, count), 2, 0.95, count)
            assert pts.points.tobytes() == stack[t].tobytes()
            if check_psd(spec, pts).verdict == NEGATIVE:
                negative.add(t)
        assert negative
        rows = {p.tobytes(): t for t, p in enumerate(stack)}
        deferred = [rows[p.tobytes()] for p in kernels._screen(spec, stack)]
        assert negative <= set(deferred)
        assert deferred == sorted(deferred)


# --- the Cholesky clearing rule ---------------------------------------------


def test_screen_hands_oversized_grams_to_the_serial_path(monkeypatch):
    # with a cap of 64 values a 9-point Gram is too large to stack, so every
    # set goes unscreened to check_psd, one Gram at a time
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
    cleared = ~kernels._uncleared(stack.copy())  # it shifts what it is given
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
    assert kernels._uncleared(stack.copy()).tolist() == expect
    for k in (1, 2):
        assert kernels._uncleared(stack[:k].copy()).tolist() == expect[:k]
    assert kernels._uncleared(stack[:0]).shape == (0,)


def test_screen_with_a_planted_cholesky_failure_keeps_the_copying_mask(monkeypatch):
    # trial 5's Gram has lambda_min = -1.5 s for its own shift s: shifted
    # once it keeps -0.5 s, which Cholesky refuses, so the chunk is bisected
    # down to it; shifted twice it would be cleared
    spec, m = _br_spec(0.5), 8
    rng = np.random.default_rng(5)
    g0 = _planted(rng, [0.0] + list(rng.uniform(0.5, 1.0, m - 1)))
    s = kernels.TOL_SCALE * m * np.finfo(float).eps * np.max(np.diag(g0).real) / 4
    planted = g0 - 1.5 * s * np.eye(m)
    build = kernels._kernel_matrix

    def planting(spec, pts):
        g = build(spec, pts)
        g[5] = planted
        return g

    monkeypatch.setattr(kernels, "_kernel_matrix", planting)
    pts = _stack(0, 32, m)[16:]
    for rule in (kernels._uncleared, copying_uncleared):
        monkeypatch.setattr(kernels, "_uncleared", rule)
        assert kernels._screen(spec, pts).tobytes() == pts[5:6].tobytes()


def test_screen_chunk_holds_its_gram_stack_and_the_factor():
    # a 1024-trial chunk of 16-point sets in dim 2: beyond the Gram stack and
    # Cholesky's factor it holds O(trials m dim) values (the map's values at
    # the points) and numpy's ufunc buffer
    spec, trials, m = _br_spec(0.5), 1024, 16
    pts = _stack(0, 2 * trials, m)[trials:]
    kernels._screen(spec, pts)  # lazy set-up off the count
    deferred, peak = traced_peak(lambda: kernels._screen(spec, pts))
    stack = trials * m * m * 16
    assert deferred.shape == (0, m, 2)
    assert peak <= 2 * stack + 6 * trials * m * 2 * 16 + 16 * np.getbufsize()


def test_search_above_the_bound_size_matches_serial(monkeypatch):
    # m = 40 at radius 0.3: nearly equal diagonals, so the bound never fits
    # and every trial is decided by check_psd
    calls = _spy(monkeypatch, "check_psd")
    assert _assert_same_search(_br_spec(0.5), seed=3, radius=0.3,
                               set_size=40, budget=10) is None
    assert len(calls) == 10
    for set_size in (24, 30):
        assert _assert_same_search(_br_spec(0.8), seed=1, radius=0.95,
                                   set_size=set_size, budget=20) == 0


def test_bounded_regime_needs_no_serial_decision(monkeypatch):
    calls = _spy(monkeypatch, "check_psd")
    assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                 set_size=8, budget=10000) is None
    assert calls == []


# the product map at r = 0.75 (witness at trial 177), at r = 0.5 (none), and
# a dim-3 map whose 5-point trials read 30 uniforms each, not a whole number
# of Philox counter steps (witness at trial 52)
_SEARCHES = [
    (_br_spec(0.75), dict(seed=3671, radius=0.95, set_size=8, budget=200)),
    (_br_spec(0.5), dict(seed=0, radius=0.95, set_size=8, budget=50)),
    (KernelSpec("ball_map", 1.0, BallMap([BallPoly(3, {(1, 1, 0): 2.0}),
                                          BallPoly(3, {}), BallPoly(3, {})])),
     dict(seed=2, radius=0.95, set_size=5, budget=60)),
]


def _certificates():
    return [json.dumps(None if cert is None else cert.to_json_dict())
            for cert in (find_negative_witness(spec, **kw) for spec, kw in _SEARCHES)]


@pytest.mark.parametrize("cap", [1, 3, 16])
def test_certificate_bytes_do_not_depend_on_the_chunk_cap(monkeypatch, cap):
    expect = _certificates()
    assert [e != "null" for e in expect] == [True, False, True]
    monkeypatch.setattr(kernels, "_CHUNK_TRIALS", cap)
    assert _certificates() == expect


def test_dim_3_search_matches_serial_past_whole_counter_steps():
    spec, kw = _SEARCHES[2]
    assert _assert_same_search(spec, **kw) == 52


def test_search_builds_one_stream_and_draws_no_point_set(monkeypatch):
    # building a generator costs about 20 us: an exhausted 10000-trial search
    # builds one Philox and reads it in order, and no trial is drawn again
    sizes = _screened_chunks(monkeypatch)
    calls = _spy(monkeypatch, "sample_point_set")
    with mock.patch.object(np.random, "Philox",
                           wraps=np.random.Philox) as built:
        assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                     set_size=8, budget=10000) is None
        assert built.call_count == 1
        assert sum(sizes) == 10000 and len(sizes) == 19
        for spec, kw in _SEARCHES:
            find_negative_witness(spec, **kw)
        assert built.call_count == 1 + len(_SEARCHES)
    assert calls == []


def test_check_psd_decides_exactly_the_deferred_sets(monkeypatch):
    # check_psd runs once per set the screen defers, on the screen's own
    # points, in order, until the first NEGATIVE one
    real, deferred = kernels._screen, []

    def screen(spec, pts):
        out = real(spec, pts)
        deferred.extend(p.tobytes() for p in out)
        return out

    monkeypatch.setattr(kernels, "_screen", screen)
    decided = _spy(monkeypatch, "check_psd", lambda spec, pts: pts.points.tobytes())
    cases = _SEARCHES + [(_br_spec(0.5), dict(seed=3, radius=0.3, set_size=40,
                                              budget=10))]
    for spec, kw in cases:
        deferred.clear()
        decided.clear()
        cert = find_negative_witness(spec, **kw)
        assert decided == deferred[:len(decided)]
        if cert is None:
            assert len(decided) == len(deferred)
        else:
            assert decided[-1] == cert.witness.point_set.points.tobytes()
    assert len(decided) == 10


def test_search_calls_no_eigenvalue_solver_in_the_screen(monkeypatch):
    # the screen decides by Cholesky alone; the search's only spectra are
    # the ones check_psd takes of the trials the screen defers
    certs = _spy(monkeypatch, "check_psd")
    calls = _solver_calls(monkeypatch)
    for r in (0.5, 0.75, 1.0):
        find_negative_witness(_br_spec(r), seed=0, radius=0.95,
                              set_size=8, budget=400)
    assert calls.count("eigvalsh") == len(certs) > 0
    calls.clear()
    kernels._screen(_br_spec(0.8), _stack(6, 64, 8))
    assert calls == []


def test_screen_builds_only_the_kept_candidates(monkeypatch):
    # 5 points in dim 3 read 30 uniforms a trial: the search builds each
    # chunk's points once, from exactly its trials' uniforms, and check_psd
    # decides on those points, drawing none again
    shapes = _spy(monkeypatch, "_candidates", lambda u, _: u.shape)
    find_negative_witness(KernelSpec("ball", 2.0, dim=3), seed=6, radius=0.9,
                          set_size=5, budget=100)
    assert shapes == [(k, 5, 6) for k in (1, 2, 4, 8, 16, 32, 37)]


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


def test_negative_witness_budget_is_refused(monkeypatch):
    # the series._is_natural rule: a bool or a float is not an integer, a
    # numpy integer is; each is refused before anything is drawn
    draws = _spy(monkeypatch, "trial_stream")
    for budget in (-1, True, 2.5, 3.0, np.float64(2.0), None):
        with pytest.raises(ValueError, match=re.escape(
                f"witness budget must be a nonnegative integer, got {budget!r}")):
            find_negative_witness(_br_spec(0.5), seed=0, radius=0.95, set_size=8,
                                  budget=budget)
    for set_size in (True, False, 8.0, -1, np.float64(8.0), "8"):
        with pytest.raises(ValueError, match=re.escape(
                f"set_size must be a positive integer, got {set_size!r}")):
            find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                  set_size=set_size, budget=3)
    with pytest.raises(ValueError, match="set_size must be at least 1, got 0"):
        find_negative_witness(_br_spec(0.5), seed=0, radius=0.95, set_size=0, budget=3)
    for radius in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="radius must lie strictly between 0 and 1"):
            find_negative_witness(_br_spec(0.5), seed=0, radius=radius, set_size=8,
                                  budget=3)
    with pytest.raises(ValueError, match="a 100000x100000 Gram would take"):
        find_negative_witness(_br_spec(0.5), seed=0, radius=0.95, set_size=100000,
                              budget=3)
    assert draws == []
    for budget, set_size in ((np.int64(3), 8), (3, np.int32(8)), (0, 8)):
        assert find_negative_witness(_br_spec(0.5), seed=0, radius=0.95,
                                     set_size=set_size, budget=budget) is None
    assert len(draws) == 3
