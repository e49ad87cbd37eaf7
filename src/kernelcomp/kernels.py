"""Kernel evaluation, Gram matrices, and positivity certificates.

A kernel spec names one of the generalized kernels the experiments use; Gram
matrices over admissible point sets are hermitized on assembly; positivity is
decided by the spectrum against a size- and scale-aware tolerance, and failed
positivity comes with a reusable witness (the points plus the offending
eigenvector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import BallMap, SelfMapDisk, _check_bytes

__all__ = [
    "DomainError",
    "SamplingError",
    "PointSet",
    "KernelSpec",
    "PositivityCertificate",
    "Witness",
    "PSD",
    "NEGATIVE",
    "INCONCLUSIVE",
    "gram",
    "check_psd",
    "eig_tolerance",
    "find_negative_witness",
    "sample_point_set",
    "substream",
]

PSD = "PSD"
NEGATIVE = "NEGATIVE"
# reserved verdict: the current decision rule never returns it, but consumers
# of serialized certificates must accept it
INCONCLUSIVE = "INCONCLUSIVE"

MIN_POINT_SEPARATION = 1e-9
# tolerance = TOL_SCALE * size * ||G|| * eps in every positivity verdict
TOL_SCALE = 100.0
# rejections after which sample_point_set gives up
MAX_REJECTS = 10000


class DomainError(ValueError):
    """Points outside the open unit ball (or disk)."""


class SamplingError(RuntimeError):
    """A random draw could not produce a usable input."""


class PointSet:
    """Finite set of pairwise-distinct points strictly inside the unit ball.

    Stored as an (m, dim) complex array; dim-1 sets may be built from a plain
    sequence of complex numbers.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        arr = np.asarray(points, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("points must form a nonempty (m, dim) array")
        radii = np.linalg.norm(arr, axis=1)
        if np.any(radii >= 1.0):
            raise DomainError(f"max |point| = {float(np.max(radii)):.6g}; need < 1")
        if arr.shape[0] > 1:
            diff = arr[:, None, :] - arr[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            dist[np.diag_indices_from(dist)] = np.inf
            if float(np.min(dist)) <= MIN_POINT_SEPARATION:
                raise ValueError("points must be pairwise separated by > 1e-9")
        self.points = arr

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_json_list(self) -> list:
        return [
            [[float(c.real), float(c.imag)] for c in row] for row in self.points
        ]

    def __repr__(self):
        return f"PointSet(count={len(self)}, dim={self.dim})"


_KINDS = ("szego", "bergman", "dbr", "dbr_power", "ball", "ball_map")


@dataclass(frozen=True)
class KernelSpec:
    """One of the kernels under test.

    kind: szego      1 / (1 - z conj(w)) on the disk
          bergman    (1 - z conj(w)) ** (-alpha) on the disk
          dbr        (1 - b(z) conj(b(w))) / (1 - z conj(w))
          dbr_power  the dbr ratio raised to an integer alpha
          ball       (1 - <z, w>) ** (-alpha) on the dim-ball
          ball_map   ((1 - <b(z), b(w)>) / (1 - <z, w>)) ** alpha
    """

    kind: str
    alpha: float = 1.0
    dim: int = 1
    b_disk: SelfMapDisk | None = None
    b_ball: BallMap | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.alpha >= 1.0:
            raise ValueError("alpha must be at least 1")
        if self.kind in ("szego", "bergman", "dbr", "dbr_power") and self.dim != 1:
            raise ValueError(f"kind {self.kind} lives on the disk")
        if self.kind in ("dbr", "dbr_power") and self.b_disk is None:
            raise ValueError(f"kind {self.kind} needs a disk symbol")
        if self.kind == "dbr_power" and self.alpha != int(self.alpha):
            raise ValueError("dbr_power is restricted to integer alpha")
        if self.kind == "szego" and self.alpha != 1.0:
            raise ValueError("szego fixes alpha = 1")
        if self.kind == "ball_map":
            if self.b_ball is None:
                raise ValueError("ball_map needs a BallMap")
            if self.b_ball.dim != self.dim:
                raise ValueError("map and spec dimensions must match")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    @classmethod
    def szego(cls) -> "KernelSpec":
        return cls(kind="szego")

    @classmethod
    def bergman(cls, alpha: float) -> "KernelSpec":
        return cls(kind="bergman", alpha=float(alpha))

    @classmethod
    def dbr(cls, b: SelfMapDisk) -> "KernelSpec":
        return cls(kind="dbr", b_disk=b)

    @classmethod
    def dbr_power(cls, b: SelfMapDisk, alpha: int) -> "KernelSpec":
        return cls(kind="dbr_power", alpha=float(alpha), b_disk=b)

    @classmethod
    def ball(cls, dim: int, alpha: float) -> "KernelSpec":
        return cls(kind="ball", dim=int(dim), alpha=float(alpha))

    @classmethod
    def ball_map(cls, b: BallMap, alpha: float) -> "KernelSpec":
        return cls(kind="ball_map", dim=b.dim, alpha=float(alpha), b_ball=b)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "alpha": float(self.alpha), "dim": self.dim}
        if self.b_disk is not None:
            out["b"] = self.b_disk.series.to_json_dict()
        if self.b_ball is not None:
            out["b"] = {
                "dim": self.b_ball.dim,
                "coords": [c.to_json_dict() for c in self.b_ball.coords],
            }
        return out


def _kernel_matrix(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """Hermitized kernel values K(z_i, z_j) for point stacks (..., m, dim).

    The one place the kernel formulas live: ``gram`` passes a single (m, dim)
    set, the witness screen a (trials, m, dim) stack.  A value that overflows
    (a large alpha on points near the boundary) is refused, not passed on as
    inf or NaN to the eigen-solver.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        den = 1.0 - pts @ np.swapaxes(pts.conj(), -1, -2)
        if spec.kind == "szego":
            g = 1.0 / den
        elif spec.kind in ("bergman", "ball"):
            g = den ** (-spec.alpha)
        elif spec.kind in ("dbr", "dbr_power"):
            bv = spec.b_disk(pts[..., 0])
            g = (1.0 - bv[..., :, None] * bv.conj()[..., None, :]) / den
            if spec.kind == "dbr_power":
                g = g ** int(spec.alpha)
        else:
            bz = spec.b_ball(pts)
            ratio = (1.0 - bz @ np.swapaxes(bz.conj(), -1, -2)) / den
            g = ratio ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
                else ratio ** spec.alpha
        g = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{spec.kind} kernel values overflow on these points")
    return g


def gram(spec: KernelSpec, point_set: PointSet) -> np.ndarray:
    """Gram matrix G[i, j] = K(w_i, w_j), hermitized on assembly, so G
    equals its conjugate transpose exactly.  Raises ValueError when a kernel
    value overflows."""
    if point_set.dim != spec.dim:
        raise DomainError("point set dimension does not match the kernel")
    return _kernel_matrix(spec, point_set.points)


@dataclass
class Witness:
    """Points and coefficients exhibiting a negative kernel quadratic form."""

    point_set: PointSet
    coeffs: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "points": self.point_set.to_json_list(),
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }


@dataclass
class PositivityCertificate:
    """Spectral verdict on a Gram matrix.

    verdict is PSD when the smallest eigenvalue clears -tolerance, NEGATIVE
    otherwise; tolerance = TOL_SCALE * size * ||G|| * eps.  INCONCLUSIVE is
    reserved and never produced by this rule.
    """

    spec: KernelSpec
    min_eigenvalue: float
    tolerance: float
    verdict: str
    witness: Witness | None = None

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def eig_tolerance(lam: np.ndarray):
    """TOL_SCALE * n * max|lambda| * eps for the ascending eigenvalues ``lam``
    of n x n Hermitian matrices, stacked along the leading axes."""
    nrm = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
    return TOL_SCALE * lam.shape[-1] * nrm * float(np.finfo(float).eps)


def check_psd(spec: KernelSpec, point_set: PointSet) -> PositivityCertificate:
    """Eigenvalue test of ``gram(spec, point_set)`` with a scale-aware
    tolerance.

    The tolerance grows with the matrix size and spectral norm so that honest
    rounding never triggers a NEGATIVE verdict; a NEGATIVE certificate carries
    the points and the bottom eigenvector as a witness.
    """
    lam, vec = np.linalg.eigh(gram(spec, point_set))
    lo = float(lam[0])
    tol = float(eig_tolerance(lam))
    if lo >= -tol:
        return PositivityCertificate(spec=spec, min_eigenvalue=lo,
                                     tolerance=tol, verdict=PSD)
    wit = Witness(point_set=point_set, coeffs=vec[:, 0])
    return PositivityCertificate(spec=spec, min_eigenvalue=lo,
                                 tolerance=tol, verdict=NEGATIVE, witness=wit)


def _candidates(u: np.ndarray, radius: float) -> np.ndarray:
    """Candidate points from uniforms of shape (..., 2 * dim).

    A candidate takes its dim angles from its first dim uniforms and its dim
    area-uniform radii from the last dim, the order in which
    ``sample_point_set`` draws them.  ``Generator.uniform(0, 2 pi)`` is
    exactly ``2 pi * random()``, so blocks drawn with ``random`` give the same
    candidates bit for bit.
    """
    dim = u.shape[-1] // 2
    theta = 2.0 * np.pi * u[..., :dim]
    rad = radius * np.sqrt(u[..., dim:])
    return rad * np.exp(1j * theta)


def sample_point_set(rng: np.random.Generator, dim: int, radius: float,
                     count: int) -> PointSet:
    """Draw ``count`` points from the ball of the given radius.

    Each coordinate gets a uniform angle and an area-uniform radius; in
    dimension above one, draws landing outside the radius cap are rejected.
    Re-draws also resolve (vanishingly rare) pair collisions.  Exactly
    2 * dim variates are consumed per candidate, so callers may share one
    generator across draws.  A set whose separation check would need more
    than MAX_SECTION_BYTES is refused before anything is drawn.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    # PointSet checks separation on a (count, count, dim) complex tensor
    _check_bytes(count * count * dim * np.dtype(complex).itemsize,
                 f"the separation check of {count} points in dim {dim}")
    pts = np.zeros((count, dim), dtype=complex)
    have = 0
    rejects = 0
    while have < count:
        cand = _candidates(rng.random(2 * dim), radius)
        ok = float(np.linalg.norm(cand)) < radius
        if ok and have > 0:
            sep = np.min(np.linalg.norm(pts[:have] - cand[None, :], axis=1))
            ok = sep > MIN_POINT_SEPARATION
        if ok:
            pts[have] = cand
            have += 1
        else:
            rejects += 1
            if rejects > MAX_REJECTS:
                raise SamplingError("point sampling failed to fill the set")
    return PointSet(pts)


def seed_tuple(seed) -> tuple:
    """Normalize int or int-sequence seeds to a flat tuple for substreams."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def substream(seed, *index) -> np.random.Generator:
    """The generator of the substream ``seed_tuple(seed) + index``: the one
    place a seed becomes a generator."""
    return np.random.default_rng(seed_tuple(seed) + index)


# Trials screened together, and a cap on the values one screened chunk holds
# (uniforms per trial, or Gram entries per trial, times trials).
_CHUNK_TRIALS = 1024
_CHUNK_VALUES = 1 << 21

# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding
# constants, which _substream_uniforms replays
_MASK32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(h: int, mult: int):
    """SeedSequence's running hash: each call xors in the hash constant,
    steps it by ``mult``, multiplies and folds, on uint32 arrays."""
    def step(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _MASK32
        value = value * np.uint32(h)
        return value ^ value >> 16
    return step


def _pool_states(entropy: np.ndarray) -> list:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    a (trials, words) uint32 entropy array, as four uint64 columns."""
    hashmix = _hasher(_SS_INIT_A, _SS_MULT_A)

    def mix(x, y):
        r = x * np.uint32(_SS_MIX_L) - y * np.uint32(_SS_MIX_R)
        return r ^ r >> 16

    width = entropy.shape[1]
    zero = np.zeros(entropy.shape[0], np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero)
            for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, width):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    out = _hasher(_SS_INIT_B, _SS_MULT_B)
    words = [out(pool[i % _SS_POOL]).astype(np.uint64) for i in range(8)]
    return [words[i] | words[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _seed_words(n: int) -> list:
    """A nonnegative int as SeedSequence reads it: little-endian uint32
    words, one word for zero."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _substream_uniforms(base: tuple, trials: range, n: int) -> np.ndarray:
    """``n`` uniforms from each substream ``substream(base, t)`` for the
    trials ``t`` of a nonempty step-1 range, as a (len(trials), n) array.

    Bit for bit ``np.stack([substream(base, t).random(n) for t in
    trials])``: SeedSequence's entropy mixing runs once over all trials
    whose indices have the same number of uint32 words, the two PCG64
    seeding steps run on Python ints, and one generator, the real
    ``substream`` of the first trial, is reset to each trial's state
    before its draw.  That first row is checked against the generator's
    own seeding, so a numpy that seeds differently raises RuntimeError
    rather than clearing trials the serial search would flag.
    """
    rng = substream(base, trials[0])
    first = rng.random(n)
    prefix = [w for s in base for w in _seed_words(s)]
    out = np.empty((len(trials), n))
    lo = trials.start
    while lo < trials.stop:
        width = len(_seed_words(lo))
        hi = min(trials.stop, 1 << 32 * width)
        t = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
        entropy = np.empty((hi - lo, len(prefix) + width), np.uint32)
        entropy[:, :len(prefix)] = prefix
        for k in range(width):
            word = t >> np.uint64(32 * k) & np.uint64(_MASK32)
            entropy[:, len(prefix) + k] = word
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        for row, (s0, s1, i0, i1) in enumerate(
                zip(*(c.tolist() for c in _pool_states(entropy))),
                start=lo - trials.start):
            # PCG64 seeding from the 128-bit seed s0:s1 and stream i0:i1:
            # inc = 2 * stream + 1, state = (inc + seed) * MULT + inc
            inc =(i0 << 65 | i1 << 1 | 1) & _MASK128
            state["state"] = {
                "state": ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128,
                "inc": inc}
            rng.bit_generator.state = state
            rng.random(out=out[row])
        lo = hi
    if out[0].tobytes() != first.tobytes():
        raise RuntimeError("the batched substream seeding does not match "
                           "numpy's own seeding")
    return out


def _screen(spec: KernelSpec, base: tuple, trials: range, radius: float,
            count: int, draws: int) -> list:
    """Trials of a chunk that the batched screen cannot clear, in order.

    Each trial draws ``draws`` candidates from its own substream (all of
    the chunk's substreams are seeded in one pass by
    ``_substream_uniforms``, bit-identical to ``substream``), keeps
    the first ``count`` inside the radius cap, and has its Gram's smallest
    eigenvalue computed in one batched ``eigvalsh``.  A trial is returned
    when that eigenvalue is below -tol / 2, when its block holds fewer than
    ``count`` admissible candidates, or when ``sample_point_set`` could
    decide its candidates differently: a norm within a few ulps of the
    radius, or two kept points closer than 2 * MIN_POINT_SEPARATION.
    """
    if not 0.0 < radius < 1.0:
        return list(trials)  # the serial path raises the caller's error
    dim = spec.dim
    u = _substream_uniforms(base, trials, draws * 2 * dim)
    cand = _candidates(u.reshape(len(trials), draws, 2 * dim), radius)
    norm = np.linalg.norm(cand, axis=-1)
    inside = norm < radius
    rank = np.cumsum(inside, axis=1)
    full = rank[:, -1] >= count
    looked_at = rank - inside < count
    near = np.abs(norm - radius) <= 4.0 * np.spacing(radius)
    defer = ~full | np.any(near & looked_at, axis=1)

    pts = cand[inside & (rank <= count) & full[:, None]].reshape(-1, count, dim)
    sep2 = sum(np.abs(pts[:, :, None, k] - pts[:, None, :, k]) ** 2
               for k in range(dim))
    sep2[:, np.arange(count), np.arange(count)] = np.inf
    close = np.min(sep2, axis=(1, 2)) <= (2.0 * MIN_POINT_SEPARATION) ** 2
    lam = np.linalg.eigvalsh(_kernel_matrix(spec, pts))
    defer[full] |= close | (lam[:, 0] < -eig_tolerance(lam) / 2)
    return [t for t, d in zip(trials, defer) if d]


def find_negative_witness(spec: KernelSpec, *, seed, radius: float,
                          set_size: int, budget: int):
    """Randomized search for a point set whose Gram fails positivity.

    Trial t draws from the substream (seed, t), so the outcome is independent
    of scheduling and restart.  Returns the first NEGATIVE certificate, with
    the trial's points as ``witness.point_set``, or None at the budget's end.

    Trials run in chunks of 1, 2, 4, ... trials, doubling up to 1024, so a
    witness at an early trial is found without screening a full chunk past
    it.  ``_screen`` draws a chunk's point sets from the same substreams,
    seeded in one vectorized pass and checked against ``substream`` once
    per chunk, stacks their Grams and bounds every smallest eigenvalue with
    one batched ``eigvalsh``.  The trials it cannot clear are decided
    again, in order, by the serial ``sample_point_set``, ``gram`` and
    ``check_psd``, and the first NEGATIVE one is returned, so the witness
    and its certificate are exactly those of a one-at-a-time search.  Clearing a trial at -tol / 2
    is safe: its screened Gram differs from the serial one by a few ulps,
    ``eigvalsh`` is backward stable, and so the two smallest eigenvalues
    differ by O(m * eps * ||G||), far below tol / 2, which is
    50 * m * eps * ||G||.  A negative budget or an empty set raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"witness budget must be nonnegative, got {budget}")
    if set_size < 1:
        raise ValueError(f"set_size must be at least 1, got {set_size}")
    base = seed_tuple(seed)
    # about twice the candidates a set needs, as a fraction 1 / dim! of the
    # polydisk draws lands inside the radius cap; a screened set never needs
    # more rejections than sample_point_set allows
    draws = min(2 * set_size * math.factorial(spec.dim) + 16,
                set_size + MAX_REJECTS)
    per_trial = max(set_size * set_size, 2 * spec.dim * draws)
    cap = max(1, min(_CHUNK_TRIALS, _CHUNK_VALUES // per_trial))
    trials = range(0, min(1, budget))
    while trials:
        for trial in _screen(spec, base, trials, radius, set_size, draws):
            pts = sample_point_set(substream(base, trial), spec.dim, radius, set_size)
            cert = check_psd(spec, pts)
            if cert.verdict == NEGATIVE:
                return cert
        size = min(2 * len(trials), cap)
        trials = range(trials.stop, min(trials.stop + size, budget))
    return None
