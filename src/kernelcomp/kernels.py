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
    "trial_stream",
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
        close = _close(arr[:, None, :], arr[None, :, :])
        close[np.diag_indices_from(close)] = False
        if close.any():
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
        else:
            bz = spec.b_ball(pts)
            g = (1.0 - bz @ np.swapaxes(bz.conj(), -1, -2)) / den
        # the dbr_power and ball_map ratio's power; ratio ** 1 is the ratio
        if spec.kind in ("dbr_power", "ball_map") and spec.alpha != 1.0:
            g = g ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
                else g ** spec.alpha
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

    The tolerance grows with the matrix size and max|lambda| so that honest
    rounding never triggers a NEGATIVE verdict; a NEGATIVE certificate
    carries the points and the bottom eigenvector as a witness.  A Gram whose
    entries span more than about 1 / eps resolves no eigenvalue below that
    tolerance, so its PSD verdict certifies little.
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


def _inside(u: np.ndarray, radius: float) -> np.ndarray:
    """One admission rule: radius * sqrt(sum of radius uniforms) < radius."""
    rad2 = sum(u[..., k] for k in range(u.shape[-1] // 2, u.shape[-1]))
    return radius * np.sqrt(rad2) < radius


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One separation rule: sum_k |a_k - b_k|^2 <= MIN_POINT_SEPARATION^2."""
    return sum(np.abs(a[..., k] - b[..., k]) ** 2
               for k in range(a.shape[-1])) <= MIN_POINT_SEPARATION ** 2


def _candidates(u: np.ndarray, radius: float) -> np.ndarray:
    """Candidate points from uniforms of shape (..., 2 * dim): dim angles
    from the first dim uniforms, dim area-uniform radii from the last dim.
    ``sample_point_set`` and the witness screen both build theirs here."""
    dim = u.shape[-1] // 2
    theta = 2.0 * np.pi * u[..., :dim]
    rad = radius * np.sqrt(u[..., dim:])
    return rad * np.exp(1j * theta)


def sample_point_set(rng: np.random.Generator, dim: int, radius: float,
                     count: int) -> PointSet:
    """Draw ``count`` points from the ball of the given radius.

    Each coordinate gets a uniform angle and an area-uniform radius.
    ``_inside`` judges the radius cap on a candidate's radius uniforms, so a
    point's float norm may exceed ``radius`` by a few ulps; a candidate
    ``_close`` to a kept point is re-drawn.  Exactly 2 * dim variates are
    consumed per candidate, so callers may share one generator across
    draws.  A set whose separation check would need more than
    MAX_SECTION_BYTES is refused before anything is drawn.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    # PointSet checks separation on count x count complex differences
    _check_bytes(count * count * dim * np.dtype(complex).itemsize,
                 f"the separation check of {count} points in dim {dim}")
    pts = np.zeros((count, dim), dtype=complex)
    have = 0
    rejects = 0
    while have < count:
        u = rng.random(2 * dim)
        if _inside(u, radius):
            pts[have] = _candidates(u, radius)
            if not np.any(_close(pts[:have], pts[have])):
                have += 1
                continue
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
    place a seed becomes a generator for an experiment's draws."""
    return np.random.default_rng(seed_tuple(seed) + index)


def trial_stream(seed, trial: int = 0, n: int = 0) -> np.random.Generator:
    """The witness search's generator, the one place a seed becomes one:
    a Philox stream keyed by ``seed`` (Salmon, Moraes, Dror and Shaw,
    "Parallel random numbers: as easy as 1, 2, 3", SC '11), advanced to the
    block of trial ``trial``, ``trial * n`` uniforms in.  A counter step is
    four uniforms, so a trial past 0 needs n a multiple of 4."""
    if trial > 0 and n % 4:
        raise ValueError(f"trial {trial} needs blocks of 4k uniforms, not {n}")
    bits = np.random.Philox(np.random.SeedSequence(seed_tuple(seed)))
    return np.random.Generator(bits.advance(trial * n // 4))


# Trials screened together, and a cap on the values one screened chunk holds
# (uniforms per trial, or Gram entries per trial, times trials).
_CHUNK_TRIALS = 1024
_CHUNK_VALUES = 1 << 21


def _uncleared(g: np.ndarray) -> np.ndarray:
    """Mask of the Hermitian stack ``g`` not cleared by ``_screen``'s shifted
    Cholesky rule; a stack that ``np.linalg.cholesky`` refuses is bisected."""
    m = g.shape[-1]
    eps = float(np.finfo(float).eps)
    a = g.copy()
    diag = a.reshape(-1, m * m)[:, ::m + 1]  # a view of the diagonals
    shift = TOL_SCALE * m * eps * np.max(diag.real, axis=1) / 4
    diag += shift[:, None]
    k = (m + 1) * eps  # gamma_{m+1} / (1 - gamma_{m+1}) = k / (1 - 2 k)
    err = k / (1 - 2 * k) * diag.real.sum(axis=1) + eps * diag.real.max(axis=1)
    try:
        np.linalg.cholesky(a)
        return err > shift
    except np.linalg.LinAlgError:
        half = len(g) // 2
        return np.concatenate([_uncleared(g[:half]), _uncleared(g[half:])]) \
            if half else np.ones(1, bool)


def _screen(spec: KernelSpec, base: tuple, trials: range, radius: float,
            count: int, draws: int) -> list:
    """Trials of a chunk that the batched screen cannot clear, in order.

    The chunk's blocks are read by one contiguous draw from the search's
    ``trial_stream``.  A trial's block holds ``draws`` candidates of dim
    angle and dim radius uniforms each, and the trial keeps its first
    ``count`` ``_inside`` candidates; ``exp`` runs on those only.  These
    are ``sample_point_set``'s points unless a pair of them is ``_close``.
    A Gram G is cleared iff Cholesky of A = fl(G + s I) succeeds and its
    backward error gamma_{m+1} tr(A) / (1 - gamma_{m+1}) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.5, u = eps for
    complex arithmetic) plus eps max_i A_ii fits in s = tol_lo / 4, where
    tol_lo = TOL_SCALE * m * eps * max_i G_ii <= tol: then lambda_min(G) >=
    -2 s >= -tol / 2, and the bound fits for m <= 23.  Returned are trials
    whose Gram is not cleared, with fewer than ``count`` admitted
    candidates, or with a ``_close`` pair of kept points; every trial when
    the radius is out of range or one trial's Gram passes _CHUNK_VALUES.
    """
    if not 0.0 < radius < 1.0 or count * count > _CHUNK_VALUES:
        return list(trials)  # the serial path decides, or raises the error
    dim, n = spec.dim, 2 * spec.dim
    u = trial_stream(base, trials.start, draws * n).random(
        (len(trials), draws, n))
    inside = _inside(u, radius)
    rank = np.cumsum(inside, axis=1)
    full = rank[:, -1] >= count
    pts = _candidates(u[inside & (rank <= count) & full[:, None]], radius)
    pts = pts.reshape(-1, count, dim)
    close = _close(pts[:, :, None], pts[:, None])
    close[:, np.arange(count), np.arange(count)] = False
    defer = ~full
    defer[full] |= close.any(axis=(1, 2)) | _uncleared(_kernel_matrix(spec, pts))
    return [t for t, d in zip(trials, defer) if d]


def find_negative_witness(spec: KernelSpec, *, seed, radius: float,
                          set_size: int, budget: int):
    """Randomized search for a point set whose Gram fails positivity.

    Trial t reads its candidates from ``trial_stream(seed, t, n)``, the
    block of n uniforms at offset t * n of one stream, so the outcome is
    independent of scheduling and restart.  Returns the first NEGATIVE
    certificate, with the trial's points as ``witness.point_set``, or None
    at the budget's end.

    Trials run in chunks of 1, 2, 4, ... trials, doubling up to 1024, so a
    witness at an early trial is found without screening a full chunk past
    it.  ``_screen``, which keeps the sampler's points by the same
    ``_inside`` and ``_close``, clears a trial only when a shifted Cholesky
    with a backward-error bound proves lambda_min >= -tol / 2 for its Gram,
    which differs from the serial one by a few ulps, far below the other
    tol / 2.  The rest are decided again, in order, by ``sample_point_set``
    on the same block, then ``gram`` and ``check_psd``; the first NEGATIVE
    one is returned, as a one-at-a-time search would.  A trial whose
    rejections run past its block reads into the next block, which only
    correlates the two trials and never affects a verdict.  A negative
    budget or an empty set raises ValueError.
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
    draws -= draws % 2  # a block of n = 2 dim draws uniforms, a multiple of 4
    n = 2 * spec.dim * draws
    per_trial = max(set_size * set_size, n)
    cap = max(1, min(_CHUNK_TRIALS, _CHUNK_VALUES // per_trial))
    trials = range(0, min(1, budget))
    while trials:
        for trial in _screen(spec, base, trials, radius, set_size, draws):
            pts = sample_point_set(trial_stream(base, trial, n), spec.dim,
                                   radius, set_size)
            cert = check_psd(spec, pts)
            if cert.verdict == NEGATIVE:
                return cert
        size = min(2 * len(trials), cap)
        trials = range(trials.stop, min(trials.stop + size, budget))
    return None
