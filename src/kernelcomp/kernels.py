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
    "GramMatrix",
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
    set, the witness screen a (trials, m, dim) stack.
    """
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
    return 0.5 * (g + np.swapaxes(g.conj(), -1, -2))


def gram(spec: KernelSpec, point_set: PointSet) -> "GramMatrix":
    """Gram matrix G[i, j] = K(w_i, w_j), hermitized on assembly."""
    if point_set.dim != spec.dim:
        raise DomainError("point set dimension does not match the kernel")
    return GramMatrix(spec=spec, point_set=point_set,
                      entries=_kernel_matrix(spec, point_set.points))


@dataclass
class GramMatrix:
    """Hermitian kernel matrix together with its generating data."""

    spec: KernelSpec
    point_set: PointSet
    entries: np.ndarray

    def __post_init__(self):
        g = self.entries
        if g.shape != (len(self.point_set),) * 2:
            raise ValueError("entry shape does not match the point set")
        if float(np.max(np.abs(g - g.conj().T))) > 1e-13:
            raise ValueError("entries are not Hermitian")


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
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "seed": self.seed,
        }


def eig_tolerance(lam: np.ndarray):
    """TOL_SCALE * n * max|lambda| * eps for the ascending eigenvalues ``lam``
    of n x n Hermitian matrices, stacked along the leading axes."""
    nrm = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
    return TOL_SCALE * lam.shape[-1] * nrm * float(np.finfo(float).eps)


def check_psd(g: GramMatrix) -> PositivityCertificate:
    """Eigenvalue test with a scale-aware tolerance.

    The tolerance grows with the matrix size and spectral norm so that honest
    rounding never triggers a NEGATIVE verdict; a NEGATIVE certificate carries
    the bottom eigenvector as a witness.
    """
    lam, vec = np.linalg.eigh(g.entries)
    lo = float(lam[0])
    tol = float(eig_tolerance(lam))
    if lo >= -tol:
        return PositivityCertificate(spec=g.spec, min_eigenvalue=lo,
                                     tolerance=tol, verdict=PSD)
    wit = Witness(point_set=g.point_set, coeffs=vec[:, 0])
    return PositivityCertificate(spec=g.spec, min_eigenvalue=lo,
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


# Trials screened together, and a cap on the values one screened chunk holds
# (uniforms per trial, or Gram entries per trial, times trials).
_CHUNK_TRIALS = 1024
_CHUNK_VALUES = 1 << 21


def _screen(spec: KernelSpec, base: tuple, trials: range, radius: float,
            count: int, draws: int) -> list:
    """Trials of a chunk that the batched screen cannot clear, in order.

    Each trial draws ``draws`` candidates from its own substream, keeps
    the first ``count`` inside the radius cap, and has its Gram's smallest
    eigenvalue computed in one batched ``eigvalsh``.  A trial is returned
    when that eigenvalue is below -tol / 2, when its block holds fewer than
    ``count`` admissible candidates, or when ``sample_point_set`` could
    decide its candidates differently: a norm within a few ulps of the
    radius, or two kept points closer than 2 * MIN_POINT_SEPARATION.
    """
    if not 0.0 < radius < 1.0 or count < 1:
        return list(trials)  # the serial path raises the caller's error
    dim = spec.dim
    u = np.stack([np.random.default_rng(base + (t,)).random(draws * 2 * dim)
                  for t in trials])
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
    stacks their Grams and bounds every smallest eigenvalue with one batched
    ``eigvalsh``.  The trials it cannot clear are decided again, in order, by
    the serial ``sample_point_set``, ``gram`` and ``check_psd``, and the
    first NEGATIVE one is returned, so the witness and its certificate are
    exactly those of a one-at-a-time search.  Clearing a trial at -tol / 2
    is safe: its screened Gram differs from the serial one by a few ulps,
    ``eigvalsh`` is backward stable, and so the two smallest eigenvalues
    differ by O(m * eps * ||G||), far below tol / 2, which is
    50 * m * eps * ||G||.
    """
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
            rng = np.random.default_rng(base + (trial,))
            pts = sample_point_set(rng, spec.dim, radius, set_size)
            cert = check_psd(gram(spec, pts))
            if cert.verdict == NEGATIVE:
                cert.seed = seed
                return cert
        size = min(2 * len(trials), cap)
        trials = range(trials.stop, min(trials.stop + size, budget))
    return None
