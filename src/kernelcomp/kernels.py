"""Kernel evaluation, Gram matrices, and positivity certificates.

A kernel spec names one of the generalized kernels the experiments use; Gram
matrices over admissible point sets are hermitized on assembly; positivity is
decided by the spectrum against a size- and scale-aware tolerance, and failed
positivity comes with a reusable witness (the points plus the offending
eigenvector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import BallMap, SelfMapDisk, _check_bytes, _is_natural

__all__ = [
    "DomainError",
    "PointSet",
    "KernelSpec",
    "PositivityCertificate",
    "Witness",
    "PSD",
    "NEGATIVE",
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

# tolerance = TOL_SCALE * size * ||G|| * eps in every positivity verdict
TOL_SCALE = 100.0


class DomainError(ValueError):
    """Points outside the open unit ball (or disk)."""


class PointSet:
    """Finite set of points strictly inside the unit ball.

    Stored as an (m, dim) complex array; dim-1 sets may be built from a plain
    sequence of complex numbers.  Points may repeat: a Gram with two equal
    rows is still a Gram, positive semidefinite exactly when the kernel is on
    the set without the repeats.
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


# Each kind's json keys beside "kind", in parse order, with the type each
# takes: a symbol b, a dim (1 on the disk or the map's dim, unless given) and
# an alpha >= 1, an int or a real (fixed at 1 unless taken).  KernelSpec and
# the json parser read the rules here and nowhere else.
_KINDS = {
    "szego": {},  # 1 / (1 - z conj(w)) on the disk
    "bergman": {"alpha": float},  # (1 - z conj(w)) ** (-alpha) on the disk
    "dbr": {"b": SelfMapDisk},  # (1 - b(z) conj(b(w))) / (1 - z conj(w))
    "dbr_power": {"b": SelfMapDisk, "alpha": int},  # the dbr ratio ** alpha
    "ball": {"dim": int, "alpha": float},  # (1 - <z, w>) ** (-alpha) on the ball
    "ball_map": {"b": BallMap, "alpha": float},  # the family's own formula
}


@dataclass(frozen=True)
class KernelSpec:
    """One member of ((1 - <b(z), b(w)>) / (1 - <z, w>)) ** alpha, the
    kernel of the kind ``kind`` in ``_KINDS``, whose rules a spec must keep;
    alpha is kept as a float, and dim as the kind's."""

    kind: str
    alpha: float = 1.0
    b: SelfMapDisk | BallMap | None = None
    dim: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        takes = _KINDS[self.kind]
        symbol = takes.get("b")
        if not (isinstance(self.b, symbol) if symbol else self.b is None):
            raise ValueError(f"{self.kind} takes "
                             + (f"a {symbol.__name__}" if symbol else "no symbol"))
        alpha = float(self.alpha)
        if not alpha >= 1.0:
            raise ValueError("alpha must be at least 1")
        if alpha != 1.0 and "alpha" not in takes:
            raise ValueError(f"{self.kind} fixes alpha = 1")
        if takes.get("alpha") is int and not alpha.is_integer():
            raise ValueError(f"{self.kind} is restricted to integer alpha")
        dim = self.b.dim if isinstance(self.b, BallMap) else 1
        if "dim" in takes:
            if not (_is_natural(self.dim) and self.dim >= 1):
                raise ValueError(f"{self.kind} dim must be at least 1, got {self.dim!r}")
            dim = int(self.dim)
        elif self.dim not in (None, dim):
            raise ValueError(f"{self.kind} has dim {dim}, not {self.dim!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "dim", dim)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "alpha": self.alpha, "dim": self.dim}
        if isinstance(self.b, SelfMapDisk):
            out["b"] = self.b.series.to_json_dict()
        elif self.b is not None:
            out["b"] = {"dim": self.b.dim,
                        "coords": [c.to_json_dict() for c in self.b.coords]}
        return out


def _kernel_matrix(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """Hermitized kernel values K(z_i, z_j) for point stacks (..., m, dim).

    The one place the kernel formulas live: ``gram`` passes a single (m, dim)
    set, the witness screen a (trials, m, dim) stack.  At most two arrays of
    the result's shape are alive at once: only the power, whose ``**`` has
    scalar fast paths, is formed out of place.  A value that overflows (a
    large alpha on points near the boundary) is refused, not passed on as
    inf or NaN to the eigen-solver.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        den = 1.0 - pts @ np.swapaxes(pts.conj(), -1, -2)
        if spec.b is None:
            g = den ** (-spec.alpha)
        else:  # the ratio, in place
            if isinstance(spec.b, SelfMapDisk):
                bv = spec.b(pts[..., 0])
                g = bv[..., :, None] * bv.conj()[..., None, :]
            else:
                bz = spec.b(pts)
                g = bz @ np.swapaxes(bz.conj(), -1, -2)
            np.subtract(1.0, g, out=g)
            g /= den
        del den
        # the ratio's power; ratio ** 1 is the ratio
        if spec.b is not None and spec.alpha != 1.0:
            g = g ** int(spec.alpha) if spec.alpha.is_integer() \
                else g ** spec.alpha
        g += np.swapaxes(g.conj(), -1, -2)
        g *= 0.5
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{spec.kind} kernel values overflow on these points")
    return g


def gram(spec: KernelSpec, point_set: PointSet) -> np.ndarray:
    """Gram matrix G[i, j] = K(w_i, w_j), hermitized on assembly, so G
    equals its conjugate transpose exactly.  Raises ValueError when a kernel
    value overflows or the two m x m arrays it holds pass MAX_SECTION_BYTES."""
    if point_set.dim != spec.dim:
        raise DomainError("point set dimension does not match the kernel")
    _check_gram_bytes(len(point_set))
    return _kernel_matrix(spec, point_set.points)


def _check_gram_bytes(m: int) -> None:
    """Refuse an m-point Gram whose two m x m arrays pass MAX_SECTION_BYTES."""
    _check_bytes(2 * m * m * np.dtype(complex).itemsize, f"a {m}x{m} Gram")


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
    otherwise; tolerance = TOL_SCALE * size * ||G|| * eps.  A PSD verdict's
    numbers come from ``eigvalsh``, a NEGATIVE one's from ``eigh``.
    ``gram`` is the Gram decided on, kept out of the JSON.
    """

    spec: KernelSpec
    min_eigenvalue: float
    tolerance: float
    verdict: str
    witness: Witness | None = None
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    rounding never triggers a NEGATIVE verdict.  ``eigvalsh`` supplies the
    spectrum; a Gram it reads NEGATIVE is solved again by ``eigh``, which
    then supplies the verdict, the numbers and the witness (the points and
    the bottom eigenvector).  A Gram whose entries span more than about
    1 / eps resolves no eigenvalue below that tolerance, so its PSD verdict
    certifies little.
    """
    g = gram(spec, point_set)
    lam = np.linalg.eigvalsh(g)
    if lam[0] < -eig_tolerance(lam):
        lam, vec = np.linalg.eigh(g)
    lo = float(lam[0])
    tol = float(eig_tolerance(lam))
    if lo >= -tol:
        return PositivityCertificate(spec=spec, min_eigenvalue=lo,
                                     tolerance=tol, verdict=PSD, gram=g)
    wit = Witness(point_set=point_set, coeffs=vec[:, 0])
    return PositivityCertificate(spec=spec, min_eigenvalue=lo, tolerance=tol,
                                 verdict=NEGATIVE, witness=wit, gram=g)


def _candidates(u: np.ndarray, radius: float) -> np.ndarray:
    """Points of the radius ball from uniforms of shape (..., 2 * dim): dim
    angles from the first dim uniforms, and |z_k|^2 = radius^2 s_k from the
    spacings s_k of the last dim, sorted.  Sorted, these are uniform on
    {0 <= x_1 <= ... <= x_dim <= 1}, which the spacings s_1 = x_1, s_k =
    x_k - x_{k-1} map with unit Jacobian onto the solid simplex {s >= 0,
    sum s <= 1}; as a coordinate's area element is d|z_k|^2 d(arg z_k) / 2,
    the point is uniform on the ball (L. Devroye, Non-Uniform Random Variate
    Generation, Springer, 1986, ch. V).  None is rejected; in dim 1 the one
    spacing is the uniform itself.  ``sample_point_set`` and the witness
    search both build theirs here."""
    dim = u.shape[-1] // 2
    theta = 2.0 * np.pi * u[..., :dim]
    rad = radius * np.sqrt(np.diff(np.sort(u[..., dim:]), prepend=0.0))
    return rad * np.exp(1j * theta)


def sample_point_set(rng: np.random.Generator, dim: int, radius: float,
                     count: int) -> PointSet:
    """Draw ``count`` points from the ball of the given radius.

    Each point reads 2 * dim uniforms: dim angles, and dim radius uniforms
    whose sorted spacings are uniform on the solid simplex, which makes the
    point uniform on the ball (Devroye, 1986, ch. V; see ``_candidates``).
    Its float norm may pass ``radius`` by a few ulps.  None is rejected, so
    the draw reads exactly count * 2 * dim uniforms in one call, and the
    witness search's ``_candidates`` of the same uniforms are these points.
    A set whose draw needs more than MAX_SECTION_BYTES is refused before
    anything is drawn.
    """
    # per coordinate 2 uniforms, an angle and a radius (8 bytes each), the
    # exponential, the point and the product's cast buffer (16 bytes each);
    # 8 KiB for the arrays' headers and numpy's small temporaries
    _check_bytes(80 * count * dim + 8192, f"drawing {count} points in dim {dim}")
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    return PointSet(_candidates(rng.random((count, 2 * dim)), radius))


def seed_tuple(seed) -> tuple:
    """Normalize int or int-sequence seeds to a flat tuple for substreams."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def substream(seed, *index) -> np.random.Generator:
    """The generator of the substream ``seed_tuple(seed) + index``, from
    which every experiment's draws come, apart from the witness search's."""
    return np.random.default_rng(seed_tuple(seed) + index)


def trial_stream(seed) -> np.random.Generator:
    """The witness search's generator: a Philox stream keyed by ``seed``
    (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as
    1, 2, 3", SC '11), read in order, so trial t's points come from the
    set_size * 2 * dim uniforms at offset t * set_size * 2 * dim."""
    return np.random.Generator(np.random.Philox(seed_tuple(seed)))


# Trials screened together, and a cap on the values one screened chunk holds
# (uniforms per trial, or Gram entries per trial, times trials).
_CHUNK_TRIALS = 1024
_CHUNK_VALUES = 1 << 21


def _uncleared(g: np.ndarray) -> np.ndarray:
    """Mask of the C-contiguous Hermitian stack ``g`` not cleared by
    ``_screen``'s shifted Cholesky rule; ``g`` is shifted in place, once."""
    m = g.shape[-1]
    eps = float(np.finfo(float).eps)
    diag = g.reshape(-1, m * m)[:, ::m + 1]  # a view of the diagonals
    shift = TOL_SCALE * m * eps * np.max(diag.real, axis=1) / 4
    diag += shift[:, None]
    k = (m + 1) * eps  # gamma_{m+1} / (1 - gamma_{m+1}) = k / (1 - 2 k)
    err = k / (1 - 2 * k) * diag.real.sum(axis=1) + eps * diag.real.max(axis=1)
    return (err > shift) | _refused(g)


def _refused(a: np.ndarray) -> np.ndarray:
    """Mask of ``a`` that ``np.linalg.cholesky`` refuses, found by bisection."""
    try:
        np.linalg.cholesky(a)
        return np.zeros(len(a), bool)
    except np.linalg.LinAlgError:
        half = len(a) // 2
        return np.concatenate([_refused(a[:half]), _refused(a[half:])]) \
            if half else np.ones(1, bool)


def _screen(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """The sets of the (trials, m, dim) stack ``pts`` not cleared, in order.

    A Gram G is cleared iff Cholesky of A = fl(G + s I) succeeds and its
    backward error gamma_{m+1} tr(A) / (1 - gamma_{m+1}) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.5, u = eps for
    complex arithmetic) plus eps max_i A_ii fits in s = tol_lo / 4, where
    tol_lo = TOL_SCALE * m * eps * max_i G_ii <= tol: then lambda_min(G) >=
    -2 s >= -tol / 2, and the bound fits for m <= 23.  Every set is
    returned, unscreened, when one Gram passes _CHUNK_VALUES.
    """
    if pts.shape[1] ** 2 > _CHUNK_VALUES:
        return pts
    return pts[_uncleared(_kernel_matrix(spec, pts))]


def find_negative_witness(spec: KernelSpec, *, seed, radius: float,
                          set_size: int, budget: int):
    """Randomized search for a point set whose Gram fails positivity.

    One ``trial_stream(seed)`` is read in order: trial t's points are
    ``_candidates`` of the set_size * 2 * dim uniforms at offset
    t * set_size * 2 * dim, in chunks of 1, 2, 4, ... trials, doubling up
    to 1024, so a witness at an early trial is found without screening a
    full chunk past it.  ``_screen`` clears a set only when a shifted
    Cholesky proves lambda_min >= -tol / 2 for its Gram, which differs from
    ``gram``'s by a few ulps, far below the other tol / 2; ``check_psd``
    decides the rest, in order, on the screen's own points.  Returns the
    first NEGATIVE certificate, as a one-at-a-time search would, or None at
    the budget's end.  A budget or set_size that is not an integer, a
    negative budget, an empty set, a radius outside (0, 1) or a set whose
    Gram passes MAX_SECTION_BYTES raises ValueError before anything is drawn.
    """
    if not _is_natural(budget):
        raise ValueError(f"witness budget must be a nonnegative integer, got {budget!r}")
    if not _is_natural(set_size):
        raise ValueError(f"set_size must be a positive integer, got {set_size!r}")
    if set_size < 1:
        raise ValueError(f"set_size must be at least 1, got {set_size}")
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    _check_gram_bytes(set_size)
    row = 2 * spec.dim  # uniforms per point
    cap = max(1, min(_CHUNK_TRIALS, _CHUNK_VALUES // (set_size * max(set_size, row))))
    rng, done, size = trial_stream(seed), 0, 1
    while done < budget:
        size = min(size, budget - done)
        pts = _candidates(rng.random((size, set_size, row)), radius)
        for p in _screen(spec, pts):
            cert = check_psd(spec, PointSet(p))
            if cert.verdict == NEGATIVE:
                return cert
        done, size = done + size, min(2 * size, cap)
    return None
