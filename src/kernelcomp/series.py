"""Truncated power series on the disk and on the ball.

Symbols and weights are polynomials with complex coefficients: dense arrays in
one variable, sparse multi-index arrays in several.  Composition and reciprocal
go through circle sampling plus discrete Fourier inversion, which stays
accurate at finite truncation even when the inner symbol moves the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "DiskPoly",
    "BallPoly",
    "SelfMapDisk",
    "BallMap",
    "SupCheck",
    "ParameterError",
    "SingularSymbolError",
    "blaschke_factor",
    "compose",
    "reciprocal",
    "sup_norm_circle",
    "inf_modulus_circle",
    "h2_norm",
    "poly_from_json_dict",
]

DEFAULT_SAMPLE_RADIUS = 0.9
SELF_MAP_GRID = 1024
SELF_MAP_SLACK = 1e-12


class ParameterError(ValueError):
    """Sampling parameters outside their usable range."""


class SingularSymbolError(ValueError):
    """A symbol vanishes (numerically) where it must not."""


class DiskPoly:
    """Polynomial in one complex variable; ``coeffs[n]`` multiplies ``z**n``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.coeffs = arr

    @classmethod
    def zero(cls) -> "DiskPoly":
        return cls([0.0])

    @classmethod
    def one(cls) -> "DiskPoly":
        return cls([1.0])

    @classmethod
    def identity(cls) -> "DiskPoly":
        return cls([0.0, 1.0])

    @classmethod
    def monomial(cls, degree: int, scale: complex = 1.0) -> "DiskPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        c = np.zeros(degree + 1, dtype=complex)
        c[degree] = scale
        return cls(c)

    def degree(self) -> int:
        """Largest n with a nonzero coefficient; 0 for the zero polynomial."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def trimmed(self) -> np.ndarray:
        """Coefficients through the actual degree."""
        return self.coeffs[: self.degree() + 1]

    def padded(self, degree: int) -> np.ndarray:
        """Coefficients zero-padded or truncated to length ``degree + 1``."""
        out = np.zeros(degree + 1, dtype=complex)
        take = min(degree + 1, self.coeffs.size)
        out[:take] = self.coeffs[:take]
        return out

    def truncated(self, degree: int) -> "DiskPoly":
        return DiskPoly(self.padded(degree))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def __add__(self, other: "DiskPoly") -> "DiskPoly":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return DiskPoly(a)

    def __sub__(self, other: "DiskPoly") -> "DiskPoly":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, DiskPoly):
            return DiskPoly(np.convolve(self.trimmed(), other.trimmed()))
        return DiskPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiskPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = np.ones(1, dtype=complex)
        base = self.trimmed()
        for _ in range(n):
            out = np.convolve(out, base)
        return DiskPoly(out)

    def to_json_dict(self) -> dict:
        terms = [
            [[int(n)], [float(c.real), float(c.imag)]]
            for n, c in enumerate(self.coeffs)
            if c != 0
        ]
        return {"dim": 1, "terms": terms}

    def __repr__(self):
        return f"DiskPoly(degree={self.degree()})"


def _cmul(a, b) -> np.ndarray:
    """Elementwise a * b for complex arrays or scalars, rounded as Python
    rounds ``complex * complex``; numpy's complex multiply may round
    otherwise."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _combine(exps: np.ndarray, coefs: np.ndarray):
    """Sum the coefficients of equal multi-indices (rows of ``exps``).

    Returns the distinct multi-indices in order of first appearance and their
    sums, each rounded exactly as ``acc[m] = acc.get(m, 0.0) + c`` run term by
    term: ``np.add.at`` adds in input order, where ``sum`` and ``reduceat``
    would add pairwise.
    """
    base = exps.max(axis=0, initial=0) + 1
    if math.prod(base.tolist()) < 2**63:
        # mixed-radix key, one integer per multi-index
        keys = exps @ np.cumprod(np.concatenate(([1], base[:-1])))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(exps, axis=0, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)  # distinct multi-indices by first appearance
    sums = np.zeros(order.size, dtype=complex)
    np.add.at(sums, np.argsort(order)[inverse.reshape(-1)], coefs)
    return exps[first[order]], sums


def _pair_terms(exps_a, coefs_a, exps_b, coefs_b):
    """Every term of a product before like terms are combined: the terms of
    ``a`` are the outer loop and those of ``b`` the inner one."""
    exps = exps_a[:, None, :] + exps_b[None, :, :]
    coefs = _cmul(coefs_a[:, None], coefs_b[None, :])
    return exps.reshape(-1, exps_a.shape[1]), coefs.reshape(-1)


def _is_natural(v) -> bool:
    """A nonnegative integer; a bool or a float is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


class BallPoly:
    """Polynomial in ``dim`` complex variables.

    Stored as two read-only arrays in order of first appearance: ``exps``, an
    (n, dim) int64 array of distinct multi-indices, and ``coefs``, their n
    nonzero complex coefficients.  Sums and products add like terms one at a
    time, in the order a term-by-term dict accumulation would, so they round
    exactly as that loop does.
    """

    __slots__ = ("dim", "exps", "coefs")

    def __init__(self, dim: int, terms):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        terms = dict(terms)
        for m in terms:
            if len(m) != dim or not all(_is_natural(e) for e in m):
                raise ValueError(f"bad multi-index {m} for dim {dim}")
        exps = np.array(list(terms), dtype=np.int64).reshape(-1, dim)
        coefs = np.array([complex(c) for c in terms.values()], dtype=complex)
        self._assign(int(dim), exps, coefs)

    def _assign(self, dim: int, exps: np.ndarray, coefs: np.ndarray) -> None:
        # exps must be distinct; ``0.0 + c`` turns -0.0 parts into +0.0, as
        # the dict accumulation's first addition does
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        coefs = 0.0 + coefs
        keep = coefs != 0
        self.dim = dim
        self.exps = exps[keep]
        self.coefs = coefs[keep]
        self.exps.flags.writeable = False
        self.coefs.flags.writeable = False

    @classmethod
    def _of(cls, dim: int, exps: np.ndarray, coefs: np.ndarray) -> "BallPoly":
        """Polynomial from arrays of distinct multi-indices."""
        out = cls.__new__(cls)
        out._assign(dim, exps, coefs)
        return out

    @classmethod
    def zero(cls, dim: int) -> "BallPoly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: complex) -> "BallPoly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "BallPoly":
        if not 0 <= index < dim:
            raise ValueError("coordinate index out of range")
        m = [0] * dim
        m[index] = 1
        return cls(dim, {tuple(m): 1.0})

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from multi-index tuples to coefficients."""
        return MappingProxyType(dict(zip(map(tuple, self.exps.tolist()),
                                         self.coefs.tolist())))

    def degree(self) -> int:
        return int(self.exps.sum(axis=1).max(initial=0))

    def constant_term(self) -> complex:
        hit = np.flatnonzero(~self.exps.any(axis=1))
        return complex(self.coefs[hit[0]]) if hit.size else 0.0 + 0.0j

    def __call__(self, z):
        pts = np.asarray(z, dtype=complex)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for i, c in enumerate(self.coefs.tolist()):
            out = out + c * np.prod(pts ** self.exps[i], axis=-1)
        return out

    def __add__(self, other: "BallPoly") -> "BallPoly":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return BallPoly._of(self.dim, *_combine(
            np.concatenate([self.exps, other.exps]),
            np.concatenate([self.coefs, other.coefs])))

    def __mul__(self, other):
        if isinstance(other, BallPoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return BallPoly._of(self.dim, *_combine(*_pair_terms(
                self.exps, self.coefs, other.exps, other.coefs)))
        return BallPoly._of(self.dim, self.exps, _cmul(self.coefs, complex(other)))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        # graded lexicographic: degree first, then exponents descending,
        # so (2,0) comes before (1,1) before (0,2)
        order = np.lexsort(np.vstack([-self.exps[:, ::-1].T, self.exps.sum(axis=1)]))
        terms = [[m, [c.real, c.imag]] for m, c in
                 zip(self.exps[order].tolist(), self.coefs[order].tolist())]
        return {"dim": self.dim, "terms": terms}

    def __repr__(self):
        return f"BallPoly(dim={self.dim}, terms={len(self.coefs)})"


def poly_from_json_dict(obj: dict):
    """Inverse of ``to_json_dict``; returns DiskPoly for dim 1, else BallPoly.

    ``dim`` and the exponents must be json integers: a float or a bool is
    refused, not rounded.
    """
    if set(obj) != {"dim", "terms"}:
        raise ValueError("polynomial json needs exactly the keys 'dim' and 'terms'")
    dim = obj["dim"]
    if not _is_natural(dim):
        raise ValueError(f"polynomial dim must be an integer, got {dim!r}")
    pairs = []
    for entry in obj["terms"]:
        if len(entry) != 2:
            raise ValueError("each term must be [multi_index, [re, im]]")
        m, (re, im) = entry
        if len(m) != dim or not all(_is_natural(e) for e in m):
            raise ValueError(f"a multi-index must hold {dim} nonnegative "
                             f"integers, got {m!r}")
        pairs.append((tuple(m), complex(float(re), float(im))))
    if dim == 1:
        deg = max((m[0] for m, _ in pairs), default=0)
        c = np.zeros(deg + 1, dtype=complex)
        for m, v in pairs:
            c[m[0]] += v
        return DiskPoly(c)
    return BallPoly(dim, dict(pairs))


@dataclass(frozen=True)
class SupCheck:
    """Boundary-grid evidence recorded when a self-map is admitted."""

    grid_size: int
    max_modulus: float


def _circle_points(grid_size: int, radius: float = 1.0) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return radius * np.exp(1j * theta)


def sup_norm_circle(f: DiskPoly, grid_size: int) -> float:
    """Max of |f| over a uniform grid on the unit circle."""
    if grid_size < 16:
        raise ParameterError("grid_size must be at least 16")
    return float(np.max(np.abs(f(_circle_points(grid_size)))))


def inf_modulus_circle(f: DiskPoly, grid_size: int) -> float:
    """Min of |f| over a uniform grid on the unit circle."""
    if grid_size < 16:
        raise ParameterError("grid_size must be at least 16")
    return float(np.min(np.abs(f(_circle_points(grid_size)))))


def h2_norm(f: DiskPoly) -> float:
    """Square-summable coefficient norm."""
    return float(np.linalg.norm(f.coeffs))


class SelfMapDisk:
    """Polynomial self-map of the disk, admitted on sampled boundary evidence.

    The boundary grid is evidence, not proof: symbols used in experiments have
    analytically known sup norms and the grid guards against gross mistakes.
    Non-constant maps must satisfy |b(0)| < 1.
    """

    __slots__ = ("series", "sup_check")

    def __init__(self, series: DiskPoly, grid_size: int = SELF_MAP_GRID,
                 slack: float = SELF_MAP_SLACK):
        if not isinstance(series, DiskPoly):
            raise TypeError("series must be a DiskPoly")
        top = sup_norm_circle(series, grid_size)
        if top > 1.0 + slack:
            raise ValueError(
                f"boundary samples reach modulus {top:.6g}; not a disk self-map"
            )
        if series.degree() > 0 and abs(series.coeffs[0]) >= 1.0:
            raise ValueError("a non-constant self-map needs |b(0)| < 1")
        self.series = series
        self.sup_check = SupCheck(grid_size, top)

    @property
    def center(self) -> complex:
        """Value at the origin."""
        return complex(self.series.coeffs[0])

    def degree(self) -> int:
        return self.series.degree()

    def is_constant(self) -> bool:
        return self.series.degree() == 0

    def __call__(self, z):
        return self.series(z)

    def __repr__(self):
        return f"SelfMapDisk(degree={self.degree()}, center={self.center:.4g})"


def _sphere_samples(dim: int, count: int, seed: int = 20240814) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class BallMap:
    """Polynomial self-map of the unit ball, admitted on sampled sphere evidence.

    ``coords`` holds one BallPoly per ambient coordinate.  Admission checks
    that the squared coordinate moduli sum to at most 1 + slack on a fixed
    deterministic sphere sample and that |b(0)| < 1.
    """

    __slots__ = ("dim", "coords", "sup_check")

    def __init__(self, coords, grid_size: int = 2048, slack: float = SELF_MAP_SLACK):
        coords = list(coords)
        if not coords:
            raise ValueError("a ball map needs at least one coordinate")
        dim = len(coords)
        for c in coords:
            if not isinstance(c, BallPoly):
                raise TypeError("coordinates must be BallPoly instances")
            if c.dim != dim:
                raise ValueError("each coordinate must be a polynomial in dim variables")
        pts = _sphere_samples(dim, grid_size)
        total = np.zeros(grid_size)
        for c in coords:
            total += np.abs(c(pts)) ** 2
        top = float(np.sqrt(np.max(total)))
        if top > 1.0 + slack:
            raise ValueError(
                f"sphere samples reach modulus {top:.6g}; not a ball self-map"
            )
        center = np.array([c.constant_term() for c in coords])
        if float(np.linalg.norm(center)) >= 1.0:
            raise ValueError("a ball self-map needs |b(0)| < 1")
        self.dim = dim
        self.coords = coords
        self.sup_check = SupCheck(grid_size, top)

    @property
    def center(self) -> np.ndarray:
        """Image of the origin, as a length-dim vector."""
        return np.array([c.constant_term() for c in self.coords])

    def degree(self) -> int:
        return max(c.degree() for c in self.coords)

    def is_constant(self) -> bool:
        return self.degree() == 0

    def __call__(self, z) -> np.ndarray:
        """Evaluate at points of shape (..., dim); returns shape (..., dim)."""
        pts = np.asarray(z, dtype=complex)
        vals = [c(pts) for c in self.coords]
        return np.stack(vals, axis=-1)

    def __repr__(self):
        return f"BallMap(dim={self.dim}, degree={self.degree()})"


def blaschke_factor(a: complex, tail_tol: float = 1e-13) -> SelfMapDisk:
    """Truncated Taylor series of (z + a) / (1 + conj(a) z) as a self-map.

    Coefficients are a, then (-conj(a))**(n-1) * (1 - |a|^2); the truncation
    degree is chosen so the dropped tail has coefficient sum at most tail_tol.
    """
    a = complex(a)
    r = abs(a)
    if r >= 1.0:
        raise ValueError("the parameter must lie in the open disk")
    if r == 0.0:
        return SelfMapDisk(DiskPoly.identity())
    # tail after degree T sums to (1 - r^2) r^T / (1 - r)
    T = 1
    while (1.0 - r * r) * r**T / (1.0 - r) > tail_tol:
        T += 1
    c = np.zeros(T + 1, dtype=complex)
    c[0] = a
    c[1:] = (1.0 - r * r) * (-np.conj(a)) ** np.arange(T)
    return SelfMapDisk(DiskPoly(c))


def compose(f: DiskPoly, b: SelfMapDisk, out_degree: int,
            sample_radius: float = DEFAULT_SAMPLE_RADIUS,
            samples: int | None = None) -> DiskPoly:
    """Taylor coefficients of f(b(z)) through ``out_degree``.

    Samples f(b(z)) on a circle of radius ``sample_radius``, inverts the
    discrete Fourier transform, and unscales by powers of the radius.  The
    recovery is exact (up to rounding) when f(b(z)) is a polynomial of degree
    below the sample count; otherwise the aliasing error decays like
    sample_radius ** (samples - out_degree).
    """
    if not isinstance(b, SelfMapDisk):
        raise TypeError("b must be a SelfMapDisk")
    if out_degree < 1:
        raise ParameterError("out_degree must be at least 1")
    if not 0.0 < sample_radius < 1.0:
        raise ParameterError("sample_radius must lie strictly between 0 and 1")
    scale = sample_radius ** np.arange(out_degree + 1)
    if scale[-1] == 0.0:
        raise ParameterError("sample_radius ** out_degree underflows")
    count = samples if samples is not None else max(4 * (out_degree + 1), 256)
    if count < 2 * (out_degree + 1):
        raise ParameterError("need at least 2 * (out_degree + 1) samples")
    zs = _circle_points(count, sample_radius)
    vals = f(b(zs))
    hat = np.fft.fft(vals) / count
    return DiskPoly(hat[: out_degree + 1] / scale)


def reciprocal(f: DiskPoly, out_degree: int,
               sample_radius: float = DEFAULT_SAMPLE_RADIUS,
               samples: int | None = None,
               min_modulus: float = 1e-8) -> DiskPoly:
    """Taylor coefficients of 1 / f through ``out_degree``.

    Same circle-sampling scheme as ``compose``; fails if any sample of |f|
    drops to ``min_modulus`` or below, since the reciprocal is then unusable
    at this truncation.
    """
    if out_degree < 1:
        raise ParameterError("out_degree must be at least 1")
    if not 0.0 < sample_radius < 1.0:
        raise ParameterError("sample_radius must lie strictly between 0 and 1")
    scale = sample_radius ** np.arange(out_degree + 1)
    if scale[-1] == 0.0:
        raise ParameterError("sample_radius ** out_degree underflows")
    count = samples if samples is not None else max(4 * (out_degree + 1), 256)
    if count < 2 * (out_degree + 1):
        raise ParameterError("need at least 2 * (out_degree + 1) samples")
    zs = _circle_points(count, sample_radius)
    vals = f(zs)
    worst = int(np.argmin(np.abs(vals)))
    if abs(vals[worst]) <= min_modulus:
        raise SingularSymbolError(
            f"|f({zs[worst]:.6g})| = {abs(vals[worst]):.3g} on the sample circle"
        )
    hat = np.fft.fft(1.0 / vals) / count
    return DiskPoly(hat[: out_degree + 1] / scale)
