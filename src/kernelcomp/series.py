"""Truncated power series on the disk and on the ball.

Symbols and weights are polynomials with complex coefficients: dense arrays in
one variable, sparse multi-index arrays in several.  Self-maps are admitted
by a coefficient bound or on sampled boundary evidence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "DiskPoly",
    "BallPoly",
    "SelfMapDisk",
    "BallMap",
    "ParameterError",
    "blaschke_factor",
    "sup_norm_circle",
]

SELF_MAP_GRID = 1024
BALL_MAP_GRID = 2048
SELF_MAP_SLACK = 1e-12

# largest complex array, in bytes, that a coefficient list or a finite section
# may take; sample_point_set holds its draw to the same limit
MAX_SECTION_BYTES = 2**30


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse ``what`` when its ``nbytes`` pass MAX_SECTION_BYTES."""
    if nbytes > MAX_SECTION_BYTES:
        raise ValueError(f"{what} would take {nbytes} bytes, "
                         f"above the {MAX_SECTION_BYTES}-byte limit")


def _coeff_zeros(count: int) -> np.ndarray:
    """``count`` complex zeros, refused before allocation above MAX_SECTION_BYTES."""
    _check_bytes(count * np.dtype(complex).itemsize, f"{count} coefficients")
    return np.zeros(count, dtype=complex)


class ParameterError(ValueError):
    """Sampling parameters outside their usable range."""


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
    def identity(cls) -> "DiskPoly":
        return cls([0.0, 1.0])

    @classmethod
    def monomial(cls, degree: int, scale: complex = 1.0) -> "DiskPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        c = _coeff_zeros(degree + 1)
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

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def __add__(self, other: "DiskPoly") -> "DiskPoly":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return DiskPoly(a)

    def __mul__(self, other):
        if isinstance(other, DiskPoly):
            return DiskPoly(np.convolve(self.trimmed(), other.trimmed()))
        return DiskPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

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


def _combine_index(exps: np.ndarray):
    """The index step of ``_combine``: each distinct multi-index's first row,
    in order of first appearance, and each row's target among them."""
    base = exps.max(axis=0, initial=0) + 1
    if math.prod(base.tolist()) < 2**63:
        # mixed-radix key, one integer per multi-index
        keys = exps @ np.cumprod(np.concatenate(([1], base[:-1])))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(exps, axis=0, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)  # distinct multi-indices by first appearance
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def _sum_terms(target: np.ndarray, coefs: np.ndarray, count: int) -> np.ndarray:
    """The value step of ``_combine``: ``count`` sums of ``coefs`` by target,
    each rounded as ``acc[m] = acc.get(m, 0.0) + c`` term by term, since
    ``np.add.at`` adds in input order.  A lone term's ``0.0 + c`` has the
    bits ``np.add.at`` into zeros gives, -0.0 parts turned to +0.0."""
    if len(coefs) == 1:
        return 0.0 + coefs
    sums = np.zeros(count, dtype=complex)
    np.add.at(sums, target, coefs)
    return sums


def _combine(exps: np.ndarray, coefs: np.ndarray):
    """Distinct multi-indices (rows of ``exps``) and their coefficient sums."""
    first, target = _combine_index(exps)
    return exps[first], _sum_terms(target, coefs, len(first))


def _is_natural(v) -> bool:
    """A nonnegative integer; a bool or a float is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


class BallPoly:
    """Polynomial in ``dim`` complex variables.

    Stored as two read-only arrays in order of first appearance: ``exps``, an
    (n, dim) int64 array of distinct multi-indices, and ``coefs``, their n
    nonzero complex coefficients.  Sums add like terms one at a time, in the
    order a term-by-term dict accumulation would, so they round exactly as
    that loop does.
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
        """Values at points (..., dim).  One point may round otherwise than a
        stack in the last bit: each ``c * row`` multiplies numpy scalars, not
        numpy's array loop, so compare values taken from one stack."""
        pts = np.asarray(z, dtype=complex)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        # one contiguous row of monomial values per term, summed in term
        # order; 64 terms at a time, so the rows never pass 64 copies of pts
        shape = (-1,) + (1,) * (pts.ndim - 1) + (self.dim,)
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for lo in range(0, len(self.coefs), 64):
            mons = np.prod(pts[None] ** self.exps[lo:lo + 64].reshape(shape), axis=-1)
            for c, row in zip(self.coefs[lo:lo + 64].tolist(), mons):
                out = out + c * row
        return out

    def __add__(self, other: "BallPoly") -> "BallPoly":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return BallPoly._of(self.dim, *_combine(
            np.concatenate([self.exps, other.exps]),
            np.concatenate([self.coefs, other.coefs])))

    def __mul__(self, other):
        """Scalar multiple; a product of polynomials is not supported."""
        return BallPoly._of(self.dim, self.exps, _cmul(self.coefs, complex(other)))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        # graded lexicographic: degree first, then exponents descending, so
        # (2,0) comes before (1,1) before (0,2); lexsort, not operators' rank:
        # json exponents up to 2^63 - 1 wrap an int64 rank, and series cannot
        # import operators
        order = np.lexsort(np.vstack([-self.exps[:, ::-1].T, self.exps.sum(axis=1)]))
        terms = [[m, [c.real, c.imag]] for m, c in
                 zip(self.exps[order].tolist(), self.coefs[order].tolist())]
        return {"dim": self.dim, "terms": terms}

    def __repr__(self):
        return f"BallPoly(dim={self.dim}, terms={len(self.coefs)})"


@lru_cache(maxsize=8)
def _circle_points(grid_size: int) -> np.ndarray:
    """``grid_size`` equally spaced points on the unit circle: built once per
    size and shared, so it is returned read-only."""
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    out = np.exp(1j * theta)
    out.flags.writeable = False
    return out


def sup_norm_circle(f: DiskPoly, grid_size: int) -> float:
    """Max of |f| over a uniform grid on the unit circle."""
    if grid_size < 16:
        raise ParameterError("grid_size must be at least 16")
    return float(np.max(np.abs(f(_circle_points(grid_size)))))


class SelfMapDisk:
    """Polynomial self-map of the disk, admitted by a bound on the circle or
    on sampled boundary evidence.

    The bound is ``_sup_bound`` when a constructor proves one, else the
    coefficient absolute sum; one within the slack admits the series.  Else
    the boundary grid decides: evidence, not proof, that guards against gross
    mistakes.  |b(0)| < 1, constants included.
    """

    __slots__ = ("series",)

    def __init__(self, series: DiskPoly, _sup_bound: float | None = None):
        if not isinstance(series, DiskPoly):
            raise TypeError("series must be a DiskPoly")
        top = np.abs(series.coeffs).sum() if _sup_bound is None else _sup_bound
        if top > 1.0 + SELF_MAP_SLACK:
            top = sup_norm_circle(series, SELF_MAP_GRID)
        if top > 1.0 + SELF_MAP_SLACK:
            raise ValueError(
                f"boundary samples reach modulus {top:.6g}; not a disk self-map"
            )
        if abs(series.coeffs[0]) >= 1.0:
            raise ValueError("a disk self-map needs |b(0)| < 1")
        self.series = series

    @property
    def center(self) -> complex:
        """Value at the origin."""
        return complex(self.series.coeffs[0])

    def degree(self) -> int:
        return self.series.degree()

    def __call__(self, z):
        return self.series(z)

    def __repr__(self):
        return f"SelfMapDisk(degree={self.degree()}, center={self.center:.4g})"


@lru_cache(maxsize=None)
def _sphere_samples(dim: int, count: int) -> np.ndarray:
    """The fixed sphere sample that admits ball maps: drawn once per
    (dim, count) and shared, so it is returned read-only."""
    rng = np.random.default_rng(20240814)
    x = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x.flags.writeable = False
    return x


class BallMap:
    """Polynomial self-map of the unit ball, admitted by a coefficient bound
    or on sampled sphere evidence.

    ``coords`` holds one BallPoly per ambient coordinate.  A term c z^m has
    sphere maximum |c| prod_k (m_k / |m|)^(m_k / 2).  Where the l2 norm over
    coordinates of their sums passes 1 + SELF_MAP_SLACK, the squared moduli
    must sum to at most that on a fixed deterministic sphere sample.
    |b(0)| < 1.
    """

    __slots__ = ("dim", "coords")

    def __init__(self, coords):
        coords = list(coords)
        if not coords:
            raise ValueError("a ball map needs at least one coordinate")
        dim = len(coords)
        for c in coords:
            if not isinstance(c, BallPoly):
                raise TypeError("coordinates must be BallPoly instances")
            if c.dim != dim:
                raise ValueError("each coordinate must be a polynomial in dim variables")
        self.dim = dim
        self.coords = coords
        # sup of |z^m| on the sphere, taken at |z_k|^2 = m_k / |m|
        top = np.linalg.norm([np.abs(c.coefs) @ np.sqrt(np.prod((c.exps / np.maximum(
            c.exps.sum(axis=1, keepdims=True), 1)) ** c.exps, axis=1)) for c in coords])
        if top > 1.0 + SELF_MAP_SLACK:
            top = float(np.max(np.linalg.norm(self(_sphere_samples(dim, BALL_MAP_GRID)),
                                              axis=-1)))
        if top > 1.0 + SELF_MAP_SLACK:
            raise ValueError(
                f"sphere samples reach modulus {top:.6g}; not a ball self-map"
            )
        if float(np.linalg.norm(self.center)) >= 1.0:
            raise ValueError("a ball self-map needs |b(0)| < 1")

    @property
    def center(self) -> np.ndarray:
        """Image of the origin, as a length-dim vector."""
        return np.array([c.constant_term() for c in self.coords])

    def degree(self) -> int:
        return max(c.degree() for c in self.coords)

    def __call__(self, z) -> np.ndarray:
        """Evaluate at points of shape (..., dim); returns shape (..., dim)."""
        pts = np.asarray(z, dtype=complex)
        vals = [c(pts) for c in self.coords]
        return np.stack(vals, axis=-1)

    def __repr__(self):
        return f"BallMap(dim={self.dim}, degree={self.degree()})"


def _blaschke_tail(r: float, t: int) -> float:
    """(1 - r^2) r^t / (1 - r): the sum of the coefficient moduli after
    degree t of the Blaschke factor at a point of modulus r."""
    return (1.0 - r * r) * r**t / (1.0 - r)


def _blaschke_degree(r: float, tail_tol: float) -> int:
    """Least T >= 1 with a tail sum ``_blaschke_tail(r, T)`` <= tail_tol,
    for 0 < r < 1.

    T is estimated from logarithms and then stepped to the exact least T of
    the rounded predicate, which is monotone in T.  A T whose coefficients
    would pass the limit is refused before stepping.
    """
    def small(t):
        return _blaschke_tail(r, t) <= tail_tol

    est = (math.log(tail_tol) - math.log1p(r)) / math.log(r)
    t = 1  # est is -inf for tail_tol = inf
    if est > 1:
        # est is within one of T wherever floor(est) + 1 coefficients fit, so
        # this refuses no T whose T + 1 coefficients fit
        _check_bytes((math.floor(est) + 1) * np.dtype(complex).itemsize,
                     f"the coefficients for a tail below {tail_tol}")
        t = math.ceil(est)
    while not small(t):
        t += 1
    while t > 1 and small(t - 1):
        t -= 1
    return t


def blaschke_factor(a: complex, tail_tol: float = 1e-13) -> SelfMapDisk:
    """Truncated Taylor series of (z + a) / (1 + conj(a) z) as a self-map.

    Coefficients are a, then (-conj(a))**(n-1) * (1 - |a|^2); the truncation
    degree is chosen so the dropped tail has coefficient sum at most tail_tol.
    The factor has modulus 1 on the circle, so the truncation has modulus at
    most 1 + tail there; a tail within the admission slack admits it without
    the boundary grid.
    """
    a = complex(a)
    r = abs(a)
    if r >= 1.0:
        raise ValueError("the parameter must lie in the open disk")
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be positive")
    if r == 0.0:
        return SelfMapDisk(DiskPoly.identity())
    degree = _blaschke_degree(r, tail_tol)
    c = _coeff_zeros(degree + 1)
    c[0] = a
    c[1:] = (1.0 - r * r) * (-np.conj(a)) ** np.arange(degree)
    return SelfMapDisk(DiskPoly(c), _sup_bound=1.0 + _blaschke_tail(r, degree))
