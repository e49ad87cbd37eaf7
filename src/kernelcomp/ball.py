"""Several-variable checks: row multipliers, inverse-kernel weights, and the
degenerate product map.

The product map (z1, z2) -> (2 r z1 z2, 0) is the boundary case of the theory:
its composition operator is bounded for r < 1 and unbounded at r = 1, and its
kernel is not PSD once 4 r^2 > alpha + 1, though C_b stays bounded below
r = 1.  Its section norms and positivity verdicts follow from closed forms in
r and alpha; nothing is sampled.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .kernels import TOL_SCALE, DomainError, KernelSpec, PointSet, check_psd
from .operators import SpaceSpec, _check_section_size, _grlex_rank, _monomial_count, \
    _plan, comp_matrix, grlex_monomials, mult_matrix, op_norm_lower
from .series import BallMap, BallPoly, _check_bytes

__all__ = [
    "coord_mult_sections",
    "row_mult_norm",
    "inv_kernel_mult_norm",
    "br_map",
    "br_norms",
    "br_rise_limit",
    "br_witness",
    "br_experiment",
]


def coord_mult_sections(b: BallMap, alpha: float, col_degree: int) -> list:
    """Multiplication sections of the coordinates of b, all with the row
    degree col_degree + deg(b) so that their cross Grams are defined."""
    space = SpaceSpec(b.dim, float(alpha))
    row_degree = col_degree + b.degree()
    return [mult_matrix(coord, space, col_degree, row_degree=row_degree)
            for coord in b.coords]


# bytes of the Gram stack that ``row_mult_norm`` eigen-solves at once
_ROW_STACK_BYTES = 1 << 22


def row_mult_norm(b: BallMap, point_set: PointSet, coord_sections: list) -> tuple:
    """Certified lower bounds for the row multiplier norms at the points of
    ``point_set``, and the values |b(w)|, as two arrays of length P.

    The row operator at w is A_w = sum_i conj(b_i(w)) S_i over the sections
    S_i of ``coord_mult_sections(b, alpha, col_degree)``; when the map kernel
    is positive its norm is at most |b(w)|, so each |b(w)| - lower is
    nonnegative up to rounding.  lower is the root of the top eigenvalue of
    A_w^H A_w = sum_ij b_i(w) conj(b_j(w)) C_ij, from the cross Grams
    C_ij = S_i^H S_j (multiplied for i <= j, mirrored for i > j) formed once
    per call; points are eigen-solved in blocks of _ROW_STACK_BYTES of Grams.
    A set whose dim is not b's raises DomainError, as in ``gram``.
    """
    if point_set.dim != b.dim:
        raise DomainError("point set dimension does not match the map")
    if len(coord_sections) != len(b.coords):
        raise ValueError("coord_sections must hold one section per coordinate")
    (rows, n), d, count = coord_sections[0].entries.shape, len(b.coords), len(point_set)
    block = max(1, min(count, _ROW_STACK_BYTES // (16 * n * n)))
    # complex values held at once: the cross Grams, a conjugated section, a
    # block's Grams and eigenvalues, and per point b(w), d * d weights, results
    _check_bytes(16 * ((d * d + block) * n * n + (rows + block) * n
                       + count * (d * d + d + 1)),
                 f"row multiplier Grams of {count} points at {n} columns")
    bw = b(point_set.points)
    lower, bounds = np.empty(count), np.linalg.norm(bw, axis=1)
    cross = np.empty((d, d, n, n), dtype=complex)
    for i, j in zip(*np.triu_indices(d)):
        np.matmul(coord_sections[i].entries.conj().T, coord_sections[j].entries,
                  out=cross[i, j])
        if j > i:
            cross[j, i] = cross[i, j].conj().T
    weights = (bw[:, :, None] * bw[:, None, :].conj()).reshape(count, d * d)
    grams = np.empty((block, n * n), dtype=complex)
    for lo in range(0, count, block):
        part = weights[lo:lo + block]
        np.matmul(part, cross.reshape(d * d, n * n), out=grams[:len(part)])
        top = np.linalg.eigvalsh(grams[:len(part)].reshape(-1, n, n))[:, -1]
        lower[lo:lo + block] = np.sqrt(np.maximum(top, 0.0))
    return lower, bounds


def _shifted_ranks(shifts: np.ndarray, dim: int, top: int) -> np.ndarray:
    """Gather of (t Q)_m = sum_j tau_j Q[m - a_j] over t's terms tau_j z^(a_j):
    the rank of m less each shift a_j, or -1 (Q's zero slot) outside N^dim."""
    shifted = grlex_monomials(dim, top) - shifts[:, None, :]
    return np.where(np.all(shifted >= 0, axis=-1), _grlex_rank(shifted), -1)


def _inv_kernel_weight(b: BallMap, alpha: float, top: int) -> np.ndarray:
    """W's grlex coefficients through degree top (``inv_kernel_mult_norm``)."""
    s = BallPoly.zero(b.dim)
    for coord, c0 in zip(b.coords, b.center):
        s = s + np.conj(c0) * coord
    q = 1.0 - s.constant_term().real
    moving = s.exps.any(axis=1)
    tau, count = s.coefs[moving] / q, _monomial_count(b.dim, top)
    _check_bytes(8 * (3 + b.dim) * len(tau) * count, f"a {len(tau)}x{count} gather")
    gather = _plan(_shifted_ranks, s.exps[moving], b.dim, top)
    p = np.zeros(count + 1, dtype=complex)
    for k in range(top, 0, -1):
        p[0] += 1.0  # 1 + P
        p[:-1] = (alpha + k - 1) / k * (tau @ p[gather])
    p[0] += 1.0
    return q ** (-alpha) * p[:-1]


def inv_kernel_mult_norm(b: BallMap, alpha: float, col_degree: int) -> tuple:
    """Bracket (lower, upper) for the multiplier W = (1 - <b(z), b(0)>) ** (-alpha).

    With s(z) = <b(z), b(0)>, q = 1 - |b(0)|^2 and t = (s - |b(0)|^2) / q,
    W = q^(-alpha) * sum_k rising(alpha, k) / k! * t^k.  t has no constant
    term, so t^k has no monomial below degree k and W's coefficients through
    degree D = 3 * col_degree are the finite sum over k <= D.  They come from
    Horner's rule in the monomial basis, P <- (alpha + k - 1) / k * t (1 + P)
    for k = D, ..., 1 and W = q^(-alpha) (1 + P), with t (1 + P) one gather.

    lower is ``op_norm_lower``'s bound at col_degree on W's ``mult_matrix``
    section cut at row degree D, the section of P_D M_W, so it bounds the
    norm of the exact weight up to rounding (||P_D M_W v|| <= ||M_W v||).
    The upper bound (1 - |b(0)|) ** (-alpha) >= q^(-alpha) comes
    with kernel positivity.  A ValueError names alpha when the closed form,
    the weight or the section leaves float range.  A cut section past
    MAX_SECTION_BYTES, which ``mult_matrix`` would refuse, is refused before
    the weight is computed.
    """
    alpha = float(alpha)
    space, top = SpaceSpec(b.dim, alpha), 3 * col_degree
    _check_section_size(b.dim, top, col_degree)
    try:
        with np.errstate(over="raise", invalid="raise"):
            upper = (1.0 - float(np.linalg.norm(b.center))) ** (-alpha)
            weight = _inv_kernel_weight(b, alpha, top)
            if not np.all(np.isfinite(weight)):
                raise OverflowError
            f = BallPoly._of(b.dim, grlex_monomials(b.dim, top), weight)
            section = mult_matrix(f, space, col_degree, row_degree=top)
            lower = op_norm_lower(section, trace_degrees=[col_degree]).lower
    except (OverflowError, FloatingPointError):
        raise ValueError(f"the inverse-kernel weight passes float range at "
                         f"alpha={alpha:g}") from None
    return lower, upper


def br_map(r: float) -> BallMap:
    """The two-variable product map (z1, z2) -> (2 r z1 z2, 0)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    first = BallPoly(2, {(1, 1): 2.0 * float(r)})
    return BallMap([first, BallPoly.zero(2)])


def br_norms(r: float, alpha: float, degrees) -> list:
    """(L_d, rose) at each ascending degree d: L_d = max_{k <= d} w_k, the
    norm of the product map's section at column degree d, and whether it
    passes the L before it (the first does).  C_b sends z1^k to (2r z1 z2)^k
    and every other monomial but 1 to 0, so the images are orthogonal and
    w_k^2 = (2r)^(2k) k! Gamma(alpha + k) / Gamma(alpha + 2k).  Each w_k^2 is
    an exact ratio of integers: comparisons are exact, L_d within 1 ulp."""
    (m, d), (p, q) = (2.0 * r).as_integer_ratio(), float(alpha).as_integer_ratio()
    num = den = 1
    best, out, k = (1, 1), [], 0
    for top in degrees:
        rose = not out
        while k < top:
            num *= m * m * (k + 1) * (p + k * q) * q
            den *= d * d * (p + 2 * k * q) * (p + (2 * k + 1) * q)
            k += 1
            if num * best[1] > best[0] * den:
                best, rose = (num, den), True
        out.append((math.sqrt(best[0] / best[1]), rose))
    return out


def br_rise_limit(r: float) -> int:
    """An index past which w_k never rises, for r < 1: w_(k+1)^2 / w_k^2 =
    4 r^2 (k + 1)(alpha + k) / ((alpha + 2k)(alpha + 2k + 1)) <= r^2 (1 + 9 /
    (8 (2k + 1))) at every alpha >= 1, so it is at most 1 once 2k + 1 >=
    9 r^2 / (8 (1 - r^2)).  Exact in r."""
    r2 = Fraction(r) ** 2
    return max(0, math.ceil((9 * r2 / (8 * (1 - r2)) - 1) / 2))


# the four points eps (+-1, +-1) on which br decides the map kernel
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def br_witness(r: float, alpha: float, eps: float | None = None):
    """Four points eps (+-1, +-1) on which the map kernel sum_a k_a z^a
    conj(w)^a is not PSD, or None when k_11 = alpha (alpha + 1 - 4 r^2) >= 0
    (its sign is exact).  With coefficients s1 s2 they keep the modes with a1,
    a2 odd: c^H G c = 16 sum k_a eps^(2|a|).  As |C(alpha, j)| <= rising(alpha,
    j) / j!, sum_a |k_a| 4^-|a| <= M = (2 / (1 - r^2 / 4))^alpha, so the terms
    |a| >= 4 take at most 256 M eps^8: each eps^4 < -k_11 / (256 M) gives
    lambda_min <= c^H G c / 4 < 0.  eps defaults to half that bound in eps^4;
    one at or past it raises ValueError."""
    a = Fraction(alpha)
    k11 = float(a * (a + 1 - 4 * Fraction(r) ** 2))
    if k11 >= 0.0:
        return None
    limit = -k11 / (256.0 * (2.0 / (1.0 - r * r / 4.0)) ** alpha)
    eps = (limit / 2.0) ** 0.25 if eps is None else eps
    if not 0.0 < eps ** 4 < limit:
        raise ValueError(f"eps={eps:g} needs 0 < eps^4 < {limit:.6g}, the witness bound")
    return PointSet(eps * _SIGNS)


def _br_scan(r: float, alpha: float, top: int) -> tuple:
    """("negative" or "unproved", least) from the map kernel's coefficients
    k_a, a1 + a2 <= top, each over its positive r = 0 value: a sum of t_j,
    t_0 = 1, t_(j+1) / t_j = -4r^2 (alpha - j)(a1 - j)(a2 - j) / ((j + 1)
    (alpha + |a| - 2j - 1)(alpha + |a| - 2j - 2)).  A ratio takes at most 12
    roundings, so a float sum is within gamma_(7 top) sum_j |t_j| of its value;
    it counts as negative only below TOL_SCALE * top * eps times that.  A PSD
    kernel has no negative k_a: averaging K(rho zeta, rho eta) against
    conj(zeta)^a eta^a over the torus gives k_a rho^(2|a|).  least is the
    least sum."""
    a1, a2 = np.triu_indices(top + 1)
    keep = a1 + a2 <= top
    a1, a2 = a1[keep].astype(float), a2[keep].astype(float)
    m = alpha + a1 + a2
    t, k, size = np.ones(len(a1)), np.ones(len(a1)), np.ones(len(a1))
    live = np.arange(len(a1))
    for j in range(top // 2):
        live = live[a1[live] > j]
        x, y, n = a1[live] - j, a2[live] - j, m[live] - 2 * j
        t[live] *= -4.0 * r * r * (alpha - j) * x * y / ((j + 1) * (n - 1) * (n - 2))
        k[live] += t[live]
        size[live] += np.abs(t[live])
    negative = k < -TOL_SCALE * top * float(np.finfo(float).eps) * size
    return "negative" if negative.any() else "unproved", float(k.min())


def br_experiment(r: float, *, trace_degrees, alpha: float,
                  section_degree: int) -> tuple:
    """Section trace and positivity verdict for the product map at r; the
    verdict follows from r and alpha alone.

    Returns (bracket, verdict, cert, least): the trace's ``NormBound``;
    "negative", "psd" or "unproved"; ``check_psd`` on four points eps
    (+-1, +-1); and the least scanned coefficient, or None.  The verdict is
    "negative" on ``br_witness``'s points when k_11 < 0.  Else, at integer
    alpha with r^2 <= 1/2, it is "psd": at alpha 1 each k_a = |a|!/a! (1 - 4
    r^2 a1 a2 / (|a| (|a| - 1))) >= 0, and integer powers are Schur products.
    Else ``_br_scan`` reads the coefficients through degree 2 * section_degree.
    Those two take eps = 1/2.  At r = 0 the map is the constant 0, whose
    one-row section reads exactly 1 at every degree.
    """
    b = br_map(r)
    alpha = float(alpha)
    section = comp_matrix(b, SpaceSpec(2, alpha), section_degree)
    bracket = op_norm_lower(section, trace_degrees=trace_degrees)
    points, verdict, least = br_witness(r, alpha), "negative", None
    if points is None:
        points = PointSet(0.5 * _SIGNS)
        if alpha.is_integer() and 2 * Fraction(r) ** 2 <= 1:
            verdict = "psd"
        else:
            verdict, least = _br_scan(r, alpha, 2 * section_degree)
    return bracket, verdict, check_psd(KernelSpec("ball_map", alpha, b), points), least
