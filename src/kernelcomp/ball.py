"""Several-variable checks: row multipliers, inverse-kernel weights, and the
degenerate product map.

The product map (z1, z2) -> (2 r z1 z2, 0) is the boundary case of the theory:
its composition sections stay bounded for r < 1 and blow up at r = 1, and the
associated kernel loses positivity once r exceeds the multiplier norm
threshold of z1 z2, so both certified growth and certified negativity are
observable at desk scale.
"""

from __future__ import annotations

import numpy as np

from .kernels import (
    DomainError,
    KernelSpec,
    PointSet,
    check_psd,
    find_negative_witness,
    sample_point_set,
    trial_stream,
)
from .operators import SpaceSpec, _check_section_size, _grlex_rank, _monomial_count, \
    _plan, comp_matrix, grlex_monomials, mult_matrix, op_norm_lower
from .series import BallMap, BallPoly, _check_bytes

__all__ = [
    "coord_mult_sections",
    "row_mult_norm",
    "inv_kernel_mult_norm",
    "br_map",
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


def br_experiment(r: float, *, trace_degrees, alpha: float,
                  section_degree: int, witness_budget: int, set_size: int,
                  radius: float, seed) -> tuple:
    """Growth trace and positivity scan for the product map at parameter r.

    The composition section trace certifies norm growth (strictly increasing
    and unbounded at r = 1, saturating for r < 1); the randomized scan hunts
    for a point set whose map kernel Gram fails positivity.  At r = 0 the map
    is the constant 0, whose one-row section reads exactly 1 at every degree.

    Returns (bracket, cert): the trace's ``NormBound``, and the search's
    NEGATIVE certificate, else that of a probe at the search's trial-0
    points: ``sample_point_set`` on the start of the search's
    ``trial_stream(seed)``, drawn either way.  Past a zero budget the
    search has decided the probe, so cert is NEGATIVE iff it found one.
    """
    b = br_map(r)
    alpha = float(alpha)
    section = comp_matrix(b, SpaceSpec(2, alpha), section_degree)
    bracket = op_norm_lower(section, trace_degrees=trace_degrees)
    spec = KernelSpec("ball_map", alpha, b)
    witness = find_negative_witness(spec, seed=seed, radius=radius,
                                    set_size=set_size, budget=witness_budget)
    probe = check_psd(spec, sample_point_set(trial_stream(seed), 2, radius,
                                             set_size))
    return bracket, probe if witness is None else witness
