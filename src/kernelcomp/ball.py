"""Several-variable checks: row multipliers, inverse-kernel weights, and the
degenerate product map.

The product map (z1, z2) -> (2 r z1 z2, 0) is the boundary case of the theory:
its composition sections stay bounded for r < 1 and blow up at r = 1, and the
associated kernel loses positivity once r exceeds the multiplier norm
threshold of z1 z2, so both certified growth and certified negativity are
observable at desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    KernelSpec,
    check_psd,
    find_negative_witness,
    sample_point_set,
    seed_tuple,
)
from .operators import NormBound, SpaceSpec, comp_matrix, mult_matrix, op_norm_lower
from .series import BallMap, BallPoly

__all__ = [
    "coord_mult_sections",
    "row_mult_norm",
    "inv_kernel_mult_norm",
    "br_map",
    "br_experiment",
]


def coord_mult_sections(b: BallMap, alpha: float, col_degree: int) -> list:
    """Multiplication sections of the coordinates of b, all with the row
    degree col_degree + deg(b) so that they sum entry by entry."""
    space = SpaceSpec(b.dim, float(alpha))
    row_degree = col_degree + b.degree()
    return [mult_matrix(coord, space, col_degree, row_degree=row_degree)
            for coord in b.coords]


def row_mult_norm(b: BallMap, w, coord_sections: list) -> tuple:
    """Certified lower bound for the row multiplier norm at w, and |b(w)|.

    The row operator is sum_i conj(b_i(w)) M_{b_i}; when the map kernel is
    positive its norm is at most |b(w)|, so the returned (lower, |b(w)|)
    has |b(w)| - lower nonnegative up to rounding.

    ``coord_sections`` is ``coord_mult_sections(b, alpha, col_degree)``,
    built once for every point checked on one map; it fixes alpha and the
    column degree.
    """
    wv = np.atleast_1d(np.asarray(w, dtype=complex))
    if wv.size != b.dim:
        raise ValueError("w must have one coordinate per map component")
    if float(np.linalg.norm(wv)) >= 1.0:
        raise ValueError("w must lie strictly inside the ball")
    if len(coord_sections) != len(b.coords):
        raise ValueError("coord_sections must hold one section per coordinate")
    bw = np.array([c(wv) for c in b.coords], dtype=complex)
    acc = None
    for i, section in enumerate(coord_sections):
        term = np.conj(bw[i]) * section.entries
        acc = term if acc is None else acc + term
    acc = acc[np.any(acc != 0, axis=1)]
    sigma = float(np.linalg.svd(acc, compute_uv=False)[0]) if acc.size else 0.0
    return sigma, float(np.linalg.norm(bw))


def inv_kernel_mult_norm(b: BallMap, alpha: float, col_degree: int,
                         tail_tol: float = 1e-10,
                         max_terms: int = 2000) -> tuple:
    """Bracket (lower, upper) for the multiplier (1 - <b(z), b(0)>) ** (-alpha).

    The weight expands as sum_k rising(alpha, k) / k! * s(z)^k with
    s(z) = <b(z), b(0)>; since |s| <= |b(0)| < 1 on the ball, the series is
    truncated once a geometric tail estimate drops below tail_tol.  lower is
    the certified section bound of ``op_norm_lower`` at col_degree; the upper
    bound (1 - |b(0)|) ** (-alpha) comes with kernel positivity.
    """
    alpha = float(alpha)
    space = SpaceSpec(b.dim, alpha)
    center = b.center
    beta = float(np.linalg.norm(center))
    upper = float((1.0 - beta) ** (-alpha))
    s = BallPoly.zero(b.dim)
    for coord, c0 in zip(b.coords, center):
        s = s + np.conj(c0) * coord
    # the coefficients up to the truncation point, found before any
    # polynomial is multiplied so that an overflow is refused at once
    coeffs = []
    coeff = 1.0
    k = 0
    while beta > 0.0:
        k += 1
        coeff *= (alpha + k - 1) / k
        if not math.isfinite(coeff):
            raise ValueError(
                f"the inverse-kernel weight series overflows at "
                f"alpha={alpha:g}: rising(alpha, k) / k! passes float "
                f"range at k={k}")
        coeffs.append(coeff)
        # remaining terms are dominated by a geometric series once the
        # term ratio beta * (alpha + k) / (k + 1) falls below 1
        ratio = beta * (alpha + k) / (k + 1)
        head = coeff * beta**k
        if ratio < 1.0 and head * ratio / (1.0 - ratio) <= tail_tol:
            break
        if k >= max_terms:
            raise ValueError(
                "weight series needs more terms than allowed; "
                "increase max_terms or loosen tail_tol"
            )
    weight = BallPoly.constant(b.dim, 1.0)
    term_poly = BallPoly.constant(b.dim, 1.0)
    for coeff in coeffs:
        term_poly = term_poly * s
        weight = weight + coeff * term_poly
    section = mult_matrix(weight, space, col_degree)
    return op_norm_lower(section, trace_degrees=[col_degree]).lower, upper


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
    is constant and the composition operator has norm exactly 1, so the trace
    is reported flat without building sections.

    Returns (bracket, cert, found): the trace's ``NormBound``, the search's
    NEGATIVE certificate if ``found``, else that of a probe at the search's
    trial-0 points.  The probe is drawn either way.
    """
    b = br_map(r)
    alpha = float(alpha)
    if r == 0.0:
        bracket = NormBound(1.0, [(int(d), 1.0) for d in sorted(trace_degrees)])
    else:
        section = comp_matrix(b, SpaceSpec(2, alpha), section_degree)
        bracket = op_norm_lower(section, trace_degrees=trace_degrees)
    spec = KernelSpec.ball_map(b, alpha)
    witness = find_negative_witness(spec, seed=seed, radius=radius,
                                    set_size=set_size, budget=witness_budget)
    rng = np.random.default_rng(seed_tuple(seed) + (0,))
    probe = check_psd(spec, sample_point_set(rng, 2, radius, set_size))
    probe.seed = seed
    found = witness is not None
    return bracket, witness if found else probe, found
