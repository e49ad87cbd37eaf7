"""Deterministic random inputs for batch experiments.

Every generator takes an explicit numpy Generator; batch drivers derive one
substream per trial from (seed, trial index), so results never depend on
execution order.
"""

from __future__ import annotations

import numpy as np

from .dbr import KernelCombo, hb_norm_combo
from .kernels import SamplingError, sample_point_set
from .operators import grlex_monomials
from .series import SELF_MAP_GRID, BallMap, BallPoly, DiskPoly, SelfMapDisk, \
    sup_norm_circle

__all__ = [
    "random_disk_symbol",
    "random_kernel_combo",
    "random_ball_row_contraction",
]


def random_disk_symbol(rng: np.random.Generator, max_degree: int,
                       boundary_max: float) -> SelfMapDisk:
    """Random polynomial self-map with boundary modulus at most boundary_max.

    Gaussian coefficients are rescaled by the sampled boundary maximum, so
    the closed-form bounds under test stay strictly inside their hypotheses.
    """
    if not 0.0 < boundary_max < 1.0:
        raise ValueError("boundary_max must lie strictly between 0 and 1")
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    raw = DiskPoly(coeffs)
    top = sup_norm_circle(raw, SELF_MAP_GRID)
    scale = boundary_max * float(rng.uniform(0.5, 1.0)) / top
    return SelfMapDisk(scale * raw)


def random_kernel_combo(rng: np.random.Generator, b: SelfMapDisk, alpha: int,
                        max_nodes: int, node_radius: float) -> KernelCombo:
    """Random kernel combination on a handful of disk nodes, its coefficients
    rescaled to unit range norm, so contraction statements read directly off
    the combo.
    """
    count = int(rng.integers(1, max_nodes + 1))
    nodes = sample_point_set(rng, 1, node_radius, count)
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    value = hb_norm_combo(KernelCombo(b=b, alpha=alpha, nodes=nodes,
                                      coeffs=coeffs))
    if value < 1e-8:
        raise SamplingError("degenerate combo draw; use another substream")
    return KernelCombo(b=b, alpha=alpha, nodes=nodes, coeffs=coeffs / value)


def random_ball_row_contraction(rng: np.random.Generator, dim: int,
                                coord_degree: int,
                                row_target: float) -> BallMap:
    """Random polynomial ball map whose coordinate row is a strict multiplier
    contraction.

    Monomials are products of the coordinate multipliers, which are
    contractions for every exponent alpha >= 1, so each coordinate's
    multiplier norm is dominated by its coefficient absolute sum.  Scaling by
    the root sum of squares of those sums keeps the row multiplier norm at
    most row_target < 1, which certifies positivity of the associated map
    kernels for integer exponents.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if coord_degree < 0:
        raise ValueError("coord_degree must be nonnegative")
    if not 0.0 < row_target < 1.0:
        raise ValueError("row_target must lie strictly between 0 and 1")
    mons = grlex_monomials(dim, coord_degree)
    coords = []
    sums = []
    for _ in range(dim):
        terms = {}
        for m in mons:
            terms[m] = complex(rng.standard_normal(), rng.standard_normal())
        p = BallPoly(dim, terms)
        coords.append(p)
        sums.append(sum(abs(c) for c in p.terms.values()))
    total = float(np.linalg.norm(sums))
    scale = row_target / total
    return BallMap([scale * p for p in coords])
