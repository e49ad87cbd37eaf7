"""Norms in the contractively contained range spaces attached to a disk symbol.

For a polynomial self-map b, the space in play is the range of the defect
(I - M_b M_b*)^(1/2) inside the square-summable Taylor space, with the range
norm.  Finite kernel combinations get their norm from exact Gram algebra
and their Taylor coefficients by linearity over the nodes.  The defect
matrix's eigenbasis gives the orthonormal modes of the degree-truncated
space; it is exact for polynomial symbols because multiplication by b raises
degree and its adjoint lowers it, so the truncation commutes with the defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    NEGATIVE,
    KernelSpec,
    PointSet,
    check_psd,
    eig_tolerance,
)
from .operators import SpaceSpec, mult_matrix, weighted_comp_matrix
from .series import DiskPoly, SelfMapDisk, _check_bytes

__all__ = [
    "KernelPositivityError",
    "KernelCombo",
    "OnbApprox",
    "combo_to_poly",
    "hb_norm_combo",
    "defect_matrix",
    "onb_defect",
    "szego_residual",
    "summation_partial",
]

class KernelPositivityError(RuntimeError):
    """A kernel Gram that must be positive failed its certificate."""


@dataclass
class KernelCombo:
    """Finite combination sum_i coeffs[i] * K(., node_i) for the kernel of a
    ``dbr_power`` spec, the one source of the symbol b and the integer alpha:
    alpha = 1 is the plain symbol kernel, with dbr's Gram bit for bit, and
    alpha > 1 its alpha-fold entrywise power.
    """

    spec: KernelSpec
    nodes: PointSet
    coeffs: np.ndarray

    def __post_init__(self):
        if not isinstance(self.spec, KernelSpec) or self.spec.kind != "dbr_power":
            raise ValueError("a kernel combination takes a dbr_power spec")
        if self.nodes.dim != 1:
            raise ValueError("nodes live on the disk")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.nodes),):
            raise ValueError("one coefficient per node")


def hb_norm_combo(combo: KernelCombo) -> float:
    """Exact norm of a kernel combination: sqrt(c* G c) on the node Gram.

    The Gram must certify positive through ``check_psd``, whose Gram G is
    the one used; failure is reported as a kernel positivity error because
    it cannot happen for an admissible symbol.
    """
    cert = check_psd(combo.spec, combo.nodes)
    if cert.verdict == NEGATIVE:
        raise KernelPositivityError(
            f"node Gram failed positivity: min eigenvalue {cert.min_eigenvalue:.3g}"
        )
    q = float(np.real(np.vdot(combo.coeffs, cert.gram @ combo.coeffs)))
    return math.sqrt(max(q, 0.0))


def combo_to_poly(combo: KernelCombo, degree: int) -> DiskPoly:
    """Taylor coefficients through ``degree`` of a kernel combination.

    Node k's section is (1 - beta_k b)^alpha g_k, with beta_k = conj(b(w_k))
    and g_k the weighted geometric row binom(n + alpha - 1, n) conj(w_k)^n.
    With 1 - beta_k b = a_k - beta_k (b - b(0)) and a_k = 1 - beta_k b(0),
    the binomial expansion makes the combination the sum over j <= alpha of
    (b - b(0))^j times sum_k binom(alpha, j) a_k^(alpha - j) (-beta_k)^j c_k g_k:
    alpha + 1 weighted sums of the nodes' rows, each convolved with a power
    of b - b(0).  Centring at b(0) leaves the cancellation in a_k to one
    subtraction, as a product of the node's factors has it.  Every power is
    truncated at ``degree``, as is the result, so the truncation is exact
    through the requested degree.
    """
    b, alpha = combo.spec.b, int(combo.spec.alpha)
    w = combo.nodes.points[:, 0]
    _check_bytes(w.size * (degree + 1) * np.dtype(complex).itemsize,
                 f"{w.size}x{degree + 1} coefficients")
    weight = np.array([math.comb(n + alpha - 1, n) for n in range(degree + 1)],
                      dtype=float)
    rows = weight * np.conj(w)[:, None] ** np.arange(degree + 1)
    beta = np.conj(b(w))
    lead = 1.0 - beta * b.center
    shift = b.series.trimmed()[: degree + 1].copy()
    shift[0] = 0.0
    power = np.ones(1, dtype=complex)
    out = np.zeros(degree + 1, dtype=complex)
    for j in range(alpha + 1):
        if j:
            power = np.convolve(power, shift)[: degree + 1]
        scale = math.comb(alpha, j) * lead ** (alpha - j) * (-beta) ** j
        out += np.convolve(power, (scale * combo.coeffs) @ rows)[: degree + 1]
    return DiskPoly(out)


def defect_matrix(b: SelfMapDisk, degree: int) -> np.ndarray:
    """Compression of I - M_b M_b* to polynomials of degree <= degree.

    Exact (not just approximate) for polynomial b: the adjoint of
    multiplication lowers degree, so the compression of M_b M_b* equals the
    product of the square lower-triangular section with its adjoint.
    """
    space = SpaceSpec(1, 1.0)
    square = mult_matrix(b.series, space, degree, row_degree=degree).entries
    d = np.eye(degree + 1, dtype=complex) - square @ square.conj().T
    return 0.5 * (d + d.conj().T)


def _defect_eigs(b: SelfMapDisk, degree: int, rank_tol: float | None):
    d = defect_matrix(b, degree)
    lam, u = np.linalg.eigh(d)
    if rank_tol is None:
        rank_tol = float(eig_tolerance(lam))
    return lam, u, rank_tol


@dataclass
class OnbApprox:
    """Orthonormal basis of the degree-truncated range space.

    Modes are sqrt(eigenvalue) times the defect eigenvectors, eigenvalues in
    decreasing order, truncated at the rank tolerance.  Each mode has unit
    range norm and the modes reproduce the symbol kernel on test points.
    """

    b: SelfMapDisk
    eigenvalues: np.ndarray
    basis: list


def onb_defect(b: SelfMapDisk, degree: int, rank_tol: float | None) -> OnbApprox:
    lam, u, rank_tol = _defect_eigs(b, degree, rank_tol)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    u = u[:, order]
    kept = int(np.sum(lam > rank_tol))
    basis = [DiskPoly(math.sqrt(float(lam[m])) * u[:, m]) for m in range(kept)]
    return OnbApprox(b=b, eigenvalues=lam[:kept], basis=basis)


def szego_residual(onb: OnbApprox, test_points: PointSet) -> float:
    """Max residual of the kernel identity on all pairs of test points.

    Checks sum_m conj(f_m(z)) f_m(w) * (1 - b(z) conj(b(w))) against the
    unweighted kernel 1 / (1 - conj(z) w); pairs use points of modulus at
    most 0.7 so the geometric factors stay well conditioned.  A set whose
    arrays would pass MAX_SECTION_BYTES is refused before they are built.
    """
    if test_points.dim != 1:
        raise ValueError("test points live on the disk")
    pts = test_points.points[:, 0]
    if float(np.max(np.abs(pts))) > 0.7:
        raise ValueError("test points must satisfy |z| <= 0.7")
    m, k = len(pts), len(onb.basis)
    # at the peak: s, target, factor, s / factor and the difference, m x m
    # each, beside the k x m mode values and the m values of b
    _check_bytes(16 * (5 * m * m + (k + 1) * m) + 8192,
                 f"a {m}-point kernel identity check")
    vals = np.array([p(pts) for p in onb.basis])
    s = vals.conj().T @ vals
    bv = onb.b(pts)
    target = 1.0 / (1.0 - np.outer(pts.conj(), pts))
    factor = 1.0 - np.outer(bv.conj(), bv)
    return float(np.max(np.abs(target - s / factor)))


def summation_partial(b: SelfMapDisk, degree: int, mode_count: int | None,
                      test_degree: int, rank_tol: float | None) -> tuple:
    """Partial sums S_k of the resolution of the identity by the modes.

    Each mode contributes X X* with X the exact weighted composition section
    of the mode against b, stored through the last row it reaches.  The
    partial sums increase toward the identity on the monitored degrees.
    Returns (partials, defects): for each k, the compression of S_k and the
    worst distance of S_k from the identity on the monitored basis vectors.
    """
    if test_degree < 0:
        raise ValueError("test_degree must be nonnegative")
    if test_degree > degree:
        raise ValueError("test_degree must not exceed the section degree")
    if mode_count is not None and mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    onb = onb_defect(b, degree, rank_tol)
    modes = onb.basis if mode_count is None else onb.basis[:mode_count]
    if not modes:
        raise ValueError("no modes above the rank tolerance")
    m_test = test_degree + 1
    partials = []
    defects = []
    s = np.zeros((m_test, m_test), dtype=complex)
    # sections stop at their last reached row, so their row counts differ;
    # the accumulated action is padded to the largest possible
    act_rows = degree * b.degree() + degree + 1
    _check_bytes(act_rows * m_test * np.dtype(complex).itemsize,
                 f"a {act_rows}x{m_test} action buffer")
    act = np.zeros((act_rows, m_test), dtype=complex)
    for f in modes:
        z = weighted_comp_matrix(f, b, SpaceSpec(1, 1.0), degree).entries
        x = np.zeros((m_test, z.shape[1]), dtype=complex)
        x[: len(z)] = z[:m_test]  # z may stop before m_test rows
        s = s + x @ x.conj().T
        act[: z.shape[0], :] += z @ x.conj().T
        partials.append(0.5 * (s + s.conj().T))
        resid = -act
        resid[:m_test, :] += np.eye(m_test)
        defects.append(float(np.max(np.linalg.norm(resid, axis=0))))
    return partials, defects

