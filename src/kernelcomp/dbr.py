"""Norms in the contractively contained range spaces attached to a disk symbol.

For a polynomial self-map b, the space in play is the range of the defect
(I - M_b M_b*)^(1/2) inside the square-summable Taylor space, with the range
norm.  Two independent norm routes are implemented: exact Gram algebra on
finite kernel combinations, and the defect-matrix pseudoinverse on truncated
coefficient vectors.  The defect matrix is exact for polynomial symbols
because multiplication by b raises degree and its adjoint lowers it, so the
truncation commutes with the defect.
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
    gram,
)
from .operators import SpaceSpec, comp_matrix, mult_matrix, weighted_comp_matrix
from .series import DiskPoly, SelfMapDisk, _check_bytes

__all__ = [
    "KernelPositivityError",
    "KernelCombo",
    "OnbApprox",
    "kernel_section_poly",
    "combo_to_poly",
    "hb_norm_combo",
    "defect_matrix",
    "hb_norm_defect",
    "onb_defect",
    "szego_residual",
    "summation_partial",
]

class KernelPositivityError(RuntimeError):
    """A kernel Gram that must be positive failed its certificate."""


def _require_nonconstant(b: SelfMapDisk):
    if not isinstance(b, SelfMapDisk):
        raise TypeError("b must be a SelfMapDisk")
    if b.is_constant():
        raise ValueError("constant symbols do not generate a range space here")


@dataclass
class KernelCombo:
    """Finite combination sum_i coeffs[i] * K(., node_i) for the symbol kernel.

    alpha = 1 uses the plain symbol kernel; integer alpha > 1 uses its
    alpha-fold entrywise power.
    """

    b: SelfMapDisk
    alpha: int
    nodes: PointSet
    coeffs: np.ndarray

    def __post_init__(self):
        _require_nonconstant(self.b)
        if int(self.alpha) != self.alpha or self.alpha < 1:
            raise ValueError("alpha must be a positive integer")
        self.alpha = int(self.alpha)
        if self.nodes.dim != 1:
            raise ValueError("nodes live on the disk")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.nodes),):
            raise ValueError("one coefficient per node")

    def spec(self) -> KernelSpec:
        if self.alpha == 1:
            return KernelSpec.dbr(self.b)
        return KernelSpec.dbr_power(self.b, self.alpha)


def hb_norm_combo(combo: KernelCombo) -> float:
    """Exact norm of a kernel combination: sqrt(c* G c) on the node Gram.

    The Gram must certify positive; failure is reported as a kernel
    positivity error because it cannot happen for an admissible symbol.
    """
    spec = combo.spec()
    cert = check_psd(spec, combo.nodes)
    if cert.verdict == NEGATIVE:
        raise KernelPositivityError(
            f"node Gram failed positivity: min eigenvalue {cert.min_eigenvalue:.3g}"
        )
    g = gram(spec, combo.nodes)
    q = float(np.real(np.vdot(combo.coeffs, g @ combo.coeffs)))
    return math.sqrt(max(q, 0.0))


def kernel_section_poly(b: SelfMapDisk, alpha: int, w: complex,
                        degree: int) -> DiskPoly:
    """Taylor coefficients through ``degree`` of the kernel section at w.

    The section is (1 - b(z) conj(b(w))) ** alpha times the alpha-weight
    geometric factor sum_n binom(n + alpha - 1, n) conj(w)^n z^n; both factors
    are polynomials or explicit series, so the truncation is exact through
    the requested degree.
    """
    _require_nonconstant(b)
    if int(alpha) != alpha or alpha < 1:
        raise ValueError("alpha must be a positive integer")
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("nodes must lie strictly inside the disk")
    alpha = int(alpha)
    _check_bytes((degree + 1) * np.dtype(complex).itemsize,
                 f"{degree + 1} coefficients")
    numer = (DiskPoly.one() + (-np.conj(b(w))) * b.series) ** alpha
    geo = DiskPoly(
        [math.comb(n + alpha - 1, n) * np.conj(w) ** n for n in range(degree + 1)]
    )
    return (numer * geo).truncated(degree)


def combo_to_poly(combo: KernelCombo, degree: int) -> DiskPoly:
    """Truncated Taylor form of a kernel combination."""
    out = DiskPoly.zero()
    for node, c in zip(combo.nodes.points[:, 0], combo.coeffs):
        out = out + c * kernel_section_poly(combo.b, combo.alpha, node, degree)
    return out.truncated(degree)


def defect_matrix(b: SelfMapDisk, degree: int) -> np.ndarray:
    """Compression of I - M_b M_b* to polynomials of degree <= degree.

    Exact (not just approximate) for polynomial b: the adjoint of
    multiplication lowers degree, so the compression of M_b M_b* equals the
    product of the square lower-triangular section with its adjoint.
    """
    _require_nonconstant(b)
    space = SpaceSpec(1, 1.0)
    full = mult_matrix(b.series, space, degree).entries
    square = full[: degree + 1, :]
    d = np.eye(degree + 1, dtype=complex) - square @ square.conj().T
    return 0.5 * (d + d.conj().T)


def _defect_eigs(b: SelfMapDisk, degree: int, rank_tol: float | None):
    d = defect_matrix(b, degree)
    lam, u = np.linalg.eigh(d)
    if rank_tol is None:
        rank_tol = float(eig_tolerance(lam))
    return lam, u, rank_tol


def hb_norm_defect(f: DiskPoly, b: SelfMapDisk, degree: int) -> tuple:
    """Range norm of a polynomial via the defect pseudoinverse.

    Solves the defect against f in the eigenbasis, keeping modes above the
    rank tolerance.  Returns (value, residual): the component of f outside
    the numerical range shows up as the residual; a residual above about
    1e-6 marks f as (numerically) not in the space, and the value is still
    reported for diagnosis.
    """
    if f.degree() > degree:
        raise ValueError("f must have degree at most the section degree")
    lam, u, rank_tol = _defect_eigs(b, degree, None)
    y = u.conj().T @ f.padded(degree)
    kept = lam > rank_tol
    value = math.sqrt(float(np.sum(np.abs(y[kept]) ** 2 / lam[kept]))) \
        if np.any(kept) else 0.0
    return value, float(np.linalg.norm(y[~kept]))


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
    most 0.7 so the geometric factors stay well conditioned.
    """
    if test_points.dim != 1:
        raise ValueError("test points live on the disk")
    pts = test_points.points[:, 0]
    if float(np.max(np.abs(pts))) > 0.7:
        raise ValueError("test points must satisfy |z| <= 0.7")
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
    of the mode against b.  The partial sums increase toward the identity on
    the monitored degrees.  Returns (partials, defects): for each k, the
    compression of S_k and the worst distance of S_k from the identity on
    the monitored basis vectors.
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
    space = SpaceSpec(1, 1.0)
    m_test = test_degree + 1
    partials = []
    defects = []
    s = np.zeros((m_test, m_test), dtype=complex)
    # modes may have different degrees, so their sections have different row
    # counts; the accumulated action is padded to the largest possible
    act_rows = degree * b.degree() + degree + 1
    _check_bytes(act_rows * m_test * np.dtype(complex).itemsize,
                 f"a {act_rows}x{m_test} action buffer")
    act = np.zeros((act_rows, m_test), dtype=complex)
    comp = comp_matrix(b, space, degree)
    for f in modes:
        z = weighted_comp_matrix(f, comp).entries
        x = z[:m_test, :]
        s = s + x @ x.conj().T
        act[: z.shape[0], :] += z @ x.conj().T
        partials.append(0.5 * (s + s.conj().T))
        resid = -act
        resid[:m_test, :] += np.eye(m_test)
        defects.append(float(np.max(np.linalg.norm(resid, axis=0))))
    return partials, defects

