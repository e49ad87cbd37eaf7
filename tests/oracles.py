"""Independent oracles that only the tests use.

``compose`` expands f(b(z)) by circle sampling and discrete Fourier inversion,
a route independent of the convolution powers in the composition sections.
``disk_comp_dense`` keeps the dense assembly of disk composition sections,
every row through the row degree, as a byte-level reference.  The adjoint
checks verify that section adjoints act on reproducing kernels as the theory
says they must.  ``eval_kernel`` evaluates each kernel formula at one pair
of points, apart from the stacked assembly the Gram matrices use.
``svd_trace`` takes the top singular value of every column prefix of a
section with a full SVD, the route ``op_norm_lower`` replaced by a Gram and
a test vector.  ``unnormalized_kernel_combo`` draws the combination
``random_kernel_combo`` draws, before its scaling to unit norm.
"""

import numpy as np

from kernelcomp.dbr import KernelCombo
from kernelcomp.kernels import DomainError, KernelSpec, sample_point_set
from kernelcomp.operators import (
    SectionMatrix,
    SpaceSpec,
    _monomial_count,
    comp_matrix,
    grlex_monomials,
    monomial_norms,
    mult_matrix,
)
from kernelcomp.series import DiskPoly, ParameterError, SelfMapDisk


def compose(f: DiskPoly, b: SelfMapDisk, out_degree: int,
            sample_radius: float = 0.9,
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
    zs = sample_radius * np.exp(2j * np.pi * np.arange(count) / count)
    vals = f(b(zs))
    hat = np.fft.fft(vals) / count
    return DiskPoly(hat[: out_degree + 1] / scale)


def eval_kernel(spec: KernelSpec, z, w) -> complex:
    """Kernel value at a single pair of points."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    ws = np.atleast_1d(np.asarray(w, dtype=complex))
    if zs.size != spec.dim or ws.size != spec.dim:
        raise DomainError("point dimension does not match the kernel")
    if np.linalg.norm(zs) >= 1.0 or np.linalg.norm(ws) >= 1.0:
        raise DomainError("points must lie strictly inside the ball")
    ip = complex(np.sum(zs * ws.conj()))
    den = 1.0 - ip
    if spec.kind == "szego":
        return 1.0 / den
    if spec.kind in ("bergman", "ball"):
        return den ** (-spec.alpha)
    if spec.kind == "dbr":
        return (1.0 - spec.b_disk(complex(zs[0])) * np.conj(spec.b_disk(complex(ws[0])))) / den
    if spec.kind == "dbr_power":
        base = (1.0 - spec.b_disk(complex(zs[0])) * np.conj(spec.b_disk(complex(ws[0])))) / den
        return base ** int(spec.alpha)
    bz = spec.b_ball(zs)
    bw = spec.b_ball(ws)
    num = 1.0 - complex(np.sum(bz * bw.conj()))
    ratio = num / den
    return ratio ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
        else ratio ** spec.alpha


def disk_comp_dense(coeffs: np.ndarray, space: SpaceSpec,
                    col_degree: int) -> np.ndarray:
    """Dense composition section of the disk symbol with Taylor coefficients
    ``coeffs`` (trimmed, degree >= 1): column j holds the coefficients of
    b**j in every row through col_degree * deg(b), norm-corrected."""
    row_degree = col_degree * (len(coeffs) - 1)
    norms = monomial_norms(space, row_degree)
    a = np.zeros((row_degree + 1, col_degree + 1), dtype=complex)
    power = np.ones(1, dtype=complex)
    a[0, 0] = 1.0
    for j in range(1, col_degree + 1):
        power = np.convolve(power, coeffs)
        a[: power.size, j] = power
    a *= norms[:, None]
    a /= norms[: col_degree + 1][None, :]
    return a


def _kernel_coeff_vector(space: SpaceSpec, max_degree: int, w) -> np.ndarray:
    """Coefficients of the reproducing kernel at w against the normalized
    monomials: conj(w^m) / ||z^m||, truncated at max_degree."""
    mons = grlex_monomials(space.dim, max_degree)
    norms = monomial_norms(space, max_degree)
    wv = np.atleast_1d(np.asarray(w, dtype=complex))
    if wv.size != space.dim:
        raise ValueError("point dimension mismatch")
    vals = np.array([np.prod(wv ** np.array(m)) for m in mons])
    return np.conj(vals) / norms


def adjoint_kernel_check(b, space: SpaceSpec, col_degree: int, w) -> float:
    """Residual of the identity: the composition adjoint sends the kernel at w
    to the kernel at b(w).  Truncated sections make this exact through the
    column degree, so the residual is pure rounding for |w| <= 0.7."""
    wv = np.atleast_1d(np.asarray(w, dtype=complex))
    if float(np.linalg.norm(wv)) > 0.7:
        raise ValueError("check points must satisfy |w| <= 0.7")
    section = comp_matrix(b, space, col_degree)
    kv_rows = _kernel_coeff_vector(space, section.row_degree, wv)
    if isinstance(b, SelfMapDisk):
        bw = b(complex(wv[0]))
    else:
        bw = b(wv)
    target = _kernel_coeff_vector(space, col_degree, bw)
    resid = section.entries.conj().T @ kv_rows[section.rows] - target
    return float(np.max(np.abs(resid)))


def adjoint_mult_check(f, space: SpaceSpec, col_degree: int, w) -> float:
    """Residual of the identity: the multiplication adjoint scales the kernel
    at w by conj(f(w)).  Exact through the column degree."""
    wv = np.atleast_1d(np.asarray(w, dtype=complex))
    if float(np.linalg.norm(wv)) > 0.7:
        raise ValueError("check points must satisfy |w| <= 0.7")
    section = mult_matrix(f, space, col_degree)
    kv_rows = _kernel_coeff_vector(space, section.row_degree, wv)
    if isinstance(f, DiskPoly):
        fw = f(complex(wv[0]))
    else:
        fw = f(wv)
    target = np.conj(complex(fw)) * _kernel_coeff_vector(space, col_degree, wv)
    resid = section.entries.conj().T @ kv_rows - target
    return float(np.max(np.abs(resid)))


def svd_trace(section: SectionMatrix, degrees) -> list:
    """(degree, top singular value) of the column prefix of each degree,
    from an SVD of the prefix's rows that are not all zero."""
    nonzero = section.entries != 0
    # first column each row reaches; rows reaching none fall outside every prefix
    first = np.where(np.any(nonzero, axis=1), np.argmax(nonzero, axis=1),
                     nonzero.shape[1])
    out = []
    for d in sorted(set(degrees)):
        cols = _monomial_count(section.space.dim, d)
        block = section.entries[first < cols, :cols]
        sigma = float(np.linalg.svd(block, compute_uv=False)[0]) if block.size else 0.0
        out.append((d, sigma))
    return out


def unnormalized_kernel_combo(rng: np.random.Generator, b: SelfMapDisk,
                              alpha: int, max_nodes: int,
                              node_radius: float) -> KernelCombo:
    """The combination ``random_kernel_combo`` draws from ``rng``, the same
    draws in the same order, with its coefficients left unscaled."""
    count = int(rng.integers(1, max_nodes + 1))
    nodes = sample_point_set(rng, 1, node_radius, count)
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return KernelCombo(b=b, alpha=alpha, nodes=nodes, coeffs=coeffs)
