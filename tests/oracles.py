"""Independent oracles that only the tests use.

``compose`` expands f(b(z)) by circle sampling and discrete Fourier inversion,
a route independent of the convolution powers in the composition sections.
``disk_comp_dense`` keeps the dense assembly of disk composition sections,
every row through the row degree, as a byte-level reference.
``uncut_disk_entries`` is the disk power loop that convolved every power at
full length, cutting only trailing +0 entries (``_stored_length``): the
byte-level reference for sections whose parts never fall below
``operators._FLOOR``, and the reference the floor's drop is measured
against otherwise.  ``weighted_disk_extended`` is the weighted section
convolved in extended precision.  The adjoint checks verify that section
adjoints act on reproducing kernels as the theory says they must.  ``eval_kernel`` evaluates each kernel formula at one pair
of points, apart from the stacked assembly the Gram matrices use.
``svd_trace`` takes the top singular value of every column prefix of a
section with a full SVD, the route ``op_norm_lower`` replaced by a Gram and
a test vector.  ``unnormalized_kernel_combo`` draws the combination
``random_kernel_combo`` draws, before its scaling to unit norm.
``exact_inv_kernel_weight`` gives the inverse-kernel weight's Taylor
coefficients in exact rational arithmetic, from a recurrence that never
expands in powers of s - s(0).  ``kernel_section_poly`` expands one node's
kernel section through ``disk_poly_power`` and ``DiskPoly`` products, the
per-node route that ``dbr.combo_to_poly`` replaced by linearity over the
nodes.  ``hb_norm_defect`` takes the range norm of a polynomial from the
defect pseudoinverse, a route independent of the node Gram in
``hb_norm_combo``.  ``eigh_check_psd`` is the positivity verdict that
solved every Gram with eigenvectors, the byte-level reference for
``check_psd``'s NEGATIVE certificates.  ``out_of_place_kernel_matrix``
and ``copying_uncleared`` are the kernel-value assembly and the screen's
Cholesky rule as they were when each step allocated a fresh array, the
byte-level references for the in-place builders.  ``sorted_spacing_candidates``
draws the search's points with ``np.sort`` and ``np.diff``, the byte-level
reference for the in-place compare-exchange draw.  ``traced_peak`` runs a call under
``tracemalloc`` and returns its result with the peak bytes traced.
``svd_row_mult_norm`` takes each row point's multiplier bound from a full
SVD of the assembled row section, the route ``ball.row_mult_norm`` replaced
by cross Grams and one stacked ``eigvalsh``.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

from kernelcomp import kernels
from kernelcomp.dbr import KernelCombo, _defect_eigs
from kernelcomp.kernels import (
    NEGATIVE,
    PSD,
    DomainError,
    KernelSpec,
    PositivityCertificate,
    eig_tolerance,
    sample_point_set,
)
from kernelcomp.operators import (
    SectionMatrix,
    SpaceSpec,
    _monomial_count,
    comp_matrix,
    grlex_monomials,
    monomial_norms,
    mult_matrix,
)
from kernelcomp.series import DiskPoly, ParameterError, SelfMapDisk, _check_bytes


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
        return (1.0 - spec.b(complex(zs[0])) * np.conj(spec.b(complex(ws[0])))) / den
    if spec.kind == "dbr_power":
        base = (1.0 - spec.b(complex(zs[0])) * np.conj(spec.b(complex(ws[0])))) / den
        return base ** int(spec.alpha)
    bz = spec.b(zs)
    bw = spec.b(ws)
    num = 1.0 - complex(np.sum(bz * bw.conj()))
    ratio = num / den
    return ratio ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
        else ratio ** spec.alpha


def disk_comp_dense(coeffs: np.ndarray, space: SpaceSpec,
                    col_degree: int) -> np.ndarray:
    """Dense composition section of the disk symbol with Taylor coefficients
    ``coeffs`` (trimmed, degree >= 1): column j holds the coefficients of
    b**j in every row through col_degree * deg(b), norm-corrected, in the
    dtype of ``coeffs``."""
    row_degree = col_degree * (len(coeffs) - 1)
    norms = monomial_norms(space, row_degree)
    a = np.zeros((row_degree + 1, col_degree + 1), dtype=coeffs.dtype)
    power = np.ones(1, dtype=coeffs.dtype)
    a[0, 0] = 1.0
    for j in range(1, col_degree + 1):
        power = np.convolve(power, coeffs)
        a[: power.size, j] = power
    a *= norms[:, None]
    a /= norms[: col_degree + 1][None, :]
    return a


def _stored_length(v: np.ndarray) -> int:
    """One past the last entry of ``v`` whose bits are not all zero: a -0
    part counts, so cutting there drops only trailing +0 entries."""
    per = v.itemsize // 8
    bits = v.view(np.int64)
    if bits[-1] or bits[-per]:
        return v.size
    nz = np.flatnonzero(bits)
    return int(nz[-1]) // per + 1 if nz.size else 0


def uncut_disk_entries(start: np.ndarray, coeffs: np.ndarray, norms: np.ndarray,
                       col_degree: int) -> np.ndarray:
    """What ``operators._comp_entries_disk`` returns without its floor, with
    every power convolved at its full length: only the stored columns are cut
    after their last entry that is not +0.  The section takes the inputs'
    dtype."""
    power = start
    columns = []
    for j in range(col_degree + 1):
        if j:
            power = np.convolve(power, coeffs)
        columns.append(power[: _stored_length(power)])
    count = max(c.size for c in columns)
    a = np.zeros((count, col_degree + 1), dtype=np.result_type(start, coeffs))
    for j, c in enumerate(columns):
        a[: c.size, j] = c
    a *= norms[:count, None]
    a /= norms[: col_degree + 1][None, :]
    return a


def weighted_disk_extended(f: DiskPoly, b: SelfMapDisk, space: SpaceSpec,
                           col_degree: int) -> np.ndarray:
    """Dense weighted composition section of f and the disk symbol b, every
    row through deg(f) + col_degree * deg(b): column j holds f * b**j,
    convolved and norm-corrected in extended precision (``clongdouble``)."""
    row_degree = col_degree * b.degree() + f.degree()
    norms = monomial_norms(space, max(row_degree, col_degree)).astype(np.longdouble)
    coeffs = b.series.trimmed().astype(np.clongdouble)
    power = f.trimmed().astype(np.clongdouble)
    a = np.zeros((row_degree + 1, col_degree + 1), dtype=np.clongdouble)
    for j in range(col_degree + 1):
        if j:
            power = np.convolve(power, coeffs)
        a[: power.size, j] = power
    return a * norms[: row_degree + 1, None] / norms[: col_degree + 1][None, :]


def _kernel_coeff_vector(space: SpaceSpec, max_degree: int, w) -> np.ndarray:
    """Coefficients of the reproducing kernel at w against the normalized
    monomials: conj(w^m) / ||z^m||, truncated at max_degree."""
    mons = grlex_monomials(space.dim, max_degree).tolist()
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
    return KernelCombo(KernelSpec("dbr_power", alpha, b), nodes, coeffs)


def exact_inv_kernel_weight(b, alpha: int, top: int) -> dict:
    """Taylor coefficients of W = (1 - s)^(-alpha), s = <b(z), b(0)>, through
    degree ``top`` for an integer alpha, rounded once from exact rationals.

    On homogeneous parts, (1 - s) R W = alpha (R s) W for the radial
    derivative R gives (1 - s_0) j W_j = sum_{i >= 1} (j - i + alpha i)
    s_i W_{j-i} with W_0 = (1 - s_0)^(-alpha).  Complex numbers are pairs.
    """
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    s = {}  # degree -> {multi-index: coefficient}
    for coord in b.coords:
        c0 = coord.constant_term()
        conj0 = (Fraction(c0.real), -Fraction(c0.imag))
        for m, c in coord.terms.items():
            term = mul(conj0, (Fraction(c.real), Fraction(c.imag)))
            part = s.setdefault(sum(m), {})
            old = part.get(m, (Fraction(0), Fraction(0)))
            part[m] = (old[0] + term[0], old[1] + term[1])
    q = 1 - s.pop(0, {}).get((0,) * b.dim, (Fraction(0), Fraction(0)))[0]
    parts = [{(0,) * b.dim: (Fraction(1), Fraction(0))}]  # W_j / W_0
    for j in range(1, top + 1):
        acc = {}
        for i, part in s.items():
            if i > j:
                continue
            w = Fraction(j - i + alpha * i, j) / q
            for m1, x in part.items():
                for m2, y in parts[j - i].items():
                    m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    re, im = mul(x, y)
                    old = acc.get(m, (Fraction(0), Fraction(0)))
                    acc[m] = (old[0] + w * re, old[1] + w * im)
        parts.append(acc)
    scale = q ** -alpha
    return {m: complex(float(scale * re), float(scale * im))
            for part in parts for m, (re, im) in part.items()}


def disk_poly_power(p: DiskPoly, n: int) -> DiskPoly:
    """p ** n by n convolutions of its trimmed coefficients."""
    if n < 0:
        raise ValueError("negative powers are not polynomials")
    out = np.ones(1, dtype=complex)
    base = p.trimmed()
    for _ in range(n):
        out = np.convolve(out, base)
    return DiskPoly(out)


def kernel_section_poly(b: SelfMapDisk, alpha: int, w: complex,
                        degree: int) -> DiskPoly:
    """Taylor coefficients through ``degree`` of the kernel section at w.

    The section is (1 - b(z) conj(b(w))) ** alpha times the alpha-weight
    geometric factor sum_n binom(n + alpha - 1, n) conj(w)^n z^n; both factors
    are polynomials or explicit series, so the truncation is exact through
    the requested degree.
    """
    if int(alpha) != alpha or alpha < 1:
        raise ValueError("alpha must be a positive integer")
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("nodes must lie strictly inside the disk")
    alpha = int(alpha)
    _check_bytes((degree + 1) * np.dtype(complex).itemsize,
                 f"{degree + 1} coefficients")
    numer = disk_poly_power(DiskPoly([1.0]) + (-np.conj(b(w))) * b.series, alpha)
    geo = DiskPoly(
        [math.comb(n + alpha - 1, n) * np.conj(w) ** n for n in range(degree + 1)]
    )
    return DiskPoly((numer * geo).padded(degree))


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


def eigh_check_psd(spec: KernelSpec, point_set) -> PositivityCertificate:
    """``check_psd`` as it was when ``eigh`` solved every Gram with its
    eigenvectors: verdict, numbers and witness all from one solve.  The Gram
    comes through ``kernels.gram``, so a test that patches it patches both."""
    lam, vec = np.linalg.eigh(kernels.gram(spec, point_set))
    lo = float(lam[0])
    tol = float(eig_tolerance(lam))
    if lo >= -tol:
        return PositivityCertificate(spec=spec, min_eigenvalue=lo,
                                     tolerance=tol, verdict=PSD, points=point_set)
    return PositivityCertificate(spec=spec, min_eigenvalue=lo, tolerance=tol,
                                 verdict=NEGATIVE, points=point_set,
                                 coeffs=vec[:, 0])


def out_of_place_kernel_matrix(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """``kernels._kernel_matrix`` as it was with a fresh array per step: up to
    four arrays of the result's shape alive at once.  The raw values, refused
    when their hermitization 0.5 (g + g^H), ``gram``'s Gram, overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = 1.0 - pts @ np.swapaxes(pts.conj(), -1, -2)
        if spec.kind in ("szego", "bergman", "ball"):
            g = den ** (-spec.alpha)
        elif spec.kind in ("dbr", "dbr_power"):
            bv = spec.b(pts[..., 0])
            g = (1.0 - bv[..., :, None] * bv.conj()[..., None, :]) / den
        else:
            bz = spec.b(pts)
            g = (1.0 - bz @ np.swapaxes(bz.conj(), -1, -2)) / den
        if spec.kind in ("dbr_power", "ball_map") and spec.alpha != 1.0:
            g = g ** int(spec.alpha) if spec.alpha == int(spec.alpha) \
                else g ** spec.alpha
        h = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    if not np.all(np.isfinite(h)):
        raise ValueError(f"{spec.kind} kernel values overflow on these points")
    return g


def sorted_spacing_candidates(u: np.ndarray, radius: float) -> np.ndarray:
    """``kernels._candidates`` as it was with ``np.sort`` of the radius
    uniforms and ``np.diff(..., prepend=0.0)`` of their spacings; ``u`` is
    left as it was."""
    dim = u.shape[-1] // 2
    theta = 2.0 * np.pi * u[..., :dim]
    rad = radius * np.sqrt(np.diff(np.sort(u[..., dim:]), prepend=0.0))
    return rad * np.exp(1j * theta)


def copying_uncleared(g: np.ndarray) -> np.ndarray:
    """``kernels._uncleared`` as it was when it shifted a copy of each stack
    it tried, bisected halves included; ``g`` is left as it was."""
    m = g.shape[-1]
    eps = float(np.finfo(float).eps)
    a = g.copy()
    diag = a.reshape(-1, m * m)[:, ::m + 1]
    shift = kernels.TOL_SCALE * m * eps * np.max(diag.real, axis=1) / 4
    diag += shift[:, None]
    k = (m + 1) * eps
    err = k / (1 - 2 * k) * diag.real.sum(axis=1) + eps * diag.real.max(axis=1)
    try:
        np.linalg.cholesky(a)
        return err > shift
    except np.linalg.LinAlgError:
        half = len(g) // 2
        return np.concatenate([copying_uncleared(g[:half]),
                               copying_uncleared(g[half:])]) \
            if half else np.ones(1, bool)


def traced_peak(fn):
    """``(fn(), peak)``: the peak bytes ``tracemalloc`` traced while ``fn``
    ran, counted from zero at its start."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def svd_row_mult_norm(b, ws, coord_sections) -> np.ndarray:
    """Top singular value of sum_i conj(b_i(w)) S_i at each row w of ws."""
    out = []
    for w in np.asarray(ws, dtype=complex):
        bw = b(w)
        row = sum(np.conj(bw[i]) * s.entries for i, s in enumerate(coord_sections))
        out.append(np.linalg.svd(row, compute_uv=False)[0])
    return np.array(out)
