"""Finite sections of composition and multiplication operators.

Sections are written against orthonormalized monomial bases of weighted power
series spaces.  Columns are kept exact: the row degree is always large enough
to hold the full image of every retained basis vector, so for any column
prefix A_d and any test vector v, ||A_d v|| / ||v|| is a lower bound for the
operator norm.  ``op_norm_lower`` takes v from the top eigenvector of a Gram
of the section, which makes the bound the prefix's top singular value up to
rounding, nondecreasing in the number of columns.

A section stores the rows it needs: ``rows`` lists their grlex ranks in
ascending order and ``entries`` holds one dense row per rank.  Ball
composition sections keep only the rows their column images reach.  Disk
composition sections keep the rows up to the last one any column reaches:
the Taylor coefficients of high powers underflow to exact zeros, so their
trailing rows are empty.  Multiplication and weighted sections keep all rows
through their row degree.

Sections carry no bound policy: ``op_norm_lower`` gives lower bounds only,
and a caller that knows a closed-form upper bound states it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import MAX_SECTION_BYTES, BallMap, BallPoly, DiskPoly, SelfMapDisk, \
    _check_bytes, _combine, _pair_terms

__all__ = [
    "SpaceSpec",
    "SectionMatrix",
    "NormBound",
    "grlex_monomials",
    "monomial_norms",
    "comp_matrix",
    "mult_matrix",
    "weighted_comp_matrix",
    "op_norm_lower",
    "comp_norm_bound",
    "MAX_SECTION_BYTES",
]

@dataclass(frozen=True)
class SpaceSpec:
    """Weighted power series space on the unit ball of C^dim.

    ``alpha`` is the kernel exponent: the space has reproducing kernel
    (1 - <z, w>)^(-alpha), so alpha = 1 with dim = 1 is the square-summable
    Taylor space on the disk and larger alpha weights the radial direction.
    """

    dim: int = 1
    alpha: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not self.alpha >= 1.0:
            raise ValueError("alpha must be at least 1")


@lru_cache(maxsize=None)
def _degree_block(total: int, dim: int) -> tuple:
    if dim == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in _degree_block(total - first, dim - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def grlex_monomials(dim: int, max_degree: int) -> tuple:
    """Multi-indices of total degree <= max_degree, graded lexicographic."""
    out = []
    for total in range(max_degree + 1):
        out.extend(_degree_block(total, dim))
    return tuple(out)


def _monomial_count(dim: int, max_degree: int) -> int:
    return math.comb(max_degree + dim, dim)


def _binom(n: np.ndarray, k: int) -> np.ndarray:
    """C(n, k) elementwise for integer n >= 0, exact in int64."""
    out = np.ones_like(n)
    for t in range(1, k + 1):
        out = out * (n - k + t) // t  # C(n - k + t, t), an integer
    return out


def _grlex_rank(exps) -> np.ndarray:
    """Position of each multi-index (last axis) in ``grlex_monomials`` order.

    The C(k - 1 + d, d) monomials of lower degree come first; within degree
    k, coordinate i with r_i of the degree left to place passes over the
    C(r_i - m_i - 1 + d - i - 1, d - i - 1) monomials that put more there.
    """
    exps = np.asarray(exps, dtype=np.int64)
    d = exps.shape[-1]
    left = exps.sum(axis=-1)
    rank = _binom(left - 1 + d, d)
    for i in range(d - 1):
        rank += _binom(left - exps[..., i] - 1 + d - i - 1, d - i - 1)
        left -= exps[..., i]
    return rank


@lru_cache(maxsize=None)
def monomial_norms(space: SpaceSpec, max_degree: int) -> np.ndarray:
    """Norms of the monomials z^m, aligned with ``grlex_monomials``.

    ||z^m||^2 = m! / rising(alpha, |m|) where rising is the rising factorial;
    evaluated through log-gamma so large degrees neither overflow nor lose
    the exact value 1 when alpha = 1.  Each (space, max_degree) is computed
    once, and every caller shares the one read-only array.
    """
    mons = grlex_monomials(space.dim, max_degree)
    lg_alpha = math.lgamma(space.alpha)
    out = np.empty(len(mons))
    for i, m in enumerate(mons):
        k = sum(m)
        log_sq = sum(math.lgamma(e + 1) for e in m)
        log_sq -= math.lgamma(space.alpha + k) - lg_alpha
        out[i] = math.exp(0.5 * log_sq)
    out.flags.writeable = False
    return out


def _check_section_size(dim: int, row_degree: int, col_degree: int) -> tuple:
    """Row and column counts of the dense section, refused before any work
    when its entries would pass MAX_SECTION_BYTES."""
    rows = _monomial_count(dim, row_degree)
    cols = _monomial_count(dim, col_degree)
    _check_bytes(rows * cols * np.dtype(complex).itemsize,
                 f"a {rows}x{cols} section")
    return rows, cols


def _place(entries: np.ndarray, slots, rows, cols, coefs,
           norms: np.ndarray) -> None:
    """entries[slots, cols] = coefs * norms[rows] / norms[cols], rounded as
    Python rounds ``c * x / y`` for a complex c and floats x, y: each float
    is promoted to a complex with zero imaginary part, which decides the
    sign of zero results.  ``slots`` are the stored-row positions of the
    grlex ranks ``rows``."""
    x, y = norms[rows], norms[cols]
    cr, ci = coefs.real, coefs.imag
    real = cr * x - ci * 0.0
    imag = cr * 0.0 + ci * x
    entries.real[slots, cols] = (real + imag * 0.0) / y
    entries.imag[slots, cols] = (imag - real * 0.0) / y


@dataclass
class SectionMatrix:
    """Finite section with exact columns.

    ``rows`` holds ascending grlex ranks of normalized monomials of degree at
    most ``row_degree``; ``entries[i, j]`` is the coefficient of the image of
    the j-th normalized monomial against the one of rank ``rows[i]``.  Every
    row left out is zero, so the stored rows hold each column exactly.  Ball
    compositions store the ranks their images reach, disk compositions the
    ranks up to the last one reached, and every other section all ranks.
    """

    space: SpaceSpec
    col_degree: int
    row_degree: int
    rows: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        count = _monomial_count(self.space.dim, self.row_degree)
        cols = _monomial_count(self.space.dim, self.col_degree)
        assert self.entries.shape == (len(self.rows), cols), \
            "degree bookkeeping violation"
        ranks = np.concatenate([[-1], self.rows, [count]])
        assert np.all(np.diff(ranks) > 0), \
            "rows must be ascending grlex ranks within the row degree"


def _stored_length(v: np.ndarray) -> int:
    """One past the last entry of ``v`` whose bits are not all zero: a -0
    part counts, so cutting there drops only trailing +0 entries."""
    bits = v.view(np.int64)
    if bits[-2] or bits[-1]:
        return v.size
    nz = np.flatnonzero(bits)
    return int(nz[-1]) // 2 + 1 if nz.size else 0


def _comp_entries_disk(coeffs: np.ndarray, norms: np.ndarray,
                       col_degree: int) -> np.ndarray:
    """Taylor coefficients of b**j in column j, norm-corrected, through the
    last row any power reaches."""
    power = np.ones(1, dtype=complex)
    columns = [power]
    for j in range(1, col_degree + 1):
        power = np.convolve(power, coeffs)
        n = _stored_length(power)
        columns.append(power if n == power.size else power[:n].copy())
    count = max(c.size for c in columns)
    a = np.zeros((count, col_degree + 1), dtype=complex)
    for j, c in enumerate(columns):
        a[: c.size, j] = c
    a *= norms[:count, None]
    a /= norms[: col_degree + 1][None, :]
    return a


def _comp_entries_ball(b: BallMap, col_degree: int):
    """Rows, columns and coefficients of the coordinate powers b^(m_j).

    Column m is b^(m - e_i) * b_i for the first coordinate i with m_i > 0,
    with like terms summed as ``BallPoly`` products sum them (power terms
    outer, b_i terms inner) but without dropping exact zeros.  The columns of
    one degree that share i are multiplied together: a leading exponent
    holding the column index keeps their terms apart.
    """
    dim = b.dim
    mons = np.array(grlex_monomials(dim, col_degree)).reshape(-1, dim)
    lead = np.argmax(mons > 0, axis=1)
    prev = _grlex_rank(mons - np.eye(dim, dtype=np.int64)[lead])
    factors = [(np.column_stack([np.zeros(len(c.exps), dtype=np.int64), c.exps]),
                c.coefs) for c in b.coords]
    # (column, exps...) rows and coefficients of the powers of one degree
    terms, coefs = np.zeros((1, dim + 1), dtype=np.int64), np.ones(1, dtype=complex)
    out = [(terms, coefs)]
    for k in range(1, col_degree + 1):
        lo, hi = _monomial_count(dim, k - 1), _monomial_count(dim, k)
        parts = []
        for i, factor in enumerate(factors):
            cols = lo + np.flatnonzero(lead[lo:hi] == i)
            dest = np.full(lo, -1)
            dest[prev[cols]] = cols
            to = dest[terms[:, 0]]
            keep = to >= 0
            parts.append(_pair_terms(np.column_stack([to[keep], terms[keep, 1:]]),
                                     coefs[keep], *factor))
        terms, coefs = _combine(np.concatenate([p[0] for p in parts]),
                                np.concatenate([p[1] for p in parts]))
        out.append((terms, coefs))
    terms = np.concatenate([t for t, _ in out])
    return _grlex_rank(terms[:, 1:]), terms[:, 0], np.concatenate([c for _, c in out])


def comp_matrix(b, space: SpaceSpec, col_degree: int) -> SectionMatrix:
    """Section of the composition operator f -> f(b(z)).

    Column j holds the expansion of the normalized monomial composed with b,
    i.e. the coordinate powers b^(m_j).  Rows run through degree
    col_degree * deg(b), which contains those images exactly.  Constant
    symbols are rejected: their sections collapse to rank one and the exact
    norm is available in closed form instead.
    """
    if col_degree < 0:
        raise ValueError("col_degree must be nonnegative")
    if isinstance(b, SelfMapDisk):
        if space.dim != 1:
            raise ValueError("a disk symbol needs a dim-1 space")
        if b.is_constant():
            raise ValueError("constant symbols do not get finite sections")
        coeffs = [b.series.trimmed()]
    elif isinstance(b, BallMap):
        if space.dim != b.dim:
            raise ValueError("map and space dimensions must match")
        if b.is_constant():
            raise ValueError("constant symbols do not get finite sections")
        coeffs = None
    else:
        raise TypeError("b must be a SelfMapDisk or a BallMap")

    if isinstance(b, BallMap) and b.dim == 1:
        # dim-1 ball maps reduce to the disk path bit for bit
        c = np.zeros(b.degree() + 1, dtype=complex)
        c[b.coords[0].exps[:, 0]] = b.coords[0].coefs
        coeffs = [c]

    deg_b = b.degree()
    row_degree = col_degree * deg_b
    # the limit is the dense section's, so stored rows never decide it
    _, ncols = _check_section_size(space.dim, row_degree, col_degree)
    norms = monomial_norms(space, row_degree)

    if coeffs is not None:
        entries = _comp_entries_disk(coeffs[0], norms, col_degree)
        rows = np.arange(len(entries))
    else:
        ranks, cols, coefs = _comp_entries_ball(b, col_degree)
        rows = np.unique(ranks)
        entries = np.zeros((len(rows), ncols), dtype=complex)
        _place(entries, np.searchsorted(rows, ranks), ranks, cols, coefs, norms)
    return SectionMatrix(space, col_degree, row_degree, rows, entries)


def mult_matrix(f, space: SpaceSpec, col_degree: int,
                row_degree: int | None = None) -> SectionMatrix:
    """Section of the multiplication operator g -> f * g.

    Rows default to col_degree + deg(f), which holds every column exactly; a
    larger row_degree may be passed so sections of different symbols become
    conformable for sums.  Column m_j holds f's term c_t in row m_j + t, so
    every entry is placed in one scatter.
    """
    if col_degree < 0:
        raise ValueError("col_degree must be nonnegative")
    if isinstance(f, DiskPoly):
        if space.dim != 1:
            raise ValueError("a disk weight needs a dim-1 space")
        n = np.flatnonzero(f.coeffs)
        f = BallPoly._of(1, n[:, None], f.coeffs[n])
    if not isinstance(f, BallPoly):
        raise TypeError("f must be a DiskPoly or a BallPoly")
    if f.dim != space.dim:
        raise ValueError("weight and space dimensions must match")
    needed = col_degree + f.degree()
    if row_degree is None:
        row_degree = needed
    elif row_degree < needed:
        raise ValueError("row_degree too small to hold the columns exactly")
    nrows, ncols = _check_section_size(space.dim, row_degree, col_degree)
    rows = np.arange(nrows)
    entries = np.zeros((nrows, ncols), dtype=complex)
    norms = monomial_norms(space, row_degree)
    col_exps = np.array(grlex_monomials(space.dim, col_degree))
    ranks = _grlex_rank(f.exps[:, None, :] + col_exps[None, :, :])
    cols = np.arange(len(col_exps))[None, :]
    _place(entries, ranks, ranks, cols, f.coefs[:, None], norms)
    return SectionMatrix(space, col_degree, row_degree, rows, entries)


def weighted_comp_matrix(f, comp: SectionMatrix) -> SectionMatrix:
    """Section of g -> f * (g o b) from the composition section ``comp`` of
    b: the multiplication section of f times ``comp``, with exact
    intermediate degree."""
    mult = mult_matrix(f, comp.space, comp.row_degree)
    left = mult.entries
    if len(comp.rows) < left.shape[1]:
        left = left[:, comp.rows]  # the rows comp leaves out are zero
    return SectionMatrix(comp.space, comp.col_degree, mult.row_degree, mult.rows,
                         left @ comp.entries)


@dataclass
class NormBound:
    """Certified lower norm bound from a finite section.

    ``lower`` is exact-column evidence (a true lower bound up to rounding);
    ``trace`` records (column degree, lower bound) pairs for convergence
    plots.
    """

    lower: float
    trace: list


def comp_norm_bound(c: float, alpha: float) -> float:
    """Closed-form composition norm bound ((1 + c) / (1 - c)) ** (alpha / 2)
    for a symbol with |b(0)| = c: it holds for every disk symbol, whose
    symbol kernel is positive; a ball map must certify its kernel first."""
    return float(((1.0 + c) / (1.0 - c)) ** (alpha / 2.0))


def _default_trace_degrees(col_degree: int) -> list:
    """Powers of two below col_degree, 3 * col_degree // 4, and col_degree."""
    ds = {col_degree, (3 * col_degree) // 4}
    d = 1
    while d < col_degree:
        ds.add(d)
        d *= 2
    return sorted(x for x in ds if 1 <= x <= col_degree)


def op_norm_lower(section: SectionMatrix, trace_degrees=None) -> NormBound:
    """Lower bounds ||A_d v|| / ||v|| from column-prefix blocks of an exact
    section.

    The prefix A_d keeps the columns of degree <= d.  Its columns are exact,
    so ||A_d v|| / ||v|| <= ||A_d|| <= the operator norm for every test
    vector v; the bound never rests on how v was found.  v is the top
    eigenvector (``eigh``) of one Gram per section, formed on its smaller
    side.  A tall section forms G = A^H A once and each prefix takes its
    leading block; a wide one keeps the row Gram H = A_d A_d^H, adding each
    prefix's new columns, and bounds A_d^H with H's top eigenvector u as
    ||A_d^H u|| / ||u||.  Either way each bound is the prefix's top singular
    value up to rounding, so the trace is nondecreasing in d up to rounding.
    Rows left out, and rows a prefix does not reach, are zero and change
    nothing.
    """
    if trace_degrees is None:
        trace_degrees = _default_trace_degrees(section.col_degree)
    degrees = sorted(set(int(d) for d in trace_degrees))
    if not degrees:
        raise ValueError("trace degrees must not be empty")
    if degrees[0] < 0 or degrees[-1] > section.col_degree:
        raise ValueError("trace degrees must lie between 0 and col_degree")
    dim = section.space.dim
    a = section.entries[:, : _monomial_count(dim, degrees[-1])]
    tall = a.shape[0] >= a.shape[1]
    if tall:
        gram = a.conj().T @ a
    else:
        gram = np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    trace = []
    done = 0
    for d in degrees:
        cols = _monomial_count(dim, d)
        block = a[:, :cols]
        if not block.size:
            sigma = 0.0
        elif tall:
            v = np.linalg.eigh(gram[:cols, :cols])[1][:, -1]
            sigma = float(np.linalg.norm(block @ v) / np.linalg.norm(v))
        else:
            new = a[:, done:cols]
            gram += new @ new.conj().T
            done = cols
            u = np.linalg.eigh(gram)[1][:, -1]
            sigma = float(np.linalg.norm(u.conj() @ block) / np.linalg.norm(u))
        trace.append((d, sigma))
    return NormBound(lower=trace[-1][1], trace=trace)
