"""Finite sections of composition and multiplication operators.

Sections are written against orthonormalized monomial bases of weighted power
series spaces.  Columns are kept exact: the row degree holds the full image
of every retained basis vector (a multiplication section cut at row degree D
keeps its rows of degree <= D, and ||P_D A v|| <= ||A v||), so for any column
prefix A_d and any test vector v, ||A_d v|| / ||v|| is a lower bound for the
operator norm.  ``op_norm_lower`` takes v from the top eigenvector of a Gram
of the section, which makes the bound the prefix's top singular value up to
rounding, nondecreasing in the number of columns.

A section stores the rows it needs: ``rows`` lists their grlex ranks in
ascending order and ``entries`` holds one dense row per rank.  Composition
and weighted composition sections share one builder, column j holding
f * b^(m_j) with f = 1 or the weight.  On the disk it is a convolution
recurrence started at f, each power cut after its last entry that is not +0
before the next product, and keeps the rows up to the last one reached; on
the ball, coordinate products started at f's terms, keeping only the rows
reached.  Multiplication sections keep all rows through their row degree.
A disk section of real data (no nonzero imaginary part in f or b) is float64
and is built, Gram-ed and eigen-solved in real arithmetic; others are complex.

Sections carry no bound policy: ``op_norm_lower`` gives lower bounds only,
and a caller that knows a closed-form upper bound states it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import MAX_SECTION_BYTES, BallMap, BallPoly, DiskPoly, SelfMapDisk, \
    _check_bytes, _cmul, _combine_index, _is_natural, _sum_terms

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
    """C(n, k) elementwise for integer n >= 0 and k >= 1, exact in int64."""
    out = n - k + 1
    for t in range(2, k + 1):
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
    left, rank = exps[..., -1], 0  # left: the degree placed after coordinate i
    for i in range(d - 2, -1, -1):
        rank = rank + _binom(left - 1 + d - i - 1, d - i - 1)
        left = left + exps[..., i]
    return rank + _binom(left - 1 + d, d)


@lru_cache(maxsize=None)
def monomial_norms(space: SpaceSpec, max_degree: int) -> np.ndarray:
    """Norms of the monomials z^m, aligned with ``grlex_monomials``.

    ||z^m||^2 = m! / rising(alpha, |m|) with rising(a, k) = a (a + 1) ... (a + k - 1);
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


# (term, column) pairs that ``mult_matrix`` places at a time
_PAIR_BLOCK = 1 << 14

# index plans kept for reuse: at most _PLAN_COUNT, whose arrays and key bytes
# take at most _PLAN_BYTES together; key -> (plan, bytes), least recent first
_PLAN_COUNT, _PLAN_BYTES = 32, 1 << 21
_plans: dict = {}


def _freeze(plan) -> int:
    """Make the arrays of a nested tuple read-only; returns their bytes."""
    if isinstance(plan, np.ndarray):
        plan.flags.writeable = False
        return plan.nbytes
    return sum(map(_freeze, plan)) if isinstance(plan, tuple) else 0


def _plan(build, *args):
    """``build(*args)``, an index plan: a nested tuple of arrays that depends
    on ``args`` alone, ints and exponent arrays.  Cached by their bytes, and
    kept read-only unless it and its key pass _PLAN_BYTES; an iterator that
    ``build`` returns is used once, never kept."""
    key = (build, *(a.tobytes() if isinstance(a, np.ndarray) else a for a in args))
    hit = _plans.pop(key, None)
    if hit is None:
        plan = build(*args)
        hit = plan, _freeze(plan) + sum(len(k) for k in key if isinstance(k, bytes))
        if not isinstance(plan, (tuple, np.ndarray)) or hit[1] > _PLAN_BYTES:
            return plan
    _plans[key] = hit
    while len(_plans) > _PLAN_COUNT or sum(n for _, n in _plans.values()) > _PLAN_BYTES:
        del _plans[next(iter(_plans))]
    return hit[0]


def _check_section_size(dim: int, row_degree: int, col_degree: int) -> tuple:
    """Row and column counts of the dense section, refused before any work
    when col_degree is negative or its entries would pass MAX_SECTION_BYTES."""
    if col_degree < 0:
        raise ValueError("col_degree must be nonnegative")
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
    the j-th normalized monomial against the one of rank ``rows[i]``, float64
    for a disk section of real data and complex128 otherwise.  Every row left
    out is zero, so the stored rows hold each column exactly, except in a
    ``mult_matrix`` section cut at row degree D: that is the row projection
    P_D of exact columns, and ||P_D A v|| / ||v|| is still a lower bound."""

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
    per = v.itemsize // 8
    bits = v.view(np.int64)
    if bits[-1] or bits[-per]:
        return v.size
    nz = np.flatnonzero(bits)
    return int(nz[-1]) // per + 1 if nz.size else 0


def _comp_entries_disk(start: np.ndarray, coeffs: np.ndarray, norms: np.ndarray,
                       col_degree: int) -> np.ndarray:
    """Taylor coefficients of start * b**j in column j, norm-corrected,
    through the last row any column reaches.  Each power is cut after its
    last entry that is not +0 before the next product, which changes no
    stored bit; once a power is empty, so is every later one.  The section
    takes the inputs' dtype."""
    power = start[: _stored_length(start)]
    columns = [power]
    for _ in range(col_degree):
        if power.size:
            power = np.convolve(power, coeffs)
            power = power[: _stored_length(power)]
        columns.append(power)
    count = max(c.size for c in columns)
    a = np.zeros((count, col_degree + 1), dtype=np.result_type(start, coeffs))
    for j, c in enumerate(columns):
        a[: c.size, j] = c
    a *= norms[:count, None]
    a /= norms[: col_degree + 1][None, :]
    return a


def _comp_plan(dim: int, col_degree: int, start_exps, *factor_exps) -> tuple:
    """Plan of the ball section of start * b^(m_j) from the exponents of start
    and of b: column 0 is start, and column m is column m - e_i times b_i for
    the first i with m_i > 0, like terms summed as a term-by-term loop sums
    them, exact zeros kept.  Per degree, its terms' (column, exps...) rows come
    from the products coefs[left] * (b's coefficients)[right] summed by target
    (``_sum_terms``); then the rows kept, each term's slot, rank and column."""
    mons = np.array(grlex_monomials(dim, col_degree)).reshape(-1, dim)
    # column p is the parent of p + e_i for each i up to its first p_i > 0
    lead = np.where(mons.any(axis=1), np.argmax(mons > 0, axis=1), dim - 1)
    exps = np.concatenate(factor_exps)
    coord = np.repeat(np.arange(dim), [len(e) for e in factor_exps])  # b_i's i
    terms = np.column_stack([np.zeros(len(start_exps), dtype=np.int64), start_exps])
    out, steps = [terms], []
    for _ in range(col_degree):
        # coordinate i outermost, then the earlier degree's terms, then b_i's
        left, right = np.nonzero(lead[terms[:, 0], None] >= coord)
        order = np.lexsort((right, left, coord[right]))
        left, right = left[order], right[order]
        child = mons[terms[left, 0]] + np.eye(dim, dtype=np.int64)[coord[right]]
        paired = np.column_stack([_grlex_rank(child), terms[left, 1:] + exps[right]])
        first, target = _combine_index(paired)
        terms = paired[first]
        steps.append((left, right, target, len(first)))
        out.append(terms)
    terms = np.concatenate(out)
    ranks = _grlex_rank(terms[:, 1:])
    rows = np.unique(ranks)
    return tuple(steps), rows, np.searchsorted(rows, ranks), ranks, terms[:, 0].copy()


def _section(f, b, space: SpaceSpec, col_degree: int) -> SectionMatrix:
    """Section of g -> f * (g o b), or of g -> g o b when f is None."""
    if isinstance(b, SelfMapDisk):
        if space.dim != 1:
            raise ValueError("a disk symbol needs a dim-1 space")
    elif not isinstance(b, BallMap):
        raise TypeError("b must be a SelfMapDisk or a BallMap")
    elif space.dim != b.dim:
        raise ValueError("map and space dimensions must match")
    kind = DiskPoly if isinstance(b, SelfMapDisk) else BallPoly
    if f is not None and (type(f) is not kind or getattr(f, "dim", 1) != space.dim):
        raise TypeError(f"the weight must be a {kind.__name__} in dim {space.dim}")

    row_degree = col_degree * b.degree() + (0 if f is None else f.degree())
    # the limit is the dense section's, so stored rows never decide it
    _, ncols = _check_section_size(space.dim, row_degree, col_degree)
    norms = monomial_norms(space, max(row_degree, col_degree))

    if isinstance(b, SelfMapDisk):
        start = np.ones(1, dtype=complex) if f is None else f.trimmed()
        coeffs = b.series.trimmed()
        if not (start.imag.any() or coeffs.imag.any()):  # -0.0 counts as zero
            start, coeffs = start.real.copy(), coeffs.real.copy()
        entries = _comp_entries_disk(start, coeffs, norms, col_degree)
        rows = np.arange(len(entries))
    else:
        start = BallPoly(b.dim, {(0,) * b.dim: 1.0}) if f is None else f
        steps, rows, slots, ranks, cols = _plan(
            _comp_plan, b.dim, col_degree, start.exps, *(c.exps for c in b.coords))
        factors, coefs = np.concatenate([c.coefs for c in b.coords]), [start.coefs]
        for left, right, target, count in steps:  # each map's values, in plan order
            prods = _cmul(coefs[-1][left], factors[right])
            coefs.append(_sum_terms(target, prods, count))
        entries = np.zeros((len(rows), ncols), dtype=complex)
        _place(entries, slots, ranks, cols, np.concatenate(coefs), norms)
    return SectionMatrix(space, col_degree, row_degree, rows, entries)


def comp_matrix(b, space: SpaceSpec, col_degree: int) -> SectionMatrix:
    """Section of the composition operator f -> f(b(z)): column j holds the
    coordinate powers b^(m_j) through row degree col_degree * deg(b), so a
    constant symbol c gets one row, c^(m_j) ||1|| / ||z^(m_j)||.  A disk
    symbol with real coefficients gives a float64 section."""
    return _section(None, b, space, col_degree)


def weighted_comp_matrix(f, b, space: SpaceSpec, col_degree: int) -> SectionMatrix:
    """Section of g -> f * (g o b): the composition section started at f, a
    DiskPoly for a disk symbol or a BallPoly for a ball map.  Column j holds
    f * b^(m_j) through row degree deg(f) + col_degree * deg(b)."""
    return _section(f, b, space, col_degree)


def _mult_plan(exps: np.ndarray, dim: int, col_degree: int, row_degree: int):
    """``mult_matrix``'s pairs as runs of (terms, columns, row ranks): a tuple
    if they fit _PLAN_BYTES at 24 bytes a pair, else an iterator of runs."""
    col_exps = np.array(grlex_monomials(dim, col_degree))
    # term t pairs with the columns of degree <= row_degree - deg(t), a prefix;
    # runs of terms with about _PAIR_BLOCK pairs bound the pairs' temporaries
    span = np.searchsorted(col_exps.sum(axis=1), row_degree - exps.sum(axis=1),
                           side="right")
    cuts = np.searchsorted(np.cumsum(span), np.arange(_PAIR_BLOCK, span.sum(),
                                                      _PAIR_BLOCK)).tolist()

    def runs():
        for lo, hi in zip([0] + cuts, cuts + [len(span)]):
            run = span[lo:hi]
            terms = np.repeat(np.arange(lo, hi), run)
            cols = np.arange(len(terms)) - np.repeat(np.cumsum(run) - run, run)
            yield terms, cols, _grlex_rank(np.take(exps, terms, axis=0)
                                           + np.take(col_exps, cols, axis=0))
    return tuple(runs()) if 24 * span.sum() <= _PLAN_BYTES else runs()


def mult_matrix(f, space: SpaceSpec, col_degree: int,
                row_degree: int | None = None) -> SectionMatrix:
    """Section of the multiplication operator g -> f * g.

    Rows default to col_degree + deg(f), which holds every column exactly; a
    larger row_degree may be passed so sections of different symbols become
    conformable for sums.  A smaller one D >= 0 keeps the exact section's
    rows of degree <= D, the section of P_D M_f: a row projection of exact
    columns, so ||P_D M_f v|| / ||v|| is still a lower bound for the norm;
    a negative one is refused.  The byte limit counts the uncut section
    either way.  Column m_j holds f's term c_t in row m_j + t; the (term,
    column) pairs, planned once per support of f (``_plan``), are placed in
    scatters of about _PAIR_BLOCK, so beyond its entries and a kept plan the
    section's build holds O(_PAIR_BLOCK).
    """
    if isinstance(f, DiskPoly):
        if space.dim != 1:
            raise ValueError("a disk weight needs a dim-1 space")
        n = np.flatnonzero(f.coeffs)
        f = BallPoly._of(1, n[:, None], f.coeffs[n])
    if not isinstance(f, BallPoly):
        raise TypeError("f must be a DiskPoly or a BallPoly")
    if f.dim != space.dim:
        raise ValueError("weight and space dimensions must match")
    if row_degree is not None and row_degree < 0:
        raise ValueError("row_degree must be nonnegative")
    needed = col_degree + f.degree()
    row_degree = needed if row_degree is None else row_degree
    _, ncols = _check_section_size(space.dim, max(row_degree, needed), col_degree)
    nrows = _monomial_count(space.dim, row_degree)
    entries = np.zeros((nrows, ncols), dtype=complex)
    norms = monomial_norms(space, max(row_degree, col_degree))
    for terms, cols, ranks in _plan(_mult_plan, f.exps, space.dim, col_degree,
                                    row_degree):
        _place(entries, ranks, ranks, cols, f.coefs[terms], norms)
    return SectionMatrix(space, col_degree, row_degree, np.arange(nrows), entries)


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
    """Powers of two below col_degree, 3 * col_degree // 4, and col_degree;
    [0] for a one-column section."""
    if col_degree == 0:
        return [0]
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
    side.  A wide section (fewer stored rows than columns) first drops its
    all-zero columns, which change neither ||A_d v|| nor any entry of the
    Gram of the rest, and each prefix takes the nonzero columns of degree
    <= d; so a Gram holds at most min(rows, nonzero columns)^2 entries.
    Then a tall section forms G = A^H A once and each prefix takes its
    leading block; a wide one keeps the row Gram H = A_d A_d^H, adding each
    prefix's new columns, and bounds A_d^H with H's top eigenvector u as
    ||A_d^H u|| / ||u||.  Either way each bound is the prefix's top singular
    value up to rounding, so the trace is nondecreasing in d up to rounding.
    Rows left out, and rows a prefix does not reach, are zero and change
    nothing; the rows a cut section drops make each bound ||P_D A_d v|| / ||v||,
    which is at most ||A_d v|| / ||v||, so still a lower bound.
    """
    if trace_degrees is None:
        trace_degrees = _default_trace_degrees(section.col_degree)
    degrees = list(trace_degrees)
    if not degrees:
        raise ValueError("trace degrees must not be empty")
    if not all(_is_natural(d) and d <= section.col_degree for d in degrees):
        raise ValueError("trace degrees must be integers between 0 and col_degree")
    degrees = sorted({int(d) for d in degrees})
    dim = section.space.dim
    ends = [_monomial_count(dim, d) for d in degrees]
    a = section.entries[:, : ends[-1]]
    if a.shape[0] < a.shape[1]:
        kept = np.flatnonzero(a.any(axis=0))
        if kept.size < a.shape[1]:
            a = a[:, kept]
            ends = np.searchsorted(kept, ends).tolist()
    tall = a.shape[0] >= a.shape[1]
    if tall:
        gram = a.conj().T @ a
    else:
        gram = np.zeros((a.shape[0], a.shape[0]), dtype=a.dtype)
    trace = []
    done = 0
    for d, cols in zip(degrees, ends):
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
