"""Finite sections, monomial norms, and certified norm traces."""

import math
import tracemalloc

import numpy as np
import pytest

from kernelcomp.ball import br_map
from kernelcomp.operators import (
    SectionMatrix,
    SpaceSpec,
    _grlex_rank,
    _stored_length,
    comp_matrix,
    comp_norm_bound,
    grlex_monomials,
    monomial_norms,
    mult_matrix,
    op_norm_lower,
    weighted_comp_matrix,
)
from kernelcomp.series import (
    BallMap,
    BallPoly,
    DiskPoly,
    SelfMapDisk,
    blaschke_factor,
    sup_norm_circle,
)
from oracles import adjoint_kernel_check, adjoint_mult_check, compose, \
    disk_comp_dense, svd_trace

H2 = SpaceSpec(1, 1.0)


def _dense(sec):
    # every row through the row degree, the rows left out as zeros
    count = math.comb(sec.row_degree + sec.space.dim, sec.space.dim)
    out = np.zeros((count, sec.entries.shape[1]), dtype=complex)
    out[sec.rows] = sec.entries
    return out


def _weight_coeffs_fft(alpha, count):
    # oracle: Taylor coefficients of (1 - t)^(-alpha) by circle sampling
    k = 4096
    rho = 0.5
    t = rho * np.exp(2j * np.pi * np.arange(k) / k)
    vals = (1.0 - t) ** (-alpha)
    coef = np.fft.fft(vals) / k
    return (coef[:count] / rho ** np.arange(count)).real


def test_grlex_order_dim2():
    mons = grlex_monomials(2, 2)
    assert mons == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert grlex_monomials(1, 3) == ((0,), (1,), (2,), (3,))


def test_grlex_counts_dim3():
    mons = grlex_monomials(3, 4)
    assert len(mons) == math.comb(4 + 3, 3)
    degrees = [sum(m) for m in mons]
    assert degrees == sorted(degrees)
    assert len(set(mons)) == len(mons)


def test_monomial_norms_hardy_exactly_one():
    norms = monomial_norms(H2, 24)
    assert np.all(norms == 1.0)


def test_monomial_norms_weighted_disk():
    # alpha = 2: squared norm of z^n is 1/(n+1)
    norms = monomial_norms(SpaceSpec(1, 2.0), 12)
    expect = 1.0 / np.sqrt(np.arange(13) + 1.0)
    assert np.max(np.abs(norms - expect)) <= 1e-13


def test_monomial_norms_ball_small_cases():
    norms = monomial_norms(SpaceSpec(2, 1.0), 2)
    mons = grlex_monomials(2, 2)
    idx = mons.index((1, 1))
    assert norms[idx] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    idx2 = mons.index((2, 0))
    assert norms[idx2] == pytest.approx(1.0, abs=1e-15)


def test_monomial_norms_against_kernel_expansion():
    # oracle: expand (1 - <z,w>)^(-alpha) as sum_k d_k <z,w>^k and read the
    # coefficient of z^m conj(w)^m via the multinomial theorem
    alpha = 2.5
    space = SpaceSpec(2, alpha)
    d = _weight_coeffs_fft(alpha, 7)
    mons = grlex_monomials(2, 6)
    norms = monomial_norms(space, 6)
    for i, m in enumerate(mons):
        k = sum(m)
        multinom = math.factorial(k) // (math.factorial(m[0]) * math.factorial(m[1]))
        coeff = d[k] * multinom
        assert norms[i] ** 2 == pytest.approx(1.0 / coeff, rel=1e-10)


def test_comp_matrix_columns_match_composition():
    # column j holds the coefficients of b(z)^j, rescaled by monomial norms;
    # cross-check against the circle-sampling composition at modest degree
    rng = np.random.default_rng(10)
    raw = DiskPoly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = SelfMapDisk((0.9 / sup_norm_circle(raw, 1024)) * raw)
    sec = comp_matrix(b, H2, 8)
    assert sec.row_degree == 24
    for j in range(9):
        image = compose(DiskPoly.monomial(j), b, sec.row_degree)
        col = sec.entries[:, j]
        assert np.max(np.abs(col - image.coeffs)) <= 1e-11


def test_comp_matrix_blaschke_columns_are_power_coefficients():
    b = blaschke_factor(0.5)
    sec = comp_matrix(b, H2, 2)
    series = b.series.coeffs
    assert np.max(np.abs(sec.entries[: series.size, 1] - series)) == 0.0
    square = np.convolve(series, series)
    assert np.max(np.abs(sec.entries[: square.size, 2] - square)) <= 1e-15


def test_comp_matrix_inner_square_is_exact():
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 1.0]))
    sec = comp_matrix(b, H2, 6)
    assert sec.row_degree == 12
    assert np.array_equal(sec.rows, np.arange(13))
    expect = np.zeros((13, 7), dtype=complex)
    for j in range(7):
        expect[2 * j, j] = 1.0
    assert np.array_equal(sec.entries, expect)


def test_comp_matrix_weighted_space_scaling():
    # entries carry the ratio of row norm to column norm
    space = SpaceSpec(1, 3.0)
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 0.9]))
    sec = comp_matrix(b, space, 3)
    norms = monomial_norms(space, sec.row_degree)
    assert sec.entries[2, 1] == pytest.approx(0.9 * norms[2] / norms[1], rel=1e-13)
    assert sec.entries[6, 3] == pytest.approx(0.9**3 * norms[6] / norms[3], rel=1e-13)


def test_comp_matrix_rejects_constant():
    with pytest.raises(ValueError):
        comp_matrix(SelfMapDisk(DiskPoly([0.5])), H2, 4)
    zero = BallPoly(2, {})
    with pytest.raises(ValueError):
        comp_matrix(BallMap([BallPoly(2, {(0, 0): 0.3}), zero]), SpaceSpec(2, 1.0), 4)


def test_comp_matrix_ball_dim1_matches_disk_path():
    coeffs = {(0,): 0.1, (1,): 0.4, (2,): 0.3}
    bm = BallMap([BallPoly(1, coeffs)])
    bd = SelfMapDisk(DiskPoly([0.1, 0.4, 0.3]))
    space = SpaceSpec(1, 2.0)
    assert np.array_equal(comp_matrix(bm, space, 7).entries,
                          comp_matrix(bd, space, 7).entries)


def _scaled_disk_symbol(seed, degree, radius):
    rng = np.random.default_rng(seed)
    raw = DiskPoly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return SelfMapDisk((radius / sup_norm_circle(raw, 1024)) * raw)


# symbol, space, column degree, and whether the section ends in rows that no
# column reaches
_DISK_CASES = {
    "blaschke-128": (lambda: blaschke_factor(0.5), H2, 128, True),
    "blaschke-256": (lambda: blaschke_factor(0.5), H2, 256, True),
    "blaschke-complex": (lambda: blaschke_factor(-0.3 + 0.6j), SpaceSpec(1, 2.0),
                         96, True),
    "random": (lambda: _scaled_disk_symbol(20, 4, 0.9), H2, 40, False),
    "random-weighted": (lambda: _scaled_disk_symbol(21, 3, 0.95), SpaceSpec(1, 3.5),
                        40, False),
    # powers from b**115 on underflow to all-zero columns
    "underflow": (lambda: SelfMapDisk(DiskPoly([0.0, 0.0, 1e-3, -5e-4j])), H2, 120,
                  True),
    "ball-dim1": (lambda: BallMap([BallPoly(1, {(0,): 0.1, (1,): 0.4, (3,): 0.3j})]),
                  SpaceSpec(1, 2.0), 30, False),
    "square": (lambda: SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])), H2, 24, False),
}


@pytest.mark.parametrize("case", list(_DISK_CASES))
def test_disk_composition_matches_dense_oracle(case):
    # the stored rows equal the dense assembly byte for byte, and every row
    # left out is a trailing row of +0 entries there
    make, space, degree, trimmed = _DISK_CASES[case]
    b = make()
    if isinstance(b, BallMap):
        coeffs = np.zeros(b.degree() + 1, dtype=complex)
        coeffs[b.coords[0].exps[:, 0]] = b.coords[0].coefs
    else:
        coeffs = b.series.trimmed()
    sec = comp_matrix(b, space, degree)
    dense = disk_comp_dense(coeffs, space, degree)
    assert np.array_equal(sec.rows, np.arange(len(sec.rows)))
    assert (len(sec.rows) < len(dense)) == trimmed
    assert np.all(dense[len(sec.rows):] == 0)
    assert _dense(sec).tobytes() == dense.tobytes()


def test_stored_length_keeps_signed_zeros():
    # a -0 part is stored, so the rows left out are +0 in the dense assembly
    assert _stored_length(np.array([1.0, complex(-0.0, 0.0), 0.0, 0.0])) == 2
    assert _stored_length(np.array([0.0, complex(0.0, -0.0)])) == 2
    assert _stored_length(np.array([0.5, 0.0, 0.25j])) == 3
    assert _stored_length(np.zeros(3, dtype=complex)) == 0


def test_hardy_bound_section_stays_small():
    # hardy-bound's default section: 2364 of 11265 rows reached, 46 MB dense
    b = blaschke_factor(0.5)
    tracemalloc.start()
    try:
        sec = comp_matrix(b, H2, 256)
        op_norm_lower(sec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sec.entries.shape == (2364, 257)
    assert peak < 24 * 2**20


def test_comp_matrix_ball_product_map_columns():
    # b = (sz1z2, 0): the column for z^(a,0) is (s z1 z2)^a, a single monomial
    s = 1.0
    bm = BallMap([BallPoly(2, {(1, 1): s}), BallPoly(2, {})])
    space = SpaceSpec(2, 1.0)
    sec = comp_matrix(bm, space, 4)
    mons_row = grlex_monomials(2, sec.row_degree)
    mons_col = grlex_monomials(2, 4)
    rnorms = monomial_norms(space, sec.row_degree)
    cnorms = monomial_norms(space, 4)
    # the powers (s z1 z2)^a and the zero power of the zero coordinate
    assert sec.rows.tolist() == [0] + [mons_row.index((a, a)) for a in range(1, 5)]
    dense = _dense(sec)
    for j, m in enumerate(mons_col):
        col = dense[:, j]
        if m[1] > 0:
            assert np.all(col == 0)
            continue
        a = m[0]
        i = mons_row.index((a, a))
        expect = s**a * rnorms[i] / cnorms[j]
        assert col[i] == pytest.approx(expect, rel=1e-13)
        assert np.count_nonzero(col) == (1 if a >= 0 else 0)


def test_mult_matrix_shift_is_isometric():
    sec = mult_matrix(DiskPoly.identity(), H2, 10)
    bound = op_norm_lower(sec)
    assert bound.lower == pytest.approx(1.0, abs=1e-12)
    assert sec.row_degree == 11


def test_mult_matrix_row_degree_control():
    f = DiskPoly([1.0, 2.0])
    sec = mult_matrix(f, H2, 3, row_degree=8)
    assert sec.entries.shape == (9, 4)
    assert np.array_equal(sec.rows, np.arange(9))
    with pytest.raises(ValueError):
        mult_matrix(f, H2, 3, row_degree=3)


def test_weighted_comp_entries_for_monomial_pair():
    # f = z, b = z^2 sends e_j to e_{2j+1}
    comp = comp_matrix(SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])), H2, 5)
    sec = weighted_comp_matrix(DiskPoly.identity(), comp)
    expect = np.zeros((sec.row_degree + 1, 6), dtype=complex)
    for j in range(6):
        expect[2 * j + 1, j] = 1.0
    assert np.array_equal(sec.entries, expect)


def _mult_reference(f, space, col_degree, row_degree=None):
    # oracle: the per-entry loop with a row dict that assembled sections
    # before the vectorized scatter
    if isinstance(f, DiskPoly):
        f = BallPoly(1, {(n,): c for n, c in enumerate(f.coeffs) if c != 0})
    if row_degree is None:
        row_degree = col_degree + f.degree()
    cols = grlex_monomials(space.dim, col_degree)
    rows = grlex_monomials(space.dim, row_degree)
    row_index = {m: i for i, m in enumerate(rows)}
    norms = monomial_norms(space, row_degree)
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, mj in enumerate(cols):
        for t, c in f.terms.items():
            i = row_index[tuple(x + y for x, y in zip(mj, t))]
            entries[i, j] = c * norms[i] / norms[j]
    return entries


def _dict_mul(a: dict, b: dict) -> dict:
    # oracle: the dict product that built ball composition powers before
    # the array product; like terms summed term by term, zeros kept
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _comp_reference(b, space, col_degree):
    # oracle: the same coordinate powers, placed entry by entry through a
    # row dict into every row as sections were assembled before the
    # vectorized scatter; also the ranks of the rows the images reach
    row_degree = col_degree * b.degree()
    cols = grlex_monomials(space.dim, col_degree)
    rows = grlex_monomials(space.dim, row_degree)
    row_index = {m: i for i, m in enumerate(rows)}
    norms = monomial_norms(space, row_degree)
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    zero = (0,) * space.dim
    powers = {zero: {zero: 1.0 + 0.0j}}
    reached = set()
    for j, m in enumerate(cols):
        if m != zero:
            i_var = next(i for i, e in enumerate(m) if e > 0)
            prev = tuple(e - (i == i_var) for i, e in enumerate(m))
            powers[m] = _dict_mul(powers[prev], b.coords[i_var].terms)
        for mi, c in powers[m].items():
            i = row_index[mi]
            entries[i, j] = c * norms[i] / norms[j]
            reached.add(i)
    return entries, sorted(reached)


def _assert_matches_comp_reference(sec, b, space, col_degree):
    entries, reached = _comp_reference(b, space, col_degree)
    assert sec.rows.dtype == np.int64 and sec.rows.tolist() == reached
    assert _dense(sec).tobytes() == entries.tobytes()


def _random_ball_poly(rng, dim, degree, count):
    mons = grlex_monomials(dim, degree)
    picks = rng.choice(len(mons), size=min(count, len(mons)), replace=False)
    return BallPoly(dim, {mons[k]: complex(*rng.standard_normal(2))
                          for k in picks})


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
def test_mult_matrix_matches_per_entry_reference(dim, alpha):
    rng = np.random.default_rng([dim, int(2 * alpha)])
    space = SpaceSpec(dim, alpha)
    for col_degree in (0, 3, 6):
        f = _random_ball_poly(rng, dim, 4, 7)
        sec = mult_matrix(f, space, col_degree)
        assert sec.entries.tobytes() == _mult_reference(f, space, col_degree).tobytes()
        wide = mult_matrix(f, space, col_degree, row_degree=col_degree + 7)
        assert wide.entries.tobytes() == \
            _mult_reference(f, space, col_degree, col_degree + 7).tobytes()


def test_mult_matrix_matches_reference_for_disk_weights_and_underflow():
    for space in (H2, SpaceSpec(1, 2.0), SpaceSpec(1, 3.5)):
        f = DiskPoly([0.3, -0.5 + 0.25j, 0.0, 1e-3j, -2.0, complex(-0.0, 0.5),
                      complex(0.25, -0.0)])
        assert mult_matrix(f, space, 9, row_degree=20).entries.tobytes() == \
            _mult_reference(f, space, 9, 20).tobytes()
        # a part that underflows to -0 takes the sign Python's complex
        # product gives it, not the sign of the part alone
        g = BallPoly(1, {(0,): complex(-5e-324, 0.5), (1,): complex(0.5, -5e-324),
                         (2,): complex(-5e-324, -5e-324)})
        assert mult_matrix(g, space, 5).entries.tobytes() == \
            _mult_reference(g, space, 5).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_comp_matrix_matches_per_entry_reference(dim):
    rng = np.random.default_rng(dim)
    space = SpaceSpec(dim, 2.0)
    for trial in range(4):
        coords = [_random_ball_poly(rng, dim, 2, 3) for _ in range(dim)]
        if trial == 3:
            coords[-1] = BallPoly(dim, {})
        # coefficient sums below 1 / dim keep the map inside the ball
        b = BallMap([(0.3 / dim / (sum(abs(v) for v in c.terms.values()) or 1.0))
                     * c for c in coords])
        _assert_matches_comp_reference(comp_matrix(b, space, 4), b, space, 4)


def test_comp_matrix_matches_reference_with_cancelling_powers():
    # (z1 + z2) (z1 - z2) cancels to exact zeros that the dict product kept;
    # the product map has a zero coordinate and one-term powers
    s = 0.25
    plus = BallPoly(2, {(1, 0): s, (0, 1): s})
    minus = BallPoly(2, {(1, 0): s, (0, 1): -s})
    for b, degree in [(BallMap([plus, minus]), 6),
                      (BallMap([minus, plus]), 5),
                      (br_map(0.75), 20)]:
        for alpha in (1.0, 3.5):
            space = SpaceSpec(2, alpha)
            _assert_matches_comp_reference(comp_matrix(b, space, degree), b,
                                           space, degree)


def test_ball_composition_section_stays_small():
    # the br section at r = 0.75: 61 reachable rows of 7381, 223 MB dense
    tracemalloc.start()
    try:
        sec = comp_matrix(br_map(0.75), SpaceSpec(2, 1.0), 60)
        op_norm_lower(sec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sec.entries.shape == (61, 1891)
    assert peak < 16 * 2**20


def test_weighted_ball_composition_matches_dense_product():
    space = SpaceSpec(2, 2.0)
    comp = comp_matrix(br_map(0.5), space, 6)
    f = BallPoly(2, {(0, 0): 0.5, (1, 0): 0.25, (0, 2): -0.125j})
    sec = weighted_comp_matrix(f, comp)
    expect = mult_matrix(f, space, comp.row_degree).entries @ _dense(comp)
    assert np.array_equal(sec.rows, np.arange(expect.shape[0]))
    assert np.allclose(sec.entries, expect, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_grlex_rank_inverts_grlex_monomials(dim):
    mons = grlex_monomials(dim, 7)
    assert np.array_equal(_grlex_rank(np.array(mons)), np.arange(len(mons)))
    # any leading shape: rank a (2, n/2, dim) stack
    half = len(mons) // 2
    stack = np.array(mons[: 2 * half]).reshape(2, half, dim)
    assert np.array_equal(_grlex_rank(stack),
                          np.arange(2 * half).reshape(2, half))


def test_monomial_norms_are_shared_and_read_only():
    first = monomial_norms(SpaceSpec(2, 2.5), 5)
    assert monomial_norms(SpaceSpec(2, 2.5), 5) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[:] = -1.0


def test_sections_above_the_size_limit_are_refused():
    with pytest.raises(ValueError, match="byte limit"):
        mult_matrix(DiskPoly.identity(), H2, 2**20)
    with pytest.raises(ValueError, match="byte limit"):
        comp_matrix(SelfMapDisk(DiskPoly([0.0, 0.0, 0.5])), H2, 2**16)
    with pytest.raises(ValueError, match="byte limit"):
        comp_matrix(BallMap([BallPoly(3, {(1, 1, 0): 0.5}),
                             BallPoly(3, {(0, 0, 1): 0.5}),
                             BallPoly(3, {})]), SpaceSpec(3, 1.0), 60)


def test_op_norm_lower_trace_monotone():
    rng = np.random.default_rng(11)
    raw = DiskPoly(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    b = SelfMapDisk((0.9 / sup_norm_circle(raw, 1024)) * raw)
    bound = op_norm_lower(comp_matrix(b, H2, 24))
    degrees = [d for d, _ in bound.trace]
    values = [v for _, v in bound.trace]
    assert degrees == sorted(degrees)
    assert all(b2 - b1 >= -1e-12 for b1, b2 in zip(values, values[1:]))
    assert bound.lower == values[-1]
    assert bound.lower <= comp_norm_bound(abs(b.center), 1.0) + 1e-9


def test_op_norm_lower_zero_row_drop_matches_full_svd():
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 0.8]))
    sec = comp_matrix(b, H2, 12)
    bound = op_norm_lower(sec, trace_degrees=[12])
    full = np.linalg.svd(sec.entries, compute_uv=False)[0]
    assert bound.lower == pytest.approx(full, rel=1e-13)


def test_op_norm_lower_leaves_the_closed_form_bound_to_callers():
    # ((1 + c) / (1 - c)) ** (alpha / 2) at c = |b(0)| = 0.3
    assert comp_norm_bound(0.3, 1.0) == pytest.approx(math.sqrt(1.3 / 0.7), rel=1e-13)
    assert comp_norm_bound(0.3, 2.0) == pytest.approx(1.3 / 0.7, rel=1e-13)
    b = SelfMapDisk(DiskPoly([0.3, 0.5]))
    for alpha in (1.0, 2.0):
        comp = op_norm_lower(comp_matrix(b, SpaceSpec(1, alpha), 8))
        assert 1.0 < comp.lower <= comp_norm_bound(abs(b.center), alpha)
    # a NormBound holds a lower bound and its trace, and nothing more
    assert set(vars(comp)) == {"lower", "trace"}
    mult = op_norm_lower(mult_matrix(DiskPoly([0.3, 0.5]), H2, 8))
    assert set(vars(mult)) == {"lower", "trace"}
    bm = BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})])
    ball = op_norm_lower(comp_matrix(bm, SpaceSpec(2, 1.0), 4))
    assert set(vars(ball)) == {"lower", "trace"}


def test_op_norm_lower_rejects_bad_trace():
    sec = comp_matrix(SelfMapDisk(DiskPoly([0.0, 0.5])), H2, 6)
    with pytest.raises(ValueError):
        op_norm_lower(sec, trace_degrees=[7])
    with pytest.raises(ValueError):
        op_norm_lower(sec, trace_degrees=[])


def _zeroed_columns():
    # a tall disk section with every third column, and its first, zeroed
    sec = comp_matrix(SelfMapDisk(DiskPoly([0.1, 0.7, 0.15j])), H2, 20)
    entries = sec.entries.copy()
    entries[:, ::3] = 0.0
    return SectionMatrix(H2, sec.col_degree, sec.row_degree, sec.rows, entries)


# name: (section and trace degrees, whether the section is tall)
_ORACLE_SECTIONS = {
    "tall-blaschke": (lambda: (comp_matrix(blaschke_factor(0.5), H2, 64), None),
                      True),
    "wide-br": (lambda: (comp_matrix(br_map(0.75), SpaceSpec(2, 1.0), 60),
                         range(0, 61, 4)), False),
    "weighted": (lambda: (weighted_comp_matrix(
        DiskPoly([0.5, 0.25j, -0.125]),
        comp_matrix(SelfMapDisk(DiskPoly([0.2, 0.6])), SpaceSpec(1, 2.0), 24)),
        None), True),
    "ball-mult": (lambda: (mult_matrix(
        BallPoly(2, {(0, 0): 0.5, (1, 0): 0.25, (0, 2): -0.125j}),
        SpaceSpec(2, 2.0), 10), None), True),
    # (s z1 z2, 0): every column with a power of z2 is zero
    "zero-columns-wide": (lambda: (comp_matrix(
        BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})]),
        SpaceSpec(2, 1.0), 8), None), False),
    "zero-columns-tall": (lambda: (_zeroed_columns(), range(0, 21)), True),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SECTIONS))
def test_op_norm_lower_matches_the_svd_oracle(name):
    make, tall = _ORACLE_SECTIONS[name]
    sec, degrees = make()
    assert (sec.entries.shape[0] >= sec.entries.shape[1]) == tall
    bound = op_norm_lower(sec, trace_degrees=degrees)
    expect = svd_trace(sec, [d for d, _ in bound.trace])
    assert [d for d, _ in bound.trace] == [d for d, _ in expect]
    for (_, lo), (_, sigma) in zip(bound.trace, expect):
        assert abs(lo - sigma) <= 1e-13 * sigma
        assert lo <= sigma * (1.0 + 1e-13)


def test_adjoint_action_on_kernel_functions():
    rng = np.random.default_rng(12)
    raw = DiskPoly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = SelfMapDisk((0.85 / sup_norm_circle(raw, 1024)) * raw)
    for space in (H2, SpaceSpec(1, 2.0)):
        assert adjoint_kernel_check(b, space, 40, 0.6j) <= 1e-12
    f = DiskPoly([0.5, 0.25, -0.125])
    assert adjoint_mult_check(f, H2, 40, -0.55) <= 1e-12


def test_adjoint_checks_ball():
    bm = BallMap([BallPoly(2, {(1, 0): 0.4, (1, 1): 0.2}),
                  BallPoly(2, {(0, 1): 0.4})])
    w = np.array([0.3, 0.2 + 0.1j])
    assert adjoint_kernel_check(bm, SpaceSpec(2, 2.0), 10, w) <= 1e-10
    f = BallPoly(2, {(0, 0): 0.5, (1, 0): 0.25})
    assert adjoint_mult_check(f, SpaceSpec(2, 1.0), 10, w) <= 1e-10


def test_adjoint_check_rejects_large_point():
    b = SelfMapDisk(DiskPoly([0.0, 0.5]))
    with pytest.raises(ValueError):
        adjoint_kernel_check(b, H2, 10, 0.9)


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(0, 1.0)
    with pytest.raises(ValueError):
        SpaceSpec(1, 0.5)
    with pytest.raises(ValueError):
        SpaceSpec(2, 0.0)
