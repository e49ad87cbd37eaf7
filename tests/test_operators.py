"""Finite sections, monomial norms, and certified norm traces."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kernelcomp import operators, series
from kernelcomp.ball import br_map
from kernelcomp.dbr import combo_to_poly
from kernelcomp.kernels import substream
from kernelcomp.operators import (
    SectionMatrix,
    SpaceSpec,
    _comp_entries_disk,
    _grlex_rank,
    _floor_cut,
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
from kernelcomp.sampling import random_disk_symbol, random_kernel_combo
from oracles import adjoint_kernel_check, adjoint_mult_check, compose, \
    disk_comp_dense, svd_trace, traced_peak, uncut_disk_entries, \
    weighted_disk_extended

H2 = SpaceSpec(1, 1.0)


def _dense(sec):
    # every row through the row degree, the rows left out as zeros
    count = math.comb(sec.row_degree + sec.space.dim, sec.space.dim)
    out = np.zeros((count, sec.entries.shape[1]), dtype=sec.entries.dtype)
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
    mons = grlex_monomials(2, 2).tolist()
    assert mons == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert grlex_monomials(1, 3).tolist() == [[0], [1], [2], [3]]


def _grlex_reference(dim, degree):
    # oracle: every exponent tuple up to the degree, kept by total degree and
    # sorted by degree, then by exponents descending
    mons = [m for m in itertools.product(range(degree + 1), repeat=dim)
            if sum(m) <= degree]
    return [list(m) for m in sorted(mons, key=lambda m: (sum(m), [-e for e in m]))]


@pytest.mark.parametrize("dim", range(1, 6))
def test_grlex_monomials_match_a_brute_force_order(dim):
    for degree in range(7):
        mons = grlex_monomials(dim, degree)
        assert mons.tolist() == _grlex_reference(dim, degree)
        assert mons.dtype == np.int64
        assert mons.shape == (math.comb(degree + dim, dim), dim)
        assert not mons.flags.writeable
        assert grlex_monomials(dim, degree) is mons
    with pytest.raises(ValueError):
        mons[0, 0] = 1


def test_grlex_counts_dim3():
    mons = list(map(tuple, grlex_monomials(3, 4).tolist()))
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
    mons = list(map(tuple, grlex_monomials(2, 2).tolist()))
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


def test_comp_matrix_constant_is_one_exact_row():
    # f o c = f(c): column j is c^(m_j) ||1|| / ||z^(m_j)||, all in row 0
    space = SpaceSpec(1, 2.0)
    sec = comp_matrix(SelfMapDisk(DiskPoly([0.5])), space, 6)
    norms = monomial_norms(space, 6)
    assert sec.row_degree == 0 and list(sec.rows) == [0]
    np.testing.assert_allclose(sec.entries[0], 0.5 ** np.arange(7) * norms[0] / norms,
                               rtol=1e-14)
    zero = BallPoly(2, {})
    sec = comp_matrix(BallMap([BallPoly(2, {(0, 0): 0.3}), zero]), SpaceSpec(2, 1.0), 4)
    assert sec.row_degree == 0 and list(sec.rows) == [0]


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
    "square": (lambda: SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])), H2, 24, False),
}


def _column_distance(got, expect):
    # largest l2 distance of any column, the shorter array padded with zero rows
    rows = max(len(got), len(expect))
    pad = [np.pad(a, ((0, rows - len(a)), (0, 0))) for a in (got, expect)]
    return float(np.max(np.sqrt(np.sum(np.abs(pad[0] - pad[1]) ** 2, axis=0))))


def _assert_floor_cut(got, expect, start, coeffs, degree):
    # a case whose powers fall below the floor: every column is within 1e-140
    # in l2 of the uncut reference, and every stored power (the section
    # before its norm correction) ends on a part of magnitude >= 2^-511
    assert _column_distance(got, expect) <= 1e-140
    powers = _comp_entries_disk(start, coeffs, np.ones(max(len(got), degree + 1)),
                                degree)
    parts = np.abs(powers.view(np.float64)).reshape(len(powers), degree + 1, -1)
    for col in parts.max(axis=2).T:
        last = np.flatnonzero(col)
        assert not last.size or col[last[-1]] >= 2.0 ** -511


@pytest.mark.parametrize("case", list(_DISK_CASES))
def test_disk_composition_matches_dense_oracle(case):
    # the stored rows equal the dense assembly byte for byte, and every row
    # left out is a trailing row of +0 entries there, unless the powers fall
    # below the floor (the blaschke and underflow cases); a real symbol is
    # compared in float64, a complex one in complex128
    make, space, degree, trimmed = _DISK_CASES[case]
    b = make()
    sec = comp_matrix(b, space, degree)
    coeffs = b.series.trimmed()
    if not coeffs.imag.any():
        coeffs = coeffs.real.copy()
    dense = disk_comp_dense(coeffs, space, degree)
    assert sec.entries.dtype == dense.dtype
    assert np.array_equal(sec.rows, np.arange(len(sec.rows)))
    assert (len(sec.rows) < len(dense)) == trimmed
    if case.startswith(("blaschke", "underflow")):
        _assert_floor_cut(sec.entries, dense, np.ones(1, dtype=coeffs.dtype), coeffs,
                          degree)
    else:
        assert np.all(dense[len(sec.rows):] == 0)
        assert _dense(sec).tobytes() == dense.tobytes()


def _random_disk_case(seed, alpha):
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    return start, random_disk_symbol(rng, 4, 0.95), SpaceSpec(1, alpha), 48


# start, symbol, space and column degree
_RECURRENCE_CASES = {
    "blaschke-256": lambda: (np.ones(1, dtype=complex), blaschke_factor(0.5), H2, 256),
    # a float64 start takes b's real coefficients, as real data is built
    "blaschke-256-real": lambda: (np.ones(1), blaschke_factor(0.5), H2, 256),
    "random-1": lambda: _random_disk_case(31, 1.0),
    "random-2": lambda: _random_disk_case(32, 2.0),
    "random-3": lambda: _random_disk_case(33, 3.0),
    # 0.001^j underflows from j = 108 on, so the last 13 powers are empty
    "underflow": lambda: (np.ones(1, dtype=complex),
                          SelfMapDisk(DiskPoly([0.0, 1e-3])), H2, 120),
    "underflow-real": lambda: (np.ones(1), SelfMapDisk(DiskPoly([0.0, 1e-3])), H2,
                               120),
    "zero-weight": lambda: (np.zeros(1, dtype=complex), blaschke_factor(0.5), H2, 16),
}


@pytest.mark.parametrize("case", list(_RECURRENCE_CASES))
def test_cut_power_recurrence_matches_the_uncut_loop(case):
    # cutting each power before the next product changes no stored bit until
    # a power falls below the floor, and then moves no column by 1e-140
    start, b, space, degree = _RECURRENCE_CASES[case]()
    coeffs = b.series.trimmed()
    if start.dtype == np.float64:
        coeffs = coeffs.real.copy()
    norms = monomial_norms(space, degree * b.degree() + len(start))
    got = _comp_entries_disk(start, coeffs, norms, degree)
    expect = uncut_disk_entries(start, coeffs, norms, degree)
    assert got.dtype == start.dtype
    if case.startswith(("blaschke", "underflow")):
        _assert_floor_cut(got, expect, start, coeffs, degree)
    else:
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
    if case.startswith("underflow"):
        # 0.001^51 >= 2^-511 > 0.001^52: the last 69 powers are empty
        assert expect.shape == (108, 121) and got.shape == (52, 121)
    if case == "zero-weight":
        sec = weighted_comp_matrix(DiskPoly([0.0]), b, space, degree)
        assert sec.row_degree == degree * b.degree() and not sec.entries.any()


def test_the_floor_bound_fails_at_a_coarse_floor(monkeypatch):
    # at 2^-60 the cut drops parts near 1e-18, far past the 1e-140 bound
    b, degree = blaschke_factor(0.5), 256
    coeffs = b.series.trimmed().real.copy()
    dense = disk_comp_dense(coeffs, H2, degree)
    assert _column_distance(comp_matrix(b, H2, degree).entries, dense) <= 1e-140
    monkeypatch.setattr(operators, "_FLOOR", 2.0 ** -60)
    assert _column_distance(comp_matrix(b, H2, degree).entries, dense) > 1e-140


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_weighted_sections_match_extended_precision(alpha):
    # theorem1's draws at alpha 1 and bergman-bound's at 2 and 3: f is a unit
    # kernel combination and column j of the section holds f * b^j
    nodes, radius, degree, index = {1: (5, 0.6, 32, ()), 2: (3, 0.5, 48, (0,)),
                                    3: (3, 0.5, 48, (1,))}[alpha]
    space = SpaceSpec(1, float(alpha))
    for t in range(20):
        rng = substream(0, *index, t)
        b = random_disk_symbol(rng, 4, 0.95)
        f = combo_to_poly(random_kernel_combo(rng, b, alpha=alpha, max_nodes=nodes,
                                              node_radius=radius), 72)
        expect = weighted_disk_extended(f, b, space, degree)
        diff = _dense(weighted_comp_matrix(f, b, space, degree)) - expect
        rel = np.sqrt(np.sum(np.abs(diff) ** 2, axis=0) /
                      np.sum(np.abs(expect) ** 2, axis=0))
        assert rel.max() <= 2e-15


def test_weighted_section_byte_limit_counts_the_weighted_section(monkeypatch):
    # b = 0.5 z^2 and 128 columns: a weight of degree d gives 2 * 127 + d + 1
    # rows of 16-byte entries, 2^20 bytes at d = 257
    monkeypatch.setattr(series, "MAX_SECTION_BYTES", 2**20)
    b = SelfMapDisk(DiskPoly([0.0, 0.0, 0.5]))
    over, under = DiskPoly.monomial(258, 0.5), DiskPoly.monomial(257, 0.5)
    def refused():
        with pytest.raises(ValueError, match="byte limit"):
            weighted_comp_matrix(over, b, H2, 127)

    _, peak = traced_peak(refused)
    assert peak < 2**20
    sec = weighted_comp_matrix(under, b, H2, 127)
    assert sec.row_degree == 511 and sec.entries.shape == (512, 128)
    # the multiplication section of the product route, 512 x 255, is refused
    with pytest.raises(ValueError, match="byte limit"):
        mult_matrix(under, H2, 2 * 127)


def test_weighted_comp_matrix_checks_its_weight():
    # a disk symbol takes a DiskPoly weight, a ball map a BallPoly of its dim
    disk = SelfMapDisk(DiskPoly([0.0, 0.5]))
    ball, ball_space = br_map(0.5), SpaceSpec(2, 1.0)
    for f, b, space in ((BallPoly(1, {(1,): 0.5}), disk, H2),
                        (DiskPoly([0.5]), ball, ball_space),
                        (BallPoly(3, {(0, 0, 1): 0.5}), ball, ball_space)):
        with pytest.raises(TypeError, match="weight must be"):
            weighted_comp_matrix(f, b, space, 4)


def test_floor_cut_drops_signed_zeros_and_tiny_parts():
    # the cut keeps through the last part of magnitude >= 2^-511, real or
    # imaginary: a trailing -0 is cut like +0, and so is a trailing 1e-200
    floor = 2.0 ** -511

    def kept(v):
        out = _floor_cut(np.array(v))
        assert out.dtype == np.array(v).dtype
        return out.size

    assert kept([1.0, complex(-0.0, 0.0), 0.0, 0.0]) == 1
    assert kept([1.0, complex(0.0, -0.0), 1e-200j]) == 1
    assert kept([0.5, 0.0, 0.25j]) == 3
    assert kept([0.5, 1e-300, complex(1e-200, floor)]) == 3
    assert kept(np.zeros(3, dtype=complex)) == 0
    # float64 entries are read 8 bytes at a time
    assert kept([1.0, -0.0, 1e-200, 0.0]) == 1
    assert kept([0.0, floor]) == 2
    assert kept([0.0, -floor]) == 2
    assert kept([0.0, np.nextafter(floor, 0.0)]) == 0
    assert kept([-0.0]) == 0
    assert kept([1.0, np.nan, 0.0]) == 2


def _complex_route(f, b, space, degree):
    # the section built in complex arithmetic, whatever its data
    start = np.ones(1, dtype=complex) if f is None else f.trimmed()
    norms = monomial_norms(space, degree * b.degree() + len(start))
    entries = uncut_disk_entries(start, b.series.trimmed(), norms, degree)
    return SectionMatrix(space, degree, degree * b.degree() + len(start) - 1,
                         np.arange(len(entries)), entries)


def _section_of(f, b, space, degree):
    return comp_matrix(b, space, degree) if f is None else \
        weighted_comp_matrix(f, b, space, degree)


def _column_error(got, expect):
    # largest relative l2 error of any column
    return float(np.max(np.sqrt(np.sum(np.abs(got - expect) ** 2, axis=0) /
                                np.sum(np.abs(expect) ** 2, axis=0))))


def test_real_disk_data_gives_float64_sections():
    # a Blaschke factor at a real point, alone or with a real weight, and
    # coefficients whose imaginary parts are -0.0
    b = blaschke_factor(0.5)
    assert comp_matrix(b, H2, 64).entries.dtype == np.float64
    f = DiskPoly([0.5, -0.25, 0.125])
    assert weighted_comp_matrix(f, b, SpaceSpec(1, 2.0), 48).entries.dtype == np.float64
    signed = SelfMapDisk(DiskPoly([complex(0.25, -0.0), complex(0.5, -0.0)]))
    g = DiskPoly([complex(1.0, -0.0), complex(-0.5, -0.0)])
    assert np.signbit(signed.series.coeffs.imag).all()
    for sec in (comp_matrix(signed, H2, 16), weighted_comp_matrix(g, signed, H2, 16)):
        assert sec.entries.dtype == np.float64


@pytest.mark.parametrize("name", ["tiny-imaginary", "complex-weight"])
def test_complex_disk_data_keeps_the_complex_route(name):
    # any nonzero imaginary part, in b or in the weight alone, keeps the
    # section complex128 and within the floor's bound of the complex
    # recurrence
    f, b = {"tiny-imaginary": (None, SelfMapDisk(DiskPoly([0.25, 0.5, 1e-300j]))),
            "complex-weight": (DiskPoly([0.5, 0.25j]), blaschke_factor(0.5))}[name]
    space = SpaceSpec(1, 2.0)
    sec = _section_of(f, b, space, 32)
    expect = _complex_route(f, b, space, 32)
    assert sec.entries.dtype == np.complex128
    # both symbols' powers fall below the floor, the imaginary 1e-300 at once
    start = np.ones(1, dtype=complex) if f is None else f.trimmed()
    _assert_floor_cut(sec.entries, expect.entries, start, b.series.trimmed(), 32)


@pytest.mark.parametrize("alpha, degree", [(1.0, 128), (2.0, 96)])
def test_real_and_complex_routes_agree(alpha, degree):
    # hardy-bound's symbol, alone and with a real weight: the float64 and the
    # complex128 section each hold the extended-precision columns to the
    # 2e-15 of the weighted sections, and differ from each other by no more
    # (their rounding errors, about 7.5e-16 each at degree 128, are
    # independent, so they differ by 1.1e-15 there)
    b, space = blaschke_factor(0.5), SpaceSpec(1, alpha)
    for f in (None, DiskPoly([0.5, -0.25, 0.125])):
        real = _dense(_section_of(f, b, space, degree))
        cplx = _dense(_complex_route(f, b, space, degree))
        expect = weighted_disk_extended(DiskPoly([1.0]) if f is None else f, b,
                                        space, degree)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert _column_error(real, cplx) <= 2e-15
        assert _column_error(real, expect) <= 2e-15
        assert _column_error(cplx, expect) <= 2e-15


@pytest.mark.parametrize("name", ["tall", "wide"])
def test_op_norm_lower_runs_real_sections_in_real_arithmetic(name, monkeypatch):
    # a tall Blaschke section and a wide one whose powers underflow (108 of
    # 121 rows): every Gram is float64, and the bounds are the complex
    # route's to 1e-15, nondecreasing in the degree
    b, degree = {"tall": (blaschke_factor(0.5), 128),
                 "wide": (SelfMapDisk(DiskPoly([0.0, 1e-3])), 120)}[name]
    sec = comp_matrix(b, H2, degree)
    assert (sec.entries.shape[0] < sec.entries.shape[1]) == (name == "wide")
    expect = op_norm_lower(_complex_route(None, b, H2, degree)).trace
    grams, eigh = [], np.linalg.eigh

    def spy(a):
        grams.append(a.dtype)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    trace = op_norm_lower(sec).trace
    assert grams and set(grams) == {np.dtype(np.float64)}
    assert [d for d, _ in trace] == [d for d, _ in expect]
    for (_, lo), (_, ref) in zip(trace, expect):
        assert abs(lo - ref) <= 1e-15 * ref
    values = [v for _, v in trace]
    assert all(v2 - v1 >= -1e-15 * v2 for v1, v2 in zip(values, values[1:]))


def _bounded(sec):
    # the section after op_norm_lower has run on it, so a traced peak holds both
    op_norm_lower(sec)
    return sec


def test_hardy_bound_section_stays_small():
    # hardy-bound's default section: 1657 of 11265 rows reach the floor, 46 MB
    # dense; its build and its bounds trace about 5.6 MiB at their peak
    b = blaschke_factor(0.5)
    sec, peak = traced_peak(lambda: _bounded(comp_matrix(b, H2, 256)))
    assert sec.entries.shape == (1657, 257)
    assert peak < 8 * 2**20


def test_comp_matrix_ball_product_map_columns():
    # b = (sz1z2, 0): the column for z^(a,0) is (s z1 z2)^a, a single monomial
    s = 1.0
    bm = BallMap([BallPoly(2, {(1, 1): s}), BallPoly(2, {})])
    space = SpaceSpec(2, 1.0)
    sec = comp_matrix(bm, space, 4)
    mons_row = list(map(tuple, grlex_monomials(2, sec.row_degree).tolist()))
    mons_col = grlex_monomials(2, 4).tolist()
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
    # a row degree below col_degree + deg(f) keeps the leading rows
    cut = mult_matrix(f, H2, 3, row_degree=3)
    assert cut.row_degree == 3 and np.array_equal(cut.rows, np.arange(4))
    assert cut.entries.tobytes() == mult_matrix(f, H2, 3).entries[:4].tobytes()
    # a negative one is refused, not read as a section with no rows
    for dim, row_degree in [(1, -1), (2, -1), (2, -2), (2, -5)]:
        with pytest.raises(ValueError, match="row_degree must be nonnegative"):
            mult_matrix(BallPoly(dim, {(1,) * dim: 0.5}), SpaceSpec(dim, 1.0), 3,
                        row_degree=row_degree)


@pytest.mark.parametrize("f", [
    DiskPoly([0.3, -0.5 + 0.25j, 0.0, 1e-3j, -2.0]),
    BallPoly(2, {(0, 0): 0.5, (1, 0): -0.25j, (0, 2): 1.5, (3, 1): 0.75 - 0.5j}),
], ids=["disk", "ball"])
def test_mult_matrix_row_cut_keeps_the_leading_rows_of_the_uncut_section(
        monkeypatch, f):
    # row degrees 0, below col_degree and col_degree + deg(f) - 1; the byte
    # limit counts the uncut section, so the cut never decides admission
    dim = getattr(f, "dim", 1)
    space, col_degree = SpaceSpec(dim, 2.0), 6
    full = mult_matrix(f, space, col_degree)
    checked = []
    monkeypatch.setattr(operators, "_check_bytes",
                        lambda nbytes, what: checked.append(nbytes))
    for row_degree in (0, col_degree - 2, col_degree + f.degree() - 1):
        cut = mult_matrix(f, space, col_degree, row_degree=row_degree)
        count = math.comb(row_degree + dim, dim)
        assert (cut.col_degree, cut.row_degree) == (col_degree, row_degree)
        assert cut.rows.tolist() == list(range(count))
        assert cut.entries.tobytes() == full.entries[:count].tobytes()
        assert checked.pop() == full.entries.nbytes


@pytest.mark.parametrize("col_degree", [16, 24])
def test_mult_matrix_holds_its_entries_and_one_block_of_pairs(col_degree):
    # a dense weight through degree 3 col_degree, cut there as the inverse-
    # kernel weight is: its pairs pass _PAIR_BLOCK, so they are placed in
    # runs, each holding about 90 bytes of index and rounding values per pair
    top, rng = 3 * col_degree, np.random.default_rng(col_degree)
    exps = grlex_monomials(2, top)
    f = BallPoly._of(2, exps, rng.standard_normal(len(exps)) + 0j)
    build = lambda: mult_matrix(f, SpaceSpec(2, 2.0), col_degree, row_degree=top)
    build()  # fills the monomial norm and grlex caches off the count
    sec, peak = traced_peak(build)
    pairs = operators._PAIR_BLOCK + sec.entries.shape[1]
    assert sec.entries.nbytes < peak <= sec.entries.nbytes + 128 * pairs


def test_weighted_comp_entries_for_monomial_pair():
    # f = z, b = z^2 sends e_j to e_{2j+1}
    sec = weighted_comp_matrix(DiskPoly.identity(),
                               SelfMapDisk(DiskPoly([0.0, 0.0, 1.0])), H2, 5)
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
    cols = grlex_monomials(space.dim, col_degree).tolist()
    rows = list(map(tuple, grlex_monomials(space.dim, row_degree).tolist()))
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


def _comp_reference(b, space, col_degree, f=None):
    # oracle: the same coordinate powers, started at 1 or at the weight f,
    # placed entry by entry through a row dict into every row as sections
    # were assembled before the vectorized scatter; also the ranks of the
    # rows the images reach
    row_degree = col_degree * b.degree() + (0 if f is None else f.degree())
    cols = list(map(tuple, grlex_monomials(space.dim, col_degree).tolist()))
    rows = list(map(tuple, grlex_monomials(space.dim, row_degree).tolist()))
    row_index = {m: i for i, m in enumerate(rows)}
    norms = monomial_norms(space, row_degree)
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    zero = (0,) * space.dim
    powers = {zero: {zero: 1.0 + 0.0j} if f is None else f.terms}
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


def _assert_matches_comp_reference(sec, b, space, col_degree, f=None):
    entries, reached = _comp_reference(b, space, col_degree, f)
    assert sec.rows.dtype == np.int64 and sec.rows.tolist() == reached
    assert _dense(sec).tobytes() == entries.tobytes()


def _random_ball_poly(rng, dim, degree, count):
    mons = list(map(tuple, grlex_monomials(dim, degree).tolist()))
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_comp_matrix_matches_per_entry_reference(dim):
    rng = np.random.default_rng(dim)
    space = SpaceSpec(dim, 2.0)
    # trial 3 zeroes the last coordinate, which in dim 1 leaves a constant map
    for trial in range(3 if dim == 1 else 4):
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


@pytest.mark.parametrize("empty", [[0], [1], [0, 2]])
def test_ball_sections_skip_an_empty_coordinate_with_the_same_bytes(empty):
    # the columns an empty coordinate leads stay empty, and those of the
    # others keep their bytes, started at 1 or at a weight with -0.0 parts
    rng = np.random.default_rng(len(empty) + 3 * empty[0])
    space = SpaceSpec(3, 2.0)
    coords = [_random_ball_poly(rng, 3, 2, 3) for _ in range(3)]
    b = BallMap([BallPoly(3, {}) if i in empty else
                 (0.1 / sum(abs(v) for v in c.terms.values())) * c
                 for i, c in enumerate(coords)])
    f = BallPoly(3, {(0, 0, 0): complex(0.5, -0.0), (1, 0, 1): complex(-0.0, 0.25),
                     (0, 2, 0): -0.125})
    _assert_matches_comp_reference(comp_matrix(b, space, 4), b, space, 4)
    _assert_matches_comp_reference(weighted_comp_matrix(f, b, space, 4), b,
                                   space, 4, f)


def _plan_arrays(plan):
    # every array of a nested plan tuple
    if isinstance(plan, np.ndarray):
        return [plan]
    return [a for part in plan if isinstance(part, (tuple, np.ndarray))
            for a in _plan_arrays(part)]


def _count_plans(monkeypatch, name):
    # record the arguments each fresh plan of ``operators.name`` is built from
    calls, build = [], getattr(operators, name)
    monkeypatch.setattr(operators, name,
                        lambda *args: calls.append(args) or build(*args))
    monkeypatch.setattr(operators, "_plans", {})
    return calls


def test_comp_matrix_builds_one_plan_per_support(monkeypatch):
    # the plan depends on the exponents alone: two maps with one support, at
    # three alphas, build it once per column degree, and each section keeps
    # the bytes of the per-entry reference
    calls = _count_plans(monkeypatch, "_comp_plan")
    s = 0.25
    support = [{(1, 0): s, (0, 1): s, (2, 0): s}, {(0, 0): s, (1, 1): -s}]
    maps = [BallMap([BallPoly(2, {m: c * scale for m, c in terms.items()})
                     for terms in support]) for scale in (1.0, -0.5 + 0.25j)]
    for alpha in (1.0, 2.0, 3.5):
        space = SpaceSpec(2, alpha)
        for b in maps:
            _assert_matches_comp_reference(comp_matrix(b, space, 5), b, space, 5)
    _assert_matches_comp_reference(comp_matrix(maps[0], SpaceSpec(2, 1.0), 3),
                                   maps[0], SpaceSpec(2, 1.0), 3)
    assert [args[1] for args in calls] == [5, 3]


def test_mult_matrix_builds_one_plan_per_support(monkeypatch):
    # two weights with one support share the (term, column, rank) runs; the
    # sections keep the per-entry reference's bytes at two row degrees, the
    # second above the exact one
    calls = _count_plans(monkeypatch, "_mult_plan")
    rng = np.random.default_rng(5)
    f = _random_ball_poly(rng, 2, 4, 7)
    g = BallPoly._of(2, f.exps, rng.standard_normal(len(f.coefs)) * (1 - 2j))
    space = SpaceSpec(2, 2.0)
    for weight in (f, g, f):
        for rows in (None, 12):
            assert mult_matrix(weight, space, 6, row_degree=rows).entries.tobytes() \
                == _mult_reference(weight, space, 6, rows).tobytes()
    assert [args[2:] for args in calls] == [(6, 10), (6, 12)]


@pytest.mark.parametrize("change", ["zero", "empty"])
def test_a_changed_support_builds_its_own_plan(monkeypatch, change):
    # an exactly zero coefficient is no term, and an empty coordinate keeps
    # its columns empty: either changes the support, so the map gets its own
    # plan, and its section still matches the reference
    calls = _count_plans(monkeypatch, "_comp_plan")
    s, space = 0.2, SpaceSpec(2, 2.0)
    terms = [{(1, 0): s, (0, 1): s, (1, 1): s}, {(0, 0): s, (0, 1): -s}]
    other = [dict(terms[0]), {} if change == "empty" else dict(terms[1])]
    if change == "zero":
        other[0][(0, 1)] = 0.0
    for coords in (terms, other, terms):
        b = BallMap([BallPoly(2, t) for t in coords])
        _assert_matches_comp_reference(comp_matrix(b, space, 4), b, space, 4)
    assert len(calls) == 2 and len(operators._plans) == 2


def test_product_map_lone_terms_replay_bit_for_bit(monkeypatch):
    # each degree of br's powers holds one term, which ``_sum_terms`` passes
    # as 0.0 + c; the plan built at r = 0.75 replays every r bit for bit
    calls = _count_plans(monkeypatch, "_comp_plan")
    for r in (0.75, 0.5, 1.0, 0.3):
        b, space = br_map(r), SpaceSpec(2, 1.0 + r)
        _assert_matches_comp_reference(comp_matrix(b, space, 20), b, space, 20)
    assert len(calls) == 1
    (steps, *_), _ = next(iter(operators._plans.values()))
    assert [count for *_, count in steps] == [1] * 20


def test_ball_composition_section_stays_small():
    # the br section at r = 0.75: 61 reachable rows of 7381, 223 MB dense
    sec, peak = traced_peak(
        lambda: _bounded(comp_matrix(br_map(0.75), SpaceSpec(2, 1.0), 60)))
    assert sec.entries.shape == (61, 1891)
    assert peak < 16 * 2**20


def test_weighted_ball_composition_matches_dense_product():
    space = SpaceSpec(2, 2.0)
    comp = comp_matrix(br_map(0.5), space, 6)
    f = BallPoly(2, {(0, 0): 0.5, (1, 0): 0.25, (0, 2): -0.125j})
    sec = weighted_comp_matrix(f, br_map(0.5), space, 6)
    expect = mult_matrix(f, space, comp.row_degree).entries @ _dense(comp)
    assert np.array_equal(sec.rows, np.flatnonzero(np.any(expect != 0, axis=1)))
    assert np.allclose(_dense(sec), expect, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", range(1, 10))
def test_grlex_rank_inverts_grlex_monomials(dim):
    mons = grlex_monomials(dim, 7)
    assert np.array_equal(_grlex_rank(mons), np.arange(len(mons)))
    # any leading shape: rank a (2, n/2, dim) stack
    half = len(mons) // 2
    stack = mons[: 2 * half].reshape(2, half, dim)
    assert np.array_equal(_grlex_rank(stack),
                          np.arange(2 * half).reshape(2, half))


def test_grlex_rank_at_large_degree_matches_math_comb():
    # degree 200 in dim 9: the nine factors of C(208, 9) multiplied before
    # one division by 9! would overflow int64 (208^9 > 2^63); the exact
    # division at each step does not
    d, k = 9, 200
    first = math.comb(k - 1 + d, d)  # monomials of lower degree
    exps = np.zeros((5, d), dtype=np.int64)
    exps[0, 0] = k  # first of its degree
    exps[1, [0, 1]] = k - 1, 1  # then the one moving a unit to z2
    exps[2, [0, d - 1]] = k - 1, 1  # the last with m_1 = k - 1
    exps[3, 1] = k  # the first with m_1 = 0
    exps[4, d - 1] = k  # last of its degree
    expect = [first, first + 1, first + d - 1,
              math.comb(k + d, d) - math.comb(k + d - 2, d - 2),
              math.comb(k + d, d) - 1]
    assert _grlex_rank(exps).tolist() == expect


def test_monomial_norms_are_shared_and_read_only():
    first = monomial_norms(SpaceSpec(2, 2.5), 5)
    assert monomial_norms(SpaceSpec(2, 2.5), 5) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[:] = -1.0


def test_plans_are_shared_read_only_and_own_their_bytes(monkeypatch):
    # a replay returns the cached plan itself; its arrays are read-only and
    # own their data, so the bytes the cache counts are the bytes it holds
    monkeypatch.setattr(operators, "_plans", {})
    b = BallMap([BallPoly(2, {(1, 0): 0.3, (0, 2): 0.2j}), BallPoly(2, {(1, 1): 0.4})])
    comp_matrix(b, SpaceSpec(2, 1.0), 6)
    mult_matrix(b.coords[0], SpaceSpec(2, 1.0), 6)
    first = {key: plan for key, (plan, _) in operators._plans.items()}
    comp_matrix(b, SpaceSpec(2, 3.0), 6)
    mult_matrix(b.coords[0], SpaceSpec(2, 2.0), 6)
    assert len(first) == 2
    for key, (plan, nbytes) in operators._plans.items():
        assert plan is first[key]
        arrays = _plan_arrays(plan)
        assert all(a.base is None and not a.flags.writeable for a in arrays)
        assert nbytes == sum(a.nbytes for a in arrays) + \
            sum(len(k) for k in key if isinstance(k, bytes))
    with pytest.raises(ValueError):
        arrays[0][:] = 0


def test_plan_cache_keeps_at_most_its_budget(monkeypatch):
    # a weight whose runs pass the budget is placed run by run and not kept;
    # the plans that are kept, and their keys, stay within _PLAN_BYTES, and
    # the oldest are dropped for new ones
    small = BallPoly(2, {(1, 0): 0.5, (0, 1): 0.25})
    top = 72  # inv_kernel_mult_norm's cut at col_degree 24
    exps = grlex_monomials(2, top)
    big = BallPoly._of(2, exps, np.linspace(1.0, 2.0, len(exps)) + 0j)
    space = SpaceSpec(2, 2.0)
    build = lambda: [mult_matrix(small, space, d) for d in range(40)] + \
        [mult_matrix(big, space, 24, row_degree=top)]
    build()  # fills the monomial norm and grlex caches off the count
    monkeypatch.setattr(operators, "_plans", {})
    tracemalloc.start()
    try:
        sections = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(s.entries.nbytes + s.rows.nbytes for s in sections)
    assert not isinstance(operators._mult_plan(big.exps, 2, 24, top), tuple)
    assert len(operators._plans) == operators._PLAN_COUNT
    assert (operators._mult_plan, big.exps.tobytes(), 2, 24, top) not in operators._plans
    assert sum(n for _, n in operators._plans.values()) <= operators._PLAN_BYTES
    assert held - entries <= operators._PLAN_BYTES
    # a smaller budget evicts by bytes before the count is reached, and keeps
    # the newest plans
    monkeypatch.setattr(operators, "_PLAN_BYTES", 1 << 18)
    build()
    assert len(operators._plans) < operators._PLAN_COUNT
    assert sum(n for _, n in operators._plans.values()) <= 1 << 18
    assert (operators._mult_plan, small.exps.tobytes(), 2, 39, 40) in operators._plans


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
    # a bool or a float is not a degree, as in the CLI; numpy integers are
    for degrees in ([1.7], [True], [2.0], [np.float64(3.0)], [2, False]):
        with pytest.raises(ValueError, match="must be integers"):
            op_norm_lower(sec, trace_degrees=degrees)
    got = op_norm_lower(sec, trace_degrees=np.array([1, 4, 6]))
    assert got.trace == op_norm_lower(sec, trace_degrees=[1, 4, 6]).trace
    assert all(type(d) is int for d, _ in got.trace)


def test_wide_section_solves_on_its_nonzero_columns(monkeypatch):
    # br's section at r = 1 is 61 x 1891 with nonzero columns only at
    # z1^k, k <= 60: prefix d holds d + 1 of them, so its solve is at
    # most (d + 1) x (d + 1)
    sec = comp_matrix(br_map(1.0), SpaceSpec(2, 1.0), 60)
    degrees = list(range(0, 61, 4))
    kept = np.flatnonzero(sec.entries.any(axis=0))
    assert sec.entries.shape == (61, 1891) and kept.size == 61
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda g: shapes.append(g.shape) or eigh(g))
    bound = op_norm_lower(sec, degrees)
    monkeypatch.undo()
    assert len(shapes) == len(degrees)
    for d, shape in zip(degrees, shapes):
        assert shape[0] == shape[1] <= d + 1
    # the columns of z1^k are the columns of a dim-1 section of degree 60
    # in order, so deleting the rest by hand gives the same prefixes
    hand = SectionMatrix(H2, 60, 60, np.arange(61), sec.entries[:, kept])
    expect = op_norm_lower(hand, degrees)
    assert np.array(bound.trace).tobytes() == np.array(expect.trace).tobytes()


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
        SelfMapDisk(DiskPoly([0.2, 0.6])), SpaceSpec(1, 2.0), 24),
        None), True),
    "ball-mult": (lambda: (mult_matrix(
        BallPoly(2, {(0, 0): 0.5, (1, 0): 0.25, (0, 2): -0.125j}),
        SpaceSpec(2, 2.0), 10), None), True),
    # (s z1 z2, 0): every column with a power of z2 is zero
    "zero-columns-wide": (lambda: (comp_matrix(
        BallMap([BallPoly(2, {(1, 1): 0.5}), BallPoly(2, {})]),
        SpaceSpec(2, 1.0), 8), None), False),
    "zero-columns-tall": (lambda: (_zeroed_columns(), range(0, 21)), True),
    # a constant map: one row, wide before and after its zero columns drop
    "constant-wide": (lambda: (comp_matrix(
        BallMap([BallPoly(2, {(0, 0): 0.5}), BallPoly(2, {})]),
        SpaceSpec(2, 2.0), 8), range(0, 9)), False),
    "constant-wide-dense": (lambda: (comp_matrix(
        BallMap([BallPoly(2, {(0, 0): 0.5}), BallPoly(2, {(0, 0): 0.25j})]),
        SpaceSpec(2, 2.0), 8), range(0, 9)), False),
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
