import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bol.orlicz
from bol.errors import DomainError, ResourceGuardError
from bol.grid import GridFunction, lp_norm, shift_difference, total_variation
from bol.orlicz import (ShiftNormCache, _luxemburg_rows, l1_modulus, lattice_shifts,
                        luxemburg_norm)
from bol.young import (illinois_log_root, make_power_young, make_section5_young,
                       make_table_young)
from conftest import ball_indicator
from test_grid import _shift_power_sum_by_cells


def random_grid(seed, n=12, h=0.25, dim=2):
    rng = np.random.default_rng(seed)
    return GridFunction(h, (0.0,) * dim, rng.uniform(-2, 2, (n,) * dim))


def test_luxemburg_equals_p_norm_for_power_phi():
    phi = make_power_young(1.7)
    for seed in range(8):
        f = random_grid(seed)
        assert luxemburg_norm(f, phi).norm == pytest.approx(
            lp_norm(f, 1.7), rel=1e-10
        )


def test_luxemburg_indicator_closed_form():
    phi = make_power_young(1.3)
    f = GridFunction(0.2, (0.0, 0.0), np.ones((5, 4)))
    measure = 20 * 0.04
    assert luxemburg_norm(f, phi).norm == pytest.approx(
        1.0 / float(phi.inv(1.0 / measure)), rel=1e-12
    )


def test_luxemburg_zero_and_homogeneity():
    phi = make_power_young(1.3)
    z = GridFunction(1.0, (0.0,), np.zeros(5))
    assert luxemburg_norm(z, phi).norm == 0.0
    f = random_grid(11)
    one = luxemburg_norm(f, phi).norm
    two = GridFunction(f.spacing, f.origin, 2.0 * f.values)
    assert luxemburg_norm(two, phi).norm == pytest.approx(2 * one, rel=1e-10)


def test_lattice_shifts_antipodal_and_sorted():
    ks = lattice_shifts(2, 2.0)
    # lexicographic order, and each k's first nonzero component positive
    assert [tuple(k) for k in ks] == sorted(tuple(k) for k in ks)
    assert all(k[np.flatnonzero(k)[0]] > 0 for k in ks)
    seen = {tuple(k) for k in ks}
    assert all(tuple(-k) not in seen for k in ks)
    # |k| <= 2 in 2d: 12 vectors, 6 after antipodal dedupe
    assert len(ks) == 6


def test_lattice_shift_budget_guard():
    with mock.patch.object(bol.orlicz, "SHIFT_BUDGET", 100), pytest.raises(ResourceGuardError):
        lattice_shifts(2, 5000.0)


def test_modulus_monotone_and_saturates():
    phi = make_power_young(1.3)
    f = GridFunction(0.25, (0.0, 0.0), np.ones((4, 4)))
    values = ShiftNormCache(f, phi).sup_up_to(np.array([0.25, 0.5, 1.0, 2.0, 5.0]))
    assert np.all(np.diff(values) >= -1e-12)
    cache = ShiftNormCache(f, phi)
    assert values[-1] == pytest.approx(cache.saturated(), rel=1e-10)


def test_modulus_subgrid_linear_model():
    phi = make_power_young(1.3)
    f = GridFunction(0.25, (0.0, 0.0), np.ones((4, 4)))
    cache = ShiftNormCache(f, phi)
    assert cache.sup_up_to(0.125) == pytest.approx(0.5 * cache.sup_up_to(0.25))
    with pytest.raises(DomainError):
        cache.sup_up_to(0.0)


@pytest.mark.parametrize("t", [0.0, -0.1, np.array([0.5, -0.1, 1.0]), np.array([0.0]),
                               math.nan, math.inf, np.array([0.5, math.nan]),
                               np.array([math.inf, 1.0])])
def test_sup_up_to_rejects_nonpositive_t(t):
    f = GridFunction(0.25, (0.0, 0.0), np.ones((4, 4)))
    with pytest.raises(DomainError):
        ShiftNormCache(f, make_power_young(1.3)).sup_up_to(t)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sup_up_to_below_one_cell_scales_the_unit_shifts(dim):
    f = random_grid(dim, n=5, h=0.25, dim=dim)
    h = f.spacing
    cache = ShiftNormCache(f, make_power_young(1.3))
    ts = np.array([0.01, 0.1, 0.2, 0.249]) * (h / 0.25)
    unit = cache.sup_up_to(h)
    assert cache.sup_up_to(ts).tolist() == [unit * (t / h) for t in ts]
    # the unit shifts, one per axis, are the whole sup at one cell: the Lp
    # norms of their differences, summed cell by cell, and within an ulp or
    # two the root solve of luxemburg_norm
    units = np.eye(dim, dtype=np.int64)
    closed = max((_shift_power_sum_by_cells(f.values, k, 1.3) * f.cell_volume) ** (1.0 / 1.3)
                 for k in units)
    assert unit == pytest.approx(closed, rel=1e-14)
    assert unit == pytest.approx(max(luxemburg_norm(shift_difference(f, k), cache.phi).norm
                                     for k in units), rel=1e-14)


@pytest.mark.parametrize("phi", [make_power_young(1.3), make_section5_young(0.1)])
def test_saturated_is_the_norm_of_two_disjoint_copies(phi):
    f = random_grid(6, n=5, h=0.3)
    stacked = np.stack([f.values, f.values])
    reference = luxemburg_norm(stacked, phi, cell_volume=f.cell_volume).norm
    assert ShiftNormCache(f, phi).saturated() == reference


@pytest.mark.parametrize("phi", [make_power_young(1.3), make_section5_young(0.1)])
def test_separating_shift_norm_is_saturated_exactly(phi):
    # support box 3 x 4 inside a zero frame
    f = GridFunction(0.3, (0.0, 0.0), np.pad(random_grid(7, n=4, h=0.3).values[:3], 2))
    saturated = ShiftNormCache(f, phi).saturated()
    for k in ([3, 0], [0, 4], [2, -4]):
        assert luxemburg_norm(shift_difference(f, k), phi).norm == saturated


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (1, 6)])
def test_cache_solves_each_overlapping_shift_once(shape):
    values = np.pad(np.random.default_rng(len(shape)).uniform(0.5, 2.0, shape), 1)
    # the closed-form power path and the histogram path of any other Phi
    for phi in (make_power_young(1.3), make_section5_young(0.1)):
        cache = ShiftNormCache(GridFunction(0.5, (0.0,) * len(shape), values), phi)
        assert cache.evaluated == 0
        cache.sup_up_to(100.0)
        cache.sup_up_to(np.array([0.2, 1.0, 3.0]))
        # nonzero k with |k_i| < n_i on every axis, one per {k, -k} pair
        assert cache.evaluated == (math.prod(2 * n - 1 for n in shape) - 1) // 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), p=st.sampled_from([1.3, 2.5]))
def test_shift_difference_norm_is_antisymmetric(data, dim, p):
    # Delta_{-k} f(x) = -Delta_k f(x - k), so both have the same |values|
    shape = data.draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    levels = st.sampled_from([0.0, 0.0, 1.0, -2.5, 0.3]) | st.floats(-3.0, 3.0)
    values = np.array(data.draw(st.lists(levels, min_size=math.prod(shape),
                                         max_size=math.prod(shape)))).reshape(shape)
    f = GridFunction(0.5, (0.0,) * dim, values)
    k = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)))
    phi = make_power_young(p)
    assert (luxemburg_norm(shift_difference(f, k), phi).norm
            == luxemburg_norm(shift_difference(f, -k), phi).norm)


def test_l1_modulus_bound_on_random_functions():
    # omega_1(f, t) <= t * TV(f), with a buffer of two cells for the grid
    for seed in range(5):
        f = random_grid(seed, n=16)
        h, tv = f.spacing, total_variation(f)
        for t in (4 * h, 16 * h):
            assert l1_modulus(f, t) <= t * tv * (1.0 + 2.0 * h / t) + 1e-15


def test_l1_modulus_equality_for_1d_indicator():
    f = GridFunction(0.1, (0.0,), np.ones(20))
    for k in (1, 3, 7):
        t = k * 0.1
        assert l1_modulus(f, t) == pytest.approx(t * total_variation(f), abs=1e-12)


def test_l1_modulus_matches_orlicz_path_for_l1_like_phi():
    # sanity: the dedicated L1 kernel agrees with a direct shift difference
    f = random_grid(9, n=10)
    from bol.grid import shift_difference

    best = 0.0
    for k in lattice_shifts(2, 2.0):
        d = shift_difference(f, k)
        best = max(best, float(np.abs(d.values).sum()) * d.cell_volume)
    assert l1_modulus(f, 2 * f.spacing) == pytest.approx(best, rel=1e-12)


def test_infima_bound_on_ball():
    # ||Delta_k f||_Phi <= 2 ||f||_inf / inv(2 ||f||_inf / ||Delta_k f||_1)
    phi = make_power_young(1.3)
    f = ball_indicator(2, 1.0, 0.1).grid
    d = shift_difference(f, [1, 0])
    l1 = float(np.abs(d.values).sum() * d.cell_volume)
    linf = float(np.abs(f.values).max())
    lhs = luxemburg_norm(d, phi).norm
    rhs = 2.0 * linf / float(phi.inv(2.0 * linf / l1))
    assert lhs > 0 and rhs > 0 and lhs <= rhs * (1.0 + 1e-8)


def reference_row(vals, weights, phi):
    """Scalar Luxemburg bisection on one (value, weight) row, as
    luxemburg_norm ran it per shift before the row-wise solver."""
    def modular(lam):
        return float((phi.eval(vals / lam) * weights).sum())

    if not np.any(vals > 0.0):
        return 0.0, 0, 0.0
    hi = float(vals.max())
    it = 0
    j_hi = modular(hi)
    assert math.isfinite(j_hi)
    while j_hi > 1.0:
        hi *= 2.0
        j_hi = modular(hi)
        it += 1
        assert it <= 200
    lo = hi / 2.0
    while modular(lo) <= 1.0:
        lo /= 2.0
        it += 1
        if lo < 1e-300:
            return 0.0, it, 0.0
        assert it <= 2200
    for _ in range(200):
        it += 1
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return hi, it, abs(modular(hi) - 1.0)


def assert_rows_match_reference(table, weights, phi):
    # the Illinois solve stops on the same 1e-14 bracket as the bisection,
    # on the feasible side, in no more modular passes
    norms, iters, resid = _luxemburg_rows(table, weights, phi)
    for i in range(len(table)):
        norm, it, res = reference_row(table[i], weights[i], phi)
        assert norms[i] == pytest.approx(norm, rel=1e-13, abs=0.0)
        assert iters[i] <= it
        if norm == 0.0:
            assert norms[i] == 0.0 and resid[i] == 0.0
            continue
        modular = np.cumsum(phi.eval(table[i] / norms[i]) * weights[i])[-1]
        assert modular <= 1.0
        assert resid[i] == pytest.approx(1.0 - modular, rel=1e-12, abs=1e-300)


histogram_row = st.lists(
    st.tuples(st.floats(1e-6, 1e6), st.integers(1, 50)), min_size=0, max_size=6
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(histogram_row, min_size=1, max_size=5),
       vol=st.floats(1e-4, 1.0), p=st.sampled_from([1.3, 2.5]))
def test_luxemburg_rows_match_scalar_reference(rows, vol, p):
    # zero rows, single values, zero padding, and values from 1e-6 to 1e6
    # that make the upper bracket grow or the lower bracket shrink
    width = max(len(r) for r in rows)
    table = np.zeros((len(rows), width))
    weights = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, (v, c) in enumerate(row):
            table[i, j] = v
            weights[i, j] = c * vol
    assert_rows_match_reference(table, weights, make_power_young(p))


def test_luxemburg_rows_match_scalar_reference_section5():
    table = np.array([[1e-6, 0.3, 2.0], [5e5, 0.0, 0.0], [0.0, 0.0, 0.0], [7.0, 7.5, 0.0]])
    weights = np.array([[3.0, 1.0, 0.5], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0], [40.0, 2.0, 0.0]])
    assert_rows_match_reference(table, weights, make_section5_young(0.1))


@pytest.mark.parametrize("phi, table, weights", [
    # Phi(1e-150 / lambda) underflows to 0 at every bracket end
    (make_power_young(2.5), [[1e-150, 1e150], [2e-150, 0.0]], [[3.0, 0.5], [40.0, 0.0]]),
    (make_section5_young(0.1), [[1e-150, 1e150], [2e-150, 0.0]], [[3.0, 0.5], [40.0, 0.0]]),
    # a steep Phi whose whole modular underflows to 0 at hi (first row) or
    # overflows to inf at lo (second and third rows)
    (make_power_young(400.0), [[1.0], [1.0], [0.5]], [[1e300], [1e-310], [1e-305]]),
])
def test_luxemburg_rows_fall_back_where_phi_under_or_overflows(phi, table, weights):
    table, weights = np.array(table), np.array(weights)
    with np.errstate(over="ignore", under="ignore"):
        norms, iters, resid = _luxemburg_rows(table, weights, phi)
        for i in range(len(table)):
            norm, _, _ = reference_row(table[i], weights[i], phi)
            assert np.isfinite(norms[i]) and np.isfinite(resid[i])
            assert norms[i] == pytest.approx(norm, rel=1e-13, abs=0.0)
            assert np.cumsum(phi.eval(table[i] / norms[i]) * weights[i])[-1] <= 1.0


def test_luxemburg_rows_converge_far_below_the_largest_value():
    # the norm lies 400 octaves below the largest value; the walk starts
    # at the bound V / inv(1/W), here the norm itself
    norms, _, _ = _luxemburg_rows(np.array([[1e150]]), np.array([[1e-300]]), make_power_young(2.5))
    assert norms[0] == pytest.approx(1e30, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(vals=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=9),
       a=st.floats(-100.0, 100.0), b=st.floats(-100.0, 100.0), p=st.sampled_from([1.3, 2.5]))
def test_luxemburg_rows_are_scale_free(vals, a, b, p):
    # values scaled by 10^a and weights by 10^b: the walk starts next to
    # the norm, so the passes do not grow with the scale
    vals, weights = np.array(vals) * 10.0 ** a, np.full(len(vals), 10.0 ** b)
    norms, iters, _ = _luxemburg_rows(vals[None], weights[None], make_power_young(p))
    with mpmath.workdps(40):
        exact = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(v) ** p
                            for v, w in zip(vals, weights)) ** (1 / mpmath.mpf(p))
        assert norms[0] == pytest.approx(float(exact), rel=1e-13, abs=0.0)
    assert iters[0] <= 6


def test_luxemburg_norm_starts_below_an_overflowing_bound():
    # the bound V / inv(1/W) = 1e308 * 9^(1/1.3) overflows, the norm is
    # 1e308: the walk starts at the largest power-of-two multiple of V in range
    vals = np.array([1e308] + [1e-300] * 8)
    assert luxemburg_norm(vals, make_power_young(1.3), cell_volume=1.0).norm == pytest.approx(
        1e308, rel=1e-14)


def test_luxemburg_norm_of_zero_total_weight_is_zero():
    # a cell volume that underflows to 0 leaves nothing to measure
    res = luxemburg_norm(np.arange(1.0, 10.0), make_power_young(1.3), cell_volume=1e-200 ** 2)
    assert (res.norm, res.iterations, res.residual) == (0.0, 0, 0.0)


def _clamped_table(tmp_path):
    """Table Phi, constant at 1e-4 below its first knot and at 1e7 above its last."""
    path = tmp_path / "phi.csv"
    path.write_text("0.001,1e-4\n1,1\n1000,1e7\n")
    return make_table_young(str(path))


def test_luxemburg_norm_of_a_clamped_table_is_zero_without_a_walk(tmp_path):
    # W Phi(inf) = 1e-8 * 1e7 <= 1: every lambda > 0 has modular at most 1
    res = luxemburg_norm(np.ones(100), _clamped_table(tmp_path), cell_volume=1e-10)
    assert (res.norm, res.iterations, res.residual) == (0.0, 0, 0.0)


def test_luxemburg_norm_of_a_clamped_table_raises_without_a_walk(tmp_path):
    # W Phi(0+) = 1e6 * 1e-4 > 1: no lambda brings the modular down to 1
    phi = _clamped_table(tmp_path)
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return phi.eval(t)

    with pytest.raises(DomainError, match="no finite norm"):
        luxemburg_norm(np.ones(100), dataclasses.replace(phi, eval=counted), cell_volume=1e4)
    assert len(calls) == 1


def test_illinois_log_root_stays_in_its_bracket_through_non_finite_values():
    root = np.array([3.0, 1e-200, 7e250, 1.0])
    lo0, hi0 = root / 4.0, root * 4.0
    seen = []

    def fun(idx, x):
        # -inf / +inf away from the root, as an over- or underflowing modular
        seen.append((idx, x))
        with np.errstate(divide="ignore"):
            f = np.log(x / root[idx])
        return np.where(x < 0.5 * root[idx], -np.inf, np.where(x > 1.5 * root[idx], np.inf, f))

    lo, hi, f_hi, steps = illinois_log_root(fun, lo0, hi0, np.full(4, -np.inf), np.full(4, np.inf),
                                            1e-14)
    for idx, x in seen:
        assert np.all((lo0[idx] < x) & (x < hi0[idx]))
    assert np.all(hi - lo <= 1e-14 * hi)
    assert np.all((lo < root * (1 + 1e-15)) & (root * (1 - 1e-15) <= hi))
    assert np.all(f_hi >= 0.0) and np.all(np.isfinite(f_hi))
    assert steps.max() <= 8


LUX_PHIS = [make_power_young(1.3), make_power_young(2.5), make_section5_young(0.1)]
signed_values = st.lists(st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(values=signed_values, vol=st.floats(1e-4, 1.0), c=st.floats(1e-3, 1e3),
       sign=st.sampled_from([1.0, -1.0]), k=st.integers(-30, 30), phi=st.sampled_from(LUX_PHIS))
def test_luxemburg_norm_is_homogeneous(values, vol, c, sign, k, phi):
    vals = np.array(values)
    one = luxemburg_norm(vals, phi, cell_volume=vol).norm
    # a power-of-two scale scales every bracket end and every trial exactly
    assert luxemburg_norm(sign * 2.0 ** k * vals, phi, cell_volume=vol).norm == 2.0 ** k * one
    # at other scales the section5 forward map, the midpoint of a final
    # bracket a quarter of its 1e-12 stopping width wide, is off by up to
    # 1.25e-13, and the norm with it
    rel = 1e-13 if phi.kind == "power" else 5e-13
    assert luxemburg_norm(sign * c * vals, phi, cell_volume=vol).norm == pytest.approx(c * one,
                                                                                      rel=rel)


@settings(max_examples=200, deadline=None)
@given(values=signed_values, p=st.floats(1.05, 4.0),
       vol=st.floats(1e-4, 1.0) | st.floats(1e-300, 1e300)
       | st.floats(5e-324, 2.2250738585072014e-308, allow_subnormal=True))
def test_luxemburg_norm_is_the_lp_norm_for_power_phi(values, vol, p):
    # the cell volume reaches the subnormals, whose weights carry fewer bits
    with mpmath.workdps(40):
        exact = (mpmath.fsum(abs(mpmath.mpf(v)) ** p for v in values)
                 * mpmath.mpf(vol)) ** (1 / mpmath.mpf(p))
    # a subnormal norm itself carries fewer than 53 bits
    assume(exact >= np.finfo(np.float64).tiny)
    norm = luxemburg_norm(np.array(values), make_power_young(p), cell_volume=vol).norm
    assert norm == pytest.approx(float(exact), rel=1e-14, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(values=signed_values, vol=st.floats(1e-4, 1.0), k=st.integers(-900, 900),
       p=st.floats(1.05, 4.0))
def test_power_luxemburg_norm_is_exactly_homogeneous(values, vol, k, p):
    # 2^k f keeps every value and the norm normal; its values scaled by
    # their largest power of two are f's, so the norm scales exactly
    vals, phi = np.array(values), make_power_young(p)
    one = luxemburg_norm(vals, phi, cell_volume=vol).norm
    assert luxemburg_norm(np.ldexp(vals, k), phi, cell_volume=vol).norm == math.ldexp(one, k)


@pytest.mark.parametrize("values, vol", [([1e308] * 4, 1.0), ([1e308], 1e300),
                                         ([1.0, 2.0], math.inf)])
def test_power_luxemburg_norm_past_float_max_raises(values, vol):
    with pytest.raises(DomainError):
        luxemburg_norm(np.array(values), make_power_young(1.3), cell_volume=vol)


def test_power_shift_norms_past_float_max_raise():
    # |Delta_1 f| reaches 2e308 in the middle cell, and so does the shift's norm
    f = GridFunction(1.0, (0.0,), np.array([1e308, -1e308]))
    with pytest.raises(DomainError):
        ShiftNormCache(f, make_power_young(1.3)).sup_up_to(1.0)


def test_luxemburg_rows_zero_rows_and_guard():
    phi = make_power_young(1.3)
    norms, iters, resid = _luxemburg_rows(np.zeros((3, 2)), np.ones((3, 2)), phi)
    assert norms.tolist() == [0.0] * 3 and iters.tolist() == [0] * 3
    with pytest.raises(DomainError):
        _luxemburg_rows(np.array([[1.0, 2.0]]), np.array([[np.inf, 1.0]]), phi)


def old_lattice_shifts(dim, max_len_cells):
    """lattice_shifts with its former per-vector antipodal loop, in
    lexicographic order."""
    m = int(math.floor(max_len_cells + 1e-12))
    if m < 1:
        return np.zeros((0, dim), dtype=np.int64)
    axes = [np.arange(-m, m + 1)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    norms = np.sqrt((mesh ** 2).sum(axis=1))
    keep = (norms > 0) & (norms <= max_len_cells + 1e-12)
    mesh = mesh[keep]
    rep = np.zeros(len(mesh), dtype=bool)
    for i, k in enumerate(mesh):
        for c in k:
            if c != 0:
                rep[i] = c > 0
                break
    return mesh[rep]


@pytest.mark.parametrize("dim, radii", [(1, (0.5, 1.0, 7.3, 40.0)),
                                        (2, (1.0, 1.5, 5.0, 24.0)),
                                        (3, (1.0, 2.2, 6.0))])
def test_lattice_shifts_match_loop_representatives(dim, radii):
    for radius in radii:
        assert np.array_equal(lattice_shifts(dim, radius), old_lattice_shifts(dim, radius))


def test_sup_up_to_array_matches_scalar_calls():
    phi = make_power_young(1.3)
    f = random_grid(4, n=6, h=0.25)
    cap = f.support_diameter() + f.spacing
    ts = np.array([0.05, 0.2, 0.25, 0.3, 0.6, 1.0, cap, cap + 0.2, cap + 0.3, 10.0])
    batched = ShiftNormCache(f, phi).sup_up_to(ts)
    scalar = ShiftNormCache(f, phi)
    assert batched.shape == ts.shape
    for t, got in zip(ts, batched):
        want = scalar.sup_up_to(float(t))
        assert isinstance(want, float)
        assert got == want
    # and, from one cell up to the cap, against a direct sup over
    # shift-difference norms
    for t, got in zip(ts[2:7], batched[2:7]):
        best = max((luxemburg_norm(shift_difference(f, k), phi).norm
                    for k in lattice_shifts(2, t / f.spacing)), default=0.0)
        assert got == pytest.approx(best, rel=1e-15)


def test_shift_norms_do_not_depend_on_the_chunk_budget(monkeypatch):
    # only a Phi other than a power takes the histogram solve
    phi = make_section5_young(0.1)
    f = random_grid(5, n=5, h=0.2)
    whole = ShiftNormCache(f, phi)
    whole.sup_up_to(1.0)
    monkeypatch.setattr(bol.orlicz, "_CHUNK_CELLS", 16)
    chunked = ShiftNormCache(f, phi)
    chunked.sup_up_to(1.0)
    assert chunked.evaluated == whole.evaluated > 10
    # a row's modular is summed left to right, so its zero padding adds
    # exact zeros and the width of the table it is solved in does not matter
    assert np.array_equal(chunked._norms, whole._norms)
