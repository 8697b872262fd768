import itertools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bol.orlicz
from bol.errors import DomainError, ResourceGuardError
from bol.grid import (GridFunction, load_grid_function, lp_norm, save_grid_function,
                      shift_difference, shift_difference_values, total_variation,
                      unit_ball_volume)
from bol.corpus import random_piecewise_constant
from bol.orlicz import (ShiftNormCache, _coarea_deficit, _fft_len, _inside_by_levels,
                        _inside_by_overlaps, _shift_sums, l1_modulus, lattice_shifts,
                        luxemburg_norm)
from bol.young import YoungFunction, make_power_young
from conftest import ball_indicator


def box2d(n=8, h=0.25, value=1.0):
    return GridFunction(h, (0.0, 0.0), np.full((n, n), value))


def test_constructor_validation():
    with pytest.raises(DomainError):
        GridFunction(0.0, (0.0,), np.ones(4))
    with pytest.raises(DomainError):
        GridFunction(1.0, (0.0, 0.0), np.ones(4))
    with pytest.raises(DomainError):
        GridFunction(1.0, (0.0,), np.array([1.0, np.inf]))


def test_values_are_write_protected():
    f = box2d()
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_rectangle_tv_oracle():
    # jumps along the whole boundary: 2(a+b) cell faces, each h long
    f = GridFunction(0.5, (0.0, 0.0), np.ones((3, 7)) * 2.0)
    assert total_variation(f) == pytest.approx(2.0 * (3 + 7) * 0.5 * 2.0)


def test_1d_indicator_tv():
    f = GridFunction(0.1, (0.0,), np.ones(10))
    assert total_variation(f) == pytest.approx(2.0)


def _at(values, idx):
    """f at a cell index, zero outside the box."""
    inside = all(0 <= i < n for i, n in zip(idx, values.shape))
    return float(values[tuple(idx)]) if inside else 0.0


def _tv_by_cells(values, h):
    """Sum over every pair of neighbouring cells of the zero-extended f."""
    total = 0.0
    ranges = [range(-1, n) for n in values.shape]
    for idx in itertools.product(*ranges):
        for axis in range(values.ndim):
            nxt = list(idx)
            nxt[axis] += 1
            total += abs(_at(values, nxt) - _at(values, idx))
    return total * h ** (values.ndim - 1)


def _shift_l1_by_cells(values, k, h):
    """L1 norm of f(. + k*h) - f(.) summed cell by cell."""
    ranges = [range(min(0, -ki), max(n, n - ki)) for n, ki in zip(values.shape, k)]
    total = 0.0
    for idx in itertools.product(*ranges):
        moved = [i + ki for i, ki in zip(idx, k)]
        total += abs(_at(values, moved) - _at(values, idx))
    return total * h ** values.ndim


def _shift_power_sum_by_cells(values, k, p):
    """sum over cells of |f(. + k) - f(.)|^p, cell by cell, no cell volume."""
    ranges = [range(min(0, -ki), max(n, n - ki)) for n, ki in zip(values.shape, k)]
    return math.fsum(abs(_at(values, [i + ki for i, ki in zip(idx, k)]) - _at(values, idx)) ** p
                     for idx in itertools.product(*ranges))


def test_tv_matches_cell_loop():
    rng = np.random.default_rng(3)
    for shape in ((40,), (13, 9), (5, 4, 6)):
        f = GridFunction(0.3, (0.0,) * len(shape), rng.uniform(-1, 1, shape))
        assert total_variation(f) == pytest.approx(_tv_by_cells(f.values, 0.3), rel=1e-12)


def test_shift_l1_matches_cell_loop():
    rng = np.random.default_rng(4)
    cases = [
        ((12, 12), [[1, 0], [0, -2], [3, 3], [-2, 1], [15, -3]]),  # last: longer than the grid
        ((20,), [[1], [-7], [25]]),
        ((4, 5, 3), [[1, 0, 0], [0, -1, 2], [5, 1, -4]]),
    ]
    for shape, ks in cases:
        v = rng.uniform(-1, 1, shape)
        for k in ks:
            fast = np.abs(shift_difference_values(v, k)).sum() * 0.5 ** v.ndim
            assert fast == pytest.approx(_shift_l1_by_cells(v, k, 0.5), rel=1e-12)
        # l1_modulus is the largest of these sums over the lattice ball
        f = GridFunction(0.5, (0.0,) * v.ndim, v)
        expect = max(_shift_l1_by_cells(v, k, 0.5) for k in lattice_shifts(v.ndim, 3.0))
        assert l1_modulus(f, 1.5) == pytest.approx(expect, rel=1e-12)


# per-dimension caps on the support extent and on t/h keep the cell loop small
_CAPS = {1: (9, 6.0), 2: (5, 3.5), 3: (4, 2.2)}


@st.composite
def bordered_grids(draw):
    """(values, spacing, t/h): a support of random extents, zeros allowed inside
    it, framed by a zero border of 0-2 cells on each side of each axis."""
    dim = draw(st.integers(1, 3))
    cap, t_cap = _CAPS[dim]
    inner = tuple(draw(st.integers(1, cap)) for _ in range(dim))
    level = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0, allow_subnormal=False)
    core = draw(arrays(np.float64, inner, elements=level))
    border = [(draw(st.integers(0, 2)), draw(st.integers(0, 2))) for _ in range(dim)]
    h = draw(st.sampled_from([1.0, 0.5, 0.1]))
    return np.pad(core, border), h, draw(st.floats(0.05, t_cap))


def _box_extents(values):
    nz = np.nonzero(values)
    return [int(idx.max() - idx.min() + 1) for idx in nz] if nz[0].size else None


@settings(max_examples=150, deadline=None)
@given(case=bordered_grids())
@example(case=(np.zeros((3, 4)), 0.5, 2.0))            # all zero
@example(case=(np.zeros(1), 1.0, 0.3))                 # all zero, one cell
@example(case=(np.array([[0.0, 0.0], [0.0, -1.5]]), 0.5, 1.0))  # single cell
@example(case=(np.full((1, 1, 1), 2.0), 0.1, 0.4))     # single cell, t < h
@example(case=(np.pad(np.ones((2, 5)), 1), 0.5, 2.0))  # clears the support on axis 0
@example(case=(np.pad(np.arange(64.0).reshape(4, 4, 4) % 7 - 3, 1), 0.5, 2.1))  # 3-D overlap split
def test_l1_modulus_matches_cell_loop_max(case):
    values, h, t_cells = case
    f = GridFunction(h, (0.0,) * values.ndim, values)
    t = t_cells * h
    got = l1_modulus(f, t)
    shifts = lattice_shifts(values.ndim, max(t, h) / h)
    scale = min(t / h, 1.0)
    expect = max(_shift_l1_by_cells(values, k, h) for k in shifts) * scale
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
    # ||f(. + k h) - f||_1 <= 2 ||f||_1, with equality once a shift clears the support
    saturated = 2.0 * math.fsum(np.abs(values).ravel()) * h ** values.ndim * scale
    assert got <= saturated * (1.0 + 1e-12)
    ext = _box_extents(values)
    if ext is not None and (np.abs(shifts) >= ext).any():
        assert got == pytest.approx(saturated, rel=1e-12)


@pytest.mark.parametrize("shape, radius", [((9,), 8.5), ((7, 5), 4.5), ((6, 4, 7), 3.5)])
def test_l1_modulus_window_reaches_the_edge_of_its_padding(shape, radius, monkeypatch):
    # the largest radius that does not saturate, m = min(n_i) - 1 plus a
    # fraction, on boxes where every n_i + m - 1 is 5-smooth: a correlation
    # padded one cell short of n_i + m wraps onto the ball's edge.  Two
    # positive levels keep the support box the grid and T = 2 threshold
    # sets few enough for the coarea route
    values = np.random.default_rng(21).choice([0.5, 2.0], shape)
    assert np.unique(values).size == 2
    spy = mock.Mock(wraps=bol.orlicz._coarea_deficit)
    monkeypatch.setattr(bol.orlicz, "_coarea_deficit", spy)
    f = GridFunction(0.5, (0.0,) * len(shape), values)
    expect = max(_shift_l1_by_cells(values, k, 0.5) for k in lattice_shifts(len(shape), radius))
    assert l1_modulus(f, radius * 0.5) == pytest.approx(expect, rel=1e-12)
    assert spy.call_count == 1


def test_l1_modulus_of_an_all_distinct_grid_takes_the_direct_sums(monkeypatch):
    # one threshold set per distinct value would cost 144 transforms for
    # 14 shifts, so the shifts are summed directly
    values = np.random.default_rng(22).uniform(-1.0, 1.0, (12, 12))
    spy = mock.Mock(wraps=bol.orlicz._coarea_deficit)
    monkeypatch.setattr(bol.orlicz, "_coarea_deficit", spy)
    f = GridFunction(0.25, (0.0, 0.0), values)
    expect = max(_shift_l1_by_cells(values, k, 0.25) for k in lattice_shifts(2, 3.0))
    assert l1_modulus(f, 0.75) == pytest.approx(expect, rel=1e-12)
    assert spy.call_count == 0


@settings(max_examples=30, deadline=None)
@given(case=bordered_grids(), p=st.sampled_from([1.3, 2.5]))
@example(case=(np.zeros((3, 4)), 0.5, 2.0), p=1.3)            # all zero
@example(case=(np.pad(np.ones((2, 5)), 1), 0.5, 2.0), p=1.3)  # n_min = 2 on axis 0
@example(case=(np.pad(np.full((1, 1, 1), -2.0), 2), 0.1, 0.4), p=2.5)  # single cell
@example(case=(np.full(2, 2.2250738585072014e-308), 1.0, 1.0), p=1.3)  # |Delta|^p underflows
@example(case=(np.array([1e300, -1e300, 0.0, 3e299]), 0.5, 2.0), p=2.5)  # |Delta|^p overflows
@example(case=(np.array([2.0 ** 1023, 0.0, 2.0 ** 1022, 2.0 ** 1021]), 0.01, 1.0),
         p=1.3)  # 2^e of max |f| overflows
def test_sup_up_to_matches_every_lattice_shift(case, p):
    # on both sides of the shortest separating shift, min(n_i) cells, the
    # cache's sup equals a brute-force max over every lattice shift, of
    # luxemburg_norm and of the Lp norms summed cell by cell on f / 2^e,
    # max |f| / 2^e in [1/2, 1), with the root and the 2^e taken in mpmath
    values, h, _ = case
    f = GridFunction(h, (0.0,) * values.ndim, values)
    phi = make_power_young(p)
    n_min = min(_box_extents(values) or [0])
    shifts = _by_length(lattice_shifts(values.ndim, n_min + 0.5))
    norms = [luxemburg_norm(shift_difference(f, k), phi).norm for k in shifts]
    e = math.frexp(float(np.abs(values).max(initial=0.0)))[1]
    by_cells = [float((mpmath.mpf(_shift_power_sum_by_cells(np.ldexp(values, -e), k, p))
                       * f.cell_volume) ** (1 / mpmath.mpf(p)) * mpmath.mpf(2) ** e)
                for k in shifts]
    cache = ShiftNormCache(f, phi)
    for t_cells in (max(n_min - 0.5, 0.3), max(n_min, 0.7), n_min + 0.5):
        # the shifts of length <= max(t, h) are a prefix of the enumeration
        # sorted by length
        count = len(lattice_shifts(values.ndim, max(t_cells, 1.0)))
        got = cache.sup_up_to(t_cells * h)
        for reference in (norms, by_cells):
            expect = max(reference[:count], default=0.0) * min(t_cells, 1.0)
            assert got == pytest.approx(expect, rel=1e-13, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 3), t_cells=st.floats(0.05, 40.0), budget=st.integers(1, 200),
       support=st.sampled_from(["zero", "cell", "full"]))
def test_l1_modulus_guards_raise_where_the_enumeration_does(dim, t_cells, budget, support):
    # saturation comes first: once max(t, h)/h reaches the shortest side of
    # the support box the modulus is 2 ||f||_1, no shift is enumerated and
    # no guard runs; below that the guard raises where lattice_shifts does
    values = {"zero": np.zeros((3,) * dim), "cell": np.pad(np.ones((1,) * dim), 1),
              "full": np.ones((3,) * dim)}[support]
    f = GridFunction(0.5, (0.0,) * dim, values)
    t = t_cells * 0.5
    with mock.patch.object(bol.orlicz, "SHIFT_BUDGET", budget):
        for bad in (0.0, -t, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                l1_modulus(f, bad)
        if max(t_cells, 1.0) + 1e-12 >= min(f.support_box().shape):
            want = 2.0 * np.abs(values).sum() * f.cell_volume * min(t_cells, 1.0)
            assert l1_modulus(f, t) == pytest.approx(want, rel=1e-15, abs=0.0)
            return
        try:
            lattice_shifts(dim, max(t, 0.5) / 0.5)
        except ResourceGuardError:
            with pytest.raises(ResourceGuardError) as exc:
                l1_modulus(f, t)
            assert exc.value.guard == "shift_budget"
        else:
            assert l1_modulus(f, t) >= 0.0


@pytest.mark.parametrize("t", [1e3, 1e300])
def test_l1_modulus_saturates_before_the_shift_guard(t):
    # t/h is past the shift budget at 1e3 and infinite at 1e300, but t is
    # finite and reaches the box, so the modulus is 2 ||f||_1 and no guard runs
    f = GridFunction(1e-10, (0.0,), np.array([1.0, -2.0, 0.5, 3.0]))
    assert l1_modulus(f, t) == pytest.approx(2.0 * 6.5 * 1e-10, rel=1e-15, abs=0.0)


_rng = np.random.default_rng(12)
EVALUATOR_GRIDS = {
    "levels with zero cells inside, 1d": np.array([1.0, 0.0, 0.0, 2.5, 2.5, 0.0, 1.0]),
    "signed levels, 2d": _rng.choice([-2.0, -0.5, 0.0, 1.5], (6, 5)),
    "signed levels, 3d": _rng.choice([-1.0, 0.0, 1.0, 3.0], (3, 4, 3)),
    "single cell": np.array([[-1.5]]),
    "single cell, 3d": np.full((1, 1, 1), 2.0),
    "all distinct, 1d": _rng.uniform(-1.0, 1.0, 9),
    "all distinct, 2d": _rng.uniform(-2.0, 2.0, (4, 5)),
    "all distinct, 3d": _rng.uniform(-1.0, 1.0, (3, 2, 3)),
    "all zero": np.zeros((3, 4)),
    "all negative, 2d": np.random.default_rng(13).choice([-3.0, -1.25, -0.5], (5, 4)),
    "one level, 2d": np.full((4, 3), 1.75),
}


def _by_length(shifts):
    """``shifts`` in the order of ``ShiftNormCache``: stably by length."""
    return shifts[np.argsort(np.sqrt((shifts ** 2).sum(axis=1)), kind="stable")]


def _whole_padding(evaluate, a, mag, shifts, p):
    # on the 2 n_i - 1 padding every |k_i| < n_i is free of wrap
    shape = tuple(_fft_len(2 * n - 1) for n in a.shape)
    return evaluate(a, mag, p, np.unique(np.append(a, 0.0)), shape)[tuple(shifts.T)]


def _by_levels(a, mag, shifts, p):
    return _whole_padding(_inside_by_levels, a, mag, shifts, p)


def _by_coarea(a, mag, shifts, p):
    return _whole_padding(_coarea_deficit, a, mag, shifts, p)


EVALUATORS = ([(p, inside) for p in (1.0, 1.3, 2.5) for inside in (_inside_by_overlaps, _by_levels)]
              + [(1.0, _by_coarea)])


@pytest.mark.parametrize("p, inside", EVALUATORS)
@pytest.mark.parametrize("name", list(EVALUATOR_GRIDS))
def test_shift_sum_evaluators_match_cell_loops(name, p, inside):
    # every shift with |k_i| < n_i, k = 0 and both of each {k, -k} pair:
    # each evaluator gives the deficit D_k, and S_k = 2 sum |a|^p - D_k
    a = EVALUATOR_GRIDS[name]
    shifts = np.array(list(itertools.product(*(range(1 - n, n) for n in a.shape))))
    total = math.fsum(np.abs(a).ravel() ** p)
    got = 2.0 * total - inside(a, np.abs(a) ** p, shifts, p)
    for k, s in zip(shifts, got):
        want = (_shift_l1_by_cells(a, k, 1.0) if p == 1.0 else
                _shift_power_sum_by_cells(a, k, p))
        assert s == pytest.approx(want, rel=1e-12, abs=1e-14 * total)


@pytest.mark.parametrize("p, inside", EVALUATORS)
def test_shift_sum_evaluators_on_a_plateau(p, inside):
    # 2,000 cells of 1.7, every 7th 0.9: S_k is far below sum |a|^p, and the
    # absolute rounding of 2 sum |a|^p - D_k stays near 1e-15 of the total
    a = np.where(np.arange(2000) % 7 == 0, 0.9, 1.7)
    shifts = np.arange(1, 40)[:, None]
    total = math.fsum(np.abs(a) ** p)
    got = 2.0 * total - inside(a, np.abs(a) ** p, shifts, p)
    for k, s in zip(shifts, got):
        want = math.fsum(np.abs(shift_difference_values(a, k)) ** p)
        assert want < 0.3 * total
        assert s == pytest.approx(want, rel=0.0, abs=1e-14 * total)


def test_l1_shift_sums_take_one_transform_per_threshold_set(monkeypatch):
    # a signed 8 x 8 box with zero cells inside and T = 5 gaps between its
    # values with 0 added: at 6h l1_modulus takes T forward FFTs on the
    # tight lengths _fft_len(8 + 6) = 15, and the p = 1 cache takes the
    # same coarea route on the 2 n_i - 1 = 15 lengths
    f = random_piecewise_constant(np.random.default_rng(11), dim=2, n=10, n_pieces=3)
    box = f.support_box()
    sets = np.unique(np.append(box, 0.0)).size - 1
    assert box.shape == (8, 8) and (box == 0.0).any() and (box < 0.0).any() and sets == 5
    assert sets * 4 * bol.orlicz._FFT_COST <= len(lattice_shifts(2, 6.0))

    spy = mock.Mock(wraps=np.fft.rfftn)
    monkeypatch.setattr(np.fft, "rfftn", spy)
    h = f.spacing
    expect = max(_shift_l1_by_cells(box, k, h) for k in lattice_shifts(2, 6.0))
    assert l1_modulus(f, 6.0 * h) == pytest.approx(expect, rel=1e-13)
    assert [call.args[1] for call in spy.call_args_list] == [(15, 15)] * sets

    # the power preset takes p > 1, so Phi(t) = t is built directly
    spy.reset_mock()

    def identity(x):
        return np.asarray(x, dtype=np.float64)

    cache = ShiftNormCache(f, YoungFunction("power", {"p": 1.0}, identity, identity))
    cache.sup_up_to(h)
    shifts = lattice_shifts(2, math.hypot(7.0, 7.0))
    shifts = _by_length(shifts[(np.abs(shifts) < 8).all(axis=1)])
    assert sets * 4 * bol.orlicz._FFT_COST <= len(shifts)
    assert [call.args[1] for call in spy.call_args_list] == [(15, 15)] * sets
    assert cache.evaluated == len(shifts)
    for k, norm in zip(shifts, cache._norms):
        assert norm == pytest.approx(_shift_l1_by_cells(box, k, h), rel=1e-13)


@pytest.mark.parametrize("route", ["fft", "direct"])
@pytest.mark.parametrize("p", [1.0, 1.3, 2.5])
@pytest.mark.parametrize("shape, radius", [((12,), 4.5), ((6, 10), 3.2), ((4, 5, 7), 2.3)])
def test_shift_sums_on_a_ball_tighter_than_the_box(monkeypatch, shape, radius, p, route):
    # reach = floor(radius) < n_i - 1 on every axis, and every n_i + reach - 1
    # is 5-smooth: a correlation padded one cell short of n_i + reach wraps
    # a lag of the box onto the ball.  In d = 1 that lag pairs the two end
    # cells, which this draw makes nonzero and of one sign, so that the
    # p = 1 wrap does not vanish.  _FFT_COST = 0 forces an FFT route, a
    # huge one the direct sums
    a = np.random.default_rng(26).choice([-1.0, 0.0, 0.5, 2.0], shape)
    reach = int(radius)
    assert all(n - 1 > reach and _fft_len(n + reach - 1) == n + reach - 1 for n in shape)
    monkeypatch.setattr(bol.orlicz, "_FFT_COST", 0 if route == "fft" else 10 ** 9)
    spy = mock.Mock(wraps=bol.orlicz._inside_by_overlaps)
    monkeypatch.setattr(bol.orlicz, "_inside_by_overlaps", spy)
    shifts = lattice_shifts(a.ndim, radius)
    got = _shift_sums(a, shifts, p)
    assert spy.called == (route == "direct")
    total = math.fsum(np.abs(a).ravel() ** p)
    for k, s in zip(shifts, got):
        want = _shift_l1_by_cells(a, k, 1.0) if p == 1.0 else _shift_power_sum_by_cells(a, k, p)
        assert s == pytest.approx(want, rel=1e-12, abs=1e-14 * total)


def _half_ball(a, radius):
    """The lattice shifts of length <= radius, one per {k, -k} pair, that
    overlap the box: the set ``l1_modulus`` (small radius) and
    ``ShiftNormCache`` (the box diagonal) pass to the shift sums."""
    shifts = lattice_shifts(a.ndim, radius)
    return shifts[(np.abs(shifts) < a.shape).all(axis=1)]


BAND_GRIDS = {1: _rng.uniform(-2.0, 2.0, 13), 2: _rng.uniform(-2.0, 2.0, (5, 7)),
              3: _rng.uniform(-2.0, 2.0, (3, 4, 5))}


@pytest.mark.parametrize("branch", ["slices", "bands"])
@pytest.mark.parametrize("radius", [3.0, 20.0])
@pytest.mark.parametrize("p", [1.0, 1.3, 2.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inside_sums_match_cell_loops_in_both_branches(monkeypatch, dim, p, radius, branch):
    a = BAND_GRIDS[dim]
    shifts = _half_ball(a, radius)
    if dim > 1:
        # the k_1 = 0 half group, and on the ball groups of a single shift
        _, sizes = np.unique(shifts[:, :-1], axis=0, return_counts=True)
        assert (shifts[:, 0] == 0).any() and (sizes == 1).any() == (radius == 3.0)
    # no band fits a budget of one cell; with one shift per band every
    # group takes the broadcast, single shifts included
    if branch == "slices":
        monkeypatch.setattr(bol.orlicz, "_CHUNK_CELLS", 1)
    else:
        monkeypatch.setattr(bol.orlicz, "_BAND_SHIFTS", 1)
    spy = mock.Mock(wraps=np.lib.stride_tricks.as_strided)
    monkeypatch.setattr(np.lib.stride_tricks, "as_strided", spy)
    total = math.fsum(np.abs(a).ravel() ** p)
    got = 2.0 * total - _inside_by_overlaps(a, np.abs(a) ** p, shifts, p)
    assert spy.called == (branch == "bands")
    for k, s in zip(shifts, got):
        assert s == pytest.approx(_shift_power_sum_by_cells(a, k, p), rel=1e-13, abs=1e-15 * total)


def test_inside_sums_do_not_depend_on_the_chunk_budget(monkeypatch):
    # the budget moves groups between the branches and cuts bands into
    # pieces; it changes no sum beyond rounding
    a = np.random.default_rng(8).uniform(-2.0, 2.0, (16, 16))
    shifts = _half_ball(a, 30.0)
    mag = np.abs(a) ** 1.3
    whole = _inside_by_overlaps(a, mag, shifts, 1.3)
    total = math.fsum(np.abs(a).ravel() ** 1.3)
    for budget, bands in ((1, False), (128, True), (512, True), (4096, True)):
        monkeypatch.setattr(bol.orlicz, "_CHUNK_CELLS", budget)
        spy = mock.Mock(wraps=np.lib.stride_tricks.as_strided)
        with mock.patch.object(np.lib.stride_tricks, "as_strided", spy):
            got = _inside_by_overlaps(a, mag, shifts, 1.3)
        assert spy.called == bands
        assert np.all(np.abs(got - whole) <= 1e-15 * total)


@pytest.mark.parametrize("inner, t", [((9, 6), 3.0), ((9, 6), 40.0), ((4, 1), 0.2)])
def test_l1_modulus_saturates_without_enumerating(monkeypatch, inner, t):
    # floor(max(t, h)/h) reaches the smallest support extent
    values = np.pad(np.random.default_rng(3).uniform(-1.0, 1.0, inner), 2)
    f = GridFunction(0.5, (0.0, 0.0), values)

    def refuse(*args):
        raise AssertionError("a saturating call enumerates no shift")

    monkeypatch.setattr(bol.orlicz, "lattice_shifts", refuse)
    saturated = 2.0 * math.fsum(np.abs(values).ravel()) * f.cell_volume * min(t / 0.5, 1.0)
    assert l1_modulus(f, t) == pytest.approx(saturated, rel=1e-15)


def test_shift_difference_mass_and_support():
    f = GridFunction(1.0, (0.0,), np.array([0.0, 1.0, 1.0, 0.0]))
    d = shift_difference(f, [1])
    # moving an indicator of length 2 by one cell changes two cells
    assert np.abs(d.values).sum() == pytest.approx(2.0)
    assert d.shape == (5,)


def test_shift_difference_matches_manual_roll():
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, (6, 7))
    f = GridFunction(1.0, (0.0, 0.0), v)
    d = shift_difference(f, [2, -1])
    big = np.zeros((10, 9))
    big[2:8, 1:8] = v
    manual = np.roll(np.roll(big, -2, axis=0), 1, axis=1) - big
    assert np.abs(d.values).sum() == pytest.approx(np.abs(manual).sum(), rel=1e-13)


def test_lp_norms():
    f = box2d(n=4, h=0.5, value=3.0)
    assert lp_norm(f, 1) == pytest.approx(3.0 * 4.0)
    assert lp_norm(f, np.inf) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)


@pytest.mark.parametrize("values, h, p", [
    ([2.0 ** 1023, 0.0, 2.0 ** 1022, 2.0 ** 1021], 0.01, 2.0),  # |f|^2 overflows
    ([2.0 ** 1023, 0.0, 2.0 ** 1022, 2.0 ** 1021], 0.01, 1.3),
    ([1e308, 1e308, 0.0], 0.5, 1),                               # the sum overflows
    ([1e-200, 3e-201, 0.0, 7e-202], 1e-100, 2.0),                # |f|^2 h underflows
    ([1e-10, 2e-10], 1e-320, 2.0),                               # a subnormal cell
])
def test_lp_norm_past_the_float_range_of_its_powers(values, h, p):
    f = GridFunction(h, (0.0,), np.array(values))
    mpmath.mp.dps = 40
    exact = mpmath.fsum(mpmath.mpf(abs(v)) ** p for v in values) * mpmath.mpf(h)
    exact = exact ** (1 / mpmath.mpf(p))
    with np.errstate(over="ignore", under="ignore"):
        got = lp_norm(f, p)
    assert got == pytest.approx(float(exact), rel=1e-14)


def test_lp_norm_within_float_range_keeps_its_plain_sum():
    rng = np.random.default_rng(11)
    f = GridFunction(0.25, (0.0, 0.0), rng.uniform(-3, 3, (9, 7)))
    for p in (1, 2.0, 1.5):
        assert lp_norm(f, p) == float((np.abs(f.values) ** p).sum() * 0.0625) ** (1.0 / p)
    assert lp_norm(GridFunction(1e-200, (0.0,), np.zeros(3)), 2.0) == 0.0
    with np.errstate(over="ignore"):
        assert lp_norm(GridFunction(1.0, (0.0,), np.full(4, 1e308)), 1) == math.inf


def test_ball_indicator_volume_converges():
    d = 2
    exact = unit_ball_volume(d)
    for h, tol in ((0.05, 0.05), (0.02, 0.02)):
        b = ball_indicator(d, 1.0, h)
        measured = float(b.grid.values.sum()) * h ** d
        assert measured == pytest.approx(exact, rel=tol)
        assert b.volume == pytest.approx(exact)
        assert b.perimeter == pytest.approx(d * exact)


def test_ball_resolution_guard():
    with pytest.raises(ResourceGuardError) as exc:
        ball_indicator(2, 1.0, 1e-5)
    assert exc.value.guard == "ball_resolution"


def test_disc_anisotropic_perimeter_gap():
    # the l1 perimeter of the disc is 8r; the Euclidean one is 2*pi*r
    for h in (0.04, 0.02, 0.01):
        b = ball_indicator(2, 1.0, h)
        assert total_variation(b.grid) == pytest.approx(8.0, rel=0.02)
    assert 8.0 / (2.0 * math.pi) == pytest.approx(4.0 / math.pi)


def test_support_diameter():
    v = np.zeros((10, 10))
    v[2:5, 3:7] = 1.0
    f = GridFunction(0.5, (0.0, 0.0), v)
    assert f.support_diameter() == pytest.approx(math.hypot(3 * 0.5, 4 * 0.5))


def test_support_box_trims_to_the_nonzero_cells():
    v = np.zeros((10, 10, 3))
    v[2:5, 3:7, 1] = 1.0
    v[4, 3, 1] = 0.0
    box = GridFunction(0.5, (0.0,) * 3, v).support_box()
    assert np.array_equal(box, v[2:5, 3:7, 1:2])
    assert GridFunction(0.5, (0.0, 0.0), np.zeros((4, 3))).support_box().size == 0


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    f = GridFunction(0.125, (-1.0, 2.0), rng.uniform(-5, 5, (7, 3)))
    path = tmp_path / "f.grid"
    save_grid_function(f, str(path))
    g = load_grid_function(str(path))
    assert g.spacing == f.spacing and g.origin == f.origin
    assert np.array_equal(g.values, f.values)  # repr round-trips exactly
    # blank lines are skipped and CRLF line ends read as LF
    header, *lines = path.read_text().splitlines()
    path.write_bytes("\r\n".join([header, ""] + lines[:5] + [" ", ""] + lines[5:] + [""]).encode())
    g = load_grid_function(str(path))
    assert g.spacing == f.spacing and g.origin == f.origin
    assert np.array_equal(g.values, f.values)
    # CR line ends too
    path.write_bytes("\r".join([header] + lines).encode())
    assert np.array_equal(load_grid_function(str(path)).values, f.values)


# `1_0` and two values on the first line are cases of test_cli's BAD_GRID_INPUTS
@pytest.mark.parametrize("body", ["1.0\n2.0 3.0\n", "1,0\n2\n", "#1\n2\n", ""])
def test_grid_body_holds_one_plain_number_a_line(tmp_path, body):
    path = tmp_path / "f.grid"
    path.write_text('{"dim": 1, "origin": [0.0], "shape": [2], "spacing": 1.0}\n' + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body raises, with no warning
        with pytest.raises(DomainError):
            load_grid_function(str(path))


