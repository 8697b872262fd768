import itertools
import math

import numpy as np
import pytest

from bol.errors import DomainError, ResourceGuardError
from bol.grid import (GridFunction, ball_indicator, load_grid_function,
                      lp_norm, save_grid_function, shift, shift_difference,
                      shift_difference_values, total_variation,
                      unit_ball_volume)
from bol.orlicz import l1_modulus, lattice_shifts


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


def test_shift_moves_origin():
    f = box2d(h=0.5)
    g = shift(f, [1, -2])
    assert g.origin == (-0.5, 1.0)
    assert np.array_equal(g.values, f.values)


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


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    f = GridFunction(0.125, (-1.0, 2.0), rng.uniform(-5, 5, (7, 3)))
    path = tmp_path / "f.grid"
    save_grid_function(f, str(path))
    g = load_grid_function(str(path))
    assert g.spacing == f.spacing and g.origin == f.origin
    assert np.array_equal(g.values, f.values)  # repr round-trips exactly
