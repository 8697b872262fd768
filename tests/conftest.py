"""Grid balls shared by several test modules."""

import math
from dataclasses import dataclass

import numpy as np

from bol.errors import DomainError, ResourceGuardError
from bol.grid import GridFunction, total_variation, unit_ball_volume


@dataclass(frozen=True)
class Ball:
    """Grid indicator of a Euclidean ball plus its analytic companions."""

    grid: GridFunction
    dim: int
    radius: float
    volume: float
    perimeter: float


def ball_indicator(d: int, radius: float, h: float) -> Ball:
    if radius <= 0 or h <= 0:
        raise DomainError("radius and spacing must be positive")
    if radius / h > 1e4:
        raise ResourceGuardError("radius/h exceeds 1e4", guard="ball_resolution")
    m = int(math.ceil(radius / h)) + 1
    axes = [(np.arange(2 * m) + 0.5) * h - m * h for _ in range(d)]
    sq = np.zeros((2 * m,) * d)
    for axis, coord in enumerate(axes):
        shape = [1] * d
        shape[axis] = 2 * m
        sq = sq + (coord ** 2).reshape(shape)
    dist = np.sqrt(sq)
    r_eff = radius
    if np.any(np.abs(dist - radius) < 1e-12 * max(radius, 1.0)):
        r_eff = radius + h * 1e-9  # break exact boundary ties
    vals = (dist <= r_eff).astype(np.float64)
    fn = GridFunction(h, (-m * h,) * d, vals)
    vd = unit_ball_volume(d)
    return Ball(fn, d, radius, vd * radius ** d, d * vd * radius ** (d - 1))


def measured_iso_constant(n: int = 128) -> float:
    """Max of measure^(1/2) / TV over axis-aligned rectangles and
    discretized discs of radius 4, 8, 16, 32 and 48 cells, up to n cells
    per side (d = 2, unit cells).

    Squares realize the maximum (1/4) for the anisotropic TV; discs sit
    strictly below it because their l1 perimeter is 8r.
    """
    best = 0.0
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            tv = 2.0 * (a + b)  # jump count of a filled rectangle
            best = max(best, math.sqrt(a * b) / tv)
    # spot-check the rectangle TV formula against the kernel path
    probe = GridFunction(1.0, (0.0, 0.0), np.ones((3, 7)))
    assert abs(total_variation(probe) - 2.0 * (3 + 7)) <= 1e-12
    for k in (4, 8, 16, 32, 48):
        if k <= n // 2:
            ball = ball_indicator(2, float(k), 1.0)
            best = max(best, math.sqrt(float(ball.grid.values.sum())) / total_variation(ball.grid))
    return best
