"""Compactly supported functions on uniform d-dimensional grids.

Cell-centered sampling: cell index i holds the value at
origin + (i + 1/2) * h.  The function is zero outside the box.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceGuardError

MAX_CELLS_PER_AXIS = 10_000


@dataclass(frozen=True)
class GridFunction:
    spacing: float
    origin: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim < 1 or any(n < 1 for n in vals.shape):
            raise DomainError("all extents must be >= 1")
        if not self.spacing > 0.0:
            raise DomainError("spacing must be positive")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        if len(self.origin) != vals.ndim:
            raise DomainError("origin length must match dimension")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def dim(self):
        return self.values.ndim

    @property
    def shape(self):
        return self.values.shape

    @property
    def cell_volume(self):
        return self.spacing ** self.dim

    def support_diameter(self):
        """Euclidean diameter of the bounding box of nonzero cells."""
        nz = np.nonzero(self.values)
        if len(nz[0]) == 0:
            return 0.0
        ext = [(idx.max() - idx.min() + 1) * self.spacing for idx in nz]
        return math.sqrt(sum(e * e for e in ext))

    def scaled(self, c):
        return GridFunction(self.spacing, self.origin, c * self.values)


def lp_norm(f: GridFunction, p) -> float:
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise DomainError("lp_norm needs p >= 1")
    return float((np.abs(f.values) ** p).sum() * f.cell_volume) ** (1.0 / p)


def total_variation(f: GridFunction) -> float:
    """Anisotropic (l1) discrete total variation with zero padding.

    Sum over axes of |forward differences| times h^(d-1), counting the
    jumps across the box boundary.  The coarea identity over thresholds
    is exact for this scheme.
    """
    values = f.values
    d = values.ndim
    total = 0.0
    for axis in range(d):
        padded = np.concatenate(
            [values, np.zeros_like(np.take(values, [0], axis=axis))], axis=axis
        )
        jumps = np.abs(np.diff(padded, axis=axis)).sum()
        # the jump into the box at index 0 (difference against the zero outside)
        jumps += np.abs(np.take(values, [0], axis=axis)).sum()
        total += jumps
    return float(total * f.spacing ** (d - 1))


def shift(f: GridFunction, k) -> GridFunction:
    """g(x) = f(x + k*h): same cells, origin moved by -k*h."""
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (f.dim,):
        raise DomainError("shift vector length must match dimension")
    new_origin = tuple(o - int(ki) * f.spacing for o, ki in zip(f.origin, k))
    return GridFunction(f.spacing, new_origin, f.values)


def shift_difference_values(values: np.ndarray, k) -> np.ndarray:
    """Raw array of f(. + k*h) - f(.) on the union of both supports.

    ``k`` is an integer lattice vector, one entry per axis of ``values``.
    """
    shape = tuple(n + abs(int(ki)) for n, ki in zip(values.shape, k))
    out = np.zeros(shape)
    sl_f = tuple(slice(max(int(ki), 0), max(int(ki), 0) + n) for n, ki in zip(values.shape, k))
    sl_g = tuple(slice(max(-int(ki), 0), max(-int(ki), 0) + n) for n, ki in zip(values.shape, k))
    out[sl_g] = values
    out[sl_f] -= values
    return out


def shift_difference(f: GridFunction, k) -> GridFunction:
    """f(. + k*h) - f(.) on the union of both supports."""
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (f.dim,):
        raise DomainError("shift vector length must match dimension")
    origin = tuple(
        o - max(int(ki), 0) * f.spacing for o, ki in zip(f.origin, k)
    )
    return GridFunction(f.spacing, origin, shift_difference_values(f.values, k))


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


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


@dataclass(frozen=True)
class NormBundle:
    l1: float
    linf: float
    tv: float
    extra_lp: dict = field(default_factory=dict)

    def lp(self, p):
        return self.extra_lp.get(p)


def norm_bundle(f: GridFunction, ps=()) -> NormBundle:
    return NormBundle(
        l1=lp_norm(f, 1),
        linf=lp_norm(f, np.inf),
        tv=total_variation(f),
        extra_lp={p: lp_norm(f, p) for p in ps},
    )


# -- serialization: JSON header line followed by one value per line ------------

def save_grid_function(f: GridFunction, path: str) -> None:
    header = {
        "dim": f.dim,
        "shape": list(f.shape),
        "spacing": f.spacing,
        "origin": list(f.origin),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for v in f.values.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def load_grid_function(path: str) -> GridFunction:
    with open(path) as fh:
        header = json.loads(fh.readline())
        vals = np.array([float(line) for line in fh if line.strip()])
    shape = tuple(header["shape"])
    if vals.size != int(np.prod(shape)):
        raise DomainError("value count does not match the declared shape")
    return GridFunction(header["spacing"], tuple(header["origin"]), vals.reshape(shape))
