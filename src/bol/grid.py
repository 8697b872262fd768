"""Compactly supported functions on uniform d-dimensional grids.

Cell-centered sampling: cell index i holds the value at
origin + (i + 1/2) * h.  The function is zero outside the box.
"""

import json
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


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
        try:
            return self.spacing ** self.dim
        except OverflowError:  # a Python float power raises past float range
            raise DomainError("cell volume spacing^dim is past float range") from None

    def support_box(self) -> np.ndarray:
        """The values trimmed to the bounding box of the nonzero cells; it
        has no cells when f is zero everywhere."""
        return self.values[tuple(slice(idx.min(), idx.max() + 1) if idx.size else slice(0)
                                 for idx in np.nonzero(self.values))]

    def support_diameter(self):
        """Euclidean diameter of the bounding box of nonzero cells."""
        ext = [n * self.spacing for n in self.support_box().shape]
        return math.sqrt(sum(e * e for e in ext))


def lp_norm(f: GridFunction, p) -> float:
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise DomainError("lp_norm needs p >= 1")
    norm = float((np.abs(f.values) ** p).sum() * f.cell_volume) ** (1.0 / p)
    if math.isfinite(norm) and (norm > 0.0 or not f.values.any()):
        return norm
    # |f|^p overflows or underflows on f's own scale: sum it on the scale
    # 2^e of the largest |f|, and put 2^e back after the root
    a = np.abs(f.values)
    e = math.frexp(a.max())[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(float((np.ldexp(a, -e) ** p).sum()) ** (1.0 / p)
                              * f.cell_volume ** (1.0 / p), e))


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
    try:
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError as exc:  # from d = 342 on
        raise DomainError(f"the unit-ball volume in dimension {d} leaves float range") from exc


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
        # one write per 1024 values in C order: few calls, and a string of
        # about 20 KB at a time in every dimension
        flat = f.values.ravel()
        for start in range(0, flat.size, 1024):
            fh.write("\n".join(map(repr, flat[start:start + 1024].tolist())) + "\n")


def load_grid_function(path: str) -> GridFunction:
    try:
        with open(path) as fh:
            header = json.loads(fh.readline())
            with warnings.catch_warnings():
                # an empty body is a count mismatch below, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                vals = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        if vals.shape[1] > 1:
            raise ValueError(f"{vals.shape[1]} values on one line")
        shape = tuple(operator.index(n) for n in header["shape"])
        spacing, origin = float(header["spacing"]), tuple(map(float, header["origin"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:  # incl. json.JSONDecodeError
        raise DomainError(f"unreadable grid file {path!r}: {exc!r}") from exc
    if vals.size != int(np.prod(shape)):
        raise DomainError("value count does not match the declared shape")
    return GridFunction(spacing, origin, vals.reshape(shape))
