"""Seeded corpus of piecewise-constant test functions."""

import math

import numpy as np

from .errors import DomainError, ResourceGuardError
from .grid import GridFunction

MAX_CELLS = 2 ** 21  # cells per grid, e.g. 128^3


def _check_extent(dim, n):
    """n^dim cells, compared in logs so that no huge power is formed; the
    1e-9 slack is far below the log gap between two integer cell counts."""
    if dim < 1 or n < 4:
        raise DomainError("need dim >= 1 and n >= 4")
    if dim * math.log(n) > math.log(MAX_CELLS) + 1e-9:
        raise ResourceGuardError(f"{n}^{dim} cells exceed {MAX_CELLS}", guard="corpus_cells")


def random_piecewise_constant(rng, dim: int = 2, n: int = 32, h: float = None,
                              n_pieces: int = 6, allow_negative: bool = True) -> GridFunction:
    """Sum of axis-aligned boxes with random levels on an n^dim grid."""
    _check_extent(dim, n)
    h = h if h is not None else 1.0 / n
    vals = np.zeros((n,) * dim)
    for _ in range(n_pieces):
        lo = [int(rng.integers(0, n - 1)) for _ in range(dim)]
        hi = [int(rng.integers(lo_i + 1, n)) for lo_i in lo]
        level = float(rng.uniform(0.2, 3.0))
        if allow_negative and rng.uniform() < 0.4:
            level = -level
        vals[tuple(slice(a, b) for a, b in zip(lo, hi))] += level
    if not np.any(vals):
        vals[tuple(n // 2 for _ in range(dim))] = 1.0
    return GridFunction(h, (0.0,) * dim, vals)


def stacked_rectangles(dim: int = 2, n: int = 32, h: float = None) -> GridFunction:
    """Deterministic tower of nested boxes with geometric level gaps."""
    h = h if h is not None else 1.0 / n
    vals = np.zeros((n,) * dim)
    level = 1.0
    lo, hi = 0, n
    while hi - lo >= 2:
        vals[tuple(slice(lo, hi) for _ in range(dim))] += level
        level *= 2.0
        step = max(1, (hi - lo) // 4)
        lo += step
        hi -= step
    return GridFunction(h, (0.0,) * dim, vals)


def make_corpus(seed: int = 7, dim: int = 2, n: int = 32, size: int = 12):
    """Mixed corpus: random boxes, a nested tower, and a signed checker pair."""
    _check_extent(dim, n)
    rng = np.random.default_rng(seed)
    out = [random_piecewise_constant(rng, dim=dim, n=n) for _ in range(size - 2)]
    out.append(stacked_rectangles(dim=dim, n=n))
    vals = np.zeros((n,) * dim)
    half = n // 2
    vals[(slice(0, half),) * dim] = 1.0
    vals[(slice(half, n),) * dim] = -1.0
    out.append(GridFunction(1.0 / n, (0.0,) * dim, vals))
    return out
