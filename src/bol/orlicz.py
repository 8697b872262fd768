"""Luxemburg norms and integral moduli of continuity on grid functions."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceGuardError
from .grid import (GridFunction, shift_difference, shift_difference_values,
                   total_variation)
from .young import YoungFunction

SHIFT_BUDGET = 1_000_000
# table cells (rows x padded width) per batched solve; bounds the working set
_CHUNK_CELLS = 8192


@dataclass(frozen=True)
class LuxemburgResult:
    norm: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ModulusCurve:
    ts: np.ndarray
    values: np.ndarray
    shifts_evaluated: int


def _luxemburg_rows(table, weights, phi: YoungFunction):
    """Luxemburg norms of many value histograms at once.

    Row i of ``table`` holds distinct |values|, zero-padded, and the same
    row of ``weights`` their counts times the cell volume, so the modular
    of row i at lambda is sum(weights[i] * Phi(table[i] / lambda)).  Every
    row runs the scalar algorithm on its own active set: a doubling upper
    bracket from the largest value, a halving lower bracket (norm 0 once it
    falls below 1e-300), then bisection until hi - lo <= 1e-14 * hi; the
    norm is hi.  Returns (norms, iterations, residuals), one entry per row.
    """
    table = np.asarray(table, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    rows = len(table)
    norms = np.zeros(rows)
    iters = np.zeros(rows, dtype=np.int64)
    resid = np.zeros(rows)

    def modular(idx, lam):
        return (phi.eval(table[idx] / lam[:, None]) * weights[idx]).sum(axis=1)

    hi = table.max(axis=1, initial=0.0)
    live = np.flatnonzero(hi > 0.0)
    if live.size == 0:
        return norms, iters, resid
    j_hi = modular(live, hi[live])
    if not np.all(np.isfinite(j_hi)):
        raise DomainError("modular is not finite at the initial bracket; mis-scaled input")
    act = live[j_hi > 1.0]
    while act.size:
        hi[act] *= 2.0
        iters[act] += 1
        if iters[act].max() > 200:
            raise ConvergenceError("bracket growth failed in luxemburg_norm")
        act = act[modular(act, hi[act]) > 1.0]
    lo = hi / 2.0
    act = live
    while act.size:
        act = act[modular(act, lo[act]) <= 1.0]
        lo[act] /= 2.0
        iters[act] += 1
        gone = lo[act] < 1e-300
        if gone.any():
            live = np.setdiff1d(live, act[gone], assume_unique=True)
            act = act[~gone]
        if act.size and iters[act].max() > 2200:
            raise ConvergenceError("lower bracket failed in luxemburg_norm")
    act = live
    for _ in range(200):
        if not act.size:
            break
        iters[act] += 1
        mid = 0.5 * (lo[act] + hi[act])
        inside = modular(act, mid) <= 1.0
        hi[act] = np.where(inside, mid, hi[act])
        lo[act] = np.where(inside, lo[act], mid)
        act = act[~(hi[act] - lo[act] <= 1e-14 * hi[act])]
    if live.size:
        norms[live] = hi[live]
        resid[live] = np.abs(modular(live, hi[live]) - 1.0)
    return norms, iters, resid


def luxemburg_norm(f_or_values, phi: YoungFunction, cell_volume=None) -> LuxemburgResult:
    """Smallest lambda with integral of Phi(|f|/lambda) at most 1.

    Accepts a GridFunction or a raw value array plus its cell volume.
    The modular is strictly decreasing in lambda, so a doubling bracket
    plus bisection is total.  It runs on the histogram of distinct |values|.
    """
    if isinstance(f_or_values, GridFunction):
        vals = f_or_values.values
        vol = f_or_values.cell_volume
    else:
        vals = np.asarray(f_or_values, dtype=np.float64)
        vol = float(cell_volume)
    a, counts = np.unique(np.abs(vals[vals != 0.0]), return_counts=True)
    norms, iters, resid = _luxemburg_rows(a[None, :], (counts * vol)[None, :], phi)
    return LuxemburgResult(float(norms[0]), int(iters[0]), float(resid[0]))


def lattice_shifts(dim: int, max_len_cells: float, budget: int = SHIFT_BUDGET):
    """Nonzero integer vectors k with |k| <= max_len_cells, one per {k,-k} pair,
    sorted by Euclidean length."""
    m = int(math.floor(max_len_cells + 1e-12))
    if m < 1:
        return np.zeros((0, dim), dtype=np.int64)
    if (2 * m + 1) ** dim > 4 * budget:
        raise ResourceGuardError("shift enumeration too large; coarsen the grid",
                                 guard="shift_budget")
    axes = [np.arange(-m, m + 1)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    norms = np.sqrt((mesh ** 2).sum(axis=1))
    keep = (norms > 0) & (norms <= max_len_cells + 1e-12)
    mesh, norms = mesh[keep], norms[keep]
    # one representative per antipodal pair: first nonzero component positive
    first = mesh[np.arange(len(mesh)), np.argmax(mesh != 0, axis=1)]
    mesh, norms = mesh[first > 0], norms[first > 0]
    if len(mesh) > budget:
        raise ResourceGuardError("shift budget exceeded; coarsen the grid",
                                 guard="shift_budget")
    order = np.argsort(norms, kind="stable")
    return mesh[order]


class ShiftNormCache:
    """Lazy per-shift Orlicz norms of f(.+k*h)-f with a running prefix max.

    Shared between modulus queries at different t so the lattice sup is
    computed once per shift vector.  Shifts are appended in order of
    length, so ``_lens`` stays sorted.
    """

    def __init__(self, f: GridFunction, phi: YoungFunction, budget: int = SHIFT_BUDGET):
        self.f = f
        self.phi = phi
        self.budget = budget
        self._shifts = np.zeros((0, f.dim), dtype=np.int64)
        self._lens = np.zeros(0)
        self._norms = np.zeros(0)
        self._max_len = 0.0
        self._saturated = None

    def _extend(self, len_cells: float):
        if len_cells <= self._max_len:
            return
        shifts = lattice_shifts(self.f.dim, len_cells, self.budget)
        lens = np.sqrt((shifts ** 2).sum(axis=1))
        new = lens > self._max_len + 1e-12
        shifts, lens = shifts[new], lens[new]
        norms = np.empty(len(shifts))
        vol = self.f.cell_volume
        # each shift difference becomes one row of (distinct |value|, count);
        # rows are solved together, a bounded number of table cells at a time
        pending, width, start = [], 0, 0
        for i, k in enumerate(shifts):
            d = shift_difference_values(self.f.values, k)
            hist = np.unique(np.abs(d[d != 0.0]), return_counts=True)
            if pending and (len(pending) + 1) * max(width, hist[0].size) > _CHUNK_CELLS:
                norms[start:i] = _solve_histograms(pending, width, vol, self.phi)
                pending, width, start = [], 0, i
            pending.append(hist)
            width = max(width, hist[0].size)
        if pending:
            norms[start:] = _solve_histograms(pending, width, vol, self.phi)
        self._shifts = np.vstack([self._shifts, shifts])
        self._lens = np.append(self._lens, lens)
        self._norms = np.append(self._norms, norms)
        self._max_len = len_cells

    def saturated(self) -> float:
        """Shift-difference norm once the copies no longer overlap:
        the Luxemburg norm of two disjoint copies of f."""
        if self._saturated is None:
            stacked = np.stack([self.f.values, self.f.values])
            self._saturated = luxemburg_norm(
                stacked, self.phi, cell_volume=self.f.cell_volume
            ).norm
        return self._saturated

    def sup_up_to(self, t):
        """Lattice sup of the shift-difference norms over lengths <= t.

        ``t`` is a scalar or an array (e.g. all quadrature nodes); the cache
        is extended once, to the longest shift any entry needs, and a scalar
        gives a float.
        """
        ts = np.asarray(t, dtype=np.float64)
        h = self.f.spacing
        # any translation longer than the support diameter separates the
        # copies, so the sup beyond that point is the saturated norm
        cap = self.f.support_diameter() + h
        beyond = ts > cap + h
        below = ts < h
        if ts.size:
            self._extend(float(np.where(beyond, cap, np.where(below, h, ts)).max()) / h)
        # shifts of length <= t form a prefix of the length-sorted cache
        count = np.searchsorted(self._lens * h, np.where(beyond, cap, ts) + 1e-12 * h,
                                side="right")
        prefix = np.maximum.accumulate(np.append(0.0, self._norms))
        out = prefix[count]
        if beyond.any():
            out = np.where(beyond, np.maximum(out, self.saturated()), out)
        if below.any():
            axis_max = 0.0
            for axis in range(self.f.dim):
                k = np.zeros(self.f.dim, dtype=np.int64)
                k[axis] = 1
                idx = np.where((self._shifts == k).all(axis=1))[0]
                if idx.size:
                    axis_max = max(axis_max, self._norms[idx[0]])
            # documented linear under-approximation below one cell
            out = np.where(below, axis_max * (ts / h), out)
        return float(out) if ts.ndim == 0 else out

    @property
    def evaluated(self):
        return len(self._norms)


def _solve_histograms(hists, width, cell_volume, phi):
    """Luxemburg norms of (distinct |value|, count) pairs, padded to ``width``."""
    table = np.zeros((len(hists), width))
    weights = np.zeros((len(hists), width))
    for row, (vals, counts) in enumerate(hists):
        table[row, :vals.size] = vals
        weights[row, :vals.size] = counts * cell_volume
    return _luxemburg_rows(table, weights, phi)[0]


def modulus_of_continuity(f: GridFunction, phi: YoungFunction, t: float,
                          cache: ShiftNormCache = None) -> float:
    """sup over lattice translations of length <= t of the shift-difference norm."""
    if t <= 0:
        raise DomainError("modulus needs t > 0")
    if cache is None:
        cache = ShiftNormCache(f, phi)
    return cache.sup_up_to(t)


def modulus_curve(f: GridFunction, phi: YoungFunction, ts) -> ModulusCurve:
    ts = np.sort(np.asarray(ts, dtype=np.float64))
    cache = ShiftNormCache(f, phi)
    vals = cache.sup_up_to(ts)
    return ModulusCurve(ts, vals, cache.evaluated)


def _summed_area(values: np.ndarray) -> np.ndarray:
    """Table with a leading zero plane: entry j is the sum of values over [0, j)."""
    sat = np.zeros(tuple(n + 1 for n in values.shape))
    sat[(slice(1, None),) * values.ndim] = values
    for axis in range(values.ndim):
        np.cumsum(sat, axis=axis, out=sat)
    return sat


def _slab_sums(sat, lo, up, axis, width):
    """Row-wise sums over the slab of cells inside [lo, up) on the axes before
    ``axis``, in [0, width) on ``axis`` and anywhere on the axes after it,
    read from the summed-area table ``sat`` by inclusion-exclusion."""
    rest = tuple(n - 1 for n in sat.shape[axis + 1:])
    out = np.zeros(len(lo))
    for corner in itertools.product((0, 1), repeat=axis):
        idx = tuple(up[:, j] if c else lo[:, j] for j, c in enumerate(corner))
        sign = -1.0 if (axis - sum(corner)) % 2 else 1.0
        out += sign * sat[idx + (width,) + rest]
    return out


def l1_modulus(f: GridFunction, t: float, budget: int = SHIFT_BUDGET) -> float:
    """sup over lattice shifts |k| <= t/h of ||f(. + k*h) - f||_1; no bisection.

    Below one cell (t < h) the unit shifts are scaled linearly by t/h.
    Zero cells add nothing to a shift difference, so f is first trimmed to
    the bounding box of its nonzero cells, of extents n_i.  Two exact
    identities then replace the zero-padded copy per shift:

    - saturation: ||Delta_k f||_1 <= 2 ||f||_1 for every k (triangle
      inequality), with equality once |k_i| >= n_i on some axis, because
      the two copies no longer overlap.  If the shift set holds such a k,
      the sup is 2 ||f||_1 and no shift is evaluated.
    - overlap split: otherwise, with O_k the cells x where both x and x+k
      lie in the box,
      ||Delta_k f||_1 = 2 ||f||_1 - sum_O (|f(x)| + |f(x+k)|)
                        + sum_O |f(x+k) - f(x)|.
      The first two terms are the |f| mass outside the overlap box and
      outside its translate.  That mass is read for all shifts at once from
      summed-area tables of |f| (one plain, one reversed per axis) as a sum
      of disjoint slabs, so a short shift never takes a small difference
      of near-total sums.  Only the last sum is taken per shift, on
      overlap slices.
    """
    if t <= 0:
        raise DomainError("modulus needs t > 0")
    h = f.spacing
    if t < h:
        t_eff, scale = h, t / h
    else:
        t_eff, scale = t, 1.0
    shifts = lattice_shifts(f.dim, t_eff / h, budget)
    nz = np.nonzero(f.values)
    if nz[0].size == 0:
        return 0.0
    a = f.values[tuple(slice(idx.min(), idx.max() + 1) for idx in nz)]
    mag = np.abs(a)
    ext = np.array(a.shape)
    if (np.abs(shifts) >= ext).any():
        return float(2.0 * mag.sum() * f.cell_volume) * scale
    tables = [_summed_area(mag)] + [_summed_area(np.flip(mag, axis)) for axis in range(a.ndim)]
    pos, neg = np.maximum(shifts, 0), np.maximum(-shifts, 0)
    # x runs over [neg, ext - pos) and x + k over [pos, ext - neg); outside a
    # box [lo, up) lie the disjoint slabs "inside on the axes before i, below
    # lo_i or from up_i on axis i"; an upper slab is a lower one of the table
    # reversed along axis i
    outside = np.zeros(len(shifts))
    for lo, gap in ((neg, pos), (pos, neg)):
        up = ext - gap
        for axis in range(a.ndim):
            outside += _slab_sums(tables[0], lo, up, axis, lo[:, axis])
            outside += _slab_sums(tables[axis + 1], lo, up, axis, gap[:, axis])
    inside = np.fromiter(
        (np.abs(a[tuple(map(slice, lk, uk))] - a[tuple(map(slice, lx, ux))]).sum()
         for lx, ux, lk, uk in zip(neg, ext - pos, pos, ext - neg)),
        dtype=np.float64, count=len(shifts))
    return float(((outside + inside) * f.cell_volume).max()) * scale


def check_lemma_omega1(f: GridFunction, ts):
    """L1 modulus against t times the total variation, with a grid buffer."""
    tv = total_variation(f)
    h = f.spacing
    rows = []
    for t in ts:
        if t <= 0:
            raise DomainError("ts must be positive")
        lhs = l1_modulus(f, t)
        rhs = t * tv
        rows.append((t, lhs, rhs, lhs <= rhs * (1.0 + 2.0 * h / t) + 1e-15))
    return rows


def check_infima_bound(f: GridFunction, phi: YoungFunction, k):
    """Shift-difference Orlicz norm against the sup/inverse bound.

    Returns (lhs, rhs, pass).  A zero difference passes trivially.
    """
    d = shift_difference(f, k)
    l1 = float(np.abs(d.values).sum() * d.cell_volume)
    if l1 == 0.0:
        return 0.0, 0.0, True
    lhs = luxemburg_norm(d, phi).norm
    linf = float(np.abs(f.values).max())
    rhs = 2.0 * linf / float(phi.inv(2.0 * linf / l1))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-8)
