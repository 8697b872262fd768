"""Luxemburg norms and integral moduli of continuity on grid functions."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceGuardError
from .grid import (GridFunction, shift_difference, shift_difference_values,
                   total_variation)
from .young import YoungFunction

SHIFT_BUDGET = 1_000_000


@dataclass(frozen=True)
class LuxemburgResult:
    norm: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ModulusCurve:
    ts: np.ndarray
    values: np.ndarray
    shift_budget: int


def _modular(abs_vals, cell_vol, phi, lam):
    return float(phi.eval(abs_vals / lam).sum() * cell_vol)


def luxemburg_norm(f_or_values, phi: YoungFunction, cell_volume=None) -> LuxemburgResult:
    """Smallest lambda with integral of Phi(|f|/lambda) at most 1.

    Accepts a GridFunction or a raw value array plus its cell volume.
    The modular is strictly decreasing in lambda, so a doubling bracket
    plus bisection is total.
    """
    if isinstance(f_or_values, GridFunction):
        vals = f_or_values.values
        vol = f_or_values.cell_volume
    else:
        vals = np.asarray(f_or_values, dtype=np.float64)
        vol = float(cell_volume)
    a = np.abs(vals[vals != 0.0])
    if a.size == 0:
        return LuxemburgResult(0.0, 0, 0.0)
    hi = float(a.max())
    it = 0
    j_hi = _modular(a, vol, phi, hi)
    if not math.isfinite(j_hi):
        raise DomainError("modular is not finite at the initial bracket; mis-scaled input")
    while j_hi > 1.0:
        hi *= 2.0
        j_hi = _modular(a, vol, phi, hi)
        it += 1
        if it > 200:
            raise ConvergenceError("bracket growth failed in luxemburg_norm")
    lo = hi / 2.0
    while _modular(a, vol, phi, lo) <= 1.0:
        lo /= 2.0
        it += 1
        if lo < 1e-300:
            return LuxemburgResult(0.0, it, 0.0)
        if it > 2200:
            raise ConvergenceError("lower bracket failed in luxemburg_norm")
    for _ in range(200):
        it += 1
        mid = 0.5 * (lo + hi)
        if _modular(a, vol, phi, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    lam = hi
    return LuxemburgResult(lam, it, abs(_modular(a, vol, phi, lam) - 1.0))


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
    rep = np.zeros(len(mesh), dtype=bool)
    for i, k in enumerate(mesh):
        for c in k:
            if c != 0:
                rep[i] = c > 0
                break
    mesh, norms = mesh[rep], norms[rep]
    if len(mesh) > budget:
        raise ResourceGuardError("shift budget exceeded; coarsen the grid",
                                 guard="shift_budget")
    order = np.argsort(norms, kind="stable")
    return mesh[order]


class ShiftNormCache:
    """Lazy per-shift Orlicz norms of f(.+k*h)-f with a running prefix max.

    Shared between modulus queries at different t so the lattice sup is
    computed once per shift vector.
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
        for k in shifts[new]:
            d = shift_difference(self.f, k)
            self._norms = np.append(
                self._norms, luxemburg_norm(d, self.phi).norm
            )
        self._shifts = np.vstack([self._shifts, shifts[new]])
        self._lens = np.append(self._lens, lens[new])
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

    def sup_up_to(self, t: float) -> float:
        h = self.f.spacing
        # any translation longer than the support diameter separates the
        # copies, so the sup beyond that point is the saturated norm
        cap = self.f.support_diameter() + h
        if t > cap + h:
            return max(self.sup_up_to(cap), self.saturated())
        if t < h:
            self._extend(1.0)
            axis_max = 0.0
            for axis in range(self.f.dim):
                k = np.zeros(self.f.dim, dtype=np.int64)
                k[axis] = 1
                idx = np.where((self._shifts == k).all(axis=1))[0]
                if idx.size:
                    axis_max = max(axis_max, self._norms[idx[0]])
            return axis_max * (t / h)  # documented linear under-approximation
        self._extend(t / h)
        mask = self._lens * h <= t + 1e-12 * h
        return float(self._norms[mask].max()) if mask.any() else 0.0

    @property
    def evaluated(self):
        return len(self._norms)


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
    vals = np.array([cache.sup_up_to(t) for t in ts])
    return ModulusCurve(ts, vals, cache.evaluated)


def l1_modulus(f: GridFunction, t: float, budget: int = SHIFT_BUDGET) -> float:
    """sup of the L1 shift-difference norm; no bisection."""
    if t <= 0:
        raise DomainError("modulus needs t > 0")
    h = f.spacing
    if t < h:
        t_eff, scale = h, t / h
    else:
        t_eff, scale = t, 1.0
    shifts = lattice_shifts(f.dim, t_eff / h, budget)
    if len(shifts) == 0:
        return 0.0
    sums = np.empty(len(shifts))
    for i, k in enumerate(shifts):
        sums[i] = np.abs(shift_difference_values(f.values, k)).sum()
    return float((sums * f.cell_volume).max()) * scale


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
