"""Luxemburg norms and integral moduli of continuity on grid functions."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceGuardError
from .grid import GridFunction, shift_difference_values
from .young import YoungFunction, illinois_log_root

SHIFT_BUDGET = 1_000_000
# cells per batched solve (rows x padded width) and per shift-sum broadcast
# (rows x band width x last extent); bounds the working set
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


def _luxemburg_rows(table, weights, phi: YoungFunction):
    """Luxemburg norms of many value histograms at once.

    Row i of ``table`` holds distinct |values|, zero-padded, and the same
    row of ``weights`` their counts times the cell volume, so the modular
    of row i at lambda is m(lambda) = sum(weights[i] * Phi(table[i] / lambda)),
    summed left to right so that zero padding adds exact zeros.  With V
    the row's largest value and W its total weight, m(lambda) <=
    W Phi(V / lambda), so the norm is at most V / inv(1/W) = V 2^c.  Each
    row walks by factors of 2 from V 2^floor(c) until its modular crosses
    1; the bracket (V 2^(k-1), V 2^k) it ends on is the one a walk from V
    finds.  The modular falls from W Phi(inf) to W Phi(0+), and a clamped
    Phi (a table) reaches both at float arguments, so a row with
    W Phi(inf) <= 1 has norm 0 without a walk, and W Phi at the smallest
    subnormal above 1 raises ``DomainError``.  A row of total weight 0, or
    whose walk reaches lambda = 0, has norm 0; a walk that reaches
    lambda = inf raises ``DomainError``.
    ``illinois_log_root`` then solves -ln m(e^u) = 0, u = ln lambda, until
    hi - lo <= 1e-14 * hi; the norm is hi, whose modular is at most 1.
    Returns (norms, iterations, residuals |m(norm) - 1|), one entry per
    row; iterations count the modular passes.
    """
    table = np.asarray(table, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    rows = len(table)
    norms = np.zeros(rows)
    iters = np.zeros(rows, dtype=np.int64)
    resid = np.zeros(rows)

    def log_modular(idx, lam):
        terms = phi.eval(table[idx] / lam[:, None]) * weights[idx]
        with np.errstate(divide="ignore"):
            return np.log(np.cumsum(terms, axis=1)[:, -1])

    top, total = table.max(axis=1, initial=0.0), weights.sum(axis=1)
    live = np.flatnonzero((top > 0.0) & (total > 0.0))
    phi_ends = phi.eval(np.array([np.finfo(np.float64).smallest_subnormal, np.inf]))
    with np.errstate(invalid="ignore"):
        if np.any(total[live] * phi_ends[0] > 1.0):
            raise DomainError("the modular stays above 1 as lambda grows; no finite norm")
        live = live[~(total[live] * phi_ends[1] <= 1.0)]
    c = -phi.log_inv(-np.log(total[live])) / math.log(2.0)
    if not np.all(np.isfinite(c)):
        raise DomainError("Luxemburg bound V / inv(1/W) is not finite; mis-scaled input")
    # V 2^floor(c), or the largest power-of-two multiple of V below overflow
    k = np.minimum(np.floor(c), 1024 - np.frexp(top[live])[1])
    lam = np.ldexp(top[live], k.astype(np.int64))
    lo, hi = np.zeros(live.size), np.full(live.size, np.inf)
    log_lo, log_hi = np.zeros(live.size), np.zeros(live.size)
    act = np.flatnonzero(lam > 0.0)
    while act.size:
        if np.any(lam[act] == np.inf):
            raise DomainError("the modular stays above 1 as lambda grows; no finite norm")
        with np.errstate(over="ignore"):  # a walk may run to lambda = inf or 0
            log_m = log_modular(live[act], lam[act])
            up = ~(log_m <= 0.0)  # a nan modular (0 * inf) counts as above 1
            i, j = act[up], act[~up]
            lo[i], log_lo[i], lam[i] = lam[i], log_m[up], 2.0 * lam[i]
            hi[j], log_hi[j], lam[j] = lam[j], log_m[~up], 0.5 * lam[j]
        iters[live[act]] += 1
        act = act[((lo[act] == 0.0) | (hi[act] == np.inf)) & (lam[act] > 0.0)]
    got = lo > 0.0
    solved = live[got]
    _, norms[solved], neg_log, steps = illinois_log_root(
        lambda idx, lam: -log_modular(solved[idx], lam),
        lo[got], hi[got], -log_lo[got], -log_hi[got], 1e-14)
    iters[solved] += steps
    resid[solved] = np.abs(np.expm1(-neg_log))
    return norms, iters, resid


def _histogram(values):
    """(distinct |value|, count) over the nonzero entries of ``values``."""
    return np.unique(np.abs(values[values != 0.0]), return_counts=True)


def _solve_histograms(hists, cell_volume, phi: YoungFunction):
    """(norms, iterations, residuals) of an iterable of (distinct |value|,
    count) histograms: the one builder of zero-padded ``_luxemburg_rows``
    tables.  Rows are solved together until one more would push rows x
    padded width past ``_CHUNK_CELLS``, so the working set stays bounded."""
    parts, pending, width = [], [], 0

    def flush():
        table = np.zeros((len(pending), width))
        weights = np.zeros((len(pending), width))
        for row, (vals, counts) in enumerate(pending):
            table[row, :vals.size] = vals
            weights[row, :vals.size] = counts * cell_volume
        parts.append(_luxemburg_rows(table, weights, phi))

    for hist in hists:
        if pending and (len(pending) + 1) * max(width, hist[0].size) > _CHUNK_CELLS:
            flush()
            pending, width = [], 0
        pending.append(hist)
        width = max(width, hist[0].size)
    if pending:
        flush()
    return tuple(map(np.concatenate, zip(*parts))) if parts else (np.zeros(0),) * 3


def _unit_scale(x):
    """(e, x / 2^e) with the largest |x| / 2^e in [1/2, 1) (e = 0 where x
    is all zero): the p-th powers of the scaled entries can neither
    overflow nor underflow on the scale of the largest one."""
    e = math.frexp(np.abs(x).max(initial=0.0))[1]
    return e, np.ldexp(x, -e)


def _lp_root(sums, e, ew, p):
    """Lp norms 2^e (sums 2^ew)^(1/p), where ``sums`` holds the p-th powers
    of values scaled by 2^-e, weighted by weights scaled by 2^-ew
    (``_unit_scale``): the one root of ``luxemburg_norm`` and
    ``ShiftNormCache`` for a power Phi.  The weights' factor 2^(ew/p) is
    2^q 2^f with ew/p = q + f, q an integer and f in [0, 1), split exactly
    in integers (p = num / den), so a weight far from 1, a subnormal cell
    volume among them, costs no precision: a root of sums 2^ew taken in
    one pow would carry the rounding of 1/p times |ln(sums 2^ew)|.  A
    norm that is not finite raises ``DomainError``."""
    num, den = float(p).as_integer_ratio()
    q, r = divmod(ew * den, num)
    with np.errstate(over="ignore"):
        # 2.0 ** f for the fraction f alone; every whole power of 2 is an ldexp
        norms = np.ldexp(sums ** (1.0 / p) * 2.0 ** (r / num), e + q)
    if not np.isfinite(norms).all():
        raise DomainError("the modular stays above 1 as lambda grows; no finite norm")
    return norms


def luxemburg_norm(f_or_values, phi: YoungFunction, cell_volume=None) -> LuxemburgResult:
    """Smallest lambda with integral of Phi(|f|/lambda) at most 1.

    Accepts a GridFunction or a raw value array plus its cell volume, and
    works on the histogram of distinct |values| x_i with weights
    w_i = count_i * cell volume.  For a power Phi, Phi(t) = t^p, the norm
    is the Lp norm (sum_i w_i x_i^p)^(1/p), in closed form: with x_i and
    w_i scaled by powers of two (``_unit_scale``), the terms are summed
    left to right and ``_lp_root`` takes the root; ``iterations`` is 0
    and ``residual`` 0.0, as no modular is evaluated.  f on cells of
    volume 2v and two disjoint copies of f on cells of volume v have the
    same weights, so the same norm to the bit.  Any other Phi has
    a decreasing modular, so a walk by factors of 2 from the bound
    V / inv(1/W) plus a bracketed log-domain root solve
    (``_luxemburg_rows``) is total; ``iterations`` counts the modular
    passes of the walk and the solve, ``residual`` is |m(norm) - 1|.
    Either raises ``DomainError`` where no finite norm exists.
    """
    if isinstance(f_or_values, GridFunction):
        vals, vol = f_or_values.values, f_or_values.cell_volume
    else:
        vals, vol = np.asarray(f_or_values, dtype=np.float64), float(cell_volume)
    hist = _histogram(vals)
    if phi.kind == "power":
        p = phi.params["p"]
        (e, x), (ew, w) = _unit_scale(hist[0]), _unit_scale(hist[1] * vol)
        terms = w * x ** p
        sums = np.add.accumulate(terms)[-1] if terms.size else 0.0
        return LuxemburgResult(float(_lp_root(sums, e, ew, p)), 0, 0.0)
    norms, iters, resid = _solve_histograms([hist], vol, phi)
    return LuxemburgResult(float(norms[0]), int(iters[0]), float(resid[0]))


def lattice_shifts(dim: int, max_len_cells: float):
    """Nonzero integer vectors k with |k| <= max_len_cells, one per {k,-k}
    pair, in lexicographic order.  The points past the centre of the
    C-order mesh [-m, m]^d are those whose first nonzero component is
    positive, in that order.  The ``shift_budget`` guard raises on a mesh
    of more than 4 ``SHIFT_BUDGET`` points before it is built, and on more
    than ``SHIFT_BUDGET`` shifts; a radius that is not finite raises
    ``DomainError``."""
    if not math.isfinite(max_len_cells):
        raise DomainError(f"the shift radius must be finite, got {max_len_cells}")
    m = int(math.floor(max_len_cells + 1e-12))
    if m < 1:
        return np.zeros((0, dim), dtype=np.int64)
    if (2 * m + 1) ** dim > 4 * SHIFT_BUDGET:
        raise ResourceGuardError("shift enumeration too large; coarsen the grid",
                                 guard="shift_budget")
    ks = np.arange(-m, m + 1)
    past = (2 * m + 1) ** dim // 2 + 1
    length = np.sqrt(sum(np.ix_(*[ks ** 2] * dim)).ravel()[past:])
    flat = np.flatnonzero(length <= max_len_cells + 1e-12) + past
    if flat.size > SHIFT_BUDGET:
        raise ResourceGuardError("shift budget exceeded; coarsen the grid",
                                 guard="shift_budget")
    return np.stack(np.unravel_index(flat, (2 * m + 1,) * dim), axis=1) - m


class ShiftNormCache:
    """Per-shift Orlicz norms of f(.+k*h)-f with a running prefix max.

    Shared between modulus queries at different t.  A shift with
    |k_i| >= n_i on some axis, n_i the extents of f's support box,
    separates the two copies, and its norm is exactly ``saturated()``.
    The first query evaluates every other shift on the box and sorts them
    by length, so the shifts of length <= t are a prefix.  For a power Phi,
    Phi(t) = t^p, the Luxemburg norm is the Lp norm, so each shift's norm
    is (S_k h^d)^(1/p) with S_k = sum |Delta_k f|^p from ``_shift_sums``,
    f and h^d scaled by powers of two (``_unit_scale``) and the root taken
    by ``_lp_root``, as in ``luxemburg_norm``: no histogram and no root
    solve, and a norm that is not finite raises.  Any other Phi solves
    the shift differences as (distinct |value|, count) histograms
    (``_solve_histograms``).  Below one cell the modulus is the
    unit-shift sup scaled by t/h (the same rule as ``l1_modulus``).
    """

    def __init__(self, f: GridFunction, phi: YoungFunction):
        self.f = f
        self.phi = phi
        self._box = f.support_box()
        self._lens = None
        self._norms = np.zeros(0)
        self._saturated = None

    def saturated(self) -> float:
        """Shift-difference norm once the copies no longer overlap: the
        Luxemburg norm of two disjoint copies of f, i.e. of f on cells of
        twice the volume."""
        if self._saturated is None:
            vol = 2.0 * self.f.cell_volume
            self._saturated = luxemburg_norm(self.f.values, self.phi, cell_volume=vol).norm
        return self._saturated

    def sup_up_to(self, t):
        """Lattice sup of the shift-difference norms over lengths <= t.

        ``t`` is a finite positive scalar or array (e.g. all quadrature
        nodes); a scalar gives a float.  The sup is the prefix max of the
        overlapping shifts, raised to ``saturated()`` once t reaches the
        shortest separating shift, min(n_i) cells.
        """
        ts = np.asarray(t, dtype=np.float64)
        if not np.all((ts > 0.0) & (ts < np.inf)):
            raise DomainError("modulus needs a finite t > 0")
        h = self.f.spacing
        t_eval, scale = np.maximum(ts, h), np.minimum(ts / h, 1.0)
        if self._lens is None:
            ext = np.array(self._box.shape)
            shifts = lattice_shifts(self.f.dim, math.sqrt(((ext - 1) ** 2).sum()))
            shifts = shifts[(np.abs(shifts) < ext).all(axis=1)]
            lens = np.sqrt((shifts ** 2).sum(axis=1))
            order = np.argsort(lens, kind="stable")
            shifts, lens = shifts[order], lens[order]
            if self.phi.kind == "power":
                p = self.phi.params["p"]
                (e, a), (ew, w) = _unit_scale(self._box), _unit_scale(self.f.cell_volume)
                self._norms = _lp_root(_shift_sums(a, shifts, p) * w, e, ew, p)
            else:
                hists = (_histogram(shift_difference_values(self._box, k)) for k in shifts)
                self._norms = _solve_histograms(hists, self.f.cell_volume, self.phi)[0]
            self._lens = lens
        count = np.searchsorted(self._lens * h, t_eval + 1e-12 * h, side="right")
        out = np.maximum.accumulate(np.append(0.0, self._norms))[count]
        separates = t_eval / h + 1e-12 >= min(self._box.shape)
        if separates.any():
            out = np.where(separates, np.maximum(out, self.saturated()), out)
        out = out * scale
        return float(out) if ts.ndim == 0 else out

    @property
    def evaluated(self):
        return len(self._norms)


# a band broadcast pays once it stands in for _BAND_SHIFTS slice pairs: a
# call holding one group of s shifts on 64-9,594 overlap cells runs
# 1.25-2.15x the slice pairs' time at s = 1, 0.93-1.06x at s = 5 and
# 0.6-1.0x at s = 9; the setup of the padded box is shared by the groups
# of a call (BENCH_shift_bands.json)
_BAND_SHIFTS = 5


def _inside_by_overlaps(a, mag, shifts, p):
    """The deficit D_k = sum_O c(a(x), a(x+k)) of ``_shift_sums`` for each
    row k of ``shifts``, summed cell by cell; ``mag`` = |a|^p and O is the
    overlap of the box and its translate.

    Shifts with the same leading components k_1..k_{d-1} share the overlap
    rows on the leading axes and form one group.  A group's band [j_0, j_1]
    of last components is one broadcast of c(a(x), a(x + j)) over those
    rows and the whole last axis, read from copies of a and |a|^p padded
    with zeros on that axis, where c(u, 0) = 0 exactly; it is summed per
    j.  The band is cut into equal pieces of at most ``_CHUNK_CELLS``
    cells.  Where that leaves fewer than ``_BAND_SHIFTS`` shifts per piece
    (few shifts, or rows of 10^4 cells), the group takes one overlap slice
    pair per shift, as three scalar sums."""
    out = np.empty(len(shifts))
    if not len(shifts):
        return out
    lead_ext, n = a.shape[:-1], a.shape[-1]
    axes = tuple(range(a.ndim - 1))
    # d ** 1.0 would copy every slice of the L1 case
    power = (lambda d: d) if p == 1.0 else (lambda d: d ** p)
    order = np.lexsort(shifts.T[::-1])
    ks = shifts[order]
    starts = (np.flatnonzero((ks[1:, :-1] != ks[:-1, :-1]).any(axis=1)) + 1).tolist()
    reach = int(np.abs(ks[:, -1]).max())

    def windows(x):
        # window w of the last axis is x(. + w - reach), 0 where that leaves the box
        padded = np.zeros(lead_ext + (n + 2 * reach,))
        padded[..., reach:reach + n] = x
        return np.lib.stride_tricks.as_strided(
            padded, lead_ext + (2 * reach + 1, n), padded.strides + padded.strides[-1:],
            writeable=False)

    win_a = win_mag = None
    for lo, hi in zip([0] + starts, starts + [len(ks)]):
        lead, js = ks[lo, :-1].tolist(), ks[lo:hi, -1]
        rows_x = tuple(slice(max(-c, 0), e - max(c, 0)) for c, e in zip(lead, lead_ext))
        rows_k = tuple(slice(max(c, 0), e - max(-c, 0)) for c, e in zip(lead, lead_ext))
        base = a[rows_x]
        j0, width = int(js[0]), int(js[-1]) - int(js[0]) + 1
        # last components per piece of at most _CHUNK_CELLS cells
        fits = _CHUNK_CELLS // base.size
        pieces = -(-width // max(fits, 1))
        if not fits or hi - lo < _BAND_SHIFTS * pieces:
            for row, j in zip(order[lo:hi].tolist(), js.tolist()):
                sk = rows_k + (slice(max(j, 0), n - max(-j, 0)),)
                sx = rows_x + (slice(max(-j, 0), n - max(j, 0)),)
                out[row] = mag[sk].sum() + mag[sx].sum() - power(np.abs(a[sk] - a[sx])).sum()
            continue
        if win_a is None:
            win_a, win_mag = windows(a), windows(mag)
        base_mag = mag[rows_x][..., None, :]
        band = np.empty(width)
        step = -(-width // pieces)
        for w0 in range(0, width, step):
            w = rows_k + (slice(j0 + reach + w0, j0 + reach + min(w0 + step, width)),)
            d = win_a[w] - base[..., None, :]
            np.abs(d, out=d)
            if p != 1.0:
                np.power(d, p, out=d)
            np.subtract(win_mag[w], d, out=d)
            d += base_mag
            band[w0:w0 + step] = d.sum(axis=axes).sum(axis=-1)
        out[order[lo:hi]] = band[js - j0]
    return out


def _fft_len(n):
    """Smallest 2^a 3^b 5^c >= n: a length the FFT transforms fast."""
    while True:
        m = n
        for q in (2, 3, 5):
            while m % q == 0:
                m //= q
        if m == 1:
            return n
        n += 1


def _inside_by_levels(a, mag, p, levels, shape):
    """The deficit D_k of ``_shift_sums`` from level sets, for every k on
    the real-FFT lengths ``shape``, read at index k mod shape: with
    ``mag`` = |a|^p and v over the nonzero ``levels`` (the distinct values
    of ``a``), D_k = sum_v corr(1_{a=v}, |v|^p + |a|^p - |a - v|^p)(k),
    where corr(u, g)(k) = sum_x u(x) g(x + k); the zero level adds
    c(0, w) = 0.  Each correlation is a product of real FFTs; the spectra
    are summed over the levels before one inverse transform."""
    axes = tuple(range(a.ndim))
    spec = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    for v in levels[levels != 0.0]:
        spec += (np.conj(np.fft.rfftn(a == v, shape, axes))
                 * np.fft.rfftn(abs(v) ** p + mag - np.abs(a - v) ** p, shape, axes))
    return np.fft.irfftn(spec, shape, axes)


def _coarea_deficit(a, mag, p, levels, shape):
    """The deficit of ``_shift_sums`` at p = 1 by the coarea formula, for
    every k on the real-FFT lengths ``shape``, read at index k mod shape:
    D_k = 2 sum_i (v_i - v_(i-1)) R_i(k), so that
    S_k = sum_x |a(x+k) - a(x)| = 2 ||a||_1 - D_k (``mag`` and ``p`` are
    unused).

    With ``levels`` v_0 < ... < v_T the distinct values of ``a`` with 0
    added, every s in the gap (v_(i-1), v_i) cuts the same threshold set
    U_i, taken compact: {a >= v_i} when v_i > 0, {a <= v_(i-1)} when
    v_i <= 0.
    |a(x+k) - a(x)| is the length of the s that separate the two values,
    so S_k = sum_i (v_i - v_(i-1)) (2 |U_i| - 2 R_i(k)), R_i the
    autocorrelation of 1_(U_i): one real FFT per set, the weighted |F_i|^2
    summed before one inverse transform."""
    axes = tuple(range(a.ndim))
    spec = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,))
    for lo, hi in zip(levels[:-1].tolist(), levels[1:].tolist()):
        part = np.fft.rfftn(a >= hi if hi > 0.0 else a <= lo, shape, axes)
        spec += (hi - lo) * (part.real ** 2 + part.imag ** 2)
    return 2.0 * np.fft.irfftn(spec, shape, axes)


# an FFT route costs its forward transforms (T = K' at p = 1, 2K' else),
# each counted on 2^d times the box, at _FFT_COST shifts of the direct
# route apiece, and is taken where that is at most the shift count.  p != 1,
# the 42 calls of besov_pc and rough_grids at seeds 101-103: 4.3-35 shifts
# per transform per 2^d on the besov_pc boxes (level route faster,
# break-even 2.1-6.0), at most 0.23 on the rough ones (direct faster); any
# value in 0.5-4 picks the faster route on all 42 (BENCH_shift_deficit.json).
# p = 1, the 69 non-saturated l1_modulus calls of corpus_bv at the same
# seeds: 6.6-268 at 16h and 64h (coarea faster, break-even 1.1-4.6), 0.4-1.0
# at 4h (routes within 0.5 ms, break-even 0.5-1.1); 2 takes the direct sums
# on every 4h call, 1.9 ms over the 68.9 ms of the faster route on each call
# (BENCH_l1_window.json)
_FFT_COST = 2


def _shift_sums(a, shifts, p):
    """S_k = sum_x |a(x+k) - a(x)|^p for each row k of ``shifts``, a zero
    outside its box and |k_i| < n_i on every axis.

    Every route takes the one identity

        S_k = 2 sum_x |a(x)|^p - D_k,   D_k = sum_x c(a(x), a(x+k)),
        c(u, w) = |u|^p + |w|^p - |w - u|^p,

    where c(u, 0) = 0, so only the overlap O of the box and its translate
    adds to the deficit D_k.  With K' the distinct nonzero values, an FFT
    route costs T = K' forward transforms at p = 1 (the coarea formula,
    ``_coarea_deficit``) and 2K' else (level sets, ``_inside_by_levels``);
    it is taken where its transforms times 2^d times ``_FFT_COST`` are at
    most the shift count, else D_k is summed directly over O
    (``_inside_by_overlaps``).  Both FFT evaluators return the whole
    correlation on the lengths _fft_len(n_i + min(n_i - 1, reach)), reach
    the largest |k_i| of ``shifts``: the correlation vanishes for
    |k_i| >= n_i, so no k of ``shifts`` meets a wrapped lag, and D_k is
    read at index k (a negative k_i wraps once, as |k_i| < L_i).  The
    difference 2 sum |a|^p - D_k carries an absolute rounding error near
    1e-15 sum |a|^p on every route, so a shift with S_k far below
    sum |a|^p (a long plateau) has a relative error above that of a direct
    sum of |a(x+k) - a(x)|^p (7.6e-14 against 4.9e-16 at p = 2.5 on a
    2,000-cell plateau); the result is clamped at 0.
    """
    mag = np.abs(a) ** p
    # the counts are unused, but a bare np.unique imports numpy.ma (~30 ms);
    # an all-zero f has an empty box, no nonzero level and no shift
    levels, _ = np.unique(np.append(a, 0.0), return_counts=True)
    transforms = (len(levels) - 1) * (1 if p == 1.0 else 2)
    if len(shifts) and transforms * 2 ** a.ndim * _FFT_COST <= len(shifts):
        reach = int(np.abs(shifts).max())
        shape = tuple(_fft_len(n + min(n - 1, reach)) for n in a.shape)
        evaluate = _coarea_deficit if p == 1.0 else _inside_by_levels
        deficit = evaluate(a, mag, p, levels, shape)[tuple(shifts.T)]
    else:
        deficit = _inside_by_overlaps(a, mag, shifts, p)
    return np.maximum(2.0 * mag.sum() - deficit, 0.0)


def l1_modulus(f: GridFunction, t: float) -> float:
    """sup over lattice shifts |k| <= t/h of ||f(. + k*h) - f||_1; no bisection.

    Below one cell (t < h) the unit shifts are scaled linearly by t/h.
    Zero cells add nothing to a shift difference, so f is first trimmed to
    its support box, of extents n_i.  ||Delta_k f||_1 <= 2 ||f||_1, with
    equality once |k_i| >= n_i on some axis, so once t/h reaches min(n_i)
    the sup is 2 ||f||_1, found without enumerating a shift.  Otherwise it
    is the largest ``_shift_sums`` at p = 1 over the half ball of
    ``lattice_shifts`` (which runs the shift budget guard), times the cell
    volume.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("modulus needs a finite t > 0")
    h = f.spacing
    t_eval, scale = max(t, h), min(t / h, 1.0)
    a = f.support_box()
    if t_eval / h + 1e-12 >= min(a.shape):
        return float(2.0 * np.abs(a).sum() * f.cell_volume) * scale
    sums = _shift_sums(a, lattice_shifts(f.dim, t_eval / h), 1.0)
    return float(sums.max() * f.cell_volume) * scale
