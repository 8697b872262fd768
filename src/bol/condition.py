"""The two-integral embedding condition and its sup-over-scales verdict.

One curve, ``_condition_curve``, gives the expression over a list of
scales; ``condition_value`` reads it at one scale, ``condition_sup`` on
a log grid.  Both integrals are taken in the log domain, so section5,
whose arguments overflow float range, still integrates cleanly.  Every
form carries its breakpoints in the log domain.  Where every form of an
integrand is linear between them (power, ``powerweight``, a table and
its paired weight) a row's nodes are its kinks and its value and
verdict are exact; a form smooth between them (section5) takes 16-point
Gauss-Legendre panels whose edges are a fixed set plus the row's own
breakpoints.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, ResourceGuardError
from .young import (SECTION5_R, WeightFunction, YoungFunction,
                    make_section5_weight, make_section5_young)

NEGLIGIBLE_LOG_DROP = 45.0  # contributions e^-45 below the peak are ignored
TAIL_SLOPE_LIMIT = -0.05
MAX_SCALES = 100_000  # scales per condition_sup sweep


@dataclass(frozen=True)
class ConditionQuad:
    """Node layout of the second example bound, whose default u_mid and
    u_far also bound the panels of the condition integrals.

    The near grid is uniform on [0, u_mid]; beyond it nodes grow by a
    fixed multiplicative step up to u_far, so enlarging u_far only
    appends nodes and never moves existing ones.
    """

    u_mid: float = 60.0
    n_mid: int = 600
    u_far: float = 32768.0
    geo_step: float = 1.004

    def nodes(self):
        near = np.linspace(0.0, self.u_mid, self.n_mid)
        if self.u_mid >= self.u_far:
            return near
        # x_k = x_{k-1} * geo_step from x_0 = u_mid, multiplied in sequence,
        # up to the first x_k >= u_far, which is clipped to u_far
        n = int(math.log(self.u_far / self.u_mid) / math.log(self.geo_step)) + 2
        x = np.multiply.accumulate(np.r_[self.u_mid, np.full(n, self.geo_step)])[1:]
        x = x[: np.searchsorted(x, self.u_far) + 1]
        return np.concatenate([near, np.minimum(x, self.u_far)])


def _gauss_legendre(n):
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on the three-term recurrence of P_n from the
    Chebyshev guesses cos(pi (k - 1/4) / (n + 1/2)), k = n, ..., 1, which
    at n = 16 reaches rounding in four steps; a fifth sets the weights.
    In Python floats: a numpy kernel run at import grows the heap."""
    nodes, weights = [], []
    for k in range(n, 0, -1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(5):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
            x = x - p1 / dp
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return np.array(nodes), np.array(weights)


_QUAD = ConditionQuad()  # u_mid and u_far of the condition integrals
_GL_X, _GL_W = _gauss_legendre(16)
# panel edges of a row smooth between its breakpoints: every 7.5 up to u_mid,
# its doublings up to 30,720, then u_far; the row's breakpoints are added
_EDGES = np.array([_QUAD.u_mid * k / 8 for k in range(9)]
                  + [_QUAD.u_mid * 2.0 ** k for k in range(1, 10)] + [_QUAD.u_far])
# node values per integral in one block of _condition_curve: 16 rows of the
# section5 pair's 22 panels (BENCH_smooth_panels.json)
_BLOCK_VALUES = 5_632
_PROBE = 1024.0  # distance in u from a kinked row's last node to the node that reads its slope
_LATTICE_STEP = 2.0 ** -10  # node spacing in w of the heads with a lower limit
_LATTICE_CHUNK = 4096  # intervals per chunk of their running sum


@dataclass(frozen=True)
class ConditionValue:
    s: float
    value: float
    remainder: float
    head_diverged: bool
    tail_diverged: bool


@dataclass(frozen=True)
class ConditionReport:
    s_grid: np.ndarray
    values: np.ndarray
    D_hat: float
    argmax_s: float
    verdict: str
    head_slope: float
    tail_slope: float
    diverged_s: float = float("nan")


def _interval_terms(lo, hi, du, peaks):
    """The integral of exp of the linear interpolant of log values lo to
    hi over widths du, each scaled by e^-peak: the exact rule on one node
    interval.

    An interval with end values a, b contributes
    du * e^(max(a,b) - peak) * (1 - e^-|b-a|) / |b-a| (a short series when
    |b - a| is tiny, 0 when an end is -inf).
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        terms = np.maximum(lo, hi)
        terms -= peaks
        # x = -|b - a|, so that (1 - e^-|b-a|) / |b-a| = expm1(x) / x
        x = np.subtract(hi, lo)
        np.abs(x, out=x)
        np.copyto(x, 0.0, where=~(terms > -np.inf))
        np.negative(x, out=x)
        factor = np.expm1(x)
        factor /= x
        np.copyto(factor, 1.0 + 0.5 * x, where=x > -1e-8)
        np.exp(terms, out=terms)
        terms *= du
        terms *= factor
    return terms


def _row_integrals(lv, du, cuts, peaks):
    """The integral of exp of the piecewise-linear interpolant of each row
    of lv over its first cuts[i] nodes, given the node spacings du and
    each row's peak over those nodes: a list of floats, exact on every
    node interval (``_interval_terms``) and max-scaled.

    Each row's terms are scaled by its peak m and summed by np.sum over
    the kept prefix; the row gives e^m times that sum, 0 when m = -inf
    and inf when m is +inf or NaN.  The terms are built for all rows at
    once, up to the longest prefix.
    """
    k = max(cuts)
    terms = _interval_terms(lv[:, :k - 1], lv[:, 1:k], du[:k - 1], np.asarray(peaks)[:, None])
    with np.errstate(over="ignore"):
        return [float(np.exp(m)) * float(np.sum(row[:c - 1])) if math.isfinite(m)
                else (0.0 if m == -math.inf else math.inf)
                for row, c, m in zip(terms, cuts, peaks)]


def log_domain_integral(log_vals, u):
    """Integral over the grid u of the exponential of the piecewise-linear
    interpolant of log_vals: one row of ``_row_integrals``."""
    lv = np.asarray(log_vals, dtype=np.float64)
    return _row_integrals(lv[None, :], np.diff(u), [lv.size], [float(np.max(lv))])[0]


def _integrate_rows(lv, u, du, past_mid):
    """Integrate exp over [0, inf) of each row of lv, given on the nodes u
    with spacings du: the kernel of ``section5_second_bound``.

    A row stops after the first node past u_mid (index ``past_mid`` on)
    from which it stays NEGLIGIBLE_LOG_DROP below its peak, or at the
    last node when there is none; a NaN peak never counts as that drop.
    Returns lists (values, remainders, slopes): the log-slope over the
    last five nodes kept and the exponential tail past them, from which
    the caller judges divergence.
    """
    n = lv.shape[1]
    peaks = np.max(lv, axis=1)
    with np.errstate(invalid="ignore"):
        high = lv >= (peaks - NEGLIGIBLE_LOG_DROP)[:, None]
    # one past each row's last node at or above the drop level (n when none is)
    starts = np.maximum(n - np.argmax(high[:, ::-1], axis=1), past_mid).tolist()
    cuts, remainders, slopes = [], [], []
    with np.errstate(invalid="ignore", over="ignore"):
        for row, start in zip(lv, starts):
            cut = start + 1 if start < n else n
            span = u[cut - 1] - u[cut - 5]
            slope = float(row[cut - 1] - row[cut - 5]) / span if span > 0 else 0.0
            cuts.append(cut)
            remainders.append(float(np.exp(row[cut - 1])) / -slope if slope < 0 else math.inf)
            slopes.append(slope)
    # every node at or above the drop level is kept, the peak too
    return _row_integrals(lv, du, cuts, peaks.tolist()), remainders, slopes


def _kinked_rows(log_f, kinks):
    """(values, remainders, diverged) of the integral of exp(log_f(u)) over
    [0, inf), one per row of kinks: the breakpoints in u of that row's
    log-integrand, which is linear between them and past the last.

    A row's nodes are 0, u_mid and its kinks, clipped to [0, inf) and
    sorted, then a probe _PROBE past the last of them.  ``_interval_terms``
    is exact on every interval.  The last piece, past the last kink, has
    the slope b of the interval up to the probe, and past the probe's
    value a it adds e^a / -b.  A row diverges when b is not negative or
    one of its values is NaN; its value is then its integral over
    [0, u_mid], as on the panels, and its remainder inf.  Every
    other remainder is 0.  Each row is scaled by its peak over the nodes
    it sums, so its value depends on its own kinks alone.
    """
    rows, k = kinks.shape
    u = np.empty((rows, k + 3))
    u[:, 0], u[:, 1] = 0.0, _QUAD.u_mid
    np.maximum(kinks, 0.0, out=u[:, 2:-1])
    u[:, :-1].sort(axis=1)
    u[:, -1] = u[:, -2] + _PROBE
    du = np.diff(u, axis=1)
    lv = np.asarray(log_f(u), dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        slopes = (lv[:, -1] - lv[:, -2]) / du[:, -1]
        peaks = np.max(lv, axis=1)
        diverged = ~(slopes < 0.0) | np.isnan(peaks)
        # a diverged row sums the intervals up to u_mid alone, scaled by its peak there
        past_mid = diverged[:, None] & (u > _QUAD.u_mid)
        if diverged.any():
            peaks[diverged] = np.max(np.where(past_mid, -np.inf, lv), axis=1)[diverged]
        terms = _interval_terms(lv[:, :-1], lv[:, 1:], du, peaks[:, None])
        terms[past_mid[:, 1:]] = 0.0
        last = np.exp(lv[:, -1] - peaks) / -slopes
        last[diverged] = 0.0
        values = np.exp(peaks) * (np.sum(terms, axis=1) + last)
    values[peaks == -np.inf] = 0.0
    values[~(peaks < np.inf)] = np.inf  # a +inf or NaN peak
    return values, np.where(diverged, np.inf, 0.0), diverged


def _panel_rows(log_f, kinks):
    """(values, remainders, diverged) of the integral of exp(log_f(u)) over
    [0, inf), one per row of kinks: the breakpoints in u of that row's
    log-integrand, which is smooth between them.

    A row's panels have the edges _EDGES and its breakpoints inside
    (0, u_far); a breakpoint outside makes an empty panel at 0, so every
    row of a block has as many.  Each panel takes the 16-point
    Gauss-Legendre rule, scaled by the row's peak over its nodes, so a
    row's value depends on its own breakpoints alone.  The log-slope b
    between the last two nodes extends the row past u_far, adding
    e^a / -b for its value a there.  A row diverges when its last node
    is not NEGLIGIBLE_LOG_DROP below its peak (or NaN) and b is not at or
    below TAIL_SLOPE_LIMIT; its value is then its integral over its panels
    in [0, u_mid] and its remainder inf.  Any other row whose b is not
    negative adds no tail and has remainder inf; every other remainder
    is 0.
    """
    rows = kinks.shape[0]
    edges = np.empty((rows, _EDGES.size + kinks.shape[1]))
    edges[:, :_EDGES.size] = _EDGES
    edges[:, _EDGES.size:] = np.where((kinks > 0.0) & (kinks < _QUAD.u_far), kinks, 0.0)
    edges.sort(axis=1)
    half = np.diff(edges, axis=1)
    half *= 0.5
    u = (edges[:, :-1, None] + half[:, :, None] * (1.0 + _GL_X)).reshape(rows, -1)
    w = (half[:, :, None] * _GL_W).reshape(rows, -1)
    lv = np.asarray(log_f(u), dtype=np.float64)
    np.copyto(lv, -np.inf, where=w == 0.0)  # the nodes of an empty panel
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        peaks = np.max(lv, axis=1)
        end, last_u = lv[:, -1], u[:, -1]
        slopes = (end - lv[:, -2]) / (last_u - u[:, -2])
        diverged = ~(end < peaks - NEGLIGIBLE_LOG_DROP) & ~(slopes <= TAIL_SLOPE_LIMIT)
        decays = slopes < 0.0
        tail = np.where(decays & ~diverged,
                        np.exp(end + slopes * (_QUAD.u_far - last_u) - peaks) / -slopes, 0.0)
        if diverged.any():
            # a diverged row sums its panels in [0, u_mid] alone, scaled by its peak there
            past_mid = diverged[:, None] & (u > _QUAD.u_mid)
            lv[past_mid] = -np.inf
            peaks[diverged] = np.max(lv[diverged], axis=1)
        lv -= peaks[:, None]
        np.exp(lv, out=lv)
        lv *= w
        values = np.exp(peaks) * (np.sum(lv, axis=1) + tail)
    values[peaks == -np.inf] = 0.0
    values[~(peaks < np.inf)] = np.inf  # a +inf or NaN peak
    return values, np.where(diverged | ~decays, np.inf, 0.0), diverged


def _condition_integral(log_f, kinks, linear):
    """Arrays (values, remainders, diverged) of the integral of exp(log_f(u))
    over [0, inf), one per row of log_f(u): each condition integral at a
    block of scales, and each end of a Besov seminorm (one row).  kinks
    holds the breakpoints in u of each row's log-integrand (one row of
    kinks per row).  Where it is ``linear`` between them the rows are
    exact (``_kinked_rows``); otherwise they take ``_panel_rows``.
    """
    return (_kinked_rows if linear else _panel_rows)(log_f, kinks)


def _kinks(phi: YoungFunction, psi: WeightFunction, d: int, ls):
    """The breakpoints in u of the first and of the second condition
    integral's integrands at the column ls of ln s, one row per scale:
    Psi's kinks k sit at u = k + ln s in the first and at u = -k - ln s
    in the second, Phi's at u = k - d ln s."""
    return psi.log_kinks + ls, np.hstack([-ls - psi.log_kinks, phi.log_kinks - d * ls])


def _first_prefactor(phi: YoungFunction, d: int, ls):
    """The log of the prefactor s^(d-1) / inv(s^d) of the first condition
    integral at ln s = ls; a column of ln s gives a column of them."""
    return (d - 1) * ls - np.asarray(phi.log_inv(d * ls))


def _first_log(psi: WeightFunction, ls):
    """The log of the integrand of the first condition integral,
    int_a^s Psi(1/t) dt/t at ln s = ls, in u = ln s - ln t, which runs
    from 0 to ln s - ln a (to infinity for the lower limit a = 0); one
    row per scale for a column of ln s."""
    return lambda u: np.asarray(psi.log_eval(u - ls))


def _second_log(phi: YoungFunction, psi: WeightFunction, d: int, ls):
    """The log of the integrand of the second condition integral,
    int_s^inf Psi(1/t) s^(d-1) / inv(t s^(d-1)) dt/t at ln s = ls, in
    u = ln t - ln s over [0, infinity); one row per scale for a column
    of ln s."""
    def log_f(u):
        lt = ls + u
        with np.errstate(over="ignore", invalid="ignore"):  # ln t near float max
            return (np.asarray(psi.log_eval(-lt)) + (d - 1) * ls
                    - np.asarray(phi.log_inv(lt + (d - 1) * ls)))
    return log_f


def _anchored_heads(psi: WeightFunction, lower, s_list):
    """The integral of e^psi(w), psi = ``psi.log_eval``, from w = -ln s up
    to the anchor w = -ln lower at each scale s of s_list: the head of the
    first condition integral with lower limit ``lower``, 0 where s <= lower.

    The nodes are -ln lower - k * _LATTICE_STEP, so they depend on lower
    alone; a scale adds the interval from its last node down to -ln s.
    Each interval follows ``_interval_terms``.  The running sum from the
    anchor goes in whole chunks of _LATTICE_CHUNK intervals, each scaled
    by its largest node value, and the sum over the chunks before a scale
    is kept as e^ref * total.  So a scale's value does not depend on the
    other scales of the call.  A head is 0 when every value it meets is
    -inf, and inf when one is +inf or NaN.
    """
    if not lower > 0.0:
        raise DomainError(f"the head lower limit must be positive, got {lower!r}")
    top = -math.log(lower)
    ws = np.array([-math.log(s) for s in s_list])
    heads = np.zeros(ws.size)
    inside = np.flatnonzero(ws < top)  # the scales s > lower
    if not inside.size:
        return heads
    ws = ws[inside]
    whole = np.floor((top - ws) / _LATTICE_STEP)  # whole intervals below the anchor
    chunk_of = (whole // _LATTICE_CHUNK).astype(np.intp)
    node_of = (whole - chunk_of * _LATTICE_CHUNK).astype(np.intp)
    end_log = np.asarray(psi.log_eval(ws), dtype=np.float64)
    steps = np.arange(_LATTICE_CHUNK + 1)
    ref, total = -math.inf, 0.0
    for j in range(int(chunk_of.max()) + 1):
        w = top - (j * _LATTICE_CHUNK + steps) * _LATTICE_STEP
        lv = np.asarray(psi.log_eval(w), dtype=np.float64)
        m = float(np.max(lv))
        m = math.inf if math.isnan(m) else m
        run = np.zeros(_LATTICE_CHUNK + 1)
        if m > -math.inf:
            np.cumsum(_interval_terms(lv[:-1], lv[1:], _LATTICE_STEP, m), out=run[1:])
        sel = np.flatnonzero(chunk_of == j)
        if sel.size:
            at = node_of[sel]
            lo, hi = end_log[sel], lv[at]
            with np.errstate(invalid="ignore", over="ignore"):
                peak = np.maximum(np.maximum(lo, hi), max(ref, m))
                val = np.exp(peak) * (total * np.exp(ref - peak) + run[at] * np.exp(m - peak)
                                      + _interval_terms(lo, hi, w[at] - ws[sel], peak))
            heads[inside[sel]] = np.where(peak > -np.inf,
                                          np.where(peak < np.inf, val, np.inf), 0.0)
        new_ref = max(ref, m)
        if new_ref > -math.inf:
            total = total * math.exp(ref - new_ref) + float(run[-1]) * math.exp(m - new_ref)
            ref = new_ref
    return heads


def _exp(x):
    """math.exp(x), inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _condition_curve(s_list, phi: YoungFunction, psi: WeightFunction, d: int, lower):
    """Arrays (values, remainders, head_diverged, tail_diverged, prefactors)
    over the scales of s_list (floats): the two-integral expression, its
    first integral from ``lower`` (None for 0), and the first prefactor,
    inf where it overflows.  A diverged head adds 0 to a value.

    The heads from ``lower`` are one ``_anchored_heads`` call.  Each other
    integral is a row per scale on its breakpoints (``_kinks``), through
    ``_condition_integral`` in blocks of as many scales as keep its rows
    within _BLOCK_VALUES node values; a row depends on its own scale
    alone.  The prefactor is math.exp per scale, as np.exp differs from
    it in the last bit on about one argument in twenty.
    """
    n = len(s_list)
    heads = None if lower is None else _anchored_heads(psi, lower, s_list)
    ls = np.array([[math.log(s)] for s in s_list])
    head_kinks, tail_kinks = _kinks(phi, psi, d, ls)
    head_linear, tail_linear = psi.log_linear, psi.log_linear and phi.log_linear
    integrated = [(tail_kinks, tail_linear)]
    if heads is None:
        integrated.append((head_kinks, head_linear))
    # nodes per row of the widest integral: the kinks, 0, u_mid and the probe,
    # or 16 per panel
    width = max(k.shape[1] + 3 if lin else _GL_X.size * (_EDGES.size - 1 + k.shape[1])
                for k, lin in integrated)
    step = max(1, _BLOCK_VALUES // width)

    def rows(log_f, kinks, linear):
        blocks = [_condition_integral(log_f(ls[i:i + step]), kinks[i:i + step], linear)
                  for i in range(0, n, step)]
        return [np.concatenate(part) for part in zip(*blocks)]

    if heads is None:
        head_val, head_rem, head_div = rows(lambda b: _first_log(psi, b), head_kinks,
                                            head_linear)
    else:
        head_val, head_rem, head_div = heads, np.zeros(n), np.zeros(n, dtype=bool)
    tail_val, tail_rem, tail_div = rows(lambda b: _second_log(phi, psi, d, b), tail_kinks,
                                        tail_linear)
    pref = np.array([_exp(x) for x in _first_prefactor(phi, d, ls)[:, 0].tolist()])
    with np.errstate(invalid="ignore", over="ignore"):
        first = pref * head_val
        values = np.where(head_div | np.isnan(first), 0.0, first) + tail_val
        remainders = np.where(np.isfinite(head_rem), pref * head_rem, np.inf) + tail_rem
    return values, remainders, head_div, tail_div, pref


def condition_value(s: float, phi: YoungFunction, psi: WeightFunction, d: int,
                    head_lower_limit: float = None,
                    raise_on_divergence: bool = True) -> ConditionValue:
    """The two-integral expression at scale s: ``_condition_curve`` at one
    scale.  ``head_lower_limit`` replaces 0 as the lower limit of the first
    integral (the compact-domain reading of the condition).  A diverged
    head raises before an overflowing prefactor, which raises before a
    diverged tail, and raises even without ``raise_on_divergence``.
    """
    if not 0.0 < s < math.inf:
        raise DomainError("condition_value needs a finite s > 0")
    (value,), (remainder,), (head_div,), (tail_div,), (pref,) = _condition_curve(
        [s], phi, psi, d, head_lower_limit)
    if head_div and raise_on_divergence:
        raise DivergenceError("first integral diverges at its head (integrand "
                              f"log-slope above {TAIL_SLOPE_LIMIT})", end="head")
    if pref == math.inf:
        raise DomainError(f"the first integral's prefactor overflows at s = {s!r}")
    if tail_div and raise_on_divergence:
        raise DivergenceError("second integral diverges at its tail (integrand log-slope "
                              f"above {TAIL_SLOPE_LIMIT})", end="tail")
    return ConditionValue(s, float(value), float(remainder), bool(head_div), bool(tail_div))


def _decade_slope(s_grid, values, which):
    ls = np.log10(s_grid)
    lv = np.log(np.maximum(values, 1e-300))
    if which == "tail":
        mask = ls >= ls[-1] - 1.0
    else:
        mask = ls <= ls[0] + 1.0
    if mask.sum() < 2:
        return 0.0
    coef = np.polyfit(np.log(s_grid[mask]), lv[mask], 1)
    return float(coef[0])


def condition_sup(phi: YoungFunction, psi: WeightFunction, d: int,
                  s_range=(1e-6, 1e12), n_points: int = 97,
                  head_lower_limit: float = None) -> ConditionReport:
    """Evaluate the condition on a log grid of scales and classify it.

    The values are ``_condition_curve`` over the grid: each value and the
    first diverged scale are those of ``condition_value`` at that scale,
    and a prefactor overflow names the first scale at which it happens.

    bounded: both end slopes at or below 0.02; unbounded: a per-scale
    divergence or a terminal slope of at least 0.05 sustained over the
    last decade; anything in between is inconclusive.
    """
    if n_points < 16:
        raise DomainError("n_points must be at least 16")
    if n_points > MAX_SCALES:
        raise ResourceGuardError(f"more than {MAX_SCALES} scales", guard="condition_scales")
    lo, hi = s_range
    if not 0 < lo < hi < math.inf:
        raise DomainError("s_range must be finite, positive and increasing")
    s_grid = np.geomspace(lo, hi, n_points)
    values, _, head_div, tail_div, pref = _condition_curve(s_grid.tolist(), phi, psi, d,
                                                           head_lower_limit)
    overflow, diverged = pref == math.inf, head_div | tail_div
    if overflow.any():
        s = float(s_grid[np.argmax(overflow)])
        raise DomainError(f"the first integral's prefactor overflows at s = {s!r}")
    diverged_s = float(s_grid[np.argmax(diverged)]) if diverged.any() else math.nan
    finite = np.isfinite(values) & (values > 0)
    d_hat = float(values[finite].max()) if finite.any() else math.inf
    # the smallest s within 1e-12 of the max, so rounding cannot pick it on a flat curve
    near_max = finite & (values >= d_hat * (1.0 - 1e-12))
    argmax = float(s_grid[near_max][0]) if finite.any() else math.nan
    head_slope = _decade_slope(s_grid[finite], values[finite], "head") if finite.sum() > 1 else 0.0
    tail_slope = _decade_slope(s_grid[finite], values[finite], "tail") if finite.sum() > 1 else 0.0
    if not math.isnan(diverged_s) or tail_slope >= 0.05 or -head_slope >= 0.05:
        verdict = "unbounded"
    elif tail_slope <= 0.02 and (-head_slope) <= 0.02:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ConditionReport(s_grid, values, d_hat, argmax, verdict,
                           head_slope, tail_slope, diverged_s)


# -- the concrete piecewise-exponential example --------------------------------

def section5_first_bound(alpha: float, s_list):
    """The first condition integral of the section5 pair in d = 2, with
    lower limit r in place of 0; each value must stay below 2.

    The heads are one ``_anchored_heads`` call with lower limit r.
    Returns rows (s, value, intermediate_bound, passes).
    """
    phi = make_section5_young(alpha)
    psi = make_section5_weight(phi)
    r = SECTION5_R
    if not all(r * (1 - 1e-12) <= s < math.inf for s in s_list):
        raise DomainError("first-bound scales must be finite and satisfy s >= r")
    rows = []
    for s, head in zip(s_list, _anchored_heads(psi, r, s_list).tolist()):
        ls = math.log(s)
        value = math.exp(_first_prefactor(phi, 2, ls)) * head
        beta = alpha / math.log(ls) if ls > 1 else 0.0
        inter = s ** (beta - 1.0) * (s ** (1.0 - beta) - r ** (1.0 - beta)) / (1.0 - beta)
        rows.append((s, value, inter, value < 2.0))
    return rows


def section5_second_bound(alpha: float, s: float, x_span: float = 1e5):
    """The second condition integral of the section5 pair in d = 2, plus
    a truncation remainder bound.

    Integrates in u = ln t - ln s over a window of length x_span; node
    positions are append-only in x_span so enlarging the window never
    perturbs the shared prefix.  It diverges unless the integrand
    decays at the truncation point (end log-slope below -1e-8) and the
    remainder past it is at most the value, and whenever the value is not
    finite.
    """
    phi = make_section5_young(alpha)
    if s < SECTION5_R * (1 - 1e-12) or not 0.0 < x_span < math.inf:
        raise DomainError("second bound needs s >= r and a finite, positive x_span")
    log_f = _second_log(phi, make_section5_weight(phi), 2, math.log(s))
    quad = ConditionQuad(u_mid=100.0, n_mid=2001, u_far=x_span, geo_step=1.002)
    u = quad.nodes()
    (value,), (remainder,), (slope,) = _integrate_rows(
        log_f(u)[None, :], u, np.diff(u), int(np.searchsorted(u, quad.u_mid, "right")))
    # a NaN end slope or a non-finite value is a divergence too
    if not (slope < -1e-8 and remainder <= max(value, 1e-300)) or not math.isfinite(value):
        raise DivergenceError("second-bound integrand does not decay past the window",
                              end="tail")
    return value, remainder
