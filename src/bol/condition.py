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
breakpoints.  Every integral is such a row, over [0, inf) or closed at
an end: a head with a lower limit and both example bounds are closed
rows.
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
    """A node layout whose default u_mid and u_far bound the rows of the
    condition integrals; ``nodes`` is a layout of its own, which no
    integral here uses.

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
# panel edges of a row smooth between its breakpoints: every 7.5 up to u_mid
# and its doublings up to 30,720; the row's breakpoints and last edge are added
_EDGES = np.array([_QUAD.u_mid * k / 8 for k in range(9)]
                  + [_QUAD.u_mid * 2.0 ** k for k in range(1, 10)])
# node values per integral in one block of _condition_curve: 16 rows of the
# section5 pair's 22 panels (BENCH_smooth_panels.json)
_BLOCK_VALUES = 5_632
_PROBE = 1024.0  # distance in u from a kinked row's last node to the node that reads its slope


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


def log_domain_integral(log_vals, u):
    """Integral over the grid u of the exponential of the piecewise-linear
    interpolant of log_vals: ``_interval_terms`` on every node interval,
    scaled by the peak m and summed by np.sum; e^m times that sum, 0 when
    m = -inf and inf when m is +inf or NaN."""
    lv = np.asarray(log_vals, dtype=np.float64)
    m = float(np.max(lv))
    if not math.isfinite(m):
        return 0.0 if m == -math.inf else math.inf
    with np.errstate(over="ignore"):
        return float(np.exp(m)) * float(np.sum(_interval_terms(lv[:-1], lv[1:], np.diff(u), m)))


def _tails(closed, decays, diverged, peaks, tail):
    """(remainders, tails added to the values) of rows whose tails past
    their last nodes are ``tail``, scaled by their peaks: a closed row
    adds none and its remainder is the tail, inf where the row does not
    decay; an open row adds the tail where it decays and has not
    diverged, and its remainder is inf where it has not added it, else 0."""
    if closed:
        return np.where(decays, np.exp(peaks) * tail, np.inf), 0.0
    added = decays & ~diverged
    return np.where(added, 0.0, np.inf), np.where(added, tail, 0.0)


def _kinked_rows(log_f, kinks, ends):
    """(values, remainders, diverged) of the integral of exp(log_f(u)) over
    [0, inf), or over [0, ends[i]] where ends is given, one per row i of
    kinks: the breakpoints in u of that row's log-integrand, which is
    linear between them and past the last.

    An open row's nodes are 0, u_mid and its kinks clipped to [0, inf),
    sorted, then a probe _PROBE past the last of them; a closed row moves
    each of u_mid and its kinks not inside (0, end) to 0 and ends at its
    end.  ``_interval_terms`` is exact on every interval.  The last
    interval has the slope b of the row's last piece, and past the last
    node's value a the row's tail is e^a / -b, taken by ``_tails``.  An
    open row diverges when b is not negative or one of its values is NaN,
    and its value is then its integral over [0, u_mid], as on the panels;
    a closed row never diverges.  Each row is scaled by its peak over the
    nodes it sums, so its value depends on its own kinks and end alone.
    """
    rows, k = kinks.shape
    u = np.empty((rows, k + 3))
    u[:, 0], u[:, 1] = 0.0, _QUAD.u_mid
    closed, inner = ends is not None, u[:, 1:-1]
    if closed:
        u[:, 2:-1] = kinks
        np.copyto(inner, 0.0, where=(inner <= 0.0) | (inner >= ends[:, None]))
    else:
        np.maximum(kinks, 0.0, out=u[:, 2:-1])
    u[:, :-1].sort(axis=1)
    u[:, -1] = ends if closed else u[:, -2] + _PROBE
    du = np.diff(u, axis=1)
    lv = np.asarray(log_f(u), dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        slopes = (lv[:, -1] - lv[:, -2]) / du[:, -1]
        peaks = np.max(lv, axis=1)
        decays = slopes < 0.0
        diverged = np.zeros(rows, dtype=bool) if closed else ~decays | np.isnan(peaks)
        # a diverged row sums the intervals up to u_mid alone, scaled by its peak there
        past_mid = diverged[:, None] & (u > _QUAD.u_mid)
        if diverged.any():
            peaks[diverged] = np.max(np.where(past_mid, -np.inf, lv), axis=1)[diverged]
        terms = _interval_terms(lv[:, :-1], lv[:, 1:], du, peaks[:, None])
        terms[past_mid[:, 1:]] = 0.0
        remainders, tail = _tails(closed, decays, diverged, peaks,
                                  np.exp(lv[:, -1] - peaks) / -slopes)
        values = np.exp(peaks) * (np.sum(terms, axis=1) + tail)
    values[peaks == -np.inf] = 0.0
    values[~(peaks < np.inf)] = np.inf  # a +inf or NaN peak
    return values, remainders, diverged


def _panel_rows(log_f, kinks, ends):
    """(values, remainders, diverged) of the integral of exp(log_f(u)) over
    [0, inf), or over [0, ends[i]] where ends is given, one per row i of
    kinks: the breakpoints in u of that row's log-integrand, which is
    smooth between them.

    A row's panels have the edges _EDGES, its breakpoints and its last
    edge: u_far for an open row, its end for a closed one.  Where an end
    lies past 61,440 the doublings of 30,720 below the largest end are
    edges too.  An edge not inside (0, last edge) moves to 0 and makes an
    empty panel there, so every row of a call has as many.  Each panel
    takes the 16-point Gauss-Legendre rule, scaled by the row's peak over
    its nodes, so a row's value depends on its own breakpoints and end
    alone.  The log-slope b between the last two nodes extends the row
    past its last edge, where its tail is e^a / -b for its value a there,
    taken by ``_tails``.  An open row diverges when its last node is not
    NEGLIGIBLE_LOG_DROP below its peak (or NaN) and b is not at or below
    TAIL_SLOPE_LIMIT; its value is then its integral over its panels in
    [0, u_mid].  A closed row never diverges.
    """
    rows, closed = kinks.shape[0], ends is not None
    last, fixed = (ends, _EDGES.tolist()) if closed else (np.full(rows, _QUAD.u_far), _EDGES)
    while closed and 2.0 * fixed[-1] < np.max(ends, initial=0.0):
        fixed.append(2.0 * fixed[-1])
    edges = np.empty((rows, len(fixed) + kinks.shape[1] + 1))
    edges[:, :len(fixed)] = fixed
    edges[:, len(fixed):-1] = kinks
    edges[:, -1] = last
    inner = edges[:, :-1] if closed else edges[:, len(fixed):-1]  # _EDGES lie below u_far
    np.copyto(inner, 0.0, where=~((inner > 0.0) & (inner < last[:, None])))
    edges.sort(axis=1)
    half = np.diff(edges, axis=1)
    half *= 0.5
    nodes = half.shape[1] * _GL_X.size
    u = (edges[:, :-1, None] + half[:, :, None] * (1.0 + _GL_X)).reshape(rows, nodes)
    w = (half[:, :, None] * _GL_W).reshape(rows, nodes)
    lv = np.asarray(log_f(u), dtype=np.float64)
    np.copyto(lv, -np.inf, where=w == 0.0)  # the nodes of an empty panel
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        peaks = np.max(lv, axis=1)
        end, last_u = lv[:, -1], u[:, -1]
        slopes = (end - lv[:, -2]) / (last_u - u[:, -2])
        diverged = (~(end < peaks - NEGLIGIBLE_LOG_DROP) & ~(slopes <= TAIL_SLOPE_LIMIT)
                    & (not closed))
        decays = slopes < 0.0
        tail = np.exp(end + slopes * (last - last_u) - peaks) / -slopes
        remainders, tail = _tails(closed, decays, diverged, peaks, tail)
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
    return values, remainders, diverged


def _condition_integral(log_f, kinks, linear, ends=None):
    """Arrays (values, remainders, diverged) of the integral of exp(log_f(u))
    over [0, inf), one per row of log_f(u): each condition integral at a
    block of scales (closed for a head with a lower limit and for the
    first example bound), each end of a Besov seminorm (one row) and the
    second example bound (one closed row).  kinks holds the breakpoints
    in u of each row's log-integrand (one row of kinks per row).  Where
    it is ``linear`` between them the rows are exact (``_kinked_rows``);
    otherwise they take ``_panel_rows``.  ``ends``, one finite end per
    row, closes the rows: each is then the integral over [0, end], 0 for
    an end at or below 0.  A closed row never diverges, and its remainder
    is the tail past its end, extrapolated from its last log-slope.
    """
    ends = None if ends is None else np.maximum(ends, 0.0)
    return (_kinked_rows if linear else _panel_rows)(log_f, kinks, ends)


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

    Each integral is a row per scale on its breakpoints (``_kinks``),
    through ``_condition_integral`` in blocks of as many scales as keep
    its rows within _BLOCK_VALUES node values; a row depends on its own
    scale alone.  A head from ``lower`` is its row closed at
    ln s - ln lower, exact on its range, so it adds no remainder.  The
    prefactor is math.exp per scale, as np.exp differs from it in the
    last bit on about one argument in twenty.
    """
    if lower is not None and not lower > 0.0:
        raise DomainError(f"the head lower limit must be positive, got {lower!r}")
    n = len(s_list)
    ls = np.array([[math.log(s)] for s in s_list])
    head_kinks, tail_kinks = _kinks(phi, psi, d, ls)
    head_ends = None if lower is None else ls[:, 0] - math.log(lower)
    integrals = [(lambda b: _first_log(psi, b), head_kinks, psi.log_linear, head_ends),
                 (lambda b: _second_log(phi, psi, d, b), tail_kinks,
                  psi.log_linear and phi.log_linear, None)]
    # nodes per row of the widest integral: its kinks, 0, u_mid and an end, or 16 a panel
    width = max(k.shape[1] + 3 if lin else _GL_X.size * (_EDGES.size + k.shape[1])
                for _, k, lin, _ in integrals)
    step = max(1, _BLOCK_VALUES // width)

    def rows(log_f, kinks, linear, ends):
        blocks = [_condition_integral(log_f(ls[i:i + step]), kinks[i:i + step], linear,
                                      None if ends is None else ends[i:i + step])
                  for i in range(0, n, step)]
        return [np.concatenate(part) for part in zip(*blocks)]

    (head_val, head_rem, head_div), (tail_val, tail_rem, tail_div) = [
        rows(*integral) for integral in integrals]
    pref = np.array([_exp(x) for x in _first_prefactor(phi, d, ls)[:, 0].tolist()])
    with np.errstate(invalid="ignore", over="ignore"):
        first = pref * head_val
        values = np.where(head_div | np.isnan(first), 0.0, first) + tail_val
        remainders = tail_rem if lower is not None else (
            np.where(np.isfinite(head_rem), pref * head_rem, np.inf) + tail_rem)
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

    The heads are first-integral rows closed at ln s - ln r, as in
    ``_condition_curve`` with that lower limit.
    Returns rows (s, value, intermediate_bound, passes).
    """
    phi = make_section5_young(alpha)
    psi = make_section5_weight(phi)
    r = SECTION5_R
    if not all(r * (1 - 1e-12) <= s < math.inf for s in s_list):
        raise DomainError("first-bound scales must be finite and satisfy s >= r")
    ls = np.array([math.log(s) for s in s_list]).reshape(-1, 1)
    heads = _condition_integral(_first_log(psi, ls), _kinks(phi, psi, 2, ls)[0],
                                psi.log_linear, ls[:, 0] - math.log(r))[0]
    rows = []
    for s, log_s, head in zip(s_list, ls[:, 0].tolist(), heads.tolist()):
        value = math.exp(_first_prefactor(phi, 2, log_s)) * head
        beta = alpha / math.log(log_s) if log_s > 1 else 0.0
        inter = s ** (beta - 1.0) * (s ** (1.0 - beta) - r ** (1.0 - beta)) / (1.0 - beta)
        rows.append((s, value, inter, value < 2.0))
    return rows


def section5_second_bound(alpha: float, s: float, x_span: float = 1e5):
    """The second condition integral of the section5 pair in d = 2, plus
    a truncation remainder bound.

    One row of ``_condition_integral`` in u = ln t - ln s, closed at
    x_span: enlarging the window moves only its panels past the last
    doubling of 30,720 below the old end.  The remainder is the row's
    tail past x_span, inf where the integrand does not decay there.  It
    diverges unless the remainder is at most the value, and whenever the
    value is not finite.
    """
    phi = make_section5_young(alpha)
    psi = make_section5_weight(phi)
    if s < SECTION5_R * (1 - 1e-12) or not 0.0 < x_span < math.inf:
        raise DomainError("second bound needs s >= r and a finite, positive x_span")
    ls = np.array([[math.log(s)]])
    (value,), (remainder,), _ = _condition_integral(
        _second_log(phi, psi, 2, ls), _kinks(phi, psi, 2, ls)[1],
        psi.log_linear and phi.log_linear, np.array([x_span]))
    if not remainder <= max(value, 1e-300) or not math.isfinite(value):
        raise DivergenceError("second-bound integrand does not decay past the window",
                              end="tail")
    return float(value), float(remainder)
