"""The two-integral embedding condition and its sup-over-scales verdict.

Both improper integrals are evaluated on log-substituted grids entirely
in the log domain, so presets whose natural arguments overflow float
range (the piecewise-exponential example) still integrate cleanly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, ResourceGuardError
from .young import (SECTION5_R, WeightFunction, YoungFunction,
                    make_section5_young)

NEGLIGIBLE_LOG_DROP = 45.0  # contributions e^-45 below the peak are ignored
TAIL_SLOPE_LIMIT = -0.05
MAX_SCALES = 100_000  # scales per condition_sup sweep


@dataclass(frozen=True)
class ConditionQuad:
    """Node layout for the log-substituted integrals.

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


def log_domain_integral(log_vals, u):
    """Integral over the grid u of the exponential of the piecewise-linear
    interpolant of log_vals, exact on every node interval and max-scaled.

    An interval with end values a, b contributes
    du * e^max(a,b) * (1 - e^-|b-a|) / |b-a| (a short series when
    |b - a| is tiny, 0 when an end is -inf).
    """
    lv = np.asarray(log_vals, dtype=np.float64)
    m = float(np.max(lv))
    if not math.isfinite(m):
        return 0.0 if m == -math.inf else math.inf
    hi = np.maximum(lv[:-1], lv[1:]) - m
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x = np.where(hi > -np.inf, np.abs(lv[1:] - lv[:-1]), 0.0)
        factor = np.where(x < 1e-8, 1.0 - 0.5 * x, -np.expm1(-x) / x)
        return float(np.exp(m)) * float(np.sum(np.diff(u) * np.exp(hi) * factor))


def _integrate_decaying(log_f, quad: ConditionQuad):
    """Integrate exp(log_f(u)) du over [0, inf) on the nodes of ``quad``.

    The integral stops after the first node past u_mid from which the
    integrand stays NEGLIGIBLE_LOG_DROP below its peak, or at u_far when
    there is none.  Returns (value, remainder, slope, dropped): the
    log-slope over the last five nodes kept, the exponential tail past
    them, and whether the integrand dropped that far.  Each caller
    decides from these whether its integral diverges.
    """
    u = quad.nodes()
    lv = np.asarray(log_f(u))
    low = np.maximum.accumulate(lv[::-1])[::-1] < float(np.max(lv)) - NEGLIGIBLE_LOG_DROP
    past = np.flatnonzero(low & (u > quad.u_mid))
    cut = int(past[0]) + 1 if past.size else u.size
    span = u[cut - 1] - u[cut - 5]
    slope = float(lv[cut - 1] - lv[cut - 5]) / span if span > 0 else 0.0
    with np.errstate(over="ignore"):
        remainder = float(np.exp(lv[cut - 1])) / -slope if slope < 0 else math.inf
    return log_domain_integral(lv[:cut], u[:cut]), remainder, slope, bool(past.size)


def _condition_integral(log_f, quad: ConditionQuad):
    """(value, remainder, diverged) of one condition integral.

    It diverges when its integrand neither drops NEGLIGIBLE_LOG_DROP below
    its peak nor ends with a log-slope at or below TAIL_SLOPE_LIMIT; the
    value is then the integral over [0, u_mid] alone and the remainder
    infinite.
    """
    value, remainder, slope, dropped = _integrate_decaying(log_f, quad)
    if dropped or slope <= TAIL_SLOPE_LIMIT:
        return value, remainder, False
    near = replace(quad, u_far=quad.u_mid)
    return _integrate_decaying(log_f, near)[0], math.inf, True


def condition_value(s: float, phi: YoungFunction, psi: WeightFunction, d: int,
                    quad: ConditionQuad = ConditionQuad(),
                    head_lower_limit: float = None,
                    raise_on_divergence: bool = True) -> ConditionValue:
    """One evaluation of the two-integral expression at scale s.

    ``head_lower_limit`` replaces 0 as the lower limit of the first
    integral (the compact-domain reading of the condition).
    """
    if s <= 0 or (head_lower_limit is not None and not head_lower_limit > 0.0):
        raise DomainError("condition_value needs s > 0 and a positive head_lower_limit")
    ls = math.log(s)
    log_pref1 = (d - 1) * ls - float(phi.log_inv(d * ls))

    if head_lower_limit is not None:
        if head_lower_limit >= s:
            head_val, head_rem, head_div = 0.0, 0.0, False
        else:
            umax = ls - math.log(head_lower_limit)
            u = np.linspace(0.0, umax, max(quad.n_mid, int(20 * umax) + 16))
            head_val = log_domain_integral(psi.log_eval(u - ls), u)
            head_rem, head_div = 0.0, False
    else:
        if psi.zero_exponent <= 0:
            if raise_on_divergence:
                raise DivergenceError(
                    "first integral diverges at its head (weight exponent <= 0)",
                    end="head",
                )
            head_val, head_rem, head_div = math.nan, math.inf, True
        else:
            head_val, head_rem, head_div = _condition_integral(
                lambda u: np.asarray(psi.log_eval(u - ls)), quad
            )
    try:
        pref1 = math.exp(log_pref1)
    except OverflowError as exc:
        raise DomainError(f"the first integral's prefactor overflows at s = {s!r}") from exc
    first = pref1 * head_val if not math.isnan(head_val) else math.nan
    first_rem = pref1 * head_rem if math.isfinite(head_rem) else math.inf

    def tail_log(u):
        lt = ls + u
        return (
            np.asarray(psi.log_eval(-lt))
            + (d - 1) * ls
            - np.asarray(phi.log_inv(lt + (d - 1) * ls))
        )

    tail_val, tail_rem, tail_div = _condition_integral(tail_log, quad)
    if tail_div and raise_on_divergence:
        raise DivergenceError(
            "second integral diverges at its tail (integrand log-slope above "
            f"{TAIL_SLOPE_LIMIT})",
            end="tail",
        )
    value = (first if not math.isnan(first) else 0.0) + tail_val
    return ConditionValue(s, value, first_rem + tail_rem, head_div, tail_div)


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
                  quad: ConditionQuad = ConditionQuad(),
                  head_lower_limit: float = None) -> ConditionReport:
    """Evaluate the condition on a log grid of scales and classify it.

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
    values = np.zeros(n_points)
    diverged_s = math.nan
    for i, s in enumerate(s_grid):
        cv = condition_value(float(s), phi, psi, d, quad,
                             head_lower_limit=head_lower_limit,
                             raise_on_divergence=False)
        values[i] = cv.value
        if (cv.head_diverged or cv.tail_diverged) and math.isnan(diverged_s):
            diverged_s = float(s)
    finite = np.isfinite(values) & (values > 0)
    d_hat = float(values[finite].max()) if finite.any() else math.inf
    # the smallest s within 1e-12 of the max, so rounding cannot pick it on a flat curve
    near_max = finite & (values >= d_hat * (1.0 - 1e-12))
    argmax = float(s_grid[near_max][0]) if finite.any() else math.nan
    head_slope = _decade_slope(s_grid[finite], values[finite], "head") if finite.sum() > 1 else 0.0
    tail_slope = _decade_slope(s_grid[finite], values[finite], "tail") if finite.sum() > 1 else 0.0
    if not math.isnan(diverged_s):
        verdict = "unbounded"
    elif tail_slope >= 0.05 or (-head_slope) >= 0.05:
        verdict = "unbounded"
    elif tail_slope <= 0.02 and (-head_slope) <= 0.02:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ConditionReport(s_grid, values, d_hat, argmax, verdict,
                           head_slope, tail_slope, diverged_s)


# -- the concrete piecewise-exponential example --------------------------------

def section5_first_bound(alpha: float, s_list):
    """First-integral bound with lower limit r; each value must stay below 2.

    Returns rows (s, value, intermediate_bound, passes).
    """
    phi = make_section5_young(alpha)
    r = SECTION5_R
    k = math.log(r)
    rows = []
    for s in s_list:
        if not r * (1 - 1e-12) <= s < math.inf:
            raise DomainError("first-bound scales must be finite and satisfy s >= r")
        ls = math.log(s)
        log_pref = ls - float(phi.log_inv(2.0 * ls))
        if ls <= k:
            value = 0.0
        else:
            x = np.linspace(k, ls, 4000)
            log_integrand = x - np.asarray(phi.log_inv(-2.0 * x)) - 2.0 * x
            value = math.exp(log_pref) * log_domain_integral(log_integrand, x)
        beta = alpha / math.log(ls) if ls > 1 else 0.0
        inter = s ** (beta - 1.0) * (s ** (1.0 - beta) - r ** (1.0 - beta)) / (1.0 - beta)
        rows.append((s, value, inter, value < 2.0))
    return rows


def section5_second_bound(alpha: float, s: float, x_span: float = 1e5):
    """Second-integral value plus a truncation remainder bound.

    Integrates in x = ln t from ln s over a window of length x_span;
    node positions are append-only in x_span so enlarging the window
    never perturbs the shared prefix.  It diverges unless the integrand
    decays at the truncation point (end log-slope below -1e-8) and the
    remainder past it is at most the value, and whenever the value is not
    finite.
    """
    phi = make_section5_young(alpha)
    r = SECTION5_R
    if s < r * (1 - 1e-12) or not 0.0 < x_span < math.inf:
        raise DomainError("second bound needs s >= r and a finite, positive x_span")
    ls = math.log(s)

    def log_integrand(u):
        x = ls + u
        with np.errstate(over="ignore", invalid="ignore"):
            return ls - x - np.asarray(phi.log_inv(x + ls)) - np.asarray(phi.log_inv(-2.0 * x))

    quad = ConditionQuad(u_mid=100.0, n_mid=2001, u_far=x_span, geo_step=1.002)
    value, remainder, slope, _ = _integrate_decaying(log_integrand, quad)
    # a NaN end slope or a non-finite value is a divergence too
    if not (slope < -1e-8 and remainder <= max(value, 1e-300)) or not math.isfinite(value):
        raise DivergenceError("second-bound integrand does not decay past the window",
                              end="tail")
    return value, remainder
