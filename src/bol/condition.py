"""The two-integral embedding condition and its sup-over-scales verdict.

Both improper integrals are evaluated on log-substituted grids entirely
in the log domain, so presets whose natural arguments overflow float
range (the piecewise-exponential example) still integrate cleanly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError
from .young import (SECTION5_R, WeightFunction, YoungFunction,
                    make_section5_young)

NEGLIGIBLE_LOG_DROP = 45.0  # contributions e^-45 below the peak are ignored
TAIL_SLOPE_LIMIT = -0.05


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
        u = [np.linspace(0.0, self.u_mid, self.n_mid)]
        tail = []
        x = self.u_mid
        while x < self.u_far:
            x *= self.geo_step
            tail.append(min(x, self.u_far))
        if tail:
            u.append(np.asarray(tail))
        return np.concatenate(u)


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
    rows: list = field(default_factory=list)


def _trapz_exp(log_vals, u):
    """Trapezoid of exp(log_vals) over the (nonuniform) grid u, max-scaled."""
    m = float(np.max(log_vals))
    if not math.isfinite(m):
        return 0.0 if m == -math.inf else math.inf
    return math.exp(m) * float(np.trapezoid(np.exp(log_vals - m), u))


def _end_slope(log_vals, u, npts=5):
    span = u[-1] - u[-npts]
    if span <= 0:
        return 0.0
    return (log_vals[-1] - log_vals[-npts]) / span


def _integrate_decaying(log_f, quad: ConditionQuad):
    """Integrate exp(log_f(u)) du over [0, inf) with truncation control.

    Returns (value, remainder, diverged).  If the integrand has not
    dropped to a negligible level by u_far and its terminal log-slope is
    above the divergence threshold, the value is the integral over
    [0, u_mid] only and ``diverged`` is set.
    """
    u = quad.nodes()
    lv = log_f(u)
    peak = float(np.max(lv))
    below = np.nonzero(lv < peak - NEGLIGIBLE_LOG_DROP)[0]
    cut = None
    for i in below:
        if u[i] > quad.u_mid and float(np.max(lv[i:])) < peak - NEGLIGIBLE_LOG_DROP:
            cut = i + 1
            break
    if cut is not None:
        value = _trapz_exp(lv[:cut], u[:cut])
        slope = _end_slope(lv[:cut], u[:cut])
        lam = max(-slope, 1e-12)
        remainder = math.exp(lv[cut - 1] - peak) * math.exp(peak) / lam
        return value, remainder, False
    slope = _end_slope(lv, u)
    if slope <= TAIL_SLOPE_LIMIT:
        value = _trapz_exp(lv, u)
        remainder = math.exp(lv[-1]) / (-slope)
        return value, remainder, False
    n_mid = np.searchsorted(u, quad.u_mid, side="right")
    value = _trapz_exp(lv[:n_mid], u[:n_mid])
    return value, math.inf, True


def condition_value(s: float, phi: YoungFunction, psi: WeightFunction, d: int,
                    quad: ConditionQuad = ConditionQuad(),
                    head_lower_limit: float = None,
                    raise_on_divergence: bool = True) -> ConditionValue:
    """One evaluation of the two-integral expression at scale s.

    ``head_lower_limit`` replaces 0 as the lower limit of the first
    integral (the compact-domain reading of the condition).
    """
    if s <= 0:
        raise DomainError("condition_value needs s > 0")
    ls = math.log(s)
    log_pref1 = (d - 1) * ls - float(phi.inv_log(d * ls))

    if head_lower_limit is not None:
        if head_lower_limit >= s:
            head_val, head_rem, head_div = 0.0, 0.0, False
        else:
            umax = ls - math.log(head_lower_limit)
            u = np.linspace(0.0, umax, max(quad.n_mid, int(20 * umax) + 16))
            head_val = _trapz_exp(np.asarray(psi.eval_log(u - ls)), u)
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
            head_val, head_rem, head_div = _integrate_decaying(
                lambda u: np.asarray(psi.eval_log(u - ls)), quad
            )
    first = math.exp(log_pref1) * head_val if not math.isnan(head_val) else math.nan
    first_rem = math.exp(log_pref1) * head_rem if math.isfinite(head_rem) else math.inf

    def tail_log(u):
        lt = ls + u
        return (
            np.asarray(psi.eval_log(-lt))
            + (d - 1) * ls
            - np.asarray(phi.inv_log(lt + (d - 1) * ls))
        )

    tail_val, tail_rem, tail_div = _integrate_decaying(tail_log, quad)
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
    lo, hi = s_range
    if not (0 < lo < hi):
        raise DomainError("s_range must be positive and increasing")
    s_grid = np.geomspace(lo, hi, n_points)
    rows = []
    diverged_s = math.nan
    for s in s_grid:
        cv = condition_value(float(s), phi, psi, d, quad,
                             head_lower_limit=head_lower_limit,
                             raise_on_divergence=False)
        rows.append(cv)
        if (cv.head_diverged or cv.tail_diverged) and math.isnan(diverged_s):
            diverged_s = float(s)
    values = np.array([r.value for r in rows])
    finite = np.isfinite(values) & (values > 0)
    d_hat = float(values[finite].max()) if finite.any() else math.inf
    argmax = float(s_grid[finite][np.argmax(values[finite])]) if finite.any() else math.nan
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
                           head_slope, tail_slope, diverged_s, rows)


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
        if s < r * (1 - 1e-12):
            raise DomainError("first-bound scales must satisfy s >= r")
        ls = math.log(s)
        log_pref = ls - float(phi.inv_log(2.0 * ls))
        if ls <= k:
            value = 0.0
        else:
            x = np.linspace(k, ls, 4000)
            log_integrand = x - np.asarray(phi.inv_log(-2.0 * x)) - 2.0 * x
            value = math.exp(log_pref) * _trapz_exp(log_integrand, x)
        beta = alpha / math.log(ls) if ls > 1 else 0.0
        inter = s ** (beta - 1.0) * (s ** (1.0 - beta) - r ** (1.0 - beta)) / (1.0 - beta)
        rows.append((s, value, inter, value < 2.0))
    return rows


def section5_second_bound(alpha: float, s: float, x_span: float = 1e5,
                          geo_step: float = 1.002):
    """Second-integral value plus a truncation remainder bound.

    Integrates in x = ln t from ln s over a window of length x_span;
    node positions are append-only in x_span so enlarging the window
    never perturbs the shared prefix.
    """
    phi = make_section5_young(alpha)
    r = SECTION5_R
    if s < r * (1 - 1e-12):
        raise DomainError("second-bound scale must satisfy s >= r")
    ls = math.log(s)
    x = ls + ConditionQuad(u_mid=100.0, n_mid=2001, u_far=x_span, geo_step=geo_step).nodes()

    log_integrand = (
        ls - x - np.asarray(phi.inv_log(x + ls)) - np.asarray(phi.inv_log(-2.0 * x))
    )
    value = _trapz_exp(log_integrand, x)
    slope = _end_slope(log_integrand, x, npts=8)
    if slope >= -1e-8:
        raise DivergenceError(
            "second-bound integrand shows no decay at the truncation point",
            end="tail",
        )
    remainder = math.exp(log_integrand[-1]) / (-slope)
    if remainder > max(value, 1e-300):
        raise DivergenceError(
            "second-bound truncation remainder does not shrink", end="tail"
        )
    return value, remainder
