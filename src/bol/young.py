"""Young functions, weight functions and their presets.

A Young function carries its forward map and is defined by its log-domain
inverse, a weight by its log-domain form, exact for every preset, so that
the improper-integral machinery can work far outside float range; the
linear-domain ``inv`` and weight ``eval`` derive from them.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

E_MINUS_2 = math.exp(-2.0)
SECTION5_R = math.exp(2.0 * math.e ** 2)


def _as_array(t):
    return np.asarray(t, dtype=np.float64)


def _exp_of(log_form, floor_at_zero):
    """x -> exp(log_form(ln x)); with ``floor_at_zero`` x <= 0 maps to 0."""
    def linear(x):
        x = _as_array(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.exp(log_form(np.log(x)))
        return np.where(x <= 0.0, 0.0, out) if floor_at_zero else out
    return linear


@dataclass(frozen=True)
class YoungFunction:
    """Convex Young function with its inverse.

    ``eval`` and ``inv`` accept scalars or numpy arrays.  ``log_inv``
    maps ln(x) to ln(inv(x)); unless given, ``inv`` is exp(log_inv(ln x))
    for x > 0 and 0 for x <= 0.
    """

    kind: str
    params: dict
    eval: Callable
    log_inv: Callable
    inv: Callable = None

    def __post_init__(self):
        if self.inv is None:
            object.__setattr__(self, "inv", _exp_of(self.log_inv, True))


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative continuous weight.

    ``log_eval`` maps ln(t) to ln(eval(t)); ``eval`` (unless given), every
    improper integral of a weight and its divergence verdict derive from it.
    """

    kind: str
    params: dict
    log_eval: Callable
    eval: Callable = None

    def __post_init__(self):
        if self.eval is None:
            object.__setattr__(self, "eval", _exp_of(self.log_eval, False))


def make_power_young(p: float) -> YoungFunction:
    """Phi(t) = t**p for p > 1."""
    if not p > 1.0:
        raise DomainError("power Young function needs p > 1")

    def ev(t):
        return _as_array(t) ** p

    return YoungFunction(
        kind="power",
        params={"p": p},
        eval=ev,
        log_inv=lambda lx: _as_array(lx) / p,
    )


def illinois_log_root(fun, lo, hi, f_lo, f_hi, rel_tol):
    """Bracketed Illinois regula falsi in u = ln x, vectorised over elements.

    Element i holds a bracket 0 <= lo[i] < hi[i] with f_lo[i] < 0 <= f_hi[i]
    for a function increasing in x; ``fun(idx, x)`` evaluates it on the
    elements ``idx`` (Dowell & Jarratt, BIT 11, 1971).  Each step takes the
    secant root of the two bracket values in u, so a function linear in
    ln x is solved by the first step; the step is taken as
    hi * (lo / hi)**theta, which scales exactly with the bracket.  An end
    kept for a second step running has its value halved.  A non-finite end
    value makes the step bisect in u.  A trial that is not finite or lies
    within a quarter of the stopping width of an end is clamped to that
    distance from it, so no trial leaves the bracket.  Stops when
    hi - lo <= rel_tol * hi, after at most 200 steps.  Returns
    (lo, hi, fun at hi, steps).
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    f_hi = np.array(f_hi, dtype=np.float64)
    fa, fb = np.array(f_lo, dtype=np.float64), f_hi.copy()
    last = np.zeros(lo.size, dtype=np.int8)  # end replaced by the last step: -1 lo, +1 hi
    steps = np.zeros(lo.size, dtype=np.int64)
    act = np.flatnonzero(~(hi - lo <= rel_tol * hi))
    for _ in range(200):
        if not act.size:
            break
        a, b, ga, gb = lo[act], hi[act], fa[act], fb[act]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the trial's place between b and a on the ln x scale
            theta = gb / (gb - ga)
            theta = np.where(np.isfinite(ga) & np.isfinite(gb) & np.isfinite(theta), theta, 0.5)
            x = b * np.exp(theta * np.log(a / b))
        gap = 0.25 * rel_tol * b
        x = np.fmin(np.fmax(x, a + gap), b - gap)
        fx = np.asarray(fun(act, x), dtype=np.float64)
        steps[act] += 1
        up = fx >= 0.0
        i_up, i_dn = act[up], act[~up]
        fa[i_up[last[i_up] == 1]] *= 0.5
        fb[i_dn[last[i_dn] == -1]] *= 0.5
        hi[i_up], fb[i_up], f_hi[i_up], last[i_up] = x[up], fx[up], fx[up], 1
        lo[i_dn], fa[i_dn], last[i_dn] = x[~up], fx[~up], -1
        act = act[~(hi[act] - lo[act] <= rel_tol * hi[act])]
    return lo, hi, f_hi, steps


def _invert_monotone(log_inv, s):
    """Solve inv(t) = s for t elementwise, in the log domain.

    With v = ln t each element solves log_inv(v) - ln s = 0, increasing in
    v.  The bracket starts at v = ln s: the far end steps away from it by
    twice the value there, doubling the step until the value changes sign
    (a far end that leaves float range ends the growth).  ``illinois_log_root``
    then runs until hi - lo <= 1e-12 * hi and the midpoint is returned.
    s <= 0 maps to 0, +inf to inf and nan to nan.  ``log_inv`` must act
    elementwise on arrays.
    """
    s = np.asarray(s, dtype=np.float64)
    flat = s.ravel()
    out = np.where(flat <= 0.0, 0.0, flat)
    todo = np.flatnonzero((flat > 0.0) & (flat < np.inf))
    t0 = flat[todo]
    ls = np.log(t0)

    def fun(idx, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(log_inv(np.log(t)), dtype=np.float64) - ls[idx]

    f0 = fun(np.arange(todo.size), t0)
    up = f0 < 0.0
    near, f_near = t0.copy(), f0.copy()
    far, f_far = t0.copy(), f0.copy()
    step = 2.0 * np.abs(f0) + 1e-12
    act = np.arange(todo.size)
    while act.size:
        with np.errstate(over="ignore"):
            far[act] = t0[act] * np.exp(np.where(up[act], step[act], -step[act]))
        f_far[act] = fun(act, far[act])
        act = act[((f_far[act] < 0.0) == up[act]) & (far[act] > 0.0) & (far[act] < np.inf)]
        near[act], f_near[act] = far[act], f_far[act]
        step[act] *= 2.0
    lo, hi, _, _ = illinois_log_root(fun, np.where(up, near, far), np.where(up, far, near),
                                     np.where(up, f_near, f_far), np.where(up, f_far, f_near),
                                     1e-12)
    out[todo] = 0.5 * (lo + hi)
    return out.reshape(s.shape)


def make_section5_young(alpha: float) -> YoungFunction:
    """Three-piece log-domain inverse: slow correction below 1/r, linear
    middle, reciprocal correction above r.  The forward map solves
    log_inv(v) = ln s for v = ln Phi(s) over the whole argument array at
    once (``_invert_monotone``), to 1e-12 relative."""
    if not 0.0 < alpha < E_MINUS_2:
        raise DomainError("section5 needs 0 < alpha < e^-2")
    r = SECTION5_R
    # ln(sqrt(r)) = e^2, ln(ln(sqrt(r))) = 2, so the branch exponent at the
    # matching points is alpha * e^2 / 2.
    g = alpha * math.e ** 2 / 2.0
    # chord through (1/r, e^g/r) and (r, r e^-g); the intercept is written
    # in its cancellation-free form
    p_lin = (r * math.exp(-g) - math.exp(g) / r) / (r - 1.0 / r)
    q_lin = (math.exp(g) - math.exp(-g)) / (r - 1.0 / r)

    def log_inv(lx):
        lx = _as_array(lx)
        scalar = lx.ndim == 0
        lx = np.atleast_1d(lx)
        lr = math.log(r)
        out = np.empty_like(lx)
        low = lx < -lr
        mid = (lx >= -lr) & (lx < lr)
        high = lx >= lr
        big_l = -lx[low] / 2.0
        out[low] = lx[low] + alpha * big_l / np.log(big_l)
        out[mid] = np.log(p_lin * np.exp(lx[mid]) + q_lin)
        big_h = lx[high] / 2.0
        out[high] = lx[high] - alpha * big_h / np.log(big_h)
        return out[0] if scalar else out

    def ev(t):
        out = _invert_monotone(log_inv, _as_array(t))
        return float(out) if out.ndim == 0 else out

    return YoungFunction(
        kind="section5",
        params={"alpha": alpha, "r": r, "p_lin": p_lin, "q_lin": q_lin},
        eval=ev,
        log_inv=log_inv,
    )


def make_table_young(path: str) -> YoungFunction:
    """Young function from a two-column CSV (t, Phi(t)), log-log interpolated."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
        ts, vs = (np.array([float(row[i]) for row in rows]) for i in (0, 1))
    except (OSError, ValueError, IndexError) as exc:
        raise DomainError(f"unreadable Young table {path!r}: {exc!r}") from exc
    if len(ts) < 2 or np.any(np.diff(ts) <= 0) or np.any(np.diff(vs) <= 0):
        raise DomainError("table must be strictly increasing in both columns")
    if np.any(ts <= 0) or np.any(vs <= 0):
        raise DomainError("table knots must be strictly positive")
    lt, lv = np.log(ts), np.log(vs)

    def ev(t):
        t = _as_array(t)
        with np.errstate(divide="ignore"):
            res = np.exp(np.interp(np.log(np.maximum(t, 1e-300)), lt, lv))
        return np.where(t > 0.0, res, 0.0)

    return YoungFunction(
        kind="table",
        params={"file": path},
        eval=ev,
        log_inv=lambda lx: np.interp(lx, lv, lt),
    )


def make_power_weight(theta: float) -> WeightFunction:
    """Psi(t) = t**(-theta)."""
    return WeightFunction(
        kind="powerweight",
        params={"theta": theta},
        log_eval=lambda lt: -theta * _as_array(lt),
    )


def make_section5_weight(phi: YoungFunction) -> WeightFunction:
    """Psi(t) = t / inv(t^2), the weight paired with a Young function.

    For the power preset with exponent p this collapses to
    t^(1 - 2/p), i.e. the critical power weight in dimension 2.
    """
    def log_ev(lt):
        lt = _as_array(lt)
        return lt - phi.log_inv(2.0 * lt)

    return WeightFunction(
        kind="section5weight" if phi.kind == "section5" else "pairedweight",
        params=dict(phi.params),
        log_eval=log_ev,
    )


# -- function-spec mini-grammar ------------------------------------------------

def _parse_kv(body: str) -> dict:
    out = {}
    if body:
        for part in body.split(","):
            if "=" not in part:
                raise DomainError(f"malformed spec fragment {part!r}")
            k, v = part.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def parse_young_spec(spec: str) -> YoungFunction:
    """Parse "power:p=1.3", "section5:alpha=0.1" or "table:file=PATH"."""
    head, _, body = spec.partition(":")
    kv = _parse_kv(body)
    try:
        if head == "power":
            return make_power_young(float(kv["p"]))
        if head == "section5":
            return make_section5_young(float(kv["alpha"]))
        if head == "table":
            return make_table_young(kv["file"])
    except KeyError as exc:
        raise DomainError(f"missing parameter {exc} in spec {spec!r}") from exc
    except ValueError as exc:
        raise DomainError(f"bad parameter value in spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown Young function spec {spec!r}")


def parse_weight_spec(spec: str) -> WeightFunction:
    """Parse "powerweight:theta=0.5" or "section5:alpha=0.1"."""
    head, _, body = spec.partition(":")
    kv = _parse_kv(body)
    try:
        if head == "powerweight":
            return make_power_weight(float(kv["theta"]))
        if head == "section5":
            return make_section5_weight(make_section5_young(float(kv["alpha"])))
        if head == "paired":
            return make_section5_weight(parse_young_spec(kv["phi"]))
    except KeyError as exc:
        raise DomainError(f"missing parameter {exc} in spec {spec!r}") from exc
    except ValueError as exc:
        raise DomainError(f"bad parameter value in spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown weight function spec {spec!r}")


def critical_theta(p: float, d: int) -> float:
    """Classical exponent d*(1/p + 1/d - 1) reachable from an integrable gradient."""
    return d * (1.0 / p + 1.0 / d - 1.0)
