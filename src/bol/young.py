"""Young functions, weight functions and their presets.

A Young function carries its forward map and is defined by its log-domain
inverse, a weight by its log-domain form, exact for every preset, so that
the improper-integral machinery can work far outside float range; the
linear-domain ``inv`` and weight ``eval`` derive from them.  No forward
map runs a root solve: power is t**p, a table its log-log interpolant,
and section5 inverts its inverse piece by piece.  ``illinois_log_root``
is the root finder of the Luxemburg solve (``orlicz._luxemburg_rows``).
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

E_MINUS_2 = math.exp(-2.0)
SECTION5_R = math.exp(2.0 * math.e ** 2)


def _as_array(t):
    return np.asarray(t, dtype=np.float64)


_NO_KINKS = np.zeros(0)  # the breakpoints of a log form with none
_NO_KINKS.flags.writeable = False


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
    for x > 0 and 0 for x <= 0.  ``log_kinks`` holds the sorted
    breakpoints in ln x of ``log_inv``, where it may bend sharply or its
    slope jump, and ``log_linear`` says whether it is linear between them
    and past the last; by default it is smooth on the whole line.
    """

    kind: str
    params: dict
    eval: Callable
    log_inv: Callable
    inv: Callable = None
    log_kinks: np.ndarray = field(default_factory=lambda: _NO_KINKS)
    log_linear: bool = False

    def __post_init__(self):
        if self.inv is None:
            object.__setattr__(self, "inv", _exp_of(self.log_inv, True))


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative continuous weight.

    ``log_eval`` maps ln(t) to ln(eval(t)); ``eval`` (unless given), every
    improper integral of a weight and its divergence verdict derive from it.
    ``log_kinks`` and ``log_linear`` describe ``log_eval`` as they do a
    Young function's ``log_inv``.
    """

    kind: str
    params: dict
    log_eval: Callable
    eval: Callable = None
    log_kinks: np.ndarray = field(default_factory=lambda: _NO_KINKS)
    log_linear: bool = False

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
        log_linear=True,
    )


def illinois_log_root(fun, lo, hi, f_lo, f_hi, rel_tol):
    """Bracketed Illinois regula falsi in u = ln x, vectorised over elements;
    the Luxemburg solve's root finder.

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


def make_section5_young(alpha: float) -> YoungFunction:
    """Three-piece log-domain inverse: slow correction below 1/r, the chord
    p_lin x + q_lin in the middle, reciprocal correction above r.  The two
    outer pieces are one expression, ``outer``.  The forward map inverts
    each piece on its own: the chord as (s - q_lin) / p_lin, and ``outer``
    by three vectorised Newton steps in v = ln Phi(s) from ln s +- g, the
    shift at the matching points.  Past the edges the slope of ``outer``
    lies in [1 - alpha/8, 1] and bends little, so three steps reach
    rounding for every alpha.  The pieces meet at the breakpoints
    +-ln r, and each is smooth."""
    if not 0.0 < alpha < E_MINUS_2:
        raise DomainError("section5 needs 0 < alpha < e^-2")
    r = SECTION5_R
    lr = math.log(r)
    # ln(sqrt(r)) = e^2, ln(ln(sqrt(r))) = 2, so the branch exponent at the
    # matching points is alpha * e^2 / 2.
    g = alpha * math.e ** 2 / 2.0
    # chord through (1/r, e^g/r) and (r, r e^-g); the intercept is written
    # in its cancellation-free form
    p_lin = (r * math.exp(-g) - math.exp(g) / r) / (r - 1.0 / r)
    q_lin = (math.exp(g) - math.exp(-g)) / (r - 1.0 / r)
    half_alpha = alpha / 2.0
    kinks = np.array([-lr, lr])
    kinks.flags.writeable = False

    def outer(v):
        """v - sign(v) alpha B / ln B with B = |v| / 2, for |v| >= ln r:
        taken as v - (alpha/2 v) / ln B, which rounds the same there, in
        one new array; a smaller |v| gets a finite or infinite number,
        and B = 0 or 1 divides by zero."""
        out = np.abs(v)
        out *= 0.5
        np.log(out, out=out)
        np.divide(half_alpha * v, out, out=out)
        return np.subtract(v, out, out=out)

    def log_inv(lx):
        lx = _as_array(lx)
        scalar = lx.ndim == 0
        lx = np.atleast_1d(lx)
        with np.errstate(divide="ignore"):  # the middle, which the chord overwrites
            out = outer(lx)
        mid = np.flatnonzero((lx >= -lr) & (lx < lr))
        out.put(mid, np.log(p_lin * np.exp(lx.take(mid)) + q_lin))
        return out[0] if scalar else out

    def ev(t):
        s = np.atleast_1d(_as_array(t))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(s <= 0.0, 0.0, (s - q_lin) / p_lin)  # the chord's inverse
            y = np.log(s)
            # outer(+-ln r) = +-(ln r - g); past that ln s, solve outer(v) = y
            far = (np.abs(y) >= lr - g) & (np.abs(y) < np.inf)
            y = y[far]
            v = y + np.copysign(g, y)
            for _ in range(3):
                lb = np.log(np.abs(v) / 2.0)
                v -= (outer(v) - y) / (1.0 - alpha / 2.0 * (1.0 / lb - 1.0 / lb ** 2))
            out[far] = np.exp(v)
        return float(out[0]) if np.ndim(t) == 0 else out

    return YoungFunction(
        kind="section5",
        params={"alpha": alpha, "r": r, "p_lin": p_lin, "q_lin": q_lin},
        eval=ev,
        log_inv=log_inv,
        log_kinks=kinks,
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
    lv.flags.writeable = False
    return YoungFunction(
        kind="table",
        params={"file": path},
        eval=_exp_of(lambda ly: np.interp(ly, lt, lv), True),
        log_inv=lambda lx: np.interp(lx, lv, lt),
        log_kinks=lv,
        log_linear=True,
    )


def make_power_weight(theta: float) -> WeightFunction:
    """Psi(t) = t**(-theta)."""
    return WeightFunction(
        kind="powerweight",
        params={"theta": theta},
        log_eval=lambda lt: -theta * _as_array(lt),
        log_linear=True,
    )


def make_section5_weight(phi: YoungFunction) -> WeightFunction:
    """Psi(t) = t / inv(t^2), the weight paired with a Young function.

    For the power preset with exponent p this collapses to
    t^(1 - 2/p), i.e. the critical power weight in dimension 2.  Its
    kinks are those of ``phi.log_inv``, halved, and it is linear between
    them where ``phi.log_inv`` is.
    """
    def log_ev(lt):
        lt = _as_array(lt)
        return lt - phi.log_inv(2.0 * lt)

    return WeightFunction(
        kind="section5weight" if phi.kind == "section5" else "pairedweight",
        params=dict(phi.params),
        log_eval=log_ev,
        log_kinks=phi.log_kinks / 2.0,
        log_linear=phi.log_linear,
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
