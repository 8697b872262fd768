"""Young functions, weight functions and their presets.

A Young function carries its forward map, its inverse, and (for the
presets) closed-form log-domain evaluators so that the improper-integral
machinery can work far outside float range.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

E_MINUS_2 = math.exp(-2.0)
SECTION5_R = math.exp(2.0 * math.e ** 2)


def _as_array(t):
    return np.asarray(t, dtype=np.float64)


@dataclass(frozen=True)
class YoungFunction:
    """Convex Young function with its inverse.

    ``eval`` and ``inv`` accept scalars or numpy arrays.  ``log_inv``
    maps ln(x) to ln(inv(x)) and is exact for the presets; a numeric
    fallback clips to float range.
    """

    kind: str
    params: dict
    eval: Callable
    inv: Callable
    log_inv: Optional[Callable] = None

    def inv_log(self, log_x):
        if self.log_inv is not None:
            return self.log_inv(log_x)
        x = np.exp(np.clip(_as_array(log_x), -690.0, 690.0))
        return np.log(np.maximum(self.inv(x), 1e-300))


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative continuous weight with asymptotic exponent metadata.

    ``zero_exponent`` is the power of t in eval(1/t) as t -> 0 and
    ``infinity_exponent`` the one as t -> infinity.
    """

    eval: Callable
    zero_exponent: float
    infinity_exponent: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    log_eval: Optional[Callable] = None

    def eval_log(self, log_t):
        if self.log_eval is not None:
            return self.log_eval(log_t)
        t = np.exp(np.clip(_as_array(log_t), -690.0, 690.0))
        return np.log(np.maximum(self.eval(t), 1e-300))

    def check_exponents(self, t_lo=1e-8, t_hi=1e8, tol=0.05):
        """Finite-difference log-slopes of eval(1/t) at both endpoints."""
        def slope(t):
            f = lambda x: float(self.eval_log(-math.log(x)))
            dl = 1e-3
            return (f(t * math.exp(dl)) - f(t)) / dl

        s_lo = slope(t_lo)
        s_hi = slope(t_hi)
        return (
            abs(s_lo - self.zero_exponent) <= tol,
            abs(s_hi - self.infinity_exponent) <= tol,
            s_lo,
            s_hi,
        )


@dataclass(frozen=True)
class Section5Params:
    alpha: float
    r: float
    p_lin: float
    q_lin: float

    def __post_init__(self):
        if not self.alpha * math.log(self.r) / math.log(math.log(self.r)) <= 1.0 + 1e-12:
            raise DomainError("alpha*ln(r)/ln(ln(r)) must not exceed 1")


@dataclass
class ValidationReport:
    zero_at_zero: bool
    monotone: bool
    midpoint_convex: bool
    superlinear_at_inf: bool
    sublinear_at_zero: bool

    @property
    def all_pass(self):
        return all(
            [
                self.zero_at_zero,
                self.monotone,
                self.midpoint_convex,
                self.superlinear_at_inf,
                self.sublinear_at_zero,
            ]
        )


def make_power_young(p: float) -> YoungFunction:
    """Phi(t) = t**p for p > 1."""
    if not p > 1.0:
        raise DomainError("power Young function needs p > 1")

    def ev(t):
        return _as_array(t) ** p

    def inv(s):
        return _as_array(s) ** (1.0 / p)

    return YoungFunction(
        kind="power",
        params={"p": p},
        eval=ev,
        inv=inv,
        log_inv=lambda lx: _as_array(lx) / p,
    )


def _invert_monotone(inv, s, rel_tol=1e-12, max_iter=200):
    """Solve inv(t) = s for t by bracketed bisection with doubling bracket."""
    if s <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    it = 0
    while inv(hi) < s:
        lo = hi
        hi *= 2.0
        it += 1
        if it > 2000:
            raise ArithmeticError("bracket growth failed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if inv(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def section5_params(alpha: float) -> Section5Params:
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
    return Section5Params(alpha=alpha, r=r, p_lin=p_lin, q_lin=q_lin)


def make_section5_young(alpha: float) -> YoungFunction:
    """Three-piece inverse: slow correction below 1/r, linear middle,
    reciprocal correction above r.  The forward map comes from bisection."""
    par = section5_params(alpha)
    r, p_lin, q_lin = par.r, par.p_lin, par.q_lin

    def inv(t):
        t = _as_array(t)
        scalar = t.ndim == 0
        t = np.atleast_1d(t).astype(np.float64)
        out = np.empty_like(t)
        low = t < 1.0 / r
        mid = (t >= 1.0 / r) & (t < r)
        high = t >= r
        tl = t[low]
        with np.errstate(divide="ignore", invalid="ignore"):
            big_l = np.log(1.0 / np.sqrt(tl))  # > 1 on this branch
            out[low] = np.where(
                tl > 0.0, tl * np.exp(alpha * big_l / np.log(big_l)), 0.0
            )
        out[mid] = p_lin * t[mid] + q_lin
        th = t[high]
        big_h = np.log(np.sqrt(th))
        out[high] = th * np.exp(-alpha * big_h / np.log(big_h))
        return out[0] if scalar else out

    def log_inv(lx):
        lx = _as_array(lx)
        scalar = lx.ndim == 0
        lx = np.atleast_1d(lx).astype(np.float64)
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
        t = _as_array(t)
        if t.ndim == 0:
            return _invert_monotone(lambda x: inv(float(x)), float(t))
        return np.array([_invert_monotone(lambda x: inv(float(x)), float(v)) for v in t])

    return YoungFunction(
        kind="section5",
        params={"alpha": alpha, "r": r, "p_lin": p_lin, "q_lin": q_lin},
        eval=ev,
        inv=inv,
        log_inv=log_inv,
    )


def make_table_young(path: str) -> YoungFunction:
    """Young function from a two-column CSV (t, Phi(t)), log-log interpolated."""
    ts, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            ts.append(float(row[0]))
            vs.append(float(row[1]))
    ts = np.asarray(ts)
    vs = np.asarray(vs)
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

    def inv(s):
        s = _as_array(s)
        with np.errstate(divide="ignore"):
            res = np.exp(np.interp(np.log(np.maximum(s, 1e-300)), lv, lt))
        return np.where(s > 0.0, res, 0.0)

    return YoungFunction(
        kind="table",
        params={"file": path},
        eval=ev,
        inv=inv,
    )


def make_power_weight(theta: float) -> WeightFunction:
    """Psi(t) = t**(-theta); Psi(1/t) = t**theta at both ends."""
    def ev(t):
        return _as_array(t) ** (-theta)

    return WeightFunction(
        eval=ev,
        zero_exponent=theta,
        infinity_exponent=theta,
        kind="powerweight",
        params={"theta": theta},
        log_eval=lambda lt: -theta * _as_array(lt),
    )


def make_section5_weight(phi: YoungFunction) -> WeightFunction:
    """Psi(t) = t / inv(t^2), the weight paired with a Young function.

    For the power preset with exponent p this collapses to
    t^(1 - 2/p), i.e. the critical power weight in dimension 2.
    """
    def ev(t):
        t = _as_array(t)
        denom = phi.inv(t ** 2)
        if np.any((_as_array(t) > 0.0) & (denom == 0.0)):
            raise DomainError("inv(t^2) vanishes at a positive t")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t > 0.0, t / np.where(denom > 0, denom, 1.0), 0.0)
        return out

    def log_ev(lt):
        lt = _as_array(lt)
        return lt - phi.inv_log(2.0 * lt)

    if phi.kind == "power":
        p = phi.params["p"]
        z = 2.0 / p - 1.0
        zero_exp, inf_exp = z, z
    else:
        # sub-polynomial corrections; the leading power is 1 for section5
        zero_exp, inf_exp = 1.0, 1.0

    return WeightFunction(
        eval=ev,
        zero_exponent=zero_exp,
        infinity_exponent=inf_exp,
        kind="section5weight" if phi.kind == "section5" else "pairedweight",
        params=dict(phi.params),
        log_eval=log_ev,
    )


def validate_young(phi: YoungFunction, sample_grid) -> ValidationReport:
    grid = np.asarray(sample_grid, dtype=np.float64)
    if grid.size == 0:
        raise DomainError("empty sample grid")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise DomainError("sample grid must be strictly positive and sorted")
    vals = phi.eval(grid)
    zero_at_zero = float(phi.eval(0.0)) == 0.0
    monotone = bool(np.all(np.diff(vals) > 0))
    mids = phi.eval(0.5 * (grid[:-1] + grid[1:]))
    midpoint_convex = bool(np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) * (1 + 1e-9)))
    # superlinear at infinity: t/Phi(t) strictly decreasing along the grid tail
    tail = grid[-min(8, grid.size):]
    ratio_tail = tail / phi.eval(tail)
    superlinear = bool(np.all(np.diff(ratio_tail) < 0))
    # sublinear at zero: Phi(t)/t strictly decreasing toward the grid head
    head = grid[: min(8, grid.size)]
    ratio_head = phi.eval(head) / head
    sublinear = bool(np.all(np.diff(ratio_head) > 0))
    return ValidationReport(zero_at_zero, monotone, midpoint_convex, superlinear, sublinear)


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
