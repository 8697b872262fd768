"""Besov-Orlicz norm of a grid function: Orlicz part plus the weighted
integral of the translation modulus.

The seminorm integral runs over a finite window of scales.  Below the
grid spacing the modulus is taken linear in the shift length and above
the support diameter it saturates, so each end is a factor of the
modulus times an improper integral of the weight, taken from its
log-domain form on the rule of the condition integrals: exact on the
kinks of a piecewise log-linear weight, Gauss-Legendre panels on the
breakpoints of a smooth one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .condition import _condition_integral
from .errors import DivergenceError, DomainError, ResourceGuardError
from .grid import GridFunction
from .orlicz import ModulusCurve, ShiftNormCache, luxemburg_norm
from .young import WeightFunction, YoungFunction

MAX_NODES = 1_000_000  # seminorm quadrature nodes


@dataclass(frozen=True)
class BesovNorm:
    orlicz_part: float
    seminorm_part: float
    head_bound: float
    tail_bound: float
    curve: ModulusCurve

    @property
    def total(self):
        return self.orlicz_part + self.seminorm_part


def _weight_end(log_f, kinks, linear: bool, end: str, reason: str) -> float:
    """The integral of exp(log_f(u)) over u in [0, inf), or DivergenceError at ``end``:
    one row of the condition integrals' kernel on the breakpoints of log_f
    in u (an array), exact where log_f is ``linear`` between them."""
    (value,), _, (diverged,) = _condition_integral(log_f, kinks[None, :], linear)
    if diverged:
        raise DivergenceError(f"seminorm {end} integral diverges ({reason})", end=end)
    return float(value)


def _on_scale(omega, integral):
    """integral(omega), or where that is not finite 2^e integral(omega / 2^e),
    2^e the scale of the largest omega, as ``lp_norm`` does: a modulus near
    float max can have a finite weighted integral."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = integral(omega)
        if not math.isfinite(value):
            e = math.frexp(float(np.max(omega)))[1]
            value = np.ldexp(integral(np.ldexp(omega, -e)), e)
    return value


def saturated_tail(psi: WeightFunction, omega_sat: float, t_hi: float) -> float:
    """Integral of Psi(t) * omega_sat dt/t over [t_hi, infinity).

    The modulus is constant (saturated) past t_hi, so the tail is
    omega_sat times the integral of Psi(t) dt/t, taken in u = ln t - ln t_hi.
    """
    lt = math.log(t_hi)
    return omega_sat * _weight_end(lambda u: psi.log_eval(lt + u), psi.log_kinks - lt,
                                   psi.log_linear, "tail",
                                   "weight is not integrable against a bounded modulus")


def besov_orlicz_norm(f: GridFunction, phi: YoungFunction, psi: WeightFunction,
                      nodes: int = 256, t_head: float = None,
                      t_tail: float = None) -> BesovNorm:
    """The window [t_head, t_tail] (by default the grid spacing to just past
    the support diameter) takes a trapezoid rule on ``nodes`` geometric
    nodes.  The head below it is (omega(t_head) / t_head) times the
    integral of Psi over [0, t_head], and the tail above it is
    ``saturated_tail``; both raise DivergenceError when their integral of
    the weight diverges.
    """
    if nodes < 8:
        raise DomainError("seminorm quadrature needs at least 8 nodes")
    if nodes > MAX_NODES:
        raise ResourceGuardError(f"more than {MAX_NODES} nodes", guard="quadrature_nodes")
    orlicz = luxemburg_norm(f, phi).norm
    if orlicz == 0.0:
        return BesovNorm(0.0, 0.0, 0.0, 0.0, ModulusCurve(np.zeros(0), np.zeros(0)))

    h = f.spacing
    t_lo = t_head if t_head is not None else h
    t_hi = t_tail if t_tail is not None else f.support_diameter() + 2.0 * h
    if not 0.0 < t_lo < t_hi < np.inf:
        raise DomainError("scale window must satisfy 0 < t_head < t_tail < inf")

    ts = np.geomspace(t_lo, t_hi, nodes)
    cache = ShiftNormCache(f, phi)
    omega = cache.sup_up_to(ts)
    weights = np.asarray(psi.eval(ts), dtype=np.float64)
    mid = _on_scale(omega, lambda om: np.trapezoid(weights * om / ts, ts))

    # head: omega(t) <= (omega(t_lo)/t_lo) * t below the window, so the
    # integrand is Psi(t) times a constant; int_0^t_lo Psi dt in u = ln t_lo - ln t
    lo = math.log(t_lo)
    head_int = _weight_end(lambda u: psi.log_eval(lo - u) + lo - u, lo - psi.log_kinks,
                           psi.log_linear, "head", "weight is not integrable at 0")
    head = _on_scale(omega, lambda om: om[0] / t_lo * head_int)
    tail = saturated_tail(psi, cache.saturated(), t_hi)
    with np.errstate(over="ignore"):  # a seminorm past float max is inf
        seminorm = mid + head + tail
    return BesovNorm(orlicz, seminorm, head, tail, ModulusCurve(ts, omega))

