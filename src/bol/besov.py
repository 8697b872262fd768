"""Besov-Orlicz norm of a grid function: Orlicz part plus the weighted
integral of the translation modulus.

The seminorm integral runs over a finite window of scales.  Below the
grid spacing the modulus is taken linear in the shift length and above
the support diameter it saturates, so each end is a factor of the
modulus times an improper integral of the weight, taken from its
log-domain form on the rule of the condition integrals: exact on the
kinks of a piecewise log-linear weight.
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


def _weight_end(log_f, kinks, end: str, reason: str) -> float:
    """The integral of exp(log_f(u)) over u in [0, inf), or DivergenceError at ``end``:
    one row of the condition integrals' kernel, exact on the kinks of log_f
    in u (an array, or None for a smooth weight)."""
    (value,), _, (diverged,) = _condition_integral(
        log_f, None if kinks is None else kinks[None, :])
    if diverged:
        raise DivergenceError(f"seminorm {end} integral diverges ({reason})", end=end)
    return float(value)


def saturated_tail(psi: WeightFunction, omega_sat: float, t_hi: float) -> float:
    """Integral of Psi(t) * omega_sat dt/t over [t_hi, infinity).

    The modulus is constant (saturated) past t_hi, so the tail is
    omega_sat times the integral of Psi(t) dt/t, taken in u = ln t - ln t_hi.
    """
    lt = math.log(t_hi)
    kinks = None if psi.log_kinks is None else psi.log_kinks - lt
    return omega_sat * _weight_end(lambda u: psi.log_eval(lt + u), kinks, "tail",
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
    mid = float(np.trapezoid(weights * omega / ts, ts))

    # head: omega(t) <= (omega(t_lo)/t_lo) * t below the window, so the
    # integrand is Psi(t) times a constant; int_0^t_lo Psi dt in u = ln t_lo - ln t
    lo = math.log(t_lo)
    kinks = None if psi.log_kinks is None else lo - psi.log_kinks
    head = omega[0] / t_lo * _weight_end(lambda u: psi.log_eval(lo - u) + lo - u, kinks,
                                         "head", "weight is not integrable at 0")
    tail = saturated_tail(psi, cache.saturated(), t_hi)
    return BesovNorm(orlicz, mid + head + tail, head, tail, ModulusCurve(ts, omega))

