"""Besov-Orlicz norm of a grid function: Orlicz part plus the weighted
integral of the translation modulus.

The seminorm integral runs over a finite window of scales; below the
grid spacing the modulus is linear in the shift length and above the
support diameter it saturates, so both ends get closed-form bounds
instead of quadrature nodes.
"""

from dataclasses import dataclass

import numpy as np

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


def saturated_tail(psi: WeightFunction, omega_sat: float, t_hi: float) -> float:
    """Integral of Psi(t) * omega_sat dt/t over [t_hi, infinity).

    The modulus is constant (saturated) past t_hi, so the tail has the
    closed form omega_sat * Psi(t_hi) / zero_exponent.
    """
    if psi.zero_exponent <= 0.0:
        raise DivergenceError(
            "seminorm tail integral diverges (weight is not integrable "
            "against a bounded modulus)",
            end="tail",
        )
    return omega_sat * float(psi.eval(t_hi)) / psi.zero_exponent


def besov_orlicz_norm(f: GridFunction, phi: YoungFunction, psi: WeightFunction,
                      nodes: int = 256, t_head: float = None,
                      t_tail: float = None) -> BesovNorm:
    """The window [t_head, t_tail] (by default the grid spacing to just past
    the support diameter) takes a trapezoid rule on ``nodes`` geometric
    nodes; the head below it and the saturated tail above it are closed forms.
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
    # integrand behaves like Psi(t) times a constant
    if not psi.infinity_exponent < 1.0:
        raise DivergenceError(
            "seminorm head integral diverges (weight grows at least like 1/t)",
            end="head",
        )
    slope = omega[0] / t_lo
    head = slope * float(psi.eval(t_lo)) * t_lo / (1.0 - psi.infinity_exponent)
    tail = saturated_tail(psi, cache.saturated(), t_hi)
    return BesovNorm(orlicz, mid + head + tail, head, tail, ModulusCurve(ts, omega))

