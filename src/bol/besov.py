"""Besov-Orlicz norm of a grid function: Orlicz part plus the weighted
integral of the translation modulus.

The seminorm integral runs over a finite window of scales; below the
grid spacing the modulus is linear in the shift length and above the
support diameter it saturates, so both ends get closed-form bounds
instead of quadrature nodes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .grid import GridFunction, lp_norm, total_variation
from .orlicz import ModulusCurve, ShiftNormCache, luxemburg_norm
from .young import WeightFunction, YoungFunction


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 256
    t_head: float = None  # defaults to the grid spacing
    t_tail: float = None  # defaults to just past the support diameter
    truncate_divergent_head: bool = False

    def __post_init__(self):
        if self.nodes < 8:
            raise DomainError("seminorm quadrature needs at least 8 nodes")


@dataclass(frozen=True)
class BesovNorm:
    orlicz_part: float
    seminorm_part: float
    head_bound: float
    tail_bound: float
    head_truncated: bool
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
                      quad: QuadratureConfig = None) -> BesovNorm:
    quad = quad or QuadratureConfig()
    orlicz = luxemburg_norm(f, phi).norm
    if orlicz == 0.0:
        empty = ModulusCurve(np.zeros(0), np.zeros(0), 0)
        return BesovNorm(0.0, 0.0, 0.0, 0.0, False, empty)

    h = f.spacing
    diam = f.support_diameter()
    t_lo = quad.t_head if quad.t_head is not None else h
    t_hi = quad.t_tail if quad.t_tail is not None else diam + 2.0 * h
    if not 0.0 < t_lo < t_hi:
        raise DomainError("scale window must satisfy 0 < t_head < t_tail")

    ts = np.geomspace(t_lo, t_hi, quad.nodes)
    cache = ShiftNormCache(f, phi)
    omega = np.array([cache.sup_up_to(float(t)) for t in ts])
    weights = np.asarray(psi.eval(ts), dtype=np.float64)
    mid = float(np.trapezoid(weights * omega / ts, ts))
    curve = ModulusCurve(ts, omega, cache.evaluated)

    # head: omega(t) <= (omega(t_lo)/t_lo) * t below the window, so the
    # integrand behaves like Psi(t) times a constant
    head_truncated = False
    if psi.infinity_exponent < 1.0:
        slope = omega[0] / t_lo
        head = slope * float(psi.eval(t_lo)) * t_lo / (1.0 - psi.infinity_exponent)
    elif quad.truncate_divergent_head:
        head = 0.0
        head_truncated = True
    else:
        raise DivergenceError(
            "seminorm head integral diverges (weight grows at least like 1/t)",
            end="head",
        )

    tail = saturated_tail(psi, cache.saturated(), t_hi)

    return BesovNorm(orlicz, mid + head + tail, head, tail, head_truncated, curve)


def besov_bv_ratio(f: GridFunction, phi: YoungFunction, psi: WeightFunction,
                   quad: QuadratureConfig = None) -> float:
    """Besov-Orlicz norm over the BV norm (L1 plus discrete TV)."""
    bv = lp_norm(f, 1) + total_variation(f)
    if bv == 0.0:
        raise DomainError("ratio undefined for the zero function")
    return besov_orlicz_norm(f, phi, psi, quad).total / bv
