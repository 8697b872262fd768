import math
import warnings

import mpmath
import numpy as np
import pytest

from bol.besov import BesovNorm, besov_orlicz_norm, saturated_tail
from bol.errors import DivergenceError, DomainError
from bol.grid import GridFunction
from bol.orlicz import ShiftNormCache
from bol.young import (SECTION5_R, critical_theta, make_power_weight, make_power_young,
                       make_section5_weight, make_section5_young)
from conftest import ball_indicator

PHI = make_power_young(1.3)
PSI = make_power_weight(critical_theta(1.3, 2))


def small_ball():
    return ball_indicator(2, 0.5, 0.1).grid


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        besov_orlicz_norm(small_ball(), PHI, PSI, nodes=4)


def test_zero_function_is_zero():
    z = GridFunction(1.0, (0.0, 0.0), np.zeros((3, 3)))
    bn = besov_orlicz_norm(z, PHI, PSI)
    assert bn.total == 0.0


def test_parts_positive_and_consistent():
    bn = besov_orlicz_norm(small_ball(), PHI, PSI, nodes=64)
    assert bn.orlicz_part > 0 and bn.seminorm_part > 0
    assert bn.total == pytest.approx(bn.orlicz_part + bn.seminorm_part)
    assert bn.head_bound >= 0 and bn.tail_bound > 0
    assert np.all(np.diff(bn.curve.values) >= -1e-12)


def test_homogeneity():
    f = small_ball()
    one = besov_orlicz_norm(f, PHI, PSI, nodes=48).total
    three = besov_orlicz_norm(GridFunction(f.spacing, f.origin, 3.0 * f.values),
                              PHI, PSI, nodes=48).total
    assert three == pytest.approx(3.0 * one, rel=1e-9)


def test_divergent_head_raises_and_can_truncate():
    psi_div = make_power_weight(1.2)  # Psi(t) = t^-1.2 blows up at the head
    f = small_ball()
    with pytest.raises(DivergenceError) as exc:
        besov_orlicz_norm(f, PHI, psi_div, nodes=32)
    assert exc.value.end == "head"


def test_divergent_tail_raises():
    psi = make_power_weight(-0.2)  # not integrable against a constant modulus
    with pytest.raises(DivergenceError) as exc:
        besov_orlicz_norm(small_ball(), PHI, psi, nodes=32)
    assert exc.value.end == "tail"


def test_saturated_modulus_doubles_the_modular():
    f = GridFunction(0.5, (0.0, 0.0), np.ones((2, 2)))
    # two disjoint unit-value squares of measure 1 each: norm of an
    # indicator of measure 2
    expect = 1.0 / float(PHI.inv(0.5))
    assert ShiftNormCache(f, PHI).saturated() == pytest.approx(expect, rel=1e-12)


def test_quadrature_refinement_is_stable():
    f = small_ball()
    coarse = besov_orlicz_norm(f, PHI, PSI, nodes=64).total
    fine = besov_orlicz_norm(f, PHI, PSI, nodes=256).total
    assert fine == pytest.approx(coarse, rel=2e-3)


@pytest.mark.parametrize("theta", [0.2, 0.5385, 0.9])
def test_power_weight_ends_match_their_closed_forms(theta):
    f = small_ball()
    bn = besov_orlicz_norm(f, PHI, make_power_weight(theta), nodes=32)
    t_lo, t_hi = f.spacing, f.support_diameter() + 2.0 * f.spacing
    omega_sat = ShiftNormCache(f, PHI).saturated()
    assert bn.head_bound == pytest.approx(
        bn.curve.values[0] * t_lo ** -theta / (1.0 - theta), rel=1e-14)
    assert bn.tail_bound == pytest.approx(omega_sat * t_hi ** -theta / theta, rel=1e-14)


def test_power_weight_ends_near_their_edges_match_their_closed_forms():
    # the head log-slope is theta - 1 and the tail log-slope -theta: both
    # ends converge for every 0 < theta < 1, however slowly
    f = small_ball()
    t_lo, t_hi = f.spacing, f.support_diameter() + 2.0 * f.spacing
    omega_sat = ShiftNormCache(f, PHI).saturated()
    head = besov_orlicz_norm(f, PHI, make_power_weight(0.9995), nodes=32)
    # its log form -theta (ln t_lo - u) + ln t_lo - u carries a rounding of
    # about theta |u| 1.1e-16, so over a slope of 5e-4 the value is good to
    # about 2e-13 (measured 2.1e-13)
    assert head.head_bound == pytest.approx(
        head.curve.values[0] * t_lo ** -0.9995 / (1.0 - 0.9995), rel=1e-12)
    tail = besov_orlicz_norm(f, PHI, make_power_weight(0.0005), nodes=32)
    assert tail.tail_bound == pytest.approx(omega_sat * t_hi ** -0.0005 / 0.0005, rel=1e-14)


def mp_section5_weight(alpha):
    """Psi(t) = t / inv(t^2) of the section5 pair at the working precision."""
    alpha, r = mpmath.mpf(alpha), mpmath.exp(2 * mpmath.e ** 2)
    g = alpha * mpmath.e ** 2 / 2
    p = (r * mpmath.exp(-g) - mpmath.exp(g) / r) / (r - 1 / r)
    q = (mpmath.exp(g) - mpmath.exp(-g)) / (r - 1 / r)

    def inv(x):
        if x < 1 / r:
            big_l = mpmath.log(1 / mpmath.sqrt(x))
            return x * mpmath.exp(alpha * big_l / mpmath.log(big_l))
        if x < r:
            return p * x + q
        big_h = mpmath.log(mpmath.sqrt(x))
        return x * mpmath.exp(-alpha * big_h / mpmath.log(big_h))

    return lambda t: t / inv(t * t)


def test_section5_weight_ends_match_mpmath():
    # the branch kinks of inv(t^2) sit at t = r^-1/2 (ln 1/t = e^2) and
    # t = r^1/2 (ln t = e^2); both integrals run in a log variable
    psi = make_section5_weight(make_section5_young(0.1))
    f = small_ball()
    with mpmath.workdps(30):
        mp_psi = mp_section5_weight("0.1")
        for h in (1.0, 1.0 / 16):
            breaks = [math.e ** 2, 20, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5]
            lo = mpmath.log(1 / mpmath.mpf(h))
            want = mpmath.quad(lambda big_l: mp_psi(mpmath.exp(-big_l)) * mpmath.exp(-big_l),
                               [lo] + [b for b in breaks if b > lo] + [mpmath.inf])
            bn = besov_orlicz_norm(f, PHI, psi, nodes=32, t_head=h, t_tail=8.0)
            got = bn.head_bound * h / bn.curve.values[0]
            assert got == pytest.approx(float(want), rel=1e-9), h
        for t_hi in (0.25, 2.0, 8.0):
            breaks = [math.log(SECTION5_R) / 2, 20, 50, 100, 300, 1e3]
            lo = mpmath.log(mpmath.mpf(t_hi))
            want = mpmath.quad(lambda big_h: mp_psi(mpmath.exp(big_h)),
                               [lo] + [b for b in breaks if b > lo] + [mpmath.inf])
            assert saturated_tail(psi, 1.0, t_hi) == pytest.approx(float(want), rel=1e-9), t_hi


# The section5 weight's seminorm ends at t = h, at 30 digits: the integral
# of Psi(t) dt over [0, h] (the head, besov_orlicz_norm's head_bound per
# omega(h)/h) and of Psi(t) dt/t over [h, inf) (saturated_tail per
# omega_sat), by mpmath.quad (mp.dps = 30) in u = |ln t - ln h|, split at
# the weight's breakpoints ln t = +-e^2 and at u = 60, 1e3, 3e4.
SECTION5_ENDS = {1.0: (45.3911780774162861905851464579, 1.4469652410861265443058656617),
                 1.0 / 16: (41.3794782851318980470375686937, 23.1502799554609433322310670376)}


def test_section5_weight_ends_match_30_digit_references():
    psi = make_section5_weight(make_section5_young(0.1))
    f = small_ball()
    for h, (head, tail) in SECTION5_ENDS.items():
        bn = besov_orlicz_norm(f, PHI, psi, nodes=32, t_head=h, t_tail=8.0)
        assert bn.head_bound * h / bn.curve.values[0] == pytest.approx(head, rel=1e-9), h
        assert saturated_tail(psi, 1.0, h) == pytest.approx(tail, rel=1e-9), h


def test_a_modulus_near_float_max_keeps_its_finite_head():
    # omega(h) = 5.64e306 at h = 0.01: omega(h) / h and the window's
    # integrand overflow on their own scale, while the head
    # omega(h) h^-theta / (1 - theta) = 1.13e308 is finite
    f = GridFunction(0.01, (0.0,), np.array([2.0 ** 1023, 0.0, 2.0 ** 1022, 2.0 ** 1021]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bn = besov_orlicz_norm(f, make_power_young(1.3), make_power_weight(0.5))
    omega_h = float(bn.curve.values[0])
    assert omega_h == pytest.approx(5.642447957121747e306, rel=1e-12)
    assert bn.head_bound == pytest.approx(omega_h * 0.01 ** -0.5 / 0.5, rel=1e-14)
    assert math.isfinite(bn.tail_bound)
    # the window adds at least omega(h) times the integral of t^-1.5 over
    # [0.01, 0.06], 6.7e307, so the seminorm is past float max
    assert bn.seminorm_part == math.inf
