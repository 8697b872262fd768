import numpy as np
import pytest

from bol.besov import (BesovNorm, QuadratureConfig, besov_bv_ratio,
                       besov_orlicz_norm)
from bol.errors import DivergenceError, DomainError
from bol.grid import GridFunction, ball_indicator
from bol.orlicz import ShiftNormCache
from bol.young import critical_theta, make_power_weight, make_power_young

PHI = make_power_young(1.3)
PSI = make_power_weight(critical_theta(1.3, 2))


def small_ball():
    return ball_indicator(2, 0.5, 0.1).grid


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=4)


def test_zero_function_is_zero():
    z = GridFunction(1.0, (0.0, 0.0), np.zeros((3, 3)))
    bn = besov_orlicz_norm(z, PHI, PSI)
    assert bn.total == 0.0


def test_parts_positive_and_consistent():
    bn = besov_orlicz_norm(small_ball(), PHI, PSI, QuadratureConfig(nodes=64))
    assert bn.orlicz_part > 0 and bn.seminorm_part > 0
    assert bn.total == pytest.approx(bn.orlicz_part + bn.seminorm_part)
    assert bn.head_bound >= 0 and bn.tail_bound > 0
    assert not bn.head_truncated
    assert np.all(np.diff(bn.curve.values) >= -1e-12)


def test_homogeneity():
    f = small_ball()
    quad = QuadratureConfig(nodes=48)
    one = besov_orlicz_norm(f, PHI, PSI, quad).total
    three = besov_orlicz_norm(f.scaled(3.0), PHI, PSI, quad).total
    assert three == pytest.approx(3.0 * one, rel=1e-9)


def test_divergent_head_raises_and_can_truncate():
    psi_div = make_power_weight(1.2)  # Psi(t) = t^-1.2 blows up at the head
    f = small_ball()
    with pytest.raises(DivergenceError) as exc:
        besov_orlicz_norm(f, PHI, psi_div, QuadratureConfig(nodes=32))
    assert exc.value.end == "head"
    bn = besov_orlicz_norm(
        f, PHI, psi_div,
        QuadratureConfig(nodes=32, truncate_divergent_head=True),
    )
    assert bn.head_truncated and bn.head_bound == 0.0


def test_divergent_tail_raises():
    psi = make_power_weight(-0.2)  # not integrable against a constant modulus
    with pytest.raises(DivergenceError) as exc:
        besov_orlicz_norm(small_ball(), PHI, psi, QuadratureConfig(nodes=32))
    assert exc.value.end == "tail"


def test_bv_ratio_guards_zero():
    z = GridFunction(1.0, (0.0, 0.0), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        besov_bv_ratio(z, PHI, PSI)


def test_saturated_modulus_doubles_the_modular():
    f = GridFunction(0.5, (0.0, 0.0), np.ones((2, 2)))
    # two disjoint unit-value squares of measure 1 each: norm of an
    # indicator of measure 2
    expect = 1.0 / float(PHI.inv(0.5))
    assert ShiftNormCache(f, PHI).saturated() == pytest.approx(expect, rel=1e-12)


def test_quadrature_refinement_is_stable():
    f = small_ball()
    coarse = besov_orlicz_norm(f, PHI, PSI, QuadratureConfig(nodes=64)).total
    fine = besov_orlicz_norm(f, PHI, PSI, QuadratureConfig(nodes=256)).total
    assert fine == pytest.approx(coarse, rel=2e-3)
