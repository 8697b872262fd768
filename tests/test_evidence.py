import math

import numpy as np
import pytest

from bol.corpus import make_corpus
from bol.errors import DivergenceError, DomainError
from bol.evidence import (ball_besov_parts, ball_symdiff_volume, lemma6_check,
                          measured_iso_constant, necessity_ball_experiment,
                          sobolev_check, sufficiency_molecule_estimates)
from bol.grid import GridFunction, unit_ball_volume
from bol.young import critical_theta, make_power_weight, make_power_young

PHI = make_power_young(1.3)
PSI_CRIT = make_power_weight(critical_theta(1.3, 2))


def test_symdiff_oracles():
    # 1d: two intervals of length 2r offset by delta
    assert ball_symdiff_volume(1, 1.0, 0.5) == pytest.approx(1.0)
    assert ball_symdiff_volume(1, 1.0, 3.0) == pytest.approx(4.0)
    # coincident balls have empty symmetric difference
    for d in (1, 2, 3):
        assert ball_symdiff_volume(d, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        far = ball_symdiff_volume(d, 1.0, 2.0)
        assert far == pytest.approx(2.0 * unit_ball_volume(d))
    with pytest.raises(DomainError):
        ball_symdiff_volume(4, 1.0, 0.5)


def test_symdiff_monotone_in_distance():
    deltas = np.linspace(0.0, 2.0, 21)
    vols = [ball_symdiff_volume(2, 1.0, d) for d in deltas]
    assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))


def test_lemma6_exact_dimensions():
    for d in (1, 2):
        rec = lemma6_check(d, 1.0, [0.1, 0.5, 0.9])
        assert rec.passed
        for row in rec.measured["rows"]:
            assert row["exact"] >= row["bound"]


def test_lemma6_monte_carlo_d3_small():
    rec = lemma6_check(3, 1.0, [0.5], n_samples=200_000)
    assert rec.passed
    row = rec.measured["rows"][0]
    assert abs(row["mc"] - row["exact"]) <= 3.0 * row["mc_stderr"]


def test_lemma6_offset_domain():
    with pytest.raises(DomainError):
        lemma6_check(2, 1.0, [1.5])


def test_measured_iso_constant_is_a_quarter():
    # squares are the anisotropic-perimeter maximizers
    assert measured_iso_constant(n=32) == pytest.approx(0.25, abs=1e-12)


def test_necessity_critical_pair_ratios_stable():
    rec = necessity_ball_experiment(PHI, PSI_CRIT, 2, [1, 0.5, 0.25, 0.125])
    assert rec.measured["ratio_spread"] < 0.10
    assert not any(r["head_truncated"] for r in rec.measured["rows"])


def test_necessity_failing_pair_ratios_grow():
    psi = make_power_weight(0.8)
    rec = necessity_ball_experiment(PHI, psi, 2, [1, 0.5, 0.25, 0.125])
    ratios = [r["ratio"] for r in rec.measured["rows"]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert rec.measured["growth_factor"] > 1.3


def test_ball_parts_nonintegrable_tail_raises():
    psi = make_power_weight(-0.2)  # not integrable against a constant modulus
    with pytest.raises(DivergenceError) as exc:
        ball_besov_parts(PHI, psi, 2, 0.5)
    assert exc.value.end == "tail"


def test_necessity_rejects_bad_radii():
    with pytest.raises(DomainError):
        necessity_ball_experiment(PHI, PSI_CRIT, 2, [0.5, 1.0])


def test_sufficiency_estimates_on_small_function():
    v = np.zeros((16, 16))
    v[4:12, 4:12] = 1.0
    v[6:10, 6:10] = 2.0
    f = GridFunction(1.0 / 16, (0.0, 0.0), v)
    rec = sufficiency_molecule_estimates(f, PHI, PSI_CRIT, 2)
    assert rec.passed, rec.measured
    assert rec.measured["seminorm"] <= rec.measured["budget"] * 1.1


def test_sobolev_ratios_bounded():
    rec = sobolev_check(make_corpus(seed=7, dim=2, n=24, size=8), 2)
    assert rec.measured["max_ratio"] < 1.0
    with pytest.raises(DomainError):
        sobolev_check([], 2)
