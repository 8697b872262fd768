"""Headline acceptance checks, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
test also asserts, so a FAIL line comes with a failing test.
"""

import math
import time

import numpy as np
import pytest

from bol.condition import (condition_sup, section5_first_bound,
                           section5_second_bound)
from bol.corpus import random_piecewise_constant
from bol.errors import DivergenceError
from bol.evidence import lemma6_check, necessity_ball_experiment
from bol.grid import GridFunction, lp_norm, total_variation
from bol.molecules import decompose, molecule_count_bound, verify_r1_r2, verify_r3
from bol.orlicz import l1_modulus, luxemburg_norm
from bol.young import (SECTION5_R, critical_theta, make_power_weight,
                       make_power_young)
from conftest import measured_iso_constant


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({detail})")


# one shared seeded corpus for criteria 4-6 (100 functions, grids <= 128^2)
def _corpus():
    rng = np.random.default_rng(0xB01)
    sizes = [16] * 30 + [32] * 30 + [64] * 25 + [128] * 15
    return [random_piecewise_constant(rng, dim=2, n=n, h=1.0 / n, n_pieces=6)
            for n in sizes]


CORPUS = _corpus()


def test_criterion_1_power_law_oracle():
    t0 = time.time()
    worst = 0.0
    for p in (1.2, 1.3, 1.4):
        phi = make_power_young(p)
        psi = make_power_weight(critical_theta(p, 2))
        rep = condition_sup(phi, psi, 2, s_range=(1e-6, 1e12), n_points=97)
        closed = p / (2.0 - p) + p / (p - 1.0)
        rel = abs(rep.D_hat - closed) / closed
        worst = max(worst, rel)
        assert rep.verdict == "bounded", (p, rep.verdict)
        assert rel < 0.01, (p, rep.D_hat, closed)
    elapsed = time.time() - t0
    ok = worst < 0.01 and elapsed < 10.0
    _line(1, "power-law closed-form oracle", ok,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_off_critical_divergence():
    t0 = time.time()
    phi = make_power_young(1.3)
    psi = make_power_weight(0.8)
    rep = condition_sup(phi, psi, 2, s_range=(1e-2, 1e10), n_points=49)
    expected = 0.8 - critical_theta(1.3, 2)
    err = abs(rep.tail_slope - expected)
    elapsed = time.time() - t0
    ok = rep.verdict == "unbounded" and err < 0.03 and elapsed < 10.0
    _line(2, "off-critical divergence slope", ok,
          f"slope {rep.tail_slope:.4f} vs {expected:.4f}, {elapsed:.1f}s")
    assert rep.verdict == "unbounded"
    assert err < 0.03
    assert elapsed < 10.0


def test_criterion_3_section5_example():
    t0 = time.time()
    r = SECTION5_R
    rows = section5_first_bound(0.1, np.geomspace(r, 1e3 * r, 20))
    below_two = all(ok for _, _, _, ok in rows)
    v1, _ = section5_second_bound(0.1, r, x_span=1e5)
    v2, _ = section5_second_bound(0.1, r, x_span=2e5)
    rel = abs(v2 - v1) / v1
    elapsed = time.time() - t0
    ok = below_two and rel < 1e-6 and elapsed < 30.0
    _line(3, "example first bound < 2, second bound converges", ok,
          f"max first {max(v for _, v, _, _ in rows):.4f}, doubling rel {rel:.1e}, "
          f"{elapsed:.1f}s")
    assert below_two
    assert rel < 1e-6
    assert elapsed < 30.0


def test_criterion_4_molecular_decomposition():
    t0 = time.time()
    worst_l1 = worst_tv = 0.0
    for f in CORPUS:
        dec = decompose(f)
        rep = verify_r1_r2(dec)
        assert rep.reconstruction_exact
        assert rep.l1_rel_error <= 1e-12 and rep.tv_rel_error <= 1e-12
        assert rep.halving_ok
        assert len(dec.molecules) <= molecule_count_bound(dec)
        worst_l1 = max(worst_l1, rep.l1_rel_error)
        worst_tv = max(worst_tv, rep.tv_rel_error)
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _line(4, "decomposition exact on 100-function corpus", ok,
          f"worst rel err l1 {worst_l1:.1e} tv {worst_tv:.1e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_5_balance_budget():
    c_iso = measured_iso_constant(n=128)
    budget = 2.0 ** (2.0 - 1.0 / 2.0) * c_iso
    worst = 0.0
    for f in CORPUS:
        dec = decompose(f)
        mx, _ = verify_r3(dec)
        worst = max(worst, mx)
    ok = worst <= budget * 1.05
    _line(5, "layer balance ratio within isoperimetric budget", ok,
          f"worst {worst:.4f} vs budget {budget:.4f} (C_iso {c_iso:.4f})")
    assert worst <= budget * 1.05


def test_criterion_6_l1_modulus_bound():
    t0 = time.time()
    worst = 0.0
    for f in CORPUS:
        h = f.spacing
        tv = total_variation(f)
        if tv == 0.0:
            continue
        for t in (4 * h, 16 * h, 64 * h):
            lhs = l1_modulus(f, t)
            rhs = t * tv * (1.0 + 2.0 * h / t)
            worst = max(worst, lhs / rhs)
            assert lhs <= rhs * (1.0 + 1e-12), (t, lhs, rhs)
    # equality case: 1d indicators at lattice-multiple translations
    ind = GridFunction(0.1, (0.0,), np.ones(30))
    eq_err = 0.0
    for k in (2, 5, 9):
        t = k * 0.1
        eq_err = max(eq_err, abs(l1_modulus(ind, t) - t * total_variation(ind)))
    elapsed = time.time() - t0
    ok = eq_err < 1e-10
    _line(6, "translation L1 bound t*TV with grid buffer", ok,
          f"worst lhs/rhs {worst:.3f}, 1d equality err {eq_err:.1e}, {elapsed:.1f}s")
    assert eq_err < 1e-10


def test_criterion_7_symmetric_difference_geometry():
    t0 = time.time()
    offsets = [0.1, 0.5, 0.9]
    rec1 = lemma6_check(1, 1.0, offsets)
    rec2 = lemma6_check(2, 1.0, offsets)
    rec3 = lemma6_check(3, 1.0, offsets, n_samples=10_000_000, seed=0x5EED)
    elapsed = time.time() - t0
    ok = rec1.passed and rec2.passed and rec3.passed and elapsed < 60.0
    sigma = max(abs(r["mc"] - r["exact"]) / r["mc_stderr"]
                for r in rec3.measured["rows"])
    _line(7, "symmetric-difference lower bound (exact d<=3, MC d=3)", ok,
          f"max MC deviation {sigma:.2f} sigma, {elapsed:.1f}s")
    assert rec1.passed and rec2.passed and rec3.passed
    assert elapsed < 60.0


RADII = [1.0, 0.5, 0.25, 0.125]


def test_criterion_8a_ball_ratio_boundedness():
    t0 = time.time()
    phi = make_power_young(1.3)
    psi = make_power_weight(critical_theta(1.3, 2))
    rec = necessity_ball_experiment(phi, psi, 2, RADII)
    spread = rec.measured["ratio_spread"]
    elapsed = time.time() - t0
    ok = spread < 0.10 and elapsed < 10.0
    _line("8a", "critical-pair ball ratios vary < 10%", ok,
          f"spread {spread * 100:.1f}%, {elapsed:.1f}s")
    assert spread < 0.10
    assert elapsed < 10.0


def test_criterion_8b_ball_ratio_divergence_factor():
    """The growth factor over an 8x radius range is capped near
    8^(0.8 - theta(1.3,2)) ~ 1.72 for any radius-power denominator, so the
    4x target cannot be met on this radius range; the measured factor is
    asserted as specified and the shortfall is documented in the decision
    ledger.
    """
    t0 = time.time()
    phi = make_power_young(1.3)
    psi = make_power_weight(0.8)
    rec = necessity_ball_experiment(phi, psi, 2, RADII)
    growth = rec.measured["growth_factor"]
    monotone = all(
        b["ratio"] > a["ratio"]
        for a, b in zip(rec.measured["rows"], rec.measured["rows"][1:])
    )
    elapsed = time.time() - t0
    ok = growth >= 4.0 and monotone and elapsed < 10.0
    _line("8b", "failing-pair ratio at r=1/8 at least 4x ratio at r=1", ok,
          f"growth {growth:.2f}x (monotone={monotone}), {elapsed:.1f}s")
    assert monotone
    assert growth >= 4.0, (
        f"growth {growth:.2f}x; asymptotic cap 8^(0.8-theta) ~ 1.72x on this "
        "radius range - see the decision ledger"
    )


def test_criterion_9_luxemburg_correctness():
    phi = make_power_young(1.3)
    rng = np.random.default_rng(0x10C)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 24))
        h = float(rng.uniform(0.05, 0.5))
        f = GridFunction(h, (0.0, 0.0), rng.uniform(-3, 3, (n, n)))
        got = luxemburg_norm(f, phi).norm
        ref = lp_norm(f, 1.3)
        worst = max(worst, abs(got - ref) / ref)
        assert abs(got - ref) / ref < 1e-8
    ind = GridFunction(0.2, (0.0, 0.0), np.ones((6, 7)))
    closed = 1.0 / float(phi.inv(1.0 / (42 * 0.04)))
    ind_err = abs(luxemburg_norm(ind, phi).norm - closed) / closed
    ok = worst < 1e-8 and ind_err < 1e-10
    _line(9, "Luxemburg norm identities", ok,
          f"max p-norm rel err {worst:.1e}, indicator rel err {ind_err:.1e}")
    assert ind_err < 1e-10
