import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bol.errors import DomainError
from bol.grid import GridFunction
from bol.orlicz import luxemburg_norm
from bol.young import (E_MINUS_2, SECTION5_R, critical_theta,
                       make_power_weight, make_power_young,
                       make_section5_weight, make_section5_young,
                       make_table_young, parse_weight_spec, parse_young_spec)


def test_power_roundtrip_and_log_inverse():
    rng = np.random.default_rng(1)
    phi = make_power_young(1.3)
    t = rng.uniform(1e-6, 1e6, 200)
    assert np.allclose(phi.inv(phi.eval(t)), t, rtol=1e-12)
    lx = rng.uniform(-600, 600, 50)
    assert np.allclose(phi.log_inv(lx), lx / 1.3)


def test_power_rejects_sublinear_exponent():
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            make_power_young(p)


def monotone_and_midpoint_convex(phi, t):
    """Phi strictly increasing along the sorted nodes t, and Phi at each
    midpoint at most the mean of its neighbours (1e-9 relative slack)."""
    vals = phi.eval(t)
    mids = phi.eval(0.5 * (t[:-1] + t[1:]))
    return bool(np.all(np.diff(vals) > 0)
                and np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) * (1 + 1e-9)))


def test_validate_power_passes_everything():
    phi = make_power_young(1.4)
    t = np.geomspace(1e-3, 1e3, 64)
    vals = phi.eval(t)
    assert float(phi.eval(0.0)) == 0.0
    assert monotone_and_midpoint_convex(phi, t)
    # superlinear at infinity: t/Phi(t) strictly decreasing over the last 8 nodes
    assert np.all(np.diff(t[-8:] / vals[-8:]) < 0)
    # sublinear at zero: Phi(t)/t strictly increasing over the first 8 nodes
    assert np.all(np.diff(vals[:8] / t[:8]) > 0)


def test_section5_parameter_domain():
    with pytest.raises(DomainError):
        make_section5_young(E_MINUS_2)
    with pytest.raises(DomainError):
        make_section5_young(0.0)
    assert make_section5_young(0.1).params["r"] == SECTION5_R


def test_section5_inverse_continuous_at_branch_points():
    phi = make_section5_young(0.1)
    r = SECTION5_R
    for x in (1.0 / r, r):
        below = float(phi.inv(x * (1 - 1e-9)))
        above = float(phi.inv(x * (1 + 1e-9)))
        assert above == pytest.approx(below, rel=1e-6)


def test_section5_log_inverse_matches_linear_domain():
    phi = make_section5_young(0.1)
    for x in (1e-8, 0.5, 3.0, 1e5, 1e8):
        assert float(phi.log_inv(math.log(x))) == pytest.approx(
            math.log(section5_inv_reference(phi, x)[0]), rel=1e-10
        )


def test_section5_forward_inverts_the_inverse():
    phi = make_section5_young(0.05)
    for t in (0.3, 2.0, 40.0, 1e7):
        assert float(phi.inv(phi.eval(t))) == pytest.approx(t, rel=1e-9)


def test_section5_eval_array_matches_scalar_calls():
    phi = make_section5_young(0.1)
    r = SECTION5_R
    t = np.array([[0.0, -1.0, 1e-30, 1.0 / r],
                  [0.5, 3.0, r, 1e40]])
    arr = phi.eval(t)
    assert arr.shape == t.shape
    for x, got in zip(t.ravel(), arr.ravel()):
        assert got == phi.eval(float(x))
    assert type(phi.eval(2.0)) is float
    assert phi.eval(-3.0) == 0.0


def test_section5_eval_inverts_inv_across_branch_points():
    phi = make_section5_young(0.1)
    r = SECTION5_R
    ts = np.concatenate([x * np.geomspace(1e-3, 1e3, 25) for x in (1.0 / r, 1.0, r)])
    back = phi.eval(phi.inv(ts))
    assert np.allclose(back, ts, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.005, 0.1, 0.13])
def test_section5_forward_map_is_a_short_log_domain_solve(alpha):
    phi = make_section5_young(alpha)
    s = np.geomspace(1e-300, 1e300, 5001)
    assert np.max(np.abs(phi.inv(phi.eval(s)) / s - 1.0)) <= 1e-12
    out = phi.eval(np.array([0.0, -2.0, np.inf, np.nan, 1e308]))
    assert out[:2].tolist() == [0.0, 0.0] and out[2] == np.inf and np.isnan(out[3])
    # Phi(1e308) is 1.3527e308 at alpha = 0.005 and past float range above
    assert (out[4] < np.inf) == (alpha == 0.005)


@pytest.mark.parametrize("alpha", [1e-6, 0.005, 0.1, 0.13, 0.1353])
def test_section5_forward_map_round_trips_to_rounding(alpha):
    phi = make_section5_young(alpha)
    ls = np.log(np.exp(np.linspace(-744.0, 709.0, 100_001)))
    t = phi.eval(np.exp(ls))
    normal = (t >= np.finfo(np.float64).tiny) & (t < np.inf)
    err = np.abs(phi.log_inv(np.log(t[normal])) - ls[normal])
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(ls[normal])))
    assert phi.eval(0.0) == phi.eval(-1.0) == 0.0 and phi.eval(np.inf) == np.inf
    assert type(phi.eval(2.0)) is float


def section5_phi_mpmath(alpha, s):
    """Phi(s) at 40 digits: the root v = ln Phi(s) of log_inv(v) = ln s on
    the branch that holds it, the chord's inverse in the middle."""
    with mpmath.workdps(40):
        a, e2 = mpmath.mpf(alpha), mpmath.e ** 2
        lr, g = 2 * e2, a * e2 / 2
        y = mpmath.log(mpmath.mpf(s))
        if abs(y) < lr - g:
            r = mpmath.exp(lr)
            p_lin = (r * mpmath.exp(-g) - mpmath.exp(g) / r) / (r - 1 / r)
            q_lin = (mpmath.exp(g) - mpmath.exp(-g)) / (r - 1 / r)
            return (mpmath.mpf(s) - q_lin) / p_lin
        sign = mpmath.sign(y)

        def outer_minus_y(v):
            big = abs(v) / 2
            return v - sign * a * big / mpmath.log(big) - y

        return mpmath.exp(mpmath.findroot(outer_minus_y, y + sign * g))


@pytest.mark.parametrize("alpha", [0.005, 0.1, 0.13])
def test_section5_forward_map_matches_mpmath_on_every_branch(alpha):
    phi = make_section5_young(alpha)
    g, r = alpha * math.e ** 2 / 2.0, SECTION5_R
    # the matching points Phi = 1/r and Phi = r lie at s = e^g / r and r e^-g
    edges = [x * f for x in (math.exp(g) / r, r * math.exp(-g)) for f in (1 - 1e-9, 1 + 1e-9)]
    s = np.array([1e-320, 1e-300, 1e-100, 1e-8, 1e-3, 1.0, 1e5, 1e8, 1e40, 1e300, 1e308] + edges)
    got = phi.eval(s)
    for x, y in zip(s, got):
        exact = section5_phi_mpmath(alpha, x)
        if exact > np.finfo(np.float64).max:
            assert y == np.inf
        elif exact < np.finfo(np.float64).tiny:
            assert abs(y - float(exact)) <= np.finfo(np.float64).smallest_subnormal
        else:
            assert abs(math.log(y) - float(mpmath.log(exact))) <= 1e-15 * max(1.0, abs(math.log(y)))
    if alpha == 0.1:
        # 1.876e-323 lies nearest to 4 subnormal steps, 1.976e-323
        assert float(section5_phi_mpmath(alpha, 1e-320)) == pytest.approx(1.876e-323, rel=1e-3, abs=0.0)
        assert got[0] == 2e-323


def test_section5_maps_nan_to_nan():
    phi = make_section5_young(0.1)
    for f in (phi.log_inv, phi.inv, phi.eval):
        assert math.isnan(f(float("nan")))
        out = f(np.array([2.0, np.nan, 3.0]))
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))


@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.13])
def test_section5_log_inverse_is_the_copysign_form_bit_for_bit(alpha):
    phi = make_section5_young(alpha)
    lr = math.log(SECTION5_R)
    rng = np.random.default_rng(11)
    lx = np.concatenate([rng.uniform(-60.0, 60.0, 4000), np.geomspace(lr, 1e300, 500),
                         -np.geomspace(lr, 1e300, 500), [-lr, lr, np.nextafter(lr, 0.0), 0.0]])
    lx = lx.reshape(2, -1)  # the condition integrals pass one row per scale
    before = lx.copy()
    big = np.abs(lx) / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expected = np.where((lx < -lr) | (lx >= lr),
                            lx - np.copysign(alpha * big / np.log(big), lx),
                            np.log(phi.params["p_lin"] * np.exp(lx) + phi.params["q_lin"]))
    got = phi.log_inv(lx)
    np.testing.assert_array_equal(lx, before)
    assert got.shape == lx.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_section5_monotone_and_convex_for_large_arguments():
    phi = make_section5_young(0.1)
    assert monotone_and_midpoint_convex(phi, np.geomspace(1.0, 1e6, 48))


def test_power_weight_exponents():
    psi = make_power_weight(0.6)
    assert float(psi.eval(2.0)) == pytest.approx(2.0 ** -0.6)


def test_paired_weight_collapses_to_power():
    phi = make_power_young(1.3)
    psi = make_section5_weight(phi)
    theta = 2.0 / 1.3 - 1.0
    t = np.geomspace(1e-3, 1e3, 17)
    assert np.allclose(psi.eval(t), t ** (-theta), rtol=1e-10)


def test_table_young_roundtrip(tmp_path):
    ts = np.geomspace(0.01, 100, 25)
    path = tmp_path / "phi.csv"
    path.write_text("".join(f"{t},{t ** 1.5}\n" for t in ts))
    phi = make_table_young(str(path))
    assert float(phi.eval(3.0)) == pytest.approx(3.0 ** 1.5, rel=1e-10)
    assert float(phi.inv(8.0)) == pytest.approx(4.0, rel=1e-10)


def test_table_young_interpolates_below_1e_300(tmp_path):
    path = tmp_path / "phi.csv"
    path.write_text("1e-305,1e-305\n1,1\n2,4\n")
    phi = make_table_young(str(path))
    assert float(phi.eval(1e-303)) == pytest.approx(1e-303, rel=1e-12, abs=0.0)
    # constant below the first knot; 0 at and below zero
    below = phi.eval(np.array([5e-324, 0.0, -1.0]))
    assert below[0] == pytest.approx(1e-305, rel=1e-12, abs=0.0) and below[1:].tolist() == [0.0, 0.0]


def test_table_young_rejects_nonmonotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1\n2,0.5\n")
    with pytest.raises(DomainError):
        make_table_young(str(path))


def test_spec_grammar():
    assert parse_young_spec("power:p=1.3").params["p"] == 1.3
    assert parse_young_spec("section5:alpha=0.1").kind == "section5"
    assert parse_weight_spec("powerweight:theta=0.5385").params["theta"] == 0.5385
    assert parse_weight_spec("section5:alpha=0.1").kind == "section5weight"
    for bad in ("power", "power:q=2", "gauss:p=2", "power:p"):
        with pytest.raises(DomainError):
            parse_young_spec(bad)


def test_critical_theta_values():
    assert critical_theta(1.3, 2) == pytest.approx(2 / 1.3 - 1)
    assert critical_theta(1.0, 3) == pytest.approx(1.0)


def _power_table(tmp_path):
    """Table preset sampled from t^1.3 on 61 geometric knots in [1e-6, 1e6]."""
    path = tmp_path / "phi.csv"
    path.write_text("".join(f"{float(t)!r},{float(t) ** 1.3!r}\n"
                            for t in np.geomspace(1e-6, 1e6, 61)))
    return make_table_young(str(path))


def test_table_log_inverse_is_the_log_log_interpolant(tmp_path):
    phi = _power_table(tmp_path)
    lx = np.linspace(1.3 * math.log(1e-6), 1.3 * math.log(1e6), 997)
    assert np.max(np.abs(phi.log_inv(lx) - lx / 1.3)) <= 1e-13
    # the same value as the linear-domain inverse, wherever a float reaches
    x = np.concatenate([[5e-324, 1e-310, 1e-300], np.geomspace(1e-299, 1e308, 499),
                        [1.7976931348623157e308]])
    ref = table_inv_reference(phi.params["file"], x)
    assert np.max(np.abs(phi.log_inv(np.log(x)) - np.log(ref))) <= 1e-14


def test_table_luxemburg_norm_matches_the_power_preset(tmp_path):
    phi = _power_table(tmp_path)
    rng = np.random.default_rng(3)
    f = GridFunction(0.25, (0.0, 0.0), rng.uniform(0.2, 3.0, (8, 8)))
    got = luxemburg_norm(f, phi).norm
    expect = luxemburg_norm(f, make_power_young(1.3)).norm
    assert np.all((f.values / got > 1e-6) & (f.values / got < 1e6))
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


# -- the linear-domain formulas the log forms replaced, kept as references -----

def power_inv_reference(p, s):
    return np.asarray(s, dtype=np.float64) ** (1.0 / p)


def section5_inv_reference(phi, t):
    """The section5 inverse written in t: slow correction below 1/r, the
    chord in the middle, reciprocal correction above r."""
    alpha, r, p_lin, q_lin = (phi.params[k] for k in ("alpha", "r", "p_lin", "q_lin"))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty_like(t)
    low, high = t < 1.0 / r, t >= r
    mid = ~low & ~high
    tl = t[low]
    with np.errstate(divide="ignore", invalid="ignore"):
        big_l = np.log(1.0 / np.sqrt(tl))  # > 1 on this branch
        out[low] = np.where(tl > 0.0, tl * np.exp(alpha * big_l / np.log(big_l)), 0.0)
    out[mid] = p_lin * t[mid] + q_lin
    th = t[high]
    with np.errstate(invalid="ignore"):
        big_h = np.log(np.sqrt(th))
        out[high] = th * np.exp(-alpha * big_h / np.log(big_h))
    return out


def table_inv_reference(path, s):
    """Log-log interpolation of the table's knots with the columns swapped."""
    ts, vs = np.loadtxt(path, delimiter=",", unpack=True)
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore"):
        res = np.exp(np.interp(np.log(np.maximum(s, 1e-300)), np.log(vs), np.log(ts)))
    return np.where(s > 0.0, res, 0.0)


@pytest.fixture(scope="module")
def table13(tmp_path_factory):
    return _power_table(tmp_path_factory.mktemp("table13"))


def _rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) / ref - 1.0)))


# exp turns an absolute rounding error of the log form into a relative one,
# so the bounds hold where |ln inv| <= about 700 (s in [1e-300, 1e300]) and
# |ln Psi| <= about 120 (t in [1e-50, 1e50])
LOG10_S = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8)
LOG10_T = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8)
POWER_P = st.floats(1.0, 4.0, exclude_min=True)
SECTION5_ALPHA = st.floats(0.0, E_MINUS_2, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(p=POWER_P, alpha=SECTION5_ALPHA, e=LOG10_S)
def test_derived_inverse_matches_the_linear_formulas(table13, p, alpha, e):
    s = 10.0 ** np.array(e)
    section5 = make_section5_young(alpha)
    assert _rel_err(make_power_young(p).inv(s), power_inv_reference(p, s)) <= 2e-13
    assert _rel_err(section5.inv(s), section5_inv_reference(section5, s)) <= 2e-13
    assert _rel_err(table13.inv(s), table_inv_reference(table13.params["file"], s)) <= 2e-13


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 1.0, exclude_min=True), p=POWER_P, alpha=SECTION5_ALPHA, e=LOG10_T)
def test_derived_weight_matches_the_linear_formulas(table13, theta, p, alpha, e):
    t = 10.0 ** np.array(e)
    section5 = make_section5_young(alpha)
    assert _rel_err(make_power_weight(theta).eval(t), t ** -theta) <= 5e-14
    # the paired weight t / inv(t^2), with each preset's linear inverse
    for phi, inv in ((make_power_young(p), lambda x: power_inv_reference(p, x)),
                     (section5, lambda x: section5_inv_reference(section5, x)),
                     (table13, lambda x: table_inv_reference(table13.params["file"], x))):
        assert _rel_err(make_section5_weight(phi).eval(t), t / inv(t ** 2)) <= 5e-14


def test_derived_inverse_at_zero_below_zero_and_infinity(table13):
    s = np.array([0.0, -0.0, -1.0, -np.inf, np.inf])
    section5 = make_section5_young(0.1)
    np.testing.assert_array_equal(section5.inv(s), section5_inv_reference(section5, s))
    np.testing.assert_array_equal(table13.inv(s), table_inv_reference(table13.params["file"], s))
    phi = make_power_young(1.3)
    np.testing.assert_array_equal(phi.inv(s[[0, 1, 4]]), power_inv_reference(1.3, s[[0, 1, 4]]))
    # below zero the fractional power of the power preset was nan; every
    # preset now maps s <= 0 to 0
    assert phi.inv(s[2:4]).tolist() == [0.0, 0.0]
