import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bol.condition
from bol.condition import (TAIL_SLOPE_LIMIT, ConditionQuad, _condition_curve,
                           _condition_integral, _first_log, _kinks, condition_sup,
                           condition_value,
                           log_domain_integral, section5_first_bound,
                           section5_second_bound)
from bol.errors import DivergenceError, DomainError
from bol.young import (SECTION5_R, critical_theta, make_power_weight,
                       make_power_young, make_section5_weight,
                       make_section5_young, make_table_young,
                       parse_weight_spec)


def closed_form(p, d=2):
    return p / (d - (d - 1) * p) + p / ((d - 1) * (p - 1.0))


def test_critical_power_pair_matches_closed_form():
    # both integrands are exponentials in u = ln t, which the rule integrates exactly
    p = 1.3
    phi = make_power_young(p)
    psi = make_power_weight(critical_theta(p, 2))
    cv = condition_value(1.0, phi, psi, 2)
    assert cv.value == pytest.approx(closed_form(p), rel=1e-12)
    assert not cv.head_diverged and not cv.tail_diverged


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.2, 1.3, 1.4])
def test_critical_power_pairs_match_closed_form_in_each_dim(p, d):
    phi = make_power_young(p)
    psi = make_power_weight(critical_theta(p, d))
    cv = condition_value(1.0, phi, psi, d)
    assert cv.value == pytest.approx(closed_form(p, d), rel=1e-12)
    assert not cv.head_diverged and not cv.tail_diverged


def test_critical_pair_is_scale_free():
    phi = make_power_young(1.4)
    psi = make_power_weight(critical_theta(1.4, 2))
    vals = [condition_value(s, phi, psi, 2).value for s in (1e-4, 1.0, 1e6)]
    assert max(vals) == pytest.approx(min(vals), rel=1e-12)


def test_argmax_s_is_the_smallest_scale_at_the_max():
    # a scale-free curve equals D_hat at every scale up to rounding
    flat = condition_sup(make_power_young(1.2), make_power_weight(critical_theta(1.2, 2)), 2)
    assert flat.argmax_s == flat.s_grid[0]
    # a peaked curve reports its strict maximiser, inside the range
    phi = make_section5_young(0.1)
    peaked = condition_sup(phi, make_section5_weight(phi), 2, n_points=33)
    i = int(np.argmax(peaked.values))
    assert 0 < i < len(peaked.s_grid) - 1
    assert peaked.argmax_s == peaked.s_grid[i]


def exact_exp_sum(log_vals, u):
    """Sum over node intervals of the integral of exp(linear interpolant), 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for a, b, du in zip(log_vals[:-1], log_vals[1:], np.diff(u)):
            if a == -math.inf or b == -math.inf:
                continue
            a, b, du = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(du)
            total += du * mpmath.exp(a) * (mpmath.expm1(b - a) / (b - a) if a != b else 1)
        return total


# per-interval log increments on both sides of the series switch at 1e-8
_step = st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8), st.floats(-1e-6, 1e-6),
                  st.floats(-50.0, 50.0), st.just(-math.inf))


@settings(max_examples=150, deadline=None)
@given(start=st.floats(-700.0, 700.0),
       steps=st.lists(st.tuples(_step, st.floats(1e-3, 10.0)), min_size=1, max_size=40))
# a subnormal sum, 1.1e-311: correctly rounded, but 1e-13 of it is below half its spacing
@example(start=-700.0, steps=[(-math.inf, 1.0), (-16.0, 1.0), (0.0, 1.0)])
def test_log_domain_integral_matches_exact_sum(start, steps):
    # random piecewise-linear logs with flat, tiny, large and -inf increments
    lv, u = [start], [0.0]
    for inc, du in steps:
        prev = lv[-1] if lv[-1] > -math.inf else start
        lv.append(-math.inf if inc == -math.inf else min(prev + inc, 700.0))
        u.append(u[-1] + du)
    lv, u = np.array(lv), np.array(u)
    got = log_domain_integral(lv, u)
    want = exact_exp_sum(lv, u)
    if want == 0:
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-13 * want + math.ulp(0.0)


def test_log_domain_integral_non_finite_peaks():
    u = np.array([0.0, 1.0, 2.0])
    assert log_domain_integral(np.full(3, -math.inf), u) == 0.0
    assert log_domain_integral(np.array([0.0, math.inf, 0.0]), u) == math.inf
    # one finite end and one -inf end: the interpolant is -inf inside the interval
    assert log_domain_integral(np.array([-math.inf, 0.0]), u[:2]) == 0.0


def test_bounded_verdict_on_critical_pair():
    phi = make_power_young(1.3)
    psi = make_power_weight(critical_theta(1.3, 2))
    rep = condition_sup(phi, psi, 2, s_range=(1e-4, 1e8), n_points=33)
    assert rep.verdict == "bounded"
    assert rep.D_hat == pytest.approx(closed_form(1.3), rel=5e-4)


def test_off_critical_slope_and_unbounded_verdict():
    phi = make_power_young(1.3)
    psi = make_power_weight(0.8)
    rep = condition_sup(phi, psi, 2, s_range=(1e-2, 1e10), n_points=33)
    assert rep.verdict == "unbounded"
    expected = 0.8 - critical_theta(1.3, 2)
    assert rep.tail_slope == pytest.approx(expected, abs=0.01)


def test_divergence_raises_per_scale():
    phi = make_power_young(1.3)
    psi = make_power_weight(0.8)  # theta > 1/p: second integral diverges
    with pytest.raises(DivergenceError) as exc:
        condition_value(1.0, phi, psi, 2)
    assert exc.value.end == "tail"


def test_head_divergence_and_lower_limit():
    phi = make_power_young(1.3)
    psi = make_power_weight(0.0)  # flat weight: first integral head diverges
    with pytest.raises(DivergenceError) as exc:
        condition_value(1.0, phi, psi, 2)
    assert exc.value.end == "head"
    cv = condition_value(1.0, phi, psi, 2, head_lower_limit=0.01)
    assert math.isfinite(cv.value) and cv.value > 0


def test_input_validation():
    phi = make_power_young(1.3)
    psi = make_power_weight(0.5)
    with pytest.raises(DomainError):
        condition_value(0.0, phi, psi, 2)
    # a scale that is not finite is refused before any integrand is evaluated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite s > 0"):
                condition_value(s, phi, psi, 2, raise_on_divergence=False)
    with pytest.raises(DomainError):
        condition_sup(phi, psi, 2, n_points=8)
    with pytest.raises(DomainError):
        condition_sup(phi, psi, 2, s_range=(1.0, 0.5))


def test_quad_nodes_are_append_only():
    small = ConditionQuad(u_far=1024.0).nodes()
    large = ConditionQuad(u_far=2048.0).nodes()
    assert np.array_equal(large[: len(small) - 1], small[:-1])


def test_section5_first_bound_below_two():
    r = SECTION5_R
    s_list = np.geomspace(r, 1e3 * r, 20)
    rows = section5_first_bound(0.1, s_list)
    assert all(ok for _, _, _, ok in rows)
    # the closed-form intermediate bound should track the integral closely
    for _, value, inter, _ in rows[1:]:
        assert value <= inter * 1.01


def test_section5_first_bound_domain():
    with pytest.raises(DomainError):
        section5_first_bound(0.1, [1.0])
    assert section5_first_bound(0.1, []) == []


def test_section5_second_bound_converges_under_doubling():
    v1, rem1 = section5_second_bound(0.1, SECTION5_R, x_span=1e5)
    v2, _ = section5_second_bound(0.1, SECTION5_R, x_span=2e5)
    assert abs(v2 - v1) / v1 < 1e-6
    assert rem1 < 1e-6 * v1


def test_section5_second_bound_raises_only_on_short_slow_windows():
    # the integrand decays like exp(-alpha x / (2 ln x)): for small alpha a
    # 1e3 window leaves a remainder larger than the value
    raised = set()
    for alpha in (0.005, 0.01, 0.05, 0.1, 0.13):
        for x_span in (1e3, 1e4, 1e5, 2e5):
            try:
                value, remainder = section5_second_bound(alpha, SECTION5_R, x_span=x_span)
            except DivergenceError as exc:
                assert exc.end == "tail"
                raised.add((alpha, x_span))
            else:
                assert 0.0 <= remainder <= value
    assert raised == {(0.005, 1e3), (0.01, 1e3)}


def section5_log_inv_mp(phi, lx):
    """The section5 closed-form log inverse, branch by branch, in mpmath."""
    alpha, lr = phi.params["alpha"], mpmath.log(phi.params["r"])
    if lx < -lr:
        return lx + alpha * (-lx / 2) / mpmath.log(-lx / 2)
    if lx < lr:
        return mpmath.log(phi.params["p_lin"] * mpmath.exp(lx) + phi.params["q_lin"])
    return lx - alpha * (lx / 2) / mpmath.log(lx / 2)


def test_section5_second_bound_keeps_its_value_on_wide_windows():
    # at alpha = 0.005 the integrand falls by only about e^-7.5 up to
    # u = 30,720; past 61,440 the doublings of 30,720 are panel edges, so a
    # window far past the decay keeps the value.  The reference is
    # mpmath.quad at 30 digits, split at u = 0, 1, 10, ..., 1e7.
    want = 3797.60903335290617
    for x_span in (2e5, 1e7, 1e300):
        value, remainder = section5_second_bound(0.005, SECTION5_R, x_span=x_span)
        assert value == pytest.approx(want, rel=1e-13), x_span
        assert remainder < 1e-12 * value


def test_section5_second_bound_matches_mpmath_quadrature():
    phi = make_section5_young(0.1)
    with mpmath.workdps(30):
        ls = mpmath.log(SECTION5_R)
        integrand = lambda x: mpmath.exp(ls - x - section5_log_inv_mp(phi, x + ls)
                                         - section5_log_inv_mp(phi, -2 * x))
        want = mpmath.quad(integrand, [ls + w for w in (0, 1, 10, 100, 1e3, 1e4, 1e5)]
                           + [mpmath.inf])
    assert float(want) == pytest.approx(127.0045237538, rel=1e-11)
    value, _ = section5_second_bound(0.1, SECTION5_R)
    assert value == pytest.approx(float(want), rel=1e-11)


def test_section5_first_bound_matches_mpmath_quadrature():
    # s / inv(s^2) * int_r^s Psi(1/t) dt/t with Psi(1/t) = t^-1 / inv(t^-2), in x = ln t
    phi = make_section5_young(0.1)
    s_list = [10 * SECTION5_R, 1000 * SECTION5_R]
    with mpmath.workdps(30):
        k = mpmath.log(SECTION5_R)
        integrand = lambda x: mpmath.exp(-x - section5_log_inv_mp(phi, -2 * x))
        want = []
        for s in s_list:
            ls = mpmath.log(s)
            want.append(float(mpmath.exp(ls - section5_log_inv_mp(phi, 2 * ls))
                              * mpmath.quad(integrand, [k, ls])))
    assert want == pytest.approx([0.91558912174936276, 1.0214253067167938], rel=1e-15)
    got = [value for _, value, _, _ in section5_first_bound(0.1, s_list)]
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("theta", [critical_theta(1.3, 2), 0.0, 0.8, 1.5])
def test_power_heads_with_a_lower_limit_match_closed_form(theta):
    # int_a^s t^theta dt/t: the row closed at ln s - ln a is exact on a
    # linear log-integrand, and 0 where that end is at or below 0
    a = 1e-3
    s_grid = np.geomspace(1e-6, 1e12, 97).tolist() + [a * (1 - 1e-12)]
    psi = make_power_weight(theta)
    ls = np.array([[math.log(s)] for s in s_grid])
    heads, remainders, diverged = _condition_integral(
        _first_log(psi, ls), _kinks(make_power_young(1.3), psi, 2, ls)[0], True,
        ls[:, 0] - math.log(a))
    assert not diverged.any()
    for s, head in zip(s_grid, heads.tolist()):
        if s <= a:
            assert head == 0.0
        else:
            want = math.log(s / a) if theta == 0.0 else (s ** theta - a ** theta) / theta
            assert head == pytest.approx(want, rel=1e-14), s


def test_section5_first_integral_with_a_lower_limit_matches_mpmath_quadrature():
    # the first integral alone: the value with lower limit a less the value
    # with lower limit s, whose head is 0; breakpoints at the kinks of Psi
    phi = make_section5_young(0.1)
    psi = make_section5_weight(phi)
    a = 1e-3
    with mpmath.workdps(30):
        kink = mpmath.log(SECTION5_R) / 2
        integrand = lambda x: mpmath.exp(-x - section5_log_inv_mp(phi, -2 * x))
        for s in (1e-2, 1.0, 1e3, 1e6, 1e12):
            ls, la = mpmath.log(s), mpmath.log(a)
            cuts = [la] + [x for x in (-kink, kink) if la < x < ls] + [ls]
            want = float(mpmath.exp(ls - section5_log_inv_mp(phi, 2 * ls))
                         * mpmath.quad(integrand, cuts))
            got = (condition_value(s, phi, psi, 2, head_lower_limit=a).value
                   - condition_value(s, phi, psi, 2, head_lower_limit=s).value)
            assert got == pytest.approx(want, rel=1e-8), s


def test_section5_pair_verdict_is_bounded():
    phi = make_section5_young(0.1)
    psi = make_section5_weight(phi)
    rep = condition_sup(phi, psi, 2, s_range=(1.0, 1e10), n_points=17)
    assert rep.verdict == "bounded"
    assert math.isfinite(rep.D_hat)


def reference_integral(lv, u):
    """The one-row log-domain rule, written out on its own."""
    m = float(np.max(lv))
    if not math.isfinite(m):
        return 0.0 if m == -math.inf else math.inf
    hi = np.maximum(lv[:-1], lv[1:]) - m
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x = np.where(hi > -np.inf, np.abs(lv[1:] - lv[:-1]), 0.0)
        factor = np.where(x < 1e-8, 1.0 - 0.5 * x, -np.expm1(-x) / x)
        return float(np.exp(m)) * float(np.sum(np.diff(u) * np.exp(hi) * factor))


def hand_made_rows(u):
    n = u.size
    rows = {
        "decaying": -u,
        "nan": np.where(np.arange(n) == 9, math.nan, -u),
        "nan_past_the_drop": np.where(np.arange(n) == n - 2, math.nan, -u),
        "inf": np.where(np.arange(n) == 3, math.inf, -u),
        "all_minus_inf": np.full(n, -math.inf),
        "minus_inf_inside": np.where((np.arange(n) > 2) & (np.arange(n) < 6), -math.inf, -u),
        "plateau": np.zeros(n),
        "slow_decay": -0.01 * u,
        "cut_in_last_five": np.where(np.arange(n) < n - 3, 0.0, -100.0),
        "drops_before_u_mid": np.where(u < 2.0, 0.0, -100.0 - u),
        "rises": 0.02 * u,
        "tiny_steps": 1e-10 * np.arange(n) - 50.0,
        "steps_near_the_series_switch": 5e-9 * np.arange(n) - 50.0,
    }
    return {k: np.asarray(v, dtype=np.float64) for k, v in rows.items()}


def test_log_domain_integral_matches_the_reference_rule():
    u = np.r_[np.linspace(0.0, 6.0, 7), 6.0 * 1.5 ** np.arange(1, 11)]
    for name, lv in hand_made_rows(u).items():
        for k in (1, 2, 5, u.size):
            got, want = log_domain_integral(lv[:k], u[:k]), reference_integral(lv[:k], u[:k])
            assert np.array(got).tobytes() == np.array(want).tobytes(), (name, k)


def table_pair(tmp_path):
    path = tmp_path / "phi13.csv"
    path.write_text("".join(f"{t!r},{t ** 1.3!r}\n" for t in np.geomspace(1e-6, 1e6, 61).tolist()))
    psi = parse_weight_spec(f"paired:phi=table:file={path}")
    return make_table_young(str(path)), psi


# knots of a table Phi whose log-log slope changes at each knot
KINKED_T = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]
KINKED_SLOPES = [1.2, 2.0, 1.5, 3.0, 1.1, 2.5]


def kinked_table_pair(tmp_path):
    """A table Phi with knots of varying log-slope, its paired weight and
    its knots (t, Phi(t)) as written."""
    ts, vs = KINKED_T, [1e-3]
    for slope, t0, t1 in zip(KINKED_SLOPES, KINKED_T, KINKED_T[1:]):
        vs.append(vs[-1] * (t1 / t0) ** slope)
    path = tmp_path / "kinked.csv"
    path.write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(ts, vs)))
    return (make_table_young(str(path)), parse_weight_spec(f"paired:phi=table:file={path}"),
            ts, vs)


def mp_interp(xs, ys):
    """The piecewise-linear interpolant through (xs, ys), clamped outside."""
    def at(x):
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        i = max(j for j in range(len(xs) - 1) if xs[j] <= x)
        return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])
    return at


@pytest.mark.parametrize("d", [2, 3])
def test_kinked_table_pair_matches_mpmath_quadrature(tmp_path, d):
    # the second integral in x = ln t from ln s, with lnPsi(y) = y - L(2y)
    # and L the log inverse of Phi; Phi is clamped above its last knot, so
    # lnPsi rises with slope 1 at large y and the head of the first
    # integral diverges at every scale, while the second converges
    phi, psi, ts, vs = kinked_table_pair(tmp_path)
    with mpmath.workdps(30):
        lt, lv = [mpmath.log(t) for t in ts], [mpmath.log(v) for v in vs]
        log_inv = mp_interp(lv, lt)
        for s in (1e-4, 1.0, 1e6):
            ls = mpmath.log(s)
            c = (d - 1) * ls
            cuts = sorted([-k / 2 for k in lv] + [k - c for k in lv])
            want = mpmath.quad(lambda x: mpmath.exp(-x - log_inv(-2 * x) + c - log_inv(x + c)),
                               [ls] + [x for x in cuts if x > ls] + [mpmath.inf])
            cv = condition_value(s, phi, psi, d, raise_on_divergence=False)
            assert cv.head_diverged and not cv.tail_diverged, s
            assert cv.value == pytest.approx(float(want), rel=1e-12), s
            # the diverged head keeps its integral over [0, u_mid] in u = ln s - ln t
            ls_col = np.array([[math.log(s)]])
            (head,), (rem,), (div,) = _condition_integral(_first_log(psi, ls_col),
                                                          _kinks(phi, psi, d, ls_col)[0], True)
            u_mid = ConditionQuad().u_mid
            cuts = sorted(k / 2 + ls for k in lv)
            want = mpmath.quad(lambda u: mpmath.exp(u - ls - log_inv(2 * (u - ls))),
                               [0] + [u for u in cuts if 0 < u < u_mid] + [u_mid])
            assert div and rem == math.inf
            assert head == pytest.approx(float(want), rel=1e-12), s


def test_kinked_table_heads_with_a_lower_limit_match_mpmath_quadrature(tmp_path):
    # the first integral alone, in x = ln t from ln a to ln s: its rows
    # close at ln s - ln a, between the halved knots of the paired weight,
    # and are exact there
    phi, psi, ts, vs = kinked_table_pair(tmp_path)
    a = 1e-3
    with mpmath.workdps(30):
        lv = [mpmath.log(v) for v in vs]
        log_inv = mp_interp(lv, [mpmath.log(t) for t in ts])
        cuts = sorted(-k / 2 for k in lv)
        for s in (1e-2, 1.0, 1e3, 1e6):
            ls, la = mpmath.log(s), mpmath.log(a)
            head = mpmath.quad(lambda x: mpmath.exp(-x - log_inv(-2 * x)),
                               [la] + [x for x in cuts if la < x < ls] + [ls])
            want = float(mpmath.exp(ls - log_inv(2 * ls)) * head)
            got = (condition_value(s, phi, psi, 2, head_lower_limit=a,
                                   raise_on_divergence=False).value
                   - condition_value(s, phi, psi, 2, head_lower_limit=s,
                                     raise_on_divergence=False).value)
            assert got == pytest.approx(want, rel=1e-13), s


@pytest.mark.parametrize("end", [-1.0, 0.0, 3.0, 5.0, 20.0, 100.0])
@pytest.mark.parametrize("linear", [True, False])
def test_a_closed_row_integrates_up_to_its_end_and_reports_its_tail(linear, end):
    # e^-|u - 5| on [0, end]: exact on its kinks and on panels split there;
    # the row never diverges, and its remainder is the tail past the end,
    # e^(5 - end) from the slope -1, or inf where the row still rises
    (value,), (remainder,), (diverged,) = _condition_integral(
        lambda u: -np.abs(u - 5.0), np.array([[5.0]]), linear, np.array([end]))
    e = max(end, 0.0)
    want = math.exp(-5.0) * math.expm1(e) if e <= 5.0 else 2.0 - math.exp(-5.0) - math.exp(5.0 - e)
    assert not diverged
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    if e > 5.0:
        assert remainder == pytest.approx(math.exp(5.0 - e), rel=1e-12)
    else:
        assert remainder == math.inf


@pytest.mark.parametrize("slope", [1e-9, 0.0, -1e-4, -0.5])
def test_a_kinked_row_diverges_exactly_when_its_last_slope_is_not_negative(slope):
    # e^-u up to the kink at u = 5, then e^(-5 + slope (u - 5)) to infinity
    log_f = lambda u: np.maximum(-u, -5.0 + slope * (u - 5.0))
    (value,), (remainder,), (diverged,) = _condition_integral(log_f, np.array([[5.0]]), True)
    head = -math.expm1(-5.0)
    if slope < 0.0:
        assert not diverged and remainder == 0.0
        assert value == pytest.approx(head + math.exp(-5.0) / -slope, rel=1e-12)
    else:
        # a last piece flat or rising: the value is the integral over [0, u_mid]
        assert diverged and remainder == math.inf
        span = ConditionQuad().u_mid - 5.0
        grow = math.expm1(slope * span) / slope if slope else span
        assert value == pytest.approx(head + grow * math.exp(-5.0), rel=1e-12)


def test_a_section5_phi_with_a_power_weight_has_an_exact_first_row():
    # the first integrand has the kinks of Psi alone, none for a power
    # weight, and is exact; the second holds the section5 Phi, smooth
    # between its breakpoints, and takes the panels
    phi, psi = make_section5_young(0.1), make_power_weight(0.5)
    assert psi.log_linear and not phi.log_linear
    ls = np.array([[math.log(1e3)]])
    first, second = _kinks(phi, psi, 2, ls)
    assert first.shape == (1, 0)
    np.testing.assert_array_equal(second, phi.log_kinks - 2 * ls)
    (head,), (remainder,), (diverged,) = _condition_integral(_first_log(psi, ls),
                                                             first, True)
    # int_0^inf Psi(1/t) dt/t at s in u = ln s - ln t: int e^(-theta (u - ln s)) du
    assert head == pytest.approx(1e3 ** 0.5 / 0.5, rel=1e-14)
    assert remainder == 0.0 and not diverged
    rep = condition_sup(phi, psi, 2, n_points=17)
    cvs = [condition_value(s, phi, psi, 2, raise_on_divergence=False)
           for s in rep.s_grid.tolist()]
    assert rep.values.tobytes() == np.array([cv.value for cv in cvs]).tobytes()


def sweep_pairs(tmp_path):
    s5 = make_section5_young(0.1)
    pairs = [(f"power p={p} d={d}", make_power_young(p),
              make_power_weight(critical_theta(p, d)), d, None)
             for d in (2, 3) for p in (1.2, 1.4)]
    pairs += [(f"theta={theta}", make_power_young(1.3), make_power_weight(theta), 2, None)
              for theta in (0.8, 0.0)]
    pairs += [("power limited", make_power_young(1.3),
               make_power_weight(critical_theta(1.3, 2)), 2, 1e-3)]
    pairs += [("section5", s5, make_section5_weight(s5), 2, None),
              ("section5 limited", s5, make_section5_weight(s5), 2, 1e-3),
              ("table", *table_pair(tmp_path), 2, None)]
    return pairs


@pytest.mark.parametrize("n_points", [17, 19, 97])
def test_sweep_equals_the_scale_by_scale_values(tmp_path, n_points):
    # the section5 pair's second-integral rows hold 16 x 22 panel nodes
    step = bol.condition._BLOCK_VALUES // (16 * 22)
    assert 1 < step < n_points and n_points % step  # a ragged last block
    # the 61-knot table pair's second-integral rows hold 2 * 61 + 3 nodes,
    # so its sweep of 97 scales spans three blocks, the last part-filled
    assert 97 * (2 * 61 + 3) > bol.condition._BLOCK_VALUES
    for name, phi, psi, d, lower in sweep_pairs(tmp_path):
        rep = condition_sup(phi, psi, d, n_points=n_points, head_lower_limit=lower)
        cvs = [condition_value(s, phi, psi, d, head_lower_limit=lower,
                               raise_on_divergence=False) for s in rep.s_grid.tolist()]
        assert rep.values.tobytes() == np.array([cv.value for cv in cvs]).tobytes(), name
        remainders = _condition_curve(rep.s_grid.tolist(), phi, psi, d, lower)[1]
        assert remainders.tobytes() == np.array([cv.remainder for cv in cvs]).tobytes(), name
        diverged = [cv.s for cv in cvs if cv.head_diverged or cv.tail_diverged]
        assert np.array(rep.diverged_s).tobytes() == \
            np.array(diverged[0] if diverged else math.nan).tobytes(), name
        if name.startswith("theta"):
            assert diverged


def test_divergence_and_overflow_errors_keep_their_order(tmp_path):
    # in d = 3 with p = 1000 the first prefactor s^(2 - 3/p) overflows at
    # s = 1e160, and a flat weight makes the head diverge at 0
    phi, psi = make_power_young(1000.0), make_power_weight(0.0)
    with pytest.raises(DivergenceError) as exc:
        condition_value(1e160, phi, psi, 3)
    assert exc.value.end == "head"
    with pytest.raises(DomainError, match="prefactor overflows at s = 1e\\+160"):
        condition_value(1e160, phi, psi, 3, head_lower_limit=1e-3)
    with pytest.raises(DomainError, match="prefactor overflows"):
        condition_value(1e160, phi, psi, 3, raise_on_divergence=False)
    # its tail integrand falls like t^(-1/p): slowly, but it converges, to
    # p, and the head from 1e-3 to s = 1 is ln 1000
    cv = condition_value(1.0, phi, psi, 3, head_lower_limit=1e-3)
    assert not cv.tail_diverged
    assert cv.value == pytest.approx(1000.0 + math.log(1000.0), rel=1e-12)
    # a table Phi is clamped above its last knot, so with a flat weight
    # the tail's last piece has slope 0 and diverges
    phi = kinked_table_pair(tmp_path)[0]
    with pytest.raises(DivergenceError) as exc:
        condition_value(1.0, phi, psi, 3, head_lower_limit=1e-3)
    assert exc.value.end == "tail"
    cv = condition_value(1.0, phi, psi, 3, raise_on_divergence=False)
    assert cv.head_diverged and cv.tail_diverged


@pytest.mark.parametrize("lower", [0.0, -1.0, math.nan])
def test_a_non_positive_head_lower_limit_is_named(lower):
    # the sweep and the single scale reject it with the same message, which
    # names the lower limit and no function the caller did not call
    phi, psi = make_power_young(1.3), make_power_weight(0.5385)
    with pytest.raises(DomainError, match="^the head lower limit must be positive"):
        condition_sup(phi, psi, 2, head_lower_limit=lower)
    with pytest.raises(DomainError, match="^the head lower limit must be positive"):
        condition_value(1.0, phi, psi, 2, head_lower_limit=lower)


def test_sweep_names_the_first_overflowing_scale():
    phi, psi = make_power_young(3.0), make_power_weight(critical_theta(3.0, 5))
    s_grid = np.geomspace(1e100, 1e200, 21).tolist()
    first = None
    for s in s_grid:
        try:
            condition_value(s, phi, psi, 5, raise_on_divergence=False)
        except DomainError:
            first = s
            break
    # inside the one block of these 3-node rows, not at its start
    assert first is not None and 0 < s_grid.index(first) < bol.condition._BLOCK_VALUES // 3
    with pytest.raises(DomainError) as exc:
        condition_sup(phi, psi, 5, s_range=(1e100, 1e200), n_points=21)
    assert str(exc.value).endswith(f"s = {first!r}")


# The section5 pair (alpha = 0.1) in d = 2: pref * head + tail at 30 digits,
# mpmath.quad (mp.dps = 30, the same digits at 45) of the integrands of
# _first_log and _second_log written in mpmath, split at 0, every
# breakpoint of the section5 forms inside (0, inf) and u = 60, 1e3, 3e4.
SECTION5_VALUES = {
    1e-6: 132.947833177653138279004289764,
    1e-3: 140.413142679352985281620053299,
    1.0: 134.121837475147508094042132935,
    1e3: 127.5145920402605420158339967,
    1e6: 127.860999334023856677471752063,
    1e9: 129.016608647669553122072020455,
    1e12: 130.065474480057784779566202608,
}


def test_section5_pair_matches_30_digit_references():
    phi = make_section5_young(0.1)
    psi = make_section5_weight(phi)
    for s, want in SECTION5_VALUES.items():
        cv = condition_value(s, phi, psi, 2)
        assert cv.value == pytest.approx(want, rel=1e-9), s
        assert cv.remainder == 0.0 and not cv.head_diverged and not cv.tail_diverged


def test_gauss_legendre_rule_matches_numpy():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    np.testing.assert_allclose(bol.condition._GL_X, x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(bol.condition._GL_W, w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kink", [0.5, 5.0, 37.0])
def test_a_panel_row_is_exact_on_exponential_pieces_split_at_its_breakpoints(kink):
    # e^-|u - kink| on [0, inf) is 2 - e^-kink; its breakpoint is a panel
    # edge, and breakpoints outside (0, u_far) make empty panels
    (value,), (remainder,), (diverged,) = _condition_integral(
        lambda u: -np.abs(u - kink), np.array([[kink, -3.0, 1e9]]), False)
    assert value == pytest.approx(2.0 - math.exp(-kink), rel=1e-14)
    assert remainder == 0.0 and not diverged


@pytest.mark.parametrize("slope", [0.01, 0.0, -1e-4, -0.01, -1.0])
def test_a_panel_row_diverges_when_it_neither_drops_nor_decays_fast_enough(slope):
    (value,), (remainder,), (diverged,) = _condition_integral(
        lambda u: slope * u, np.zeros((1, 0)), False)
    if slope <= -0.01:
        # -0.01 u ends above TAIL_SLOPE_LIMIT but falls NEGLIGIBLE_LOG_DROP
        # below its peak by u = 4500, so it converges; the tail from u_far
        # is exact
        assert not diverged and remainder == 0.0
        assert value == pytest.approx(-1.0 / slope, rel=1e-13)
    else:
        # the value is the integral over [0, u_mid]
        assert diverged and remainder == math.inf
        u_mid = ConditionQuad().u_mid
        grow = math.expm1(slope * u_mid) / slope if slope else u_mid
        assert value == pytest.approx(grow, rel=1e-13)


@pytest.mark.parametrize("theta, verdict, diverged_s",
                         [(0.99, "bounded", math.nan), (1.0, "unbounded", 1e-6),
                          (1.2, "unbounded", 1e-6)])
def test_a_section5_phi_with_a_diverging_power_weight_keeps_its_verdict(theta, verdict,
                                                                        diverged_s):
    # with theta >= 1 the second integrand's log-slope tends to theta - 1
    # plus alpha/2 over ln of its argument, above TAIL_SLOPE_LIMIT, so
    # every scale's tail diverges; at theta = 0.99 it converges, slowly
    phi, psi = make_section5_young(0.1), make_power_weight(theta)
    rep = condition_sup(phi, psi, 2)
    assert rep.verdict == verdict
    assert np.array(rep.diverged_s).tobytes() == np.array(diverged_s).tobytes()
    cv = condition_value(1.0, phi, psi, 2, raise_on_divergence=False)
    assert not cv.head_diverged and cv.tail_diverged == (theta >= 1.0)
    if theta >= 1.0:
        with pytest.raises(DivergenceError) as exc:
            condition_value(1.0, phi, psi, 2)
        assert exc.value.end == "tail"


def test_panel_rows_of_a_block_equal_their_one_row_calls_at_edge_values():
    # (log-integrand, value, remainder, diverged): a row that diverges keeps
    # its integral over [0, u_mid]; a NaN or +inf peak gives inf, all -inf 0
    u_mid = ConditionQuad().u_mid
    rows = {
        "decaying": (lambda u: -u, 1.0, 0.0, False),
        "slow": (lambda u: 2 * TAIL_SLOPE_LIMIT * u, -0.5 / TAIL_SLOPE_LIMIT, 0.0, False),
        "nan_far": (lambda u: np.where(u > 100.0, np.nan, -u), -math.expm1(-u_mid),
                    math.inf, True),
        "inf_near": (lambda u: np.where(u < 1.0, np.inf, -u), math.inf, 0.0, False),
        "all_minus_inf": (lambda u: np.full_like(u, -np.inf), 0.0, math.inf, True),
        "plateau": (lambda u: np.zeros_like(u), u_mid, math.inf, True),
        "rises": (lambda u: 0.02 * u, math.expm1(0.02 * u_mid) / 0.02, math.inf, True),
    }
    forms = [form for form, *_ in rows.values()]

    def block(u):
        return np.vstack([form(u[i]) for i, form in enumerate(forms)])

    kinks = np.zeros((len(rows), 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _condition_integral(block, kinks, False)
        for i, (name, (form, value, remainder, diverged)) in enumerate(rows.items()):
            one = _condition_integral(lambda u: form(u[0])[None, :], kinks[:1], False)
            assert np.array([part[i] for part in got]).tobytes() == \
                np.array([part[0] for part in one]).tobytes(), name
            assert got[0][i] == pytest.approx(value, rel=1e-13), name
            assert got[1][i] == remainder and got[2][i] == diverged, name
