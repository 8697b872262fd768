import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import bol.evidence
from bol.corpus import make_corpus
from bol.errors import DivergenceError, DomainError
from bol.evidence import (_mc_symdiff_volumes, ball_besov_parts, ball_symdiff_volume,
                          lemma6_check, necessity_ball_experiment, sobolev_check,
                          sufficiency_molecule_estimates)
from bol.grid import GridFunction, unit_ball_volume
from bol.young import critical_theta, make_power_weight, make_power_young
from conftest import measured_iso_constant

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


def test_symdiff_dimension_domain():
    with pytest.raises(DomainError, match="dimension and radius must be positive"):
        ball_symdiff_volume(0, 1.0, 0.5)
    # both unit-ball volumes come before the recursion, so a dimension whose
    # volume leaves float range raises before any step of it
    for d in (342, 10 ** 15):
        with pytest.raises(DomainError, match="leaves float range"):
            ball_symdiff_volume(d, 1.0, 0.5)


def mp_symdiff_volume(d, r, delta):
    """Full volume minus twice the lens, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        r, x = mpmath.mpf(r), mpmath.mpf(delta)
        if d == 1:
            lens = 2 * r - x
        elif d == 2:
            lens = 2 * r * r * mpmath.acos(x / (2 * r)) - x / 2 * mpmath.sqrt(4 * r * r - x * x)
        else:
            lens = mpmath.pi * (4 * r + x) * (2 * r - x) ** 2 / 12
        full = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1) * r ** d
        return full - 2 * lens


def test_symdiff_matches_mpmath_at_all_offsets():
    for d in (1, 2, 3):
        for r in (0.5, 1.0, 3.0):
            for frac in (1e-17, 1e-15, 1e-12, 1e-6, 0.01, 0.3, 0.9, 0.9995):
                delta = frac * 2.0 * r
                want = mp_symdiff_volume(d, r, delta)
                got = ball_symdiff_volume(d, r, delta)
                assert abs(got - want) <= 2e-15 * want, (d, r, frac)


def mp_betainc_symdiff_volume(d, r, delta):
    """2 V_d r^d times the regularised incomplete beta I_(s^2)(1/2, (d+1)/2),
    s = delta / 2r, in 50-digit arithmetic: the cap-volume identity in
    every dimension."""
    with mpmath.workdps(50):
        r, d = mpmath.mpf(r), mpmath.mpf(d)
        s = mpmath.mpf(delta) / (2 * r)
        vd = mpmath.pi ** (d / 2) / mpmath.gamma(d / 2 + 1)
        return 2 * vd * r ** d * mpmath.betainc(mpmath.mpf(0.5), (d + 1) / 2, 0, s * s,
                                                regularized=True)


SYMDIFF_FRACS = [1e-17, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9,
                 0.99, 0.9995, 0.9999995]


@pytest.mark.parametrize("d, tol", [(d, 1e-15) for d in range(1, 11)] + [(40, 5e-15)])
def test_symdiff_matches_the_incomplete_beta_in_every_dimension(d, tol):
    for r in (0.125, 1.0, 3.0):
        for frac in SYMDIFF_FRACS:
            delta = frac * 2.0 * r
            want = mp_betainc_symdiff_volume(d, r, delta)
            got = ball_symdiff_volume(d, r, delta)
            assert abs(got - want) <= tol * want, (d, r, frac)


def test_symdiff_array_form_equals_scalar_calls():
    rng = np.random.default_rng(8)
    for d in range(1, 11):
        for r in (0.125, 1.0, 3.0):
            deltas = np.concatenate([[0.0, 1e-300, 2.0 * r, 5.0 * r],
                                     rng.uniform(0.0, 2.0 * r, 2000),
                                     np.geomspace(1e-12, 2.0 * r, 500)])
            want = [ball_symdiff_volume(d, r, x) for x in deltas]
            assert all(type(v) is float for v in want)
            assert ball_symdiff_volume(d, r, deltas).tolist() == want
    with pytest.raises(DomainError):
        ball_symdiff_volume(2, 1.0, np.array([0.5, -1e-9]))


def test_ball_parts_survive_tiny_head_cutoff():
    for d in (2, 3):
        orlicz, seminorm, diverged = ball_besov_parts(
            PHI, PSI_CRIT, d, 1.0, head_cutoff=1e-17
        )
        assert orlicz > 0 and math.isfinite(seminorm) and seminorm > 0
        assert not diverged


def test_ball_seminorm_matches_mpmath_quadrature():
    # power pair: omega(t) = vol(t)^(1/p), so the seminorm is one smooth
    # integral over [head_cutoff, 2r] plus the saturated closed-form tail
    p, r, cutoff = 1.3, 1.0, 1e-8
    for d in (2, 3):
        theta = critical_theta(p, d)
        with mpmath.workdps(30):
            big_r = mpmath.mpf(r)
            vol = lambda t: mp_symdiff_volume(d, big_r, t)
            integrand = lambda t: t ** (-theta) * vol(t) ** (1 / mpmath.mpf(p)) / t
            nodes = [cutoff * 10 ** k for k in range(9)] + [2 * big_r]
            tail = vol(2 * big_r) ** (1 / mpmath.mpf(p)) * (2 * big_r) ** (-theta) / theta
            want = mpmath.quad(integrand, nodes) + tail
        _, seminorm, _ = ball_besov_parts(make_power_young(p), make_power_weight(theta),
                                          d, r, head_cutoff=cutoff)
        assert seminorm == pytest.approx(float(want), rel=5e-7), d


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


def test_lemma6_d4_rows_carry_the_exact_volume():
    # whether the record passes is left open (DECISIONS.md D1)
    rec = lemma6_check(4, 1.0, [0.1, 0.5, 0.9], 20_000)
    for row in rec.measured["rows"]:
        want = mp_betainc_symdiff_volume(4, 1.0, 2.0 * row["offset"])
        assert abs(row["exact"] - want) <= 1e-15 * want
        assert row["pass_exact"]
        assert set(row) == {"offset", "bound", "exact", "pass_exact",
                            "mc", "mc_stderr", "pass_mc", "mc_matches_exact"}


def test_lemma6_monte_carlo_d3_small():
    rec = lemma6_check(3, 1.0, [0.5], n_samples=200_000)
    assert rec.passed
    row = rec.measured["rows"][0]
    assert abs(row["mc"] - row["exact"]) <= 3.0 * row["mc_stderr"]


def test_mc_volume_does_not_depend_on_the_chunk(monkeypatch):
    # the generator fills a draw row by row, so 25-point chunks of a d = 4
    # draw give the same hit counts as one chunk, 3001 = 120 * 25 + 1, and
    # so do the default chunks of a d = 3 draw, 100,003 = 6 * 16,384 + 1,699
    parts = _mc_symdiff_volumes(3, 1.0, [0.3, 1.1], 100_003, 5)
    whole = _mc_symdiff_volumes(4, 1.0, [0.0, 0.7, 1.9], 3001, 11)
    monkeypatch.setattr(bol.evidence, "_MC_CHUNK_FLOATS", 100)
    assert _mc_symdiff_volumes(4, 1.0, [0.0, 0.7, 1.9], 3001, 11) == whole
    monkeypatch.setattr(bol.evidence, "_MC_CHUNK_FLOATS", 3 * 100_003)
    assert _mc_symdiff_volumes(3, 1.0, [0.3, 1.1], 100_003, 5) == parts


# the corpus_bv seed-2 job of DECISIONS.md D1: 2,000,000 points in d = 3,
# many chunks, the last of them short
SEED2_DRAW = (3, 1.0, [0.2175, 0.5671, 0.6078], 2_000_000, 1107383674)


def test_lemma6_seed2_draw_is_pinned():
    # every estimate and standard error bit for bit as the draw first gave them
    assert lemma6_check(*SEED2_DRAW).measured == {"rows": [
        {"offset": 0.2175, "bound": 0.91106186954104, "exact": 2.690086688057144,
         "pass_exact": True, "mc": 2.6965482200000004, "mc_stderr": 0.003081639771291806,
         "pass_mc": True, "mc_matches_exact": True},
        {"offset": 0.5671, "bound": 2.375462925134362, "exact": 6.3624341738142265,
         "pass_exact": True, "mc": 6.3782662468, "mc_stderr": 0.0044317472833981676,
         "pass_mc": True, "mc_matches_exact": False},
        {"offset": 0.6078, "bound": 2.545946686469168, "exact": 6.697314295896849,
         "pass_exact": True, "mc": 6.713774065600001, "mc_stderr": 0.004543153383799093,
         "pass_mc": True, "mc_matches_exact": False}]}


def test_lemma6_draw_allocates_under_2_mb():
    # the chunk buffers are allocated once, not per chunk or per offset
    lemma6_check(3, 1.0, [0.5], 1000, 1)  # first-call set-up is not the draw's
    tracemalloc.start()
    try:
        lemma6_check(*SEED2_DRAW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _mc_volume_own_draw(dim, radius, center_dist, n_samples, seed):
    """One distance on a generator reseeded for it alone, with
    ``rng.uniform``: the hits the shared draw must repeat.  A squared
    distance is x^2 plus the other columns' squares summed left to right."""
    rng = np.random.default_rng(seed)
    lo = np.full(dim, -radius)
    hi = np.full(dim, radius)
    hi[0] += center_dist
    box = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(n_samples, dim))
    rest = np.zeros(n_samples)
    for j in range(1, dim):
        rest = rest + pts[:, j] * pts[:, j]
    x = pts[:, 0]
    d0 = x * x + rest
    x = x - center_dist
    d1 = x * x + rest
    r2 = radius * radius
    p = np.count_nonzero((d0 <= r2) ^ (d1 <= r2)) / n_samples
    return box * p, box * np.sqrt(max(p * (1.0 - p), 0.0) / n_samples)


@pytest.mark.parametrize("dim", [3, 4, 5, 9])
@pytest.mark.parametrize("n_samples, chunk", [(300_001, None), (3001, 100)])
def test_mc_volumes_repeat_the_hits_of_a_draw_per_distance(monkeypatch, dim, n_samples, chunk):
    # neither n divides the chunk
    if chunk is not None:
        monkeypatch.setattr(bol.evidence, "_MC_CHUNK_FLOATS", chunk)
    dists = [0.0, 0.4, 1.2, 1.9998]
    got = _mc_symdiff_volumes(dim, 1.0, dists, n_samples, 0x5EED)
    assert got == [_mc_volume_own_draw(dim, 1.0, c, n_samples, 0x5EED) for c in dists]


def test_mc_volumes_take_an_integer_radius():
    # the box stays float: an integer one would truncate r + c to an integer
    assert _mc_symdiff_volumes(3, 1, [0.435], 20_000, 3) == \
        _mc_symdiff_volumes(3, 1.0, [0.435], 20_000, 3)


def test_lemma6_offset_domain(monkeypatch):
    def draw(*args):
        raise AssertionError("drew before checking every offset")

    monkeypatch.setattr(bol.evidence, "_mc_symdiff_volumes", draw)
    with pytest.raises(DomainError):
        lemma6_check(2, 1.0, [1.5])
    with pytest.raises(DomainError, match="offsets must satisfy 0 <= offset < r"):
        lemma6_check(3, 1.0, [0.5, 1.5])


@pytest.mark.parametrize("n_samples", [2.5, 1e3, True, 0])
def test_lemma6_rejects_a_sample_count_that_is_not_a_positive_integer(monkeypatch, n_samples):
    def draw(*args):
        raise AssertionError("drew before checking the sample count")

    monkeypatch.setattr(bol.evidence, "_mc_symdiff_volumes", draw)
    with pytest.raises(DomainError, match="n_samples must be an integer of at least 1"):
        lemma6_check(3, 1.0, [0.5], n_samples)


def test_lemma6_radius_domain(monkeypatch):
    def draw(*args):
        raise AssertionError("drew before checking the radius")

    monkeypatch.setattr(bol.evidence, "_mc_symdiff_volumes", draw)
    for d, r, offsets in ((2, 1e200, [1e199]), (3, 1e200, [1e199]), (2, math.inf, [1.0]),
                          (3, math.nan, [0.5]), (3, 0.0, []), (3, -1.0, [])):
        with pytest.raises(DomainError, match="r must be positive"):
            lemma6_check(d, r, offsets)


def test_measured_iso_constant_is_a_quarter():
    # squares are the anisotropic-perimeter maximizers
    assert measured_iso_constant(n=32) == pytest.approx(0.25, abs=1e-12)


def test_necessity_critical_pair_ratios_stable():
    for d in (2, 4):
        psi = make_power_weight(critical_theta(1.3, d))
        rec = necessity_ball_experiment(PHI, psi, d, [1, 0.5, 0.25, 0.125])
        assert all(math.isfinite(r["ratio"]) for r in rec.measured["rows"])
        assert rec.measured["ratio_spread"] < 0.10, d
        assert not any(r["head_truncated"] for r in rec.measured["rows"])


def test_ball_parts_need_a_window_above_the_head_cutoff():
    # the seminorm window [head_cutoff, 2r] would run backwards, and in
    # d = 341 the volume at the cutoff underflows at r = 1/8
    for d, r in ((3, 4e-9), (3, 1e-60), (3, 1e-170), (341, 0.125)):
        with pytest.raises(DomainError, match="head cutoff"):
            ball_besov_parts(PHI, PSI_CRIT, d, r)


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


def test_radius_past_float_range_is_a_domain_error():
    # r^d of a Python float would raise a bare OverflowError here
    with pytest.raises(DomainError, match="leaves float range"):
        ball_symdiff_volume(2, 1e200, 1.0)
    with pytest.raises(DomainError, match="leaves float range"):
        ball_besov_parts(PHI, make_power_weight(0.5385), 2, 1e200)
