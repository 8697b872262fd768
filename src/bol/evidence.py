"""Constructive experiments: ball indicators, the geometric symmetric
difference bound, molecule-wise sufficiency estimates, and the gradient
embedding check."""

import math
from dataclasses import dataclass, field

import numpy as np

from .besov import QuadratureConfig, besov_orlicz_norm, saturated_tail
from .condition import ConditionQuad, condition_sup, condition_value
from .errors import DomainError
from .grid import GridFunction, lp_norm, total_variation, unit_ball_volume
from .molecules import decompose
from .orlicz import ShiftNormCache
from .young import WeightFunction, YoungFunction

DEFAULT_MC_SEED = 0x5EED


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    inputs: dict
    measured: dict
    passed: bool
    budget: dict = field(default_factory=dict)
    notes: str = ""


# -- exact symmetric-difference volumes of equal balls -------------------------

def ball_symdiff_volume(d: int, r: float, center_dist: float) -> float:
    """Volume of the symmetric difference of two radius-r balls (d <= 3)."""
    if center_dist < 0 or r <= 0:
        raise DomainError("radius must be positive and distance nonnegative")
    vd = unit_ball_volume(d)
    full = 2.0 * vd * r ** d
    if center_dist >= 2.0 * r:
        return full
    delta = center_dist
    if d == 1:
        inter = 2.0 * r - delta
    elif d == 2:
        inter = 2.0 * r * r * math.acos(delta / (2.0 * r)) \
            - 0.5 * delta * math.sqrt(4.0 * r * r - delta * delta)
    elif d == 3:
        inter = math.pi * (4.0 * r + delta) * (2.0 * r - delta) ** 2 / 12.0
    else:
        raise DomainError("exact symmetric difference implemented for d <= 3")
    return full - 2.0 * inter


def _mc_symdiff_volume(dim, radius, center_dist, n_samples, seed):
    """Monte Carlo volume of (B0 u B1) \\ (B0 n B1) for balls of equal radius.

    Centers sit at 0 and (center_dist, 0, ..., 0).  Returns (estimate,
    standard error).  Sampling is chunked and deterministic for a fixed
    seed.
    """
    rng = np.random.default_rng(seed)
    lo = np.full(dim, -radius)
    hi = np.full(dim, radius)
    hi[0] += center_dist
    box = float(np.prod(hi - lo))
    hits = 0
    left = n_samples
    r2 = radius * radius
    while left > 0:
        m = min(left, 2_000_000)
        pts = rng.uniform(lo, hi, size=(m, dim))
        d0 = np.einsum("ij,ij->i", pts, pts)
        pts[:, 0] -= center_dist
        d1 = np.einsum("ij,ij->i", pts, pts)
        hits += int(np.count_nonzero((d0 <= r2) ^ (d1 <= r2)))
        left -= m
    p = hits / n_samples
    vol = box * p
    stderr = box * np.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return vol, stderr


def lemma6_check(d: int, r: float, offsets, n_samples: int = 10_000_000,
                 seed: int = DEFAULT_MC_SEED) -> ExperimentRecord:
    """Symmetric-difference volume against V_d * r^(d-1) * offset.

    Exact arithmetic for d <= 3; Monte Carlo (with reported standard
    error) for d >= 3, checked within three standard errors.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    vd = unit_ball_volume(d)
    rows = []
    ok = True
    for a in offsets:
        if not 0.0 <= a < r:
            raise DomainError("offsets must satisfy 0 <= offset < r")
        bound = vd * r ** (d - 1) * a
        row = {"offset": a, "bound": bound}
        if d <= 3:
            exact = ball_symdiff_volume(d, r, 2.0 * a)
            row["exact"] = exact
            row["pass_exact"] = exact >= bound - 1e-12 * max(bound, 1.0)
            ok = ok and row["pass_exact"]
        if d >= 3:
            est, se = _mc_symdiff_volume(d, r, 2.0 * a, n_samples, seed)
            row["mc"] = est
            row["mc_stderr"] = se
            row["pass_mc"] = est >= bound - 3.0 * se
            ok = ok and row["pass_mc"]
            if d == 3:
                row["mc_matches_exact"] = abs(est - row["exact"]) <= 3.0 * max(se, 1e-12)
                ok = ok and row["mc_matches_exact"]
        rows.append(row)
    return ExperimentRecord(
        name="geometric_symdiff_bound",
        inputs={"dim": d, "r": r, "offsets": list(offsets),
                "n_samples": n_samples, "seed": seed},
        measured={"rows": rows},
        passed=ok,
        budget={"sigma": 3.0},
        notes="lower bound on the symmetric difference of equal offset balls",
    )


# -- ball-indicator embedding ratios (analytic path) ---------------------------

def _indicator_orlicz_norm(phi: YoungFunction, measure: float) -> float:
    if measure <= 0:
        return 0.0
    return 1.0 / float(phi.inv(1.0 / measure))


def ball_besov_parts(phi: YoungFunction, psi: WeightFunction, d: int, r: float,
                     head_cutoff: float = 1e-8, n_t: int = 4000):
    """Orlicz part, seminorm, and a head-divergence flag for a ball indicator.

    The modulus is closed-form: the shift of length t produces a
    symmetric difference whose volume is exact for d <= 3, and the
    Luxemburg norm of an indicator is the reciprocal inverse at the
    reciprocal measure.
    """
    vol = unit_ball_volume(d) * r ** d
    orlicz = _indicator_orlicz_norm(phi, vol)

    def omega(ts):
        return np.array([
            _indicator_orlicz_norm(phi, ball_symdiff_volume(d, r, min(t, 2.0 * r)))
            for t in ts
        ])

    # head behavior: slope of Psi(t)*omega(t) near zero decides integrability
    t_probe = np.array([head_cutoff, head_cutoff * 1.001])
    probe = psi.eval(t_probe) * omega(t_probe)
    head_slope = (math.log(probe[1]) - math.log(probe[0])) / math.log(1.001)
    head_diverged = head_slope <= 1e-9

    ts = np.geomspace(head_cutoff, 2.0 * r, n_t)
    integrand = psi.eval(ts) * omega(ts)
    seminorm = float(np.trapezoid(integrand / ts, ts))
    # omega is constant past the diameter
    seminorm += saturated_tail(psi, _indicator_orlicz_norm(phi, 2.0 * vol), 2.0 * r)
    return orlicz, seminorm, head_diverged


def necessity_ball_experiment(phi: YoungFunction, psi: WeightFunction, d: int,
                              radii, head_cutoff: float = 1e-8,
                              bounded_budget: float = None) -> ExperimentRecord:
    """Ratios of ball-indicator Besov-Orlicz norms to the scaled BV bound.

    The denominator is the (diam + d) * V_d * r^(d-1) upper bound for the
    BV norm, which makes the critical power pair scale-free.  Growth of
    the ratio along descending radii witnesses a failing embedding.
    """
    radii = list(radii)
    if any(r <= 0 for r in radii) or any(radii[i] < radii[i + 1] for i in range(len(radii) - 1)):
        raise DomainError("radii must be positive and descending")
    vd = unit_ball_volume(d)
    omega_box = max(radii) + 1.0
    diam = 2.0 * omega_box * math.sqrt(d)
    rows = []
    for r in radii:
        bv = vd * r ** d + d * vd * r ** (d - 1)
        bv_bound = (diam + d) * vd * r ** (d - 1)
        orlicz, seminorm, diverged = ball_besov_parts(phi, psi, d, r, head_cutoff)
        total = orlicz + seminorm
        rows.append({
            "radius": r,
            "bv_exact": bv,
            "bv_bound": bv_bound,
            "orlicz": orlicz,
            "seminorm": seminorm,
            "total": total,
            "ratio": total / bv_bound,
            "ratio_bv": total / bv,
            "head_truncated": diverged,
        })
    ratios = [row["ratio"] for row in rows]
    growth = ratios[-1] / ratios[0]
    spread = max(ratios) / min(ratios) - 1.0
    passed = True
    if bounded_budget is not None:
        passed = max(ratios) <= bounded_budget
    return ExperimentRecord(
        name="ball_indicator_ratios",
        inputs={"dim": d, "radii": radii, "diam_omega": diam,
                "head_cutoff": head_cutoff},
        measured={"rows": rows, "growth_factor": growth, "ratio_spread": spread},
        passed=passed,
        budget={"bounded_budget": bounded_budget},
        notes="indicator norms on the closed-form path; no grid involved",
    )


# -- molecule-wise sufficiency estimates ---------------------------------------

def sufficiency_molecule_estimates(f: GridFunction, phi: YoungFunction,
                                   psi: WeightFunction, d: int,
                                   s_range=(1e-3, 1e6),
                                   quad: QuadratureConfig = None) -> ExperimentRecord:
    """Per-molecule sup bounds at the scale split, plus the assembled
    seminorm against the measured condition sup."""
    if lp_norm(f, 1) == 0:
        raise DomainError("sufficiency experiment needs a nonzero function")
    dec = decompose(f)
    alpha = max(1.0, dec.alpha_observed)
    report = condition_sup(phi, psi, d, s_range=s_range, n_points=33,
                           quad=ConditionQuad(u_far=8192.0))
    d_hat = report.D_hat
    h = f.spacing
    rows = []
    ok = True
    skipped = 0
    for i, m in enumerate(dec.molecules):
        tv = m.tv()
        if tv == 0.0:
            skipped += 1
            continue
        linf = m.linf()
        cache = ShiftNormCache(m.layer, phi)
        if d >= 2:
            s_m = (2.0 * linf / tv) ** (1.0 / (d - 1.0))
            t_samples = [s_m, 2.0 * s_m, 10.0 * s_m]
        else:
            s_m = 1.0
            t_samples = [1.0, 2.0, 10.0]
        mol_rows = []
        for t in t_samples:
            shift_len = 1.0 / t
            lhs = cache.sup_up_to(shift_len)
            rhs = 2.0 * linf / float(phi.inv(2.0 * t * linf / tv))
            eps = 2.0 * h / shift_len if shift_len > h else 1.0
            passes = lhs <= rhs * (1.0 + eps) + 1e-12
            ok = ok and passes
            mol_rows.append({"t": t, "lhs": lhs, "rhs": rhs, "pass": passes})
        if d >= 2:
            # small-scale branch: flat bound carrying the molecule constant
            rhs_small = (2.0 ** (d / (d - 1.0)) * alpha * 2.0 * linf
                         / float(phi.inv((2.0 * linf / tv) ** (d / (d - 1.0)))))
            for t in [0.5 * s_m, 0.25 * s_m]:
                if t <= 0:
                    continue
                lhs = cache.sup_up_to(1.0 / t) if 1.0 / t > 0 else 0.0
                passes = lhs <= rhs_small * 1.05 + 1e-12
                ok = ok and passes
                mol_rows.append({"t": t, "lhs": lhs, "rhs": rhs_small,
                                 "pass": passes, "branch": "small"})
        rows.append({"molecule": i, "s_m": s_m, "checks": mol_rows})

    quad = quad or QuadratureConfig(nodes=192)
    seminorm = besov_orlicz_norm(f, phi, psi, quad).seminorm_part
    tv_f = total_variation(f)
    if d >= 2:
        budget = 2.0 ** (d / (d - 1.0)) * alpha * d_hat * tv_f
    else:
        d1 = condition_value(1.0, phi, psi, d).value
        budget = 4.0 * alpha * d1 * tv_f
    assembled_ok = seminorm <= budget * 1.1
    ok = ok and assembled_ok
    return ExperimentRecord(
        name="sufficiency_molecule_estimates",
        inputs={"dim": d, "shape": list(f.shape), "spacing": f.spacing},
        measured={"molecules": rows, "seminorm": seminorm, "budget": budget,
                  "alpha": alpha, "D_hat": d_hat, "skipped_zero_tv": skipped,
                  "assembled_ok": assembled_ok},
        passed=ok,
        budget={"assembled_headroom": 1.1},
        notes="per-layer sup bounds at the scale split",
    )


# -- measured grid isoperimetric constant --------------------------------------

def measured_iso_constant(n: int = 128, h: float = 1.0,
                          disc_radii_cells=(4, 8, 16, 32, 48)) -> float:
    """Max of measure^(1/2) / TV over axis-aligned rectangles and
    discretized discs up to n cells per side (d = 2).

    Squares realize the maximum (1/4) for the anisotropic TV; discs sit
    strictly below it because their l1 perimeter is 8r.
    """
    from .grid import ball_indicator

    best = 0.0
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            area = a * b * h * h
            tv = 2.0 * (a + b) * h  # jump count of a filled rectangle
            best = max(best, math.sqrt(area) / tv)
    # spot-check the rectangle TV formula against the kernel path
    probe = GridFunction(h, (0.0, 0.0), np.ones((3, 7)))
    if abs(total_variation(probe) - 2.0 * (3 + 7) * h) > 1e-12 * h:
        raise DomainError("rectangle TV formula disagrees with the kernel")
    for k in disc_radii_cells:
        if k > n // 2:
            continue
        ball = ball_indicator(2, k * h, h)
        area = float(ball.grid.values.sum()) * h * h
        best = max(best, math.sqrt(area) / total_variation(ball.grid))
    return best


# -- embedding of the gradient norm --------------------------------------------

def sobolev_check(corpus, d: int) -> ExperimentRecord:
    """Max ratio of the d/(d-1)-norm to the discrete TV over a corpus."""
    if d < 2:
        raise DomainError("gradient embedding check needs d >= 2")
    p = d / (d - 1.0)
    ratios = []
    for f in corpus:
        tv = total_variation(f)
        if tv == 0:
            continue
        ratios.append(lp_norm(f, p) / tv)
    if not ratios:
        raise DomainError("corpus contains only zero-variation functions")
    return ExperimentRecord(
        name="gradient_embedding",
        inputs={"dim": d, "corpus_size": len(ratios)},
        measured={"max_ratio": max(ratios), "ratios": ratios},
        passed=True,
        notes="ratio of the critical Lebesgue norm to the discrete TV",
    )
