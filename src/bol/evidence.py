"""Constructive experiments: ball indicators and the geometric symmetric
difference bound on the exact volume in every dimension, molecule-wise
sufficiency estimates, and the gradient embedding check."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .besov import besov_orlicz_norm, saturated_tail
from .condition import condition_sup, condition_value, log_domain_integral
from .errors import DomainError
from .grid import GridFunction, lp_norm, total_variation, unit_ball_volume
from .molecules import decompose
from .orlicz import ShiftNormCache
from .young import WeightFunction, YoungFunction

DEFAULT_MC_SEED = 0x5EED
BALL_HEAD_CUTOFF = 1e-8  # the smallest shift of the ball-indicator seminorm
# float64 coordinates per Monte Carlo chunk (384 KB, 16,384 points at d = 3):
# the chunk and the per-point buffers the kernel reuses for every chunk and
# offset stay in cache; 98,304 is as fast and 196,608 is slower
_MC_CHUNK_FLOATS = 49_152


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    inputs: dict
    measured: dict
    passed: bool
    budget: dict = field(default_factory=dict)
    notes: str = ""


# -- exact symmetric-difference volumes of equal balls -------------------------

def ball_symdiff_volume(d: int, r: float, center_dist):
    """Volume of the symmetric difference of two radius-r balls in R^d at
    a scalar center distance (a float comes back) or an array of them.

    With sin(phi) = s = delta / 2r the volume is 4 V_(d-1) r^d I_d, where
    I_k = int_0^phi cos^k = cos^(k-1)(phi) s / k + (k-1)/k I_(k-2) from
    I_0 = phi or I_1 = s.  Every term is positive (no full-minus-
    intersection subtraction), so the relative accuracy holds as delta -> 0.
    A radius with d ln r >= 700, whose r^d would leave float range, is a
    DomainError.
    """
    delta = np.minimum(np.asarray(center_dist, dtype=np.float64), 2.0 * r)
    if np.any(delta < 0) or r <= 0 or d < 1:
        raise DomainError("dimension and radius must be positive and distance nonnegative")
    vd, v_slice = unit_ball_volume(d), unit_ball_volume(d - 1)
    if not d * math.log(r) < 700.0:
        raise DomainError("the radius's r^d leaves float range")
    s = delta / (2.0 * r)
    cos2 = (1.0 - s) * (1.0 + s)
    integral = s if d % 2 else np.arcsin(s)
    # cos^(k-1) * s by products: an array's ** 0.5 is sqrt, a scalar's is pow
    term = s * cos2 if d % 2 else s * np.sqrt(cos2)
    for k in range(2 + d % 2, d + 1, 2):
        integral = term / k + (k - 1) / k * integral
        term = term * cos2
    vol = r ** d * np.where(delta >= 2.0 * r, 2.0 * vd, 4.0 * v_slice * integral)
    return float(vol) if vol.ndim == 0 else vol


def _mc_symdiff_volumes(dim, radius, center_dists, n_samples, seed):
    """Monte Carlo volumes of (B0 u B1) \\ (B0 n B1) for balls of equal
    radius, one per center distance, all from one draw.

    Centers sit at 0 and (c, 0, ..., 0).  Returns one (estimate, standard
    error) per distance c.  Each distance maps the uniforms of every chunk
    onto its own box [-r, r + c] x [-r, r]^(d-1) as ``rng.uniform`` does
    (lo + (hi - lo) * u), so its hits are those of a draw reseeded for
    that distance alone.  A squared distance is x^2 plus the squares of
    the other columns summed left to right; only column 0 depends on c,
    so that sum is computed once per chunk.  Chunks hold at most
    ``_MC_CHUNK_FLOATS`` coordinates; the generator fills a draw row by
    row, so the result does not depend on the chunk.  Every array is
    allocated once and refilled in place, chunk after chunk.
    """
    rng = np.random.default_rng(seed)
    r2 = radius * radius
    lo = -float(radius)
    width = radius - lo
    spans = np.full((len(center_dists), dim), width)
    spans[:, 0] = (radius + np.asarray(center_dists, dtype=np.float64)) - lo
    hits = [0] * len(center_dists)
    size = min(n_samples, max(1, _MC_CHUNK_FLOATS // dim))
    u = np.empty((size, dim))
    col0, rest, x, acc = np.empty((4, size))
    in0, in1 = np.empty((2, size), dtype=bool)
    for start in range(0, n_samples, size):
        if n_samples - start < size:  # the last chunk is short
            m = n_samples - start
            u, col0, rest, x, acc, in0, in1 = (b[:m] for b in (u, col0, rest, x, acc, in0, in1))
        rng.random(out=u)
        rest.fill(0.0)
        for j in range(1, dim):
            np.multiply(u[:, j], width, out=x)
            x += lo
            x *= x
            rest += x
        col0[...] = u[:, 0]
        for k, c in enumerate(center_dists):
            np.multiply(col0, spans[k, 0], out=x)
            x += lo
            np.multiply(x, x, out=acc)
            acc += rest
            np.less_equal(acc, r2, out=in0)
            x -= c
            np.multiply(x, x, out=acc)
            acc += rest
            np.less_equal(acc, r2, out=in1)
            np.not_equal(in0, in1, out=in1)
            hits[k] += int(np.count_nonzero(in1))
    out = []
    for span, h in zip(spans, hits):
        box = float(np.prod(span))
        p = h / n_samples
        out.append((box * p, box * np.sqrt(max(p * (1.0 - p), 0.0) / n_samples)))
    return out


def lemma6_check(d: int, r: float, offsets, n_samples: int = 10_000_000,
                 seed: int = DEFAULT_MC_SEED) -> ExperimentRecord:
    """Symmetric-difference volume against V_d * r^(d-1) * offset.

    The exact volume in every d; in d >= 3 also a Monte Carlo estimate
    (with reported standard error), checked within three standard errors
    against the bound and against the exact volume.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) \
            or n_samples < 1:
        raise DomainError("n_samples must be an integer of at least 1")
    vd = unit_ball_volume(d)
    offsets = list(offsets)
    if not 0.0 < r < math.inf or d * math.log(r) >= 700.0:
        raise DomainError("r must be positive and small enough for a finite volume")
    if not all(0.0 <= a < r for a in offsets):
        raise DomainError("offsets must satisfy 0 <= offset < r")
    if d >= 3 and offsets:
        mc = _mc_symdiff_volumes(d, r, [2.0 * a for a in offsets], n_samples, seed)
    rows = []
    ok = True
    for i, a in enumerate(offsets):
        bound = vd * r ** (d - 1) * a
        exact = ball_symdiff_volume(d, r, 2.0 * a)
        row = {"offset": a, "bound": bound, "exact": exact,
               "pass_exact": exact >= bound - 1e-12 * max(bound, 1.0)}
        ok = ok and row["pass_exact"]
        if d >= 3:
            est, se = mc[i]
            row.update(mc=est, mc_stderr=se, pass_mc=est >= bound - 3.0 * se,
                       mc_matches_exact=abs(est - exact) <= 3.0 * max(se, 1e-12))
            ok = ok and row["pass_mc"] and row["mc_matches_exact"]
        rows.append(row)
    return ExperimentRecord(
        name="geometric_symdiff_bound",
        inputs={"dim": d, "r": r, "offsets": offsets,
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
    return math.exp(-float(phi.log_inv(-math.log(measure))))


def ball_besov_parts(phi: YoungFunction, psi: WeightFunction, d: int, r: float,
                     head_cutoff: float = BALL_HEAD_CUTOFF):
    """Orlicz part, seminorm, and a head-divergence flag for a ball indicator.

    The modulus is closed-form: the shift of length t produces a
    symmetric difference of exact volume (``ball_symdiff_volume``), and
    the Luxemburg norm of an indicator is the reciprocal inverse at the
    reciprocal measure.  The seminorm integrates Psi(t) * omega(t) over
    u = ln t with the exact log-domain rule on 4000 nodes from the head
    cutoff to the diameter, which must exceed it; the volume at the
    cutoff must be a positive normal float.
    """
    if not 2.0 * r > head_cutoff \
            or not ball_symdiff_volume(d, r, head_cutoff) >= np.finfo(float).tiny:
        raise DomainError("need a diameter above the head cutoff and a normal volume there")
    vol = unit_ball_volume(d) * r ** d
    orlicz = _indicator_orlicz_norm(phi, vol)

    def log_integrand(u):
        """ln(Psi(t) * omega(t)) at t = e^u, with ln omega = -log_inv(-ln vol)."""
        log_vol = np.log(ball_symdiff_volume(d, r, np.exp(u)))
        return np.asarray(psi.log_eval(u)) - np.asarray(phi.log_inv(-log_vol))

    # head behavior: slope of Psi(t)*omega(t) near zero decides integrability
    probe = log_integrand(np.log([head_cutoff, head_cutoff * 1.001]))
    head_slope = float(probe[1] - probe[0]) / math.log(1.001)
    head_diverged = head_slope <= 1e-9

    u = np.linspace(math.log(head_cutoff), math.log(2.0 * r), 4000)
    seminorm = log_domain_integral(log_integrand(u), u)
    # omega is constant past the diameter
    seminorm += saturated_tail(psi, _indicator_orlicz_norm(phi, 2.0 * vol), 2.0 * r)
    return orlicz, seminorm, head_diverged


def necessity_ball_experiment(phi: YoungFunction, psi: WeightFunction, d: int,
                              radii) -> ExperimentRecord:
    """Ratios of ball-indicator Besov-Orlicz norms to the scaled BV bound.

    The denominator is the (diam + d) * V_d * r^(d-1) upper bound for the
    BV norm, which makes the critical power pair scale-free.  Growth of
    the ratio along descending radii witnesses a failing embedding.
    """
    radii = list(radii)
    if not radii or not all(0.0 < r < math.inf for r in radii) \
            or radii != sorted(radii, reverse=True) or d * math.log(radii[0]) >= 700.0:
        raise DomainError("radii must be positive, descending and small enough for a finite volume")
    vd = unit_ball_volume(d)
    omega_box = max(radii) + 1.0
    diam = 2.0 * omega_box * math.sqrt(d)
    rows = []
    for r in radii:
        bv = vd * r ** d + d * vd * r ** (d - 1)
        bv_bound = (diam + d) * vd * r ** (d - 1)
        orlicz, seminorm, diverged = ball_besov_parts(phi, psi, d, r)
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
    return ExperimentRecord(
        name="ball_indicator_ratios",
        inputs={"dim": d, "radii": radii, "diam_omega": diam,
                "head_cutoff": BALL_HEAD_CUTOFF},
        measured={"rows": rows, "growth_factor": growth, "ratio_spread": spread},
        passed=True,
        budget={"bounded_budget": None},  # a key of the report schema
        notes="indicator norms on the closed-form path; no grid involved",
    )


# -- molecule-wise sufficiency estimates ---------------------------------------

def sufficiency_molecule_estimates(f: GridFunction, phi: YoungFunction,
                                   psi: WeightFunction, d: int) -> ExperimentRecord:
    """Per-molecule sup bounds at the scale split, plus the assembled
    seminorm against the measured condition sup."""
    if lp_norm(f, 1) == 0:
        raise DomainError("sufficiency experiment needs a nonzero function")
    dec = decompose(f)
    alpha = max(1.0, dec.alpha_observed)
    report = condition_sup(phi, psi, d, s_range=(1e-3, 1e6), n_points=33)
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
                lhs = cache.sup_up_to(1.0 / t)
                passes = lhs <= rhs_small * 1.05 + 1e-12
                ok = ok and passes
                mol_rows.append({"t": t, "lhs": lhs, "rhs": rhs_small,
                                 "pass": passes, "branch": "small"})
        rows.append({"molecule": i, "s_m": s_m, "checks": mol_rows})

    seminorm = besov_orlicz_norm(f, phi, psi, nodes=192).seminorm_part
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
