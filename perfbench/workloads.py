"""The four seeded workloads: inputs, job lists and each job's oracle.

A workload is built in two steps.  ``build`` generates the inputs from
the seed and writes the grid files (this is timed as set-up); ``attach_checks``
then computes the reference values (untimed) and attaches them to the
jobs.  Every job is a ``bol`` CLI argv, except ``l1_modulus``, which has
no command and is a library call.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles as orc

POWER = ("power:p=1.3", 1.3)
WEIGHT = ("powerweight:theta=0.5385", 0.5385)
SECTION5 = "section5:alpha=0.1"
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass
class Check:
    """One comparison of a job output against a reference.

    ``op`` is "eq" (within ``rel`` relative or ``abs_tol`` absolute), "is"
    (exact), or "le" / "ge" (one-sided bounds).
    """

    label: str
    get: object          # result dict -> value
    ref: object
    op: str = "eq"
    rel: float = 0.0
    abs_tol: float = 0.0

    def failure(self, result):
        try:
            got = self.get(result)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"{self.label}: missing ({exc!r})"
        if self.op == "eq":
            ok = abs(got - self.ref) <= max(self.rel * abs(self.ref), self.abs_tol)
        elif self.op == "le":
            ok = got <= self.ref
        elif self.op == "ge":
            ok = got >= self.ref
        else:
            ok = got == self.ref
        return None if ok else f"{self.label}: got {got!r}, reference {self.ref!r} ({self.op})"


@dataclass
class Job:
    kind: str
    argv: list = None          # CLI job
    call: tuple = None         # library job: (bol.orlicz attribute, args)
    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: Job
    grids: dict = field(default_factory=dict)   # description -> count


def _report(res):
    return res["report"]


def _code_is_zero():
    return Check("exit code", lambda r: r["code"], 0, op="is")


# -- inputs -----------------------------------------------------------------------

def _piecewise_constant(rng, n):
    """Seeded boxes from bol.corpus on a background level, so the support
    fills the box and the shift count depends only on n."""
    from bol.corpus import random_piecewise_constant
    from bol.grid import GridFunction

    f = random_piecewise_constant(rng, dim=2, n=n, h=1.0 / n, n_pieces=6)
    return GridFunction(f.spacing, f.origin, f.values + float(rng.uniform(0.2, 3.0)))


def _indicator(rng, n):
    """A random level on a seeded n/2 x n/2 box."""
    from bol.grid import GridFunction

    vals = np.zeros((n, n))
    i, j = (int(rng.integers(0, n - n // 2 + 1)) for _ in range(2))
    level = float(rng.uniform(0.2, 3.0)) * (-1.0 if rng.uniform() < 0.4 else 1.0)
    vals[i:i + n // 2, j:j + n // 2] = level
    return GridFunction(1.0 / n, (0.0, 0.0), vals)


def _rough(rng, n):
    """Every cell a distinct nonzero value."""
    from bol.grid import GridFunction

    vals = rng.uniform(0.2, 3.0, (n, n)) * np.where(rng.uniform(size=(n, n)) < 0.4, -1.0, 1.0)
    return GridFunction(1.0 / n, (0.0, 0.0), vals)


class _Writer:
    def __init__(self, workdir, workload):
        self.workdir = workdir
        self.workload = workload

    def save(self, kind, f):
        from bol.grid import save_grid_function

        path = os.path.join(self.workdir, f"{kind}_{len(self.workload.jobs):03d}.grid")
        save_grid_function(f, path)
        key = f"{kind} {'x'.join(map(str, f.shape))}"
        self.workload.grids[key] = self.workload.grids.get(key, 0) + 1
        return path


def _norms_job(w, kind, f, phi=None, psi=None):
    path = w.save(kind, f)
    argv = ["norms", "--input", path]
    if phi:
        argv += ["--phi", phi]
    if psi:
        argv += ["--psi", psi]
    return Job(kind, argv=argv, meta={"grid": f})


def build(name, seed, workdir, tiny=False):
    """Generate the workload's inputs from the seed and write its grid files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, workdir, tiny)


def _besov_pc(rng, workdir, tiny):
    wl = Workload("besov_pc", [], None)
    w = _Writer(workdir, wl)
    power = dict(phi=POWER[0], psi=WEIGHT[0])
    small, large, s5 = (8, 8, 4) if tiny else (16, 32, 5)
    wl.jobs.append(_norms_job(w, "power_indicator", _indicator(rng, small), **power))
    for n in [small] * (1 if tiny else 3) + [large]:
        wl.jobs.append(_norms_job(w, "power_pc", _piecewise_constant(rng, n), **power))
    wl.jobs.append(_norms_job(w, "section5_pc", _piecewise_constant(rng, s5), phi=SECTION5))
    wl.warmup = wl.jobs[0]
    return wl


def _rough_grids(rng, workdir, tiny):
    wl = Workload("rough_grids", [], None)
    w = _Writer(workdir, wl)
    power = dict(phi=POWER[0], psi=WEIGHT[0])
    for n in ((6,) if tiny else (8,) + (12,) * 5 + (16,) * 3):
        wl.jobs.append(_norms_job(w, "power_rough", _rough(rng, n), **power))
    wl.jobs.append(_norms_job(w, "section5_rough", _rough(rng, 3 if tiny else 6), phi=SECTION5))
    for n in ((16,) if tiny else (32, 48, 64)):
        f = _rough(rng, n)
        wl.jobs.append(Job("decompose_rough", argv=["decompose", "--input", w.save("rough", f),
                                                    "--verify"], meta={"grid": f}))
    wl.warmup = wl.jobs[0]
    return wl


def _condition_scan(rng, workdir, tiny):
    from bol.young import critical_theta

    jobs = []
    for d in (2, 3):
        for p in (1.2, 1.3, 1.4):
            theta = critical_theta(p, d)
            jobs.append(Job("condition_critical",
                            argv=["check-condition", "--phi", f"power:p={p!r}",
                                  "--psi", f"powerweight:theta={theta!r}", "--dim", str(d)],
                            meta={"p": p, "d": d}))
    jobs.append(Job("condition_offcritical",
                    argv=["check-condition", "--phi", POWER[0], "--psi", "powerweight:theta=0.8",
                          "--dim", "2", "--smin", "1e-2", "--smax", "1e10", "--points", "49"]))
    for extra in ([], ["--head-lower-limit", "1e-3"]):
        jobs.append(Job("condition_section5",
                        argv=["check-condition", "--phi", SECTION5, "--psi", SECTION5,
                              "--dim", "2"] + extra,
                        meta={"ref": "condition_section5" + ("_head_limited" if extra else "")}))
    multiples = np.round(np.exp(rng.uniform(0.0, math.log(1000.0), 3)), 3)
    jobs.append(Job("example5", argv=["example5", "--alpha", "0.1", "--s-multiples",
                                      ",".join(repr(float(m)) for m in sorted(multiples))]))
    for phi, psi, ref in ((POWER[0], WEIGHT[0], "necessity_power"),
                          (SECTION5, SECTION5, "necessity_section5")):
        jobs.append(Job("necessity", argv=["necessity", "--phi", phi, "--psi", psi, "--dim", "2"],
                        meta={"ref": ref, "phi": phi}))
    if tiny:
        jobs = [j for j in jobs if j.kind != "condition_critical" or j.meta["p"] == 1.3]
    order = rng.permutation(len(jobs))
    wl = Workload("condition_scan", [jobs[i] for i in order], None)
    wl.warmup = next(j for j in wl.jobs if j.kind == "example5")
    return wl


def _corpus_bv(rng, workdir, tiny):
    """A seeded subset of the acceptance corpus (criteria 4-6), all four sizes."""
    from bol.corpus import random_piecewise_constant

    wl = Workload("corpus_bv", [], None)
    w = _Writer(workdir, wl)
    sizes = [16, 32] if tiny else [16] * 4 + [32] * 4 + [64] * 3 + [128] * 2
    for n in sizes:
        f = random_piecewise_constant(rng, dim=2, n=n, h=1.0 / n, n_pieces=6)
        path = w.save("corpus", f)
        wl.jobs.append(Job("decompose_corpus", argv=["decompose", "--input", path, "--verify"],
                           meta={"grid": f}))
        wl.jobs.append(Job("tv_corpus", argv=["norms", "--input", path], meta={"grid": f}))
        for m in (4, 16, 64):
            wl.jobs.append(Job(f"l1_modulus_{m}h", call=("l1_modulus", (f, m * f.spacing)),
                               meta={"grid": f, "t": m * f.spacing}))
    for d, samples in ((2, None), (3, 20_000 if tiny else 2_000_000)):
        offsets = sorted(float(x) for x in np.round(rng.uniform(0.05, 0.95, 3), 4))
        argv = ["lemma6", "--dim", str(d), "--offsets", ",".join(map(repr, offsets)),
                "--seed", str(int(rng.integers(1, 2 ** 31)))]
        if samples:
            argv += ["--samples", str(samples)]
        wl.jobs.append(Job(f"lemma6_d{d}", argv=argv, meta={"d": d, "offsets": offsets}))
    wl.warmup = wl.jobs[0]
    return wl


WORKLOADS = ["besov_pc", "rough_grids", "condition_scan", "corpus_bv"]
_BUILDERS = dict(zip(WORKLOADS, [_besov_pc, _rough_grids, _condition_scan, _corpus_bv]))


# -- oracles -------------------------------------------------------------------

def _norm_checks(f):
    ref = orc.grid_norms(f.values, f.spacing)
    return [_code_is_zero()] + [
        Check(key, lambda r, k=key: _report(r)[k], ref[key], rel=orc.TOL_NORMS)
        for key in ("l1", "linf", "l2", "tv")
    ]


def _is_indicator(f):
    return np.unique(f.values[f.values != 0.0]).size == 1


def _norms_oracle(job):
    from bol.young import parse_young_spec

    f = job.meta["grid"]
    checks = _norm_checks(f)
    argv = job.argv
    phi_spec = argv[argv.index("--phi") + 1] if "--phi" in argv else None
    if phi_spec is None:
        return checks
    phi = parse_young_spec(phi_spec)
    orlicz = lambda r: _report(r)["orlicz"]
    if _is_indicator(f):
        level = float(np.abs(f.values).max())
        measure = np.count_nonzero(f.values) * f.cell_volume
        checks.append(Check("indicator closed form", orlicz,
                            orc.indicator_norm(level, measure, phi.inv), rel=orc.TOL_INDICATOR))
    if phi.kind == "power":
        p = phi.params["p"]
        checks.append(Check("Luxemburg = Lp", orlicz, orc.lp(f.values, f.spacing, p),
                            rel=orc.TOL_LP))
        if "--psi" in argv:
            ref = orc.power_besov(f.values, f.spacing, p, WEIGHT[1])
            checks += [Check(f"besov {k}", lambda r, k=k: _report(r)["besov"][k], ref[k],
                             rel=orc.TOL_BESOV) for k in ("orlicz_part", "seminorm_part", "total")]
    else:
        checks.append(Check("modular at the norm", lambda r: orc.modular(
            f.values, f.spacing, phi.inv, _report(r)["orlicz"]), 1.0, rel=orc.TOL_MODULAR))
    return checks


def _decompose_oracle(job):
    rep = _report
    return [
        _code_is_zero(),
        Check("pass", lambda r: rep(r)["pass"], True, op="is"),
        Check("reconstruction", lambda r: rep(r)["additivity"]["reconstruction_exact"], True,
              op="is"),
        Check("count bound", lambda r: rep(r)["molecules"] - rep(r)["count_bound"], 0, op="le"),
    ] + [Check(f"{k} additivity", lambda r, k=k: rep(r)["additivity"][k], 1e-12, op="le")
         for k in ("l1_rel_error", "tv_rel_error")]


def _l1_oracle(job):
    f, t = job.meta["grid"], job.meta["t"]
    h = f.spacing
    tv = orc.grid_norms(f.values, h)["tv"]
    value = lambda r: r["value"]
    return [
        Check("omega_1 <= t TV (1 + 2h/t)", value, t * tv * (1.0 + 2.0 * h / t) * (1.0 + 1e-12),
              op="le"),
        Check("omega_1 >= longest axis shift", value,
              orc.largest_axis_l1_shift(f.values, h, t) * (1.0 - 1e-12), op="ge"),
    ]


def _condition_oracle(job, recorded):
    rep = _report
    checks = [_code_is_zero()]
    if job.kind == "condition_critical":
        p, d = job.meta["p"], job.meta["d"]
        checks += [Check("verdict", lambda r: rep(r)["verdict"], "bounded", op="is"),
                   Check("D_hat closed form", lambda r: rep(r)["D_hat"],
                         orc.power_condition_closed_form(p, d), rel=orc.TOL_D_HAT)]
    elif job.kind == "condition_offcritical":
        from bol.young import critical_theta
        checks += [Check("verdict", lambda r: rep(r)["verdict"], "unbounded", op="is"),
                   Check("tail slope = theta - theta_c", lambda r: rep(r)["tail_slope"],
                         0.8 - critical_theta(1.3, 2), abs_tol=orc.TOL_SLOPE_ABS)]
    else:
        ref = recorded[job.meta["ref"]]
        checks += [Check("verdict", lambda r: rep(r)["verdict"], ref["verdict"], op="is"),
                   Check("D_hat recorded", lambda r: rep(r)["D_hat"], ref["D_hat"],
                         rel=orc.TOL_RECORDED)]
    return checks


def _example5_oracle(job, recorded):
    rep = _report
    return [
        _code_is_zero(),
        Check("pass", lambda r: rep(r)["pass"], True, op="is"),
        Check("first bound < 2", lambda r: max(row["value"] for row in rep(r)["first_bound"]),
              2.0 * (1.0 - 1e-15), op="le"),
        Check("second bound recorded", lambda r: rep(r)["second_bound"]["value"],
              recorded["example5_second_bound"], rel=orc.TOL_SECOND_BOUND),
    ]


def _necessity_oracle(job, recorded):
    from bol.young import parse_young_spec

    phi = parse_young_spec(job.meta["phi"])
    ref = recorded[job.meta["ref"]]
    rows = lambda r: _report(r)["measured"]["rows"]
    checks = [_code_is_zero()]
    for i, (radius, ratio) in enumerate(zip(ref["radii"], ref["ratios"])):
        vol = orc.unit_ball_volume(2) * radius ** 2
        checks += [
            Check(f"ball {i} Orlicz part closed form", lambda r, i=i: rows(r)[i]["orlicz"],
                  orc.indicator_norm(1.0, vol, phi.inv), rel=orc.TOL_INDICATOR),
            Check(f"ball {i} ratio recorded", lambda r, i=i: rows(r)[i]["ratio"], ratio,
                  rel=orc.TOL_RECORDED),
        ]
    return checks


def _lemma6_oracle(job):
    d = job.meta["d"]
    rows = lambda r: _report(r)["measured"]["rows"]
    checks = [_code_is_zero(), Check("pass", lambda r: _report(r)["passed"], True, op="is")]
    for i, a in enumerate(job.meta["offsets"]):
        checks.append(Check(f"offset {a} exact volume", lambda r, i=i: rows(r)[i]["exact"],
                            orc.symdiff_exact(d, 1.0, 2.0 * a), rel=orc.TOL_INDICATOR))
        if d >= 3:
            checks.append(Check(f"offset {a} MC within 3 sigma", lambda r, i=i: abs(
                rows(r)[i]["mc"] - rows(r)[i]["exact"]) - 3.0 * rows(r)[i]["mc_stderr"],
                0.0, op="le"))
    return checks


def attach_checks(wl):
    """Compute every job's reference values (untimed)."""
    with open(REFERENCES) as fh:
        recorded = json.load(fh)
    for job in wl.jobs + [wl.warmup]:
        if job.checks:
            continue
        if job.kind.startswith(("power", "section5", "tv")):
            job.checks = _norms_oracle(job)
        elif job.kind.startswith("decompose"):
            job.checks = _decompose_oracle(job)
        elif job.kind.startswith("l1_modulus"):
            job.checks = _l1_oracle(job)
        elif job.kind.startswith("condition"):
            job.checks = _condition_oracle(job, recorded)
        elif job.kind == "example5":
            job.checks = _example5_oracle(job, recorded)
        elif job.kind == "necessity":
            job.checks = _necessity_oracle(job, recorded)
        elif job.kind.startswith("lemma6"):
            job.checks = _lemma6_oracle(job)
        else:
            raise KeyError(f"no oracle for job kind {job.kind}")
