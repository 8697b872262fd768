"""One sha256 digest per report, for checking that a change keeps every
output byte-identical.

    python3 tools/report_digests.py [ROOT] > digests.txt
    python3 tools/report_digests.py --text [ROOT] > texts.jsonl

ROOT is a checkout of this repository (default: the one holding this
script); ``bol`` is imported from ROOT/src and the workload generators
from ROOT/perfbench.  Run it on two checkouts and ``diff`` the outputs.
Each line is ``sha256  key``.  The digest covers a command's exit code,
stdout and stderr (or the text of what it raised), with the temporary
directory of the grid and table files and ROOT replaced by fixed tokens.
Each Python warning on stderr keeps its category and message, but its
``file.py:LINE:`` and the source line echoed under it become one token,
so code that moves without a change in behaviour keeps its digests.  With
``--text`` each line is instead the JSON list ``[key, text]`` of the
digested text itself (``tools/report_drift.py`` compares two of them).

The outputs: every ``norms``, ``decompose`` and ``l1_modulus`` job of
the ``besov_pc``, ``rough_grids`` and ``corpus_bv`` workloads at seeds
1-3, every ``condition_scan`` job at seed 1, the Monte Carlo record of
``lemma6_check`` (d = 3, 20,000 samples) at the offsets and seed of
each ``corpus_bv`` ``lemma6 --dim 3`` job and, in d = 3 and 4, at
offsets 0.1, 0.5, 0.9 with the default seed, and once more in d = 3 at
100,003 samples, which span several Monte Carlo chunks and divide none
(the command crashes before it prints its report in d >= 3, so these
records are what pins its numbers), a set of default and variant
commands (among them ``necessity`` and ``lemma6`` at radii outside the
seminorm window or float range, ``check-condition`` with a flat weight,
whose first integral diverges at every scale, with theta = 1/1.3 - 0.0007,
whose second integral converges with a tail log-slope of only -0.0007,
and with a lower limit
on the first integral of the power and the section5 pair, so that
every branch of ``condition_value`` is covered, and with 17 and 50
scales, whose sweep
ends in a part-filled block, the section5 pair also with a lower limit,
a power pair in d = 5 on scales 1e100 to 1e200 whose first prefactor
overflows at the 8th of its 21 scales, inside one kinked block (exit 3),
and ``example5`` at scale multiples 1, 1.5 and 1e6, the first bound at
s = r and one whose head spans several panels, with a second-bound
window of 200,000, past the last fixed panel edge, and with alpha = 0.01
on a window of 1,000, whose remainder exceeds its value (exit 3)),
``norms`` of the staircase with theta = 0.9995, whose
seminorm head has log-slope -0.0005, ``sufficiency_molecule_estimates``
in d = 1, 2, 3, ``check-condition`` in d = 2 and 3 with a ``table:``
Young function whose log-log slope changes at each knot and the weight
paired with it (in d = 2 also with a lower limit on the first integral,
whose rows close between the knots), the commands run with a ``table:``
Young function sampled from t^1.3 (``necessity`` and ``norms`` also with
the weight paired with it),
and ``norms`` at the ends of the Luxemburg solve: a 3x3 grid at spacing
1e60 and 1e-200, and a table Phi whose clamped ends keep the modular
above 1 (no finite norm) or at most 1 (norm 0), and ``norms`` with the
weight paired with t^1.3 on a 1-D grid at spacing 1e-170, where t^2
underflows (``norms --input g.csv --dim 1 --spacing 1e-170 --phi
power:p=1.3 --psi paired:phi=power:p=1.3``), ``norms --phi power:p=1.3``
of four cells of 1e308 at spacing 1, whose norm is past float max (exit
3), and ``norms --psi`` of the same Phi on [2^1023, 0, 2^1022, 2^1021]
at spacing 0.01, whose largest value is 2^1023, and ``norms --psi
powerweight:theta=...`` of a power Phi on grids whose every cell is a
distinct value (40 cells in d = 1, 32x32 and 6x5x7 cells), whose shift
sums all take the direct evaluator, and ``l1_modulus`` of an
all-negative grid and of a signed grid with zero cells inside, in d = 1
(40 cells, 20h) and d = 3 (8x7x6 cells, 4h), and of a signed 9x13 grid
at 8.5h, the largest radius short of saturation, all of which take the
coarea route, and ``norms`` of three ``.grid`` files: one with CRLF line
ends and blank lines, which reads, and one holding ``1_0`` and one with
two values on a line, which exit 3.  Last come commands that
take options from ``BOL_*`` variables and from a ``--config`` file: a
dimension for raw csv and ``.grid`` input, int, float and list keys of
five commands, and the environment beating the config file.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from unittest import mock

TEXT = "--text" in sys.argv[1:2]
ARGS = sys.argv[1 + TEXT:]
ROOT = os.path.abspath(ARGS[0] if ARGS else
                       os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import bol.cli  # noqa: E402
import bol.evidence  # noqa: E402
import bol.orlicz  # noqa: E402
import workloads  # noqa: E402

TOKEN = "<tmp>"
# a warning as warnings.formatwarning writes it: where, category, message,
# then the source line of where, indented, when it can be read
WARNING = re.compile(r"^\S.*?\.py:\d+: (\w+): (.*)\n(?:  .*\n)?", re.MULTILINE)
CRIT = {2: "powerweight:theta=0.5384615384615385", 3: "powerweight:theta=0.3076923076923077"}
# a table Phi whose log-log slope changes at each of its knots
KINKED_T = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]
KINKED_SLOPES = [1.2, 2.0, 1.5, 3.0, 1.1, 2.5]

VARIANTS = [
    ["check-condition"],
    ["check-condition", "--dim", "3"],
    ["check-condition", "--phi", "power:p=1.2", "--psi", "powerweight:theta=0.6666666666666667"],
    ["check-condition", "--phi", "power:p=1.4", "--psi", "powerweight:theta=0.4285714285714286"],
    ["check-condition", "--psi", "powerweight:theta=0.8"],
    ["check-condition", "--psi", "powerweight:theta=0"],
    ["check-condition", "--psi", "powerweight:theta=0.7685307692307691"],
    ["check-condition", "--head-lower-limit", "1e-3"],
    ["check-condition", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1"],
    ["check-condition", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1",
     "--head-lower-limit", "1e-3"],
    ["check-condition", "--points", "17"],
    ["check-condition", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1",
     "--points", "50"],
    ["check-condition", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1",
     "--head-lower-limit", "1e-3", "--points", "50"],
    ["check-condition", "--phi", "power:p=3", "--psi", "powerweight:theta=-2.3333333333333335",
     "--dim", "5", "--smin", "1e100", "--smax", "1e200", "--points", "21"],
    ["example5", "--alpha", "0.1"],
    ["example5", "--s-multiples", "1,1.5,1000000"],
    ["example5", "--alpha", "0.05"],
    ["example5", "--x-span", "200000"],
    ["example5", "--alpha", "0.01", "--x-span", "1000"],
    ["necessity"],
    ["necessity", "--dim", "3"],
    ["necessity", "--dim", "4"],
    ["necessity", "--psi", "powerweight:theta=0.8"],
    ["necessity", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1"],
    ["necessity", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1", "--dim", "3"],
    ["necessity", "--dim", "3", "--radii", "1,4e-9"],
    ["necessity", "--dim", "3", "--radii", "1,1e-170"],
    ["necessity", "--dim", "341"],
    ["lemma6", "--dim", "2"],
    ["lemma6", "--dim", "2", "--r", "1e200", "--offsets", "1e199"],
    ["lemma6", "--r", "inf", "--offsets", "1"],
    ["lemma6", "--dim", "3", "--samples", "20000"],
    ["sobolev"],
    ["report"],
    ["decompose", "--fixture", "staircase", "--verify"],
    ["norms", "--fixture", "staircase", "--phi", "power:p=1.3", "--psi", CRIT[2]],
    ["norms", "--fixture", "staircase", "--phi", "section5:alpha=0.1",
     "--psi", "section5:alpha=0.1"],
    ["norms", "--fixture", "staircase", "--phi", "power:p=1.3", "--psi",
     "powerweight:theta=0.9995"],
]


def emit(key, text, tmp):
    key, text = key.replace(tmp, TOKEN), text.replace(tmp, TOKEN).replace(ROOT, "<root>")
    if TEXT:
        print(json.dumps([key, text]))
    else:
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {key}")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bol.cli.main(list(argv))
    except Exception as exc:
        return f"raised {exc!r}"
    err = WARNING.sub(r"<warning>: \1: \2\n", err.getvalue())
    return f"{code}\n{out.getvalue()}\n{err}"


def run_job(job):
    if job.call is not None:
        name, args = job.call
        try:
            return repr(float(getattr(bol.orlicz, name)(*args)))
        except Exception as exc:
            return f"raised {exc!r}"
    return run_cli(job.argv)


def workload_outputs(tmp):
    for name, seeds in (("besov_pc", (1, 2, 3)), ("rough_grids", (1, 2, 3)),
                        ("condition_scan", (1,)), ("corpus_bv", (1, 2, 3))):
        for seed in seeds:
            workdir = os.path.join(tmp, f"{name}_{seed}")
            os.makedirs(workdir)
            wl = workloads.build(name, seed, workdir)
            for i, job in enumerate(wl.jobs):
                if name == "condition_scan" or not job.kind.startswith("lemma6"):
                    emit(f"{name} seed={seed} job={i:02d} {job.kind}", run_job(job), tmp)
                elif job.kind == "lemma6_d3":
                    mc_seed = int(job.argv[job.argv.index("--seed") + 1])
                    lemma6_output(f"{name} seed={seed} job={i:02d}", job.meta["offsets"],
                                  mc_seed, tmp)


def lemma6_output(key, offsets, seed, tmp, dim=3, n_samples=20_000):
    """The record of ``lemma6_check`` in ``dim`` >= 3, called directly: the
    command crashes there before it prints its report."""
    try:
        text = repr(bol.evidence.lemma6_check(dim, 1.0, offsets, n_samples, seed).measured)
    except Exception as exc:
        text = f"raised {exc!r}"
    emit(f"{key} lemma6_check({dim}, 1.0, {offsets!r}, {n_samples}, {seed})", text, tmp)


def _plain(obj):
    """``obj`` with str keys, lists for tuples and the repr of each float
    that is not finite, as in a report; ``default=repr`` takes the rest."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def sufficiency_outputs(tmp):
    from bol.corpus import random_piecewise_constant
    from bol.young import make_power_weight, make_power_young

    phi = make_power_young(1.3)
    for d, theta, n in ((1, 0.5, 16), (2, 0.5384615384615385, 12), (3, 0.3076923076923077, 6)):
        f = random_piecewise_constant(np.random.default_rng(d), dim=d, n=n, n_pieces=4)
        try:
            rec = bol.evidence.sufficiency_molecule_estimates(f, phi, make_power_weight(theta), d)
            text = json.dumps(_plain(dataclasses.asdict(rec)), sort_keys=True, default=repr)
        except Exception as exc:
            text = f"raised {exc!r}"
        emit(f"sufficiency_molecule_estimates d={d}", text, tmp)


def table_outputs(tmp):
    from bol.grid import save_grid_function

    path = os.path.join(tmp, "phi13.csv")
    with open(path, "w") as fh:
        for t in np.geomspace(1e-6, 1e6, 61):
            fh.write(f"{float(t)!r},{float(t) ** 1.3!r}\n")
    grid = os.path.join(tmp, "pc.grid")
    save_grid_function(workloads._piecewise_constant(np.random.default_rng(5), 12), grid)
    kinked = os.path.join(tmp, "kinked.csv")
    vs = [1e-3]
    for slope, t0, t1 in zip(KINKED_SLOPES, KINKED_T, KINKED_T[1:]):
        vs.append(vs[-1] * (t1 / t0) ** slope)
    with open(kinked, "w") as fh:
        fh.writelines(f"{t!r},{v!r}\n" for t, v in zip(KINKED_T, vs))
    phi, kinked = f"table:file={path}", f"table:file={kinked}"
    for argv in (["check-condition", "--phi", kinked, "--psi", f"paired:phi={kinked}"],
                 ["check-condition", "--phi", kinked, "--psi", f"paired:phi={kinked}",
                  "--dim", "3"],
                 ["check-condition", "--phi", kinked, "--psi", f"paired:phi={kinked}",
                  "--head-lower-limit", "1e-3"],
                 ["check-condition", "--phi", phi, "--psi", CRIT[2]],
                 ["check-condition", "--phi", phi, "--psi", CRIT[3], "--dim", "3"],
                 ["necessity", "--phi", phi, "--psi", CRIT[2]],
                 ["necessity", "--phi", phi, "--psi", f"paired:phi={phi}"],
                 ["norms", "--input", grid, "--phi", phi, "--psi", CRIT[2]],
                 ["norms", "--input", grid, "--phi", phi, "--psi", f"paired:phi={phi}"]):
        emit(" ".join(argv), run_cli(argv), tmp)


def solve_edge_outputs(tmp):
    grid, ones, table = (os.path.join(tmp, name) for name in ("g.csv", "ones.csv", "clamp.csv"))
    with open(grid, "w") as fh:
        fh.write("1,2,3,4,5,6,7,8,9\n")
    with open(ones, "w") as fh:
        fh.write(",".join(["1"] * 100) + "\n")
    with open(table, "w") as fh:
        fh.write("0.001,0.0001\n1,1\n1000,10000000\n")
    for path, shape, spacing, phi in ((grid, "3,3", "1e60", "power:p=1.3"),
                                      (grid, "3,3", "1e-200", "power:p=1.3"),
                                      (ones, "10,10", "100", f"table:file={table}"),
                                      (ones, "10,10", "1e-5", f"table:file={table}")):
        argv = ["norms", "--input", path, "--dim", "2", "--shape", shape,
                "--spacing", spacing, "--phi", phi]
        emit(" ".join(argv), run_cli(argv), tmp)
    # the weight paired with t^1.3 where t^2 underflows: its log form still holds
    argv = ["norms", "--input", grid, "--dim", "1", "--spacing", "1e-170",
            "--phi", "power:p=1.3", "--psi", "paired:phi=power:p=1.3"]
    emit(" ".join(argv), run_cli(argv), tmp)
    # an L^1.3 norm past float max (exit 3), and a grid whose largest value
    # is 2^1023, so that 2^e of it overflows
    big, top = (os.path.join(tmp, name) for name in ("big.csv", "top.csv"))
    with open(big, "w") as fh:
        fh.write("1e308,1e308,1e308,1e308\n")
    with open(top, "w") as fh:
        fh.write(",".join(repr(v) for v in (2.0 ** 1023, 0.0, 2.0 ** 1022, 2.0 ** 1021)) + "\n")
    for argv in (["norms", "--input", big, "--dim", "1", "--spacing", "1", "--phi", "power:p=1.3"],
                 ["norms", "--input", top, "--dim", "1", "--spacing", "0.01",
                  "--phi", "power:p=1.3", "--psi", "powerweight:theta=0.5"]):
        emit(" ".join(argv), run_cli(argv), tmp)


def distinct_outputs(tmp):
    """``norms`` of a power pair on grids whose every cell is a distinct
    nonzero value, in d = 1, 2 and 3: their shift sums take the direct
    evaluator, never the level sets."""
    from bol.grid import GridFunction, save_grid_function

    rng = np.random.default_rng(7)
    for shape, phi, psi in (((40,), "power:p=1.3", "powerweight:theta=0.5"),
                            ((32, 32), "power:p=1.3", CRIT[2]),
                            ((6, 5, 7), "power:p=2.5", CRIT[3])):
        vals = rng.uniform(0.2, 3.0, shape) * np.where(rng.uniform(size=shape) < 0.4, -1.0, 1.0)
        path = os.path.join(tmp, f"distinct_{len(shape)}d.grid")
        save_grid_function(GridFunction(1.0 / shape[0], (0.0,) * len(shape), vals), path)
        argv = ["norms", "--input", path, "--phi", phi, "--psi", psi]
        emit(" ".join(argv), run_cli(argv), tmp)


def coarea_outputs(tmp):
    """``l1_modulus`` of piecewise-constant grids in d = 1 and 3, one
    all-negative and one signed with zero cells inside, and of a signed
    9x13 grid at 8.5h, the largest radius that does not saturate, where
    the lattice ball reaches the edge of the correlation's padding: few
    threshold sets for their shifts, so all take the coarea route."""
    from bol.grid import GridFunction

    def emit_modulus(label, vals, radius):
        f = GridFunction(1.0 / vals.shape[0], (0.0,) * vals.ndim, vals)
        try:
            text = repr(bol.orlicz.l1_modulus(f, radius * f.spacing))
        except Exception as exc:
            text = f"raised {exc!r}"
        emit(f"l1_modulus {label} {'x'.join(map(str, vals.shape))} {radius}h", text, tmp)

    rng = np.random.default_rng(9)
    for shape, m in (((40,), 20), ((8, 7, 6), 4)):
        levels = rng.uniform(0.2, 3.0, 3)
        negative = -rng.choice(levels, shape)
        signed = rng.choice([-levels[0], 0.0, levels[1], levels[2]], shape)
        # nonzero corners keep the support box the whole grid, zeros inside
        signed[(0,) * len(shape)] = signed[(-1,) * len(shape)] = levels[2]
        emit_modulus("negative", negative, m)
        emit_modulus("signed", signed, m)
    edge = np.random.default_rng(10).choice([-1.5, 0.0, 0.7, 2.0], (9, 13))
    edge[0, 0] = edge[-1, -1] = 2.0
    emit_modulus("signed", edge, 8.5)


def grid_file_outputs(tmp):
    """``norms`` of ``.grid`` files whose body numpy's reader must take or
    refuse as the contract says: CRLF line ends with blank lines (read),
    ``1_0``, which ``float`` reads as 10.0, and two values on one line
    (both exit 3)."""
    header = '{"dim": 1, "origin": [0.0], "shape": [3], "spacing": 0.5}'
    for name, body in (("crlf.grid", "\r\n".join([header, "", "1.5", " ", "-2.0", "0.25", ""])),
                       ("underscore.grid", "\n".join([header, "1_0", "2.0", "3.0", ""])),
                       ("two_on_a_line.grid", "\n".join([header, "1.0 2.0", "3.0", ""]))):
        path = os.path.join(tmp, name)
        with open(path, "w", newline="") as fh:
            fh.write(body)
        argv = ["norms", "--input", path, "--phi", "power:p=1.3"]
        emit(" ".join(argv), run_cli(argv), tmp)


def override_outputs(tmp):
    from bol.grid import save_grid_function

    grid, pc, cfg = (os.path.join(tmp, name) for name in ("o.csv", "o.grid", "cfg.json"))
    with open(grid, "w") as fh:
        fh.write("1,2,3,4,5,6,7,8,9\n")
    save_grid_function(workloads._piecewise_constant(np.random.default_rng(6), 8), pc)
    with open(cfg, "w") as fh:
        json.dump({"alpha": 0.05, "seed": 3}, fh)
    for env, argv in (
            ({"BOL_DIM": "2"}, ["norms", "--input", grid, "--shape", "3,3",
                                "--phi", "power:p=1.3", "--psi", CRIT[2]]),
            ({"BOL_DIM": "1"}, ["decompose", "--input", grid, "--verify"]),
            ({"BOL_DIM": "3"}, ["norms", "--input", pc, "--phi", "power:p=1.3"]),
            ({}, ["--config", cfg, "example5"]),
            ({}, ["--config", cfg, "lemma6", "--dim", "2"]),
            ({"BOL_ALPHA": "0.08"}, ["--config", cfg, "example5"]),
            ({"BOL_SEED": "5"}, ["--config", cfg, "lemma6", "--dim", "2", "--samples", "1000"]),
            ({"BOL_POINTS": "17", "BOL_SMIN": "0.01", "BOL_PSI": CRIT[3], "BOL_DIM": "3"},
             ["check-condition"]),
            ({"BOL_RADII": "1,0.5", "BOL_PHI": "power:p=1.2"}, ["necessity"]),
            ({"BOL_N": "16", "BOL_SEED": "4"}, ["--config", cfg, "sobolev"])):
        with mock.patch.dict(os.environ, env):
            text = run_cli(argv)
        emit(" ".join([f"{k}={v}" for k, v in env.items()] + argv), text, tmp)


def main():
    tmp = tempfile.mkdtemp(prefix="bol_digests_")
    try:
        for argv in VARIANTS:
            emit(" ".join(argv), run_cli(argv), tmp)
        lemma6_output("default", [0.1, 0.5, 0.9], bol.evidence.DEFAULT_MC_SEED, tmp)
        lemma6_output("default", [0.1, 0.5, 0.9], bol.evidence.DEFAULT_MC_SEED, tmp, dim=4)
        lemma6_output("default", [0.1, 0.5, 0.9], bol.evidence.DEFAULT_MC_SEED, tmp,
                      n_samples=100_003)
        workload_outputs(tmp)
        sufficiency_outputs(tmp)
        table_outputs(tmp)
        solve_edge_outputs(tmp)
        distinct_outputs(tmp)
        coarea_outputs(tmp)
        grid_file_outputs(tmp)
        override_outputs(tmp)
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
