"""Seeded end-to-end and per-layer benchmark of the bol toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload besov_pc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client, closed loop, no threads: the workload's fixed job list runs
serially in this process, pass after pass, until ``--seconds`` have
elapsed.  Each job is a ``bol`` command called in-process through
``bol.cli.main(argv)`` (``l1_modulus`` has no command and is called
through the library), and every job's output is checked against its
oracle after the pass.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one client and no threads, including the BLAS pool behind numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 4


def _metric_units(section):
    """(name, unit) of every metric BENCHMARK.json lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


END_TO_END = _metric_units("end_to_end")
PER_LAYER = _metric_units("per_layer")


# Job kinds that raise at the commit the benchmark was defined on, with the
# text of the expected exception.  Such a job counts in ``failed`` only; any
# other job that raises makes the result incorrect.
EXPECTED_FAILURES = {
    "lemma6_d3": "is not JSON serializable",  # a numpy bool in the d = 3 report
}


def _import_bol():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import bol
    import bol.cli  # noqa: F401

    if not os.path.abspath(bol.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bol imported from {bol.__file__}, not from {SRC}")
    return bol


# -- running jobs -----------------------------------------------------------------

def run_job(bol, job):
    """Run one job; returns {code, text, report}, {value} or {error}."""
    if job.call is not None:
        name, args = job.call
        try:
            return {"value": float(getattr(bol.orlicz, name)(*args))}
        except Exception as exc:  # a job that raises is a failed job
            return {"error": repr(exc)}
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bol.cli.main(list(job.argv))
    except SystemExit as exc:
        return {"error": f"SystemExit({exc.code!r})"}
    except Exception as exc:  # a job that raises is a failed job
        return {"error": repr(exc)}
    text = out.getvalue()
    try:
        report = json.loads(text)["report"]
    except (json.JSONDecodeError, KeyError):
        report = None
    return {"code": code, "text": text, "report": report}


def check(job, result):
    """List of failed checks; a job that raised fails with its exception."""
    if "error" in result:
        return [f"raised {result['error']}"]
    return [msg for msg in (c.failure(result) for c in job.checks) if msg]


def expected_failure(job, result):
    """True for a job that raised the known exception of its kind."""
    text = EXPECTED_FAILURES.get(job.kind)
    return text is not None and text in result.get("error", "")


def tally(jobs, results):
    """(failed count, [(kind, misses)] of failures that make a run incorrect)."""
    failed, wrong = 0, []
    for job, res in zip(jobs, results):
        misses = check(job, res)
        if misses:
            failed += 1
            if not expected_failure(job, res):
                wrong.append((job.kind, misses))
    return failed, wrong


def run_pass(bol, jobs, tracer=None):
    """Run the job list once.

    Returns (raw job seconds, host-normalised job seconds, results)."""
    results = []
    clock = hostspeed.Clock()
    ctx = spans.installed(tracer) if tracer else contextlib.nullcontext()
    with ctx:
        for i, job in enumerate(jobs):
            root = "cli.main" if job.argv is not None else None
            job_ctx = tracer.job(i, root) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with job_ctx:
                res = run_job(bol, job)
            clock.record(time.perf_counter() - t0)
            results.append(res)
    clock.flush()
    return clock.raw, clock.scaled, results


def comparable(result):
    return {k: v for k, v in result.items() if k != "report"}


# -- set-up -----------------------------------------------------------------------

def setup(name, seed, tiny, tracer=None):
    """Import, generate inputs, write grid files, run one warm-up job.

    Returns (bol, workload, workdir, host-normalised seconds since process start)."""
    bol = _import_bol()
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = spans.installed(tracer) if tracer else contextlib.nullcontext()
    with ctx:
        job_ctx = tracer.job("setup") if tracer else contextlib.nullcontext()
        with job_ctx:
            wl = workloads.build(name, seed, workdir, tiny)
    run_job(bol, wl.warmup)
    return bol, wl, workdir, hostspeed.scale_once(time.perf_counter() - _T0)


def _remove_workdir(workdir):
    """Remove this process's grid files, and their parent once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORKDIR)
    except OSError:
        pass  # another process still has files there


def probe_setups(args, count):
    """Set-up seconds of ``count`` fresh processes (import included)."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- environment record ------------------------------------------------------------

def environment(bol):
    import numpy

    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.dirname(bol.__file__)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "backend": getattr(sys.modules.get("bol._kernels"), "BACKEND", "numpy"),
    }


# -- per-layer metrics ---------------------------------------------------------------

_RATIOS = {
    "orlicz.distinct_share": ("orlicz.luxemburg_distinct", "orlicz.luxemburg_values"),
    "orlicz.sup_reuse_ratio": ("orlicz.sup_reused", "orlicz.sup_calls"),
    "condition.diverged_share": ("condition.diverged", "condition.value_calls"),
}


def layer_values(self_s, calls, counts, report_bytes):
    """Per-layer metrics of one traced pass (without the trace.* entries)."""
    flat = dict(counts)
    for name, secs in self_s.items():
        flat[name + "_s"] = secs
    for name, n in calls.items():
        flat[name + "_calls"] = n
    flat["cli.report_bytes"] = report_bytes
    for metric, (num, den) in _RATIOS.items():
        flat[metric] = flat.get(num, 0) / flat[den] if flat.get(den) else 0.0
    return {m: float(flat.get(m, 0.0)) for m, _ in PER_LAYER if not m.startswith("trace.")}


# -- main ------------------------------------------------------------------------------

def measure(args):
    tracer = spans.Tracer() if args.trace else None
    bol, wl, workdir, own_setup = setup(args.workload, args.seed, args.tiny, tracer)
    try:
        return _measure(args, bol, wl, own_setup, tracer)
    finally:
        _remove_workdir(workdir)


def _measure(args, bol, wl, own_setup, tracer):
    setup_layers = tracer.take() if tracer else None
    workloads.attach_checks(wl)
    env = environment(bol)
    setups = [own_setup] if tracer else [own_setup] + probe_setups(args, SETUP_SAMPLES - 1)

    walls, raw_walls, job_times, traced_walls, layer_runs = [], [], [], [], []
    attempted = failed = 0
    wrong, mismatched = [], 0
    start = time.perf_counter()
    last = 0.0
    # a pass starts only if it is expected to end less than half a pass past the deadline
    while not walls or time.perf_counter() - start + 0.5 * last < args.seconds:
        t_pass = time.perf_counter()
        raw, scaled, results = run_pass(bol, wl.jobs)
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        job_times += scaled
        attempted += len(wl.jobs)
        pass_failed, pass_wrong = tally(wl.jobs, results)
        failed += pass_failed
        wrong += pass_wrong
        if len(walls) == 1:
            for job, res in zip(wl.jobs, results):
                misses = check(job, res)
                if misses:
                    print(f"# FAIL {job.kind}: {'; '.join(misses)[:400]}")
        if tracer:
            _, t_scaled, t_results = run_pass(bol, wl.jobs, tracer)
            traced_walls.append(sum(t_scaled))
            mismatched += sum(comparable(a) != comparable(b) for a, b in zip(results, t_results))
            report_bytes = sum(len(r.get("text", "")) for r in t_results)
            layer_runs.append(layer_values(*tracer.take(), report_bytes))
        last = time.perf_counter() - t_pass

    print("# env " + json.dumps(env, sort_keys=True))
    grids = ", ".join(f"{k} x{v}" for k, v in wl.grids.items()) or "none"
    print(f"# workload {wl.name} seed {args.seed}: {len(wl.jobs)} jobs per pass, "
          f"{len(walls)} passes; grids: {grids}")
    print(f"# fail_share {failed / attempted:.6g} share (failed {failed} of {attempted} attempted)")
    print(f"# raw pass seconds {' '.join(f'{w:.4g}' for w in raw_walls)}; normalised "
          f"{' '.join(f'{w:.4g}' for w in walls)}; set-up samples "
          f"{' '.join(f'{x:.4g}' for x in setups)}")
    for kind, misses in wrong[:5]:
        print(f"# WRONG {kind}: {'; '.join(misses)[:400]}")
    if mismatched:
        print(f"# traced outputs differ from untraced outputs in {mismatched} jobs")

    if tracer:
        metrics = {}
        setup_vals = layer_values(*setup_layers, 0)
        for m, unit in PER_LAYER:
            if m.startswith("trace."):
                continue
            runs = [run[m] for run in layer_runs]
            # set-up layers (generation, grid writes) are counted once, on top of a pass
            value = statistics.median(runs) + (setup_vals[m] if m in ("corpus.gen_s", "grid.io_s")
                                               else 0.0)
            metrics[m] = {"value": value, "unit": unit}
        overhead = statistics.fmean(traced_walls) - statistics.fmean(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / statistics.fmean(walls),
                                           "unit": "share"}
    else:
        values = {
            "wall_s": statistics.fmean(walls),
            "job_p50_s": statistics.median(job_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    for m, v in metrics.items():
        print(f"{m:<30} {v['value']:.6g} {v['unit']}")
    return {"correct": not wrong and not mismatched, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process; prints each one's output, then one
    JSON object of all results keyed by workload."""
    rows, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(rows, sort_keys=True))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            _, _, workdir, secs = setup(args.workload, args.seed, args.tiny)
            _remove_workdir(workdir)
            print(json.dumps({"setup_s": secs}))
            return 0
        result = measure(args)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the bol package from {SRC}: {exc}\n")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
