"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs, that every metric named in
BENCHMARK.json is printed with its unit in both modes, that fail_share
is printed, that a reference perturbed by 1e-3 relative is counted
as a failed job, so the oracles bite, and that a job made to raise makes
the result incorrect.
"""

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _run(name, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics_printed(spec):
    for name in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            text, result = _run(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in listed}, (name, trace)
            for m in listed:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (name, m, got)
                assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                           for line in text), (name, m["name"])
            assert any(line.startswith("# fail_share ") for line in text), name
            assert result["correct"], (name, trace, text)
        print(f"smoke: {name} prints every metric with its unit")


def check_raising_job_is_incorrect(bol, wl):
    """A job made to raise fails and makes the run incorrect, also a job of an
    expected-failure kind that raises something other than its known error."""
    cli = next(j for j in wl.jobs if j.argv is not None)
    broken = [dataclasses.replace(cli, argv=cli.argv + ["--no-such-flag"]),
              dataclasses.replace(cli, kind="lemma6_d3", argv=["lemma6", "--no-such-flag"])]
    broken += [dataclasses.replace(j, call=(j.call[0], ())) for j in wl.jobs
               if j.call is not None][:1]
    for job in broken:
        _, _, results = run.run_pass(bol, [job])
        failed, wrong = run.tally([job], results)
        assert "error" in results[0] and failed == 1 and wrong, (wl.name, job.kind, results)
    print(f"smoke: {wl.name}: {len(broken)} jobs made to raise make the run incorrect")


def check_perturbed_reference_fails():
    bol = run._import_bol()
    workdir = os.path.join(run.WORKDIR, f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 3, workdir, tiny=True)
            workloads.attach_checks(wl)
            _, _, results = run.run_pass(bol, wl.jobs)
            base = [bool(run.check(j, r)) for j, r in zip(wl.jobs, results)]
            assert run.tally(wl.jobs, results)[1] == [], name
            check_raising_job_is_incorrect(bol, wl)
            perturbed = 0
            for i, job in enumerate(wl.jobs):
                if base[i]:
                    continue
                for c in job.checks:
                    if c.op != "eq" or not 0 < c.rel < 1e-3:
                        continue
                    original = c.ref
                    c.ref = original * (1.0 + 1e-3)
                    after = [bool(run.check(j, r)) for j, r in zip(wl.jobs, results)]
                    c.ref = original
                    assert after[i] and sum(after) == sum(base) + 1, (name, job.kind, c.label)
                    perturbed += 1
            assert perturbed > 0, name
            print(f"smoke: {name}: each of {perturbed} references perturbed by 1e-3 "
                  "relative fails its job")
    finally:
        run._remove_workdir(workdir)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_perturbed_reference_fails()
    check_metrics_printed(spec)
    print("smoke: ok")


if __name__ == "__main__":
    main()
