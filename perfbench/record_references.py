"""Record the reference values that have no closed form.

These are outputs of fixed, seed-independent commands, recorded once at
the commit the benchmark was defined on and committed as
``references.json``.  Run from the repository root:

    python3 perfbench/record_references.py
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bol.cli import main  # noqa: E402

import workloads  # noqa: E402


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(buf.getvalue())["report"]


def record():
    wl = workloads.build("condition_scan", 0, None)
    out = {}
    for job in wl.jobs:
        ref = job.meta.get("ref")
        if job.kind == "condition_section5":
            rep = report(job.argv)
            out[ref] = {"verdict": rep["verdict"], "D_hat": rep["D_hat"]}
        elif job.kind == "necessity":
            rows = report(job.argv)["measured"]["rows"]
            out[ref] = {"radii": [r["radius"] for r in rows], "ratios": [r["ratio"] for r in rows]}
        elif job.kind == "example5":
            out["example5_second_bound"] = report(job.argv)["second_bound"]["value"]
    return out


if __name__ == "__main__":
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
