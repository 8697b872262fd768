"""How far the reports of one checkout drift from those of another.

    python3 tools/report_drift.py PARENT_ROOT CHANGE_ROOT

Each ROOT is a checkout of this repository.  The outputs are those of
``tools/report_digests.py`` (this checkout's copy, run once per ROOT in
its own process, with ``--text``), compared as texts instead of
digests.  Two texts that differ only in their floating-point numbers
drift by the largest |a - b| / max(|a|, |b|) over them; any other
difference (an integer such as an exit code or a count among them), or
an output that one side lacks, is a non-numeric difference.  Prints how many outputs differ, then one row per job kind:
outputs, differing outputs, the largest relative drift and the JSON
fields whose numbers moved.  Exits 1 if any output differs in anything
but numbers, else 0.
"""

import json
import os
import re
import subprocess
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digests.py")
WORKLOADS = {"besov_pc", "rough_grids", "condition_scan", "corpus_bv"}
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")
FIELD = re.compile(r'"([^"]+)":\s*$')


def texts(roots):
    """key -> text of every output, one dict per root, computed side by side."""
    procs = [subprocess.Popen([sys.executable, DIGESTS, "--text", root],
                              stdout=subprocess.PIPE, text=True) for root in roots]
    outs = [proc.communicate()[0] for proc in procs]
    for root, proc in zip(roots, procs):
        if proc.returncode:
            raise SystemExit(f"report_digests.py failed on {root} (exit {proc.returncode})")
    return [dict(json.loads(line) for line in out.splitlines()) for out in outs]


def kind(key):
    """The function of a call-style output, the job kind of a workload
    output, else the command, tagged for a table Phi.  Leading ``BOL_*=``
    settings and a ``--config FILE`` pair are not the command."""
    words = key.split()
    while words[0].startswith("BOL_") or words[0] == "--config":
        words = words[2 if words[0] == "--config" else 1:]
    call = next((word for word in words if "(" in word), None)
    if call is not None:
        return call.split("(")[0]
    if words[0] in WORKLOADS:
        return words[-1]
    return words[0] + (" (table)" if "table:" in key else "")


def drift(old, new):
    """(largest relative drift, fields that moved), or None where the texts
    differ in anything but their floating-point numbers."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return None
    worst, fields = 0.0, set()
    for i in range(1, len(a), 2):
        x, y = float(a[i]), float(b[i])
        if x != y and not any(c in a[i] + b[i] for c in ".eE"):
            return None  # an exit code, a count or an index moved
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            field = FIELD.search(a[i - 1])
            fields.add(field.group(1) if field else "(value)")
    return worst, fields


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    old, new = texts([os.path.abspath(root) for root in argv])
    rows, bad = {}, []
    for key in sorted(old.keys() | new.keys(), key=lambda k: (kind(k), k)):
        row = rows.setdefault(kind(key), [0, 0, 0.0, set()])
        row[0] += 1
        if old.get(key) == new.get(key):
            continue
        row[1] += 1
        moved = drift(old[key], new[key]) if key in old and key in new else None
        if moved is None:
            bad.append(key)
            continue
        row[2] = max(row[2], moved[0])
        row[3] |= moved[1]
    print(f"{sum(r[1] for r in rows.values())} of {len(old.keys() | new.keys())} outputs differ")
    print(f"{'kind':40s} {'outputs':>7s} {'differ':>6s} {'max rel drift':>13s}  fields")
    for name, (count, differ, worst, fields) in rows.items():
        print(f"{name:40s} {count:7d} {differ:6d} {worst:13.3g}  {','.join(sorted(fields))}")
    for key in bad:
        print(f"non-numeric difference: {key}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
