"""Smoke test of the benchmark: every workload, briefly, traced.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Runs each workload for ``--seconds 1`` (one unit of its work) on seed 0
with ``--trace 1`` and requires a zero exit, ``"correct": true`` (every
output check passed, the traced run reproduced the untraced digest) and
a digest equal to the known-good one stored in
``perfbench/digests.json``. Takes about one minute on a 2-CPU host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, SECONDS = 0, 1


def main() -> int:
    failures = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             name, "--seed", str(SEED), "--seconds", str(SECONDS),
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = (proc.returncode == 0 and result.get("correct") is True
              and any("(matches known-good)" in line for line in lines))
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
