"""Time the tier-1 test suite (informational; no bound applies).

    python3 bench/tier1.py [--runs 3]

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
checkout root with ``src`` on ``PYTHONPATH``, and prints each run's wall
time and the median.  The suite's time varies too much between runs on a
small shared host to be held to a bound; it is recorded next to the
benchmark so a change that makes the suite much slower is seen.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    walls = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        print(f"tier-1 run: {walls[-1]:.2f} s, exit {proc.returncode}: {summary}")
        if proc.returncode != 0:
            return proc.returncode
    print(f"tier1_wall_s median = {statistics.median(walls):.2f} s over {len(walls)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
