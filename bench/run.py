"""mlcpsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload chip-max --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload runs in a child
process (``bench/worker.py``) that imports ``mlcpsim`` from ``src/``; this
script uses only the standard library, so it can set the child's BLAS
thread count and time its start-up.

Set-up is measured ``SETUP_RUNS`` times, each in a fresh process, from just
before the process starts until it has imported the package and prepared the
workload's fixtures; ``setup_s`` is the median.  The last of those processes
goes on to the timed chains.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``).  Exit status is 0 when that line was
printed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # whole run, set-up processes included

# One BLAS thread: with OpenBLAS's default of one thread per core, a small
# least-squares solve on a 2-core host now and then ran 25x slower in a fresh
# process.  One thread never did, at the cost of a slower 67200 x 128 solve
# in chip-max (about 0.2 s of a ~13 s chain).
BLAS_THREADS = "1"
SETUP_RUNS = {"chip-max": 5, "sweep": 5, "roc-dense": 3}
CPU_SWITCH_S = 1.0


class CpuRotation:
    """Move a worker process to the next allowed CPU every ``CPU_SWITCH_S``.

    On a small shared host each CPU slows down on its own when a neighbour
    loads its sibling: two CPUs' speeds, sampled every second for a minute,
    correlated at 0.1.  A process left on one CPU takes that CPU's state for
    a whole run; rotating spreads every run over all allowed CPUs.  On
    roc-dense this cut the run-to-run spread (quartile distance over median,
    six runs) from 0.26-0.36 to 0.14.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.cpus = sorted(os.sched_getaffinity(0))
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)
        if len(self.cpus) > 1:
            self.thread.start()

    def _rotate(self) -> None:
        k = 0
        while not self.done.wait(CPU_SWITCH_S):
            k += 1
            try:
                os.sched_setaffinity(self.pid, {self.cpus[k % len(self.cpus)]})
            except ProcessLookupError:  # the worker has exited
                return

    def stop(self) -> None:
        self.done.set()
        if self.thread.is_alive():
            self.thread.join(timeout=5.0)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


def start_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start a worker; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    proc.rotation = CpuRotation(proc.pid)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY" or time.monotonic() > deadline:
        stop(proc)
        raise BenchError(f"worker set-up failed (got {line.strip()!r})")
    return proc, setup_s


def stop(proc) -> None:
    proc.rotation.stop()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    tag = f"{args.workload}-{os.getpid()}"
    try:
        for k in range(SETUP_RUNS[args.workload]):
            last = k == SETUP_RUNS[args.workload] - 1
            workdir = WORK / f"{tag}-{k}"
            proc, setup_s = start_worker(args, workdir, not last, deadline)
            setups.append(setup_s)
            if not last:
                stop(proc)
                shutil.rmtree(workdir, ignore_errors=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload ran past the {DEADLINE_S:.0f} s deadline") from None
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker exited with status {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        for path in WORK.glob(f"{tag}-*"):
            shutil.rmtree(path, ignore_errors=True)

    measured = dict(result.get("per_layer", {}))
    measured.update({
        "wall_s": statistics.median(result["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        **result["statistics"],
    })
    section = "per_layer" if args.trace else "end_to_end"
    # a run with failed operations may lack a statistic; it reports 0 for it
    metrics = {m["name"]: {"value": measured[m["name"]] if result["failed"] == 0
                           else measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[section]}
    report(args, result, setups, measured, metrics)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(args, result, setups, measured, metrics) -> None:
    """Human-readable lines ahead of the JSON result."""
    platform = result["platform"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# host: nproc {len(os.sched_getaffinity(0))}, BLAS threads {BLAS_THREADS}, "
          f"python {platform['python']}, numpy {platform['numpy']}, {platform['blas']}")
    print(f"# chains timed: {len(result['walls'])} "
          f"({', '.join(f'{w:.3f}' for w in result['walls'])} s); "
          f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, stat in sorted(result["statistics"].items()):
        print(f"# statistic {name} = {stat!r}")
    print(f"# fail_ratio = {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    lock = "checked against bench/expected.json" if result["digest_lock"] else (
        "not compared with bench/expected.json (seed or platform differs); "
        "checked for repeats within the run")
    print(f"# digests {lock}:")
    for name, digest in sorted(result["digests"].items()):
        print(f"#   {name} {digest}")
    for role in result.get("roles", []):
        print(f"# role {'met' if role['met'] else 'MISSED'}: {role['role']} "
              f"(share {role['share']:.3f})")
    if result.get("missing_targets"):
        print(f"# not traced (absent in this version): {', '.join(result['missing_targets'])}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mlcpsim" / "__init__.py").is_file():
        print(f"no mlcpsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        result = run(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
