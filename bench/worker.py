"""One benchmark workload in its own process.

Started by ``bench/run.py``, never by hand.  The process prepares the
workload's fixtures through the ``mlcpsim`` command line, prints ``READY``
(``run.py`` times set-up from process start to that line), and with
``--setup-only`` exits there.  Otherwise it runs the workload's timed chain of
CLI commands repeatedly for about ``--seconds`` seconds, checks every
artefact, and prints one JSON line with the results.

CLI commands run in this process through ``mlcpsim.cli.main``, so the
commands pay no interpreter start-up but still re-parse their inputs, as a
user's separate commands do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from mlcpsim import cli

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected.json"
HELDOUT_SEED_OFFSET = 1000  # held-out sets never share the training set's synth seed
MIN_ACCURACY = 4 / 12  # "clearly above chance": four times chance for 12 classes


def tree_sha256(path: Path) -> str:
    """sha256 of a file, or of a directory as sorted (relative path, file sha256) pairs."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(item.relative_to(path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(item.read_bytes()).digest())
    return digest.hexdigest()


def platform_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- workloads
#
# Each workload makes its own fixtures in ``setup`` and lists its timed chain
# of CLI commands in ``chain``.  ``artefacts`` name the files the chain
# writes; ``check`` returns (statistics, problems) for one chain's outputs.

CHIP_MAX_DATA = ["--set", "synth.q=64", "--set", "synth.trial_duration_ms=4000"]


class ChipMax:
    """Full chip geometry: 64 channels x tdbdi p=2 = 128 rows, L=128, 4 s trials."""

    name = "chip-max"
    roc_points = 40

    def setup(self, seed, fix):
        return []

    def chain(self, seed, fix, out):
        chip = str(out / "chip.json")
        model = str(out / "model.json")
        heldout = str(out / "heldout")
        noisy_decode = ["--model", model, "--chip", chip, "--set", "decoder.noise_on=true"]
        return [
            ["gen", "--seed", str(seed), *CHIP_MAX_DATA, "--set", "synth.trials_per_class=40",
             "--out", str(out / "train")],
            ["gen", "--set", f"synth.seed={seed + HELDOUT_SEED_OFFSET}", *CHIP_MAX_DATA,
             "--set", "synth.trials_per_class=10", "--out", heldout],
            # i_ref_na=5 keeps 128 summed rows below the CCO stop value; at the
            # default 20 nA many counts clip and held-out accuracy is at chance.
            ["chip", "--seed", str(seed), "--set", "chip.d=128", "--set", "chip.l=128",
             "--set", "analog.i_ref_na=5", "--out", chip, "--dump", str(out / "mismatch.csv")],
            ["train", "--data", str(out / "train"), "--chip", chip,
             "--set", "frontend.mode=tdbdi", "--set", "frontend.p=2",
             "--set", "train.noise_on=true", "--out", model],
            ["eval", "--data", heldout, *noisy_decode, "--out", str(out / "eval.json")],
            ["roc", "--data", heldout, *noisy_decode, "--set", f"roc.points={self.roc_points}",
             "--out", str(out / "roc.csv")],
        ]

    artefacts = {
        "train_dataset": "train", "heldout_dataset": "heldout", "chip_json": "chip.json",
        "mismatch_csv": "mismatch.csv", "model_json": "model.json", "eval_json": "eval.json",
        "roc_csv": "roc.csv",
    }
    fixture_artefacts: dict = {}

    def check(self, out):
        return check_eval_and_roc(out, self.roc_points)


class Sweep:
    """CLI accuracy sweep over method x L x p x 5 chip seeds on the default dataset."""

    name = "sweep"
    methods = ("T1", "T2")
    l_grid = (10, 20, 40, 60)
    p_grid = (1, 2)

    def setup(self, seed, fix):
        return [["gen", "--seed", str(seed), "--out", str(fix / "data")]]

    def chain(self, seed, fix, out):
        return [[
            "sweep", "--data", str(fix / "data"),
            "--set", "sweep.methods=" + ",".join(self.methods),
            "--set", "train.target_sparsity=0.3",
            "--set", "sweep.l_grid=" + ",".join(map(str, self.l_grid)),
            # tdbdi, because direct mode ignores sweep.p_grid
            "--set", "frontend.mode=tdbdi",
            "--set", "sweep.p_grid=" + ",".join(map(str, self.p_grid)),
            "--set", "sweep.chip_seeds=1,2,3,4,5",
            "--out", str(out / "sweep.csv"),
        ]]

    artefacts = {"sweep_csv": "sweep.csv"}
    fixture_artefacts = {"dataset": "data"}

    def check(self, out):
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        problems = []
        points = sorted((r["method"], int(r["l"]), int(r["n"]), int(r["p"])) for r in rows)
        expected = sorted((m, l, 30, p) for m in self.methods for l in self.l_grid
                          for p in self.p_grid)
        if points != expected:
            problems.append(f"sweep grid points {points} != requested {expected}")
        accuracy = statistics.fmean(float(r["accuracy_mean"]) for r in rows) if rows else 0.0
        if not accuracy > MIN_ACCURACY:
            problems.append(f"mean sweep accuracy {accuracy} not above {MIN_ACCURACY:.3f}")
        return {"accuracy": accuracy}, problems


class RocDense:
    """eval, a 200-threshold ROC and one streamed trial on a 480-trial held-out set."""

    name = "roc-dense"
    roc_points = 200

    def setup(self, seed, fix):
        return [
            ["gen", "--seed", str(seed), "--out", str(fix / "train")],
            ["train", "--data", str(fix / "train"), "--seed", str(seed),
             "--out", str(fix / "model.json")],
            ["gen", "--set", f"synth.seed={seed + HELDOUT_SEED_OFFSET}",
             "--set", "synth.trials_per_class=40", "--out", str(fix / "heldout")],
        ]

    def chain(self, seed, fix, out):
        run = ["--data", str(fix / "heldout"), "--model", str(fix / "model.json")]
        return [
            ["eval", *run, "--out", str(out / "eval.json")],
            ["roc", *run, "--set", f"roc.points={self.roc_points}", "--out", str(out / "roc.csv")],
            ["stream", *run, "--out", str(out / "stream.csv")],
        ]

    artefacts = {"eval_json": "eval.json", "roc_csv": "roc.csv", "stream_csv": "stream.csv"}
    fixture_artefacts = {"train_dataset": "train", "model_json": "model.json",
                         "heldout_dataset": "heldout"}

    def check(self, out):
        stats, problems = check_eval_and_roc(out, self.roc_points)
        ticks = 100  # default 2 s trials of 20 ms sub-windows
        rows = len((out / "stream.csv").read_text().splitlines()) - 1
        if rows != ticks:
            problems.append(f"stream.csv has {rows} ticks, expected {ticks}")
        return stats, problems


def check_eval_and_roc(out: Path, roc_points: int):
    report = json.loads((out / "eval.json").read_text())
    stats = {k: float(report[k]) for k in ("accuracy", "tpr", "fp_per_trial")}
    problems = []
    if not stats["accuracy"] > MIN_ACCURACY:
        problems.append(f"held-out accuracy {stats['accuracy']} not above {MIN_ACCURACY:.3f}")
    rows = len((out / "roc.csv").read_text().splitlines()) - 1
    if rows != roc_points:
        problems.append(f"roc.csv has {rows} points, expected {roc_points}")
    return stats, problems


WORKLOADS = {w.name: w for w in (ChipMax(), Sweep(), RocDense())}


# ------------------------------------------------------------- running


class Run:
    """One workload run: operations attempted and failed, digests, timings."""

    def __init__(self, workload, seed: int, work: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.fix = work / "fixtures"
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorded: dict | None = None  # recorded digests, when this run can be held to them
        self.digests_seen: dict = {}
        self.statistics: list[dict] = []
        self.walls: list[float] = []  # untraced chains
        self.traced_walls: list[float] = []
        self.traced: list = []  # (spans, counts) of each traced chain

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def cli(self, argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer and self.tracer.installed
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
            code = cli.main(argv)
        self.record(code == 0, f"mlcpsim {' '.join(argv)} exited {code}: "
                               f"{stderr.getvalue().strip()[-500:]}")

    def digests(self, base: Path, artefacts: dict, recorded: dict | None) -> None:
        """Digest artefacts; each must match earlier chains and, if given, the record."""
        for name, rel in artefacts.items():
            path = base / rel
            if not path.exists():
                self.record(False, f"artefact {name} missing at {path}")
                continue
            digest = tree_sha256(path)
            want = self.digests_seen.setdefault(name, digest)
            if recorded is not None and digest == want:
                want = recorded.get(name)
            self.record(digest == want, f"artefact {name} sha256 {digest} != {want}")

    def setup(self) -> None:
        self.fix.mkdir(parents=True)
        for argv in self.workload.setup(self.seed, self.fix):
            self.cli(argv)

    def chain(self, index: int, traced: bool) -> None:
        """Run, time and check one chain; traced chains record spans."""
        if traced:
            self.tracer.begin(f"chain{index}")
            self.tracer.install()
        out = self.work / f"chain{index}"
        out.mkdir()
        t0 = time.perf_counter()
        for argv in self.workload.chain(self.seed, self.fix, out):
            self.cli(argv)
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            self.traced_walls.append(wall)
            self.traced.append((self.tracer.spans, self.tracer.counts))
        else:
            self.walls.append(wall)
        self.digests(out, self.workload.artefacts, self.recorded)
        if all((out / rel).exists() for rel in self.workload.artefacts.values()):
            stats, problems = self.workload.check(out)
            for problem in problems:
                self.record(False, problem)
            first = self.statistics[:1]
            self.record(not first or stats == first[0],
                        f"statistics {stats} differ from the first chain's {first}")
            self.statistics.append(stats)
        shutil.rmtree(out)

    def timed(self, seconds: float) -> None:
        """Chains for about ``seconds``; with a tracer, untraced and traced alternate."""
        start = time.perf_counter()
        chains = 0
        while True:
            self.chain(chains, traced=self.tracer is not None and chains % 2 == 1)
            chains += 1
            elapsed = time.perf_counter() - start
            enough = self.walls and (self.tracer is None or self.traced_walls)
            # start another chain only if it should end within half a chain of the limit
            if enough and elapsed * (chains + 0.5) / chains > seconds:
                return


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mlcpsim imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.begin("setup")
        tracer.install()
    run = Run(WORKLOADS[args.workload], args.seed, Path(args.workdir), tracer)
    run.setup()
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    expected = json.loads(EXPECTED.read_text())
    fingerprint = platform_fingerprint()
    lock = args.seed == expected["seed"] and fingerprint == expected["platform"]
    if lock:
        run.recorded = expected["digests"][args.workload]
    run.digests(run.fix, run.workload.fixture_artefacts, run.recorded)
    run.timed(args.seconds)
    if args.workload == "chip-max":  # budget is closed-form: its digest is checked once
        run.cli(["budget", "--out", str(run.work / "budget.json")])
        run.digests(run.work, {"budget_json": "budget.json"},
                    expected["digests"]["budget"] if lock else None)

    result = {
        "walls": run.walls,
        "statistics": run.statistics[0] if run.statistics else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": run.digests_seen,
        "digest_lock": lock,
        "platform": fingerprint,
    }
    if tracer is not None:
        from spans import summarize

        result["per_layer"], result["roles"], count_problems = summarize(
            tracer, run.traced, run.walls, run.traced_walls, args.workload)
        for problem in count_problems:
            run.record(False, problem)
        tracer.dump(ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        result["missing_targets"] = tracer.missing
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
