"""The CLI's output bytes across BLAS thread counts and versions.

A small T1 model is trained in a subprocess at one BLAS thread (the T1
solve in ``train`` is not byte-stable across thread counts).  ``eval``,
``roc`` and ``stream`` then decode it, with noise on, and a noisy T2
``train``, ``chip``, a two-point T1 and T2 ``sweep`` (also with the methods
in the other order), a ridge T1 ``sweep`` and ``budget`` run, in
one subprocess at ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and one at 2;
their outputs must be byte-identical.  The three sweeps run once more
under OpenBLAS's Haswell kernels (``OPENBLAS_CORETYPE``), and must give the
default kernel's bytes.  On the platform recorded in ``bench/expected.json``
every file must also have the sha256 in ``DIGESTS``, and the dataset tree
that ``gen`` wrote for them the benchmark's tree digest, so a change to the
bytes of an output (or of the one-thread model or the generated set) shows
in tier-1, not only in the benchmark.  A change that means to move them
updates the table and says so.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlcpsim
from mlcpsim.cli import build_parser
from mlcpsim.config import resolve_config

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mlcpsim.__file__).resolve().parents[1]

OUTPUTS = ("eval.json", "roc.csv", "stream.csv", "model_t2.json", "chip.json", "sweep.csv",
           "sweep_ridge.csv", "sweep_t2_t1.csv", "budget.json")

#: sha256 of each file on the recorded platform; for "data", the ``gen``
#: tree's ``bench/worker.tree_sha256``.
DIGESTS = {
    "data": "b54dbaf42d7144909560391cc204f965c101cf051cfbb3c3aecbe9dfe2ba11e5",
    "model.json": "1d732651b651877d732902cba8ff06292b4ff4ed66b9535f2c66609841f53a89",
    "eval.json": "c1dc1b347a4101f6742aa31543facbc9f1b1fdfaa8a1de849e017d6d0229d7aa",
    "roc.csv": "6ce19f30e3bba3c1cfe52392b5d4c3ef0f2827b8f08f7a8b1c1deb0ba9ed4bd0",
    "stream.csv": "0da12558e5cc7a6f0b2b1b8e459902cdc84990da8985950cf36a17234fa563d4",
    "model_t2.json": "d80ba18dc1f1db40f8825d5bf01536e70c0b4ca4d3f25643be982466136339ae",
    "chip.json": "d6290c591233d59227a6d73d1af4b7785ba8313884968e46cc99080a1c5873cf",
    "sweep.csv": "00b3907bc5e0495f87fdf11b723acfb2fbc8997bf2de4c850353b3aeb5b44d37",
    "sweep_ridge.csv": "789a27cee1c9a216fc6385cb74e698b5daa0e0b6a136ec40b26f52cbc4bd2961",
    "sweep_t2_t1.csv": "bcb9bec10664061f5f1f16b8221d760830685af7a6daafa26e667ffe1f4fe2e6",
    "budget.json": "6a208e39b465a4ad8d1206aa46aee5fbdc84fe4d0e4f66ae788e92aaa4663628",
}

_RUN = """
import json, sys
from mlcpsim.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"mlcpsim {' '.join(argv)} failed")
"""


def _run_cli(commands: list, threads: int, **env_vars) -> None:
    """Run CLI commands, in order, in one fresh process at ``threads`` BLAS
    threads, with ``env_vars`` added to its environment."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               **env_vars)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _commands(data: Path, model: Path, out: Path) -> list:
    out.mkdir()
    run = ["--data", str(data), "--model", str(model), "--set", "decoder.noise_on=true",
           "--set", "decoder.noise_seed=3"]
    sweep = ["--set", "sweep.methods=T1,T2", "--set", "train.target_sparsity=0.3",
             "--set", "sweep.l_grid=16", "--set", "sweep.chip_seeds=2"]
    return [["eval", *run, "--out", str(out / "eval.json")],
            ["roc", *run, "--set", "roc.points=40", "--out", str(out / "roc.csv")],
            ["stream", *run, "--trial", "c05_r001", "--out", str(out / "stream.csv")],
            ["train", "--data", str(data), "--seed", "7", "--set", "frontend.mode=tdbdi",
             "--set", "frontend.p=2", "--set", "train.noise_on=true", "--set", "train.method=T2",
             "--set", "train.target_sparsity=0.3", "--out", str(out / "model_t2.json")],
            ["chip", "--seed", "7", "--set", "chip.l=16", "--out", str(out / "chip.json")],
            ["sweep", "--data", str(data), *sweep, "--out", str(out / "sweep.csv")],
            ["sweep", "--data", str(data), *sweep, "--set", "sweep.methods=T1",
             "--set", "train.ridge_lambda=3", "--out", str(out / "sweep_ridge.csv")],
            ["sweep", "--data", str(data), *sweep, "--set", "sweep.methods=T2,T1",
             "--out", str(out / "sweep_t2_t1.csv")],
            ["budget", "--out", str(out / "budget.json")]]


@pytest.fixture(scope="module")
def decoded(tmp_path_factory):
    """{threads: directory of the outputs}, the model's path and the dataset's."""
    root = tmp_path_factory.mktemp("threads")
    data, model = root / "data", root / "model.json"
    setup = [["gen", "--seed", "7", "--set", "synth.trials_per_class=3", "--out", str(data)],
             ["train", "--data", str(data), "--seed", "7", "--set", "frontend.mode=tdbdi",
              "--set", "frontend.p=2", "--set", "train.noise_on=true", "--out", str(model)]]
    _run_cli(setup + _commands(data, model, root / "t1"), threads=1)
    _run_cli(_commands(data, model, root / "t2"), threads=2)
    return {1: root / "t1", 2: root / "t2"}, model, data


def test_decode_bytes_do_not_depend_on_the_blas_thread_count(decoded):
    outs, _, _ = decoded
    for name in OUTPUTS:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


SWEEPS = ("sweep.csv", "sweep_ridge.csv", "sweep_t2_t1.csv")


def test_sweep_bytes_do_not_depend_on_the_blas_kernel(decoded, tmp_path):
    """The three sweeps, run under OpenBLAS's Haswell kernels, give the
    default kernel's bytes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"OPENBLAS_CORETYPE selects kernels of scipy-openblas, numpy uses {blas}")
    outs, model, data = decoded
    sweeps = [argv for argv in _commands(data, model, tmp_path / "haswell") if argv[0] == "sweep"]
    assert len(sweeps) == len(SWEEPS)
    _run_cli(sweeps, threads=1, OPENBLAS_CORETYPE="Haswell")
    for name in SWEEPS:
        assert (tmp_path / "haswell" / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _bench_worker():
    """The benchmark's ``bench/worker.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def _recorded_platform_reason() -> str | None:
    """None on the platform ``bench/expected.json`` records, else why not."""
    here = _bench_worker().platform_fingerprint()
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())["platform"]
    if here != recorded:
        return f"digests are recorded for {recorded}, this platform is {here}"
    return None


def test_decode_bytes_match_the_recorded_digests(decoded):
    outs, model, data = decoded
    if reason := _recorded_platform_reason():
        pytest.skip(reason)
    files = {"model.json": model, **{name: outs[1] / name for name in OUTPUTS}}
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    got["data"] = _bench_worker().tree_sha256(data)
    assert got == DIGESTS


def test_every_benchmark_command_line_resolves(tmp_path):
    # a configuration change that refuses one of the benchmark's command
    # lines fails here, not only when the benchmark runs
    worker, parser = _bench_worker(), build_parser()
    refused = []
    for workload in worker.WORKLOADS.values():
        for argv in workload.setup(7, tmp_path) + workload.chain(7, tmp_path, tmp_path):
            args = parser.parse_args(argv)
            try:
                resolve_config(args.config, args.set, args.seed)
            except ValueError as exc:
                refused.append(f"{workload.name}: {' '.join(argv)}: {exc}")
    assert not refused
