"""The decode commands' bytes across BLAS thread counts and versions.

A small model is trained in a subprocess at one BLAS thread (the T1 solve
in ``train`` is not byte-stable across thread counts).  ``eval``, ``roc``
and ``stream`` then decode it, with noise on, in one subprocess at
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and one at 2; their outputs must
be byte-identical.  On the platform recorded in ``bench/expected.json``
every file must also have the sha256 in ``DIGESTS``, so a change to the
bytes of a decode output (or of the one-thread model) shows in tier-1, not
only in the benchmark.  A change that means to move them updates the table
and says so.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlcpsim

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mlcpsim.__file__).resolve().parents[1]

DECODED = ("eval.json", "roc.csv", "stream.csv")

#: sha256 of each file on the recorded platform.
DIGESTS = {
    "model.json": "1d732651b651877d732902cba8ff06292b4ff4ed66b9535f2c66609841f53a89",
    "eval.json": "c1dc1b347a4101f6742aa31543facbc9f1b1fdfaa8a1de849e017d6d0229d7aa",
    "roc.csv": "6ce19f30e3bba3c1cfe52392b5d4c3ef0f2827b8f08f7a8b1c1deb0ba9ed4bd0",
    "stream.csv": "0da12558e5cc7a6f0b2b1b8e459902cdc84990da8985950cf36a17234fa563d4",
}

_RUN = """
import json, sys
from mlcpsim.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"mlcpsim {' '.join(argv)} failed")
"""


def _run_cli(commands: list, threads: int) -> None:
    """Run CLI commands, in order, in one fresh process at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _decode(data: Path, model: Path, out: Path) -> list:
    out.mkdir()
    run = ["--data", str(data), "--model", str(model), "--set", "decoder.noise_on=true",
           "--set", "decoder.noise_seed=3"]
    return [["eval", *run, "--out", str(out / "eval.json")],
            ["roc", *run, "--set", "roc.points=40", "--out", str(out / "roc.csv")],
            ["stream", *run, "--trial", "c05_r001", "--out", str(out / "stream.csv")]]


@pytest.fixture(scope="module")
def decoded(tmp_path_factory):
    """{threads: directory of the decode outputs}, and the model's path."""
    root = tmp_path_factory.mktemp("threads")
    data, model = root / "data", root / "model.json"
    setup = [["gen", "--seed", "7", "--set", "synth.trials_per_class=3", "--out", str(data)],
             ["train", "--data", str(data), "--seed", "7", "--set", "frontend.mode=tdbdi",
              "--set", "train.noise_on=true", "--out", str(model)]]
    _run_cli(setup + _decode(data, model, root / "t1"), threads=1)
    _run_cli(_decode(data, model, root / "t2"), threads=2)
    return {1: root / "t1", 2: root / "t2"}, model


def test_decode_bytes_do_not_depend_on_the_blas_thread_count(decoded):
    outs, _ = decoded
    for name in DECODED:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def _recorded_platform_reason() -> str | None:
    """None on the platform ``bench/expected.json`` records, else why not."""
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    here = worker.platform_fingerprint()
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())["platform"]
    if here != recorded:
        return f"digests are recorded for {recorded}, this platform is {here}"
    return None


def test_decode_bytes_match_the_recorded_digests(decoded):
    outs, model = decoded
    if reason := _recorded_platform_reason():
        pytest.skip(reason)
    files = {"model.json": model, **{name: outs[1] / name for name in DECODED}}
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == DIGESTS
