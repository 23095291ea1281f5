"""Peak memory of ``gen``, ``train``, ``sweep`` and the decode: one trial's events at a time.

``tracemalloc`` sees numpy's array buffers, so it measures what the
commands hold without reading the process's resident size.  The set is
generated at high firing rates and a small L, so its events, held whole,
would take more memory than the slack and the one-hot type rows together:
a command that kept every trial's events alive would fail the bounds below.
"""

import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mlcpsim import decoder, spikeio, training
from mlcpsim.analog import AnalogParams, build_chip, load_chip
from mlcpsim.cli import main
from mlcpsim.decoder import DecoderModel, split_dataset
from mlcpsim.frontend import FrontendConfig, tick_count
from mlcpsim.spikeio import parse_dataset, read_manifest
from mlcpsim.training import TrapezoidParams, collect_H

GEN = ["--seed", "3", "--set", "synth.q=8", "--set", "synth.m=2", "--set", "synth.baseline_rate=40",
       "--set", "synth.peak_rate=120", "--set", "synth.trials_per_class=100"]  # 200 trials
SLACK = 1 << 19  # bytes: the manifest rows, the chip, the settings, a pass's codes


def _event_bytes(dataset) -> int:
    """Bytes of every trial's parsed event arrays."""
    return sum(t.times_us.nbytes + t.channels.nbytes for t in dataset.trials)


def _parser_lines() -> tuple[range, ...]:
    """The source lines of the event-file parser, where its arrays are allocated."""
    spans = []
    for fn in (spikeio._parse_events, spikeio._scan_rows):
        lines, first = inspect.getsourcelines(fn)
        spans.append(range(first, first + len(lines)))
    return tuple(spans)


def _parsed_bytes(snapshot) -> int:
    """Traced bytes still alive that the event-file parser allocated."""
    spans, path = _parser_lines(), Path(spikeio.__file__).resolve()
    return sum(trace.size for trace in snapshot.traces
               if Path(trace.traceback[0].filename).resolve() == path
               and any(trace.traceback[0].lineno in span for span in spans))


@pytest.fixture(scope="module")
def big_events(tmp_path_factory):
    """(dataset directory, its parsed dataset), generated by ``gen``."""
    ds = tmp_path_factory.mktemp("memory") / "ds"
    assert main(["gen", "--out", str(ds), *GEN]) == 0
    return ds, parse_dataset(ds)


def test_gen_holds_a_few_trials_not_the_dataset(tmp_path, capsys, big_events):
    _, dataset = big_events
    per_trial = _event_bytes(dataset) / len(dataset.trials)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["gen", "--out", str(tmp_path / "ds"), *GEN]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < _event_bytes(dataset) / 8, (peak, per_trial)  # 25 of its 200 trials


def test_train_solves_with_h_and_its_targets_alone(tmp_path, capsys, monkeypatch, big_events):
    ds, dataset = big_events
    chip_path = tmp_path / "chip.json"
    assert main(["chip", "--out", str(chip_path), "--seed", "3", "--set", "chip.d=8",
                 "--set", "chip.l=16"]) == 0
    chip = load_chip(chip_path)
    # what the solves may hold: H, the targets, the one-hot type rows and
    # the plateau rows kept for train_accuracy
    frontend = FrontendConfig.tdbdi(8, 1)
    hidden, targets = collect_H(dataset, chip, frontend)
    ticks = frontend.tick_end_ms(np.arange(hidden.n_ticks.max()))
    plateau = np.count_nonzero(TrapezoidParams().on_plateau(ticks)) * len(dataset.trials)
    one_hot = np.count_nonzero(targets.type_rows) * targets.m * 8
    held = (hidden.h.nbytes + targets.labels.nbytes + targets.t_onset.nbytes
            + targets.type_rows.nbytes + one_hot + plateau * chip.l * 8)
    # events held whole would break the bound, even at the first solve,
    # before the one-hot rows are built
    assert _event_bytes(dataset) > one_hot + SLACK
    del hidden, targets

    seen = []  # (traced bytes, parser bytes) at each solve
    lstsq = np.linalg.lstsq

    def traced_lstsq(*args, **kwargs):
        seen.append((tracemalloc.get_traced_memory()[0] - base,
                     _parsed_bytes(tracemalloc.take_snapshot())))
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", traced_lstsq)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["train", "--data", str(ds), "--chip", str(chip_path),
                     "--out", str(tmp_path / "model.json")]) == 0
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(seen) == 2  # the onset block, then the type block
    for traced, parsed in seen:
        assert traced < held + SLACK, (traced, held)
        assert parsed == 0


def test_evaluate_on_a_manifest_holds_one_trials_events(monkeypatch, big_events):
    ds, dataset = big_events
    frontend, n_trials = FrontendConfig.tdbdi(8, 1), len(dataset.trials)
    chip = build_chip(3, AnalogParams(), d=8, l=16)
    model = DecoderModel(np.random.default_rng(5).normal(size=(16, 3)), np.ones(16, bool), 2,
                         frontend=frontend)
    # what the decode may hold: every trial's outputs, the padded onset rows
    # and window levels, and one block of ranked windows
    ticks = sum(tick_count(frontend, trial) for trial in dataset.trials)
    held = 8 * (ticks * (model.m + 1) + 2 * (ticks + n_trials * model.tau)
                + decoder._TRACK_CELLS)
    assert _event_bytes(dataset) > held + SLACK
    per_trial = max(t.times_us.nbytes + t.channels.nbytes for t in dataset.trials)

    sampled = {t.id for t in dataset.trials[::40]}
    parsed = []  # parser bytes alive as each sampled trial is coded
    run_trial = decoder.run_trial

    def traced_run_trial(fe, trial):
        if trial.id in sampled:
            parsed.append(_parsed_bytes(tracemalloc.take_snapshot()))
        return run_trial(fe, trial)

    monkeypatch.setattr(decoder, "run_trial", traced_run_trial)
    manifest = read_manifest(ds)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decoder.evaluate(manifest, model, chip)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(parsed) == len(sampled)
    assert 0 < max(parsed) < 2 * per_trial, (parsed, per_trial)  # the trial being coded
    assert peak < held + SLACK, (peak, held)


def test_the_parser_lines_see_the_event_arrays(big_events):
    # the check above reads the parser's allocations; they are the events
    ds, dataset = big_events
    tracemalloc.start()
    try:
        again = parse_dataset(ds)
        parsed = _parsed_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert parsed >= _event_bytes(again) == _event_bytes(dataset)


def test_sweep_holds_its_codes_not_the_events(tmp_path, capsys, monkeypatch, big_events):
    ds, dataset = big_events
    l, rows = 2, 8 + 16  # the front ends (8, 1) and (8, 2): 8 and 16 rows
    train_set, test_set = split_dataset(dataset, 0.3, 0)
    frontend = FrontendConfig.tdbdi(8, 1)
    hidden, targets = collect_H(train_set, build_chip(1, AnalogParams(), d=8, l=l), frontend)
    on = TrapezoidParams().on_plateau(frontend.tick_end_ms(np.arange(hidden.n_ticks.max())))
    plateau = sum(np.count_nonzero(on[:tick_count(frontend, t)]) for t in test_set.trials)
    one_hot = np.count_nonzero(targets.type_rows) * targets.m * 8
    # what the sweep may hold: the H buffer, the targets, every (n, p)'s
    # training codes and test plateau codes (uint8), the one-hot type rows
    # and the fit's residual ``h @ beta - t``, two arrays of their shape
    # (a well-conditioned fit solves on the Gram matrix: no LAPACK copy of H)
    held = (hidden.h.nbytes + targets.labels.nbytes + targets.t_onset.nbytes
            + targets.type_rows.nbytes + (len(targets.labels) + plateau) * rows + 3 * one_hot)
    assert _event_bytes(dataset) > held + SLACK
    del hidden, targets

    seen = []  # parser bytes alive at each solve
    least_squares = training._least_squares

    def traced_solve(*args, **kwargs):
        seen.append(_parsed_bytes(tracemalloc.take_snapshot()))
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(training, "_least_squares", traced_solve)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["sweep", "--data", str(ds), "--out", str(tmp_path / "sweep.csv"),
                     "--set", f"sweep.l_grid={l}", "--set", "sweep.chip_seeds=1",
                     "--set", "sweep.p_grid=1,2"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert seen == [0, 0]  # one T1 fit per front end, with no events alive
    assert peak < held + SLACK, (peak, held)
