"""The benchmark's span tracer still finds every function it wraps.

``bench/spans.py`` wraps package functions by name from outside the
package and skips, listing in ``Tracer.missing``, any it cannot find; the
metrics such a target feeds then read zero instead of failing.  This test
imports the tracer as the benchmark does, without changing it, so a rename
or move in the package shows here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mlcpsim.cli  # noqa: F401  (every package module, as the benchmark worker imports them)
from mlcpsim import analog, decoder, training
from mlcpsim.analog import AnalogParams, build_chip
from mlcpsim.decoder import DecoderModel
from mlcpsim.frontend import FrontendConfig, tick_count
from mlcpsim.spikeio import read_manifest, write_dataset
from test_training import tiny_dataset

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module: str, attr: str):
    return getattr(importlib.import_module(f"mlcpsim.{module}"), attr)


def test_every_span_target_resolves_and_is_restored(tmp_path):
    write_dataset(tiny_dataset(q=3, m=2, trials_per_class=2), tmp_path / "ds")
    spans = _spans()
    originals = {(module, attr): _target(module, attr) for module, attr, *_ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.begin("check")
    tracer.install()
    try:
        assert tracer.missing == []
        # the hidden-layer counters read the pass that training runs
        chip = build_chip(1, AnalogParams(), d=3, l=4)
        codes = [np.full((5, 3), 9, np.uint8), np.zeros((2, 3), np.uint8)]
        training.hidden_rows(codes, [5, 2], chip, normalize=True)
        assert tracer.counts["analog.macs"] == 7 * 3 * 4
        assert tracer.counts["analog.cco_cells"] == 7 * 4
        assert tracer.counts["analog.zero_rows"] == 2
        # the training counters read collect_H's H and the fit's method
        # argument, given by position or by name
        hidden, targets = training.collect_H(tiny_dataset(q=3, m=2, trials_per_class=2), chip,
                                             FrontendConfig.tdbdi(3, 1))
        assert tracer.counts["training.h_rows"] == hidden.h.shape[0] > 0
        pruned = 0
        for fits, args, kwargs in [(1, ("T2",), {}), (2, (), {"method": "T2"})]:
            w = training.fit_output_weights(hidden, targets, *args, target_sparsity=0.5, **kwargs)
            pruned += int(np.count_nonzero(~w.support))
            assert tracer.counts["training.fits"] == fits
            assert tracer.counts["training.t2_pruned"] == pruned > 0
        # the decoder counters read the dataset's trials, here a manifest's
        # rows, whose events the decode reads one file at a time
        manifest = read_manifest(tmp_path / "ds")
        model = DecoderModel(w.beta, w.support, 2, frontend=FrontendConfig.tdbdi(3, 1))
        decoder.evaluate(manifest, model, chip)
        assert tracer.counts["decoder.evaluations"] == 1
        grid = np.linspace(0.0, 1.5, 7)
        decoder.roc_sweep(manifest, model, chip, theta_grid=grid)
        ticks = sum(tick_count(model.frontend, trial) for trial in manifest.trials)
        assert tracer.counts["decoder.fsm_steps"] == len(grid) * ticks > 0
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert _target(module, attr) is original
    assert training.hidden_layer is analog.hidden_layer
