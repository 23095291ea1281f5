"""Span tracer for the benchmark's traced run.

It wraps public functions of the ``mlcpsim`` package from outside the
package: each wrapped call records one span (name, start, end, parent) in
memory, plus deterministic work counts taken from the call's arguments and
result.  Nothing under ``src/`` changes.  Wrapping stays at per-trial
granularity or coarser; per-tick work (the tracking FSM) is counted from
array shapes instead of being wrapped.

A wrapped name is replaced in every ``mlcpsim`` module that imported it, so
``from .frontend import run_trial`` call sites see the wrapper too.  A target
that a later version of the package no longer has is skipped and listed in
``Tracer.missing``; the metrics it feeds then read zero.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

LAYERS = ("spikeio", "frontend", "analog", "training", "decoder", "cli")
CLI_COMMANDS = ("gen", "chip", "train", "eval", "roc", "stream", "sweep")

SUBCOUNT_MAX = 15  # 4-bit sub-window counter
WINDOW_MAX = 63  # 6-bit window output


def _tree_events_and_bytes(root) -> tuple[int, int]:
    """Event rows and total bytes of a dataset directory, read from disk.

    Counting from the files keeps the count independent of how a version of
    the package holds events in memory.
    """
    events = size = 0
    for path in Path(root).rglob("*"):
        if not path.is_file():
            continue
        data = path.read_bytes()
        size += len(data)
        if path.parent.name == "events":
            events += data.count(b"\n") - 1  # minus the header line
    return events, size


def _count_write(c, args, kwargs, result):
    _, size = _tree_events_and_bytes(args[1] if len(args) > 1 else kwargs["root_path"])
    c["spikeio.dataset_bytes"] += size


def _count_parse(c, args, kwargs, result):
    events, _ = _tree_events_and_bytes(args[0] if args else kwargs["root_path"])
    c["spikeio.parse_calls"] += 1
    c["spikeio.events"] += events


def _count_bin(c, args, kwargs, result):
    times = args[0] if args else kwargs["times_us"]
    c["frontend.subwindow_saturations"] += int(np.count_nonzero(result > SUBCOUNT_MAX))
    c["frontend.events_dropped"] += len(times) - int(result.sum())


def _count_run_trial(c, args, kwargs, result):
    c["frontend.ticks"] += int(result.shape[0])
    c["frontend.window_clamps"] += int(np.count_nonzero(result >= WINDOW_MAX))


def _count_hidden(c, args, kwargs, result):
    x = np.atleast_2d(args[0] if args else kwargs["x_codes"])
    chip = args[1] if len(args) > 1 else kwargs["chip"]
    h = np.atleast_2d(result)
    c["analog.macs"] += int(x.shape[0]) * chip.d * chip.l
    c["analog.cco_cells"] += int(h.size)
    c["analog.cco_stops"] += int(np.count_nonzero(h >= chip.params.stop_value))
    c["analog.zero_rows"] += int(np.count_nonzero((h.sum(axis=1) == 0) | (x.sum(axis=1) == 0)))


def _count_collect(c, args, kwargs, result):
    c["training.h_rows"] += int(result[0].h.shape[0])


def _fit_method(args, kwargs) -> str:
    return str(kwargs.get("method", args[2] if len(args) > 2 else "T1"))


def _count_fit(c, args, kwargs, result):
    c["training.fits"] += 1
    if _fit_method(args, kwargs) == "T2":
        c["training.t2_pruned"] += int(np.count_nonzero(~np.asarray(result.support)))


def _count_decode(c, args, kwargs, result):
    c["decoder.fsm_steps"] += int(len(result.g))
    c["decoder.detections"] += int(len(result.detections_ms()))


def _count_roc(c, args, kwargs, result):
    dataset, model = args[0], args[1]
    t_s_us = model.frontend.t_s_ms * 1000.0
    ticks = sum(math.ceil(trial.duration / t_s_us) for trial in dataset.trials)
    c["decoder.fsm_steps"] += len(result) * ticks


def _count_evaluate(c, args, kwargs, result):
    c["decoder.evaluations"] += 1
    c["decoder.tpr_sum"] += result.tpr
    c["decoder.fp_per_trial_sum"] += result.fp_per_trial


# (module, attribute, span name, counter); span name None = count only.
TARGETS = (
    ("spikeio", "gen_synthetic", "spikeio.gen", None),
    ("spikeio", "write_dataset", "spikeio.write", _count_write),
    ("spikeio", "parse_dataset", "spikeio.parse", _count_parse),
    ("frontend", "run_trial", "frontend.run_trial", _count_run_trial),
    ("frontend", "bin_events", None, _count_bin),
    ("analog", "build_chip", "analog.build_chip", None),
    ("analog", "save_chip", "analog.save_chip", None),
    ("analog", "load_chip", "analog.load_chip", None),
    ("analog", "mismatch_map", "analog.mismatch_map", None),
    ("analog", "write_mismatch_map", "analog.write_mismatch_map", None),
    ("analog", "hidden_layer", "analog.hidden_layer", _count_hidden),
    ("training", "collect_H", "training.collect_H", _count_collect),
    ("training", "fit_output_weights", "training.fit", _count_fit),
    ("decoder", "split_dataset", "decoder.split_dataset", None),
    ("decoder", "save_model", "decoder.save_model", None),
    ("decoder", "load_model", "decoder.load_model", None),
    ("decoder", "decode_stream", "decoder.decode_stream", _count_decode),
    ("decoder", "evaluate", "decoder.evaluate", _count_evaluate),
    ("decoder", "roc_sweep", "decoder.roc_sweep", _count_roc),
    ("decoder", "write_roc_csv", "decoder.write_roc_csv", None),
    ("decoder", "write_stream_csv", "decoder.write_stream_csv", None),
)


class Tracer:
    """In-memory spans and counts; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.phases: dict[str, tuple[list, Counter]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.installed = False

    def begin(self, phase: str) -> None:
        """Start a phase; its spans ([name, start, end, parent]) and counts are kept apart."""
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phases[phase] = (self.spans, self.counts)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span_name = name
                if name == "training.fit":
                    span_name = f"training.fit_{_fit_method(args, kwargs)}"
                with self.span(span_name):
                    result = fn(*args, **kwargs)
            if counter is not None:
                # its own span, so counting is not charged to the caller's self time
                with self.span("trace.count"):
                    counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n.startswith("mlcpsim.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules.get(f"mlcpsim.{module_name}"), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            for module in package:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
        self.installed = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.installed = False

    def dump(self, path) -> None:
        """Write the spans as JSON lines (written once, at the end of a run)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for phase, (spans, _) in self.phases.items():
                for index, (name, start, end, parent) in enumerate(spans):
                    out.write(json.dumps({"phase": phase, "id": index, "name": name,
                                          "start": start, "end": end, "parent": parent}) + "\n")


COUNT_KEYS = ("spikeio.parse_calls", "spikeio.events", "spikeio.dataset_bytes",
              "frontend.ticks", "frontend.subwindow_saturations", "frontend.window_clamps",
              "frontend.events_dropped", "analog.macs", "analog.zero_rows", "analog.cco_stops",
              "analog.cco_cells", "training.h_rows", "training.fits", "training.t2_pruned",
              "decoder.fsm_steps", "decoder.detections", "decoder.evaluations",
              "decoder.tpr_sum", "decoder.fp_per_trial_sum")


def span_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Inclusive and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    inclusive: Counter = Counter()
    child: Counter = Counter()
    for name, start, end, parent in spans:
        inclusive[name] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
    own: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        own[name] += (end - start) - child[index]
    return inclusive, own


def top_level_seconds(spans: list[list], layer: str) -> float:
    """Seconds inside spans of ``layer`` not nested in another span of that layer."""
    total = 0.0
    for name, start, end, parent in spans:
        if name.split(".")[0] != layer:
            continue
        if parent >= 0 and spans[parent][0].split(".")[0] == layer:
            continue
        total += end - start
    return total


def stream_seconds(spans: list[list]) -> float:
    """Seconds in decode_stream calls made by the ``stream`` command itself."""
    return sum(end - start for name, start, end, parent in spans
               if name == "decoder.decode_stream" and parent >= 0
               and spans[parent][0] == "cli.stream")


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer timings and counts for one set of spans (one phase)."""
    inclusive, own = span_times(spans)
    m: dict[str, float] = {}
    m["spikeio.gen_s"] = inclusive["spikeio.gen"]
    m["spikeio.write_s"] = inclusive["spikeio.write"]
    m["spikeio.parse_s"] = inclusive["spikeio.parse"]
    m["frontend.run_trial_s"] = inclusive["frontend.run_trial"]
    m["analog.hidden_layer_s"] = inclusive["analog.hidden_layer"]
    m["training.collect_H_s"] = inclusive["training.collect_H"]
    m["training.fit_T1_s"] = inclusive["training.fit_T1"]
    m["training.fit_T2_s"] = inclusive["training.fit_T2"]
    m["decoder.evaluate_s"] = inclusive["decoder.evaluate"]
    m["decoder.roc_s"] = inclusive["decoder.roc_sweep"]
    m["decoder.stream_s"] = stream_seconds(spans)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = inclusive[f"cli.{cmd}"]
        m[f"cli.{cmd}_self_s"] = own[f"cli.{cmd}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    m = {k: float(v) for k, v in m.items()}
    for key in COUNT_KEYS:
        m[key] = counts[key]
    return m


def rates(m: dict[str, float]) -> dict[str, float]:
    """Throughputs and ratios derived from summed timings and counts."""
    def ratio(num, den):
        return num / den if den > 0 else 0.0

    return {
        "spikeio.parse_events_per_s": ratio(m["spikeio.events"], m["spikeio.parse_s"]),
        "frontend.ticks_per_s": ratio(m["frontend.ticks"], m["frontend.run_trial_s"]),
        "analog.macs_per_s": ratio(m["analog.macs"], m["analog.hidden_layer_s"]),
        "analog.cco_stop_frac": ratio(m["analog.cco_stops"], m["analog.cco_cells"]),
        "decoder.fsm_steps_per_s": ratio(m["decoder.fsm_steps"], m["decoder.self_s"]),
        "decoder.tpr": ratio(m["decoder.tpr_sum"], m["decoder.evaluations"]),
        "decoder.fp_per_trial": ratio(m["decoder.fp_per_trial_sum"], m["decoder.evaluations"]),
    }


# The layer each workload is built to load: (label, metric over traced wall_s, test).
ROLES = {
    "chip-max": [("spikeio self > 50% of wall_s", "spikeio.self_s", lambda s: s > 0.5)],
    "sweep": [("training incl. frontend/analog > 50% of wall_s", "training.incl_s",
               lambda s: s > 0.5),
              ("spikeio self < 10% of wall_s", "spikeio.self_s", lambda s: s < 0.1)],
    "roc-dense": [("decoder incl. frontend/analog > 70% of wall_s", "decoder.incl_s",
                   lambda s: s > 0.7)],
}


def summarize(tracer: Tracer, traced: list, walls: list, traced_walls: list, workload: str):
    """Per-layer metrics, role checks and count problems of one traced run.

    Each timing is its set-up value plus the median over the traced chains;
    each count is its set-up value plus one chain's, since counts must
    repeat exactly from one traced chain to the next.
    """
    setup_spans, setup_counts = tracer.phases["setup"]
    chains = [layer_metrics(spans, counts) for spans, counts in traced]
    for metrics, (spans, _) in zip(chains, traced):
        metrics["training.incl_s"] = top_level_seconds(spans, "training")
        metrics["decoder.incl_s"] = top_level_seconds(spans, "decoder")
    problems = [f"traced chain {i} counts differ from chain 0"
                for i, m in enumerate(chains[1:], start=1)
                if any(m[k] != chains[0][k] for k in COUNT_KEYS)]
    setup = layer_metrics(setup_spans, setup_counts)
    combined = {k: setup.get(k, 0) + (chains[0][k] if k in COUNT_KEYS
                                      else median(m[k] for m in chains))
                for k in chains[0]}
    combined.update(rates(combined))
    traced_wall = median(traced_walls)
    combined["trace.overhead_s"] = traced_wall - median(walls)
    for layer in LAYERS:
        combined[f"{layer}.share"] = median(m[f"{layer}.self_s"] for m in chains) / traced_wall
    roles = []
    for label, key, test in ROLES[workload]:
        share = median(m[key] for m in chains) / traced_wall
        roles.append({"role": label, "share": share, "met": bool(test(share))})
    return combined, roles, problems
