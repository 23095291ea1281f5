"""Runtime decoding and evaluation.

Per 20 ms tick the decoder computes the M+1 output values
``o = beta^T h`` from the (optionally normalized) hidden counts, then:

* type: ``s = argmax(o_1..o_M)`` (lowest index wins ties), classes 1..M;
* onset: ``G = 1`` iff the onset output strictly exceeds the threshold;
* tracking: ``G_track = 1`` iff at least ``lam`` of the last ``tau`` G bits
  are high and the refractory window from the previous detection (``Tr`` ms)
  has expired; each G_track rising edge re-arms the refractory timer;
* combined: ``F = G_track * s`` - the class label exactly when a tracked
  onset fires, else 0.

Only the tracker's refractory state steps through time (``_track_steps``),
for many (threshold, stream) pairs at once.

Evaluation scores movement type per trial by majority vote of the per-tick
class over the membership plateau, and onset detection by matching G_track
events against a tolerance window around the true onset (events outside it
count as false positives).  "At least ``lam`` of the last ``tau`` onset
outputs exceed theta" is the same test as "the ``lam``-th largest of them
exceeds theta", so ``score_onsets`` ranks each trial's windows once and
tracks every (threshold, trial) pair of an ``evaluate`` or ``roc_sweep``
call in one pass through the ticks.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analog import AnalogParams, ChipInstance
from .fields import (bounds, check_fields, check_values, json_array,
                     read_versioned_json, write_versioned_json)
from .frontend import FrontendConfig, run_trial
from .spikeio import Dataset, DatasetError
from .training import TrapezoidParams, hidden_stream, trial_rng

MODEL_FORMAT = "mlcpsim-model"
MODEL_VERSION = 1


@dataclass
class DecoderModel:
    """Everything needed to run the decoder: weights, thresholds, layout.

    ``beta`` is (L, M+1); columns 1..M drive the classifier and the last
    column the onset regressor.  ``chip_seed`` records which fabricated die
    the weights were trained against.
    """

    beta: np.ndarray
    support: np.ndarray
    m: int = bounds(ge=1)
    theta: float = 0.75
    lam: int = bounds(6, ge=1)  # required high ticks in the tracking window
    tau: int = bounds(10, ge=1, ge_field="lam")  # tracking window length, ticks
    tr_ms: float = bounds(140.0, ge=0.0)  # refractory after a detection
    normalize: bool = True
    chip_seed: int = bounds(0, like=(ChipInstance, "seed"))
    fmax_sel: int = bounds(7, like=(AnalogParams, "fmax_sel"))
    frontend: FrontendConfig = None  # type: ignore[assignment]
    trap: TrapezoidParams = field(default_factory=TrapezoidParams)
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=bool)
        if self.beta.ndim != 2 or self.beta.shape[1] != self.m + 1:
            raise ValueError(f"beta must be (L, {self.m + 1}), got {self.beta.shape}")
        if self.frontend is None:
            raise ValueError("model needs a frontend configuration")

    @property
    def tr_ticks(self) -> float:
        """The refractory length in ticks (not rounded)."""
        return self.tr_ms / self.frontend.t_s_ms


@dataclass
class ScoringSettings:
    """The ``decoder.*`` keys outside the model: onset scoring and runtime noise."""

    tol_ms: float = bounds(150.0, ge=0)
    noise_on: bool = False
    noise_seed: int = bounds(0, ge=0)


@dataclass
class SplitSettings:
    """The ``split.*`` keys: ``split_dataset``'s test share and seed."""

    test_fraction: float = bounds(0.3, gt=0.0, lt=1.0)
    seed: int = bounds(0, ge=0)


def save_model(model: DecoderModel, path: str | Path) -> None:
    """Write a decoder model to a versioned JSON file (byte-deterministic)."""
    write_versioned_json(path, MODEL_FORMAT, MODEL_VERSION, model)


def load_model(path: str | Path) -> DecoderModel:
    return read_versioned_json(path, MODEL_FORMAT, MODEL_VERSION, DecoderModel)


# ----------------------------------------------------------------- decode

class ChipMismatchError(ValueError):
    """The chip does not have the shape the model was trained against."""


def check_chip(model: DecoderModel, chip: ChipInstance) -> None:
    """Raise ``ChipMismatchError`` unless the chip's D and L match the model."""
    d, l = model.frontend.rows, model.beta.shape[0]
    if (d, l) != (chip.d, chip.l):
        raise ChipMismatchError(f"model needs a chip with D={d} rows and L={l} neurons "
                                f"(beta rows), chip has D={chip.d}, L={chip.l}")


#: Cells the onset scorer works on at once: (threshold, stream) pairs stepped
#: through time together, or window values ranked together.  Bounds its
#: working set whatever the number of thresholds or ticks.
_TRACK_CELLS = 1 << 15


def _track_steps(levels: np.ndarray, thetas, tr_ticks: float):
    """Run one tracker per (threshold, stream) pair through the ticks at once.

    ``levels`` is (T, B): pair (theta, b) passes its window test at tick n
    when ``levels[n, b] > theta``; it is high when it passes and is past its
    refractory deadline, and each rising edge pushes that deadline
    ``tr_ticks`` ahead.  Yields ``(n, cur, rise)`` with G_track and its rising
    edges as (thresholds, B) arrays, reused between ticks (``rise`` is None at
    a tick without one), for each tick at which some level exceeds the
    smallest threshold; at every other tick all outputs are low.
    """
    th = np.asarray(thetas, dtype=np.float64)[:, None]
    n_ticks = levels.shape[0]
    shape = (len(th), levels.shape[1])
    # deadlines as ticks: until <= n exactly when ceil(until) <= n
    until = np.zeros(shape, dtype=np.int64)
    cur, prev, rise, free = (np.zeros(shape, dtype=bool) for _ in range(4))
    last = -1
    for n in np.flatnonzero((levels > th.min()).any(axis=1)).tolist():
        if n != last + 1:  # every output was low at tick n - 1
            prev.fill(False)
        last = n
        np.greater(levels[n], th, out=cur)
        np.less_equal(until, n, out=free)
        cur &= free
        np.greater(cur, prev, out=rise)
        if rise.any():
            np.copyto(until, math.ceil(min(n + tr_ticks, n_ticks)), where=rise)
            yield n, cur, rise
        else:
            yield n, cur, None
        cur, prev = prev, cur


@dataclass
class DecodeResult:
    """Per-tick decoder outputs for one stream."""

    t_ms: np.ndarray  # end-of-window timestamps
    o: np.ndarray  # (T, M+1)
    s: np.ndarray  # predicted class per tick, 1..M
    g: np.ndarray
    g_track: np.ndarray
    f: np.ndarray

    def detections_ms(self) -> np.ndarray:
        """Timestamps of G_track rising edges."""
        rising = (self.g_track == 1) & (np.concatenate([[0], self.g_track[:-1]]) == 0)
        return self.t_ms[rising]


def decode_stream(dataset: Dataset, index: int, model: DecoderModel, chip: ChipInstance,
                  noise_seed: int | None = None) -> DecodeResult:
    """Trial ``index`` of ``dataset`` decoded tick by tick: its outputs from
    ``_output_streams``, then the per-tick class, onset bits and times."""
    [o] = _output_streams(dataset, [index], model, chip, noise_seed)
    s = np.argmax(o[:, : model.m], axis=1) + 1
    g = (o[:, model.m] > model.theta).astype(np.int64)
    g_track = np.zeros(len(o), dtype=np.int64)  # by the window test of score_onsets
    for n, cur, _ in _track_steps(_window_levels([o], model), [model.theta], model.tr_ticks):
        g_track[n] = cur[0, 0]
    t_ms = model.frontend.tick_end_ms(np.arange(len(o)))
    return DecodeResult(t_ms, o, s, g, g_track, g_track * s)


def write_stream_csv(path: str | Path, result: DecodeResult) -> None:
    """Stream output CSV: ``tick_ms,o_1..o_{M+1},s,G,G_track,F``.  A tick
    ends on a whole µs, so its time prints exactly, in ms without trailing
    zeros (``20``, ``1019.949``)."""
    n_out = result.o.shape[1]
    header = "tick_ms," + ",".join(f"o_{k}" for k in range(1, n_out + 1)) + ",s,G,G_track,F"
    lines = [header]
    for i, us in enumerate(np.round(result.t_ms * 1000).astype(np.int64).tolist()):
        o_txt = ",".join(repr(float(v)) for v in result.o[i])
        t_txt = f"{us // 1000}.{us % 1000:03d}".rstrip("0").rstrip(".")
        lines.append(
            f"{t_txt},{o_txt},{result.s[i]},{result.g[i]},"
            f"{result.g_track[i]},{result.f[i]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------- evaluation

@dataclass
class EvalReport:
    """Scores over a test set: type accuracy plus onset detection quality."""

    accuracy: float
    confusion: np.ndarray  # [true-1, predicted-1]
    tpr: float
    fp_per_trial: float
    latencies_ms: list
    n_trials: int
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=json_array) + "\n"


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified train/test split (per-class shuffle) of the
    rows of ``dataset`` by label: two datasets of its type, ``replace``d."""
    check_values(SplitSettings, {"test_fraction": test_fraction})
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(1, dataset.class_count + 1):
        members = [i for i, t in enumerate(dataset.trials) if t.label == cls]
        order = rng.permutation(len(members))
        n_test = max(1, int(round(test_fraction * len(members)))) if members else 0
        for pos, k in enumerate(order):
            (test_idx if pos < n_test else train_idx).append(members[k])
    return tuple(replace(dataset, trials=[dataset.trials[i] for i in sorted(idx)],
                         metadata=dict(dataset.metadata)) for idx in (train_idx, test_idx))


def plateau_votes(outputs: np.ndarray, n_ticks, m: int) -> np.ndarray:
    """Type votes of trials from their outputs at the ticks on the plateau:
    trial i owns the next ``n_ticks[i]`` rows of ``outputs``, and votes for
    the class 1..m that most of them rank first (the lowest on a tie), or 0
    (no vote) if it owns none."""
    n_ticks = np.asarray(n_ticks, dtype=np.int64)
    trial = np.repeat(np.arange(len(n_ticks)), n_ticks)
    counts = np.bincount(trial * m + np.argmax(outputs[:, :m], axis=1),
                         minlength=len(n_ticks) * m)
    return np.where(n_ticks > 0, np.argmax(counts.reshape(-1, m), axis=1) + 1, 0)


def plateau_ticks(trap: TrapezoidParams, frontend: FrontendConfig,
                  n_ticks) -> tuple[np.ndarray, np.ndarray]:
    """The ticks that the type vote reads, for trials of ``n_ticks`` ticks:
    a mask over tick numbers up to the longest trial's, true where the
    tick's window ends on the plateau (``trap.on_plateau``), and each
    trial's count of them, its ``plateau_votes`` row count."""
    n_ticks = np.asarray(n_ticks, dtype=np.int64)
    on = trap.on_plateau(frontend.tick_end_ms(np.arange(n_ticks.max())))
    return on, np.concatenate([[0], np.cumsum(on)])[n_ticks]


def _output_streams(dataset: Dataset, indices, model: DecoderModel, chip: ChipInstance,
                    noise_seed: int | None) -> list[np.ndarray]:
    """(T, M+1) decoder outputs of the trials at ``indices``, in that order:
    the one decode path.  Trial ``i`` is read only as it is decoded and draws
    its noise from ``trial_rng(noise_seed, i)`` (None: off), whatever else is decoded."""
    if not indices:
        raise ValueError("cannot evaluate an empty test set")
    check_chip(model, chip)
    return [hidden_stream(run_trial(model.frontend, dataset.trial(i)), chip, model.normalize,
                          trial_rng(noise_seed, i)) @ model.beta for i in indices]


def _window_levels(outputs: list[np.ndarray], model: DecoderModel) -> np.ndarray:
    """(T, B) levels of a trial batch: a trial's level at a tick is the
    ``lam``-th largest of its last ``tau`` onset outputs (-inf before its
    first tick, past its last and for NaN), so at least ``lam`` of those
    outputs exceed theta exactly when the level does, whatever theta is.
    Every window is ranked, whole trials at a time, at most ``_TRACK_CELLS``
    window values (or one trial's) at once.
    """
    tau, k = model.tau, model.tau - model.lam  # the lam-th largest, at index k when sorted
    lengths = np.array([len(o) for o in outputs])
    n_trials, n_ticks = len(outputs), int(lengths.max())
    valid = np.arange(n_ticks) < lengths[:, None]
    onset = np.full((n_trials, tau - 1 + n_ticks), -np.inf)
    onset[:, tau - 1:][valid] = np.concatenate([o[:, model.m] for o in outputs])
    onset[np.isnan(onset)] = -np.inf
    levels = np.full((n_ticks, n_trials), -np.inf)
    if n_ticks:  # a window longer than the padded row has no view
        windows = sliding_window_view(onset, tau, axis=1)  # (B, T, tau), a view
        step = max(1, _TRACK_CELLS // (n_ticks * tau))
        for lo in range(0, n_trials, step):
            levels[:, lo:lo + step] = np.partition(windows[lo:lo + step], k, axis=2)[..., k].T
        levels[~valid.T] = -np.inf
    return levels


def score_onsets(trials: list, outputs: list[np.ndarray], model: DecoderModel,
                 thetas: list[float], tol_ms: float) -> list[tuple[int, int, np.ndarray]]:
    """(hits, false positives, float array of hit latencies in ms) per threshold.

    A trial of ``trials`` (a dataset's) is hit when a G_track rising edge of
    its ``outputs`` lies within ``tol_ms`` of its onset (the latency is the
    first such edge's); every other rising edge is a false positive.
    Whether a trial's window test passes depends on theta only through one
    level per tick (``_window_levels``), so one pass through the ticks
    tracks every (threshold, trial) pair, in groups of at most
    ``_TRACK_CELLS`` pairs; hits and false positives are counted at the
    ticks that have a rising edge.  ``evaluate`` and ``roc_sweep`` check
    ``thetas`` and ``tol_ms`` (``ScoringSettings``) before any work.
    """
    thetas = np.asarray(thetas, dtype=np.float64).ravel()
    levels = _window_levels(outputs, model)
    n_ticks, n_trials = levels.shape
    onsets_ms = np.array([trial.onset / 1000.0 for trial in trials])
    t_ms = model.frontend.tick_end_ms(np.arange(n_ticks))
    in_window = np.abs(t_ms[:, None] - onsets_ms) <= tol_ms  # (T, B)
    group = max(1, _TRACK_CELLS // n_trials)
    scores = []
    for lo in range(0, len(thetas), group):
        chunk = thetas[lo:lo + group]
        fps = np.zeros((len(chunk), n_trials), dtype=np.int64)
        first = np.full(fps.shape, -1)  # tick of the first edge in the trial's window
        for n, _, rise in _track_steps(levels, chunk, model.tr_ticks):
            if rise is None:
                continue
            hit = rise & in_window[n]
            fps += rise ^ hit
            np.copyto(first, n, where=hit & (first < 0))
        for row_first, row_fps in zip(first, fps):
            hit_trials = np.flatnonzero(row_first >= 0)
            latencies = t_ms[row_first[hit_trials]] - onsets_ms[hit_trials]
            scores.append((len(hit_trials), int(row_fps.sum()), latencies))
    return scores


def evaluate(dataset: Dataset, model: DecoderModel, chip: ChipInstance,
             noise_seed: int | None = None, tol_ms: float = 150.0) -> EvalReport:
    """Score a test set.

    Type accuracy is the fraction of trials whose ``plateau_votes`` vote,
    over the ticks whose window ends on the trapezoid plateau
    (``model.trap.on_plateau``), matches the label (a trial with no such
    tick has no vote, is wrong and stays out of the confusion matrix); TPR
    the fraction with a detection within ``tol_ms`` of the true onset;
    detections outside that window count as false positives.  With a
    ``noise_seed`` (None: noise off), each trial uses its own
    counter-derived stream, so scores are independent of evaluation order.
    The trials are decoded here (``_output_streams``); ``sweep`` scores type
    alone, by ``plateau_votes`` on the plateau rows.
    """
    check_values(ScoringSettings, {"tol_ms": tol_ms})
    labels = np.array([trial.label for trial in dataset.trials], dtype=np.int64)
    if (above := labels > model.m).any():  # a class the model can never vote for
        trial = dataset.trials[int(np.argmax(above))]
        raise DatasetError(f"trial {trial.id!r} has label {trial.label}, but the model "
                           f"decodes M = {model.m} classes")
    outputs = _output_streams(dataset, range(len(dataset.trials)), model, chip, noise_seed)
    on, n_votes = plateau_ticks(model.trap, model.frontend, list(map(len, outputs)))
    votes = plateau_votes(np.concatenate([o[on[:len(o)]] for o in outputs]), n_votes, model.m)
    voted = votes > 0
    confusion = np.zeros((model.m, model.m), dtype=np.int64)
    np.add.at(confusion, (labels[voted] - 1, votes[voted] - 1), 1)
    [(hits, fps, latencies)] = score_onsets(dataset.trials, outputs, model, [model.theta], tol_ms)
    n = len(dataset.trials)
    return EvalReport(
        accuracy=float(np.trace(confusion)) / n,
        confusion=confusion,
        tpr=hits / n,
        fp_per_trial=fps / n,
        latencies_ms=latencies.tolist(),
        n_trials=n,
        metadata={"aggregation": "per-trial plateau majority", "tol_ms": tol_ms},
    )


def roc_sweep(dataset: Dataset, model: DecoderModel, chip: ChipInstance,
              theta_grid: np.ndarray, noise_seed: int | None = None,
              tol_ms: float = 150.0) -> list[tuple[float, float, float]]:
    """(theta, TPR, FP/trial) over a threshold grid, sorted by theta.

    The hidden-layer streams do not depend on theta, so they are computed
    once per trial and only the thresholding and tracking are re-run.
    """
    thetas = sorted(float(t) for t in np.asarray(theta_grid).ravel())
    if not thetas or np.isnan(thetas).any():
        raise ValueError("the theta grid must hold one or more onset thresholds, none NaN")
    check_values(ScoringSettings, {"tol_ms": tol_ms})
    outputs = _output_streams(dataset, range(len(dataset.trials)), model, chip, noise_seed)
    scores = score_onsets(dataset.trials, outputs, model, thetas, tol_ms)
    n = len(dataset.trials)
    return [(theta, hits / n, fps / n) for theta, (hits, fps, _) in zip(thetas, scores)]


def write_roc_csv(path: str | Path, points: list[tuple[float, float, float]]) -> None:
    """ROC CSV: ``theta,tpr,fp_per_trial``."""
    lines = ["theta,tpr,fp_per_trial"]
    for theta, tpr, fp in points:
        lines.append(f"{theta!r},{tpr!r},{fp!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
